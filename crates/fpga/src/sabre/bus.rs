//! The Sabre peripheral bus and the board peripherals of Figure 6.
//!
//! The Sabre is the bus master; peripherals are "smart" memory-mapped
//! register blocks (the paper: "peripherals are simply connected via
//! another 32-bit bus into the processor memory space"). Loads and
//! stores with addresses at or above [`BUS_BASE`] are routed here.

use std::collections::VecDeque;

/// First address of the peripheral space.
pub const BUS_BASE: u32 = 0x8000_0000;
/// LED register block offset.
pub const LEDS_BASE: u32 = 0x8000_0000;
/// Switch register block offset.
pub const SWITCHES_BASE: u32 = 0x8000_0010;
/// Touchscreen register block offset.
pub const TOUCH_BASE: u32 = 0x8000_0020;
/// GUI command block offset.
pub const GUI_BASE: u32 = 0x8000_0030;
/// UART 1 (DMU) block offset.
pub const UART1_BASE: u32 = 0x8000_0040;
/// UART 2 (ACC) block offset.
pub const UART2_BASE: u32 = 0x8000_0050;
/// Control/angles block offset (the 12-register SabreBusControl).
pub const CONTROL_BASE: u32 = 0x8000_0060;

/// A memory-mapped peripheral occupying a small register window.
///
/// Peripherals are `Send` so a whole [`crate::sabre::Sabre`] (and any
/// host-side harness embedding one, such as a fusion-session event
/// sink) can move to a worker thread.
pub trait Peripheral: Send {
    /// Human-readable name (diagnostics).
    fn name(&self) -> &'static str;

    /// Size of the register window in bytes.
    fn window(&self) -> u32;

    /// Reads the register at `offset` (word aligned).
    fn read(&mut self, offset: u32) -> u32;

    /// Writes the register at `offset`.
    fn write(&mut self, offset: u32, value: u32);

    /// Typed access for host-side harnesses
    /// (`bus.device_at(base)?.as_any().downcast_mut::<UartPort>()`).
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// Bus fault raised on access to an unmapped address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusFault(pub u32);

impl std::fmt::Display for BusFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bus fault at {:#010x}", self.0)
    }
}

impl std::error::Error for BusFault {}

/// The peripheral bus: an address-sorted set of register windows.
#[derive(Default)]
pub struct Bus {
    devices: Vec<(u32, Box<dyn Peripheral>)>,
}

impl std::fmt::Debug for Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<_> = self
            .devices
            .iter()
            .map(|(base, d)| format!("{:#010x}:{}", base, d.name()))
            .collect();
        write!(f, "Bus[{}]", names.join(", "))
    }
}

impl Bus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a peripheral at a base address.
    ///
    /// # Panics
    ///
    /// Panics if the window overlaps an existing device.
    pub fn map(&mut self, base: u32, device: Box<dyn Peripheral>) {
        let end = base + device.window();
        for (b, d) in &self.devices {
            let dend = b + d.window();
            assert!(
                end <= *b || base >= dend,
                "window {:#x}..{:#x} overlaps {}",
                base,
                end,
                d.name()
            );
        }
        self.devices.push((base, device));
        self.devices.sort_by_key(|(b, _)| *b);
    }

    fn find(&mut self, addr: u32) -> Option<(&mut Box<dyn Peripheral>, u32)> {
        for (base, dev) in &mut self.devices {
            if addr >= *base && addr < *base + dev.window() {
                return Some((dev, addr - *base));
            }
        }
        None
    }

    /// Reads a bus word.
    ///
    /// # Errors
    ///
    /// [`BusFault`] if no device claims the address.
    pub fn read32(&mut self, addr: u32) -> Result<u32, BusFault> {
        match self.find(addr) {
            Some((dev, off)) => Ok(dev.read(off)),
            None => Err(BusFault(addr)),
        }
    }

    /// Writes a bus word.
    ///
    /// # Errors
    ///
    /// [`BusFault`] if no device claims the address.
    pub fn write32(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
        match self.find(addr) {
            Some((dev, off)) => {
                dev.write(off, value);
                Ok(())
            }
            None => Err(BusFault(addr)),
        }
    }

    /// Borrows a mapped device by base address (test/host access).
    pub fn device_at(&mut self, base: u32) -> Option<&mut Box<dyn Peripheral>> {
        self.devices
            .iter_mut()
            .find(|(b, _)| *b == base)
            .map(|(_, d)| d)
    }
}

/// The RC200E LED bank (write = set LEDs, read back).
#[derive(Clone, Debug, Default)]
pub struct Leds {
    state: u32,
}

impl Leds {
    /// Creates LEDs, all off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current LED state.
    pub fn state(&self) -> u32 {
        self.state
    }
}

impl Peripheral for Leds {
    fn name(&self) -> &'static str {
        "leds"
    }

    fn window(&self) -> u32 {
        4
    }

    fn read(&mut self, _offset: u32) -> u32 {
        self.state
    }

    fn write(&mut self, _offset: u32, value: u32) {
        self.state = value;
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The board switch bank (host sets, core reads).
#[derive(Clone, Debug, Default)]
pub struct Switches {
    state: u32,
}

impl Switches {
    /// Creates switches, all open.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the switch lines (host side).
    pub fn set(&mut self, state: u32) {
        self.state = state;
    }
}

impl Peripheral for Switches {
    fn name(&self) -> &'static str {
        "switches"
    }

    fn window(&self) -> u32 {
        4
    }

    fn read(&mut self, _offset: u32) -> u32 {
        self.state
    }

    fn write(&mut self, _offset: u32, _value: u32) {}

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Touchscreen: X, Y and pressed registers (host sets, core reads).
#[derive(Clone, Debug, Default)]
pub struct TouchScreen {
    x: u32,
    y: u32,
    pressed: bool,
}

impl TouchScreen {
    /// Creates an untouched screen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a touch at pixel coordinates.
    pub fn touch(&mut self, x: u32, y: u32) {
        self.x = x;
        self.y = y;
        self.pressed = true;
    }

    /// Simulates release.
    pub fn release(&mut self) {
        self.pressed = false;
    }
}

impl Peripheral for TouchScreen {
    fn name(&self) -> &'static str {
        "touchscreen"
    }

    fn window(&self) -> u32 {
        12
    }

    fn read(&mut self, offset: u32) -> u32 {
        match offset {
            0 => self.x,
            4 => self.y,
            8 => self.pressed as u32,
            _ => 0,
        }
    }

    fn write(&mut self, _offset: u32, _value: u32) {}

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// GUI command FIFO: the core writes packed draw commands; the video
/// block (host side here) drains them. Register 0 is the command port,
/// register 4 is status (bit 0 = FIFO not full).
#[derive(Clone, Debug)]
pub struct GuiFifo {
    commands: VecDeque<u32>,
    capacity: usize,
    overflows: u64,
}

impl GuiFifo {
    /// Creates a FIFO with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            commands: VecDeque::with_capacity(capacity),
            capacity,
            overflows: 0,
        }
    }

    /// Drains all pending commands (video side).
    pub fn drain(&mut self) -> Vec<u32> {
        self.commands.drain(..).collect()
    }

    /// Commands dropped due to a full FIFO.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }
}

impl Peripheral for GuiFifo {
    fn name(&self) -> &'static str {
        "gui"
    }

    fn window(&self) -> u32 {
        8
    }

    fn read(&mut self, offset: u32) -> u32 {
        match offset {
            4 => (self.commands.len() < self.capacity) as u32,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        if offset == 0 {
            if self.commands.len() < self.capacity {
                self.commands.push_back(value);
            } else {
                self.overflows += 1;
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A UART port as seen by the core: offset 0 = data (read pops RX,
/// write pushes TX), offset 4 = status (bit 0 = RX available, bit 1 =
/// TX ready).
#[derive(Clone, Debug, Default)]
pub struct UartPort {
    rx: VecDeque<u8>,
    tx: VecDeque<u8>,
}

impl UartPort {
    /// Creates an idle port.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host side: deliver received bytes to the core.
    pub fn feed_rx(&mut self, bytes: &[u8]) {
        self.rx.extend(bytes.iter().copied());
    }

    /// Host side: collect bytes the core transmitted.
    pub fn take_tx(&mut self) -> Vec<u8> {
        self.tx.drain(..).collect()
    }
}

impl Peripheral for UartPort {
    fn name(&self) -> &'static str {
        "uart"
    }

    fn window(&self) -> u32 {
        8
    }

    fn read(&mut self, offset: u32) -> u32 {
        match offset {
            0 => self.rx.pop_front().map_or(0xFFFF_FFFF, u32::from),
            4 => (!self.rx.is_empty() as u32) | 0b10, // TX always ready
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        if offset == 0 {
            self.tx.push_back(value as u8);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Register indices of the control block (one per word).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum ControlReg {
    /// Roll misalignment, Q16.16 radians.
    Roll = 0,
    /// Pitch misalignment, Q16.16 radians.
    Pitch = 1,
    /// Yaw misalignment, Q16.16 radians.
    Yaw = 2,
    /// Roll 1-sigma, Q16.16 radians.
    RollSigma = 3,
    /// Pitch 1-sigma, Q16.16 radians.
    PitchSigma = 4,
    /// Yaw 1-sigma, Q16.16 radians.
    YawSigma = 5,
    /// Status flags (bit 0 = Kalman result valid, bit 1 = video enable).
    Status = 6,
    /// Count of filter updates performed.
    UpdateCount = 7,
    /// Operating mode selector.
    Mode = 8,
    /// X translation correction, pixels (signed).
    Bx = 9,
    /// Y translation correction, pixels (signed).
    By = 10,
    /// Reserved (reads back what was written).
    Reserved = 11,
}

/// The 12-register control block ("SabreBusControlRun ... a set of
/// twelve memory-mapped registers including roll, pitch and yaw values
/// and status flags that are used directly by the FPGA video
/// transformation block").
#[derive(Clone, Debug, Default)]
pub struct ControlBlock {
    regs: [u32; 12],
}

impl ControlBlock {
    /// Creates a zeroed control block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host/video-side register read.
    pub fn reg(&self, r: ControlReg) -> u32 {
        self.regs[r as usize]
    }

    /// Host/video-side register write.
    pub fn set_reg(&mut self, r: ControlReg, value: u32) {
        self.regs[r as usize] = value;
    }

    /// Roll/pitch/yaw as Q16.16 radians (the video block's view).
    pub fn angles_q16(&self) -> [i32; 3] {
        [
            self.regs[0] as i32,
            self.regs[1] as i32,
            self.regs[2] as i32,
        ]
    }

    /// `true` when the Kalman-result-valid status bit is set.
    pub fn result_valid(&self) -> bool {
        self.regs[ControlReg::Status as usize] & 1 != 0
    }
}

impl Peripheral for ControlBlock {
    fn name(&self) -> &'static str {
        "control"
    }

    fn window(&self) -> u32 {
        48
    }

    fn read(&mut self, offset: u32) -> u32 {
        self.regs[(offset / 4) as usize % 12]
    }

    fn write(&mut self, offset: u32, value: u32) {
        self.regs[(offset / 4) as usize % 12] = value;
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds the standard RC200E peripheral set of Figure 6 at the
/// canonical base addresses.
pub fn standard_bus() -> Bus {
    let mut bus = Bus::new();
    bus.map(LEDS_BASE, Box::new(Leds::new()));
    bus.map(SWITCHES_BASE, Box::new(Switches::new()));
    bus.map(TOUCH_BASE, Box::new(TouchScreen::new()));
    bus.map(GUI_BASE, Box::new(GuiFifo::new(64)));
    bus.map(UART1_BASE, Box::new(UartPort::new()));
    bus.map(UART2_BASE, Box::new(UartPort::new()));
    bus.map(CONTROL_BASE, Box::new(ControlBlock::new()));
    bus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_routes_by_window() {
        let mut bus = standard_bus();
        bus.write32(LEDS_BASE, 0b1010).unwrap();
        assert_eq!(bus.read32(LEDS_BASE).unwrap(), 0b1010);
        assert_eq!(bus.read32(TOUCH_BASE + 8).unwrap(), 0); // not pressed
    }

    #[test]
    fn unmapped_address_faults() {
        let mut bus = standard_bus();
        assert!(bus.read32(0x9000_0000).is_err());
        assert!(bus.write32(0x8000_0100, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_map_panics() {
        let mut bus = Bus::new();
        bus.map(0x8000_0000, Box::new(Leds::new()));
        bus.map(0x8000_0000, Box::new(Leds::new()));
    }

    #[test]
    fn uart_port_fifo_semantics() {
        let mut port = UartPort::new();
        port.feed_rx(&[0x41, 0x42]);
        assert_eq!(port.read(4) & 1, 1); // RX available
        assert_eq!(port.read(0), 0x41);
        assert_eq!(port.read(0), 0x42);
        assert_eq!(port.read(4) & 1, 0);
        assert_eq!(port.read(0), 0xFFFF_FFFF); // empty marker
        port.write(0, 0x55);
        assert_eq!(port.take_tx(), vec![0x55]);
    }

    #[test]
    fn gui_fifo_overflow_counts() {
        let mut gui = GuiFifo::new(2);
        gui.write(0, 1);
        gui.write(0, 2);
        assert_eq!(gui.read(4), 0); // full
        gui.write(0, 3);
        assert_eq!(gui.overflows(), 1);
        assert_eq!(gui.drain(), vec![1, 2]);
        assert_eq!(gui.read(4), 1);
    }

    #[test]
    fn control_block_roundtrip() {
        let mut ctl = ControlBlock::new();
        ctl.write(0, 0x0001_8000); // roll = 1.5 in Q16.16
        ctl.write(24, 0b01); // status: valid
        assert_eq!(ctl.angles_q16()[0], 0x0001_8000);
        assert!(ctl.result_valid());
        assert_eq!(ctl.reg(ControlReg::Roll), 0x0001_8000);
    }

    #[test]
    fn touchscreen_reports_touches() {
        let mut ts = TouchScreen::new();
        ts.touch(100, 200);
        assert_eq!(ts.read(0), 100);
        assert_eq!(ts.read(4), 200);
        assert_eq!(ts.read(8), 1);
        ts.release();
        assert_eq!(ts.read(8), 0);
    }

    #[test]
    fn switches_are_read_only() {
        let mut sw = Switches::new();
        sw.set(0xF);
        sw.write(0, 0x0);
        assert_eq!(sw.read(0), 0xF);
    }
}
