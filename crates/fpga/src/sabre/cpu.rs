//! The Sabre instruction-set simulator.
//!
//! Executes encoded programs from BlockRAM program memory against
//! BlockRAM data memory and the peripheral [`Bus`], with per-
//! instruction cycle accounting (single-issue, no cache — every cost
//! is architectural).

use super::bus::{Bus, BUS_BASE};
use super::isa::{DecodeError, Instr};
use super::mem::BlockRam;
use std::fmt;

/// Default program memory size (the paper: "up to 8 kbyte program
/// memory").
pub const PROGRAM_BYTES: usize = 8 * 1024;
/// Default data memory size (the paper: "64 kbyte of data memory").
pub const DATA_BYTES: usize = 64 * 1024;

/// Execution traps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// PC left the program memory.
    PcOutOfRange(u32),
    /// Undecodable instruction word.
    Decode(DecodeError),
    /// Data access out of range or unaligned.
    BadDataAccess(u32),
    /// Peripheral bus fault.
    BusFault(u32),
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::PcOutOfRange(pc) => write!(f, "pc out of range: {pc:#x}"),
            Trap::Decode(e) => write!(f, "decode: {e}"),
            Trap::BadDataAccess(a) => write!(f, "bad data access at {a:#010x}"),
            Trap::BusFault(a) => write!(f, "bus fault at {a:#010x}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Why [`Sabre::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction executed.
    Halted,
    /// The cycle budget was exhausted.
    CycleLimit,
    /// A trap occurred.
    Trapped(Trap),
}

/// The Sabre core.
pub struct Sabre {
    regs: [u32; 16],
    pc: u32,
    program: BlockRam,
    data: BlockRam,
    /// The peripheral bus (public so harnesses can reach devices).
    pub bus: Bus,
    cycles: u64,
    instructions: u64,
    halted: bool,
}

impl fmt::Debug for Sabre {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sabre {{ pc: {}, cycles: {}, instructions: {}, halted: {} }}",
            self.pc, self.cycles, self.instructions, self.halted
        )
    }
}

impl Sabre {
    /// Creates a core with the default memory sizes and the given bus.
    pub fn new(bus: Bus) -> Self {
        Self {
            regs: [0; 16],
            pc: 0,
            program: BlockRam::new(PROGRAM_BYTES),
            data: BlockRam::new(DATA_BYTES),
            bus,
            cycles: 0,
            instructions: 0,
            halted: false,
        }
    }

    /// Creates a core with the standard RC200E peripherals mapped.
    pub fn with_standard_bus() -> Self {
        Self::new(super::bus::standard_bus())
    }

    /// Loads a program image (machine words) at address 0 and resets
    /// the PC.
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds program memory.
    pub fn load_program(&mut self, image: &[u32]) {
        self.program.load(image);
        self.pc = 0;
        self.halted = false;
    }

    /// Register value.
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[(r & 0xF) as usize]
    }

    /// Sets a register (r0 writes are ignored).
    pub fn set_reg(&mut self, r: u8, value: u32) {
        if r != 0 {
            self.regs[(r & 0xF) as usize] = value;
        }
    }

    /// Program counter (word index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Reads data memory directly (test harnesses).
    pub fn data_word(&self, addr: u32) -> Option<u32> {
        self.data.read32(addr)
    }

    /// Writes data memory directly (test harnesses).
    pub fn write_data_word(&mut self, addr: u32, value: u32) -> bool {
        self.data.write32(addr, value)
    }

    fn load32(&mut self, addr: u32) -> Result<u32, Trap> {
        if addr >= BUS_BASE {
            self.bus.read32(addr).map_err(|f| Trap::BusFault(f.0))
        } else {
            self.data.read32(addr).ok_or(Trap::BadDataAccess(addr))
        }
    }

    fn store32(&mut self, addr: u32, value: u32) -> Result<(), Trap> {
        if addr >= BUS_BASE {
            self.bus
                .write32(addr, value)
                .map_err(|f| Trap::BusFault(f.0))
        } else if self.data.write32(addr, value) {
            Ok(())
        } else {
            Err(Trap::BadDataAccess(addr))
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Any [`Trap`]; the core state is left at the faulting
    /// instruction.
    pub fn step(&mut self) -> Result<(), Trap> {
        if self.halted {
            return Ok(());
        }
        let word = self
            .program
            .read32(self.pc * 4)
            .ok_or(Trap::PcOutOfRange(self.pc))?;
        let instr = Instr::decode(word).map_err(Trap::Decode)?;
        let mut next_pc = self.pc.wrapping_add(1);
        let mut cycles = instr.base_cycles();
        use Instr::*;
        match instr {
            Add(d, a, b) => self.set_reg(d, self.reg(a).wrapping_add(self.reg(b))),
            Sub(d, a, b) => self.set_reg(d, self.reg(a).wrapping_sub(self.reg(b))),
            And(d, a, b) => self.set_reg(d, self.reg(a) & self.reg(b)),
            Or(d, a, b) => self.set_reg(d, self.reg(a) | self.reg(b)),
            Xor(d, a, b) => self.set_reg(d, self.reg(a) ^ self.reg(b)),
            Sll(d, a, b) => self.set_reg(d, self.reg(a) << (self.reg(b) & 31)),
            Srl(d, a, b) => self.set_reg(d, self.reg(a) >> (self.reg(b) & 31)),
            Sra(d, a, b) => self.set_reg(d, ((self.reg(a) as i32) >> (self.reg(b) & 31)) as u32),
            Mul(d, a, b) => self.set_reg(d, self.reg(a).wrapping_mul(self.reg(b))),
            Mulh(d, a, b) => {
                let p = (self.reg(a) as i32 as i64) * (self.reg(b) as i32 as i64);
                self.set_reg(d, (p >> 32) as u32);
            }
            Mulhu(d, a, b) => {
                let p = (self.reg(a) as u64) * (self.reg(b) as u64);
                self.set_reg(d, (p >> 32) as u32);
            }
            Slt(d, a, b) => self.set_reg(d, ((self.reg(a) as i32) < (self.reg(b) as i32)) as u32),
            Sltu(d, a, b) => self.set_reg(d, (self.reg(a) < self.reg(b)) as u32),
            Addi(d, a, i) => self.set_reg(d, self.reg(a).wrapping_add(i as u32)),
            Andi(d, a, i) => self.set_reg(d, self.reg(a) & i as u32),
            Ori(d, a, i) => self.set_reg(d, self.reg(a) | i as u32),
            Xori(d, a, i) => self.set_reg(d, self.reg(a) ^ i as u32),
            Slti(d, a, i) => self.set_reg(d, ((self.reg(a) as i32) < i) as u32),
            Lui(d, i) => self.set_reg(d, (i as u32) << 16),
            Lw(d, a, i) => {
                let addr = self.reg(a).wrapping_add(i as u32);
                let v = self.load32(addr)?;
                self.set_reg(d, v);
            }
            Sw(s, a, i) => {
                let addr = self.reg(a).wrapping_add(i as u32);
                self.store32(addr, self.reg(s))?;
            }
            Beq(a, b, o) => {
                if self.reg(a) == self.reg(b) {
                    next_pc = self.pc.wrapping_add(o as u32);
                    cycles += 1;
                }
            }
            Bne(a, b, o) => {
                if self.reg(a) != self.reg(b) {
                    next_pc = self.pc.wrapping_add(o as u32);
                    cycles += 1;
                }
            }
            Blt(a, b, o) => {
                if (self.reg(a) as i32) < (self.reg(b) as i32) {
                    next_pc = self.pc.wrapping_add(o as u32);
                    cycles += 1;
                }
            }
            Bge(a, b, o) => {
                if (self.reg(a) as i32) >= (self.reg(b) as i32) {
                    next_pc = self.pc.wrapping_add(o as u32);
                    cycles += 1;
                }
            }
            Jal(d, o) => {
                self.set_reg(d, next_pc);
                next_pc = self.pc.wrapping_add(o as u32);
            }
            Jalr(d, a, i) => {
                let target = self.reg(a).wrapping_add(i as u32);
                self.set_reg(d, next_pc);
                next_pc = target / 4;
            }
            Halt => {
                self.halted = true;
            }
            Nop => {}
        }
        self.pc = next_pc;
        self.cycles += cycles;
        self.instructions += 1;
        Ok(())
    }

    /// Runs until halt, trap or the cycle budget is spent.
    pub fn run(&mut self, max_cycles: u64) -> StopReason {
        let limit = self.cycles.saturating_add(max_cycles);
        while !self.halted && self.cycles < limit {
            if let Err(t) = self.step() {
                return StopReason::Trapped(t);
            }
        }
        if self.halted {
            StopReason::Halted
        } else {
            StopReason::CycleLimit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sabre::bus::{standard_bus, LEDS_BASE, UART1_BASE};

    fn assemble_and_run(instrs: &[Instr], max_cycles: u64) -> Sabre {
        let image: Vec<u32> = instrs.iter().map(|i| i.encode()).collect();
        let mut cpu = Sabre::new(standard_bus());
        cpu.load_program(&image);
        let stop = cpu.run(max_cycles);
        assert_eq!(stop, StopReason::Halted, "program did not halt cleanly");
        cpu
    }

    #[test]
    fn arithmetic_basics() {
        use Instr::*;
        let cpu = assemble_and_run(
            &[
                Addi(1, 0, 20),
                Addi(2, 0, 22),
                Add(3, 1, 2),
                Sub(4, 3, 1),
                Mul(5, 1, 2),
                Halt,
            ],
            1000,
        );
        assert_eq!(cpu.reg(3), 42);
        assert_eq!(cpu.reg(4), 22);
        assert_eq!(cpu.reg(5), 440);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        use Instr::*;
        let cpu = assemble_and_run(&[Addi(0, 0, 99), Add(1, 0, 0), Halt], 100);
        assert_eq!(cpu.reg(0), 0);
        assert_eq!(cpu.reg(1), 0);
    }

    #[test]
    fn loop_sums_1_to_10() {
        use Instr::*;
        // r1 = counter, r2 = sum, r3 = limit
        let cpu = assemble_and_run(
            &[
                Addi(1, 0, 1),
                Addi(2, 0, 0),
                Addi(3, 0, 11),
                // loop:
                Add(2, 2, 1),
                Addi(1, 1, 1),
                Blt(1, 3, -2),
                Halt,
            ],
            10_000,
        );
        assert_eq!(cpu.reg(2), 55);
    }

    #[test]
    fn memory_load_store() {
        use Instr::*;
        let cpu = assemble_and_run(
            &[Addi(1, 0, 0x1234), Sw(1, 0, 100), Lw(2, 0, 100), Halt],
            100,
        );
        assert_eq!(cpu.reg(2), 0x1234);
        assert_eq!(cpu.data_word(100), Some(0x1234));
    }

    #[test]
    fn signed_arithmetic_and_shifts() {
        use Instr::*;
        let cpu = assemble_and_run(
            &[
                Addi(1, 0, -8),
                Addi(2, 0, 2),
                Sra(3, 1, 2),  // -8 >> 2 = -2
                Srl(4, 1, 2),  // logical
                Slt(5, 1, 0),  // -8 < 0 -> 1
                Sltu(6, 1, 0), // unsigned: big -> 0... (0 < anything? rs1=-8 as u32 huge) -> 0
                Halt,
            ],
            100,
        );
        assert_eq!(cpu.reg(3) as i32, -2);
        assert_eq!(cpu.reg(4), (-8i32 as u32) >> 2);
        assert_eq!(cpu.reg(5), 1);
        assert_eq!(cpu.reg(6), 0);
    }

    #[test]
    fn mulh_variants() {
        use Instr::*;
        let cpu = assemble_and_run(
            &[
                Lui(1, 0x4000), // r1 = 0x4000_0000
                Addi(2, 0, 16),
                Mulhu(3, 1, 2), // (0x4000_0000 * 16) >> 32 = 4
                Addi(4, 0, -1),
                Mulh(5, 4, 4), // (-1 * -1) >> 32 = 0
                Halt,
            ],
            100,
        );
        assert_eq!(cpu.reg(3), 4);
        assert_eq!(cpu.reg(5), 0);
    }

    #[test]
    fn subroutine_call_and_return() {
        use Instr::*;
        // main: jal r15, func; halt. func at 2: r1 = 7; jalr r0, r15, 0
        // JALR's target is a byte address: r15 holds a word index, so
        // shift left 2 first... we store return as word index; jalr
        // divides by 4, so compute r14 = r15 * 4.
        let cpu = assemble_and_run(
            &[
                Jal(15, 2),      // 0: call func at pc+2
                Halt,            // 1:
                Addi(1, 0, 7),   // 2: func body
                Addi(14, 0, 4),  // 3:
                Mul(14, 15, 14), // 4: r14 = return word index * 4
                Jalr(0, 14, 0),  // 5: return
            ],
            1000,
        );
        assert_eq!(cpu.reg(1), 7);
    }

    #[test]
    fn peripheral_led_write() {
        use Instr::*;
        let mut cpu = Sabre::new(standard_bus());
        let prog: Vec<u32> = [
            Lui(1, 0x8000), // r1 = LEDS_BASE
            Addi(2, 0, 0b101),
            Sw(2, 1, 0),
            Lw(3, 1, 0),
            Halt,
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        cpu.load_program(&prog);
        assert_eq!(cpu.run(1000), StopReason::Halted);
        assert_eq!(cpu.reg(3), 0b101);
        assert_eq!(cpu.bus.read32(LEDS_BASE).unwrap(), 0b101);
    }

    #[test]
    fn uart_echo_program() {
        use Instr::*;
        // Poll UART1 status; when a byte is available, read and echo it
        // back; after 3 bytes, halt.
        let prog: Vec<u32> = [
            Lui(1, 0x8000),
            Ori(1, 1, 0x40), // r1 = UART1_BASE
            Addi(5, 0, 3),   // bytes to echo
            // poll:
            Lw(2, 1, 4),   // status
            Andi(2, 2, 1), // rx avail?
            Beq(2, 0, -2), // loop until available
            Lw(3, 1, 0),   // read byte
            Sw(3, 1, 0),   // write back
            Addi(5, 5, -1),
            Bne(5, 0, -6),
            Halt,
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        let mut cpu = Sabre::new(standard_bus());
        cpu.load_program(&prog);
        // Feed RX before running, via typed access to the port.
        cpu.bus
            .device_at(UART1_BASE)
            .unwrap()
            .as_any()
            .downcast_mut::<super::super::bus::UartPort>()
            .unwrap()
            .feed_rx(b"abc");
        assert_eq!(cpu.run(100_000), StopReason::Halted);
        let tx = cpu
            .bus
            .device_at(UART1_BASE)
            .unwrap()
            .as_any()
            .downcast_mut::<super::super::bus::UartPort>()
            .unwrap()
            .take_tx();
        assert_eq!(tx, b"abc".to_vec());
        assert_eq!(cpu.reg(5), 0);
    }

    #[test]
    fn traps_are_reported() {
        use Instr::*;
        // Unaligned store.
        let mut cpu = Sabre::new(standard_bus());
        cpu.load_program(&[Addi(1, 0, 2).encode(), Sw(1, 1, 0).encode()]);
        assert!(matches!(
            cpu.run(100),
            StopReason::Trapped(Trap::BadDataAccess(2))
        ));
        // Unmapped bus address.
        let mut cpu = Sabre::new(standard_bus());
        cpu.load_program(&[Lui(1, 0x9000).encode(), Lw(2, 1, 0).encode()]);
        assert!(matches!(
            cpu.run(100),
            StopReason::Trapped(Trap::BusFault(_))
        ));
        // Bad opcode.
        let mut cpu = Sabre::new(standard_bus());
        cpu.load_program(&[0x3E << 26]);
        assert!(matches!(cpu.run(100), StopReason::Trapped(Trap::Decode(_))));
    }

    #[test]
    fn cycle_accounting() {
        use Instr::*;
        let mut cpu = Sabre::new(standard_bus());
        cpu.load_program(&[
            Addi(1, 0, 1).encode(), // 1 cycle
            Mul(2, 1, 1).encode(),  // 3 cycles
            Sw(1, 0, 0).encode(),   // 2 cycles
            Halt.encode(),          // 1 cycle
        ]);
        assert_eq!(cpu.run(100), StopReason::Halted);
        assert_eq!(cpu.cycles(), 7);
        assert_eq!(cpu.instructions(), 4);
    }

    #[test]
    fn cycle_limit_stops_runaway() {
        use Instr::*;
        let mut cpu = Sabre::new(standard_bus());
        cpu.load_program(&[Beq(0, 0, 0).encode()]); // infinite self-loop
        assert_eq!(cpu.run(1000), StopReason::CycleLimit);
        assert!(cpu.cycles() >= 1000);
    }
}
