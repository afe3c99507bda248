//! FPGA system substrate: everything the paper synthesizes onto the
//! Celoxica RC200E (Virtex-II XC2V1000), as cycle-aware simulation.
//!
//! * [`sabre`] — the Sabre 32-bit soft-core: ISA, assembler,
//!   instruction-set simulator, memory-mapped peripheral bus with the
//!   Figure-6 device set, BlockRAM/ZBT memory models.
//! * [`softfloat`] — from-scratch IEEE-754 binary64 arithmetic
//!   on integer ops (the paper's Softfloat layer), bit-exact against
//!   the host FPU, with per-op Sabre cycle accounting.
//! * [`fixed`] — Q-format fixed point and the 1024-entry sine/cosine
//!   LUT of the video path.
//! * [`pipeline`] — the five-stage affine rotation pipeline (Figure 5)
//!   with one-pixel-per-clock throughput and frame timing math.
//!
//! # Examples
//!
//! ```
//! use fpga::sabre::{assemble, Sabre, StopReason};
//!
//! let program = assemble("
//!         addi r1, r0, 6
//!         addi r2, r0, 7
//!         mul  r3, r1, r2
//!         halt
//! ").expect("valid assembly");
//! let mut cpu = Sabre::with_standard_bus();
//! cpu.load_program(&program.words);
//! assert_eq!(cpu.run(100), StopReason::Halted);
//! assert_eq!(cpu.reg(3), 42);
//! ```

pub mod fixed;
pub mod pipeline;
pub mod sabre;
pub mod softfloat;
