//! IEEE-754 software floating point ("Softfloat") for the Sabre core.
//!
//! The paper: "the version of Sabre used here has no floating-point
//! co-processor. We therefore emulated IEEE floating point operations
//! using the Softfloat library." This module is a from-scratch Rust
//! implementation of that layer: binary64 add/sub/mul/div/sqrt,
//! comparisons and integer conversions built from integer operations
//! only, with round-to-nearest-even, gradual underflow and NaN/infinity
//! handling. Property tests validate every operation bit-for-bit
//! against the host FPU.
//!
//! [`SoftFpu`] adds the per-operation Sabre cycle accounting used by
//! the performance benches.

pub mod f64impl;
pub mod fpu;

pub use f64impl::Sf64;
pub use fpu::{CycleCosts, FpOp, FpuStats, SoftFpu};
