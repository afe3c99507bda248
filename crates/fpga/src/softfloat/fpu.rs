//! Cost-accounted software FPU.
//!
//! The paper's Sabre core has no floating-point hardware; every float
//! operation the Kalman filter performs expands into a Softfloat
//! routine of integer instructions. [`SoftFpu`] wraps the arithmetic in
//! this module and charges a per-operation cycle cost to a ledger, so
//! "how many Sabre cycles does one EKF iteration take" can be answered
//! without porting a C compiler.
//!
//! Charging an operation is one counter increment; the cycle ledger is
//! derived when it is read, as the sum over op kinds of count times
//! cost ([`SoftFpu::stats`], [`SoftFpu::cycles`]). The totals are the
//! ones a running sum would give, and the per-op entry points are
//! `#[inline]` so a caller in another crate pays one increment and the
//! arithmetic's fast path per operation. The core has no FMA unit, so
//! a multiply-add is charged as the multiply and the add it runs.
//!
//! The default [`CycleCosts`] are derived by counting the integer
//! ALU/shift/branch operations our own routines perform on typical
//! operands (normalized inputs, no special cases) on a single-issue
//! 32-bit RISC, where every 64-bit integer operation costs roughly two
//! 32-bit instructions and the 64x64 multiply is decomposed into four
//! 32x32 MULs. They are configurable for sensitivity studies.

use super::f64impl::{self, Sf64};

/// Kinds of floating-point operations the ledger tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// f64 add or subtract.
    AddF64,
    /// f64 multiply.
    MulF64,
    /// f64 divide.
    DivF64,
    /// f64 square root.
    SqrtF64,
    /// f64 compare.
    CmpF64,
    /// f64 sign manipulation (negate, absolute value).
    SignF64,
    /// f64 sine+cosine pair.
    SinCosF64,
    /// int <-> f64 conversion.
    Convert,
}

/// Per-operation cycle costs on the soft core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleCosts {
    /// f64 add/sub cycles.
    pub add_f64: u64,
    /// f64 multiply cycles.
    pub mul_f64: u64,
    /// f64 divide cycles.
    pub div_f64: u64,
    /// f64 square-root cycles.
    pub sqrt_f64: u64,
    /// f64 compare cycles.
    pub cmp_f64: u64,
    /// f64 sign-manipulation cycles (negate / absolute value are one
    /// XOR/AND on the sign bit plus load/store traffic).
    pub sign_f64: u64,
    /// f64 sine+cosine pair cycles (polynomial evaluation in software;
    /// roughly 13 multiply-adds per function after range reduction).
    pub sincos_f64: u64,
    /// Conversion cycles.
    pub convert: u64,
}

impl CycleCosts {
    /// Costs for a single-issue 32-bit RISC running Softfloat-style
    /// routines (see module docs for the derivation).
    pub fn sabre_default() -> Self {
        Self {
            add_f64: 75,
            mul_f64: 135,
            div_f64: 420,
            sqrt_f64: 620,
            cmp_f64: 22,
            sign_f64: 4,
            sincos_f64: 5600,
            convert: 30,
        }
    }

    /// Cycles for one op kind.
    pub fn of(&self, op: FpOp) -> u64 {
        match op {
            FpOp::AddF64 => self.add_f64,
            FpOp::MulF64 => self.mul_f64,
            FpOp::DivF64 => self.div_f64,
            FpOp::SqrtF64 => self.sqrt_f64,
            FpOp::CmpF64 => self.cmp_f64,
            FpOp::SignF64 => self.sign_f64,
            FpOp::SinCosF64 => self.sincos_f64,
            FpOp::Convert => self.convert,
        }
    }
}

impl Default for CycleCosts {
    fn default() -> Self {
        Self::sabre_default()
    }
}

/// Operation counters and the cycle ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpuStats {
    /// f64 adds/subs performed.
    pub add_f64: u64,
    /// f64 multiplies performed.
    pub mul_f64: u64,
    /// f64 divides performed.
    pub div_f64: u64,
    /// f64 square roots performed.
    pub sqrt_f64: u64,
    /// f64 compares performed.
    pub cmp_f64: u64,
    /// f64 sign manipulations performed.
    pub sign_f64: u64,
    /// f64 sine+cosine pairs performed.
    pub sincos_f64: u64,
    /// Conversions performed.
    pub convert: u64,
    /// Total cycles charged: Σ count × cost over every [`FpOp`].
    pub cycles: u64,
}

impl FpuStats {
    /// Total operation count.
    pub fn total_ops(&self) -> u64 {
        self.add_f64
            + self.mul_f64
            + self.div_f64
            + self.sqrt_f64
            + self.cmp_f64
            + self.sign_f64
            + self.sincos_f64
            + self.convert
    }
}

/// Number of [`FpOp`] kinds (the last variant's index plus one).
const OP_KINDS: usize = FpOp::Convert as usize + 1;

/// A software FPU with cycle accounting.
///
/// # Examples
///
/// ```
/// use fpga::softfloat::{Sf64, SoftFpu};
///
/// let mut fpu = SoftFpu::new();
/// let a = Sf64::from_f64(1.5);
/// let b = Sf64::from_f64(2.25);
/// let c = fpu.add_f64(a, b);
/// assert_eq!(c.to_f64(), 3.75);
/// assert!(fpu.stats().cycles > 0);
/// ```
#[derive(Clone, Debug)]
pub struct SoftFpu {
    costs: CycleCosts,
    /// Operations charged so far, indexed by `FpOp as usize`.
    counts: [u64; OP_KINDS],
}

impl SoftFpu {
    /// Creates an FPU with the default Sabre cost model.
    pub fn new() -> Self {
        Self::with_costs(CycleCosts::sabre_default())
    }

    /// Creates an FPU with explicit costs.
    pub fn with_costs(costs: CycleCosts) -> Self {
        Self {
            costs,
            counts: [0; OP_KINDS],
        }
    }

    /// The cost model in use.
    pub fn costs(&self) -> &CycleCosts {
        &self.costs
    }

    /// Counters so far, with the cycles they cost under this FPU's
    /// [`CycleCosts`].
    pub fn stats(&self) -> FpuStats {
        let n = |op: FpOp| self.counts[op as usize];
        let mut s = FpuStats {
            add_f64: n(FpOp::AddF64),
            mul_f64: n(FpOp::MulF64),
            div_f64: n(FpOp::DivF64),
            sqrt_f64: n(FpOp::SqrtF64),
            cmp_f64: n(FpOp::CmpF64),
            sign_f64: n(FpOp::SignF64),
            sincos_f64: n(FpOp::SinCosF64),
            convert: n(FpOp::Convert),
            cycles: 0,
        };
        let c = &self.costs;
        s.cycles = s.add_f64 * c.add_f64
            + s.mul_f64 * c.mul_f64
            + s.div_f64 * c.div_f64
            + s.sqrt_f64 * c.sqrt_f64
            + s.cmp_f64 * c.cmp_f64
            + s.sign_f64 * c.sign_f64
            + s.sincos_f64 * c.sincos_f64
            + s.convert * c.convert;
        s
    }

    /// Cycles charged so far: Σ count × cost.
    pub fn cycles(&self) -> u64 {
        self.stats().cycles
    }

    /// Clears counters and the ledger.
    pub fn reset(&mut self) {
        self.counts = [0; OP_KINDS];
    }

    #[inline]
    fn charge(&mut self, op: FpOp) {
        self.counts[op as usize] += 1;
    }

    /// f64 addition.
    #[inline]
    pub fn add_f64(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.charge(FpOp::AddF64);
        f64impl::add(a, b)
    }

    /// f64 subtraction.
    #[inline]
    pub fn sub_f64(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.charge(FpOp::AddF64);
        f64impl::sub(a, b)
    }

    /// f64 multiplication.
    #[inline]
    pub fn mul_f64(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.charge(FpOp::MulF64);
        f64impl::mul(a, b)
    }

    /// f64 division.
    #[inline]
    pub fn div_f64(&mut self, a: Sf64, b: Sf64) -> Sf64 {
        self.charge(FpOp::DivF64);
        f64impl::div(a, b)
    }

    /// f64 square root.
    #[inline]
    pub fn sqrt_f64(&mut self, a: Sf64) -> Sf64 {
        self.charge(FpOp::SqrtF64);
        f64impl::sqrt(a)
    }

    /// f64 less-than.
    #[inline]
    pub fn lt_f64(&mut self, a: Sf64, b: Sf64) -> bool {
        self.charge(FpOp::CmpF64);
        f64impl::lt(a, b)
    }

    /// f64 equality.
    #[inline]
    pub fn eq_f64(&mut self, a: Sf64, b: Sf64) -> bool {
        self.charge(FpOp::CmpF64);
        f64impl::eq(a, b)
    }

    /// f64 negation (sign-bit flip).
    #[inline]
    pub fn neg_f64(&mut self, a: Sf64) -> Sf64 {
        self.charge(FpOp::SignF64);
        a.neg()
    }

    /// f64 absolute value (sign-bit clear).
    #[inline]
    pub fn abs_f64(&mut self, a: Sf64) -> Sf64 {
        self.charge(FpOp::SignF64);
        a.abs()
    }

    /// f64 sine and cosine.
    ///
    /// The value is computed by the host libm (the paper's target would
    /// link a polynomial routine); only the cycle cost models the
    /// software evaluation, so emulated trig stays bit-identical to the
    /// native reference.
    #[inline]
    pub fn sin_cos_f64(&mut self, a: Sf64) -> (Sf64, Sf64) {
        self.charge(FpOp::SinCosF64);
        let (s, c) = a.to_f64().sin_cos();
        (Sf64::from_f64(s), Sf64::from_f64(c))
    }

    /// i32 to f64.
    #[inline]
    pub fn i32_to_f64(&mut self, x: i32) -> Sf64 {
        self.charge(FpOp::Convert);
        f64impl::from_i32(x)
    }

    /// f64 to i32 (truncating).
    #[inline]
    pub fn f64_to_i32(&mut self, x: Sf64) -> i32 {
        self.charge(FpOp::Convert);
        f64impl::to_i32_trunc(x)
    }
}

impl Default for SoftFpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut fpu = SoftFpu::new();
        let one = Sf64::ONE;
        let _ = fpu.add_f64(one, one);
        let _ = fpu.mul_f64(one, one);
        let _ = fpu.div_f64(one, one);
        let _ = fpu.sqrt_f64(one);
        let stats = fpu.stats();
        assert_eq!(stats.add_f64, 1);
        assert_eq!(stats.mul_f64, 1);
        assert_eq!(stats.div_f64, 1);
        assert_eq!(stats.sqrt_f64, 1);
        assert_eq!(stats.total_ops(), 4);
        let c = CycleCosts::sabre_default();
        assert_eq!(stats.cycles, c.add_f64 + c.mul_f64 + c.div_f64 + c.sqrt_f64);
    }

    #[test]
    fn custom_costs_respected() {
        let mut costs = CycleCosts::sabre_default();
        costs.add_f64 = 1000;
        let mut fpu = SoftFpu::with_costs(costs);
        let _ = fpu.add_f64(Sf64::ONE, Sf64::ONE);
        assert_eq!(fpu.stats().cycles, 1000);
    }

    /// Runs one operation of kind `op` through the FPU's entry point.
    fn perform(fpu: &mut SoftFpu, op: FpOp) {
        let (x, y) = (Sf64::from_f64(1.5), Sf64::from_f64(-2.25));
        match op {
            FpOp::AddF64 => {
                fpu.sub_f64(x, y);
            }
            FpOp::MulF64 => {
                fpu.mul_f64(x, y);
            }
            FpOp::DivF64 => {
                fpu.div_f64(x, y);
            }
            FpOp::SqrtF64 => {
                fpu.sqrt_f64(x);
            }
            FpOp::CmpF64 => {
                fpu.eq_f64(x, y);
            }
            FpOp::SignF64 => {
                fpu.neg_f64(x);
            }
            FpOp::SinCosF64 => {
                fpu.sin_cos_f64(x);
            }
            FpOp::Convert => {
                fpu.f64_to_i32(x);
            }
        }
    }

    /// The derived ledger is Σ count × cost for every op kind, under
    /// costs where every kind has its own price, so a wrong count, a
    /// wrong price or a missing term shows.
    #[test]
    fn derived_cycles_are_count_times_cost_for_every_op() {
        let costs = CycleCosts {
            add_f64: 13,
            mul_f64: 17,
            div_f64: 19,
            sqrt_f64: 23,
            cmp_f64: 29,
            sign_f64: 31,
            sincos_f64: 37,
            convert: 41,
        };
        let ops = [
            FpOp::AddF64,
            FpOp::MulF64,
            FpOp::DivF64,
            FpOp::SqrtF64,
            FpOp::CmpF64,
            FpOp::SignF64,
            FpOp::SinCosF64,
            FpOp::Convert,
        ];
        let mut fpu = SoftFpu::with_costs(costs);
        let mut want = 0;
        for (i, &op) in ops.iter().enumerate() {
            for _ in 0..=i {
                perform(&mut fpu, op);
            }
            want += (i as u64 + 1) * costs.of(op);
        }
        let expected = FpuStats {
            add_f64: 1,
            mul_f64: 2,
            div_f64: 3,
            sqrt_f64: 4,
            cmp_f64: 5,
            sign_f64: 6,
            sincos_f64: 7,
            convert: 8,
            cycles: want,
        };
        assert_eq!(fpu.stats(), expected);
        assert_eq!(fpu.cycles(), want);
    }

    #[test]
    fn reset_clears_ledger() {
        let mut fpu = SoftFpu::new();
        let _ = fpu.sqrt_f64(Sf64::ONE);
        fpu.reset();
        assert_eq!(fpu.stats().cycles, 0);
        assert_eq!(fpu.stats().total_ops(), 0);
    }

    #[test]
    fn arithmetic_passthrough_correct() {
        let mut fpu = SoftFpu::new();
        let x = fpu.i32_to_f64(9);
        let r = fpu.sqrt_f64(x);
        assert_eq!(r.to_f64(), 3.0);
        assert_eq!(fpu.f64_to_i32(r), 3);
        assert!(fpu.lt_f64(Sf64::ZERO, Sf64::ONE));
    }

    #[test]
    fn sign_and_trig_ops_are_charged() {
        let mut fpu = SoftFpu::new();
        let x = Sf64::from_f64(-2.5);
        assert_eq!(fpu.neg_f64(x).to_f64(), 2.5);
        assert_eq!(fpu.abs_f64(x).to_f64(), 2.5);
        assert!(fpu.eq_f64(x, x));
        let (s, c) = fpu.sin_cos_f64(Sf64::ZERO);
        assert_eq!(s.to_f64(), 0.0);
        assert_eq!(c.to_f64(), 1.0);
        let stats = fpu.stats();
        assert_eq!(stats.sign_f64, 2);
        assert_eq!(stats.sincos_f64, 1);
        assert_eq!(stats.cmp_f64, 1);
        let costs = CycleCosts::sabre_default();
        assert_eq!(
            stats.cycles,
            2 * costs.sign_f64 + costs.sincos_f64 + costs.cmp_f64
        );
    }
}
