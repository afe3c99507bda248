//! IEEE-754 binary64 arithmetic implemented with integer operations
//! only (round-to-nearest-even), in the style of the Berkeley Softfloat
//! library the paper runs on the Sabre soft-core.
//!
//! Representation: [`Sf64`] wraps the raw bit pattern. All operations
//! are pure functions of bit patterns; no host floating-point
//! instructions are involved in the arithmetic (tests compare against
//! the host FPU bit for bit).
//!
//! Internally every finite value is manipulated as
//! `sig * 2^(e - 1023 - 62)` with the significand normalized so its
//! most significant bit sits at bit 62 — i.e. the 53-bit mantissa plus
//! 10 guard bits, exactly the headroom Berkeley Softfloat uses, which
//! keeps small alignment shifts exact and makes the sticky-bit ("jam")
//! rounding argument sound through cancellation.
//!
//! # Fast paths
//!
//! [`add`], [`sub`] and [`mul`] are `#[inline]` wrappers around a
//! branch-light fast path for the operands a filter actually produces:
//! normal numbers and `±0`. The fast path
//!
//! * orders the addends by their magnitude bits,
//! * negates the smaller one with a sign mask instead of branching on
//!   sign,
//! * normalises with `leading_zeros` (a product needs at most a
//!   one-bit shift, taken from its top bit),
//! * rounds to nearest-even with a bool-to-int increment, and
//! * adds the rounded significand straight into the exponent field, so
//!   a rounding carry bumps the exponent for free.
//!
//! A `±0` operand, or an addend more than 54 binades below the other
//! (under a quarter ulp, so it cannot change the rounded sum), returns
//! early. Whenever an operand is subnormal, infinite or NaN, or the
//! result would leave the normal range (underflow to a subnormal, or a
//! biased exponent above `0x7FD` before rounding), the out-of-line
//! general routine computes the result instead. Both paths are
//! correctly rounded, so they agree bit for bit, and both agree with
//! the host FPU (`tests/softfloat_props.rs`).
//!
//! There is no fused multiply-add: a multiply-add is
//! `add(c, mul(a, b))`, rounded twice as on a core without an FMA
//! unit, and each half takes its own inlined fast path.

/// A binary64 value as a raw bit pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sf64(pub u64);

const SIGN: u64 = 1 << 63;
const EXP_MASK: u64 = 0x7FF;
const FRAC_BITS: u32 = 52;
const FRAC_MASK: u64 = (1 << FRAC_BITS) - 1;
const HIDDEN: u64 = 1 << FRAC_BITS;
/// Canonical quiet NaN.
const QNAN: u64 = 0x7FF8_0000_0000_0000;
const EXP_MAX: i32 = 0x7FF;
/// Guard bits carried below the mantissa during arithmetic.
const GUARD: u32 = 10;
/// Internal normalized significand MSB position (52 + 10).
const NORM_MSB: u32 = FRAC_BITS + GUARD;
/// Tie value of the guard field for round-to-nearest-even.
const TIE: u64 = 1 << (GUARD - 1);

impl Sf64 {
    /// Wraps raw bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// Converts from a host `f64` (bit-level, exact).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Self(x.to_bits())
    }

    /// Converts to a host `f64` (bit-level, exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// The raw bit pattern.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Positive zero.
    pub const ZERO: Sf64 = Sf64(0);
    /// One.
    pub const ONE: Sf64 = Sf64(0x3FF0_0000_0000_0000);

    #[inline]
    fn sign(self) -> bool {
        self.0 & SIGN != 0
    }

    #[inline]
    fn exp(self) -> i32 {
        ((self.0 >> FRAC_BITS) & EXP_MASK) as i32
    }

    #[inline]
    fn frac(self) -> u64 {
        self.0 & FRAC_MASK
    }

    /// `true` for any NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.exp() == EXP_MAX && self.frac() != 0
    }

    /// `true` for +/- infinity.
    #[inline]
    pub fn is_inf(self) -> bool {
        self.exp() == EXP_MAX && self.frac() == 0
    }

    /// `true` for +/- zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 & !SIGN == 0
    }

    /// Flips the sign bit (exact negation, including of NaN/inf/zero).
    #[allow(clippy::should_implement_trait)] // softfloat op set uses the paper's names
    #[inline]
    pub fn neg(self) -> Self {
        Self(self.0 ^ SIGN)
    }

    /// Clears the sign bit.
    #[inline]
    pub fn abs(self) -> Self {
        Self(self.0 & !SIGN)
    }
}

fn pack(sign: bool, exp_field: i32, frac: u64) -> u64 {
    ((sign as u64) << 63) | ((exp_field as u64) << FRAC_BITS) | frac
}

fn inf(sign: bool) -> u64 {
    pack(sign, EXP_MAX, 0)
}

/// Shift right with sticky (OR of shifted-out bits into bit 0).
fn srs64(x: u64, shift: u32) -> u64 {
    if shift == 0 {
        x
    } else if shift >= 64 {
        (x != 0) as u64
    } else {
        (x >> shift) | ((x & ((1u64 << shift) - 1) != 0) as u64)
    }
}

/// Shift a u128 right with sticky, returning u64 (result must fit).
fn srs128_to64(x: u128, shift: u32) -> u64 {
    let kept = (x >> shift) as u64;
    let sticky = (x & ((1u128 << shift) - 1)) != 0;
    kept | sticky as u64
}

/// Unpacks a finite nonzero value into (sign, biased exp, significand
/// with hidden bit normalized into `[2^52, 2^53)`).
fn unpack_norm(x: Sf64) -> (bool, i32, u64) {
    let mut e = x.exp();
    let mut sig = x.frac();
    if e == 0 {
        // Subnormal: normalize.
        let shift = sig.leading_zeros() - (63 - FRAC_BITS);
        sig <<= shift;
        e = 1 - shift as i32;
    } else {
        sig |= HIDDEN;
    }
    (x.sign(), e, sig)
}

/// Rounds and packs. `sig` carries [`GUARD`] guard bits; when the value
/// is normalized its MSB is at [`NORM_MSB`]. The represented value is
/// `sig * 2^(e - 1023 - 62)`.
fn round_pack(sign: bool, mut e: i32, mut sig: u64) -> u64 {
    debug_assert!(sig != 0);
    if e >= EXP_MAX {
        return inf(sign);
    }
    if e <= 0 {
        let shift = (1 - e) as u32;
        sig = srs64(sig, shift);
        e = 1;
    }
    let guard_bits = sig & ((1 << GUARD) - 1);
    let mut sig_r = sig >> GUARD;
    if guard_bits > TIE || (guard_bits == TIE && (sig_r & 1) == 1) {
        sig_r += 1;
    }
    if sig_r >= (1 << (FRAC_BITS + 1)) {
        sig_r >>= 1;
        e += 1;
        if e >= EXP_MAX {
            return inf(sign);
        }
    }
    if sig_r >= HIDDEN {
        pack(sign, e, sig_r - HIDDEN)
    } else {
        // Subnormal (or zero after underflow).
        pack(sign, 0, sig_r)
    }
}

/// Normalizes nonzero `sig` so its MSB is at [`NORM_MSB`], adjusting
/// `e`. Right shifts keep sticky.
fn normalize(mut e: i32, mut sig: u64) -> (i32, u64) {
    let msb = 63 - sig.leading_zeros() as i32;
    let shift = msb - NORM_MSB as i32;
    if shift > 0 {
        sig = srs64(sig, shift as u32);
        e += shift;
    } else if shift < 0 {
        sig <<= -shift;
        e += shift;
    }
    (e, sig)
}

/// Magnitude bits of the smallest normal number (`f64::MIN_POSITIVE`).
const MIN_NORMAL: u64 = HIDDEN;
/// Magnitude bits of infinity.
const INF_BITS: u64 = (EXP_MAX as u64) << FRAC_BITS;

/// Rounds `sig` (most significant bit at bit 63, the low 11 bits being
/// guard and sticky) to nearest-even and packs it with the biased
/// exponent `e` into magnitude bits. `None` when `e` lies outside
/// `[1, 0x7FD]`, where the result could be subnormal, zero or
/// infinite; the general routines handle those. Inside the range the
/// rounding carry can lift the exponent field to at most `0x7FE`, so a
/// packed result is always normal.
#[inline(always)]
fn round_fast(e: i32, sig: u64) -> Option<u64> {
    if (e - 1) as u32 >= (EXP_MAX - 2) as u32 {
        return None;
    }
    let keep = sig >> (GUARD + 1);
    let rem = sig & ((1 << (GUARD + 1)) - 1);
    // Above the tie, or on the tie with an odd last bit.
    let inc = (rem + (keep & 1) > 1 << GUARD) as u64;
    // `keep` carries the hidden bit at bit 52, which adds the missing 1
    // to the exponent field; a carry out of the significand adds one
    // more.
    Some((((e - 1) as u64) << FRAC_BITS) + keep + inc)
}

/// Fast-path sum of two bit patterns. `None` unless both are `±0` or
/// normal and the sum is zero or normal.
#[inline(always)]
fn add_fast(x: u64, y: u64) -> Option<u64> {
    let (sx, mx, sy, my) = (x & SIGN, x & !SIGN, y & SIGN, y & !SIGN);
    let (s_hi, m_hi, s_lo, m_lo) = if mx >= my {
        (sx, mx, sy, my)
    } else {
        (sy, my, sx, mx)
    };
    if m_hi >= INF_BITS {
        return None;
    }
    if m_lo < MIN_NORMAL {
        if m_lo != 0 {
            return None; // subnormal
        }
        // A ±0 addend; -0 + -0 is the only zero sum that keeps a sign.
        return Some(if m_hi == 0 { sx & sy } else { s_hi | m_hi });
    }
    let e_hi = (m_hi >> FRAC_BITS) as u32;
    let shift = e_hi - (m_lo >> FRAC_BITS) as u32;
    if shift > FRAC_BITS + 2 {
        return Some(s_hi | m_hi); // the smaller addend is below a quarter ulp
    }
    // Hidden bit at bit 62 over the fraction and 10 zero guard bits
    // (the exponent's low bit shifted into bit 63 is overwritten).
    let sig = |m: u64| ((m << (GUARD + 1)) | SIGN) >> 1;
    let lo = sig(m_lo);
    let lo = (lo >> shift) | ((lo & ((1 << shift) - 1)) != 0) as u64;
    // All ones when the signs differ: two's-complement negation of the
    // smaller addend without a branch.
    let negate = (((s_hi ^ s_lo) as i64) >> 63) as u64;
    let sum = sig(m_hi).wrapping_add((lo ^ negate).wrapping_sub(negate));
    if sum == 0 {
        return Some(0); // exact cancellation is +0
    }
    let lz = sum.leading_zeros();
    round_fast(e_hi as i32 + 1 - lz as i32, sum << lz).map(|m| s_hi | m)
}

/// Fast-path product of two bit patterns. `None` unless both are `±0`
/// or normal and the product is zero or normal.
#[inline(always)]
fn mul_fast(x: u64, y: u64) -> Option<u64> {
    let sign = (x ^ y) & SIGN;
    let (mx, my) = (x & !SIGN, y & !SIGN);
    if mx == 0 || my == 0 {
        // Zero times a finite value; 0 * inf and NaNs take the general
        // routine.
        return (mx.max(my) < INF_BITS).then_some(sign);
    }
    let (ex, ey) = ((mx >> FRAC_BITS) as i32, (my >> FRAC_BITS) as i32);
    if (ex - 1) as u32 >= (EXP_MAX - 1) as u32 || (ey - 1) as u32 >= (EXP_MAX - 1) as u32 {
        return None; // subnormal, infinite or NaN
    }
    // Both significands with the hidden bit at bit 63: the product's
    // top bit is at bit 127 or 126.
    let p = ((mx << (GUARD + 1)) | SIGN) as u128 * ((my << (GUARD + 1)) | SIGN) as u128;
    let hi = (p >> 64) as u64;
    let top = (hi >> 63) as u32;
    let sig = (hi | (p as u64 != 0) as u64) << (top ^ 1);
    round_fast(ex + ey - 1023 + top as i32, sig).map(|m| sign | m)
}

/// IEEE-754 addition, round-to-nearest-even.
#[inline]
pub fn add(a: Sf64, b: Sf64) -> Sf64 {
    match add_fast(a.0, b.0) {
        Some(r) => Sf64(r),
        None => add_general(a, b),
    }
}

/// [`add`] for every operand class and result range.
#[cold]
#[inline(never)]
fn add_general(a: Sf64, b: Sf64) -> Sf64 {
    if a.is_nan() || b.is_nan() {
        return Sf64(QNAN);
    }
    match (a.is_inf(), b.is_inf()) {
        (true, true) => {
            return if a.sign() == b.sign() { a } else { Sf64(QNAN) };
        }
        (true, false) => return a,
        (false, true) => return b,
        _ => {}
    }
    if a.is_zero() && b.is_zero() {
        // +0 + +0 = +0; -0 + -0 = -0; mixed = +0 (round-to-nearest).
        return if a.sign() && b.sign() { a } else { Sf64(0) };
    }
    if a.is_zero() {
        return b;
    }
    if b.is_zero() {
        return a;
    }
    let (sa, ea, siga) = unpack_norm(a);
    let (sb, eb, sigb) = unpack_norm(b);
    let a_is_hi = (ea, siga) >= (eb, sigb);
    let (mut e, hi, s_hi, lo_raw, e_lo, s_lo) = if a_is_hi {
        (ea, siga << GUARD, sa, sigb << GUARD, eb, sb)
    } else {
        (eb, sigb << GUARD, sb, siga << GUARD, ea, sa)
    };
    let lo = srs64(lo_raw, (e - e_lo) as u32);
    let (sign, mut sum);
    if s_hi == s_lo {
        sum = hi + lo;
        sign = s_hi;
        if sum >= (1 << (NORM_MSB + 1)) {
            sum = srs64(sum, 1);
            e += 1;
        }
    } else {
        if hi == lo {
            return Sf64(0); // exact cancellation -> +0
        }
        sum = hi - lo;
        sign = s_hi;
        let (e2, s2) = normalize(e, sum);
        e = e2;
        sum = s2;
    }
    Sf64(round_pack(sign, e, sum))
}

/// IEEE-754 subtraction: `a + (-b)` (a NaN `b` still gives the
/// canonical quiet NaN, whatever its sign).
#[inline]
pub fn sub(a: Sf64, b: Sf64) -> Sf64 {
    add(a, b.neg())
}

/// IEEE-754 multiplication, round-to-nearest-even.
#[inline]
pub fn mul(a: Sf64, b: Sf64) -> Sf64 {
    match mul_fast(a.0, b.0) {
        Some(r) => Sf64(r),
        None => mul_general(a, b),
    }
}

/// [`mul`] for every operand class and result range.
#[cold]
#[inline(never)]
fn mul_general(a: Sf64, b: Sf64) -> Sf64 {
    if a.is_nan() || b.is_nan() {
        return Sf64(QNAN);
    }
    let sign = a.sign() ^ b.sign();
    if a.is_inf() || b.is_inf() {
        if a.is_zero() || b.is_zero() {
            return Sf64(QNAN); // 0 * inf
        }
        return Sf64(inf(sign));
    }
    if a.is_zero() || b.is_zero() {
        return Sf64(pack(sign, 0, 0));
    }
    let (_, ea, siga) = unpack_norm(a);
    let (_, eb, sigb) = unpack_norm(b);
    let mut e = ea + eb - 1023;
    let p = (siga as u128) * (sigb as u128); // in [2^104, 2^106)
    let sig = if p >= (1u128 << 105) {
        e += 1;
        srs128_to64(p, 105 - NORM_MSB)
    } else {
        srs128_to64(p, 104 - NORM_MSB)
    };
    Sf64(round_pack(sign, e, sig))
}

/// IEEE-754 division, round-to-nearest-even.
pub fn div(a: Sf64, b: Sf64) -> Sf64 {
    if a.is_nan() || b.is_nan() {
        return Sf64(QNAN);
    }
    let sign = a.sign() ^ b.sign();
    match (a.is_inf(), b.is_inf()) {
        (true, true) => return Sf64(QNAN),
        (true, false) => return Sf64(inf(sign)),
        (false, true) => return Sf64(pack(sign, 0, 0)),
        _ => {}
    }
    match (a.is_zero(), b.is_zero()) {
        (true, true) => return Sf64(QNAN),
        (true, false) => return Sf64(pack(sign, 0, 0)),
        (false, true) => return Sf64(inf(sign)), // division by zero
        _ => {}
    }
    let (_, ea, siga) = unpack_norm(a);
    let (_, eb, sigb) = unpack_norm(b);
    let mut e = ea - eb + 1022;
    let num = (siga as u128) << (NORM_MSB + 1);
    let den = sigb as u128;
    let mut q = num / den; // in (2^62, 2^64)
    if !num.is_multiple_of(den) {
        q |= 1; // sticky
    }
    if q >= (1 << (NORM_MSB + 1)) {
        q = (q >> 1) | (q & 1);
        e += 1;
    }
    Sf64(round_pack(sign, e, q as u64))
}

/// IEEE-754 square root, round-to-nearest-even.
pub fn sqrt(a: Sf64) -> Sf64 {
    if a.is_nan() {
        return Sf64(QNAN);
    }
    if a.is_zero() {
        return a; // sqrt(+/-0) = +/-0
    }
    if a.sign() {
        return Sf64(QNAN); // negative
    }
    if a.is_inf() {
        return a;
    }
    let (_, e, sig) = unpack_norm(a);
    let mut ee = e - 1023; // unbiased
    let mut m = sig as u128; // in [2^52, 2^53)
    if ee & 1 != 0 {
        // Make the exponent even (works for negative odd too, since
        // we subtract after testing the low bit of the two's-complement).
        m <<= 1;
        ee -= 1;
    }
    // s = floor(sqrt(m << 72)) is in [2^62, 2^63).
    let x = m << 72;
    let mut s = isqrt_u128(x);
    if s * s != x {
        s |= 1; // inexact: never a tie, so floor+sticky rounds correctly
    }
    let er = ee / 2 + 1023;
    Sf64(round_pack(false, er, s as u64))
}

/// Integer square root of a u64 (floor), by integer Newton steps.
fn isqrt_u64(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    // One Newton step from the power of two 2^j <= sqrt(n) lands on or
    // above the root (AM-GM) within 25 %; each further step from above
    // stays above it until it reaches the floor, then stops falling.
    let j = n.ilog2() / 2;
    let mut s = ((1u64 << j) + (n >> j)) >> 1;
    loop {
        let next = (s + n / s) >> 1;
        if next >= s {
            return s;
        }
        s = next;
    }
}

/// Integer square root of a u128 (floor).
///
/// Above `u64::MAX` the root is seeded from the `u64` root `r` of the
/// top 63-64 bits, taken at an even shift so it scales exactly:
/// `(r + 1) << shift / 2` is at or above `sqrt(x)` by a factor of at
/// most `1 + 2^-31`. One Newton step from there leaves the result less
/// than 2 above the root and never below its floor, and at most two
/// decrements finish it. Integer-only and exact.
pub(crate) fn isqrt_u128(x: u128) -> u128 {
    if x <= u64::MAX as u128 {
        return isqrt_u64(x as u64) as u128;
    }
    let shift = (65 - x.leading_zeros()) & !1;
    let r = isqrt_u64((x >> shift) as u64) as u128;
    let seed = (r + 1) << (shift / 2);
    let mut s = (seed + x / seed) >> 1;
    while s * s > x {
        s -= 1;
    }
    s
}

/// IEEE equality (`NaN != NaN`, `-0 == +0`).
#[inline]
pub fn eq(a: Sf64, b: Sf64) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    if a.is_zero() && b.is_zero() {
        return true;
    }
    a.0 == b.0
}

/// IEEE less-than (`false` on any NaN).
#[inline]
pub fn lt(a: Sf64, b: Sf64) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    if a.is_zero() && b.is_zero() {
        return false;
    }
    match (a.sign(), b.sign()) {
        (false, false) => a.0 < b.0,
        (true, true) => a.0 > b.0,
        (true, false) => true,
        (false, true) => false,
    }
}

/// IEEE less-or-equal (`false` on any NaN).
pub fn le(a: Sf64, b: Sf64) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    eq(a, b) || lt(a, b)
}

/// Exact conversion from `i32`.
pub fn from_i32(x: i32) -> Sf64 {
    if x == 0 {
        return Sf64(0);
    }
    let sign = x < 0;
    let mag = (x as i64).unsigned_abs();
    let msb = 63 - mag.leading_zeros() as i32;
    let sig = mag << (NORM_MSB as i32 - msb); // msb <= 31 < 62: exact
    Sf64(round_pack(sign, 1023 + msb, sig))
}

/// Conversion to `i32`, truncating toward zero and saturating at the
/// `i32` range (NaN maps to 0) — the semantics of Rust's `as` cast.
pub fn to_i32_trunc(a: Sf64) -> i32 {
    if a.is_nan() {
        return 0;
    }
    if a.is_zero() {
        return 0;
    }
    if a.is_inf() {
        return if a.sign() { i32::MIN } else { i32::MAX };
    }
    let (sign, e, sig) = unpack_norm(a);
    let shift = e - 1023; // value = sig * 2^(shift - 52)
    if shift < 0 {
        return 0;
    }
    if shift > 31 {
        return if sign { i32::MIN } else { i32::MAX };
    }
    let mag = if shift >= FRAC_BITS as i32 {
        (sig as u128) << (shift - FRAC_BITS as i32)
    } else {
        (sig >> (FRAC_BITS as i32 - shift)) as u128
    };
    let limit = if sign { 1u128 << 31 } else { (1u128 << 31) - 1 };
    let mag = mag.min(limit);
    if sign {
        (mag as i64).wrapping_neg() as i32
    } else {
        mag as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bin(
        name: &str,
        op: fn(Sf64, Sf64) -> Sf64,
        native: fn(f64, f64) -> f64,
        a: f64,
        b: f64,
    ) {
        let got = op(Sf64::from_f64(a), Sf64::from_f64(b));
        let want = native(a, b);
        if want.is_nan() {
            assert!(
                got.is_nan(),
                "{name}({a:e},{b:e}): want NaN got {:016x}",
                got.bits()
            );
        } else {
            assert_eq!(
                got.bits(),
                want.to_bits(),
                "{name}({a:e},{b:e}): got {:016x} want {:016x}",
                got.bits(),
                want.to_bits()
            );
        }
    }

    const SPECIALS: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.0,
        0.5,
        1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        4.9e-324,  // smallest subnormal
        1.0e-310,  // subnormal
        -3.2e-313, // subnormal
        std::f64::consts::PI,
        1.0000000000000002, // 1 + ulp
        9.80665,
        -273.15,
        1e300,
        -1e300,
        1e-300,
        0.1,
        3.0,
        -7.0,
    ];

    #[test]
    fn add_specials_exhaustive() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                check_bin("add", add, |x, y| x + y, a, b);
            }
        }
    }

    #[test]
    fn sub_specials_exhaustive() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                check_bin("sub", sub, |x, y| x - y, a, b);
            }
        }
    }

    #[test]
    fn mul_specials_exhaustive() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                check_bin("mul", mul, |x, y| x * y, a, b);
            }
        }
    }

    #[test]
    fn div_specials_exhaustive() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                check_bin("div", div, |x, y| x / y, a, b);
            }
        }
    }

    #[test]
    fn sqrt_specials() {
        for &a in SPECIALS {
            let got = sqrt(Sf64::from_f64(a));
            let want = a.sqrt();
            if want.is_nan() {
                assert!(got.is_nan(), "sqrt({a})");
            } else {
                assert_eq!(got.bits(), want.to_bits(), "sqrt({a:e})");
            }
        }
    }

    #[test]
    fn comparisons_match_native() {
        for &a in SPECIALS {
            for &b in SPECIALS {
                let (sa, sb) = (Sf64::from_f64(a), Sf64::from_f64(b));
                assert_eq!(eq(sa, sb), a == b, "eq({a},{b})");
                assert_eq!(lt(sa, sb), a < b, "lt({a},{b})");
                assert_eq!(le(sa, sb), a <= b, "le({a},{b})");
            }
        }
    }

    #[test]
    fn i32_conversions_match_native() {
        for &x in &[0i32, 1, -1, 42, -42, i32::MAX, i32::MIN, 7_654_321] {
            assert_eq!(from_i32(x).to_f64(), x as f64, "from_i32({x})");
        }
        for &a in SPECIALS {
            assert_eq!(to_i32_trunc(Sf64::from_f64(a)), a as i32, "to_i32({a})");
        }
        for &a in &[2.9, -2.9, 2147483646.7, -2147483649.5, 0.49, 1e15, -1e15] {
            assert_eq!(to_i32_trunc(Sf64::from_f64(a)), a as i32, "to_i32({a})");
        }
    }

    #[test]
    fn isqrt_known_values() {
        assert_eq!(isqrt_u128(0), 0);
        assert_eq!(isqrt_u128(1), 1);
        assert_eq!(isqrt_u128(3), 1);
        assert_eq!(isqrt_u128(4), 2);
        assert_eq!(isqrt_u128(99), 9);
        assert_eq!(isqrt_u128(100), 10);
        let big = (1u128 << 100) - 1;
        let s = isqrt_u128(big);
        assert!(s * s <= big && (s + 1) * (s + 1) > big);
    }

    /// `floor(sqrt(x))` at perfect squares and their neighbours across
    /// the whole range: small roots, the `u64` seed path's edge at 2^64,
    /// Softfloat's operand range up to 2^126, and the top of `u128`.
    #[test]
    fn isqrt_is_the_floor_root_at_squares_and_neighbours() {
        let is_floor_root =
            |x: u128, s: u128| s * s <= x && (s + 1).checked_mul(s + 1).is_none_or(|sq| sq > x);
        let mut roots: Vec<u128> = (1..=2_000).collect();
        for e in [31u32, 32, 33, 62, 63] {
            for d in 0..=3 {
                roots.push((1u128 << e) - d);
                roots.push((1u128 << e) + d);
            }
        }
        roots.push(u64::MAX as u128);
        for k in roots {
            let sq = k * k;
            assert_eq!(isqrt_u128(sq), k, "k^2 for k = {k}");
            assert_eq!(isqrt_u128(sq - 1), k - 1, "k^2 - 1 for k = {k}");
            assert_eq!(isqrt_u128(sq + 1), k, "k^2 + 1 for k = {k}");
        }
        let u64_edge = 1u128 << 64;
        let top_126 = 1u128 << 126;
        for base in [u64_edge, top_126, u128::MAX - 8] {
            for x in base.saturating_sub(8)..=base.saturating_add(8) {
                assert!(is_floor_root(x, isqrt_u128(x)), "x = {x}");
            }
        }
        assert_eq!(isqrt_u128(u128::MAX), u64::MAX as u128);
    }

    #[test]
    fn long_dependent_chain_matches_native() {
        let mut acc_native = 0.0f64;
        let mut acc_soft = Sf64::ZERO;
        let mut x = 0.1f64;
        for _ in 0..1000 {
            acc_native += x;
            acc_soft = add(acc_soft, Sf64::from_f64(x));
            let xn = x * 1.0001 - 0.00005;
            x = xn;
        }
        assert_eq!(acc_soft.bits(), acc_native.to_bits());
    }

    #[test]
    fn mixed_op_chain_matches_native() {
        // Exercise mul/div/sqrt in a dependent chain.
        let mut n = 2.0f64;
        let mut s = Sf64::from_f64(2.0);
        for i in 1..500 {
            let k = i as f64;
            n = (n * k + 1.0) / (k + 0.5);
            n = n.sqrt() + 0.25;
            let sk = from_i32(i);
            s = div(add(mul(s, sk), Sf64::ONE), add(sk, Sf64::from_f64(0.5)));
            s = add(sqrt(s), Sf64::from_f64(0.25));
        }
        assert_eq!(s.bits(), n.to_bits());
    }

    #[test]
    fn neg_abs_are_bitwise() {
        let x = Sf64::from_f64(-2.5);
        assert_eq!(x.neg().to_f64(), 2.5);
        assert_eq!(x.abs().to_f64(), 2.5);
        assert!(Sf64::from_f64(f64::NAN).neg().is_nan());
    }

    #[test]
    fn subnormal_arithmetic() {
        let tiny = f64::from_bits(5); // 5 * 2^-1074
        let tiny2 = f64::from_bits(3);
        check_bin("add", add, |x, y| x + y, tiny, tiny2);
        check_bin("sub", sub, |x, y| x - y, tiny, tiny2);
        check_bin("mul", mul, |x, y| x * y, tiny, 2.0);
        check_bin("div", div, |x, y| x / y, tiny, 2.0);
        // Gradual underflow of a normal.
        check_bin("mul", mul, |x, y| x * y, f64::MIN_POSITIVE, 0.5);
        check_bin("mul", mul, |x, y| x * y, f64::MIN_POSITIVE, 0.25000000001);
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        check_bin("mul", mul, |x, y| x * y, f64::MAX, 2.0);
        check_bin("add", add, |x, y| x + y, f64::MAX, f64::MAX);
        check_bin("div", div, |x, y| x / y, f64::MAX, 0.5);
    }
}
