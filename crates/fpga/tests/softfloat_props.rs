//! Property tests: softfloat vs the host FPU, bit for bit, over random
//! bit patterns (which include NaNs, infinities, subnormals and every
//! exponent/significand combination proptest stumbles into), plus
//! edge-weighted operands aimed at the boundaries of the f64 fast paths:
//! near-cancellation, alignment gaps across the sticky boundary,
//! rounding carries into the exponent, the exponent fields where the
//! fast path hands over to the general routine, and `±0` in every
//! operand position.
//!
//! `sweep_edge_weighted_pairs_against_host` is `#[ignore]`d: it runs
//! 10^7 edge-weighted operand sets through add, sub, mul and mul_add
//! (about a second in release). Run it with
//! `cargo test --release -p fpga --test softfloat_props -- --ignored`.

use fpga::softfloat::{f64impl, Sf64};
use proptest::prelude::*;

fn check64(got: Sf64, want: f64, what: &str) {
    if want.is_nan() {
        assert!(got.is_nan(), "{what}: want NaN, got {:016x}", got.bits());
    } else {
        assert_eq!(
            got.bits(),
            want.to_bits(),
            "{what}: got {:016x} want {:016x}",
            got.bits(),
            want.to_bits()
        );
    }
}

/// Bit patterns with a boosted probability of special exponents.
fn f64_pattern() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => any::<u64>(),
        1 => any::<u64>().prop_map(|x| x | 0x7FF0_0000_0000_0000), // inf/NaN band
        1 => any::<u64>().prop_map(|x| x & 0x800F_FFFF_FFFF_FFFF), // subnormal band
        1 => any::<u64>().prop_map(|x| (x & 0x800F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000), // near 1
    ]
}

const SIGN: u64 = 1 << 63;
const FRAC: u64 = (1 << 52) - 1;

/// A bit pattern with `r`'s sign and fraction and exponent field `e`.
fn with_exp(r: u64, e: u64) -> u64 {
    (r & (SIGN | FRAC)) | (e << 52)
}

/// A normal bit pattern with a uniformly drawn exponent field.
fn normal(r: u64) -> u64 {
    with_exp(r, 1 + (r >> 52 & 0x7FF) % 0x7FE)
}

/// `(a, b)` with `b = -a ± k` ulps, `k <= 64`: near-total cancellation.
fn near_cancellation(r0: u64, r1: u64) -> (u64, u64) {
    let a = normal(r0);
    let k = r1 % 129;
    let mag = (a & !SIGN) + k - 64;
    (a, (mag | (a & SIGN)) ^ SIGN)
}

/// Normal `(a, b)` whose exponent fields differ by 0 to 70, spanning
/// the alignment shift's sticky boundary at 63/64 and the point (54
/// binades) past which the smaller addend cannot move the sum. Half
/// the time `a` is a power of two, whose lower neighbour is only half
/// an ulp away.
fn exponent_gap(r0: u64, r1: u64) -> (u64, u64) {
    let ea = 1 + (r0 >> 52 & 0x7FF) % 0x7FE;
    let gap = r1 % 71;
    let eb = if ea > gap { ea - gap } else { ea + gap };
    let a = with_exp(r0, ea);
    let a = if r1 >> 40 & 1 == 0 { a & !FRAC } else { a };
    (a, with_exp(r1, eb))
}

/// Operands with all-ones (or nearly all-ones) fractions, whose sums
/// and products round up into the next binade.
fn all_ones(r0: u64, r1: u64) -> (u64, u64) {
    let a = (normal(r0) | FRAC) - (r0 >> 8 & 3);
    let eb = ((a >> 52 & 0x7FF) + 0x7FE - r1 % 56) % 0x7FE + 1;
    let b = match r1 >> 60 & 3 {
        0 => with_exp(r1, eb) | FRAC,
        1 => with_exp(r1 & !FRAC, eb) | (r1 >> 4 & 0xF),
        _ => with_exp(r1, eb),
    };
    (a, b)
}

/// Exponent fields where the fast paths stop: 1-4 (next to the
/// subnormals) and 0x7FB-0x7FE (next to infinity), paired with the same
/// edges or with values near 1 so products cross either boundary.
fn exponent_edge(r0: u64, r1: u64) -> (u64, u64) {
    const EDGES: [u64; 8] = [1, 2, 3, 4, 0x7FB, 0x7FC, 0x7FD, 0x7FE];
    let ea = EDGES[(r0 >> 52 & 7) as usize];
    let eb = match r1 >> 52 & 3 {
        0 | 1 => EDGES[(r1 >> 54 & 7) as usize],
        2 => 0x3FC + (r1 >> 54) % 7,
        _ => 1 + (r1 >> 54) % 0x7FE,
    };
    (with_exp(r0, ea), with_exp(r1, eb))
}

/// `±0` in either position, the other operand any bit pattern.
fn zero_operand(r0: u64, r1: u64) -> (u64, u64) {
    let zero = r0 & SIGN;
    let other = match r1 & 3 {
        0 => normal(r1),
        1 => r1 & SIGN,
        _ => r1,
    };
    if r0 & 1 == 0 {
        (zero, other)
    } else {
        (other, zero)
    }
}

/// One operand pair drawn from every edge family above and from
/// uniform bit patterns, selected by `sel`.
fn edge_pair(sel: u64, r0: u64, r1: u64) -> (u64, u64) {
    match sel % 7 {
        0 => near_cancellation(r0, r1),
        1 => exponent_gap(r0, r1),
        2 => all_ones(r0, r1),
        3 => exponent_edge(r0, r1),
        4 => zero_operand(r0, r1),
        5 => (normal(r0), normal(r1)),
        _ => (r0, r1),
    }
}

/// `c + a * b` rounded twice, the multiply-add of a core without an
/// FMA unit (and of `SoftArith::fma`): each half takes its own fast
/// path, and the rounded product reaches the adder as an ordinary
/// operand, so it must match the host's two-op `a * b + c`.
fn mul_add(a: Sf64, b: Sf64, c: Sf64) -> Sf64 {
    f64impl::add(c, f64impl::mul(a, b))
}

/// `(a, b, c)` for `mul_add`: an edge pair for the product and an
/// addend that is `±0`, a near-negation of a double-rounded product, or
/// another edge operand.
fn edge_triple(sel: u64, r0: u64, r1: u64, r2: u64) -> (u64, u64, u64) {
    let (a, b) = edge_pair(sel, r0, r1);
    let c = match sel / 7 % 4 {
        0 => r2 & SIGN,
        1 => {
            let p = (f64::from_bits(a) * f64::from_bits(b)).to_bits();
            (p ^ SIGN).wrapping_add(r2 % 5).wrapping_sub(2)
        }
        _ => edge_pair(r2, r2.rotate_left(17), r2.rotate_left(41)).0,
    };
    (a, b, c)
}

fn edge_pair_strategy() -> impl Strategy<Value = (u64, u64)> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(s, r0, r1)| edge_pair(s, r0, r1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn f64_add_matches_native(a in f64_pattern(), b in f64_pattern()) {
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::add(Sf64(a), Sf64(b)), fa + fb, "add");
    }

    #[test]
    fn f64_sub_matches_native(a in f64_pattern(), b in f64_pattern()) {
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::sub(Sf64(a), Sf64(b)), fa - fb, "sub");
    }

    #[test]
    fn f64_mul_matches_native(a in f64_pattern(), b in f64_pattern()) {
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::mul(Sf64(a), Sf64(b)), fa * fb, "mul");
    }

    #[test]
    fn f64_div_matches_native(a in f64_pattern(), b in f64_pattern()) {
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::div(Sf64(a), Sf64(b)), fa / fb, "div");
    }

    #[test]
    fn f64_sqrt_matches_native(a in f64_pattern()) {
        let fa = f64::from_bits(a);
        check64(f64impl::sqrt(Sf64(a)), fa.sqrt(), "sqrt");
    }

    #[test]
    fn f64_cmp_matches_native(a in f64_pattern(), b in f64_pattern()) {
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        prop_assert_eq!(f64impl::eq(Sf64(a), Sf64(b)), fa == fb);
        prop_assert_eq!(f64impl::lt(Sf64(a), Sf64(b)), fa < fb);
        prop_assert_eq!(f64impl::le(Sf64(a), Sf64(b)), fa <= fb);
    }

    #[test]
    fn f64_to_i32_matches_native(a in f64_pattern()) {
        let fa = f64::from_bits(a);
        prop_assert_eq!(f64impl::to_i32_trunc(Sf64(a)), fa as i32);
    }

    #[test]
    fn i32_to_f64_matches_native(x in any::<i32>()) {
        prop_assert_eq!(f64impl::from_i32(x).to_f64(), x as f64);
    }

    #[test]
    fn f64_near_cancellation_matches_native(r0 in any::<u64>(), r1 in any::<u64>()) {
        let (a, b) = near_cancellation(r0, r1);
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::add(Sf64(a), Sf64(b)), fa + fb, "add");
        check64(f64impl::sub(Sf64(a), Sf64(b ^ SIGN)), fa - -fb, "sub");
    }

    #[test]
    fn f64_exponent_gaps_match_native(r0 in any::<u64>(), r1 in any::<u64>()) {
        let (a, b) = exponent_gap(r0, r1);
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::add(Sf64(a), Sf64(b)), fa + fb, "add");
        check64(f64impl::sub(Sf64(a), Sf64(b)), fa - fb, "sub");
        check64(f64impl::mul(Sf64(a), Sf64(b)), fa * fb, "mul");
    }

    #[test]
    fn f64_all_ones_carries_match_native(r0 in any::<u64>(), r1 in any::<u64>()) {
        let (a, b) = all_ones(r0, r1);
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::add(Sf64(a), Sf64(b)), fa + fb, "add");
        check64(f64impl::sub(Sf64(a), Sf64(b)), fa - fb, "sub");
        check64(f64impl::mul(Sf64(a), Sf64(b)), fa * fb, "mul");
    }

    #[test]
    fn f64_exponent_edges_match_native(r0 in any::<u64>(), r1 in any::<u64>()) {
        let (a, b) = exponent_edge(r0, r1);
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::add(Sf64(a), Sf64(b)), fa + fb, "add");
        check64(f64impl::sub(Sf64(a), Sf64(b)), fa - fb, "sub");
        check64(f64impl::mul(Sf64(a), Sf64(b)), fa * fb, "mul");
    }

    #[test]
    fn f64_signed_zero_operands_match_native(r0 in any::<u64>(), r1 in any::<u64>()) {
        let (a, b) = zero_operand(r0, r1);
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::add(Sf64(a), Sf64(b)), fa + fb, "add");
        check64(f64impl::sub(Sf64(a), Sf64(b)), fa - fb, "sub");
        check64(f64impl::mul(Sf64(a), Sf64(b)), fa * fb, "mul");
        for (x, y, z) in [(a, b, r1), (a, r1, b), (r1, a, b)] {
            let (fx, fy, fz) = (f64::from_bits(x), f64::from_bits(y), f64::from_bits(z));
            check64(mul_add(Sf64(x), Sf64(y), Sf64(z)), fx * fy + fz, "mul_add");
        }
    }

    #[test]
    fn f64_mul_add_is_the_two_op_host_sum(
        s in any::<u64>(), r0 in any::<u64>(), r1 in any::<u64>(), r2 in any::<u64>()
    ) {
        let (a, b, c) = edge_triple(s, r0, r1, r2);
        let (fa, fb, fc) = (f64::from_bits(a), f64::from_bits(b), f64::from_bits(c));
        check64(mul_add(Sf64(a), Sf64(b), Sf64(c)), fa * fb + fc, "mul_add");
    }

    #[test]
    fn f64_edge_pairs_match_native(pair in edge_pair_strategy()) {
        let (a, b) = pair;
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        check64(f64impl::add(Sf64(a), Sf64(b)), fa + fb, "add");
        check64(f64impl::sub(Sf64(a), Sf64(b)), fa - fb, "sub");
        check64(f64impl::mul(Sf64(a), Sf64(b)), fa * fb, "mul");
    }

    #[test]
    fn add_is_commutative(a in f64_pattern(), b in f64_pattern()) {
        let x = f64impl::add(Sf64(a), Sf64(b));
        let y = f64impl::add(Sf64(b), Sf64(a));
        prop_assert!(x.bits() == y.bits() || (x.is_nan() && y.is_nan()));
    }

    #[test]
    fn mul_is_commutative(a in f64_pattern(), b in f64_pattern()) {
        let x = f64impl::mul(Sf64(a), Sf64(b));
        let y = f64impl::mul(Sf64(b), Sf64(a));
        prop_assert!(x.bits() == y.bits() || (x.is_nan() && y.is_nan()));
    }
}

/// A product of `-0` plus a `+0` addend is `+0`, as on the host; the
/// other signed-zero sums keep IEEE's signs too.
#[test]
fn mul_add_signed_zero_sums() {
    let cases = [
        (-1.5, 0.0, 0.0),
        (1.5, -0.0, 0.0),
        (-1.5, 0.0, -0.0),
        (1.5, 0.0, -0.0),
        (-0.0, -0.0, -0.0),
        (2.0, 3.0, -6.0),
    ];
    for (a, b, c) in cases {
        let got = mul_add(Sf64::from_f64(a), Sf64::from_f64(b), Sf64::from_f64(c));
        let want: f64 = a * b + c;
        check64(got, want, &format!("mul_add({a}, {b}, {c})"));
    }
    let p_neg_zero = mul_add(
        Sf64::from_f64(-1.5),
        Sf64::from_f64(0.0),
        Sf64::from_f64(0.0),
    );
    assert_eq!(p_neg_zero.bits(), 0, "-0 + +0 must be +0");
}

/// SplitMix64: the sweep's deterministic operand source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 10^7 edge-weighted operand sets through add, sub, mul and mul_add,
/// each against the host bit for bit (NaN for NaN).
#[test]
#[ignore = "release-mode sweep: run with --release -- --ignored"]
fn sweep_edge_weighted_pairs_against_host() {
    let mut state = 0x05EE_D0FF_10A7;
    let same =
        |got: Sf64, want: f64| got.bits() == want.to_bits() || (got.is_nan() && want.is_nan());
    let mut mismatches = 0u64;
    for _ in 0..10_000_000u64 {
        let (s, r0, r1, r2) = (
            splitmix(&mut state),
            splitmix(&mut state),
            splitmix(&mut state),
            splitmix(&mut state),
        );
        let (a, b, c) = edge_triple(s, r0, r1, r2);
        let (fa, fb, fc) = (f64::from_bits(a), f64::from_bits(b), f64::from_bits(c));
        let (sa, sb, sc) = (Sf64(a), Sf64(b), Sf64(c));
        let results = [
            ("add", f64impl::add(sa, sb), fa + fb),
            ("sub", f64impl::sub(sa, sb), fa - fb),
            ("mul", f64impl::mul(sa, sb), fa * fb),
            ("mul_add", mul_add(sa, sb, sc), fa * fb + fc),
        ];
        for (op, got, want) in results {
            if !same(got, want) {
                mismatches += 1;
                if mismatches <= 10 {
                    eprintln!(
                        "{op}({a:016x}, {b:016x}, {c:016x}): got {:016x} want {:016x}",
                        got.bits(),
                        want.to_bits()
                    );
                }
            }
        }
    }
    assert_eq!(mismatches, 0, "softfloat differs from the host");
}
