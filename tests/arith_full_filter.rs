//! Parity tests for the generic-arithmetic fusion core.
//!
//! The `F64Arith` instantiation of the generic 5-state IEKF must
//! reproduce a pinned reference trace **bit for bit**. The original
//! expected values were captured from the pre-generic implementation
//! at commit `45bcf5a`; they were **deliberately re-pinned** for the
//! structure-exploiting kernel rewrite (packed-symmetric Joseph
//! update, closed-form LDL solve of the 2x2 innovation), which
//! legitimately reorders a handful of roundings. The re-pin was
//! validated three ways before capture: every updates/rejected/retune
//! counter and gate decision is unchanged from the old trace, the
//! final angles moved by less than 1e-12 rad, and the kernel-level
//! proptests below pin the optimized kernels to the still-compiled
//! dense reference kernels within the documented ulp bounds.

use proptest::prelude::*;
use sensor_fusion_fpga::fusion::arith::{Arith, F64Arith, OpCounts, QArith, SoftArith};
use sensor_fusion_fpga::fusion::filter::{FilterConfig, GenericBoresightFilter};
use sensor_fusion_fpga::fusion::scenario::{run_dynamic, run_static, RunResult, ScenarioConfig};
use sensor_fusion_fpga::fusion::smallmat;
use sensor_fusion_fpga::math::{EulerAngles, Vec2, Vec3, STANDARD_GRAVITY};

/// Expected bits for one scenario run of the pre-refactor filter.
struct PinnedRun {
    roll: u64,
    pitch: u64,
    yaw: u64,
    sigma: [u64; 3],
    updates: u64,
    exceed_rate: u64,
    final_sigma: u64,
    retunes: usize,
    residuals: usize,
    mid_residual: [u64; 5],
}

fn assert_run_matches(result: &RunResult, pin: &PinnedRun) {
    assert_eq!(result.estimate.angles.roll.to_bits(), pin.roll, "roll");
    assert_eq!(result.estimate.angles.pitch.to_bits(), pin.pitch, "pitch");
    assert_eq!(result.estimate.angles.yaw.to_bits(), pin.yaw, "yaw");
    for i in 0..3 {
        assert_eq!(
            result.estimate.one_sigma[i].to_bits(),
            pin.sigma[i],
            "sigma[{i}]"
        );
    }
    assert_eq!(result.estimate.updates, pin.updates, "updates");
    assert_eq!(result.exceed_rate.to_bits(), pin.exceed_rate, "exceed");
    assert_eq!(result.final_sigma.to_bits(), pin.final_sigma, "final R");
    assert_eq!(result.retune_count, pin.retunes, "retunes");
    assert_eq!(result.residuals.len(), pin.residuals, "trace length");
    let mid = &result.residuals[result.residuals.len() / 2];
    let got = [
        mid.time_s.to_bits(),
        mid.residual_x.to_bits(),
        mid.three_sigma_x.to_bits(),
        mid.residual_y.to_bits(),
        mid.three_sigma_y.to_bits(),
    ];
    assert_eq!(got, pin.mid_residual, "mid residual point");
}

#[test]
fn static_scenario_is_bit_identical_to_pre_refactor_trace() {
    let mut cfg = ScenarioConfig::static_test(EulerAngles::from_degrees(2.0, -3.0, 1.5));
    cfg.duration_s = 50.0;
    let result = run_static(&cfg);
    assert_run_matches(
        &result,
        &PinnedRun {
            roll: 0x3fa1e28a9ae98fde,
            pitch: 0xbfaadc26fb4856e4,
            yaw: 0x3f9ab0ee5ce27bd9,
            sigma: [0x3f2c9b5563348193, 0x3f2d8ff8bc123b2a, 0x3ef92227b7cd7d4d],
            updates: 10_000,
            exceed_rate: 0x3f5bda5119ce075f,
            final_sigma: 0x3f82a305532617c2,
            retunes: 1,
            residuals: 1_000,
            mid_residual: [
                0x4039000000000000,
                0xbf6faaa41e2e1f80,
                0x3f95835a7bc4d0d0,
                0xbf829b0b517c1100,
                0x3f9581bdaa7e56ef,
            ],
        },
    );
}

#[test]
fn dynamic_scenario_is_bit_identical_to_pre_refactor_trace() {
    let mut cfg = ScenarioConfig::dynamic_test(EulerAngles::from_degrees(3.0, -2.0, 2.5));
    cfg.duration_s = 50.0;
    let result = run_dynamic(&cfg);
    assert_run_matches(
        &result,
        &PinnedRun {
            roll: 0x3fad79581fed2215,
            pitch: 0xbfa27d24a0084aab,
            yaw: 0x3fa6222c03ca3aff,
            sigma: [0x3f5cef55db1cd4b5, 0x3f5dd7215b625de4, 0x3f223e8787271e43],
            updates: 10_000,
            exceed_rate: 0x3f40624dd2f1a9fc,
            final_sigma: 0x3f93f7ced916872b,
            retunes: 1,
            residuals: 1_000,
            mid_residual: [
                0x4039000000000000,
                0x3f7bfc2056659000,
                0x3fadf51fc5006f41,
                0xbf9432e4e42612c0,
                0x3fadf7e697bfaf2e,
            ],
        },
    );
}

/// A deterministic filter-only trace (no estimator front end, no RNG):
/// closed-form measurement schedule that exercises gating (904
/// rejections) and the bias trust-region clamp (x[3] pinned at the
/// 0.3 m/s^2 limit).
#[test]
fn filter_trace_is_bit_identical_to_pre_refactor() {
    let mut kf: GenericBoresightFilter<F64Arith> =
        GenericBoresightFilter::new(FilterConfig::paper_static());
    let g = STANDARD_GRAVITY;
    for i in 0..2_000 {
        let t = i as f64 * 0.005;
        let f_b = Vec3::new([2.0 * (0.5 * t).sin(), 1.5 * (0.33 * t).cos(), g]);
        let z = Vec2::new([
            f_b[0] + 0.02 * (1.1 * t).sin() - 0.15,
            f_b[1] - 0.02 * (0.9 * t).cos() + 0.1,
        ]);
        kf.predict(0.005);
        kf.update(z, f_b, t);
    }
    let expected_x: [u64; 5] = [
        0x3fa0380044b46e0b,
        0x3faacde0694fb313,
        0xbf96854458682fd3,
        0x3fd3333333333333,
        0xbfce08458e594250,
    ];
    let state = kf.state();
    for (i, bits) in expected_x.iter().enumerate() {
        assert_eq!(state[i].to_bits(), *bits, "x[{i}]");
    }
    let expected_p_diag: [u64; 5] = [
        0x3ef5b1f0824e1094,
        0x3ef1369ef52f70f1,
        0x3e74bd182a67a58f,
        0x3f5a1a7cab66c404,
        0x3f604c307436d4bf,
    ];
    let p = kf.covariance();
    for (i, bits) in expected_p_diag.iter().enumerate() {
        assert_eq!(p[(i, i)].to_bits(), *bits, "p[{i}][{i}]");
    }
    assert_eq!(p[(0, 4)].to_bits(), 0xbf2a974f86619221, "p[0][4]");
    assert_eq!(kf.update_count(), 1_096);
    assert_eq!(kf.rejected_count(), 904);
    assert!(kf.covariance_healthy());
}

/// A filter-only run over substrate `A` on a closed-form schedule
/// built to reach every control path of the update: a wild outlier
/// every 97th sample (gate rejection on axis 0, so the axis-1 test is
/// skipped), a 0.2 m/s^2 bias offset that drives the bias state into
/// its trust-region clamp, and — on Q16.16, whose covariance collapses
/// to the quantization floor — singular innovation solves.
fn ledger_run<A: Arith + Default>(samples: usize) -> GenericBoresightFilter<A> {
    let mut kf: GenericBoresightFilter<A> =
        GenericBoresightFilter::new(FilterConfig::paper_static());
    let g = STANDARD_GRAVITY;
    for i in 0..samples {
        let t = i as f64 * 0.005;
        let f_b = Vec3::new([2.0 * (0.5 * t).sin(), 1.5 * (0.33 * t).cos(), g]);
        let z = if i % 97 == 96 {
            Vec2::new([5.0, -5.0])
        } else {
            Vec2::new([
                f_b[0] + 0.01 * (1.1 * t).sin() + 0.2,
                f_b[1] - 0.01 * (0.9 * t).cos() - 0.1,
            ])
        };
        kf.predict(0.005);
        kf.update(z, f_b, t);
    }
    kf
}

/// Expected op ledger of one [`ledger_run`].
struct LedgerPin {
    /// `OpCounts` as add, sub, mul, div, neg, abs, sqrt, cmp, fma,
    /// trig, saturations.
    counts: [u64; 11],
    /// `PhaseLedger` predict, gate and update cycles.
    phase_cycles: [u64; 3],
    accepted: u64,
    rejected: u64,
}

fn assert_ledger_matches<A: Arith>(kf: &GenericBoresightFilter<A>, pin: &LedgerPin) {
    let c: OpCounts = kf.arith().counts();
    let counts = [
        c.add,
        c.sub,
        c.mul,
        c.div,
        c.neg,
        c.abs,
        c.sqrt,
        c.cmp,
        c.fma,
        c.trig,
        c.saturations,
    ];
    assert_eq!(counts, pin.counts, "op counts");
    let phases = kf.phase_ledger();
    let cycles = [
        phases.predict.cycles,
        phases.gate.cycles,
        phases.update.cycles,
    ];
    assert_eq!(cycles, pin.phase_cycles, "phase cycles");
    // A filter-only run charges every op to exactly one phase.
    assert_eq!(c.total(), phases.tracked_ops());
    assert_eq!(kf.update_count(), pin.accepted, "accepted");
    assert_eq!(kf.rejected_count(), pin.rejected, "rejected");
}

/// The Softfloat op ledger of a filter-only run — every counter, the
/// per-phase Sabre cycles and the accept/reject split — is pinned
/// exactly: the cycle model is only meaningful if no refactor adds or
/// drops an emulated instruction on any control path.
#[test]
fn softfloat_filter_op_ledger_is_pinned() {
    let kf = ledger_run::<SoftArith>(20_000);
    assert_ledger_matches(
        &kf,
        &LedgerPin {
            counts: [
                2_353_624, 86_647, 2_568_321, 5_751, 108_313, 33_419, 40_000, 83_016, 0, 63_834, 0,
            ],
            phase_cycles: [7_500_000, 796_802_879, 112_519_881],
            accepted: 639,
            rejected: 19_361,
        },
    );
}

/// The Q16.16 op ledger of the same run, saturation events included:
/// the adaptive context monitor reads the saturation counter, so an
/// extra instruction on the singular-innovation path (a division by a
/// collapsed pivot saturates) is a behaviour change, not just a cost.
#[test]
fn q16_filter_op_ledger_is_pinned() {
    let kf = ledger_run::<QArith<16>>(20_000);
    assert_ledger_matches(
        &kf,
        &LedgerPin {
            counts: [
                181_121, 43_720, 390_543, 2_037, 100_671, 27_054, 40_000, 72_802, 1_796_301,
                60_327, 2,
            ],
            phase_cycles: [100_000, 10_672_195, 163_917],
            accepted: 7,
            rejected: 19_993,
        },
    );
}

/// `|a - b|` within one ulp scaled to the operand magnitude.
fn within_scaled_ulp(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    (a - b).abs() <= scale * f64::EPSILON
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed-symmetric Joseph kernel tracks the still-compiled
    /// dense reference within a few ulps scaled to the covariance
    /// magnitude, on the Softfloat substrate (the paper's deployed
    /// arithmetic). The divergence budget is the dense kernel's own
    /// re-symmetrization average plus the `K (r I) K^T` reassociation:
    /// measured worst case ~2.3 matrix-scaled ulps over 50k random
    /// draws, asserted at 4.
    #[test]
    fn packed_joseph_tracks_dense_reference_on_softfloat(
        m in prop::collection::vec(-0.01_f64..0.01, 25),
        kv in prop::collection::vec(-0.1_f64..0.1, 10),
        hv in prop::collection::vec(-10.0_f64..10.0, 10),
        r in 1e-6_f64..1e-3,
    ) {
        let mut a = SoftArith::default();
        // Symmetric PSD covariance P = M M^T in the substrate.
        let mut p = [[a.num(0.0); 5]; 5];
        for row in 0..5 {
            for col in 0..5 {
                let mut acc = 0.0;
                for k in 0..5 {
                    acc += m[row * 5 + k] * m[col * 5 + k];
                }
                let v = a.num(acc);
                p[row][col] = v;
                p[col][row] = v;
            }
        }
        let k: [[_; 2]; 5] = std::array::from_fn(|i| std::array::from_fn(|j| a.num(kv[i * 2 + j])));
        let h: [[_; 5]; 2] = std::array::from_fn(|i| std::array::from_fn(|j| a.num(hv[i * 5 + j])));
        let r_t = a.num(r);
        let dense = smallmat::joseph_update(&mut a, &p, &k, &h, r_t);
        let packed = smallmat::joseph_update_sym(&mut a, &p, &k, &h, r_t);
        let scale = dense
            .iter()
            .flatten()
            .fold(f64::MIN_POSITIVE, |mx, v| mx.max(a.to_f64(*v).abs()));
        for row in 0..5 {
            for col in 0..5 {
                // The packed result is exactly symmetric by construction.
                prop_assert_eq!(packed[row][col].to_f64().to_bits(), packed[col][row].to_f64().to_bits());
                let d = (a.to_f64(dense[row][col]) - a.to_f64(packed[row][col])).abs();
                prop_assert!(
                    d <= 4.0 * scale * f64::EPSILON,
                    "P'[{}][{}]: dense {} packed {} (scale {})",
                    row, col, a.to_f64(dense[row][col]), a.to_f64(packed[row][col]), scale
                );
            }
        }
    }

    /// The closed-form LDL solve of the 2x2 innovation tracks the
    /// still-compiled Gauss-Jordan reference within a few ulps scaled
    /// to the inverse magnitude on Softfloat (both are backward-stable;
    /// they differ only in rounding order — measured worst case ~6
    /// matrix-scaled ulps at condition <= ~20, asserted at 16).
    #[test]
    fn closed_form_solve_tracks_gauss_jordan_on_softfloat(
        d0 in 1e-5_f64..1e-2,
        d1 in 1e-5_f64..1e-2,
        corr in -0.9_f64..0.9,
    ) {
        let mut a = SoftArith::default();
        let off = corr * (d0 * d1).sqrt();
        let s = [[a.num(d0), a.num(off)], [a.num(off), a.num(d1)]];
        let gj = smallmat::inverse(&mut a, &s).expect("SPD");
        let ldl = smallmat::inverse2_sym(&mut a, &s).expect("SPD");
        let scale = gj
            .iter()
            .flatten()
            .fold(f64::MIN_POSITIVE, |mx, v| mx.max(a.to_f64(*v).abs()));
        for row in 0..2 {
            for col in 0..2 {
                let d = (a.to_f64(gj[row][col]) - a.to_f64(ldl[row][col])).abs();
                prop_assert!(
                    d <= 16.0 * scale * f64::EPSILON,
                    "S^-1[{}][{}]: gj {} ldl {}",
                    row, col, a.to_f64(gj[row][col]), a.to_f64(ldl[row][col])
                );
            }
        }
    }

    /// The Softfloat substrate tracks the native reference within one
    /// scaled ulp over random predict/update sequences of the full
    /// 5-state IEKF (in practice the emulation is bit-exact; the ulp
    /// bound is the contract).
    #[test]
    fn softfloat_tracks_f64_over_random_update_sequences(
        samples in prop::collection::vec(
            (
                -5.0_f64..5.0,
                -5.0_f64..5.0,
                -4.0_f64..4.0,
                -4.0_f64..4.0,
                8.0_f64..11.0,
                1e-4_f64..0.05,
            ),
            20..120,
        )
    ) {
        let mut native: GenericBoresightFilter<F64Arith> =
            GenericBoresightFilter::new(FilterConfig::paper_static());
        let mut soft: GenericBoresightFilter<SoftArith> =
            GenericBoresightFilter::new(FilterConfig::paper_static());
        let mut t = 0.0;
        for &(z0, z1, fx, fy, fz, dt) in &samples {
            t += dt;
            let z = Vec2::new([z0 * 0.1, z1 * 0.1]);
            let f_b = Vec3::new([fx, fy, fz]);
            native.predict(dt);
            soft.predict(dt);
            let un = native.update(z, f_b, t);
            let us = soft.update(z, f_b, t);
            prop_assert_eq!(un.accepted, us.accepted);
        }
        let an = native.angles();
        let asoft = soft.angles();
        prop_assert!(within_scaled_ulp(an.roll, asoft.roll), "roll {} vs {}", an.roll, asoft.roll);
        prop_assert!(within_scaled_ulp(an.pitch, asoft.pitch), "pitch {} vs {}", an.pitch, asoft.pitch);
        prop_assert!(within_scaled_ulp(an.yaw, asoft.yaw), "yaw {} vs {}", an.yaw, asoft.yaw);
        let pn = native.covariance();
        let ps = soft.covariance();
        for r in 0..5 {
            for c in 0..5 {
                prop_assert!(
                    within_scaled_ulp(pn[(r, c)], ps[(r, c)]),
                    "P[{}][{}]: {} vs {}", r, c, pn[(r, c)], ps[(r, c)]
                );
            }
        }
        // The emulated run also accounted its cycle cost.
        prop_assert!(soft.arith().cycles() > 0);
    }
}

/// Saturation count of one fresh `QArith<FRAC>` after a single
/// (non-chained) operation on operands lowered through `num`.
fn q_sat_for_op<const FRAC: u32>(op: usize, a: f64, b: f64, c: f64) -> u64 {
    let mut q = QArith::<FRAC>::default();
    let (qa, qb, qc) = (q.num(a), q.num(b), q.num(c));
    match op {
        0 => {
            q.add(qa, qb);
        }
        1 => {
            q.sub(qa, qb);
        }
        2 => {
            q.mul(qa, qb);
        }
        3 => {
            q.div(qa, qb);
        }
        4 => {
            q.fma(qa, qb, qc);
        }
        5 => {
            q.neg(qa);
        }
        _ => {
            q.abs(qa);
        }
    }
    q.saturations()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Growing `FRAC` trades headroom for resolution, so on a fixed
    /// operand domain the saturation counter must be monotone
    /// non-decreasing across the `Q<FRAC>` family: `Q4.28` saturates at
    /// least as often as `Q8.24`, which saturates at least as often as
    /// `Q12.20`, then `Q16.16`. Operands are exact multiples of `2^-8`
    /// in `[-16, 16]` (representable in every format's fraction field,
    /// beyond `Q4.28`'s ±8 range), one op per fresh ledger so counts
    /// are attributable; divisors keep `|b| >= 2^-8`.
    #[test]
    fn q_format_saturation_counts_are_monotone_in_fraction_bits(
        op in 0usize..7,
        ai in -4096i64..=4096,
        bi in -4096i64..=4096,
        ci in -4096i64..=4096,
    ) {
        let a = ai as f64 / 256.0;
        let mut b = bi as f64 / 256.0;
        let c = ci as f64 / 256.0;
        if op == 3 && b == 0.0 {
            b = 1.0 / 256.0;
        }
        let sats = [
            q_sat_for_op::<16>(op, a, b, c),
            q_sat_for_op::<20>(op, a, b, c),
            q_sat_for_op::<24>(op, a, b, c),
            q_sat_for_op::<28>(op, a, b, c),
        ];
        for w in sats.windows(2) {
            prop_assert!(
                w[0] <= w[1],
                "saturations not monotone across FRAC sweep: {:?} (op {})",
                sats,
                op
            );
        }
    }
}
