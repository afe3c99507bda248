//! The boresight measurement model.
//!
//! The two-axis accelerometer fixed to the sensor measures the x', y'
//! components of the specific force expressed in the sensor frame:
//!
//! ```text
//! z = S * C_sb(phi, theta, psi) * f_b + b + v
//! ```
//!
//! where `C_sb` is the (sensor-from-body) misalignment DCM — the
//! quantity the filter estimates — `f_b` the IMU's body-frame specific
//! force, `S` the first-two-rows selector, `b` the accelerometer bias
//! pair and `v` measurement noise. This module supplies the model
//! function `h` and its analytic Jacobian with respect to the filter
//! state `[phi, theta, psi, bx, by]`.

use crate::arith::Arith;
use mathx::{Mat3, Matrix, Vec3, Vector};

/// Dimension of the filter state.
pub const STATE_DIM: usize = 5;
/// Dimension of the measurement.
pub const MEAS_DIM: usize = 2;

/// Filter state vector `[phi, theta, psi, bx, by]`.
pub type State = Vector<STATE_DIM>;
/// Measurement vector (ACC x', y' specific force, m/s^2).
pub type Meas = Vector<MEAS_DIM>;
/// State covariance.
pub type StateCov = Matrix<STATE_DIM, STATE_DIM>;
/// Measurement Jacobian.
pub type MeasJacobian = Matrix<MEAS_DIM, STATE_DIM>;

fn rx(phi: f64) -> Mat3 {
    let (s, c) = phi.sin_cos();
    Mat3::new([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
}

fn ry(theta: f64) -> Mat3 {
    let (s, c) = theta.sin_cos();
    Mat3::new([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
}

fn rz(psi: f64) -> Mat3 {
    let (s, c) = psi.sin_cos();
    Mat3::new([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
}

fn drx(phi: f64) -> Mat3 {
    let (s, c) = phi.sin_cos();
    Mat3::new([[0.0, 0.0, 0.0], [0.0, -s, -c], [0.0, c, -s]])
}

fn dry(theta: f64) -> Mat3 {
    let (s, c) = theta.sin_cos();
    Mat3::new([[-s, 0.0, c], [0.0, 0.0, 0.0], [-c, 0.0, -s]])
}

fn drz(psi: f64) -> Mat3 {
    let (s, c) = psi.sin_cos();
    Mat3::new([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])
}

/// Sensor-from-body DCM for the given state.
pub fn c_sb(x: &State) -> Mat3 {
    (rz(x[2]) * ry(x[1]) * rx(x[0])).transpose()
}

/// Model function: predicted ACC measurement for state `x` and IMU
/// specific force `f_b`.
pub fn h(x: &State, f_b: Vec3) -> Meas {
    let f_s = c_sb(x) * f_b;
    Vector::new([f_s[0] + x[3], f_s[1] + x[4]])
}

/// Analytic Jacobian `dh/dx` (2 x 5).
pub fn jacobian(x: &State, f_b: Vec3) -> MeasJacobian {
    let a = rz(x[2]);
    let b = ry(x[1]);
    let c = rx(x[0]);
    // C_sb = C^T B^T A^T; partials replace one factor by its derivative.
    let d_phi = (a * b * drx(x[0])).transpose() * f_b;
    let d_theta = (a * dry(x[1]) * c).transpose() * f_b;
    let d_psi = (drz(x[2]) * b * c).transpose() * f_b;
    let mut jac = MeasJacobian::zeros();
    for row in 0..MEAS_DIM {
        jac[(row, 0)] = d_phi[row];
        jac[(row, 1)] = d_theta[row];
        jac[(row, 2)] = d_psi[row];
    }
    jac[(0, 3)] = 1.0;
    jac[(1, 4)] = 1.0;
    jac
}

// --- Substrate-generic model -------------------------------------
//
// The model function and Jacobian over any `Arith` number system, as
// straight-line code over the live terms of the Euler factors. With
// `R = Rz Ry Rx` (so `C_sb = R^T`), `h` and its Jacobian read only
// columns 0 and 1 of `R` and of its three partials (`s_i`, `c_i` are
// the sine and cosine of `x[i]`):
//
// ```text
// Rz Ry = [ c2c1  -s2  c2s1 ]    R[:,0]      = (Rz Ry)[:,0]
//         [ s2c1   c2  s2s1 ]    R[:,1]      = (Rz Ry)[:,1] c0 + (Rz Ry)[:,2] s0
//         [ -s1     0    c1 ]    dR/dphi     = [0, (Rz Ry)[:,1] (-s0) + (Rz Ry)[:,2] c0]
//                                dR/dtheta   = [[c2 (-s1), s2 (-s1), -c1], [c2c1, s2c1, -s1] s0]
//                                dR/dpsi     = [[(-s2) c1, c2c1, 0], [(-c2) c0 + (-s2) s1 s0, R[0,1], 0]]
// ```
//
// Each entry is the dense `smallmat` product's accumulation with its
// structural zeros skipped and its unit factors dropped: the first
// live term seeds the sum and later terms `fma` into it, in the dense
// kernel's order. The dense factor builders in the tests are the
// oracle that pins this bit for bit.

/// `f^T m` for a column `m` of `R` or a partial, accumulated from `+0`
/// in row order like the dense kernel's [`crate::smallmat::mat_tvec`].
///
/// The `+0` seed matters for floats: an entry of `m` can differ from
/// the dense product's in the sign of an exact zero (the dense kernel
/// seeds every sum with `+0`; a skipped-term entry such as `-s2` at
/// `psi = +0` is `-0`), and only a sum that starts at `+0` turns an
/// all-zero sum into `+0` again.
fn dot_f<A: Arith, const N: usize>(a: &mut A, m: [A::T; N], f_b: &[A::T; 3]) -> A::T {
    let mut acc = a.num(0.0);
    for (m_r, f_r) in m.into_iter().zip(f_b) {
        acc = a.fma(m_r, *f_r, acc);
    }
    acc
}

/// Fused model + Jacobian evaluation — the IEKF's only model call.
///
/// One `sin_cos` per angle, then 18 multiplies and 24 fused
/// multiply-adds over the live entries of the Euler factors: no
/// product by a structural 0 or 1, no entry that `h` and its Jacobian
/// never read, and each entry that `R` and a partial share computed
/// once. The dense evaluation (the factor matrices multiplied out,
/// kept in the tests as the oracle) spent 225 fused products per
/// linearization point.
///
/// For finite inputs every returned value is **bit-identical** to the
/// dense evaluation on every substrate. Float `fma` is
/// `add(c, mul(a, b))`, so a dropped `0 * x` term or `x * 1` factor
/// changes at most the sign of an exact zero inside a sum, and the
/// `+0`-seeded `C^T f` dot products remove that. Fixed point's `fma`
/// rounds `a b + c` once, so in any Q format that holds 1,
/// `fma(a, b, 0)` is `mul(a, b)`, `fma(0, x, c)` is `c` and
/// `fma(x, 1, 0)` is `x`, saturation flags included. The saturation
/// *count* can only fall: the dense kernel also counted overflows in
/// values it never returned (Q4.28, whose ±8 range cannot hold
/// gravity, shows it). Pinned by tests below on f64, f32, Softfloat,
/// Q16.16, Q8.24 and four f64 lanes, and by per-substrate op counts.
#[allow(clippy::type_complexity)]
pub fn h_and_jacobian_generic<A: Arith>(
    a: &mut A,
    x: &[A::T; STATE_DIM],
    f_b: &[A::T; 3],
) -> ([A::T; MEAS_DIM], [[A::T; STATE_DIM]; MEAS_DIM]) {
    let zero = a.num(0.0);
    let one = a.num(1.0);
    let (s0, c0) = a.sin_cos(x[0]);
    let (s1, c1) = a.sin_cos(x[1]);
    let (s2, c2) = a.sin_cos(x[2]);
    let ns0 = a.neg(s0);
    let (ns1, nc1) = (a.neg(s1), a.neg(c1));
    let (ns2, nc2) = (a.neg(s2), a.neg(c2));
    let c2c1 = a.mul(c2, c1);
    let c2s1 = a.mul(c2, s1);
    let s2c1 = a.mul(s2, c1);
    let s2s1 = a.mul(s2, s1);
    // Column 1 of R. Row 1 of dR/dpsi is row 0 of R (row 1 of dRz is
    // row 0 of Rz), so it reuses c2c1 and r01.
    let r01 = a.mul(ns2, c0);
    let r01 = a.fma(c2s1, s0, r01);
    let r11 = a.mul(c2, c0);
    let r11 = a.fma(s2s1, s0, r11);
    let r21 = a.mul(c1, s0);
    // Column 1 of dR/dphi (column 0 is zero).
    let phi01 = a.mul(ns2, ns0);
    let phi01 = a.fma(c2s1, c0, phi01);
    let phi11 = a.mul(c2, ns0);
    let phi11 = a.fma(s2s1, c0, phi11);
    let phi21 = a.mul(c1, c0);
    // dR/dtheta; its entry [2][0] is -c1.
    let theta00 = a.mul(c2, ns1);
    let theta10 = a.mul(s2, ns1);
    let theta01 = a.mul(c2c1, s0);
    let theta11 = a.mul(s2c1, s0);
    let theta21 = a.mul(ns1, s0);
    // Row 0 of dR/dpsi.
    let psi00 = a.mul(ns2, c1);
    let psi01 = a.mul(nc2, c0);
    let ns2s1 = a.mul(ns2, s1);
    let psi01 = a.fma(ns2s1, s0, psi01);
    let f_s = [
        dot_f(a, [c2c1, s2c1, ns1], f_b),
        dot_f(a, [r01, r11, r21], f_b),
    ];
    let h = [a.add(f_s[0], x[3]), a.add(f_s[1], x[4])];
    // dR/dpsi's last row is zero, so its columns dot only f_b[0..2].
    let jac = [
        [
            zero,
            dot_f(a, [theta00, theta10, nc1], f_b),
            dot_f(a, [psi00, c2c1], f_b),
            one,
            zero,
        ],
        [
            dot_f(a, [phi01, phi11, phi21], f_b),
            dot_f(a, [theta01, theta11, theta21], f_b),
            dot_f(a, [psi01, r01], f_b),
            zero,
            one,
        ],
    ];
    (h, jac)
}

/// First-order (small-angle) approximation of `h`, used by tests and
/// the fixed-point filter: `z ~ S (f - e x f) + b`.
pub fn h_small_angle(x: &State, f_b: Vec3) -> Meas {
    let e = Vec3::new([x[0], x[1], x[2]]);
    let f_s = f_b - e.cross(&f_b);
    Vector::new([f_s[0] + x[3], f_s[1] + x[4]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{F32Arith, F64Arith, LaneArith, OpCounts, QArith, SoftArith};
    use crate::smallmat;
    use mathx::{deg_to_rad, EulerAngles, STANDARD_GRAVITY};

    // --- Dense reference: the Euler factors as full 3x3 matrices ----
    //
    // The model over `smallmat`'s dense kernels in the exact operation
    // order of the `f64` path above; `h_and_jacobian_generic` is
    // pinned against it bit for bit.

    fn rx_g<A: Arith>(a: &mut A, phi: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(phi);
        let ns = a.neg(s);
        let zero = a.num(0.0);
        let one = a.num(1.0);
        [[one, zero, zero], [zero, c, ns], [zero, s, c]]
    }

    fn ry_g<A: Arith>(a: &mut A, theta: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(theta);
        let ns = a.neg(s);
        let zero = a.num(0.0);
        let one = a.num(1.0);
        [[c, zero, s], [zero, one, zero], [ns, zero, c]]
    }

    fn rz_g<A: Arith>(a: &mut A, psi: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(psi);
        let ns = a.neg(s);
        let zero = a.num(0.0);
        let one = a.num(1.0);
        [[c, ns, zero], [s, c, zero], [zero, zero, one]]
    }

    fn drx_g<A: Arith>(a: &mut A, phi: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(phi);
        let ns = a.neg(s);
        let nc = a.neg(c);
        let zero = a.num(0.0);
        [[zero, zero, zero], [zero, ns, nc], [zero, c, ns]]
    }

    fn dry_g<A: Arith>(a: &mut A, theta: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(theta);
        let ns = a.neg(s);
        let nc = a.neg(c);
        let zero = a.num(0.0);
        [[ns, zero, c], [zero, zero, zero], [nc, zero, ns]]
    }

    fn drz_g<A: Arith>(a: &mut A, psi: A::T) -> [[A::T; 3]; 3] {
        let (s, c) = a.sin_cos(psi);
        let ns = a.neg(s);
        let nc = a.neg(c);
        let zero = a.num(0.0);
        [[ns, nc, zero], [c, ns, zero], [zero, zero, zero]]
    }

    /// Dense model function: `C_sb = (Rz Ry Rx)^T` applied through
    /// [`smallmat::mat_tvec`].
    fn h_generic<A: Arith>(a: &mut A, x: &[A::T; STATE_DIM], f_b: &[A::T; 3]) -> [A::T; MEAS_DIM] {
        let rz = rz_g(a, x[2]);
        let ry = ry_g(a, x[1]);
        let rx = rx_g(a, x[0]);
        let zy = smallmat::mul(a, &rz, &ry);
        let prod = smallmat::mul(a, &zy, &rx);
        let f_s = smallmat::mat_tvec(a, &prod, f_b);
        [a.add(f_s[0], x[3]), a.add(f_s[1], x[4])]
    }

    /// Dense analytic Jacobian `dh/dx` (2 x 5).
    fn jacobian_generic<A: Arith>(
        a: &mut A,
        x: &[A::T; STATE_DIM],
        f_b: &[A::T; 3],
    ) -> [[A::T; STATE_DIM]; MEAS_DIM] {
        let az = rz_g(a, x[2]);
        let by = ry_g(a, x[1]);
        let cx = rx_g(a, x[0]);
        // C_sb = C^T B^T A^T; partials replace one factor by its derivative.
        let ab = smallmat::mul(a, &az, &by);
        let dcx = drx_g(a, x[0]);
        let m_phi = smallmat::mul(a, &ab, &dcx);
        let d_phi = smallmat::mat_tvec(a, &m_phi, f_b);
        let dby = dry_g(a, x[1]);
        let adb = smallmat::mul(a, &az, &dby);
        let m_theta = smallmat::mul(a, &adb, &cx);
        let d_theta = smallmat::mat_tvec(a, &m_theta, f_b);
        let daz = drz_g(a, x[2]);
        let db = smallmat::mul(a, &daz, &by);
        let m_psi = smallmat::mul(a, &db, &cx);
        let d_psi = smallmat::mat_tvec(a, &m_psi, f_b);
        let zero = a.num(0.0);
        let one = a.num(1.0);
        let mut jac = [[zero; STATE_DIM]; MEAS_DIM];
        for row in 0..MEAS_DIM {
            jac[row][0] = d_phi[row];
            jac[row][1] = d_theta[row];
            jac[row][2] = d_psi[row];
        }
        jac[0][3] = one;
        jac[1][4] = one;
        jac
    }

    fn state(roll: f64, pitch: f64, yaw: f64, bx: f64, by: f64) -> State {
        Vector::new([deg_to_rad(roll), deg_to_rad(pitch), deg_to_rad(yaw), bx, by])
    }

    #[test]
    fn c_sb_matches_mathx_convention() {
        let x = state(3.0, -2.0, 5.0, 0.0, 0.0);
        let e = EulerAngles::new(x[0], x[1], x[2]);
        let expected = e.dcm().transpose();
        assert!((c_sb(&x) - *expected.matrix()).max_abs() < 1e-14);
    }

    #[test]
    fn zero_state_is_identity() {
        let x = State::zeros();
        let f = Vec3::new([1.0, 2.0, 3.0]);
        let z = h(&x, f);
        assert_eq!(z, Vector::new([1.0, 2.0]));
    }

    #[test]
    fn bias_adds_directly() {
        let x = state(0.0, 0.0, 0.0, 0.05, -0.02);
        let f = Vec3::new([1.0, 2.0, 3.0]);
        let z = h(&x, f);
        assert!((z[0] - 1.05).abs() < 1e-15);
        assert!((z[1] - 1.98).abs() < 1e-15);
    }

    #[test]
    fn jacobian_matches_numerical() {
        let x0 = state(2.0, -1.5, 3.0, 0.01, -0.02);
        let f = Vec3::new([0.8, -0.4, STANDARD_GRAVITY]);
        let jac = jacobian(&x0, f);
        let eps = 1e-7;
        for k in 0..STATE_DIM {
            let mut xp = x0;
            let mut xm = x0;
            xp[k] += eps;
            xm[k] -= eps;
            let num = (h(&xp, f) - h(&xm, f)) / (2.0 * eps);
            for row in 0..MEAS_DIM {
                assert!(
                    (jac[(row, k)] - num[row]).abs() < 1e-6,
                    "d h[{row}]/dx[{k}]: analytic {} numeric {}",
                    jac[(row, k)],
                    num[row]
                );
            }
        }
    }

    #[test]
    fn jacobian_numerical_at_zero() {
        let x0 = State::zeros();
        let f = Vec3::new([0.0, 0.0, STANDARD_GRAVITY]);
        let jac = jacobian(&x0, f);
        // Small-angle theory: z_x ~ -theta*g, z_y ~ +phi*g at level.
        assert!((jac[(0, 1)] + STANDARD_GRAVITY).abs() < 1e-12);
        assert!((jac[(1, 0)] - STANDARD_GRAVITY).abs() < 1e-12);
        // Yaw unobservable when gravity is along z.
        assert!(jac[(0, 2)].abs() < 1e-12);
        assert!(jac[(1, 2)].abs() < 1e-12);
    }

    #[test]
    fn yaw_becomes_observable_with_horizontal_force() {
        let x0 = State::zeros();
        let f = Vec3::new([2.0, 0.0, STANDARD_GRAVITY]); // braking/accelerating
        let jac = jacobian(&x0, f);
        // z_y picks up -psi*f_x.
        assert!((jac[(1, 2)] + 2.0).abs() < 1e-12, "{}", jac[(1, 2)]);
    }

    #[test]
    fn generic_model_is_bit_identical_to_f64_model() {
        let x0 = state(2.0, -1.5, 3.0, 0.01, -0.02);
        let f = Vec3::new([0.8, -0.4, STANDARD_GRAVITY]);
        let mut a = F64Arith::default();
        let xs = *x0.as_array();
        let fb = *f.as_array();
        let hg = h_generic(&mut a, &xs, &fb);
        let hf = h(&x0, f);
        assert_eq!(hg[0].to_bits(), hf[0].to_bits());
        assert_eq!(hg[1].to_bits(), hf[1].to_bits());
        let jg = jacobian_generic(&mut a, &xs, &fb);
        let jf = jacobian(&x0, f);
        for r in 0..MEAS_DIM {
            for c in 0..STATE_DIM {
                assert_eq!(jg[r][c].to_bits(), jf[(r, c)].to_bits(), "({r},{c})");
            }
        }
    }

    /// Angles and specific forces around which a skipped `0 * x` term
    /// could flip the sign of a zero: exact `+-0` angles (`-sin` is
    /// `-0`), gravity straight down, and `-0` force components.
    fn model_points() -> Vec<([f64; STATE_DIM], [f64; 3])> {
        let g = STANDARD_GRAVITY;
        let states = [
            *state(2.0, -1.5, 3.0, 0.013, -0.027).as_array(),
            *state(-4.9, 4.9, 0.3, 0.013, -0.027).as_array(),
            [0.0; STATE_DIM],
            [-0.0; STATE_DIM],
            [0.0, -0.0, 0.0, -0.0, 0.0],
            [deg_to_rad(1.0), 0.0, -0.0, 0.0, -0.0],
        ];
        let forces = [
            [0.8, -0.4, g],
            [0.0, 0.0, g],
            [-0.0, 0.0, g],
            [0.0, -0.0, g],
            [-0.0, -0.0, g],
            [-0.0, -0.0, -0.0],
        ];
        let mut points = Vec::new();
        for x in states {
            for f in forces {
                points.push((x, f));
            }
        }
        points
    }

    /// Asserts the straight-line model equals the dense reference on
    /// substrate `A` at every [`model_points`] point. `{:?}` of every
    /// substrate scalar is exact — f64/f32 print their shortest
    /// round-trip form with the zero's sign, Softfloat and fixed point
    /// their raw words — so equal strings mean equal bits.
    fn assert_fused_matches_dense<A: Arith + Default>() {
        for (xv, fv) in model_points() {
            let mut a = A::default();
            let x = xv.map(|v| a.num(v));
            let f = fv.map(|v| a.num(v));
            let fused = h_and_jacobian_generic(&mut a, &x, &f);
            let dense = (h_generic(&mut a, &x, &f), jacobian_generic(&mut a, &x, &f));
            assert_eq!(
                format!("{fused:?}"),
                format!("{dense:?}"),
                "{} at x = {xv:?}, f_b = {fv:?}",
                a.name()
            );
        }
    }

    #[test]
    fn fused_model_is_bit_identical_to_separate_evaluations() {
        assert_fused_matches_dense::<F64Arith>();
        assert_fused_matches_dense::<F32Arith>();
        assert_fused_matches_dense::<SoftArith>();
        assert_fused_matches_dense::<QArith<16>>();
        assert_fused_matches_dense::<QArith<24>>();
        assert_fused_matches_dense::<LaneArith<F64Arith, 4>>();
    }

    /// One linearization's op counts on substrate `A`.
    fn model_counts<A: Arith + Default>() -> OpCounts {
        let mut a = A::default();
        let x = state(2.0, -1.5, 3.0, 0.0, 0.0).as_array().map(|v| a.num(v));
        let f = [0.8, -0.4, STANDARD_GRAVITY].map(|v| a.num(v));
        let _ = h_and_jacobian_generic(&mut a, &x, &f);
        a.counts()
    }

    /// The live-term op count, pinned per substrate so a fallback to
    /// dense products fails loudly: 3 `sin_cos`, 5 negations, 18
    /// multiplies, 24 fused multiply-adds and the 2 bias additions.
    /// Floats count each `fma` as a multiply and an add; fixed point
    /// counts it as one op; lanes count every lane.
    #[test]
    fn fused_model_op_counts_are_pinned() {
        let float = OpCounts {
            add: 26,
            mul: 42,
            neg: 5,
            trig: 3,
            ..OpCounts::default()
        };
        assert_eq!(model_counts::<F64Arith>(), float);
        assert_eq!(model_counts::<F32Arith>(), float);
        assert_eq!(model_counts::<SoftArith>(), float);
        let fixed = OpCounts {
            add: 2,
            mul: 18,
            fma: 24,
            neg: 5,
            trig: 3,
            ..OpCounts::default()
        };
        assert_eq!(model_counts::<QArith<16>>(), fixed);
        assert_eq!(model_counts::<QArith<24>>(), fixed);
        let lanes = OpCounts {
            add: 4 * 26,
            mul: 4 * 42,
            neg: 4 * 5,
            trig: 4 * 3,
            ..OpCounts::default()
        };
        assert_eq!(model_counts::<LaneArith<F64Arith, 4>>(), lanes);
    }

    #[test]
    fn fused_model_spends_one_trig_pass_per_angle() {
        let x0 = state(2.0, -1.5, 3.0, 0.0, 0.0);
        let f = Vec3::new([0.8, -0.4, STANDARD_GRAVITY]);
        let xs = *x0.as_array();
        let fb = *f.as_array();
        let mut fused = F64Arith::default();
        let _ = h_and_jacobian_generic(&mut fused, &xs, &fb);
        assert_eq!(fused.counts().trig, 3, "one sin_cos per distinct angle");
        let mut separate = F64Arith::default();
        let _ = h_generic(&mut separate, &xs, &fb);
        let _ = jacobian_generic(&mut separate, &xs, &fb);
        assert_eq!(separate.counts().trig, 9);
        assert!(fused.counts().total() < separate.counts().total());
    }

    #[test]
    fn small_angle_model_close_to_exact() {
        let x = state(0.5, -0.4, 0.8, 0.0, 0.0);
        let f = Vec3::new([1.0, -0.5, STANDARD_GRAVITY]);
        let exact = h(&x, f);
        let approx = h_small_angle(&x, f);
        assert!((exact - approx).max_abs() < 2e-3);
    }
}
