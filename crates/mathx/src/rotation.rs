//! Rotation representations: Euler angles (aerospace roll/pitch/yaw),
//! direction cosine matrices and unit quaternions.
//!
//! # Conventions
//!
//! Euler angles follow the aerospace ZYX sequence: yaw `psi` about z,
//! then pitch `theta` about the intermediate y, then roll `phi` about
//! the final x. [`EulerAngles::dcm`] returns the matrix `C` such that
//! `v_parent = C * v_rotated` — i.e. `C = Rz(psi) * Ry(theta) * Rx(phi)`
//! maps a vector expressed in the *rotated* (child) frame back into the
//! parent frame. For a sensor misaligned by `e` relative to the vehicle
//! body, `C_bs = e.dcm()` maps sensor-frame vectors to the body frame
//! and its transpose maps body to sensor.

use crate::angle::wrap_pi;
use crate::matrix::Mat3;
use crate::vector::Vec3;

/// Aerospace roll/pitch/yaw Euler angles in radians.
///
/// # Examples
///
/// ```
/// use mathx::EulerAngles;
/// let e = EulerAngles::from_degrees(2.0, -1.0, 3.0);
/// let back = e.dcm().euler();
/// assert!((back.roll - e.roll).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EulerAngles {
    /// Rotation about the x axis, radians.
    pub roll: f64,
    /// Rotation about the y axis, radians.
    pub pitch: f64,
    /// Rotation about the z axis, radians.
    pub yaw: f64,
}

impl EulerAngles {
    /// Creates Euler angles from radians.
    pub const fn new(roll: f64, pitch: f64, yaw: f64) -> Self {
        Self { roll, pitch, yaw }
    }

    /// Creates Euler angles from degrees.
    pub fn from_degrees(roll_deg: f64, pitch_deg: f64, yaw_deg: f64) -> Self {
        Self {
            roll: crate::deg_to_rad(roll_deg),
            pitch: crate::deg_to_rad(pitch_deg),
            yaw: crate::deg_to_rad(yaw_deg),
        }
    }

    /// The zero rotation.
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Components `[roll, pitch, yaw]` as a vector.
    pub fn as_vec3(&self) -> Vec3 {
        Vec3::new([self.roll, self.pitch, self.yaw])
    }

    /// Components in degrees `[roll, pitch, yaw]`.
    pub fn to_degrees(self) -> [f64; 3] {
        [
            crate::rad_to_deg(self.roll),
            crate::rad_to_deg(self.pitch),
            crate::rad_to_deg(self.yaw),
        ]
    }

    /// Direction cosine matrix `C = Rz(yaw) Ry(pitch) Rx(roll)` mapping
    /// rotated-frame vectors into the parent frame.
    pub fn dcm(&self) -> Dcm {
        let (sp, cp) = self.roll.sin_cos();
        let (st, ct) = self.pitch.sin_cos();
        let (ss, cs) = self.yaw.sin_cos();
        Dcm(Mat3::new([
            [cs * ct, cs * st * sp - ss * cp, cs * st * cp + ss * sp],
            [ss * ct, ss * st * sp + cs * cp, ss * st * cp - cs * sp],
            [-st, ct * sp, ct * cp],
        ]))
    }

    /// Quaternion with the same rotation.
    pub fn quaternion(&self) -> Quaternion {
        let (sr, cr) = (self.roll * 0.5).sin_cos();
        let (sp, cp) = (self.pitch * 0.5).sin_cos();
        let (sy, cy) = (self.yaw * 0.5).sin_cos();
        Quaternion::new(
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        )
    }

    /// Angle-wise difference `self - other`, each wrapped to `(-pi, pi]`.
    pub fn error_to(&self, other: &Self) -> Self {
        Self::new(
            wrap_pi(self.roll - other.roll),
            wrap_pi(self.pitch - other.pitch),
            wrap_pi(self.yaw - other.yaw),
        )
    }

    /// The largest absolute component, radians.
    pub fn max_abs(&self) -> f64 {
        self.roll.abs().max(self.pitch.abs()).max(self.yaw.abs())
    }
}

/// A direction cosine matrix (proper orthogonal 3x3 rotation matrix).
///
/// Wraps [`Mat3`] to preserve the orthonormality invariant through the
/// type system: arbitrary matrices cannot be used where rotations are
/// expected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dcm(Mat3);

impl Dcm {
    /// The identity rotation.
    pub fn identity() -> Self {
        Self(Mat3::identity())
    }

    /// Wraps a matrix **without checking orthonormality**. Prefer
    /// [`EulerAngles::dcm`], [`Quaternion::dcm`] or
    /// [`Dcm::from_matrix`].
    pub fn from_matrix_unchecked(m: Mat3) -> Self {
        Self(m)
    }

    /// Wraps a matrix, returning `None` if it is not orthonormal with
    /// positive determinant to within `tol`.
    pub fn from_matrix(m: Mat3, tol: f64) -> Option<Self> {
        let candidate = Self(m);
        if candidate.orthonormality_error() <= tol && m.determinant() > 0.0 {
            Some(candidate)
        } else {
            None
        }
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Mat3 {
        &self.0
    }

    /// Transposed (inverse) rotation.
    pub fn transpose(&self) -> Self {
        Self(self.0.transpose())
    }

    /// Rotates a vector.
    pub fn rotate(&self, v: Vec3) -> Vec3 {
        self.0 * v
    }

    /// Recovers roll/pitch/yaw. At gimbal lock (`|pitch| = 90 deg`)
    /// roll is reported as 0 and yaw carries the full z-x rotation.
    pub fn euler(&self) -> EulerAngles {
        let m = &self.0;
        let sp = -m[(2, 0)];
        if sp.abs() > 1.0 - 1e-12 {
            // Gimbal lock: only yaw +/- roll observable.
            let pitch = if sp > 0.0 {
                std::f64::consts::FRAC_PI_2
            } else {
                -std::f64::consts::FRAC_PI_2
            };
            let yaw = (-m[(0, 1)]).atan2(m[(1, 1)]);
            EulerAngles::new(0.0, pitch, yaw)
        } else {
            EulerAngles::new(
                m[(2, 1)].atan2(m[(2, 2)]),
                sp.asin(),
                m[(1, 0)].atan2(m[(0, 0)]),
            )
        }
    }

    /// Maximum deviation of `C^T C` from the identity.
    pub fn orthonormality_error(&self) -> f64 {
        (self.0.transpose() * self.0 - Mat3::identity()).max_abs()
    }

    /// Re-orthonormalizes with one Gram-Schmidt pass over the rows.
    /// Useful after long chains of composed rotations.
    pub fn orthonormalized(&self) -> Self {
        let r0 = Vec3::new(self.0.as_rows()[0]);
        let r1 = Vec3::new(self.0.as_rows()[1]);
        let u0 = r0.normalized().unwrap_or(Vec3::new([1.0, 0.0, 0.0]));
        let v1 = r1 - u0 * r1.dot(&u0);
        let u1 = v1.normalized().unwrap_or(Vec3::new([0.0, 1.0, 0.0]));
        let u2 = u0.cross(&u1);
        Self(Mat3::new([
            u0.into_array(),
            u1.into_array(),
            u2.into_array(),
        ]))
    }

    /// The skew-symmetric cross-product matrix `[v]_x` with
    /// `[v]_x w = v x w`.
    pub fn skew(v: Vec3) -> Mat3 {
        Mat3::new([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    }

    /// First-order small-angle rotation `I + [e]_x` (maps rotated frame
    /// to parent for small `e = [roll, pitch, yaw]`).
    pub fn small_angle(e: Vec3) -> Self {
        Self(Mat3::identity() + Self::skew(e))
    }
}

impl std::ops::Mul for Dcm {
    type Output = Dcm;

    fn mul(self, rhs: Dcm) -> Dcm {
        Dcm(self.0 * rhs.0)
    }
}

impl std::ops::Mul<Vec3> for Dcm {
    type Output = Vec3;

    fn mul(self, rhs: Vec3) -> Vec3 {
        self.0 * rhs
    }
}

/// A unit quaternion `w + xi + yj + zk` representing a rotation.
///
/// # Examples
///
/// ```
/// use mathx::{EulerAngles, Quaternion, Vec3};
/// let q = EulerAngles::from_degrees(0.0, 0.0, 90.0).quaternion();
/// let v = q.rotate(Vec3::new([1.0, 0.0, 0.0]));
/// assert!((v[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quaternion {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x.
    pub x: f64,
    /// Vector part, y.
    pub y: f64,
    /// Vector part, z.
    pub z: f64,
}

impl Quaternion {
    /// Creates a quaternion from components (not normalized).
    pub const fn new(w: f64, x: f64, y: f64, z: f64) -> Self {
        Self { w, x, y, z }
    }

    /// The identity rotation.
    pub const fn identity() -> Self {
        Self::new(1.0, 0.0, 0.0, 0.0)
    }

    /// Rotation of `angle` radians about `axis` (need not be unit length).
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        let u = axis.normalized().unwrap_or(Vec3::new([0.0, 0.0, 1.0]));
        let (s, c) = (angle * 0.5).sin_cos();
        Self::new(c, u[0] * s, u[1] * s, u[2] * s)
    }

    /// Norm of the 4-vector.
    pub fn norm(&self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Normalized copy. Returns the identity if the norm underflows.
    pub fn normalized(&self) -> Self {
        let n = self.norm();
        if n < 1e-300 {
            Self::identity()
        } else {
            Self::new(self.w / n, self.x / n, self.y / n, self.z / n)
        }
    }

    /// Conjugate (inverse for unit quaternions).
    pub fn conjugate(&self) -> Self {
        Self::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Hamilton product `self * rhs` (apply `rhs` first, then `self`).
    pub fn mul(&self, rhs: &Self) -> Self {
        Self::new(
            self.w * rhs.w - self.x * rhs.x - self.y * rhs.y - self.z * rhs.z,
            self.w * rhs.x + self.x * rhs.w + self.y * rhs.z - self.z * rhs.y,
            self.w * rhs.y - self.x * rhs.z + self.y * rhs.w + self.z * rhs.x,
            self.w * rhs.z + self.x * rhs.y - self.y * rhs.x + self.z * rhs.w,
        )
    }

    /// Rotates a vector (same direction as [`EulerAngles::dcm`]:
    /// rotated frame to parent frame).
    pub fn rotate(&self, v: Vec3) -> Vec3 {
        self.dcm().rotate(v)
    }

    /// Direction cosine matrix equivalent.
    pub fn dcm(&self) -> Dcm {
        let q = self.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        Dcm(Mat3::new([
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        ]))
    }

    /// Euler angles equivalent.
    pub fn euler(&self) -> EulerAngles {
        self.dcm().euler()
    }

    /// Integrates a body angular rate `omega` (rad/s) over `dt` seconds
    /// using the exact exponential map, returning the updated attitude.
    ///
    /// `self` maps body to parent; `omega` is expressed in the body frame.
    pub fn integrate(&self, omega: Vec3, dt: f64) -> Self {
        let angle = omega.norm() * dt;
        let dq = if angle < 1e-12 {
            // Small-angle first-order step avoids 0/0 in the axis.
            let half = omega * (0.5 * dt);
            Quaternion::new(1.0, half[0], half[1], half[2])
        } else {
            Quaternion::from_axis_angle(omega, angle)
        };
        self.mul(&dq).normalized()
    }
}

impl Default for Quaternion {
    fn default() -> Self {
        Self::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deg_to_rad;

    const TOL: f64 = 1e-12;

    #[test]
    fn dcm_pure_rotations() {
        // Pure yaw of +90 deg maps body x to parent y.
        let c = EulerAngles::from_degrees(0.0, 0.0, 90.0).dcm();
        let v = c.rotate(Vec3::new([1.0, 0.0, 0.0]));
        assert!((v - Vec3::new([0.0, 1.0, 0.0])).max_abs() < TOL);

        // Pure pitch of +90 deg maps body x to parent -z.
        let c = EulerAngles::from_degrees(0.0, 90.0, 0.0).dcm();
        let v = c.rotate(Vec3::new([1.0, 0.0, 0.0]));
        assert!((v - Vec3::new([0.0, 0.0, -1.0])).max_abs() < TOL);

        // Pure roll of +90 deg maps body y to parent z.
        let c = EulerAngles::from_degrees(90.0, 0.0, 0.0).dcm();
        let v = c.rotate(Vec3::new([0.0, 1.0, 0.0]));
        assert!((v - Vec3::new([0.0, 0.0, 1.0])).max_abs() < TOL);
    }

    #[test]
    fn euler_dcm_roundtrip() {
        for &(r, p, y) in &[
            (1.0, 2.0, 3.0),
            (-5.0, 10.0, -170.0),
            (45.0, -60.0, 90.0),
            (0.1, 0.2, 0.3),
        ] {
            let e = EulerAngles::from_degrees(r, p, y);
            let back = e.dcm().euler();
            assert!((back.roll - e.roll).abs() < 1e-10, "roll {r} {p} {y}");
            assert!((back.pitch - e.pitch).abs() < 1e-10, "pitch {r} {p} {y}");
            assert!((back.yaw - e.yaw).abs() < 1e-10, "yaw {r} {p} {y}");
        }
    }

    #[test]
    fn dcm_is_orthonormal() {
        let c = EulerAngles::from_degrees(12.0, -34.0, 56.0).dcm();
        assert!(c.orthonormality_error() < 1e-14);
        assert!((c.matrix().determinant() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dcm_inverse_is_transpose() {
        let e = EulerAngles::from_degrees(10.0, 20.0, 30.0);
        let c = e.dcm();
        let prod = c * c.transpose();
        assert!(prod.orthonormality_error() < 1e-14);
        assert!((*prod.matrix() - Mat3::identity()).max_abs() < 1e-14);
    }

    #[test]
    fn quaternion_matches_dcm() {
        let e = EulerAngles::from_degrees(20.0, -15.0, 125.0);
        let cd = e.dcm();
        let cq = e.quaternion().dcm();
        assert!((*cd.matrix() - *cq.matrix()).max_abs() < 1e-12);
    }

    #[test]
    fn quaternion_euler_roundtrip() {
        let e = EulerAngles::from_degrees(-3.0, 7.5, 143.0);
        let back = e.quaternion().euler();
        assert!((back.roll - e.roll).abs() < 1e-10);
        assert!((back.pitch - e.pitch).abs() < 1e-10);
        assert!((back.yaw - e.yaw).abs() < 1e-10);
    }

    #[test]
    fn quaternion_composition_order() {
        // q_total = q_yaw * q_pitch * q_roll matches the ZYX DCM.
        let roll = Quaternion::from_axis_angle(Vec3::new([1.0, 0.0, 0.0]), deg_to_rad(10.0));
        let pitch = Quaternion::from_axis_angle(Vec3::new([0.0, 1.0, 0.0]), deg_to_rad(20.0));
        let yaw = Quaternion::from_axis_angle(Vec3::new([0.0, 0.0, 1.0]), deg_to_rad(30.0));
        let composed = yaw.mul(&pitch).mul(&roll);
        let direct = EulerAngles::from_degrees(10.0, 20.0, 30.0).quaternion();
        let d = (*composed.dcm().matrix() - *direct.dcm().matrix()).max_abs();
        assert!(d < 1e-12);
    }

    #[test]
    fn gimbal_lock_recovery() {
        let e = EulerAngles::from_degrees(0.0, 90.0, 30.0);
        let back = e.dcm().euler();
        // Pitch must be exactly +/-90; the yaw-roll combination must
        // reproduce the same rotation.
        assert!((back.pitch - e.pitch).abs() < 1e-9);
        let d = (*back.dcm().matrix() - *e.dcm().matrix()).max_abs();
        assert!(d < 1e-9);
    }

    #[test]
    fn integrate_constant_rate() {
        // 90 deg/s about z for 1 s.
        let omega = Vec3::new([0.0, 0.0, deg_to_rad(90.0)]);
        let mut q = Quaternion::identity();
        let dt = 1e-3;
        for _ in 0..1000 {
            q = q.integrate(omega, dt);
        }
        let e = q.euler();
        assert!((e.yaw - deg_to_rad(90.0)).abs() < 1e-6, "yaw {}", e.yaw);
        assert!(e.roll.abs() < 1e-9);
    }

    #[test]
    fn integrate_zero_rate_is_identity() {
        let q = Quaternion::identity().integrate(Vec3::zeros(), 0.01);
        assert!((q.w - 1.0).abs() < 1e-15);
    }

    #[test]
    fn skew_matches_cross() {
        let a = Vec3::new([1.0, -2.0, 0.5]);
        let b = Vec3::new([0.3, 4.0, -1.0]);
        let via_skew = Dcm::skew(a) * b;
        assert!((via_skew - a.cross(&b)).max_abs() < 1e-15);
    }

    #[test]
    fn small_angle_matches_exact_to_first_order() {
        let e = Vec3::new([0.01, -0.005, 0.02]);
        let exact = EulerAngles::new(e[0], e[1], e[2]).dcm();
        let approx = Dcm::small_angle(e);
        // Error is second order: ~|e|^2.
        assert!((*exact.matrix() - *approx.matrix()).max_abs() < 3e-4);
    }

    #[test]
    fn orthonormalize_repairs_drift() {
        let c = EulerAngles::from_degrees(5.0, 6.0, 7.0).dcm();
        let drifted = Dcm::from_matrix_unchecked(*c.matrix() * 1.001);
        assert!(drifted.orthonormality_error() > 1e-3);
        let repaired = drifted.orthonormalized();
        assert!(repaired.orthonormality_error() < 1e-12);
    }

    #[test]
    fn from_matrix_validation() {
        let good = EulerAngles::from_degrees(1.0, 2.0, 3.0).dcm();
        assert!(Dcm::from_matrix(*good.matrix(), 1e-9).is_some());
        assert!(Dcm::from_matrix(*good.matrix() * 2.0, 1e-9).is_none());
        // Reflection: orthonormal but det = -1.
        let refl = Mat3::from_diagonal(Vec3::new([1.0, 1.0, -1.0]));
        assert!(Dcm::from_matrix(refl, 1e-9).is_none());
    }

    #[test]
    fn error_to_wraps() {
        let a = EulerAngles::new(0.0, 0.0, 3.1);
        let b = EulerAngles::new(0.0, 0.0, -3.1);
        let e = a.error_to(&b);
        assert!(e.yaw.abs() < 0.1 + 1e-12); // wraps through pi
    }
}
