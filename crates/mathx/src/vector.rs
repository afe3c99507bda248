//! Const-generic fixed-size vectors.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A fixed-size column vector of `N` components.
///
/// # Examples
///
/// ```
/// use mathx::Vector;
/// let v = Vector::new([3.0, 4.0]);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Vector<const N: usize> {
    data: [f64; N],
}

/// Two-component vector (image plane, 2-axis accelerometer).
pub type Vec2 = Vector<2>;
/// Three-component vector (body axes, angular rates, specific force).
pub type Vec3 = Vector<3>;

impl<const N: usize> Vector<N> {
    /// Creates a vector from its components.
    pub const fn new(data: [f64; N]) -> Self {
        Self { data }
    }

    /// The zero vector.
    pub const fn zeros() -> Self {
        Self { data: [0.0; N] }
    }

    /// A vector with every component equal to `value`.
    pub const fn splat(value: f64) -> Self {
        Self { data: [value; N] }
    }

    /// Borrows the underlying array.
    pub fn as_array(&self) -> &[f64; N] {
        &self.data
    }

    /// Consumes the vector, returning the underlying array.
    pub fn into_array(self) -> [f64; N] {
        self.data
    }

    /// Dot product with another vector.
    pub fn dot(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..N {
            acc += self.data[i] * other.data[i];
        }
        acc
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (avoids the square root).
    pub fn norm_squared(&self) -> f64 {
        self.dot(self)
    }

    /// Returns the unit vector in the same direction, or `None` for the
    /// zero vector (to within `1e-300`).
    pub fn normalized(&self) -> Option<Self> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(*self / n)
        }
    }

    /// Component-wise absolute value.
    pub fn abs(&self) -> Self {
        let mut out = self.data;
        for x in &mut out {
            *x = x.abs();
        }
        Self::new(out)
    }

    /// The largest absolute component (infinity norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Applies `f` to every component.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Self {
        let mut out = self.data;
        for x in &mut out {
            *x = f(*x);
        }
        Self::new(out)
    }

    /// Iterator over the components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// `true` if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Vec3 {
    /// Cross product (right-handed).
    ///
    /// ```
    /// use mathx::Vec3;
    /// let x = Vec3::new([1.0, 0.0, 0.0]);
    /// let y = Vec3::new([0.0, 1.0, 0.0]);
    /// assert_eq!(x.cross(&y), Vec3::new([0.0, 0.0, 1.0]));
    /// ```
    pub fn cross(&self, other: &Self) -> Self {
        let a = &self.data;
        let b = &other.data;
        Self::new([
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ])
    }

    /// X component.
    pub fn x(&self) -> f64 {
        self.data[0]
    }

    /// Y component.
    pub fn y(&self) -> f64 {
        self.data[1]
    }

    /// Z component.
    pub fn z(&self) -> f64 {
        self.data[2]
    }

    /// Projects onto the x-y plane, dropping z.
    pub fn xy(&self) -> Vec2 {
        Vec2::new([self.data[0], self.data[1]])
    }
}

impl Vec2 {
    /// X component.
    pub fn x(&self) -> f64 {
        self.data[0]
    }

    /// Y component.
    pub fn y(&self) -> f64 {
        self.data[1]
    }
}

impl<const N: usize> Default for Vector<N> {
    fn default() -> Self {
        Self::zeros()
    }
}

impl<const N: usize> From<[f64; N]> for Vector<N> {
    fn from(data: [f64; N]) -> Self {
        Self { data }
    }
}

impl<const N: usize> From<Vector<N>> for [f64; N] {
    fn from(v: Vector<N>) -> Self {
        v.data
    }
}

impl<const N: usize> Index<usize> for Vector<N> {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl<const N: usize> IndexMut<usize> for Vector<N> {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl<const N: usize> Add for Vector<N> {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        let mut out = self.data;
        for i in 0..N {
            out[i] += rhs.data[i];
        }
        Self::new(out)
    }
}

impl<const N: usize> AddAssign for Vector<N> {
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..N {
            self.data[i] += rhs.data[i];
        }
    }
}

impl<const N: usize> Sub for Vector<N> {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        let mut out = self.data;
        for i in 0..N {
            out[i] -= rhs.data[i];
        }
        Self::new(out)
    }
}

impl<const N: usize> SubAssign for Vector<N> {
    fn sub_assign(&mut self, rhs: Self) {
        for i in 0..N {
            self.data[i] -= rhs.data[i];
        }
    }
}

impl<const N: usize> Neg for Vector<N> {
    type Output = Self;

    fn neg(self) -> Self {
        self.map(|x| -x)
    }
}

impl<const N: usize> Mul<f64> for Vector<N> {
    type Output = Self;

    fn mul(self, rhs: f64) -> Self {
        self.map(|x| x * rhs)
    }
}

impl<const N: usize> Mul<Vector<N>> for f64 {
    type Output = Vector<N>;

    fn mul(self, rhs: Vector<N>) -> Vector<N> {
        rhs * self
    }
}

impl<const N: usize> Div<f64> for Vector<N> {
    type Output = Self;

    fn div(self, rhs: f64) -> Self {
        self.map(|x| x / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Vector::new([1.0, 2.0, 3.0]);
        let b = Vector::new([0.5, -1.0, 4.0]);
        assert_eq!(a + b - b, a);
    }

    #[test]
    fn dot_and_norm() {
        let v = Vector::new([3.0, 4.0]);
        assert_eq!(v.dot(&v), 25.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_squared(), 25.0);
    }

    #[test]
    fn cross_right_handed() {
        let x = Vec3::new([1.0, 0.0, 0.0]);
        let y = Vec3::new([0.0, 1.0, 0.0]);
        let z = Vec3::new([0.0, 0.0, 1.0]);
        assert_eq!(x.cross(&y), z);
        assert_eq!(y.cross(&z), x);
        assert_eq!(z.cross(&x), y);
        assert_eq!(y.cross(&x), -z);
    }

    #[test]
    fn cross_is_perpendicular() {
        let a = Vec3::new([1.0, 2.0, 3.0]);
        let b = Vec3::new([-4.0, 0.5, 2.0]);
        let c = a.cross(&b);
        assert!(c.dot(&a).abs() < 1e-12);
        assert!(c.dot(&b).abs() < 1e-12);
    }

    #[test]
    fn normalized_unit_norm() {
        let v = Vector::new([1.0, 1.0, 1.0, 1.0]);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert!(Vector::<3>::zeros().normalized().is_none());
    }

    #[test]
    fn scalar_ops() {
        let v = Vector::new([2.0, -4.0]);
        assert_eq!(v * 0.5, Vector::new([1.0, -2.0]));
        assert_eq!(0.5 * v, Vector::new([1.0, -2.0]));
        assert_eq!(v / 2.0, Vector::new([1.0, -2.0]));
        assert_eq!(-v, Vector::new([-2.0, 4.0]));
    }

    #[test]
    fn component_access() {
        let mut v = Vec3::new([1.0, 2.0, 3.0]);
        assert_eq!((v.x(), v.y(), v.z()), (1.0, 2.0, 3.0));
        v[1] = 9.0;
        assert_eq!(v[1], 9.0);
        assert_eq!(v.xy(), Vec2::new([1.0, 9.0]));
    }

    #[test]
    fn max_abs_and_abs() {
        let v = Vector::new([-3.0, 2.0, 0.0]);
        assert_eq!(v.max_abs(), 3.0);
        assert_eq!(v.abs(), Vector::new([3.0, 2.0, 0.0]));
    }

    #[test]
    fn finite_detection() {
        assert!(Vec3::new([1.0, 2.0, 3.0]).is_finite());
        assert!(!Vec3::new([1.0, f64::NAN, 3.0]).is_finite());
        assert!(!Vec3::new([f64::INFINITY, 0.0, 0.0]).is_finite());
    }

    #[test]
    fn conversions() {
        let arr = [1.0, 2.0];
        let v: Vec2 = arr.into();
        let back: [f64; 2] = v.into();
        assert_eq!(arr, back);
        assert_eq!(v.as_array(), &arr);
    }
}
