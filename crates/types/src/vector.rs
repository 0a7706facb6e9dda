//! Three-dimensional vectors used for positions, velocities and accelerations.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub, SubAssign};

/// A three-dimensional vector of `f64` components.
///
/// `Vec3` is used throughout MAVBench-RS for positions (metres), velocities
/// (metres per second), accelerations (metres per second squared) and
/// generic directions. It intentionally carries no unit information; unit
/// newtypes in [`crate::units`] wrap scalars where confusion is likely.
///
/// # Example
///
/// ```
/// use mav_types::Vec3;
/// let a = Vec3::new(1.0, 2.0, 2.0);
/// assert_eq!(a.norm(), 3.0);
/// assert_eq!(a.normalized().norm(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (forward / east, metres in world frame).
    pub x: f64,
    /// Y component (left / north, metres in world frame).
    pub y: f64,
    /// Z component (up, metres in world frame).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along X.
    pub const UNIT_X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along Y.
    pub const UNIT_Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along Z.
    pub const UNIT_Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector whose three components all equal `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Euclidean norm (length) of the vector.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean norm; cheaper than [`Vec3::norm`] when only
    /// comparisons are needed.
    #[inline]
    pub fn norm_squared(&self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Norm of the horizontal (x, y) components only. The MAV energy model
    /// (paper Eq. 1) treats horizontal and vertical motion separately.
    #[inline]
    pub fn norm_xy(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Returns the horizontal projection `(x, y, 0)`.
    #[inline]
    pub fn horizontal(&self) -> Vec3 {
        Vec3::new(self.x, self.y, 0.0)
    }

    /// Returns the vertical projection `(0, 0, z)`.
    #[inline]
    pub fn vertical(&self) -> Vec3 {
        Vec3::new(0.0, 0.0, self.z)
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(&self, other: &Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Vec3) -> f64 {
        (*self - *other).norm()
    }

    /// Squared Euclidean distance to another point.
    #[inline]
    pub fn distance_squared(&self, other: &Vec3) -> f64 {
        (*self - *other).norm_squared()
    }

    /// Returns the unit vector pointing in the same direction.
    ///
    /// Returns [`Vec3::ZERO`] when the vector's norm is (numerically) zero, so
    /// the result is always finite.
    #[inline]
    pub fn normalized(&self) -> Vec3 {
        let n = self.norm();
        if n <= f64::EPSILON {
            Vec3::ZERO
        } else {
            *self / n
        }
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    ///
    /// `t` is not clamped; values outside `[0, 1]` extrapolate.
    #[inline]
    pub fn lerp(&self, other: &Vec3, t: f64) -> Vec3 {
        *self + (*other - *self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: &Vec3) -> Vec3 {
        Vec3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: &Vec3) -> Vec3 {
        Vec3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Clamps each component into `[lo, hi]` component-wise.
    #[inline]
    pub fn clamp(&self, lo: &Vec3, hi: &Vec3) -> Vec3 {
        self.max(lo).min(hi)
    }

    /// Clamps the vector's norm to at most `max_norm`, preserving direction.
    ///
    /// Used to enforce velocity and acceleration limits in the dynamics and
    /// control crates.
    #[inline]
    pub fn clamp_norm(&self, max_norm: f64) -> Vec3 {
        let n = self.norm();
        if n > max_norm && n > f64::EPSILON {
            *self * (max_norm / n)
        } else {
            *self
        }
    }

    /// Returns `true` if all components are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Heading (yaw) of the horizontal projection, in radians, in `(-π, π]`.
    ///
    /// Returns `0.0` for a vector with no horizontal component.
    #[inline]
    pub fn heading(&self) -> f64 {
        if self.norm_xy() <= f64::EPSILON {
            0.0
        } else {
            self.y.atan2(self.x)
        }
    }

    /// Returns the component along axis index 0 (x), 1 (y) or 2 (z).
    ///
    /// # Panics
    ///
    /// Panics if `axis > 2`.
    #[inline]
    pub fn axis(&self, axis: usize) -> f64 {
        self[axis]
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 axis index out of range: {index}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(v: [f64; 3]) -> Self {
        Vec3::new(v[0], v[1], v[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Vec3::new(1.0, -2.0, 3.0);
        let b = Vec3::new(0.5, 4.0, -1.0);
        assert_eq!(a + Vec3::ZERO, a);
        assert_eq!(a - a, Vec3::ZERO);
        assert_eq!(a + b, b + a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
    }

    #[test]
    fn norms_and_distance() {
        let a = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_squared(), 25.0);
        assert_eq!(a.norm_xy(), 5.0);
        assert_eq!(Vec3::new(3.0, 4.0, 12.0).norm(), 13.0);
        assert_eq!(a.distance(&Vec3::ZERO), 5.0);
        assert_eq!(a.distance_squared(&Vec3::ZERO), 25.0);
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::UNIT_X;
        let y = Vec3::UNIT_Y;
        assert_eq!(x.dot(&y), 0.0);
        assert_eq!(x.cross(&y), Vec3::UNIT_Z);
        assert_eq!(y.cross(&x), -Vec3::UNIT_Z);
        let a = Vec3::new(1.0, 2.0, 3.0);
        assert!((a.cross(&a)).norm() < 1e-12);
    }

    #[test]
    fn normalization_handles_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let v = Vec3::new(0.0, 0.0, 7.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(10.0, -4.0, 2.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Vec3::new(5.0, -2.0, 1.0));
    }

    #[test]
    fn clamp_norm_preserves_direction() {
        let v = Vec3::new(6.0, 8.0, 0.0);
        let c = v.clamp_norm(5.0);
        assert!((c.norm() - 5.0).abs() < 1e-12);
        assert!((c.normalized() - v.normalized()).norm() < 1e-12);
        // Below the limit the vector is untouched.
        assert_eq!(v.clamp_norm(100.0), v);
    }

    #[test]
    fn heading_matches_atan2() {
        assert_eq!(Vec3::UNIT_X.heading(), 0.0);
        assert!((Vec3::UNIT_Y.heading() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(Vec3::UNIT_Z.heading(), 0.0);
    }

    #[test]
    fn component_minmax_and_clamp() {
        let a = Vec3::new(1.0, 5.0, -3.0);
        let b = Vec3::new(2.0, 4.0, -4.0);
        assert_eq!(a.min(&b), Vec3::new(1.0, 4.0, -4.0));
        assert_eq!(a.max(&b), Vec3::new(2.0, 5.0, -3.0));
        let lo = Vec3::splat(-1.0);
        let hi = Vec3::splat(1.0);
        assert_eq!(a.clamp(&lo, &hi), Vec3::new(1.0, 1.0, -1.0));
    }

    #[test]
    fn indexing_and_conversions() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(a[0], 1.0);
        assert_eq!(a[1], 2.0);
        assert_eq!(a[2], 3.0);
        let arr: [f64; 3] = a.into();
        assert_eq!(Vec3::from(arr), a);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec3::ZERO).is_empty());
        assert!(!format!("{:?}", Vec3::ZERO).is_empty());
    }
}
