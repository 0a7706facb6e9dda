//! Vehicle pose and velocity (twist) types.

use crate::vector::Vec3;
use std::fmt;

/// Position plus heading of the vehicle in the world frame.
///
/// MAVBench models the MAV as a yaw-controlled point mass (the paper's
/// evaluation never depends on roll/pitch attitude), so a pose is a position
/// in metres plus a yaw angle in radians.
///
/// # Example
///
/// ```
/// use mav_types::{Pose, Vec3};
/// let p = Pose::new(Vec3::new(1.0, 2.0, 3.0), std::f64::consts::FRAC_PI_2);
/// let q = p.translated(Vec3::new(0.0, 0.0, 1.0));
/// assert_eq!(q.position.z, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Position in the world frame, metres.
    pub position: Vec3,
    /// Yaw (heading) in radians, measured counter-clockwise from +X.
    pub yaw: f64,
}

impl Pose {
    /// Creates a pose from a position and yaw.
    pub const fn new(position: Vec3, yaw: f64) -> Self {
        Pose { position, yaw }
    }

    /// Creates a pose at the origin facing +X.
    pub const fn origin() -> Self {
        Pose {
            position: Vec3::ZERO,
            yaw: 0.0,
        }
    }

    /// Returns a copy translated by `delta` (yaw unchanged).
    pub fn translated(&self, delta: Vec3) -> Pose {
        Pose::new(self.position + delta, self.yaw)
    }

    /// Returns a copy with yaw pointing towards `target` (horizontal heading).
    pub fn facing(&self, target: Vec3) -> Pose {
        Pose::new(self.position, (target - self.position).heading())
    }

    /// Unit vector of the current heading in the horizontal plane.
    pub fn heading_vector(&self) -> Vec3 {
        Vec3::new(self.yaw.cos(), self.yaw.sin(), 0.0)
    }

    /// Euclidean distance between the positions of two poses.
    pub fn distance(&self, other: &Pose) -> f64 {
        self.position.distance(&other.position)
    }

    /// Smallest signed yaw difference `other.yaw - self.yaw`, wrapped to
    /// `(-π, π]`.
    pub fn yaw_error(&self, other: &Pose) -> f64 {
        wrap_angle(other.yaw - self.yaw)
    }
}

impl fmt::Display for Pose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pose[{} yaw={:.3}rad]", self.position, self.yaw)
    }
}

/// Linear and angular velocity of the vehicle.
///
/// # Example
///
/// ```
/// use mav_types::{Twist, Vec3};
/// let t = Twist::linear(Vec3::new(3.0, 4.0, 0.0));
/// assert_eq!(t.speed(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Twist {
    /// Linear velocity in the world frame, metres per second.
    pub linear: Vec3,
    /// Yaw rate, radians per second.
    pub yaw_rate: f64,
}

impl Twist {
    /// A twist with zero linear and angular velocity.
    pub const ZERO: Twist = Twist {
        linear: Vec3::ZERO,
        yaw_rate: 0.0,
    };

    /// Creates a twist from linear and angular components.
    pub const fn new(linear: Vec3, yaw_rate: f64) -> Self {
        Twist { linear, yaw_rate }
    }

    /// Creates a purely linear twist.
    pub const fn linear(linear: Vec3) -> Self {
        Twist {
            linear,
            yaw_rate: 0.0,
        }
    }

    /// Magnitude of the linear velocity (speed), metres per second.
    pub fn speed(&self) -> f64 {
        self.linear.norm()
    }

    /// Magnitude of the horizontal velocity, metres per second.
    pub fn horizontal_speed(&self) -> f64 {
        self.linear.norm_xy()
    }
}

impl fmt::Display for Twist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "twist[v={} yaw_rate={:.3}]", self.linear, self.yaw_rate)
    }
}

/// Wraps an angle in radians into the interval `(-π, π]`.
///
/// # Example
///
/// ```
/// use mav_types::pose::wrap_angle;
/// let a = wrap_angle(3.0 * std::f64::consts::PI);
/// assert!((a - std::f64::consts::PI).abs() < 1e-9);
/// ```
pub fn wrap_angle(angle: f64) -> f64 {
    use std::f64::consts::PI;
    let mut a = angle % (2.0 * PI);
    if a <= -PI {
        a += 2.0 * PI;
    } else if a > PI {
        a -= 2.0 * PI;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn pose_translation_and_facing() {
        let p = Pose::origin();
        let q = p.translated(Vec3::new(1.0, 0.0, 2.0));
        assert_eq!(q.position, Vec3::new(1.0, 0.0, 2.0));
        assert_eq!(q.yaw, 0.0);

        let facing = p.facing(Vec3::new(0.0, 5.0, 0.0));
        assert!((facing.yaw - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn heading_vector_is_unit_length() {
        for yaw in [0.0, 0.3, -1.2, PI, -PI + 0.01] {
            let p = Pose::new(Vec3::ZERO, yaw);
            assert!((p.heading_vector().norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pose_distance_and_yaw_error() {
        let a = Pose::new(Vec3::ZERO, 0.1);
        let b = Pose::new(Vec3::new(0.0, 3.0, 4.0), -0.1);
        assert_eq!(a.distance(&b), 5.0);
        assert!((a.yaw_error(&b) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn yaw_error_wraps_across_pi() {
        let a = Pose::new(Vec3::ZERO, PI - 0.1);
        let b = Pose::new(Vec3::ZERO, -PI + 0.1);
        // Shortest way from (π - 0.1) to (-π + 0.1) is +0.2 radians.
        assert!((a.yaw_error(&b) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn twist_speed() {
        let t = Twist::new(Vec3::new(3.0, 0.0, 4.0), 0.5);
        assert_eq!(t.speed(), 5.0);
        assert_eq!(t.horizontal_speed(), 3.0);
        assert_eq!(Twist::ZERO.speed(), 0.0);
    }

    #[test]
    fn wrap_angle_range() {
        for k in -10..10 {
            let a = wrap_angle(0.5 + k as f64 * 2.0 * PI);
            assert!((a - 0.5).abs() < 1e-9);
        }
        assert!(wrap_angle(PI) <= PI);
        assert!(wrap_angle(-PI) > -PI);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Pose::origin()).is_empty());
        assert!(!format!("{}", Twist::ZERO).is_empty());
    }
}
