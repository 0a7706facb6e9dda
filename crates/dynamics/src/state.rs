//! Vehicle kinematic state.

use mav_types::{Pose, Twist, Vec3};
use std::fmt;

/// Full kinematic state of the simulated MAV.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MavState {
    /// Position and heading.
    pub pose: Pose,
    /// Linear and angular velocity.
    pub twist: Twist,
    /// Current linear acceleration, m/s².
    pub acceleration: Vec3,
}

impl MavState {
    /// Creates a state at rest at the given pose.
    pub fn at_rest(pose: Pose) -> Self {
        MavState {
            pose,
            twist: Twist::ZERO,
            acceleration: Vec3::ZERO,
        }
    }

    /// Current speed in m/s.
    pub fn speed(&self) -> f64 {
        self.twist.speed()
    }

    /// Current horizontal speed in m/s.
    pub fn horizontal_speed(&self) -> f64 {
        self.twist.horizontal_speed()
    }

    /// Returns `true` when the vehicle is (numerically) stationary.
    pub fn is_stationary(&self) -> bool {
        self.speed() < 1e-3
    }
}

impl fmt::Display for MavState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state[{} v={:.2} m/s]", self.pose, self.speed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_rest_is_stationary() {
        let s = MavState::at_rest(Pose::new(Vec3::new(1.0, 2.0, 3.0), 0.5));
        assert!(s.is_stationary());
        assert_eq!(s.speed(), 0.0);
        assert_eq!(s.pose.position.z, 3.0);
    }

    #[test]
    fn speed_reflects_twist() {
        let s = MavState {
            twist: Twist::linear(Vec3::new(3.0, 4.0, 0.0)),
            ..MavState::default()
        };
        assert_eq!(s.speed(), 5.0);
        assert_eq!(s.horizontal_speed(), 5.0);
        assert!(!s.is_stationary());
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", MavState::default()).is_empty());
    }
}
