//! Path tracking / command issue kernel.
//!
//! The control stage samples the planned trajectory at the current mission
//! time and converts it into a velocity command: the trajectory's feedforward
//! velocity plus a proportional correction of the position error, so that
//! small drifts accumulated by the vehicle are continuously corrected (the
//! paper's "path tracking / command issue" kernel).

use mav_dynamics::MavState;
use mav_types::{SimTime, Trajectory, Vec3};
use std::fmt;

/// Proportional gain on the position error, 1/s.
const POSITION_GAIN: f64 = 1.5;
/// Maximum magnitude of the corrective velocity, m/s.
const MAX_CORRECTION: f64 = 3.0;
/// Distance from the final trajectory point at which the plan counts as
/// completed, metres. A plan whose goal already lies this close to the
/// vehicle completes without moving it.
pub const COMPLETION_TOLERANCE: f64 = 0.75;

/// Output of one tracking step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingCommand {
    /// Velocity command to hand to `Quadrotor::step`, m/s.
    pub velocity: Vec3,
    /// Current cross-track (position) error, metres.
    pub cross_track_error: f64,
    /// `true` once the end of the trajectory has been reached.
    pub completed: bool,
}

/// The path-tracking kernel.
///
/// # Example
///
/// ```
/// use mav_control::PathTracker;
/// use mav_dynamics::MavState;
/// use mav_types::{Pose, SimTime, Trajectory, Vec3};
///
/// let traj = Trajectory::from_waypoints(
///     &[Vec3::new(0.0, 0.0, 2.0), Vec3::new(10.0, 0.0, 2.0)],
///     2.0,
///     SimTime::ZERO,
/// );
/// let tracker = PathTracker;
/// let state = MavState::at_rest(Pose::new(Vec3::new(0.0, 0.5, 2.0), 0.0));
/// let cmd = tracker.command(&traj, &state, SimTime::from_secs(1.0));
/// assert!(!cmd.completed);
/// assert!(cmd.velocity.x > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathTracker;

impl PathTracker {
    /// Computes the velocity command for the vehicle at `state` following
    /// `trajectory` at mission time `now`.
    ///
    /// An empty trajectory yields a zero command marked completed.
    pub fn command(
        &self,
        trajectory: &Trajectory,
        state: &MavState,
        now: SimTime,
    ) -> TrackingCommand {
        let Some(reference) = trajectory.sample(now) else {
            return TrackingCommand {
                velocity: Vec3::ZERO,
                cross_track_error: 0.0,
                completed: true,
            };
        };
        let error = reference.position - state.pose.position;
        let cross_track_error = error.norm();
        let correction = (error * POSITION_GAIN).clamp_norm(MAX_CORRECTION);
        let velocity = reference.velocity + correction;
        let completed = match trajectory.last() {
            Some(last) => {
                now >= last.time
                    && state.pose.position.distance(&last.position) <= COMPLETION_TOLERANCE
            }
            None => true,
        };
        TrackingCommand {
            velocity,
            cross_track_error,
            completed,
        }
    }
}

impl fmt::Display for PathTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path-tracker[gain {POSITION_GAIN}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_dynamics::{Quadrotor, QuadrotorConfig};
    use mav_types::Pose;

    fn line_trajectory() -> Trajectory {
        Trajectory::from_waypoints(
            &[Vec3::new(0.0, 0.0, 2.0), Vec3::new(20.0, 0.0, 2.0)],
            4.0,
            SimTime::ZERO,
        )
    }

    #[test]
    fn command_points_along_the_trajectory() {
        let tracker = PathTracker;
        let state = MavState::at_rest(Pose::new(Vec3::new(4.0, 0.0, 2.0), 0.0));
        let cmd = tracker.command(&line_trajectory(), &state, SimTime::from_secs(1.0));
        assert!(cmd.velocity.x > 0.0);
        assert!(!cmd.completed);
    }

    #[test]
    fn lateral_error_produces_corrective_velocity() {
        let tracker = PathTracker;
        // Vehicle displaced 2 m to the left of the reference.
        let state = MavState::at_rest(Pose::new(Vec3::new(4.0, 2.0, 2.0), 0.0));
        let cmd = tracker.command(&line_trajectory(), &state, SimTime::from_secs(1.0));
        assert!(
            cmd.velocity.y < 0.0,
            "correction should pull back towards the path"
        );
        assert!(cmd.cross_track_error > 1.9);
        // Correction magnitude is bounded.
        let huge_offset = MavState::at_rest(Pose::new(Vec3::new(4.0, 100.0, 2.0), 0.0));
        let cmd2 = tracker.command(&line_trajectory(), &huge_offset, SimTime::from_secs(1.0));
        assert!(cmd2.velocity.norm() <= 4.0 + MAX_CORRECTION + 1e-9);
    }

    #[test]
    fn completion_requires_time_and_proximity() {
        let tracker = PathTracker;
        let traj = line_trajectory();
        let end = traj.last().unwrap();
        // At the end time but far away: not complete.
        let far = MavState::at_rest(Pose::new(Vec3::new(5.0, 0.0, 2.0), 0.0));
        assert!(!tracker.command(&traj, &far, end.time).completed);
        // At the end time and at the goal: complete.
        let there = MavState::at_rest(Pose::new(end.position, 0.0));
        assert!(tracker.command(&traj, &there, end.time).completed);
        // Early in time even if already at the goal position: not complete.
        assert!(
            !tracker
                .command(&traj, &there, SimTime::from_secs(0.1))
                .completed
        );
    }

    #[test]
    fn empty_trajectory_is_immediately_complete() {
        let tracker = PathTracker;
        let state = MavState::default();
        let cmd = tracker.command(&Trajectory::new(), &state, SimTime::ZERO);
        assert!(cmd.completed);
        assert_eq!(cmd.velocity, Vec3::ZERO);
    }

    #[test]
    fn closed_loop_follows_the_path() {
        // Integrate the quadrotor under the tracker: the vehicle must arrive
        // at the goal with small cross-track error throughout.
        let tracker = PathTracker;
        let traj = line_trajectory();
        let mut quad = Quadrotor::new(
            QuadrotorConfig::dji_matrice_100(),
            Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0),
        );
        let dt = 0.05;
        let mut now = SimTime::ZERO;
        let mut worst_error: f64 = 0.0;
        for _ in 0..400 {
            let cmd = tracker.command(&traj, quad.state(), now);
            worst_error = worst_error.max(cmd.cross_track_error);
            if cmd.completed {
                break;
            }
            quad.step(cmd.velocity, dt);
            now += mav_types::SimDuration::from_secs(dt);
        }
        let goal = traj.last().unwrap().position;
        assert!(
            quad.state().pose.position.distance(&goal) < 1.5,
            "vehicle ended {} from the goal",
            quad.state().pose.position.distance(&goal)
        );
        assert!(worst_error < 3.0, "worst cross-track error {worst_error}");
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", PathTracker).is_empty());
    }
}
