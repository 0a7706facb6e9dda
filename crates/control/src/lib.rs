//! Control kernels for MAVBench-RS: a PID controller and the path-tracking /
//! command-issue kernel that converts planned trajectories into velocity
//! commands for the quadrotor model.
//!
//! # Example
//!
//! ```
//! use mav_control::PathTracker;
//! use mav_dynamics::MavState;
//! use mav_types::{SimTime, Trajectory, Vec3};
//!
//! let traj = Trajectory::from_waypoints(&[Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0)], 1.0, SimTime::ZERO);
//! let tracker = PathTracker;
//! let cmd = tracker.command(&traj, &MavState::default(), SimTime::from_secs(1.0));
//! assert!(cmd.velocity.x > 0.0);
//! ```

#![warn(missing_docs)]

pub mod pid;
pub mod tracker;

pub use pid::{Pid, PidConfig};
pub use tracker::{PathTracker, TrackingCommand, COMPLETION_TOLERANCE};
