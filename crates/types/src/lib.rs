//! Core geometry, pose, trajectory and unit types shared by every MAVBench-RS crate.
//!
//! This crate is the bottom of the dependency graph: it defines the vocabulary
//! used by the environment, sensor, dynamics, energy, compute, perception,
//! planning, control and application crates. Everything here is plain data —
//! no simulation logic lives in this crate.
//!
//! # Example
//!
//! ```
//! use mav_types::{Vec3, Pose, Trajectory, TrajectoryPoint, SimTime};
//!
//! let start = Pose::new(Vec3::new(0.0, 0.0, 1.0), 0.0);
//! let goal = Vec3::new(10.0, 5.0, 1.0);
//! let mut traj = Trajectory::new();
//! traj.push(TrajectoryPoint::stationary(start.position, SimTime::ZERO));
//! traj.push(TrajectoryPoint::stationary(goal, SimTime::from_secs(4.0)));
//! assert_eq!(traj.len(), 2);
//! assert!(traj.length() > 11.0);
//! ```

#![warn(missing_docs)]

pub mod aabb;
pub mod error;
pub mod grid;
pub mod hash;
pub mod json;
pub mod pose;
pub mod spatial;
pub mod time;
pub mod trajectory;
pub mod units;
pub mod vector;

pub use aabb::{Aabb, SlabRay};
pub use error::{MavError, Result};
pub use grid::{GridIndex, GridSpec};
pub use hash::sha256_hex;
pub use json::{FromJson, Json, ToJson};
pub use pose::{Pose, Twist};
pub use spatial::PointGrid;
pub use time::{SimDuration, SimTime};
pub use trajectory::{Trajectory, TrajectoryPoint};
pub use units::{Energy, Frequency, Power};
pub use vector::Vec3;
