//! Quadrotor dynamics for MAVBench-RS.
//!
//! This crate is the stand-in for AirSim's vehicle model: a point-mass
//! quadrotor with velocity/acceleration limits that tracks the velocity
//! commands the control kernels issue.
//!
//! # Example
//!
//! ```
//! use mav_dynamics::{Quadrotor, QuadrotorConfig};
//! use mav_types::{Pose, Vec3};
//!
//! let mut quad = Quadrotor::new(QuadrotorConfig::dji_matrice_100(), Pose::origin());
//! for _ in 0..40 { quad.step(Vec3::new(0.0, 0.0, 2.0), 0.05); }
//! assert!(quad.state().pose.position.z > 3.0);
//! ```

#![warn(missing_docs)]

pub mod quadrotor;
pub mod state;

pub use quadrotor::{Quadrotor, QuadrotorConfig};
pub use state::MavState;
