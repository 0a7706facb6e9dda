//! MAVBench-RS — a Rust reproduction of "MAVBench: Micro Aerial Vehicle
//! Benchmarking" (MICRO 2018): a closed-loop MAV simulator plus the five
//! end-to-end benchmark applications and the experiment harnesses that
//! regenerate every table and figure of the paper's evaluation.
//!
//! This facade crate re-exports the individual workspace crates under short
//! module names so applications can depend on a single crate.
//!
//! # Example
//!
//! ```no_run
//! use mavbench::compute::ApplicationId;
//! use mavbench::core::{run_mission, MissionConfig};
//!
//! let report = run_mission(MissionConfig::fast_test(ApplicationId::PackageDelivery));
//! println!("{report}");
//! ```

#![warn(missing_docs)]

/// Companion-computer latency model and operating points.
pub use mav_compute as compute;
/// Control kernels (PID, path tracking).
pub use mav_control as control;
/// The closed-loop simulator, the five applications and the experiments.
pub use mav_core as core;
/// Point-mass quadrotor dynamics.
pub use mav_dynamics as dynamics;
/// Rotor/compute power models and the battery.
pub use mav_energy as energy;
/// Procedural environments and obstacles.
pub use mav_env as env;
/// Perception kernels (point cloud, OctoMap, detection, tracking, SLAM).
pub use mav_perception as perception;
/// Planning kernels (RRT, PRM+A*, frontier, lawnmower, smoothing).
pub use mav_planning as planning;
/// Pub/sub runtime, clock and kernel timing.
pub use mav_runtime as runtime;
/// Depth camera and depth-noise model.
pub use mav_sensors as sensors;
/// Geometry, pose, trajectory and unit types.
pub use mav_types as types;
