//! Sensor models for MAVBench-RS: the RGB-D depth camera and the depth-noise
//! model of the paper's reliability case study.
//!
//! # Example
//!
//! ```
//! use mav_env::EnvironmentConfig;
//! use mav_sensors::{DepthCamera, DepthNoiseModel};
//! use mav_types::{Pose, Vec3};
//!
//! let world = EnvironmentConfig::urban_outdoor().with_seed(1).generate();
//! let camera = DepthCamera::default();
//! let mut frame = camera.capture(&world, &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
//! let mut noise = DepthNoiseModel::new(0.5, 42);
//! noise.apply(&mut frame);
//! assert!(frame.coverage() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod depth_camera;
pub mod noise;

pub use depth_camera::{DepthCamera, DepthCameraConfig, DepthImage};
pub use noise::DepthNoiseModel;
