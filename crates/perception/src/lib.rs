//! Perception kernels for MAVBench-RS: point-cloud generation, the OctoMap
//! probabilistic occupancy octree, object detection, target tracking and
//! localization (a visual-SLAM model).
//!
//! These are the Rust substitutes for the kernels the original MAVBench wires
//! together from OctoMap, YOLO/HOG, KCF and ORB-SLAM2/VINS-Mono. Each kernel
//! exposes the knobs the paper's case studies turn: OctoMap resolution, the
//! detector family, depth-noise susceptibility and the SLAM frame rate.
//!
//! # Example
//!
//! ```
//! use mav_perception::{OctoMap, Occupancy, PointCloud};
//! use mav_types::Vec3;
//!
//! let mut map = OctoMap::new(0.5, 32.0);
//! let cloud = PointCloud::new(Vec3::new(0.0, 0.0, 1.0), vec![Vec3::new(6.0, 0.0, 1.0)]);
//! map.insert_point_cloud(&cloud);
//! assert_eq!(map.query(&Vec3::new(6.0, 0.0, 1.0)), Occupancy::Occupied);
//! ```

#![warn(missing_docs)]

pub mod detection;
pub mod localization;
pub mod octomap;
pub mod pointcloud;
pub mod tracking;
mod voxel_hash;

pub use detection::{Detection, DetectorConfig, DetectorKind, ObjectDetector};
pub use localization::{SlamConfig, VisualSlam};
pub use octomap::{Occupancy, OctoMap};
pub use pointcloud::{DownsampleScratch, PointCloud};
pub use tracking::{MultiTargetTracker, TargetTracker, TrackState};
