//! Companion-computer latency and placement model for MAVBench-RS.
//!
//! The original MAVBench runs its kernels on a physical NVIDIA TX2 and sweeps
//! core count and clock frequency. This crate substitutes an analytic model
//! calibrated from the paper's Table I: each kernel has a reference runtime at
//! 4 cores / 2.2 GHz and a parallel fraction, and its latency at any other
//! operating point follows linear frequency scaling on the critical path plus
//! Amdahl scaling across cores. A cloud-offload configuration reproduces the
//! paper's sensor-cloud case study.
//!
//! # Example
//!
//! ```
//! use mav_compute::{ApplicationId, ComputePlatform, OperatingPoint};
//!
//! let platform = ComputePlatform::tx2(ApplicationId::Mapping3D, OperatingPoint::reference());
//! // Frontier exploration dominates the planning latency of 3D Mapping.
//! assert!(platform.planning_latency().as_secs() > 2.0);
//! ```

#![warn(missing_docs)]

pub mod kernel;
pub mod operating_point;
pub mod platform;
pub mod profiles;

pub use kernel::{KernelId, KernelProfile, PipelineStage};
pub use operating_point::OperatingPoint;
pub use platform::{CloudConfig, ComputePlatform, NetworkLink};
pub use profiles::{table1_profile, ApplicationId, ApplicationProfile};
