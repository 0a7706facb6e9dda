//! MAVBench-RS core: the closed-loop micro-aerial-vehicle benchmark simulator
//! and the five end-to-end benchmark applications (Scanning, Aerial
//! Photography, Package Delivery, 3D Mapping, Search and Rescue).
//!
//! The crate ties every substrate together: procedural environments
//! (`mav-env`), sensors (`mav-sensors`), the quadrotor model
//! (`mav-dynamics`), the rotor/compute/battery energy models (`mav-energy`),
//! the Table-I-calibrated compute-latency model (`mav-compute`) and the
//! perception/planning/control kernels (`mav-perception`, `mav-planning`,
//! `mav-control`). A mission is configured with [`MissionConfig`], run with
//! [`run_mission`], and summarised in a [`MissionReport`] carrying the
//! quality-of-flight metrics of the paper.
//!
//! # Example
//!
//! ```no_run
//! use mav_compute::ApplicationId;
//! use mav_core::{run_mission, MissionConfig};
//!
//! let report = run_mission(MissionConfig::fast_test(ApplicationId::PackageDelivery));
//! println!("mission time: {:.1} s, energy: {:.1} kJ", report.mission_time_secs, report.energy_kj());
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod config;
pub mod context;
pub mod experiments;
pub mod faults;
pub mod flight;
pub mod microbench;
pub mod qof;
pub mod reliability;
pub mod scratch;
pub mod sweep;
pub mod velocity;

pub use apps::{run_mission, run_mission_with_scratch};
pub use config::{
    BrakePolicy, DegradationConfig, MissionConfig, NodeOpConfig, RateConfig, ReplanMode,
    ResolutionPolicy,
};
pub use context::{FlightOutcome, MissionContext};
pub use faults::{DegradedMode, DegradedSummary, FaultInjector, FaultPlan, FaultSpec};
pub use flight::{FlightCtx, FlightEvent};
pub use mav_runtime::{ExecModel, ExecStage};
pub use qof::{MissionFailure, MissionReport};
pub use reliability::{
    ClassStats, FaultGridCell, ReliabilityStats, ScenarioGenerator, StreamingHistogram,
};
pub use scratch::{with_episode_scratch, EpisodeScratch};
pub use sweep::{SweepOutcome, SweepPoint, SweepReport, SweepRunner};
