//! Computational kernels and their latency profiles.
//!
//! Each MAVBench kernel (object detection, OctoMap generation, motion
//! planning, …) is described by a [`KernelProfile`]: its measured runtime at
//! the reference operating point (the paper's Table I, taken at 4 cores /
//! 2.2 GHz) plus a parallel fraction. Runtime at any other operating point is
//! derived by scaling the critical path linearly with clock frequency and the
//! parallel portion with core count (Amdahl's law).

use crate::operating_point::OperatingPoint;
use mav_types::SimDuration;
use std::fmt;

/// The computational kernels that make up the MAVBench workloads (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum KernelId {
    /// YOLO/HOG-style object detection (perception).
    ObjectDetection,
    /// Buffered KCF-style tracking (perception).
    TrackingBuffered,
    /// Real-time KCF-style tracking (perception).
    TrackingRealTime,
    /// GPS / visual-SLAM localization (perception).
    Localization,
    /// Depth image to point cloud conversion (perception).
    PointCloudGeneration,
    /// OctoMap occupancy-map update (perception).
    OctomapGeneration,
    /// Collision checking of a candidate trajectory (planning).
    CollisionCheck,
    /// Sampling-based shortest-path motion planning, RRT/PRM+A* (planning).
    MotionPlanning,
    /// Frontier-exploration / next-best-view planning (planning).
    FrontierExploration,
    /// Lawnmower coverage planning (planning).
    LawnmowerPlanning,
    /// Trajectory smoothing (planning).
    PathSmoothing,
    /// PID target-following controller (planning/control for photography).
    PidControl,
    /// Path tracking / command issue (control).
    PathTracking,
}

impl KernelId {
    /// Every kernel, in a stable order.
    pub fn all() -> &'static [KernelId] {
        &[
            KernelId::ObjectDetection,
            KernelId::TrackingBuffered,
            KernelId::TrackingRealTime,
            KernelId::Localization,
            KernelId::PointCloudGeneration,
            KernelId::OctomapGeneration,
            KernelId::CollisionCheck,
            KernelId::MotionPlanning,
            KernelId::FrontierExploration,
            KernelId::LawnmowerPlanning,
            KernelId::PathSmoothing,
            KernelId::PidControl,
            KernelId::PathTracking,
        ]
    }

    /// The pipeline stage (perception / planning / control) the kernel belongs
    /// to, as in the paper's Fig. 5.
    pub fn stage(&self) -> PipelineStage {
        match self {
            KernelId::ObjectDetection
            | KernelId::TrackingBuffered
            | KernelId::TrackingRealTime
            | KernelId::Localization
            | KernelId::PointCloudGeneration
            | KernelId::OctomapGeneration => PipelineStage::Perception,
            KernelId::CollisionCheck
            | KernelId::MotionPlanning
            | KernelId::FrontierExploration
            | KernelId::LawnmowerPlanning
            | KernelId::PathSmoothing
            | KernelId::PidControl => PipelineStage::Planning,
            KernelId::PathTracking => PipelineStage::Control,
        }
    }

    /// Short name used in tables.
    pub fn short_name(&self) -> &'static str {
        match self {
            KernelId::ObjectDetection => "OD",
            KernelId::TrackingBuffered => "Track-B",
            KernelId::TrackingRealTime => "Track-RT",
            KernelId::Localization => "Loc",
            KernelId::PointCloudGeneration => "PCL",
            KernelId::OctomapGeneration => "OMG",
            KernelId::CollisionCheck => "CC",
            KernelId::MotionPlanning => "MP",
            KernelId::FrontierExploration => "FE",
            KernelId::LawnmowerPlanning => "LM",
            KernelId::PathSmoothing => "Smooth",
            KernelId::PidControl => "PID",
            KernelId::PathTracking => "PT",
        }
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

impl mav_types::ToJson for KernelId {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::String(self.short_name().to_string())
    }
}

impl mav_types::FromJson for KernelId {
    /// Parses the [`KernelId::short_name`] spelling (`"MP"`, `"OMG"`, …),
    /// case-insensitively — the same strings [`mav_types::ToJson`] emits.
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        let name = json
            .as_str()
            .ok_or_else(|| format!("expected a kernel short name string, got {json}"))?;
        KernelId::all()
            .iter()
            .copied()
            .find(|k| k.short_name().eq_ignore_ascii_case(name.trim()))
            .ok_or_else(|| format!("unknown kernel `{name}` (expected a Table I short name)"))
    }
}

/// The three stages of the MAVBench application pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Sensor interpretation.
    Perception,
    /// Path and motion planning.
    Planning,
    /// Trajectory following and command issue.
    Control,
}

impl fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PipelineStage::Perception => "perception",
            PipelineStage::Planning => "planning",
            PipelineStage::Control => "control",
        };
        f.write_str(s)
    }
}

/// Latency profile of a kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Runtime at the reference operating point (4 cores / 2.2 GHz), in
    /// milliseconds. These are the Table I numbers.
    pub reference_ms: f64,
    /// Fraction of the work that parallelises across cores (Amdahl).
    pub parallel_fraction: f64,
}

impl KernelProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `reference_ms` is negative or `parallel_fraction` is outside
    /// `[0, 1]`.
    pub fn new(reference_ms: f64, parallel_fraction: f64) -> Self {
        assert!(reference_ms >= 0.0, "reference runtime cannot be negative");
        assert!(
            (0.0..=1.0).contains(&parallel_fraction),
            "parallel fraction must be in [0, 1], got {parallel_fraction}"
        );
        KernelProfile {
            reference_ms,
            parallel_fraction,
        }
    }

    /// Runtime at an arbitrary operating point.
    ///
    /// The serial critical path scales inversely with frequency; the parallel
    /// portion additionally scales inversely with core count relative to the
    /// 4-core reference.
    pub fn latency(&self, point: &OperatingPoint) -> SimDuration {
        let reference = OperatingPoint::reference();
        let freq_scale = reference.frequency.as_ghz() / point.frequency.as_ghz();
        // Amdahl relative to the reference core count.
        let p = self.parallel_fraction;
        let time_at = |cores: u32| (1.0 - p) + p / cores as f64;
        let core_scale = time_at(point.cores) / time_at(reference.cores);
        SimDuration::from_millis(self.reference_ms * freq_scale * core_scale)
    }

    /// Runtime at the reference operating point.
    pub fn reference_latency(&self) -> SimDuration {
        SimDuration::from_millis(self.reference_ms)
    }

    /// Speed-up of `point` over the slowest point of the TX2 sweep.
    pub fn speedup_over_slowest(&self, point: &OperatingPoint) -> f64 {
        let slow = self.latency(&OperatingPoint::slowest()).as_secs();
        let fast = self.latency(point).as_secs();
        if fast <= 0.0 {
            1.0
        } else {
            slow / fast
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_types::Frequency;

    #[test]
    fn all_kernels_have_stage_and_name() {
        assert_eq!(KernelId::all().len(), 13);
        for k in KernelId::all() {
            assert!(!k.short_name().is_empty());
            assert!(!format!("{k}").is_empty());
            let _ = k.stage();
        }
        assert_eq!(
            KernelId::OctomapGeneration.stage(),
            PipelineStage::Perception
        );
        assert_eq!(KernelId::MotionPlanning.stage(), PipelineStage::Planning);
        assert_eq!(KernelId::PathTracking.stage(), PipelineStage::Control);
    }

    #[test]
    fn reference_latency_matches_table() {
        let p = KernelProfile::new(630.0, 0.3);
        assert!((p.latency(&OperatingPoint::reference()).as_millis() - 630.0).abs() < 1e-9);
        assert!((p.reference_latency().as_millis() - 630.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_scaling_is_linear_on_serial_kernels() {
        let p = KernelProfile::new(100.0, 0.0);
        let slow = p.latency(&OperatingPoint::new(4, Frequency::from_ghz(0.8)));
        let fast = p.latency(&OperatingPoint::new(4, Frequency::from_ghz(2.2)));
        assert!((slow.as_millis() / fast.as_millis() - 2.2 / 0.8).abs() < 1e-9);
        // Core count does not matter for a fully serial kernel.
        let two_cores = p.latency(&OperatingPoint::new(2, Frequency::from_ghz(2.2)));
        assert!((two_cores.as_millis() - fast.as_millis()).abs() < 1e-9);
    }

    #[test]
    fn core_scaling_follows_amdahl() {
        let p = KernelProfile::new(100.0, 0.8);
        let four = p
            .latency(&OperatingPoint::new(4, Frequency::from_ghz(2.2)))
            .as_millis();
        let two = p
            .latency(&OperatingPoint::new(2, Frequency::from_ghz(2.2)))
            .as_millis();
        let one = p
            .latency(&OperatingPoint::new(1, Frequency::from_ghz(2.2)))
            .as_millis();
        assert!(two > four);
        assert!(one > two);
        // Expected ratios: t(c) ∝ 0.2 + 0.8/c.
        let expected_two_over_four = (0.2 + 0.4) / (0.2 + 0.2);
        assert!((two / four - expected_two_over_four).abs() < 1e-9);
        assert!((one / four - (1.0 / 0.4)).abs() < 1e-9);
    }

    #[test]
    fn speedup_over_slowest_is_at_least_one() {
        for &pf in &[0.0, 0.3, 0.7, 1.0] {
            let p = KernelProfile::new(250.0, pf);
            for point in OperatingPoint::tx2_sweep() {
                assert!(p.speedup_over_slowest(&point) >= 1.0 - 1e-9);
            }
            // The reference point achieves the largest speed-up.
            let best = p.speedup_over_slowest(&OperatingPoint::reference());
            assert!(best >= 2.2 / 0.8 - 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_parallel_fraction_rejected() {
        let _ = KernelProfile::new(10.0, 1.5);
    }

    #[test]
    fn zero_cost_kernels_stay_zero() {
        let p = KernelProfile::new(0.0, 0.5);
        for point in OperatingPoint::tx2_sweep() {
            assert!(p.latency(&point).is_zero());
        }
    }
}
