//! Quality-of-Flight (QoF) metrics and the per-mission report.
//!
//! The paper's QoF metrics are mission time and total energy (universal),
//! plus application-specific figures such as the aerial-photography framing
//! error and the mapped volume. A [`MissionReport`] carries all of them plus
//! the per-kernel time breakdown used by Table I and Fig. 15.

use crate::faults::DegradedSummary;
use mav_compute::{ApplicationId, OperatingPoint};
use mav_energy::EnergyAccount;
use mav_runtime::KernelTimer;
use mav_types::{Energy, SimDuration};
use std::fmt;

/// Why a mission failed, when it did.
#[derive(Debug, Clone, PartialEq)]
pub enum MissionFailure {
    /// The vehicle hit an obstacle.
    Collision,
    /// The battery ran out before completion.
    BatteryExhausted,
    /// The configured time budget was exceeded.
    Timeout,
    /// A planner could not find a path.
    PlanningFailed(String),
    /// Localization was lost and never recovered.
    LocalizationLost,
    /// Any other failure.
    Other(String),
}

impl fmt::Display for MissionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissionFailure::Collision => f.write_str("collision"),
            MissionFailure::BatteryExhausted => f.write_str("battery exhausted"),
            MissionFailure::Timeout => f.write_str("time budget exceeded"),
            MissionFailure::PlanningFailed(r) => write!(f, "planning failed: {r}"),
            MissionFailure::LocalizationLost => f.write_str("localization lost"),
            MissionFailure::Other(r) => write!(f, "failure: {r}"),
        }
    }
}

/// The complete outcome of one closed-loop mission.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionReport {
    /// Which application ran.
    pub application: ApplicationId,
    /// Operating point it ran at.
    pub operating_point: OperatingPoint,
    /// `None` when the mission succeeded, otherwise the failure reason.
    pub failure: Option<MissionFailure>,
    /// Total mission time, seconds.
    pub mission_time_secs: f64,
    /// Time spent hovering (waiting for planning), seconds.
    pub hover_time_secs: f64,
    /// Distance travelled, metres.
    pub distance_m: f64,
    /// Average velocity over the mission, m/s.
    pub average_velocity: f64,
    /// The Eq. 2 velocity cap the mission flew under, m/s.
    pub velocity_cap: f64,
    /// Total system energy, joules.
    pub total_energy: Energy,
    /// Rotor energy, joules.
    pub rotor_energy: Energy,
    /// Compute energy, joules.
    pub compute_energy: Energy,
    /// Battery percentage remaining at mission end.
    pub battery_remaining_pct: f64,
    /// Number of re-planning episodes.
    pub replans: u32,
    /// Number of target detections (search and rescue / photography).
    pub detections: u32,
    /// Volume mapped, cubic metres (3D mapping).
    pub mapped_volume: f64,
    /// Mean framing error, normalised image units (aerial photography).
    pub tracking_error: f64,
    /// Per-kernel simulated time totals.
    pub kernel_timer: KernelTimer,
    /// Degraded-mode summary: `None` for a mission that never degraded
    /// (including every fault-free mission), so legacy reports — and their
    /// JSON — are untouched by the fault-injection subsystem.
    pub degraded: Option<DegradedSummary>,
}

impl MissionReport {
    /// Returns `true` when the mission completed successfully.
    pub fn success(&self) -> bool {
        self.failure.is_none()
    }

    /// Total energy in kilojoules (the unit the paper's heat maps use).
    pub fn energy_kj(&self) -> f64 {
        self.total_energy.as_kilojoules()
    }

    /// Builds a report from the raw mission counters.
    #[allow(clippy::too_many_arguments)]
    pub fn from_counters(
        application: ApplicationId,
        operating_point: OperatingPoint,
        failure: Option<MissionFailure>,
        mission_time: SimDuration,
        hover_time: SimDuration,
        distance_m: f64,
        velocity_cap: f64,
        energy: &EnergyAccount,
        battery_remaining_pct: f64,
        replans: u32,
        detections: u32,
        mapped_volume: f64,
        tracking_error: f64,
        kernel_timer: KernelTimer,
        degraded: Option<DegradedSummary>,
    ) -> Self {
        let mission_time_secs = mission_time.as_secs();
        MissionReport {
            application,
            operating_point,
            failure,
            mission_time_secs,
            hover_time_secs: hover_time.as_secs(),
            distance_m,
            average_velocity: if mission_time_secs > 0.0 {
                distance_m / mission_time_secs
            } else {
                0.0
            },
            velocity_cap,
            total_energy: energy.total_energy(),
            rotor_energy: energy.rotor_energy(),
            compute_energy: energy.compute_energy(),
            battery_remaining_pct,
            replans,
            detections,
            mapped_volume,
            tracking_error,
            kernel_timer,
            degraded,
        }
    }
}

impl mav_types::ToJson for MissionFailure {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::String(self.to_string())
    }
}

impl mav_types::ToJson for MissionReport {
    fn to_json(&self) -> mav_types::Json {
        use mav_types::{Json, ToJson};
        let json = Json::object()
            .field("application", self.application.to_json())
            .field("operating_point", self.operating_point.to_json())
            .field("failure", self.failure.as_ref().map(ToJson::to_json))
            .field("mission_time_secs", self.mission_time_secs)
            .field("hover_time_secs", self.hover_time_secs)
            .field("distance_m", self.distance_m)
            .field("average_velocity", self.average_velocity)
            .field("velocity_cap", self.velocity_cap)
            .field("total_energy_j", self.total_energy.as_joules())
            .field("rotor_energy_j", self.rotor_energy.as_joules())
            .field("compute_energy_j", self.compute_energy.as_joules())
            .field("battery_remaining_pct", self.battery_remaining_pct)
            .field("replans", self.replans)
            .field("detections", self.detections)
            .field("mapped_volume", self.mapped_volume)
            .field("tracking_error", self.tracking_error)
            .field("kernel_timer", self.kernel_timer.to_json());
        // Only degraded missions carry the extra section: fault-free reports
        // stay byte-identical to every pre-fault-injection harness output.
        match &self.degraded {
            Some(degraded) => json.field("degraded", degraded.to_json()),
            None => json,
        }
    }
}

impl fmt::Display for MissionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {}: {} | {:.1} s, {:.1} m, {:.2} m/s avg, {:.1} kJ, battery {:.0}%",
            self.application,
            self.operating_point.label(),
            match &self.failure {
                None => "success".to_string(),
                Some(failure) => failure.to_string(),
            },
            self.mission_time_secs,
            self.distance_m,
            self.average_velocity,
            self.energy_kj(),
            self.battery_remaining_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_energy::FlightPhaseLabel;
    use mav_types::{Power, SimTime};

    fn sample_energy() -> EnergyAccount {
        let mut acc = EnergyAccount::new();
        acc.record(
            SimTime::ZERO,
            SimDuration::from_secs(100.0),
            Power::from_watts(320.0),
            Power::from_watts(13.0),
            FlightPhaseLabel::Flying,
        );
        acc
    }

    fn sample_report(failure: Option<MissionFailure>) -> MissionReport {
        MissionReport::from_counters(
            ApplicationId::PackageDelivery,
            OperatingPoint::reference(),
            failure,
            SimDuration::from_secs(100.0),
            SimDuration::from_secs(12.0),
            250.0,
            4.5,
            &sample_energy(),
            64.0,
            3,
            0,
            0.0,
            0.0,
            KernelTimer::new(),
            None,
        )
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let r = sample_report(None);
        assert!(r.success());
        assert!((r.average_velocity - 2.5).abs() < 1e-9);
        assert!((r.energy_kj() - 33.5).abs() < 0.01);
        assert!(r.rotor_energy > r.compute_energy);
        assert_eq!(r.replans, 3);
    }

    #[test]
    fn failures_are_reported() {
        let r = sample_report(Some(MissionFailure::Collision));
        assert!(!r.success());
        assert!(format!("{r}").contains("collision"));
        for f in [
            MissionFailure::Collision,
            MissionFailure::BatteryExhausted,
            MissionFailure::Timeout,
            MissionFailure::PlanningFailed("x".into()),
            MissionFailure::LocalizationLost,
            MissionFailure::Other("y".into()),
        ] {
            assert!(!format!("{f}").is_empty());
        }
    }

    #[test]
    fn zero_duration_mission_has_zero_average_velocity() {
        let r = MissionReport::from_counters(
            ApplicationId::Scanning,
            OperatingPoint::reference(),
            None,
            SimDuration::ZERO,
            SimDuration::ZERO,
            0.0,
            1.0,
            &EnergyAccount::new(),
            100.0,
            0,
            0,
            0.0,
            0.0,
            KernelTimer::new(),
            None,
        );
        assert_eq!(r.average_velocity, 0.0);
        assert!(!format!("{r}").is_empty());
    }
}
