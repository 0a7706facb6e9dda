//! Mission energy accounting: per-subsystem power integration and the power
//! traces behind the paper's Fig. 9.

use mav_dynamics_phase::FlightPhaseLabel;
use mav_types::{Energy, Power, SimDuration, SimTime};
use std::fmt;

/// Minimal mirror of the flight phase used for labelling power samples without
/// depending on the dynamics crate (the energy crate sits below it in the
/// dependency graph).
pub mod mav_dynamics_phase {

    /// Label attached to each power sample in a mission trace.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum FlightPhaseLabel {
        /// Motors arming on the ground.
        Arming,
        /// Holding position.
        Hovering,
        /// Translating.
        Flying,
        /// Descending to land.
        Landing,
        /// Any other state (idle/landed).
        Ground,
    }

    impl std::fmt::Display for FlightPhaseLabel {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let s = match self {
                FlightPhaseLabel::Arming => "arming",
                FlightPhaseLabel::Hovering => "hovering",
                FlightPhaseLabel::Flying => "flying",
                FlightPhaseLabel::Landing => "landing",
                FlightPhaseLabel::Ground => "ground",
            };
            f.write_str(s)
        }
    }
}

/// One sample of the mission power trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Mission time of the sample.
    pub time: SimTime,
    /// Rotor power at this instant.
    pub rotor: Power,
    /// Companion-computer power at this instant.
    pub compute: Power,
    /// Other electronics (flight controller, sensors), watts.
    pub other: Power,
    /// Flight phase during this sample.
    pub phase: FlightPhaseLabel,
}

impl PowerSample {
    /// Total system power at this instant.
    pub fn total(&self) -> Power {
        self.rotor + self.compute + self.other
    }
}

/// Aggregate energy split by subsystem plus the raw trace.
///
/// # Example
///
/// ```
/// use mav_energy::{EnergyAccount, FlightPhaseLabel};
/// use mav_types::{Power, SimDuration, SimTime};
///
/// let mut account = EnergyAccount::new();
/// account.record(
///     SimTime::ZERO,
///     SimDuration::from_secs(10.0),
///     Power::from_watts(300.0),
///     Power::from_watts(10.0),
///     FlightPhaseLabel::Flying,
/// );
/// assert!(account.rotor_fraction() > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyAccount {
    rotor_energy: Energy,
    compute_energy: Energy,
    other_energy: Energy,
    trace: Vec<PowerSample>,
    /// Constant draw of the flight controller and sensors, watts.
    pub other_watts: f64,
}

impl EnergyAccount {
    /// Creates an empty account with a 2 W "other electronics" draw
    /// (flight controller + sensors), matching the paper's power pie.
    pub fn new() -> Self {
        EnergyAccount {
            other_watts: 2.0,
            ..Default::default()
        }
    }

    /// Records one interval of the mission.
    pub fn record(
        &mut self,
        time: SimTime,
        dt: SimDuration,
        rotor: Power,
        compute: Power,
        phase: FlightPhaseLabel,
    ) {
        let other = Power::from_watts(self.other_watts);
        self.rotor_energy += rotor.over(dt);
        self.compute_energy += compute.over(dt);
        self.other_energy += other.over(dt);
        self.trace.push(PowerSample {
            time,
            rotor,
            compute,
            other,
            phase,
        });
    }

    /// Total energy consumed by the rotors.
    pub fn rotor_energy(&self) -> Energy {
        self.rotor_energy
    }

    /// Total energy consumed by the companion computer.
    pub fn compute_energy(&self) -> Energy {
        self.compute_energy
    }

    /// Total energy consumed by the other electronics.
    pub fn other_energy(&self) -> Energy {
        self.other_energy
    }

    /// Total system energy.
    pub fn total_energy(&self) -> Energy {
        self.rotor_energy + self.compute_energy + self.other_energy
    }

    /// Fraction of the total energy that went to the rotors.
    pub fn rotor_fraction(&self) -> f64 {
        self.rotor_energy.fraction_of(self.total_energy())
    }

    /// Fraction of the total energy that went to compute.
    pub fn compute_fraction(&self) -> f64 {
        self.compute_energy.fraction_of(self.total_energy())
    }

    /// The full power trace.
    pub fn trace(&self) -> &[PowerSample] {
        &self.trace
    }

    /// Average total power over the trace (simple sample mean).
    pub fn average_total_power(&self) -> Power {
        if self.trace.is_empty() {
            return Power::ZERO;
        }
        let sum: f64 = self.trace.iter().map(|s| s.total().as_watts()).sum();
        Power::from_watts(sum / self.trace.len() as f64)
    }

    /// Average total power during a specific flight phase, or `None` when the
    /// phase never occurred.
    pub fn average_power_in_phase(&self, phase: FlightPhaseLabel) -> Option<Power> {
        let samples: Vec<&PowerSample> = self.trace.iter().filter(|s| s.phase == phase).collect();
        if samples.is_empty() {
            return None;
        }
        let sum: f64 = samples.iter().map(|s| s.total().as_watts()).sum();
        Some(Power::from_watts(sum / samples.len() as f64))
    }
}

impl fmt::Display for EnergyAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "energy[total {} | rotors {:.1}% compute {:.1}%]",
            self.total_energy(),
            self.rotor_fraction() * 100.0,
            self.compute_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_account() -> EnergyAccount {
        let mut acc = EnergyAccount::new();
        let mut t = SimTime::ZERO;
        let dt = SimDuration::from_secs(1.0);
        for i in 0..60 {
            let phase = if i < 5 {
                FlightPhaseLabel::Arming
            } else if i < 15 {
                FlightPhaseLabel::Hovering
            } else if i < 55 {
                FlightPhaseLabel::Flying
            } else {
                FlightPhaseLabel::Landing
            };
            let rotor = match phase {
                FlightPhaseLabel::Arming => Power::from_watts(80.0),
                FlightPhaseLabel::Hovering => Power::from_watts(287.0),
                FlightPhaseLabel::Flying => Power::from_watts(330.0),
                FlightPhaseLabel::Landing => Power::from_watts(250.0),
                FlightPhaseLabel::Ground => Power::ZERO,
            };
            acc.record(t, dt, rotor, Power::from_watts(13.0), phase);
            t += dt;
        }
        acc
    }

    #[test]
    fn rotors_dominate_the_energy_pie() {
        let acc = filled_account();
        assert!(acc.rotor_fraction() > 0.9);
        assert!(acc.compute_fraction() < 0.06);
        assert!(acc.total_energy() > acc.rotor_energy());
        assert_eq!(acc.trace().len(), 60);
    }

    #[test]
    fn per_phase_power_ordering() {
        let acc = filled_account();
        let hover = acc
            .average_power_in_phase(FlightPhaseLabel::Hovering)
            .unwrap();
        let fly = acc
            .average_power_in_phase(FlightPhaseLabel::Flying)
            .unwrap();
        let arm = acc
            .average_power_in_phase(FlightPhaseLabel::Arming)
            .unwrap();
        assert!(fly > hover);
        assert!(hover > arm);
        assert!(acc
            .average_power_in_phase(FlightPhaseLabel::Ground)
            .is_none());
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut acc = EnergyAccount::new();
        acc.record(
            SimTime::ZERO,
            SimDuration::from_secs(100.0),
            Power::from_watts(300.0),
            Power::from_watts(10.0),
            FlightPhaseLabel::Flying,
        );
        assert!((acc.rotor_energy().as_kilojoules() - 30.0).abs() < 1e-9);
        assert!((acc.compute_energy().as_kilojoules() - 1.0).abs() < 1e-9);
        assert!((acc.other_energy().as_joules() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_account_is_well_behaved() {
        let acc = EnergyAccount::new();
        assert_eq!(acc.total_energy(), Energy::ZERO);
        assert_eq!(acc.rotor_fraction(), 0.0);
        assert_eq!(acc.average_total_power(), Power::ZERO);
        assert!(acc.trace().is_empty());
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", filled_account()).is_empty());
        assert!(!format!("{}", FlightPhaseLabel::Flying).is_empty());
    }
}
