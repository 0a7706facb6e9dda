//! Mission energy accounting: per-subsystem energy integration and the
//! per-phase average power behind the paper's Fig. 9.

use mav_types::{Energy, Power, SimDuration};
use std::fmt;

/// Constant draw of the flight controller and sensors ("other electronics"
/// in the paper's power pie), watts.
pub const OTHER_ELECTRONICS_WATTS: f64 = 2.0;

/// Flight phase of a recorded interval.
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
}

impl fmt::Display for FlightPhaseLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlightPhaseLabel::Arming => "arming",
            FlightPhaseLabel::Hovering => "hovering",
            FlightPhaseLabel::Flying => "flying",
            FlightPhaseLabel::Landing => "landing",
        };
        f.write_str(s)
    }
}

/// Aggregate energy split by subsystem, plus each flight phase's summed
/// total power and interval count.
///
/// # Example
///
/// ```
/// use mav_energy::{EnergyAccount, FlightPhaseLabel};
/// use mav_types::{Power, SimDuration};
///
/// let mut account = EnergyAccount::new();
/// account.record(
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
    /// Per [`FlightPhaseLabel`] (by discriminant): the sum of each recorded
    /// interval's total power in watts, and the number of intervals.
    phase_power: [(f64, u64); 4],
}

impl EnergyAccount {
    /// Creates an empty account. Every interval also draws
    /// [`OTHER_ELECTRONICS_WATTS`] for the flight controller and sensors,
    /// matching the paper's power pie.
    pub fn new() -> Self {
        EnergyAccount::default()
    }

    /// Records one interval of the mission.
    pub fn record(
        &mut self,
        dt: SimDuration,
        rotor: Power,
        compute: Power,
        phase: FlightPhaseLabel,
    ) {
        let other = Power::from_watts(OTHER_ELECTRONICS_WATTS);
        self.rotor_energy += rotor.over(dt);
        self.compute_energy += compute.over(dt);
        self.other_energy += other.over(dt);
        let (watts, intervals) = &mut self.phase_power[phase as usize];
        *watts += (rotor + compute + other).as_watts();
        *intervals += 1;
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

    /// Average total power over the intervals recorded in `phase` (a plain
    /// mean over intervals), or `None` when the phase never occurred.
    pub fn average_power_in_phase(&self, phase: FlightPhaseLabel) -> Option<Power> {
        let (watts, intervals) = self.phase_power[phase as usize];
        (intervals > 0).then(|| Power::from_watts(watts / intervals as f64))
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

    const PHASES: [FlightPhaseLabel; 4] = [
        FlightPhaseLabel::Arming,
        FlightPhaseLabel::Hovering,
        FlightPhaseLabel::Flying,
        FlightPhaseLabel::Landing,
    ];

    fn filled_account() -> EnergyAccount {
        let mut acc = EnergyAccount::new();
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
            };
            acc.record(dt, rotor, Power::from_watts(13.0), phase);
        }
        acc
    }

    #[test]
    fn rotors_dominate_the_energy_pie() {
        let acc = filled_account();
        assert!(acc.rotor_fraction() > 0.9);
        assert!(acc.compute_fraction() < 0.06);
        assert!(acc.total_energy() > acc.rotor_energy());
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
    }

    /// SplitMix64, for the random intervals of the accounting oracle.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, scale)`.
    fn uniform(state: &mut u64, scale: f64) -> f64 {
        (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 * scale
    }

    #[test]
    fn phase_averages_match_the_sample_trace_mean() {
        // The oracle is a per-sample trace: one (phase, total power) entry per
        // interval, averaged per phase by filtering, summing and dividing by
        // the sample count. Recorded phases must match it bit for bit, and
        // an unrecorded phase (Landing for seed 3) must read `None`.
        for (seed, phases) in [(1u64, &PHASES[..]), (2, &PHASES[..]), (3, &PHASES[..3])] {
            let mut state = seed;
            let mut acc = EnergyAccount::new();
            let mut trace: Vec<(FlightPhaseLabel, f64)> = Vec::new();
            for _ in 0..2_000 {
                let phase = phases[(splitmix64(&mut state) % phases.len() as u64) as usize];
                let dt = SimDuration::from_secs(uniform(&mut state, 0.2));
                let rotor = Power::from_watts(uniform(&mut state, 400.0));
                let compute = Power::from_watts(uniform(&mut state, 15.0));
                acc.record(dt, rotor, compute, phase);
                let other = Power::from_watts(OTHER_ELECTRONICS_WATTS);
                trace.push((phase, (rotor + compute + other).as_watts()));
            }
            for phase in PHASES {
                let samples: Vec<f64> = trace
                    .iter()
                    .filter(|(p, _)| *p == phase)
                    .map(|(_, watts)| *watts)
                    .collect();
                let expected = (!samples.is_empty())
                    .then(|| Power::from_watts(samples.iter().sum::<f64>() / samples.len() as f64));
                let got = acc.average_power_in_phase(phase);
                assert_eq!(
                    got.map(|p| p.as_watts().to_bits()),
                    expected.map(|p| p.as_watts().to_bits()),
                    "seed {seed} {phase}"
                );
                assert_eq!(
                    got.is_none(),
                    !phases.contains(&phase),
                    "seed {seed} {phase}"
                );
            }
        }
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut acc = EnergyAccount::new();
        acc.record(
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
        for phase in PHASES {
            assert!(acc.average_power_in_phase(phase).is_none());
        }
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", filled_account()).is_empty());
        assert!(!format!("{}", FlightPhaseLabel::Flying).is_empty());
    }
}
