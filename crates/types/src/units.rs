//! Scalar unit newtypes for power, energy and clock frequency.
//!
//! The MAVBench evaluation constantly mixes quantities measured in watts,
//! joules/kilojoules, gigahertz and milliamp-hours. Newtypes keep those apart
//! at compile time and provide the small amount of arithmetic the energy and
//! compute models need.

use crate::time::SimDuration;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Electrical power in watts.
///
/// # Example
///
/// ```
/// use mav_types::{Power, SimDuration};
/// let rotors = Power::from_watts(286.8);
/// let energy = rotors.over(SimDuration::from_secs(10.0));
/// assert!((energy.as_joules() - 2868.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero watts.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power value from watts. Negative inputs are clamped to zero
    /// (the models in this workspace never produce regenerative power).
    pub fn from_watts(w: f64) -> Self {
        Power(if w.is_finite() { w.max(0.0) } else { 0.0 })
    }

    /// The power in watts.
    pub fn as_watts(&self) -> f64 {
        self.0
    }

    /// Energy delivered at this power over `duration`.
    pub fn over(&self, duration: SimDuration) -> Energy {
        Energy::from_joules(self.0 * duration.as_secs())
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power::from_watts(self.0 * rhs)
    }
}

impl std::iter::Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

/// Energy in joules.
///
/// # Example
///
/// ```
/// use mav_types::Energy;
/// let e = Energy::from_kilojoules(1.5);
/// assert_eq!(e.as_joules(), 1500.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero joules.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy value from joules. Negative inputs are clamped to
    /// zero.
    pub fn from_joules(j: f64) -> Self {
        Energy(if j.is_finite() { j.max(0.0) } else { 0.0 })
    }

    /// Creates an energy value from kilojoules.
    pub fn from_kilojoules(kj: f64) -> Self {
        Energy::from_joules(kj * 1000.0)
    }

    /// Creates an energy value from a battery capacity in milliamp-hours at
    /// the given nominal voltage.
    pub fn from_mah(mah: f64, volts: f64) -> Self {
        // mAh * V = mWh; * 3.6 = joules.
        Energy::from_joules(mah * volts * 3.6)
    }

    /// The energy in joules.
    pub fn as_joules(&self) -> f64 {
        self.0
    }

    /// The energy in kilojoules.
    pub fn as_kilojoules(&self) -> f64 {
        self.0 / 1000.0
    }

    /// The energy expressed as coulombs at a given voltage (charge = E / V).
    ///
    /// Returns zero when `volts` is not strictly positive.
    pub fn as_coulombs(&self, volts: f64) -> f64 {
        if volts > 0.0 {
            self.0 / volts
        } else {
            0.0
        }
    }

    /// Fraction of this energy relative to `total`, clamped to `[0, 1]`.
    pub fn fraction_of(&self, total: Energy) -> f64 {
        if total.0 <= 0.0 {
            0.0
        } else {
            (self.0 / total.0).clamp(0.0, 1.0)
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy::from_joules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy::from_joules(self.0 * rhs)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        if rhs.0 == 0.0 {
            0.0
        } else {
            self.0 / rhs.0
        }
    }
}

impl std::iter::Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.2} kJ", self.as_kilojoules())
        } else {
            write!(f, "{:.2} J", self.0)
        }
    }
}

/// Processor clock frequency in gigahertz.
///
/// The MAVBench TX2 sweep uses 0.8, 1.5 and 2.2 GHz operating points.
///
/// # Example
///
/// ```
/// use mav_types::Frequency;
/// let base = Frequency::from_ghz(2.2);
/// let slow = Frequency::from_ghz(0.8);
/// assert!((base.speedup_over(slow) - 2.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite — a zero-frequency
    /// processor makes every latency model degenerate.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(
            ghz.is_finite() && ghz > 0.0,
            "frequency must be positive, got {ghz}"
        );
        Frequency(ghz)
    }

    /// The frequency in gigahertz.
    pub fn as_ghz(&self) -> f64 {
        self.0
    }

    /// The frequency in hertz.
    pub fn as_hz(&self) -> f64 {
        self.0 * 1e9
    }

    /// Ratio `self / other`: how many times faster a serial kernel runs at
    /// `self` compared to `other`.
    pub fn speedup_over(&self, other: Frequency) -> f64 {
        self.0 / other.0
    }
}

impl Default for Frequency {
    fn default() -> Self {
        Frequency::from_ghz(2.2)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} GHz", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_duration_is_energy() {
        let p = Power::from_watts(100.0);
        let e = p.over(SimDuration::from_secs(90.0));
        assert_eq!(e.as_joules(), 9000.0);
        assert_eq!(e.as_kilojoules(), 9.0);
    }

    #[test]
    fn power_clamps_and_sums() {
        assert_eq!(Power::from_watts(-5.0).as_watts(), 0.0);
        let total: Power = [10.0, 20.0, 30.0]
            .iter()
            .map(|w| Power::from_watts(*w))
            .sum();
        assert_eq!(total.as_watts(), 60.0);
        assert_eq!((Power::from_watts(10.0) * 2.0).as_watts(), 20.0);
    }

    #[test]
    fn energy_conversions() {
        let e = Energy::from_mah(5000.0, 11.1);
        // 5000 mAh at 11.1 V = 55.5 Wh = 199.8 kJ.
        assert!((e.as_kilojoules() - 199.8).abs() < 1e-6);
        assert!((e.as_coulombs(11.1) - 18000.0).abs() < 1e-6);
        assert_eq!(Energy::from_joules(-1.0).as_joules(), 0.0);
        assert_eq!(Energy::from_joules(10.0).as_coulombs(0.0), 0.0);
    }

    #[test]
    fn energy_arithmetic_saturates() {
        let a = Energy::from_joules(5.0);
        let b = Energy::from_joules(8.0);
        assert_eq!((a - b).as_joules(), 0.0);
        assert_eq!((b - a).as_joules(), 3.0);
        assert_eq!((a + b).as_joules(), 13.0);
        assert_eq!(b / a, 1.6);
        assert_eq!(a / Energy::ZERO, 0.0);
    }

    #[test]
    fn energy_fraction() {
        let total = Energy::from_kilojoules(100.0);
        let used = Energy::from_kilojoules(25.0);
        assert_eq!(used.fraction_of(total), 0.25);
        assert_eq!(total.fraction_of(used), 1.0); // clamped
        assert_eq!(used.fraction_of(Energy::ZERO), 0.0);
    }

    #[test]
    fn frequency_speedup() {
        let hi = Frequency::from_ghz(2.2);
        let lo = Frequency::from_ghz(0.8);
        assert!(hi.speedup_over(lo) > 2.7);
        assert!((lo.speedup_over(hi) - 0.8 / 2.2).abs() < 1e-12);
        assert_eq!(Frequency::default().as_ghz(), 2.2);
        assert_eq!(hi.as_hz(), 2.2e9);
    }

    #[test]
    #[should_panic]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_ghz(0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Power::from_watts(1.0)).is_empty());
        assert!(!format!("{}", Energy::from_joules(1.0)).is_empty());
        assert!(!format!("{}", Energy::from_kilojoules(2.0)).is_empty());
        assert!(!format!("{}", Frequency::from_ghz(1.5)).is_empty());
    }
}
