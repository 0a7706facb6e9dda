//! Simulation time and duration newtypes.
//!
//! MAVBench-RS runs on a *simulated* mission clock that advances by physics
//! steps and by the modelled latency of compute kernels. Keeping simulated
//! time in dedicated newtypes (rather than bare `f64` seconds) prevents the
//! classic bug of mixing wall-clock measurements with mission time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point on the simulated mission clock, in seconds since the
/// start of the mission.
///
/// # Example
///
/// ```
/// use mav_types::{SimTime, SimDuration};
/// let t = SimTime::from_secs(1.5) + SimDuration::from_secs(0.5);
/// assert_eq!(t.as_secs(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Mission start.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds since mission start.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `secs` is negative or non-finite.
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime {secs}");
        SimTime(secs.max(0.0))
    }

    /// Seconds since mission start.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is
    /// actually later.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs((self.0 - earlier.0).max(0.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs((self.0 - rhs.0).max(0.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

/// A span of simulated time, in seconds. Always non-negative.
///
/// # Example
///
/// ```
/// use mav_types::SimDuration;
/// let d = SimDuration::from_millis(250.0) * 4.0;
/// assert_eq!(d.as_secs(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// Negative or non-finite inputs are clamped to zero (a duration can never
    /// be negative on the mission clock).
    pub fn from_secs(secs: f64) -> Self {
        if secs.is_finite() && secs > 0.0 {
            SimDuration(secs)
        } else {
            SimDuration(0.0)
        }
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        SimDuration::from_secs(ms / 1000.0)
    }

    /// Duration in seconds.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// Duration in milliseconds.
    pub fn as_millis(&self) -> f64 {
        self.0 * 1000.0
    }

    /// Returns `true` for a zero-length duration.
    pub fn is_zero(&self) -> bool {
        self.0 == 0.0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.1}ms", self.as_millis())
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_secs(2.0);
        let t1 = t0 + SimDuration::from_secs(3.0);
        assert_eq!(t1.as_secs(), 5.0);
        assert_eq!((t1 - t0).as_secs(), 3.0);
        // Subtraction saturates rather than producing a negative duration.
        assert_eq!((t0 - t1).as_secs(), 0.0);
        assert_eq!(t1.since(t0).as_secs(), 3.0);
    }

    #[test]
    fn duration_clamps_negative() {
        assert_eq!(SimDuration::from_secs(-1.0).as_secs(), 0.0);
        assert_eq!(SimDuration::from_secs(f64::NAN).as_secs(), 0.0);
        let d = SimDuration::from_secs(1.0) - SimDuration::from_secs(2.0);
        assert!(d.is_zero());
    }

    #[test]
    fn millis_round_trip() {
        let d = SimDuration::from_millis(182.0);
        assert!((d.as_secs() - 0.182).abs() < 1e-12);
        assert!((d.as_millis() - 182.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_and_ordering() {
        let d = SimDuration::from_secs(2.0);
        assert_eq!((d * 2.5).as_secs(), 5.0);
        assert_eq!((d / 4.0).as_secs(), 0.5);
        assert!(SimDuration::from_secs(1.0) < SimDuration::from_secs(2.0));
        assert_eq!(d.max(SimDuration::from_secs(3.0)).as_secs(), 3.0);
        assert_eq!(d.min(SimDuration::from_secs(3.0)).as_secs(), 2.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn accumulate_time() {
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t += SimDuration::from_millis(100.0);
        }
        assert!((t.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", SimDuration::from_millis(5.0)).is_empty());
        assert!(!format!("{}", SimDuration::from_secs(5.0)).is_empty());
    }
}
