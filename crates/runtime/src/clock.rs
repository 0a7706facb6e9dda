//! The simulated mission clock.

use mav_types::{SimDuration, SimTime};

/// The mission clock every node and model reads.
///
/// The closed-loop simulator advances this clock both for physics steps and
/// for the modelled latency of compute kernels, which is how compute speed
/// becomes mission time in MAVBench.
///
/// # Example
///
/// ```
/// use mav_runtime::SimClock;
/// use mav_types::SimDuration;
///
/// let mut clock = SimClock::new();
/// clock.advance(SimDuration::from_secs(1.5));
/// assert_eq!(clock.now().as_secs(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// Creates a clock at mission time zero.
    pub fn new() -> Self {
        SimClock { now: SimTime::ZERO }
    }

    /// The current mission time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `dt` and returns the new time.
    pub fn advance(&mut self, dt: SimDuration) -> SimTime {
        self.now += dt;
        self.now
    }

    /// Advances the clock to `target` if it is in the future; a target in the
    /// past leaves the clock unchanged (time never goes backwards).
    pub fn advance_to(&mut self, target: SimTime) -> SimTime {
        if target > self.now {
            self.now = target;
        }
        self.now
    }

    /// Elapsed time since `start`.
    pub fn elapsed_since(&self, start: SimTime) -> SimDuration {
        self.now.since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_secs(2.0));
        c.advance(SimDuration::from_millis(500.0));
        assert!((c.now().as_secs() - 2.5).abs() < 1e-12);
        assert!((c.elapsed_since(SimTime::from_secs(1.0)).as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut c = SimClock::new();
        c.advance_to(SimTime::from_secs(5.0));
        assert_eq!(c.now().as_secs(), 5.0);
        c.advance_to(SimTime::from_secs(2.0));
        assert_eq!(c.now().as_secs(), 5.0);
    }
}
