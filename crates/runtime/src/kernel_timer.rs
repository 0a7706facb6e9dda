//! Per-kernel simulated-time accounting.
//!
//! Every kernel invocation in the closed loop is charged to the mission clock
//! and recorded here; the totals reproduce the kernel-breakdown figure of the
//! paper (Fig. 15) and the per-application time profile of Table I.
//!
//! Despite the name, this module never reads the host clock: all durations
//! are [`SimDuration`] charges computed from the compute model, so the
//! recorded totals are bit-deterministic and safe to feed into mission
//! results. (`mav-lint`'s DET-WALLCLOCK rule keeps it that way.)

use mav_compute::KernelId;
use mav_types::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// Accumulated invocation counts and total simulated runtime per kernel.
///
/// # Example
///
/// ```
/// use mav_compute::KernelId;
/// use mav_runtime::KernelTimer;
/// use mav_types::SimDuration;
///
/// let mut timer = KernelTimer::new();
/// timer.record(KernelId::OctomapGeneration, SimDuration::from_millis(630.0));
/// timer.record(KernelId::OctomapGeneration, SimDuration::from_millis(610.0));
/// assert_eq!(timer.invocations(KernelId::OctomapGeneration), 2);
/// assert!(timer.total(KernelId::OctomapGeneration).as_secs() > 1.2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelTimer {
    /// Per kernel: total simulated time and invocation count.
    kernels: BTreeMap<KernelId, (SimDuration, u64)>,
}

impl KernelTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        KernelTimer::default()
    }

    /// Records one invocation of `kernel` that took `duration` of simulated
    /// time.
    pub fn record(&mut self, kernel: KernelId, duration: SimDuration) {
        let (total, count) = self.kernels.entry(kernel).or_insert((SimDuration::ZERO, 0));
        *total += duration;
        *count += 1;
    }

    /// Total simulated time spent in `kernel`.
    pub fn total(&self, kernel: KernelId) -> SimDuration {
        self.kernels
            .get(&kernel)
            .map_or(SimDuration::ZERO, |&(total, _)| total)
    }

    /// Number of invocations of `kernel`.
    pub fn invocations(&self, kernel: KernelId) -> u64 {
        self.kernels.get(&kernel).map_or(0, |&(_, count)| count)
    }

    /// Mean runtime per invocation of `kernel`, or zero if never invoked.
    pub fn mean(&self, kernel: KernelId) -> SimDuration {
        let count = self.invocations(kernel);
        if count == 0 {
            SimDuration::ZERO
        } else {
            self.total(kernel) / count as f64
        }
    }

    /// Total simulated compute time across every kernel.
    pub fn grand_total(&self) -> SimDuration {
        self.kernels.values().map(|&(total, _)| total).sum()
    }

    /// All (kernel, total time) pairs in a stable order.
    pub fn totals(&self) -> impl Iterator<Item = (&KernelId, &SimDuration)> {
        self.kernels
            .iter()
            .map(|(kernel, (total, _))| (kernel, total))
    }

    /// The kernel with the largest total time, if any: the application's
    /// compute bottleneck.
    pub fn bottleneck(&self) -> Option<KernelId> {
        // `total_cmp` ≡ the historical `partial_cmp().expect()`: recorded
        // durations are finite non-negative sums of kernel charges, so the
        // NaN/±0.0 cases where the comparators differ never occur (ties
        // still resolve to the last maximal kernel in BTreeMap order).
        self.totals()
            .max_by(|a, b| a.1.as_secs().total_cmp(&b.1.as_secs()))
            .map(|(k, _)| *k)
    }

    /// Merges another timer into this one (used when aggregating runs).
    pub fn merge(&mut self, other: &KernelTimer) {
        for (kernel, (d, c)) in &other.kernels {
            let (total, count) = self
                .kernels
                .entry(*kernel)
                .or_insert((SimDuration::ZERO, 0));
            *total += *d;
            *count += c;
        }
    }
}

impl mav_types::ToJson for KernelTimer {
    fn to_json(&self) -> mav_types::Json {
        use mav_types::Json;
        Json::Array(
            self.kernels
                .iter()
                .map(|(kernel, (total, count))| {
                    Json::object()
                        .field("kernel", *kernel)
                        .field("total_secs", total.as_secs())
                        .field("invocations", *count)
                })
                .collect(),
        )
    }
}

impl fmt::Display for KernelTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel-timer[{} kernels, total {}]",
            self.kernels.len(),
            self.grand_total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_counts_and_means() {
        let mut t = KernelTimer::new();
        t.record(KernelId::MotionPlanning, SimDuration::from_millis(200.0));
        t.record(KernelId::MotionPlanning, SimDuration::from_millis(100.0));
        t.record(KernelId::PathTracking, SimDuration::from_millis(1.0));
        assert_eq!(t.invocations(KernelId::MotionPlanning), 2);
        assert!((t.total(KernelId::MotionPlanning).as_millis() - 300.0).abs() < 1e-9);
        assert!((t.mean(KernelId::MotionPlanning).as_millis() - 150.0).abs() < 1e-9);
        assert_eq!(t.invocations(KernelId::ObjectDetection), 0);
        assert!(t.total(KernelId::ObjectDetection).is_zero());
        assert!(t.mean(KernelId::ObjectDetection).is_zero());
        assert!((t.grand_total().as_millis() - 301.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_detection() {
        let mut t = KernelTimer::new();
        assert!(t.bottleneck().is_none());
        t.record(KernelId::OctomapGeneration, SimDuration::from_secs(5.0));
        t.record(KernelId::MotionPlanning, SimDuration::from_secs(2.0));
        assert_eq!(t.bottleneck(), Some(KernelId::OctomapGeneration));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = KernelTimer::new();
        let mut b = KernelTimer::new();
        a.record(KernelId::PathSmoothing, SimDuration::from_millis(50.0));
        b.record(KernelId::PathSmoothing, SimDuration::from_millis(60.0));
        b.record(KernelId::PidControl, SimDuration::from_millis(1.0));
        a.merge(&b);
        assert_eq!(a.invocations(KernelId::PathSmoothing), 2);
        assert!((a.total(KernelId::PathSmoothing).as_millis() - 110.0).abs() < 1e-9);
        assert_eq!(a.invocations(KernelId::PidControl), 1);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", KernelTimer::new()).is_empty());
    }
}
