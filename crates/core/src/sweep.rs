//! The parallel sweep subsystem: run many labelled missions at once.
//!
//! Every experiment in the paper's evaluation is a *sweep*: the same mission
//! re-run over a grid of configurations (operating points, resolution
//! policies, noise levels, cloud placements). The seed implementation ran
//! them strictly serially; [`SweepRunner`] executes the points in parallel
//! via rayon while keeping results **bit-identical to a serial run**:
//!
//! * [`run_mission`] is a pure function of its [`MissionConfig`] — no point
//!   observes another point's state;
//! * results are collected in input order regardless of which worker finished
//!   first.
//!
//! The experiment drivers in [`crate::experiments`] are all thin wrappers
//! that build a point list and hand it to a runner; harness binaries pass a
//! runner configured from `--threads`.

use crate::apps::run_mission;
use crate::config::MissionConfig;
use crate::qof::MissionReport;
use mav_types::{Json, ToJson};
use rayon::prelude::*;

/// One labelled configuration of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Human-readable label, e.g. `"4c@2.2GHz"` or `"noise 0.5 m, run 3"`.
    pub label: String,
    /// The full mission configuration to run at this point.
    pub config: MissionConfig,
}

impl SweepPoint {
    /// Creates a labelled point.
    pub fn new(label: impl Into<String>, config: MissionConfig) -> Self {
        SweepPoint {
            label: label.into(),
            config,
        }
    }
}

/// The outcome of one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The point's label.
    pub label: String,
    /// The seed the mission actually ran with.
    pub seed: u64,
    /// The mission report.
    pub report: MissionReport,
}

impl ToJson for SweepOutcome {
    fn to_json(&self) -> Json {
        Json::object()
            .field("label", self.label.as_str())
            .field("seed", self.seed)
            .field("report", self.report.to_json())
    }
}

/// The outcome of a whole sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-point outcomes, in the same order as the input points.
    pub outcomes: Vec<SweepOutcome>,
    /// Number of worker threads the sweep ran on.
    pub threads: usize,
    /// Wall-clock time of the whole sweep, seconds. Excluded from
    /// [`SweepReport::same_results`] comparisons: it varies run to run.
    ///
    /// This is the only wall-clock value in the simulation crates, and it is
    /// throughput metadata only — nothing in `outcomes` is derived from it.
    /// `mav-lint`'s DET-WALLCLOCK allowlist and the root `clippy.toml` both
    /// point at this boundary.
    pub wall_secs: f64,
}

impl SweepReport {
    /// Returns `true` when both sweeps produced identical outcomes
    /// (labels, seeds and full reports), ignoring wall-clock and thread
    /// metadata. This is the determinism contract of [`SweepRunner`].
    pub fn same_results(&self, other: &SweepReport) -> bool {
        self.outcomes == other.outcomes
    }

    /// The reports alone, in point order.
    pub fn reports(&self) -> impl Iterator<Item = &MissionReport> {
        self.outcomes.iter().map(|o| &o.report)
    }
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("threads", self.threads)
            .field("wall_secs", self.wall_secs)
            .field("outcomes", self.outcomes.to_json())
    }
}

/// SplitMix64: the mixer behind the independent per-episode scenario draws
/// of [`crate::reliability`] and the fault streams of [`crate::faults`].
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Executes a list of [`SweepPoint`]s in parallel.
///
/// # Example
///
/// ```no_run
/// use mav_compute::ApplicationId;
/// use mav_core::sweep::{SweepPoint, SweepRunner};
/// use mav_core::MissionConfig;
///
/// let points: Vec<SweepPoint> = (0..4)
///     .map(|i| SweepPoint::new(format!("run {i}"), MissionConfig::fast_test(ApplicationId::Scanning)))
///     .collect();
/// let report = SweepRunner::new().with_threads(4).run(points);
/// assert_eq!(report.outcomes.len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SweepRunner {
    threads: Option<usize>,
}

impl SweepRunner {
    /// A runner using every available core.
    pub fn new() -> Self {
        SweepRunner::default()
    }

    /// Pins the worker thread count (`0` or omitted: all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// The worker thread count this runner will use.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// Runs every point and collects the outcomes in input order.
    pub fn run(&self, points: Vec<SweepPoint>) -> SweepReport {
        let threads = self.threads();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("sweep thread pool");
        // Wall-clock boundary (audited): this Instant times the host-side
        // sweep for `wall_secs` throughput metadata and never reaches the
        // mission outcomes — every value in `outcomes` is produced by
        // `run_mission` on the simulated clock. This file is on
        // mav-lint's DET-WALLCLOCK allowlist and clippy's disallowed-methods
        // list is waived here for the same reason.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let outcomes: Vec<SweepOutcome> = pool.install(|| {
            points
                .par_iter()
                .map(|point| SweepOutcome {
                    label: point.label.clone(),
                    seed: point.config.seed,
                    report: run_mission(point.config.clone()),
                })
                .collect()
        });
        SweepReport {
            outcomes,
            threads,
            wall_secs: started.elapsed().as_secs_f64(),
        }
    }

    /// Runs `episodes` episodes as fixed contiguous shards of at most
    /// `shard_size`, mapping each shard through `shard` on this runner's
    /// worker pool and returning the per-shard results **in shard order**.
    ///
    /// The shard boundaries depend only on `episodes` and `shard_size` —
    /// never on the thread count — and results come back in input order, so
    /// any shard-order fold over the returned accumulators (including
    /// floating-point sums) is bit-identical at every thread count. This is
    /// the determinism backbone of the Monte-Carlo reliability sweep.
    pub fn run_sharded<A: Send>(
        &self,
        episodes: u64,
        shard_size: u64,
        shard: impl Fn(std::ops::Range<u64>) -> A + Sync,
    ) -> Vec<A> {
        assert!(shard_size > 0, "shard_size must be positive");
        let ranges: Vec<std::ops::Range<u64>> = (0..episodes)
            .step_by(shard_size.min(usize::MAX as u64) as usize)
            .map(|start| start..(start + shard_size).min(episodes))
            .collect();
        rayon::parallel_map_slice(&ranges, self.threads(), |range| shard(range.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_config;
    use mav_compute::ApplicationId;

    fn tiny_points(n: usize) -> Vec<SweepPoint> {
        (0..n)
            .map(|i| {
                let mut cfg = quick_config(MissionConfig::fast_test(ApplicationId::Scanning))
                    .with_seed(100 + i as u64);
                cfg.environment.extent = 18.0;
                SweepPoint::new(format!("point {i}"), cfg)
            })
            .collect()
    }

    #[test]
    fn outcomes_keep_input_order_and_labels() {
        let report = SweepRunner::new().with_threads(2).run(tiny_points(3));
        assert_eq!(report.threads, 2);
        assert_eq!(
            report
                .outcomes
                .iter()
                .map(|o| o.label.as_str())
                .collect::<Vec<_>>(),
            vec!["point 0", "point 1", "point 2"]
        );
        assert!(report.wall_secs >= 0.0);
    }

    #[test]
    fn reports_are_bit_identical_across_thread_counts() {
        let serial = SweepRunner::new().with_threads(1).run(tiny_points(4));
        for threads in [2, 3, 8] {
            let parallel = SweepRunner::new().with_threads(threads).run(tiny_points(4));
            assert!(
                serial.same_results(&parallel),
                "diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn sweep_report_serializes_to_json() {
        let report = SweepRunner::new().with_threads(1).run(tiny_points(1));
        let json = report.to_json();
        let rendered = json.to_string_pretty();
        assert!(rendered.contains("\"outcomes\""));
        assert!(rendered.contains("\"mission_time_secs\""));
        let outcomes = json.get("outcomes").and_then(Json::as_array).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(
            outcomes[0].get("label").and_then(Json::as_str),
            Some("point 0")
        );
    }
}
