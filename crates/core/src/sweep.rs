//! The parallel sweep subsystem: run many independent missions at once.
//!
//! Every experiment in the paper's evaluation is a *sweep*: the same mission
//! re-run over a grid of configurations (operating points, resolution
//! policies, noise levels, cloud placements) or over a stream of sampled
//! scenarios. [`SweepRunner`] executes the work in parallel via rayon while
//! keeping results **bit-identical to a serial run**:
//!
//! * [`crate::run_mission`] is a pure function of its
//!   [`crate::MissionConfig`] — no mission observes another's state;
//! * work is cut into shards that depend only on the episode count, and
//!   results are collected in shard order regardless of which worker
//!   finished first.
//!
//! Every study in [`crate::experiments`] runs its grid through
//! [`crate::experiments::study`], and the Monte-Carlo reliability sweep
//! through [`SweepRunner::run_sharded`] directly; harness binaries pass a
//! runner configured from `--threads`.

/// SplitMix64: the mixer behind the independent per-episode scenario draws
/// of [`crate::reliability`] and the fault streams of [`crate::faults`].
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runs independent work items on a fixed number of worker threads.
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

    /// Runs `episodes` episodes as fixed contiguous shards of at most
    /// `shard_size`, mapping each shard through `shard` on this runner's
    /// workers and returning the per-shard results **in shard order**.
    ///
    /// The shard boundaries depend only on `episodes` and `shard_size` —
    /// never on the thread count — and results come back in input order, so
    /// any shard-order fold over the returned accumulators (including
    /// floating-point sums) is bit-identical at every thread count. This is
    /// the determinism backbone of every sweep.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use mav_compute::ApplicationId;
    /// use mav_core::sweep::SweepRunner;
    /// use mav_core::{run_mission, MissionConfig};
    ///
    /// // One mission per shard: four seeds, results in seed order.
    /// let reports = SweepRunner::new().with_threads(4).run_sharded(4, 1, |shard| {
    ///     run_mission(MissionConfig::fast_test(ApplicationId::Scanning).with_seed(shard.start))
    /// });
    /// assert_eq!(reports.len(), 4);
    /// ```
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
