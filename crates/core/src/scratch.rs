//! Cross-episode scratch reuse: the zero-realloc substrate of the
//! Monte-Carlo reliability sweep.
//!
//! Every [`crate::run_mission`] historically built a fresh
//! [`crate::MissionContext`] — a new `OctoMap` block store, new point-cloud
//! buffers, a regenerated world — and threw it all away. At reliability-sweep
//! scale (ROADMAP item 3: 10k–1M episodes) that allocation churn is the
//! bottleneck, so [`EpisodeScratch`] keeps the expensive state alive between
//! episodes: the map is [`mav_perception::OctoMap::clear`]ed (or reshaped
//! with [`mav_perception::OctoMap::reset`]) instead of reallocated, the
//! per-frame cloud buffers keep their capacity, and an identical environment
//! configuration reuses the cached pristine [`World`] instead of regenerating
//! it. Reuse is *bit-transparent*: `run_mission_with_scratch` produces the
//! exact report of `run_mission` (pinned by tests), because every reused
//! structure restores its fresh-constructed state exactly.

use mav_env::{EnvironmentConfig, World};
use mav_perception::{DownsampleScratch, OctoMap, OctoMapConfig, PointCloud};
use std::cell::RefCell;

/// Reusable per-frame perception buffers: the raw depth-frame cloud, the
/// downsampling cell map and the downsampled output cloud. Owned by the
/// running [`crate::MissionContext`] and recovered into the
/// [`EpisodeScratch`] when the mission finishes.
#[derive(Debug, Default)]
pub(crate) struct CloudScratch {
    /// Target of `PointCloud::fill_from_depth_image` for every captured frame.
    pub(crate) raw: PointCloud,
    /// Voxel-cell accumulator reused by `downsample_into`.
    pub(crate) cells: DownsampleScratch,
    /// The downsampled cloud handed to the OctoMap insertion path.
    pub(crate) downsampled: PointCloud,
}

/// Reusable cross-episode state for [`crate::apps::run_mission_with_scratch`].
///
/// One instance per worker amortises the per-episode allocations across every
/// episode that worker runs: the map's block storage and its index, the
/// point-cloud buffers, and (for repeated identical environment configs) the
/// generated world. A default instance is empty — the first episode populates
/// it — so the type is also the correct "cold start" state.
#[derive(Debug, Default)]
pub struct EpisodeScratch {
    map: Option<OctoMap>,
    clouds: CloudScratch,
    world_cache: Option<(EnvironmentConfig, World)>,
}

impl EpisodeScratch {
    /// An empty scratch: the first episode run with it pays the normal
    /// allocation cost and leaves its buffers behind for the next one.
    pub fn new() -> Self {
        EpisodeScratch::default()
    }

    /// The pristine world for `env`: a clone of the cached generation when
    /// the configuration is identical (environment generation is a pure
    /// function of its config, so the clone is bit-identical to regenerating),
    /// a fresh `generate()` otherwise. The cache keeps the latest config —
    /// sweeps that vary the environment per episode simply miss.
    pub(crate) fn world_for(&mut self, env: &EnvironmentConfig) -> World {
        if let Some((cached, world)) = &self.world_cache {
            if cached == env {
                return world.clone();
            }
        }
        let world = env.generate();
        self.world_cache = Some((env.clone(), world.clone()));
        world
    }

    /// An empty map with the given geometry, reusing the previous episode's
    /// block and index allocations when available ([`OctoMap::reset`] restores
    /// the exact fresh-map state).
    pub(crate) fn map_for(&mut self, config: OctoMapConfig, half_extent: f64) -> OctoMap {
        match self.map.take() {
            Some(mut map) => {
                map.reset(config, half_extent);
                map
            }
            None => OctoMap::new(config, half_extent),
        }
    }

    /// Hands the cloud buffers to a starting mission.
    pub(crate) fn take_clouds(&mut self) -> CloudScratch {
        std::mem::take(&mut self.clouds)
    }

    /// Recovers the reusable state from a finishing mission.
    pub(crate) fn deposit(&mut self, map: OctoMap, clouds: CloudScratch) {
        self.map = Some(map);
        self.clouds = clouds;
    }
}

thread_local! {
    static EPISODE_SCRATCH: RefCell<EpisodeScratch> = RefCell::new(EpisodeScratch::default());
}

/// Runs `f` with this worker thread's [`EpisodeScratch`] — the per-worker
/// reuse the sharded reliability sweep is built on. The scratch is moved out
/// for the duration of the call, so nested uses simply see a cold scratch.
pub fn with_episode_scratch<R>(f: impl FnOnce(&mut EpisodeScratch) -> R) -> R {
    EPISODE_SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let result = f(&mut scratch);
        *cell.borrow_mut() = scratch;
        result
    })
}
