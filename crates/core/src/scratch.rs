//! Cross-episode buffer reuse: every mission runs on its thread's map and
//! cloud buffers.
//!
//! [`crate::MissionContext::new`] takes the occupancy map and the per-frame
//! cloud buffers from this thread's [`EpisodeScratch`], resetting the map to
//! the mission's geometry with [`mav_perception::OctoMap::reset`] (or
//! building one with `OctoMap::new` on the thread's first mission), and
//! [`crate::MissionContext::finish`] hands them back. So a sweep worker, a
//! server worker or a harness thread allocates its map and buffers once and
//! keeps the last map until it exits. Reuse is *bit-transparent*: a reset map
//! and a new map are the same state, and a mission run on a warm scratch
//! reports exactly what it reports on a cold one (pinned by tests).

use mav_perception::{DownsampleScratch, OctoMap, PointCloud};
use std::cell::RefCell;

/// Reusable per-frame perception buffers: the raw depth-frame cloud, the
/// downsampling cell map and the downsampled output cloud. Owned by the
/// running [`crate::MissionContext`] and handed back to its thread's
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

/// The map and cloud buffers one thread's missions reuse.
///
/// Every thread has one, which [`crate::run_mission`] uses. A caller that
/// holds its own instance runs missions on it with
/// [`crate::apps::run_mission_with_scratch`]. A default instance is empty —
/// the first mission populates it — so the type is also the correct "cold
/// start" state.
#[derive(Debug, Default)]
pub struct EpisodeScratch {
    map: Option<OctoMap>,
    clouds: CloudScratch,
}

thread_local! {
    static EPISODE_SCRATCH: RefCell<EpisodeScratch> = RefCell::new(EpisodeScratch::default());
}

impl EpisodeScratch {
    /// An empty scratch: the first mission run with it pays the normal
    /// allocation cost and leaves its buffers behind for the next one.
    pub fn new() -> Self {
        EpisodeScratch::default()
    }

    /// This thread's map, reset to an empty map with the given geometry, and
    /// its cloud buffers.
    pub(crate) fn take(resolution: f64, half_extent: f64) -> (OctoMap, CloudScratch) {
        EPISODE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let map = match scratch.map.take() {
                Some(mut map) => {
                    map.reset(resolution, half_extent);
                    map
                }
                None => OctoMap::new(resolution, half_extent),
            };
            (map, std::mem::take(&mut scratch.clouds))
        })
    }

    /// Hands a finished mission's map and cloud buffers back to this thread.
    pub(crate) fn deposit(map: OctoMap, clouds: CloudScratch) {
        EPISODE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.map = Some(map);
            scratch.clouds = clouds;
        });
    }

    /// Runs `f` with `scratch` in place of this thread's scratch, swapping
    /// the two back afterwards.
    pub(crate) fn swapped_in<R>(scratch: &mut EpisodeScratch, f: impl FnOnce() -> R) -> R {
        let swap = |scratch: &mut EpisodeScratch| {
            EPISODE_SCRATCH.with(|cell| std::mem::swap(&mut *cell.borrow_mut(), scratch));
        };
        swap(scratch);
        let result = f();
        swap(scratch);
        result
    }
}
