//! Frontier-exploration planning (next-best-view substitute).
//!
//! 3D Mapping and Search and Rescue do not fly to a fixed goal: they sample
//! the occupancy map for *frontiers* — free voxels adjacent to unknown space —
//! and repeatedly fly towards the most promising one until no frontiers
//! remain (the area is mapped) or the mission goal (a detected person) is
//! reached. The selection heuristic mirrors the paper's description: prefer
//! short paths with high exploratory promise.

use crate::collision::CollisionChecker;
use crate::shortest_path::{PlannedPath, ShortestPathPlanner};
use crate::spatial::PointGrid;
use mav_perception::OctoMap;
use mav_types::{MavError, Result, Vec3};
use std::cell::RefCell;

thread_local! {
    /// Per-thread working state for frontier extraction, which ticks once per
    /// replan: the free-voxel-centre query alone runs to tens of thousands of
    /// points on a partially mapped world, and the clustering pass behind it
    /// used to rebuild a [`PointGrid`] (dense bucket array included) plus one
    /// member `Vec` per cluster every call. Reusing all of it makes a replan
    /// allocation-free in the steady state.
    static SCRATCH: RefCell<FrontierScratch> = RefCell::new(FrontierScratch::default());
}

/// Reusable buffers for one frontier extraction (see [`SCRATCH`]).
#[derive(Debug, Default)]
struct FrontierScratch {
    /// Free-voxel centres straight from the map.
    centers: Vec<Vec3>,
    /// Altitude-banded frontier candidates (subsampled in place when large).
    points: Vec<Vec3>,
    /// Radius index over the clustered points, rebuilt by `PointGrid::reset`.
    grid: Option<PointGrid>,
    /// Cluster id of each indexed point, by insertion order.
    cluster_of: Vec<u32>,
    /// Candidate buffer for the radius queries.
    candidates: Vec<u32>,
    /// Cluster member pool: a call's clusters are the first `active` entries
    /// (see [`FrontierExplorer::cluster_into`]); entries past that are spares
    /// from earlier calls kept for their capacity.
    clusters: Vec<Vec<Vec3>>,
}

/// A cluster of frontier voxels.
#[derive(Debug, Clone, PartialEq)]
pub struct Frontier {
    /// Representative point of the cluster (centroid snapped to a member).
    pub center: Vec3,
    /// Number of frontier voxels in the cluster — the exploratory promise.
    pub size: usize,
}

/// Configuration of the frontier explorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierConfig {
    /// Voxels whose centres are closer than this are clustered together.
    pub cluster_radius: f64,
    /// Frontiers below this size are ignored (sensor noise).
    pub min_cluster_size: usize,
    /// Weight of distance in the utility function (higher = prefer closer
    /// frontiers more strongly).
    pub distance_weight: f64,
    /// Minimum altitude of considered frontiers (keeps the explorer off the
    /// floor).
    pub min_altitude: f64,
    /// Maximum altitude of considered frontiers.
    pub max_altitude: f64,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig {
            cluster_radius: 3.0,
            min_cluster_size: 2,
            distance_weight: 1.0,
            min_altitude: 0.5,
            max_altitude: 8.0,
        }
    }
}

/// The frontier-exploration planner.
///
/// # Example
///
/// ```
/// use mav_perception::{OctoMap, OctoMapConfig, PointCloud};
/// use mav_planning::{FrontierConfig, FrontierExplorer};
/// use mav_types::Vec3;
///
/// let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.5), 32.0);
/// let cloud = PointCloud::new(
///     Vec3::new(0.0, 0.0, 2.0),
///     vec![Vec3::new(8.0, 0.0, 2.0), Vec3::new(8.0, 2.0, 2.0)],
/// );
/// map.insert_point_cloud(&cloud);
/// let explorer = FrontierExplorer::new(FrontierConfig::default());
/// assert!(!explorer.find_frontiers(&map).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierExplorer {
    config: FrontierConfig,
}

impl FrontierExplorer {
    /// Creates an explorer.
    pub fn new(config: FrontierConfig) -> Self {
        FrontierExplorer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FrontierConfig {
        &self.config
    }

    /// Finds and clusters the frontiers of the map: free voxels with at least
    /// one unknown 6-neighbour, grouped by proximity.
    pub fn find_frontiers(&self, map: &OctoMap) -> Vec<Frontier> {
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            map.free_voxel_centers_into(&mut scratch.centers);
            scratch.points.clear();
            for &center in scratch.centers.iter() {
                if center.z < self.config.min_altitude || center.z > self.config.max_altitude {
                    continue;
                }
                // Six hash-indexed bit tests against the known-voxel block
                // index — decision-identical to probing `center ± resolution`
                // per axis with `is_unknown`, minus six octree descents.
                if map.has_unknown_neighbor6(&center) {
                    scratch.points.push(center);
                }
            }
            // Bound the clustering cost on very large maps: a uniform stride
            // keeps a representative subset (frontier clusters are spatially
            // extended, so subsampling preserves them). In place — same
            // elements as a `step_by(stride)` collect.
            const MAX_FRONTIER_POINTS: usize = 1200;
            if scratch.points.len() > MAX_FRONTIER_POINTS {
                let stride = scratch.points.len() / MAX_FRONTIER_POINTS + 1;
                let mut kept = 0;
                let mut i = 0;
                while i < scratch.points.len() {
                    scratch.points[kept] = scratch.points[i];
                    kept += 1;
                    i += stride;
                }
                scratch.points.truncate(kept);
            }
            let FrontierScratch {
                points,
                grid,
                cluster_of,
                candidates,
                clusters,
                ..
            } = scratch;
            let active = self.cluster_into(map, points, grid, cluster_of, candidates, clusters);
            let mut frontiers: Vec<Frontier> = clusters[..active]
                .iter()
                .filter(|c| c.len() >= self.config.min_cluster_size)
                .map(|c| {
                    let centroid = c.iter().fold(Vec3::ZERO, |acc, p| acc + *p) / c.len() as f64;
                    // Snap the representative to the member nearest the
                    // centroid so it is guaranteed to be a free voxel centre.
                    // `total_cmp` ≡ the historical `partial_cmp().expect()`
                    // here: squared distances are finite and non-negative, so
                    // the only values the comparators order differently
                    // (NaN, ±0.0 — distance² of +0.0 has one bit pattern)
                    // never reach it, and it cannot panic.
                    let center = c
                        .iter()
                        .copied()
                        .min_by(|a, b| {
                            a.distance_squared(&centroid)
                                .total_cmp(&b.distance_squared(&centroid))
                        })
                        .expect("cluster non-empty");
                    Frontier {
                        center,
                        size: c.len(),
                    }
                })
                .collect();
            frontiers.sort_by_key(|f| std::cmp::Reverse(f.size));
            frontiers
        })
    }

    /// Greedy proximity clustering through the [`PointGrid`] radius index:
    /// each point joins the earliest-created cluster owning a member within
    /// `cluster_radius`, or starts a new one. Identical to the reference
    /// all-clusters scan (see [`FrontierExplorer::cluster_reference`]) — the
    /// grid's radius candidates are a superset that is re-tested with the
    /// exact member-distance predicate, and "first cluster in creation order
    /// with a match" is "minimum cluster id over all matches".
    ///
    /// All working state is caller-owned so a replan reuses it: the clusters
    /// land in the first `active` entries of `clusters` (the return value),
    /// each recycled from the pool with its capacity intact; entries past
    /// `active` are leftover spares and are not part of the result.
    fn cluster_into(
        &self,
        map: &OctoMap,
        points: &[Vec3],
        grid_slot: &mut Option<PointGrid>,
        cluster_of: &mut Vec<u32>,
        candidates: &mut Vec<u32>,
        clusters: &mut Vec<Vec<Vec3>>,
    ) -> usize {
        let cell = self.config.cluster_radius.max(1e-6);
        let grid = match grid_slot {
            Some(grid) => {
                grid.reset(&map.domain(), cell);
                grid
            }
            None => grid_slot.insert(PointGrid::new(&map.domain(), cell)),
        };
        cluster_of.clear();
        let mut active = 0usize;
        for &p in points {
            candidates.clear();
            grid.candidates_within(&p, self.config.cluster_radius, candidates);
            // Min matching cluster id with an exact prune: a candidate whose
            // id is not below the running min cannot change the result, so
            // its (sqrt-paying) distance test is skipped. Frontier shells are
            // dense — after the first match almost every later candidate
            // shares that cluster and costs one integer compare.
            let mut joined: Option<u32> = None;
            for &i in candidates.iter() {
                let id = cluster_of[i as usize];
                if joined.is_some_and(|j| id >= j) {
                    continue;
                }
                if grid.point(i as usize).distance(&p) <= self.config.cluster_radius {
                    joined = Some(id);
                }
            }
            let id = match joined {
                Some(id) => {
                    clusters[id as usize].push(p);
                    id
                }
                None => {
                    if active == clusters.len() {
                        clusters.push(Vec::new());
                    }
                    clusters[active].clear();
                    clusters[active].push(p);
                    active += 1;
                    (active - 1) as u32
                }
            };
            grid.insert(p);
            cluster_of.push(id);
        }
        active
    }

    /// [`FrontierExplorer::cluster_into`] with owned state, for the
    /// differential tests against [`FrontierExplorer::cluster_reference`].
    #[cfg(test)]
    fn cluster(&self, map: &OctoMap, points: &[Vec3]) -> Vec<Vec<Vec3>> {
        let mut grid = None;
        let mut cluster_of = Vec::new();
        let mut candidates = Vec::new();
        let mut clusters = Vec::new();
        let active = self.cluster_into(
            map,
            points,
            &mut grid,
            &mut cluster_of,
            &mut candidates,
            &mut clusters,
        );
        clusters.truncate(active);
        clusters
    }

    /// The pre-index greedy clustering, kept as the differential oracle for
    /// [`FrontierExplorer::cluster`]: scan existing clusters in creation
    /// order and join the first with any member within `cluster_radius`.
    #[cfg(test)]
    fn cluster_reference(&self, points: &[Vec3]) -> Vec<Vec<Vec3>> {
        let mut clusters: Vec<Vec<Vec3>> = Vec::new();
        for &p in points {
            match clusters.iter_mut().find(|c| {
                c.iter()
                    .any(|q| q.distance(&p) <= self.config.cluster_radius)
            }) {
                Some(cluster) => cluster.push(p),
                None => clusters.push(vec![p]),
            }
        }
        clusters
    }

    /// Picks the best frontier from `position` using the utility
    /// `size / (1 + w · distance)` — high exploratory promise, short path.
    pub fn select_frontier(&self, map: &OctoMap, position: &Vec3) -> Option<Frontier> {
        // `total_cmp` ≡ the historical `partial_cmp().expect()`: utilities
        // are strictly positive finite (size ≥ 1, denominator ≥ 1), so the
        // NaN/±0.0 cases where the comparators differ cannot occur.
        self.find_frontiers(map).into_iter().max_by(|a, b| {
            let ua =
                a.size as f64 / (1.0 + self.config.distance_weight * a.center.distance(position));
            let ub =
                b.size as f64 / (1.0 + self.config.distance_weight * b.center.distance(position));
            ua.total_cmp(&ub)
        })
    }

    /// Plans a path from `position` to the best frontier using the given
    /// shortest-path planner.
    ///
    /// # Errors
    ///
    /// Returns [`MavError::PlanningFailed`] when no frontier exists (the map
    /// is complete) or no frontier is reachable.
    pub fn plan_exploration(
        &self,
        map: &OctoMap,
        checker: &CollisionChecker,
        planner: &ShortestPathPlanner,
        position: Vec3,
    ) -> Result<(Frontier, PlannedPath)> {
        let frontiers = self.find_frontiers(map);
        if frontiers.is_empty() {
            return Err(MavError::planning_failed("frontier", "no frontiers remain"));
        }
        // Try frontiers in descending utility order until one is reachable.
        let mut ranked = frontiers;
        // Same comparator-equivalence argument as `select_frontier`: strictly
        // positive finite utilities, so `total_cmp` orders identically.
        ranked.sort_by(|a, b| {
            let ua =
                a.size as f64 / (1.0 + self.config.distance_weight * a.center.distance(&position));
            let ub =
                b.size as f64 / (1.0 + self.config.distance_weight * b.center.distance(&position));
            ub.total_cmp(&ua)
        });
        for frontier in ranked {
            if let Ok(path) = planner.plan(map, checker, position, frontier.center) {
                return Ok((frontier, path));
            }
        }
        Err(MavError::planning_failed(
            "frontier",
            "no reachable frontier",
        ))
    }
}

impl Default for FrontierExplorer {
    fn default() -> Self {
        FrontierExplorer::new(FrontierConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_path::{PlannerConfig, PlannerKind};
    use mav_perception::{OctoMapConfig, PointCloud};
    use mav_types::Aabb;

    /// Builds a partially observed map by scanning from the origin towards +x.
    fn partial_map() -> OctoMap {
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.5), 32.0);
        let origin = Vec3::new(0.0, 0.0, 2.0);
        let mut points = Vec::new();
        for i in -10..=10 {
            points.push(Vec3::new(12.0, i as f64 * 0.5, 2.0));
        }
        map.insert_point_cloud(&PointCloud::new(origin, points));
        map
    }

    #[test]
    fn frontiers_exist_at_the_edge_of_known_space() {
        let map = partial_map();
        let explorer = FrontierExplorer::default();
        let frontiers = explorer.find_frontiers(&map);
        assert!(!frontiers.is_empty());
        // Every reported frontier centre is a known-free voxel.
        for f in &frontiers {
            assert!(!map.is_unknown(&f.center));
            assert!(f.size >= explorer.config().min_cluster_size);
        }
    }

    #[test]
    fn empty_map_has_no_frontiers() {
        let map = OctoMap::new(OctoMapConfig::default(), 32.0);
        let explorer = FrontierExplorer::default();
        assert!(explorer.find_frontiers(&map).is_empty());
        assert!(explorer.select_frontier(&map, &Vec3::ZERO).is_none());
    }

    #[test]
    fn selection_prefers_nearby_large_clusters() {
        let map = partial_map();
        let explorer = FrontierExplorer::default();
        let selected = explorer
            .select_frontier(&map, &Vec3::new(0.0, 0.0, 2.0))
            .unwrap();
        // The selected frontier must not be the farthest-away tiny cluster:
        // its utility must be at least that of every other frontier.
        let all = explorer.find_frontiers(&map);
        let utility =
            |f: &Frontier| f.size as f64 / (1.0 + f.center.distance(&Vec3::new(0.0, 0.0, 2.0)));
        for f in &all {
            assert!(utility(&selected) >= utility(f) - 1e-9);
        }
    }

    #[test]
    fn exploration_planning_returns_a_reachable_path() {
        let map = partial_map();
        let explorer = FrontierExplorer::default();
        let checker = CollisionChecker::new(0.33);
        let bounds = Aabb::new(Vec3::new(-30.0, -30.0, 0.5), Vec3::new(30.0, 30.0, 8.0));
        let planner = ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::Rrt, bounds));
        let (frontier, path) = explorer
            .plan_exploration(&map, &checker, &planner, Vec3::new(0.0, 0.0, 2.0))
            .unwrap();
        assert!(frontier.size >= 2);
        assert!(path.waypoints.len() >= 2);
        assert!(path.waypoints.last().unwrap().distance(&frontier.center) < 1e-9);
    }

    #[test]
    fn exploration_fails_on_a_fully_unknown_map() {
        let map = OctoMap::new(OctoMapConfig::default(), 32.0);
        let explorer = FrontierExplorer::default();
        let checker = CollisionChecker::new(0.33);
        let bounds = Aabb::new(Vec3::new(-30.0, -30.0, 0.5), Vec3::new(30.0, 30.0, 8.0));
        let planner = ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::Rrt, bounds));
        assert!(matches!(
            explorer.plan_exploration(&map, &checker, &planner, Vec3::ZERO),
            Err(MavError::PlanningFailed { .. })
        ));
    }

    #[test]
    fn grid_clustering_matches_reference() {
        let map = partial_map();
        for radius in [0.75, 3.0, 9.0] {
            let explorer = FrontierExplorer::new(FrontierConfig {
                cluster_radius: radius,
                ..Default::default()
            });
            // Deterministic scattered points (xorshift), spanning several
            // cluster radii so joins, near-misses and new clusters all occur.
            let mut state = 0x9e3779b97f4a7c15u64;
            let mut unit = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let points: Vec<Vec3> = (0..400)
                .map(|_| Vec3::new(unit() * 40.0 - 20.0, unit() * 40.0 - 20.0, unit() * 6.0))
                .collect();
            assert_eq!(
                explorer.cluster(&map, &points),
                explorer.cluster_reference(&points),
                "clustering diverged at radius {radius}"
            );
        }
    }

    #[test]
    fn altitude_band_filters_frontiers() {
        let map = partial_map();
        let low_ceiling = FrontierExplorer::new(FrontierConfig {
            max_altitude: 0.4,
            min_altitude: 0.0,
            ..Default::default()
        });
        // All observed space is at z ≈ 2 m, so a 0.4 m ceiling removes it all.
        assert!(low_ceiling.find_frontiers(&map).is_empty());
    }
}
