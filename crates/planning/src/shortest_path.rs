//! Sampling-based shortest-path planners: RRT and PRM + A*.
//!
//! These are the OMPL substitutes. Both planners operate on the occupancy map
//! through the [`CollisionChecker`] and return a piecewise-linear sequence of
//! waypoints from start to goal; the smoothing kernel later converts the
//! waypoints into a dynamically feasible trajectory.

use crate::collision::CollisionChecker;
use mav_perception::OctoMap;
use mav_types::{Aabb, MavError, PointGrid, Result, Vec3};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::{BinaryHeap, HashMap};

/// Reusable per-thread planning buffers: the RRT tree (nodes + parents), the
/// PRM roadmap (vertices + adjacency lists), the radius-query candidate
/// staging vector and the bucket index. [`ShortestPathPlanner`] is a
/// plain-data config (it serializes and compares), so its working memory
/// lives here instead: one warm set per worker thread, handed to every plan
/// call on that thread. Reuse is behaviour-transparent — each plan clears the
/// buffers and [`PointGrid::reset`] restores the exact fresh-grid state — so
/// planned paths are identical to a cold run (the determinism test pins
/// this).
#[derive(Default)]
struct PlanScratch {
    nodes: Vec<Vec3>,
    parents: Vec<usize>,
    vertices: Vec<Vec3>,
    adjacency: Vec<Vec<(usize, f64)>>,
    candidates: Vec<u32>,
    grid: Option<PointGrid>,
}

thread_local! {
    static PLAN_SCRATCH: RefCell<PlanScratch> = RefCell::new(PlanScratch::default());
}

/// Runs `f` with this thread's planning scratch. The scratch is moved out for
/// the duration of the call (a nested plan simply gets a fresh one), so there
/// is no aliasing even if a collision callback re-enters the planner.
fn with_plan_scratch<R>(f: impl FnOnce(&mut PlanScratch) -> R) -> R {
    PLAN_SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let result = f(&mut scratch);
        *cell.borrow_mut() = scratch;
        result
    })
}

/// Which sampling-based planner to use (the "plug and play" knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlannerKind {
    /// Rapidly-exploring random tree.
    Rrt,
    /// Probabilistic roadmap searched with A*.
    PrmAstar,
}

/// RRT extension step length, metres; the PRM connects vertices within 2.5
/// steps.
const STEP: f64 = 2.5;
/// Maximum number of samples before giving up (the PRM draws an eighth of
/// them, between 50 and 600, as roadmap vertices).
const MAX_SAMPLES: usize = 4000;
/// Probability of sampling the goal directly (RRT goal bias).
const GOAL_BIAS: f64 = 0.1;
/// Distance at which the goal counts as reached, metres.
const GOAL_TOLERANCE: f64 = 1.0;

/// Configuration shared by the shortest-path planners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Which algorithm to run.
    pub kind: PlannerKind,
    /// Sampling region.
    pub bounds: Aabb,
    /// RNG seed.
    pub seed: u64,
}

impl PlannerConfig {
    /// A planner of `kind` sampling `bounds`, with seed 7.
    pub fn new(kind: PlannerKind, bounds: Aabb) -> Self {
        PlannerConfig {
            kind,
            bounds,
            seed: 7,
        }
    }

    /// Overrides the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A piecewise-linear, collision-free path.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedPath {
    /// Waypoints from start to goal inclusive.
    pub waypoints: Vec<Vec3>,
    /// Number of samples the planner drew.
    pub samples_used: usize,
}

impl PlannedPath {
    /// Geometric length of the path in metres.
    pub fn length(&self) -> f64 {
        self.waypoints
            .windows(2)
            .map(|w| w[0].distance(&w[1]))
            .sum()
    }

    /// Shortcut pass: repeatedly removes intermediate waypoints whose
    /// bypassing segment is collision-free. This is the first half of the
    /// path-smoothing kernel.
    pub fn shortcut(&self, map: &OctoMap, checker: &CollisionChecker) -> PlannedPath {
        if self.waypoints.len() <= 2 {
            return self.clone();
        }
        let mut out = vec![self.waypoints[0]];
        let mut i = 0;
        while i + 1 < self.waypoints.len() {
            // Greedily find the farthest waypoint reachable in a straight line.
            let mut j = self.waypoints.len() - 1;
            while j > i + 1 {
                if checker.segment_free(map, &self.waypoints[i], &self.waypoints[j]) {
                    break;
                }
                j -= 1;
            }
            out.push(self.waypoints[j]);
            i = j;
        }
        PlannedPath {
            waypoints: out,
            samples_used: self.samples_used,
        }
    }
}

/// The shortest-path planner.
///
/// # Example
///
/// ```
/// use mav_perception::OctoMap;
/// use mav_planning::{CollisionChecker, PlannerConfig, PlannerKind, ShortestPathPlanner};
/// use mav_types::{Aabb, Vec3};
///
/// let map = OctoMap::new(0.5, 32.0);
/// let bounds = Aabb::new(Vec3::new(-20.0, -20.0, 0.5), Vec3::new(20.0, 20.0, 5.0));
/// let planner = ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::Rrt, bounds));
/// let checker = CollisionChecker::new(0.33);
/// let path = planner
///     .plan(&map, &checker, Vec3::new(0.0, 0.0, 2.0), Vec3::new(10.0, 5.0, 2.0))
///     .unwrap();
/// assert!(path.length() >= 11.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPathPlanner {
    config: PlannerConfig,
}

impl ShortestPathPlanner {
    /// Creates a planner.
    pub fn new(config: PlannerConfig) -> Self {
        ShortestPathPlanner { config }
    }

    /// The planner configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Plans a collision-free path from `start` to `goal`.
    ///
    /// # Errors
    ///
    /// Returns [`MavError::PlanningFailed`] when the start or goal is blocked
    /// or the sample budget is exhausted without connecting them.
    pub fn plan(
        &self,
        map: &OctoMap,
        checker: &CollisionChecker,
        start: Vec3,
        goal: Vec3,
    ) -> Result<PlannedPath> {
        if !checker.point_free(map, &start) {
            return Err(MavError::planning_failed(
                self.name(),
                "start position is in collision",
            ));
        }
        if !checker.point_free(map, &goal) {
            return Err(MavError::planning_failed(
                self.name(),
                "goal position is in collision",
            ));
        }
        match self.config.kind {
            PlannerKind::Rrt => self.plan_rrt(map, checker, start, goal),
            PlannerKind::PrmAstar => self.plan_prm(map, checker, start, goal),
        }
    }

    fn name(&self) -> &'static str {
        match self.config.kind {
            PlannerKind::Rrt => "rrt",
            PlannerKind::PrmAstar => "prm-astar",
        }
    }

    fn sample(&self, rng: &mut ChaCha8Rng, goal: &Vec3) -> Vec3 {
        if rng.gen_range(0.0..1.0) < GOAL_BIAS {
            return *goal;
        }
        let b = &self.config.bounds;
        Vec3::new(
            rng.gen_range(b.min.x..=b.max.x),
            rng.gen_range(b.min.y..=b.max.y),
            rng.gen_range(b.min.z..=b.max.z),
        )
    }

    fn plan_rrt(
        &self,
        map: &OctoMap,
        checker: &CollisionChecker,
        start: Vec3,
        goal: Vec3,
    ) -> Result<PlannedPath> {
        with_plan_scratch(|scratch| self.plan_rrt_with(map, checker, start, goal, scratch))
    }

    fn plan_rrt_with(
        &self,
        map: &OctoMap,
        checker: &CollisionChecker,
        start: Vec3,
        goal: Vec3,
        scratch: &mut PlanScratch,
    ) -> Result<PlannedPath> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let PlanScratch {
            nodes,
            parents,
            grid,
            ..
        } = scratch;
        nodes.clear();
        nodes.push(start);
        parents.clear();
        parents.push(0);
        // Bucket index over the tree nodes, sized by the extension step (the
        // distance nearest-neighbour queries typically resolve at). Exact,
        // so the grown tree is identical to the linear-scan tree of the
        // tests' oracle.
        let mut index = reset_grid(grid, &self.config.bounds, STEP);
        index.insert(start);
        let mut found: Option<PlannedPath> = None;
        for sample_count in 0..MAX_SAMPLES {
            let target = self.sample(&mut rng, &goal);
            // Nearest node in the tree.
            let nearest_idx = index.nearest(&target).expect("tree is never empty");
            let nearest = nodes[nearest_idx];
            // Extend one step towards the sample.
            let dist = nearest.distance(&target);
            let new = if dist <= STEP {
                target
            } else {
                nearest + (target - nearest).normalized() * STEP
            };
            if !checker.point_free(map, &new) || !checker.segment_free(map, &nearest, &new) {
                continue;
            }
            nodes.push(new);
            parents.push(nearest_idx);
            index.insert(new);
            // Goal check.
            if new.distance(&goal) <= GOAL_TOLERANCE && checker.segment_free(map, &new, &goal) {
                let mut waypoints = vec![goal];
                let mut idx = nodes.len() - 1;
                loop {
                    waypoints.push(nodes[idx]);
                    if idx == 0 {
                        break;
                    }
                    idx = parents[idx];
                }
                waypoints.reverse();
                found = Some(PlannedPath {
                    waypoints,
                    samples_used: sample_count + 1,
                });
                break;
            }
        }
        // Park the bucket index back in the scratch for the next plan.
        *grid = Some(index);
        found.ok_or_else(|| {
            MavError::planning_failed("rrt", format!("no path within {MAX_SAMPLES} samples"))
        })
    }

    fn plan_prm(
        &self,
        map: &OctoMap,
        checker: &CollisionChecker,
        start: Vec3,
        goal: Vec3,
    ) -> Result<PlannedPath> {
        with_plan_scratch(|scratch| self.plan_prm_with(map, checker, start, goal, scratch))
    }

    fn plan_prm_with(
        &self,
        map: &OctoMap,
        checker: &CollisionChecker,
        start: Vec3,
        goal: Vec3,
        scratch: &mut PlanScratch,
    ) -> Result<PlannedPath> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let PlanScratch {
            vertices,
            adjacency,
            candidates,
            grid,
            ..
        } = scratch;
        // Roadmap vertices: start, goal and free-space samples.
        vertices.clear();
        vertices.push(start);
        vertices.push(goal);
        let roadmap_size = (MAX_SAMPLES / 8).clamp(50, 600);
        let mut attempts = 0usize;
        while vertices.len() < roadmap_size + 2 && attempts < MAX_SAMPLES {
            attempts += 1;
            let p = self.sample(&mut rng, &goal);
            if checker.point_free(map, &p) {
                vertices.push(p);
            }
        }
        // Connect each vertex to its neighbours within the connection radius.
        // The bucket index generates only the candidate pairs whose buckets
        // overlap the radius ball, and the distance test is hoisted before
        // any map work, so `segment_free` runs exclusively on pairs that are
        // actually connectable. Candidate indices are sorted ascending so the
        // adjacency lists are built in exactly the order of the all-pairs
        // loop of the tests' oracle (A* tie-breaking depends on it).
        let radius = STEP * 2.5;
        for list in adjacency.iter_mut() {
            list.clear();
        }
        adjacency.resize_with(vertices.len(), Vec::new);
        let mut index = reset_grid(grid, &self.config.bounds, radius);
        for v in vertices.iter() {
            index.insert(*v);
        }
        for i in 0..vertices.len() {
            candidates.clear();
            index.candidates_within(&vertices[i], radius, candidates);
            candidates.sort_unstable();
            for &j in candidates.iter() {
                let j = j as usize;
                if j <= i {
                    continue;
                }
                let d = vertices[i].distance(&vertices[j]);
                if d <= radius && checker.segment_free(map, &vertices[i], &vertices[j]) {
                    adjacency[i].push((j, d));
                    adjacency[j].push((i, d));
                }
            }
        }
        // A* from vertex 0 (start) to vertex 1 (goal).
        let found = astar(vertices, adjacency, 0, 1);
        // Park the bucket index back in the scratch for the next plan.
        *grid = Some(index);
        let path_indices = found.ok_or_else(|| {
            MavError::planning_failed("prm-astar", "roadmap does not connect start and goal")
        })?;
        let waypoints = path_indices.into_iter().map(|i| vertices[i]).collect();
        Ok(PlannedPath {
            waypoints,
            samples_used: attempts,
        })
    }
}

/// The scratch's bucket index reset to `bounds` and `cell`, or a new one on
/// the thread's first plan. Reset and new give the same grid.
fn reset_grid(slot: &mut Option<PointGrid>, bounds: &Aabb, cell: f64) -> PointGrid {
    match slot.take() {
        Some(mut grid) => {
            grid.reset(bounds, cell);
            grid
        }
        None => PointGrid::new(bounds, cell),
    }
}

/// A* over an explicit graph. Returns the vertex indices of the optimal path.
fn astar(
    vertices: &[Vec3],
    adjacency: &[Vec<(usize, f64)>],
    start: usize,
    goal: usize,
) -> Option<Vec<usize>> {
    #[derive(PartialEq)]
    struct Frontier {
        f: f64,
        node: usize,
    }
    impl Eq for Frontier {}
    impl Ord for Frontier {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse ordering: BinaryHeap is a max-heap, we need the min f.
            // `total_cmp` ≡ the historical `partial_cmp().unwrap_or(Equal)`
            // for the finite non-negative f-costs this heap holds (g sums
            // finite edge lengths, h is a distance); unlike the old
            // comparator it cannot silently mis-order a NaN either.
            other.f.total_cmp(&self.f)
        }
    }
    impl PartialOrd for Frontier {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let h = |i: usize| vertices[i].distance(&vertices[goal]);
    let mut open = BinaryHeap::new();
    let mut g: HashMap<usize, f64> = HashMap::new();
    let mut came_from: HashMap<usize, usize> = HashMap::new();
    g.insert(start, 0.0);
    open.push(Frontier {
        f: h(start),
        node: start,
    });
    while let Some(Frontier { node, .. }) = open.pop() {
        if node == goal {
            let mut path = vec![goal];
            let mut current = goal;
            while let Some(&prev) = came_from.get(&current) {
                path.push(prev);
                current = prev;
            }
            path.reverse();
            return Some(path);
        }
        let node_g = g[&node];
        for &(next, cost) in &adjacency[node] {
            let tentative = node_g + cost;
            if tentative < *g.get(&next).unwrap_or(&f64::INFINITY) {
                g.insert(next, tentative);
                came_from.insert(next, node);
                open.push(Frontier {
                    f: tentative + h(next),
                    node: next,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Aabb {
        Aabb::new(Vec3::new(-25.0, -25.0, 0.5), Vec3::new(25.0, 25.0, 6.0))
    }

    /// A map with a long wall at x = 8 blocking y ∈ [-10, 10], with open space
    /// around its ends.
    fn wall_map() -> OctoMap {
        let mut map = OctoMap::new(0.5, 32.0);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        for i in -20..=20 {
            for z in [0.5, 1.5, 2.5, 3.5, 4.5, 5.5] {
                map.insert_ray(&origin, &Vec3::new(8.0, i as f64 * 0.5, z));
            }
        }
        map
    }

    /// The planners before the bucket index, kept as its oracle: RRT finds
    /// each nearest node by a linear scan over the tree, PRM tests every
    /// vertex pair. Sampling, collision checks and A* are the shipped
    /// planner's own. `None` wherever [`ShortestPathPlanner::plan`] fails.
    fn plan_without_index(
        planner: &ShortestPathPlanner,
        map: &OctoMap,
        checker: &CollisionChecker,
        start: Vec3,
        goal: Vec3,
    ) -> Option<PlannedPath> {
        if !checker.point_free(map, &start) || !checker.point_free(map, &goal) {
            return None;
        }
        let config = planner.config;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        if config.kind == PlannerKind::Rrt {
            let (mut nodes, mut parents) = (vec![start], vec![0]);
            for sample_count in 0..MAX_SAMPLES {
                let target = planner.sample(&mut rng, &goal);
                let nearest_idx = nodes
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        a.1.distance_squared(&target)
                            .total_cmp(&b.1.distance_squared(&target))
                    })
                    .map(|(i, _)| i)
                    .expect("tree is never empty");
                let nearest = nodes[nearest_idx];
                let new = if nearest.distance(&target) <= STEP {
                    target
                } else {
                    nearest + (target - nearest).normalized() * STEP
                };
                if !checker.point_free(map, &new) || !checker.segment_free(map, &nearest, &new) {
                    continue;
                }
                nodes.push(new);
                parents.push(nearest_idx);
                if new.distance(&goal) <= GOAL_TOLERANCE && checker.segment_free(map, &new, &goal) {
                    let mut waypoints = vec![goal];
                    let mut idx = nodes.len() - 1;
                    loop {
                        waypoints.push(nodes[idx]);
                        if idx == 0 {
                            break;
                        }
                        idx = parents[idx];
                    }
                    waypoints.reverse();
                    return Some(PlannedPath {
                        waypoints,
                        samples_used: sample_count + 1,
                    });
                }
            }
            return None;
        }
        let mut vertices = vec![start, goal];
        let roadmap_size = (MAX_SAMPLES / 8).clamp(50, 600);
        let mut attempts = 0usize;
        while vertices.len() < roadmap_size + 2 && attempts < MAX_SAMPLES {
            attempts += 1;
            let p = planner.sample(&mut rng, &goal);
            if checker.point_free(map, &p) {
                vertices.push(p);
            }
        }
        let radius = STEP * 2.5;
        let mut adjacency = vec![Vec::new(); vertices.len()];
        for i in 0..vertices.len() {
            for j in (i + 1)..vertices.len() {
                let d = vertices[i].distance(&vertices[j]);
                if d <= radius && checker.segment_free(map, &vertices[i], &vertices[j]) {
                    adjacency[i].push((j, d));
                    adjacency[j].push((i, d));
                }
            }
        }
        let path = astar(&vertices, &adjacency, 0, 1)?;
        Some(PlannedPath {
            waypoints: path.into_iter().map(|i| vertices[i]).collect(),
            samples_used: attempts,
        })
    }

    fn check_path(
        path: &PlannedPath,
        map: &OctoMap,
        checker: &CollisionChecker,
        start: Vec3,
        goal: Vec3,
    ) {
        assert!(path.waypoints.len() >= 2);
        assert!(path.waypoints[0].distance(&start) < 1e-9);
        assert!(path.waypoints.last().unwrap().distance(&goal) < 1e-9);
        for w in path.waypoints.windows(2) {
            assert!(
                checker.segment_free(map, &w[0], &w[1]),
                "planned segment {} -> {} collides",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn rrt_plans_in_open_space() {
        let map = OctoMap::new(0.5, 32.0);
        let checker = CollisionChecker::new(0.33);
        let planner = ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::Rrt, bounds()));
        let start = Vec3::new(0.0, 0.0, 2.0);
        let goal = Vec3::new(15.0, 10.0, 2.0);
        let path = planner.plan(&map, &checker, start, goal).unwrap();
        check_path(&path, &map, &checker, start, goal);
        assert!(path.length() >= start.distance(&goal) - 1e-6);
        assert!(path.samples_used > 0);
    }

    #[test]
    fn prm_plans_in_open_space() {
        let map = OctoMap::new(0.5, 32.0);
        let checker = CollisionChecker::new(0.33);
        let planner = ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::PrmAstar, bounds()));
        let start = Vec3::new(-10.0, -10.0, 2.0);
        let goal = Vec3::new(12.0, 8.0, 3.0);
        let path = planner.plan(&map, &checker, start, goal).unwrap();
        check_path(&path, &map, &checker, start, goal);
    }

    #[test]
    fn planners_route_around_a_wall() {
        let map = wall_map();
        let checker = CollisionChecker::new(0.33);
        let start = Vec3::new(0.0, 0.0, 2.0);
        let goal = Vec3::new(16.0, 0.0, 2.0);
        for kind in [PlannerKind::Rrt, PlannerKind::PrmAstar] {
            let planner = ShortestPathPlanner::new(PlannerConfig::new(kind, bounds()));
            let path = planner.plan(&map, &checker, start, goal).unwrap();
            check_path(&path, &map, &checker, start, goal);
            // The detour around the wall must be meaningfully longer than the
            // straight-line distance.
            assert!(
                path.length() > start.distance(&goal) + 2.0,
                "{kind:?} path suspiciously short: {}",
                path.length()
            );
        }
    }

    #[test]
    fn blocked_start_or_goal_is_an_error() {
        let map = wall_map();
        let checker = CollisionChecker::new(0.33);
        let planner = ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::Rrt, bounds()));
        let on_wall = Vec3::new(8.0, 0.0, 2.0);
        let free = Vec3::new(0.0, 0.0, 2.0);
        assert!(matches!(
            planner.plan(&map, &checker, on_wall, free),
            Err(MavError::PlanningFailed { .. })
        ));
        assert!(matches!(
            planner.plan(&map, &checker, free, on_wall),
            Err(MavError::PlanningFailed { .. })
        ));
    }

    #[test]
    fn shortcut_shortens_paths_and_stays_collision_free() {
        let map = wall_map();
        let checker = CollisionChecker::new(0.33);
        let planner =
            ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::Rrt, bounds()).with_seed(11));
        let start = Vec3::new(0.0, -5.0, 2.0);
        let goal = Vec3::new(16.0, 5.0, 2.0);
        let path = planner.plan(&map, &checker, start, goal).unwrap();
        let short = path.shortcut(&map, &checker);
        assert!(short.length() <= path.length() + 1e-9);
        assert!(short.waypoints.len() <= path.waypoints.len());
        check_path(&short, &map, &checker, start, goal);
    }

    #[test]
    fn planning_is_deterministic_for_a_fixed_seed() {
        let map = wall_map();
        let checker = CollisionChecker::new(0.33);
        let cfg = PlannerConfig::new(PlannerKind::Rrt, bounds()).with_seed(99);
        let a = ShortestPathPlanner::new(cfg)
            .plan(
                &map,
                &checker,
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::new(14.0, 3.0, 2.0),
            )
            .unwrap();
        let b = ShortestPathPlanner::new(cfg)
            .plan(
                &map,
                &checker,
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::new(14.0, 3.0, 2.0),
            )
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn warm_scratch_plans_match_a_cold_thread() {
        // The thread-local scratch must be behaviour-transparent: a plan on a
        // thread whose buffers are warm from unrelated planning equals the
        // same plan on a brand-new thread (cold scratch), for both planners.
        let map = wall_map();
        let checker = CollisionChecker::new(0.33);
        let start = Vec3::new(0.0, 0.0, 2.0);
        let goal = Vec3::new(16.0, 0.0, 2.0);
        for kind in [PlannerKind::Rrt, PlannerKind::PrmAstar] {
            let planner = ShortestPathPlanner::new(PlannerConfig::new(kind, bounds()).with_seed(5));
            let _ = planner.plan(
                &map,
                &checker,
                Vec3::new(0.0, -5.0, 2.0),
                Vec3::new(16.0, 5.0, 2.0),
            );
            let warm = planner.plan(&map, &checker, start, goal).unwrap();
            let cold_planner = planner.clone();
            let cold_map = map.clone();
            let cold = std::thread::spawn(move || {
                cold_planner
                    .plan(&cold_map, &CollisionChecker::new(0.33), start, goal)
                    .unwrap()
            })
            .join()
            .unwrap();
            assert_eq!(
                warm, cold,
                "{kind:?} diverged between warm and cold scratch"
            );
        }
    }

    /// Both planners grow bit-identical solutions with the bucket index and
    /// without it: same waypoints, same sample counts, same failures.
    #[test]
    fn planners_identical_with_and_without_index() {
        let checker = CollisionChecker::new(0.33);
        let start = Vec3::new(0.0, 0.0, 2.0);
        let goal = Vec3::new(16.0, 2.0, 2.0);
        let open = OctoMap::new(0.5, 32.0);
        let wall = wall_map();
        for seed in 0..16 {
            for kind in [PlannerKind::Rrt, PlannerKind::PrmAstar] {
                for (label, map) in [("open", &open), ("wall", &wall)] {
                    let planner = ShortestPathPlanner::new(
                        PlannerConfig::new(kind, bounds()).with_seed(seed),
                    );
                    assert_eq!(
                        planner.plan(map, &checker, start, goal).ok(),
                        plan_without_index(&planner, map, &checker, start, goal),
                        "{kind:?} diverged on the {label} map, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn astar_finds_the_cheapest_route() {
        // A small explicit graph where the direct edge is more expensive than
        // the two-hop route.
        let vertices = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::new(5.0, 1.0, 0.0),
        ];
        let adjacency = vec![
            vec![(1usize, 20.0), (2usize, 5.1)],
            vec![(0usize, 20.0), (2usize, 5.1)],
            vec![(0usize, 5.1), (1usize, 5.1)],
        ];
        let path = astar(&vertices, &adjacency, 0, 1).unwrap();
        assert_eq!(path, vec![0, 2, 1]);
        // Unreachable goal.
        let disconnected = vec![vec![], vec![]];
        assert!(astar(&vertices[..2], &disconnected, 0, 1).is_none());
    }
}
