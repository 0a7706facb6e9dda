//! Criterion benches for the planning kernels: RRT / PRM planning, the
//! shortcut pass, trajectory smoothing, lawnmower coverage, swept-segment
//! collision checks against maps of increasing obstacle density, the
//! inflated-occupancy point query, and the end-to-end `replan_mode_sweep` wall
//! time.
//!
//! Every benchmark here goes through the *public* planning API, so the same
//! bench binary measures two builds: run it before and after a change and
//! pair the JSON records (that is how `BENCH_pr4.json` was produced).
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mav_core::experiments::{replan_mode_sweep, replan_scenario};
use mav_core::SweepRunner;
use mav_perception::OctoMap;
use mav_planning::{
    plan_lawnmower, CollisionChecker, LawnmowerConfig, PathSmoother, PlannerConfig, PlannerKind,
    ShortestPathPlanner, SmootherConfig,
};
use mav_types::{Aabb, SimTime, Vec3};

/// A map with a long wall at x = 8 blocking y ∈ [-10, 10] (the planner-test
/// scenario): both planners must route around it.
fn wall_map() -> OctoMap {
    let mut map = OctoMap::new(0.5, 32.0);
    let origin = Vec3::new(0.0, 0.0, 1.0);
    for i in -20..=20 {
        for z in [0.5, 1.5, 2.5, 3.5] {
            map.insert_ray(&origin, &Vec3::new(8.0, i as f64 * 0.5, z));
        }
    }
    map
}

/// A deterministic pillar field: vertical columns on a `spacing`-metre grid
/// over x, y ∈ [-24, 24], observed from a central origin. Smaller spacing
/// means a denser map and more occupied voxels near every query.
fn pillar_map(spacing: f64) -> OctoMap {
    let mut map = OctoMap::new(0.5, 32.0);
    let origin = Vec3::new(0.0, 0.0, 2.0);
    let n = (24.0 / spacing) as i64;
    for ix in -n..=n {
        for iy in -n..=n {
            if ix == 0 && iy == 0 {
                continue; // keep the sensor pillar-free
            }
            let (x, y) = (ix as f64 * spacing, iy as f64 * spacing);
            for z in [0.5, 1.5, 2.5] {
                map.insert_ray(&origin, &Vec3::new(x, y, z));
            }
        }
    }
    map
}

fn bench_plan(c: &mut Criterion) {
    let map = wall_map();
    let checker = CollisionChecker::new(0.33);
    let bounds = Aabb::new(Vec3::new(-25.0, -25.0, 0.5), Vec3::new(25.0, 25.0, 6.0));
    let start = Vec3::new(0.0, 0.0, 2.0);
    let goal = Vec3::new(16.0, 2.0, 2.0);
    let mut group = c.benchmark_group("planner_plan");
    group.sample_size(10);
    for kind in [PlannerKind::Rrt, PlannerKind::PrmAstar] {
        let label = match kind {
            PlannerKind::Rrt => "rrt",
            PlannerKind::PrmAstar => "prm",
        };
        group.bench_function(label, |b| {
            let planner = ShortestPathPlanner::new(PlannerConfig::new(kind, bounds));
            b.iter(|| planner.plan(&map, &checker, start, goal).unwrap().length())
        });
    }
    group.finish();

    let planner = ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::Rrt, bounds));
    let path = planner.plan(&map, &checker, start, goal).unwrap();
    c.bench_function("planner_shortcut", |b| {
        b.iter(|| path.shortcut(&map, &checker).length())
    });
    let smoother = PathSmoother::new(SmootherConfig::new(8.0, 5.0));
    c.bench_function("trajectory_smoothing", |b| {
        b.iter(|| {
            smoother
                .smooth(&path.waypoints, SimTime::ZERO)
                .unwrap()
                .duration_secs()
        })
    });
    c.bench_function("lawnmower_plan_100x100", |b| {
        b.iter(|| plan_lawnmower(&LawnmowerConfig::default()).unwrap().len())
    });

    // A long route: a goal across a 1 km square of open space grows the RRT
    // to 2,246 nodes (2,245 samples at the default seed), the regime where
    // nearest-neighbour cost dominates.
    let open = OctoMap::new(0.5, 510.0);
    let far = Aabb::new(Vec3::new(-500.0, -500.0, 0.5), Vec3::new(500.0, 500.0, 6.0));
    let far_start = Vec3::new(-490.0, -490.0, 2.0);
    let far_goal = Vec3::new(490.0, 490.0, 2.0);
    let mut group = c.benchmark_group("planner_rrt_long");
    group.sample_size(10);
    group.bench_function("indexed", |b| {
        let planner = ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::Rrt, far));
        b.iter(|| {
            planner
                .plan(&open, &checker, far_start, far_goal)
                .unwrap()
                .length()
        })
    });
    group.finish();
}

fn bench_segment_free(c: &mut Criterion) {
    // Free 20 m segments threading between the pillars, at three densities.
    let mut group = c.benchmark_group("planner_segment_free");
    for (label, spacing) in [("sparse", 8.0), ("medium", 4.0), ("dense", 2.0)] {
        let map = pillar_map(spacing);
        // Midway between pillar rows: the segment is free but the dense maps
        // keep occupied voxels within a cell or two of the swept corridor.
        let y = spacing / 2.0;
        group.bench_with_input(BenchmarkId::from_parameter(label), &map, |b, map| {
            b.iter(|| {
                black_box(map.segment_free(
                    &Vec3::new(-10.0, y, 2.0),
                    &Vec3::new(10.0, y, 2.0),
                    0.33,
                ))
            })
        });
    }
    group.finish();

    // A blocked segment straight into the wall (early-exit path).
    let wall = wall_map();
    c.bench_function("planner_segment_free/blocked", |b| {
        b.iter(|| {
            black_box(wall.segment_free(
                &Vec3::new(0.0, 0.0, 2.0),
                &Vec3::new(16.0, 0.0, 2.0),
                0.33,
            ))
        })
    });
}

fn bench_inflation(c: &mut Criterion) {
    let map = wall_map();
    // One voxel clear of the wall: the inflation ball grazes occupied voxels
    // without containing the query point.
    c.bench_function("planner_inflation/near_wall", |b| {
        b.iter(|| black_box(map.is_occupied_with_inflation(&Vec3::new(6.9, 0.0, 2.0), 0.33)))
    });
    // Mapped free space far from any obstacle.
    c.bench_function("planner_inflation/open", |b| {
        b.iter(|| black_box(map.is_occupied_with_inflation(&Vec3::new(2.0, 0.0, 1.0), 0.33)))
    });
    // A fatter vehicle: the paper's point about inflation cost scaling with
    // (radius / resolution)³.
    c.bench_function("planner_inflation/wide_radius", |b| {
        b.iter(|| black_box(map.is_occupied_with_inflation(&Vec3::new(5.5, 0.0, 2.0), 1.2)))
    });
}

fn bench_replan_sweep(c: &mut Criterion) {
    // End-to-end wall time of the PR 3 replanning-policy experiment: two full
    // Package Delivery missions (hover-to-plan and plan-in-motion) on the
    // dense replanning scenario. This is the closed-loop workload whose
    // per-round planning cost the spatial index targets.
    let runner = SweepRunner::new();
    let mut group = c.benchmark_group("planner_end_to_end");
    group.sample_size(10);
    group.bench_function("replan_mode_sweep", |b| {
        b.iter(|| {
            let rows = replan_mode_sweep(&runner, replan_scenario);
            black_box(rows.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_plan,
    bench_segment_free,
    bench_inflation,
    bench_replan_sweep
);
criterion_main!(benches);
