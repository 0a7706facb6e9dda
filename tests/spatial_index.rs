//! Equivalence suite for the spatial-index overhaul (PR 4).
//!
//! The occupied-voxel index, the DDA swept-segment prefilter and the
//! bucketed planner neighbour lookup are all *exact* accelerations: every
//! collision decision, counter and planned path must be identical to the
//! reference implementations they replaced. These properties pin that —
//! randomized maps and radii for the map predicates, randomized planning
//! problems for the planners, and the insert → reresolve → insert chain for
//! index invalidation.

use mav_perception::{OctoMap, OctoMapConfig, PointCloud};
use mav_planning::{CollisionChecker, PlannerConfig, PlannerKind, ShortestPathPlanner};
use mav_types::{Aabb, Vec3};
use proptest::prelude::*;

/// Map resolutions under test: dyadic and non-dyadic, fine and coarse (the
/// paper's 0.15 m and 0.80 m case-study endpoints included).
const RESOLUTIONS: [f64; 5] = [0.15, 0.25, 0.3, 0.5, 0.8];

fn arb_point(extent: f64) -> impl Strategy<Value = Vec3> {
    (-extent..extent, -extent..extent, 0.0..6.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Builds a map from `rays` sensor rays out of a fixed origin, at the
/// resolution selected by `res_idx`.
fn ray_map(res_idx: usize, rays: &[Vec3]) -> OctoMap {
    let resolution = RESOLUTIONS[res_idx % RESOLUTIONS.len()];
    let mut map = OctoMap::new(OctoMapConfig::with_resolution(resolution), 24.0);
    let origin = Vec3::new(0.0, 0.0, 1.5);
    for endpoint in rays {
        map.insert_ray(&origin, endpoint);
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The indexed inflation query answers exactly like the reference
    /// tree-scan for arbitrary maps, query points and radii.
    #[test]
    fn inflation_query_matches_reference(
        res_idx in 0usize..RESOLUTIONS.len(),
        rays in proptest::collection::vec(arb_point(20.0), 1..40),
        queries in proptest::collection::vec(arb_point(24.0), 1..24),
        radius in 0.0f64..2.5,
    ) {
        let map = ray_map(res_idx, &rays);
        for q in &queries {
            prop_assert_eq!(
                map.is_occupied_with_inflation(q, radius),
                map.is_occupied_with_inflation_reference(q, radius),
                "inflation decision diverged at {} (radius {})", q, radius
            );
        }
    }

    /// The DDA-prefiltered swept-segment predicate answers exactly like the
    /// reference sampled predicate.
    #[test]
    fn segment_free_matches_reference(
        res_idx in 0usize..RESOLUTIONS.len(),
        rays in proptest::collection::vec(arb_point(20.0), 1..40),
        segments in proptest::collection::vec((arb_point(24.0), arb_point(24.0)), 1..12),
        radius in 0.0f64..1.5,
    ) {
        let map = ray_map(res_idx, &rays);
        for (a, b) in &segments {
            prop_assert_eq!(
                map.segment_free(a, b, radius),
                map.segment_free_reference(a, b, radius),
                "segment decision diverged on {} -> {} (radius {})", a, b, radius
            );
        }
    }

    /// Index invalidation across the dynamic-resolution path: rays, then a
    /// full re-resolution, then more rays — queries and counters must still
    /// match the tree exactly.
    #[test]
    fn index_survives_reresolution_chain(
        res_idx in 0usize..RESOLUTIONS.len(),
        new_res_idx in 0usize..RESOLUTIONS.len(),
        before in proptest::collection::vec(arb_point(20.0), 1..24),
        after in proptest::collection::vec(arb_point(20.0), 1..24),
        queries in proptest::collection::vec(arb_point(24.0), 1..12),
        radius in 0.0f64..1.5,
    ) {
        let mut map = ray_map(res_idx, &before);
        map = map.reresolved(RESOLUTIONS[new_res_idx % RESOLUTIONS.len()]);
        let origin = Vec3::new(0.0, 0.0, 1.5);
        for endpoint in &after {
            map.insert_ray(&origin, endpoint);
        }
        for q in &queries {
            prop_assert_eq!(
                map.is_occupied_with_inflation(q, radius),
                map.is_occupied_with_inflation_reference(q, radius),
                "post-reresolve inflation decision diverged at {}", q
            );
        }
        // The O(1) known counter reproduces the tree walk bit-for-bit
        // (including its dedup accounting) at every resolution.
        prop_assert_eq!(map.known_voxel_count(), map.known_voxel_count_scan());
    }

    /// Both planners grow bit-identical solutions with the bucket index on
    /// and off: same waypoints, same sample counts, same failures.
    #[test]
    fn planners_identical_with_and_without_index(
        seed in 0u64..64,
        kind_sel in 0u8..2,
        wall_sel in 0u8..2,
    ) {
        let kind = if kind_sel == 0 { PlannerKind::Rrt } else { PlannerKind::PrmAstar };
        let wall = wall_sel == 1;
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.5), 32.0);
        if wall {
            let origin = Vec3::new(0.0, 0.0, 1.0);
            for i in -20..=20 {
                for z in [0.5, 1.5, 2.5, 3.5, 4.5, 5.5] {
                    map.insert_ray(&origin, &Vec3::new(8.0, i as f64 * 0.5, z));
                }
            }
        }
        let checker = CollisionChecker::new(0.33);
        let bounds = Aabb::new(Vec3::new(-25.0, -25.0, 0.5), Vec3::new(25.0, 25.0, 6.0));
        let start = Vec3::new(0.0, 0.0, 2.0);
        let goal = Vec3::new(16.0, 2.0, 2.0);
        let base = PlannerConfig::new(kind, bounds).with_seed(seed);
        let indexed = ShortestPathPlanner::new(base.with_spatial_index(true))
            .plan(&map, &checker, start, goal);
        let linear = ShortestPathPlanner::new(base.with_spatial_index(false))
            .plan(&map, &checker, start, goal);
        match (indexed, linear) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "planned paths diverged"),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "planner outcomes diverged: {:?} vs {:?}", a, b),
        }
    }
}

/// The O(1) counters match the full tree walk on a deterministic dyadic-
/// resolution scenario covering rays, a dense point cloud inserted ray by
/// ray, and the dynamic-resolution rebuild.
#[test]
fn counters_match_tree_walk() {
    let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.5), 32.0);
    let origin = Vec3::new(0.0, 0.0, 1.0);
    for i in -12..=12 {
        for z in [0.5, 1.0, 1.5, 2.0] {
            map.insert_ray(&origin, &Vec3::new(10.0, i as f64 * 0.5, z));
        }
    }
    // A dense scan: many rays per voxel, all through the one insertion path.
    let mut points = Vec::new();
    for iy in -40..=40 {
        for iz in 0..14 {
            points.push(Vec3::new(12.0, iy as f64 * 0.25, iz as f64 * 0.3));
        }
    }
    map.insert_point_cloud(&PointCloud::new(origin, points));
    assert_eq!(map.known_voxel_count(), map.known_voxel_count_scan());
    assert_eq!(map.occupied_voxel_count(), map.occupied_voxel_count_scan());
    // Query equivalence holds on the densely scanned map too.
    for (a, b) in [
        (Vec3::new(-5.0, -8.0, 1.0), Vec3::new(14.0, 8.0, 2.0)),
        (Vec3::new(0.0, 0.0, 1.0), Vec3::new(9.0, 0.0, 1.0)),
    ] {
        assert_eq!(
            map.segment_free(&a, &b, 0.33),
            map.segment_free_reference(&a, &b, 0.33)
        );
    }
    assert!(map.occupied_voxel_count() > 50);
    assert!(map.known_voxel_count() > map.occupied_voxel_count());

    let coarse = map.reresolved(1.0);
    assert_eq!(coarse.known_voxel_count(), coarse.known_voxel_count_scan());
    assert_eq!(
        coarse.occupied_voxel_count(),
        coarse.occupied_voxel_count_scan()
    );

    let empty = OctoMap::new(OctoMapConfig::default(), 32.0);
    assert_eq!(empty.known_voxel_count(), 0);
    assert_eq!(empty.occupied_voxel_count(), 0);
}

/// At non-dyadic resolutions neighbouring leaf centres can round to the same
/// `round(centre / resolution)`; the leaf walk lists each leaf once all the
/// same, so both O(1) counters (the occupancy the collision queries see) equal
/// the walk exactly.
#[test]
fn occupied_counter_matches_the_walk_at_non_dyadic_resolution() {
    let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.15), 32.0);
    let origin = Vec3::new(0.0, 0.0, 1.0);
    for i in -30..=30 {
        for z in [0.5, 1.0, 1.5, 2.0] {
            map.insert_ray(&origin, &Vec3::new(9.0, i as f64 * 0.2, z));
        }
    }
    assert_eq!(map.occupied_voxel_count(), map.occupied_voxel_count_scan());
    assert_eq!(map.known_voxel_count(), map.known_voxel_count_scan());
}

/// A map whose rays flip voxels occupied → free (the obstacle moved) must
/// drop them from the index too: the inflation query may not keep reporting
/// stale occupancy.
#[test]
fn index_drops_voxels_that_flip_back_to_free() {
    let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.25), 32.0);
    let origin = Vec3::new(0.0, 0.0, 1.0);
    let target = Vec3::new(5.0, 0.0, 1.0);
    map.insert_ray(&origin, &target);
    assert!(map.is_occupied_with_inflation(&target, 0.2));
    for _ in 0..10 {
        map.insert_ray(&origin, &Vec3::new(12.0, 0.0, 1.0));
    }
    assert!(!map.is_occupied_with_inflation(&target, 0.2));
    // The clearing rays' own endpoint is now the only occupied voxel.
    assert_eq!(map.occupied_voxel_count(), 1);
    assert_eq!(map.occupied_voxel_count(), map.occupied_voxel_count_scan());
}
