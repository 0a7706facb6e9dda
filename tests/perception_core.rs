//! Equivalence suite for the data-oriented perception core (PR 6).
//!
//! The arena octree, the incremental free-voxel index and the block-bitmask
//! `occupied_voxel_centers` are all *exact* accelerations: every map they
//! produce must be bit-identical to the pointer-tree / tree-walk references
//! they replaced. These
//! properties pin that from the public API, so the guarantees ride in the
//! tier-1 suite alongside the PR 4 spatial-index properties.

use mav_perception::octomap::reference::ReferenceMap;
use mav_perception::{OctoMap, OctoMapConfig};
use mav_types::Vec3;
use proptest::prelude::*;

/// Map resolutions under test: dyadic and non-dyadic, fine and coarse (the
/// paper's 0.15 m and 0.80 m case-study endpoints included).
const RESOLUTIONS: [f64; 5] = [0.15, 0.25, 0.3, 0.5, 0.8];

fn arb_point(extent: f64) -> impl Strategy<Value = Vec3> {
    (-extent..extent, -extent..extent, 0.0..6.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena octree produces the same leaves as the pointer-tree oracle
    /// for arbitrary ray sequences: identical occupancy answers at every
    /// probe point, through a reresolution chain.
    #[test]
    fn arena_octree_matches_pointer_tree(
        res_idx in 0usize..RESOLUTIONS.len(),
        rays in proptest::collection::vec(arb_point(20.0), 1..32),
        queries in proptest::collection::vec(arb_point(24.0), 1..16),
        new_res_idx in 0usize..RESOLUTIONS.len(),
    ) {
        let resolution = RESOLUTIONS[res_idx % RESOLUTIONS.len()];
        let config = OctoMapConfig::with_resolution(resolution);
        let mut arena = OctoMap::new(config, 24.0);
        let mut tree = ReferenceMap::new(config, 24.0);
        let origin = Vec3::new(0.0, 0.0, 1.5);
        for endpoint in &rays {
            arena.insert_ray(&origin, endpoint);
            tree.insert_ray(&origin, endpoint);
        }
        let threshold = config.occupied_threshold;
        let reference_occupancy = |tree: &ReferenceMap, q: &Vec3| match tree.leaf_log_odds(q) {
            Some(l) if l > threshold => mav_perception::Occupancy::Occupied,
            Some(_) => mav_perception::Occupancy::Free,
            None => mav_perception::Occupancy::Unknown,
        };
        for q in &queries {
            if arena.in_domain(q) {
                prop_assert_eq!(arena.query(q), reference_occupancy(&tree, q));
            }
        }
        let new_res = RESOLUTIONS[new_res_idx % RESOLUTIONS.len()];
        let arena = arena.reresolved(new_res);
        let tree = tree.reresolved(new_res);
        for q in &queries {
            if arena.in_domain(q) {
                prop_assert_eq!(arena.query(q), reference_occupancy(&tree, q));
            }
        }
    }

    /// The incremental free-voxel index returns bit-identical centres (same
    /// order, same f64 bits) as the full-tree-walk scan it replaced.
    #[test]
    fn free_voxel_index_matches_tree_walk(
        res_idx in 0usize..RESOLUTIONS.len(),
        rays in proptest::collection::vec(arb_point(20.0), 1..32),
    ) {
        let resolution = RESOLUTIONS[res_idx % RESOLUTIONS.len()];
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(resolution), 24.0);
        let origin = Vec3::new(0.0, 0.0, 1.5);
        for endpoint in &rays {
            map.insert_ray(&origin, endpoint);
        }
        let indexed = map.free_voxel_centers();
        let scanned = map.free_voxel_centers_scan();
        prop_assert_eq!(indexed.len(), scanned.len());
        for (a, b) in indexed.iter().zip(&scanned) {
            prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
            prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            prop_assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        prop_assert_eq!(map.known_voxel_count(), map.known_voxel_count_scan());
    }

    /// The block-bitmask-backed `occupied_voxel_centers` agrees with the tree
    /// walk at dyadic resolutions (where leaf centres are exactly
    /// representable grid centres).
    #[test]
    fn occupied_centers_match_tree_walk_at_dyadic_resolution(
        dyadic in 0usize..2,
        rays in proptest::collection::vec(arb_point(20.0), 1..32),
    ) {
        let resolution = [0.25, 0.5][dyadic];
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(resolution), 24.0);
        let origin = Vec3::new(0.0, 0.0, 1.5);
        for endpoint in &rays {
            map.insert_ray(&origin, endpoint);
        }
        prop_assert_eq!(map.occupied_voxel_centers(), map.occupied_voxel_centers_scan());
    }
}
