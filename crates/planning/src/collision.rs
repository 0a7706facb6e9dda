//! Collision checking against the occupancy map.
//!
//! The collision-check kernel is invoked continuously while the MAV follows a
//! trajectory: it verifies that the remaining plan still avoids every occupied
//! voxel of the (continuously updated) OctoMap, and raises a re-planning
//! request when it does not.

use mav_perception::OctoMap;
use mav_types::{Trajectory, Vec3};

/// One detected obstruction of a trajectory: where on the plan it was found
/// and which occupied voxel blocks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionHit {
    /// Index of the first colliding trajectory sample.
    pub index: usize,
    /// Centre of the occupied voxel blocking that sample or its approach
    /// segment.
    pub blocking_voxel: Vec3,
}

/// Collision checker bound to a vehicle radius. Unknown space counts as free:
/// the MAVBench applications plan optimistically and rely on continuous
/// re-checking against the growing map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionChecker {
    /// Vehicle collision radius in metres (half the diagonal width).
    pub vehicle_radius: f64,
}

impl CollisionChecker {
    /// Creates a checker for a vehicle of the given radius.
    pub fn new(vehicle_radius: f64) -> Self {
        assert!(vehicle_radius > 0.0, "vehicle radius must be positive");
        CollisionChecker { vehicle_radius }
    }

    /// Returns `true` when the vehicle can occupy `point` according to `map`.
    pub fn point_free(&self, map: &OctoMap, point: &Vec3) -> bool {
        !map.is_occupied_with_inflation(point, self.vehicle_radius)
    }

    /// Returns `true` when the straight segment between `a` and `b` is free.
    pub fn segment_free(&self, map: &OctoMap, a: &Vec3, b: &Vec3) -> bool {
        map.segment_free(a, b, self.vehicle_radius)
    }

    /// Checks the portion of a trajectory from sample index `from_index`
    /// onward: each sample as [`CollisionChecker::point_free`] does, then the
    /// segment to the next sample as [`CollisionChecker::segment_free`] does.
    /// Returns the first obstruction, or `None` when the rest of the
    /// trajectory is free.
    ///
    /// The queries run through the map's voxel-reporting variants (whose
    /// `Some`/`None` agrees exactly with the predicates, pinned in
    /// `mav_perception`'s tests), so the check that fails also names the
    /// occupied voxel that caused it: the collision monitor aims its alert at
    /// the real obstruction without a second pass.
    pub fn first_collision_report(
        &self,
        map: &OctoMap,
        trajectory: &Trajectory,
        from_index: usize,
    ) -> Option<CollisionHit> {
        let points = trajectory.points();
        for (i, p) in points.iter().enumerate().skip(from_index) {
            if let Some(voxel) = map.blocking_voxel_with_inflation(&p.position, self.vehicle_radius)
            {
                return Some(CollisionHit {
                    index: i,
                    blocking_voxel: voxel,
                });
            }
            if let Some(next) = points.get(i + 1) {
                if let Some(voxel) =
                    map.segment_blocking_voxel(&p.position, &next.position, self.vehicle_radius)
                {
                    return Some(CollisionHit {
                        index: i + 1,
                        blocking_voxel: voxel,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_perception::OctoMapConfig;
    use mav_types::{SimTime, TrajectoryPoint};

    /// Builds a map with a wall at x = 5 spanning y ∈ [-3, 3], z ∈ [0, 3].
    fn wall_map() -> OctoMap {
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.25), 32.0);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        for i in -12..=12 {
            for z in [0.5, 1.0, 1.5, 2.0, 2.5] {
                map.insert_ray(&origin, &Vec3::new(5.0, i as f64 * 0.25, z));
            }
        }
        map
    }

    #[test]
    fn points_near_the_wall_are_blocked() {
        let map = wall_map();
        let cc = CollisionChecker::new(0.3);
        assert!(!cc.point_free(&map, &Vec3::new(5.0, 0.0, 1.0)));
        assert!(cc.point_free(&map, &Vec3::new(2.0, 0.0, 1.0)));
    }

    #[test]
    fn segments_through_the_wall_are_blocked() {
        let map = wall_map();
        let cc = CollisionChecker::new(0.3);
        assert!(!cc.segment_free(&map, &Vec3::new(0.0, 0.0, 1.0), &Vec3::new(8.0, 0.0, 1.0)));
        assert!(cc.segment_free(&map, &Vec3::new(0.0, 0.0, 1.0), &Vec3::new(3.5, 0.0, 1.0)));
    }

    /// Samples at x = 0, 2, 4, 6, 8 along y = 0, crossing the wall at x = 5.
    fn wall_crossing() -> Trajectory {
        let mut traj = Trajectory::new();
        for (i, x) in [0.0, 2.0, 4.0, 6.0, 8.0].iter().enumerate() {
            traj.push(TrajectoryPoint::stationary(
                Vec3::new(*x, 0.0, 1.0),
                SimTime::from_secs(i as f64),
            ));
        }
        traj
    }

    #[test]
    fn trajectory_collision_index() {
        let map = wall_map();
        let cc = CollisionChecker::new(0.3);
        let traj = wall_crossing();
        let hit = cc.first_collision_report(&map, &traj, 0).unwrap();
        assert!(
            hit.index >= 2,
            "collision should be at/after the wall, got {hit:?}"
        );
        // Re-checking only the tail from the sample before the wall still
        // reports the wall-crossing segment.
        let tail = cc.first_collision_report(&map, &traj, 2).unwrap();
        assert_eq!(tail.index, hit.index);
        // A trajectory beside the wall reports nothing.
        let free_traj = Trajectory::from_waypoints(
            &[Vec3::new(0.0, -8.0, 1.0), Vec3::new(8.0, -8.0, 1.0)],
            2.0,
            SimTime::ZERO,
        );
        assert!(cc.first_collision_report(&map, &free_traj, 0).is_none());
    }

    #[test]
    fn collision_report_carries_the_blocking_voxel() {
        let map = wall_map();
        let cc = CollisionChecker::new(0.3);
        let hit = cc
            .first_collision_report(&map, &wall_crossing(), 0)
            .unwrap();
        // The blocking voxel is a real occupied voxel at the wall.
        let voxel = hit.blocking_voxel;
        assert_eq!(map.query(&voxel), mav_perception::Occupancy::Occupied);
        assert!(
            (voxel.x - 5.0).abs() < 1.0,
            "blocking voxel far from the wall: {voxel:?}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_radius_rejected() {
        let _ = CollisionChecker::new(0.0);
    }
}
