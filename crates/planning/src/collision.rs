//! Collision checking against the occupancy map.
//!
//! The collision-check kernel is invoked continuously while the MAV follows a
//! trajectory: it verifies that the remaining plan still avoids every occupied
//! voxel of the (continuously updated) OctoMap, and raises a re-planning
//! request when it does not.

use mav_perception::{Occupancy, OctoMap};
use mav_types::{Trajectory, Vec3};

/// One detected obstruction of a trajectory: where on the plan it was found
/// and, when the map could attribute it, which occupied voxel blocks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionHit {
    /// Index of the first colliding trajectory sample.
    pub index: usize,
    /// Centre of the occupied voxel blocking that sample or its approach
    /// segment; `None` when the obstruction is not an occupied voxel (a
    /// conservative checker rejecting unknown space).
    pub blocking_voxel: Option<Vec3>,
}

/// Collision checker bound to a vehicle radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionChecker {
    /// Vehicle collision radius in metres (half the diagonal width).
    pub vehicle_radius: f64,
    /// Treat unknown space as blocked (`true` for conservative planners).
    pub unknown_is_blocked: bool,
}

impl CollisionChecker {
    /// Creates a checker for a vehicle of the given radius that treats unknown
    /// space as free (the MAVBench applications plan optimistically and rely
    /// on continuous re-checking).
    pub fn new(vehicle_radius: f64) -> Self {
        assert!(vehicle_radius > 0.0, "vehicle radius must be positive");
        CollisionChecker {
            vehicle_radius,
            unknown_is_blocked: false,
        }
    }

    /// Conservative variant that refuses to enter unobserved space.
    pub fn conservative(vehicle_radius: f64) -> Self {
        CollisionChecker {
            unknown_is_blocked: true,
            ..CollisionChecker::new(vehicle_radius)
        }
    }

    /// Returns `true` when the vehicle can occupy `point` according to `map`.
    pub fn point_free(&self, map: &OctoMap, point: &Vec3) -> bool {
        if self.unknown_is_blocked && map.query(point) == Occupancy::Unknown {
            return false;
        }
        !map.is_occupied_with_inflation(point, self.vehicle_radius)
    }

    /// Returns `true` when the straight segment between `a` and `b` is free.
    pub fn segment_free(&self, map: &OctoMap, a: &Vec3, b: &Vec3) -> bool {
        if self.unknown_is_blocked
            && (map.query(a) == Occupancy::Unknown || map.query(b) == Occupancy::Unknown)
        {
            return false;
        }
        map.segment_free(a, b, self.vehicle_radius)
    }

    /// Checks the portion of a trajectory from sample index `from_index`
    /// onward. Returns the index of the first colliding sample, or `None` when
    /// the trajectory is free.
    pub fn first_collision(
        &self,
        map: &OctoMap,
        trajectory: &Trajectory,
        from_index: usize,
    ) -> Option<usize> {
        self.first_collision_report(map, trajectory, from_index)
            .map(|hit| hit.index)
    }

    /// [`CollisionChecker::first_collision`] with the blocking-voxel report
    /// (PR 5): the same walk, but each query runs through the map's
    /// voxel-reporting variants (whose `Some`/`None` agrees exactly with the
    /// predicates, pinned in `mav_perception`'s tests), so a failing check
    /// surfaces the occupied voxel that caused it in the *same* corridor +
    /// sampled pass that detects it — the caller (the collision monitor) aims
    /// its alert at the real obstruction without a second sampled-predicate
    /// run. The index decision is identical to
    /// [`CollisionChecker::first_collision`].
    pub fn first_collision_report(
        &self,
        map: &OctoMap,
        trajectory: &Trajectory,
        from_index: usize,
    ) -> Option<CollisionHit> {
        let points = trajectory.points();
        for (i, p) in points.iter().enumerate().skip(from_index) {
            // The point query, mirroring `point_free`: the conservative
            // unknown-space rejection has no occupied voxel to blame.
            if self.unknown_is_blocked && map.query(&p.position) == Occupancy::Unknown {
                return Some(CollisionHit {
                    index: i,
                    blocking_voxel: None,
                });
            }
            if let Some(voxel) = map.blocking_voxel_with_inflation(&p.position, self.vehicle_radius)
            {
                return Some(CollisionHit {
                    index: i,
                    blocking_voxel: Some(voxel),
                });
            }
            // The approach segment, mirroring `segment_free`.
            if i + 1 < points.len() {
                let next = &points[i + 1].position;
                if self.unknown_is_blocked
                    && (map.query(&p.position) == Occupancy::Unknown
                        || map.query(next) == Occupancy::Unknown)
                {
                    return Some(CollisionHit {
                        index: i + 1,
                        blocking_voxel: None,
                    });
                }
                if let Some(voxel) =
                    map.segment_blocking_voxel(&p.position, next, self.vehicle_radius)
                {
                    return Some(CollisionHit {
                        index: i + 1,
                        blocking_voxel: Some(voxel),
                    });
                }
            }
        }
        None
    }

    /// Convenience wrapper: `true` when the whole trajectory is collision-free.
    pub fn trajectory_free(&self, map: &OctoMap, trajectory: &Trajectory) -> bool {
        self.first_collision(map, trajectory, 0).is_none()
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

    #[test]
    fn conservative_checker_blocks_unknown_space() {
        let map = wall_map();
        let optimistic = CollisionChecker::new(0.3);
        let conservative = CollisionChecker::conservative(0.3);
        // A far-away never-observed point.
        let unknown = Vec3::new(-20.0, -20.0, 5.0);
        assert!(optimistic.point_free(&map, &unknown));
        assert!(!conservative.point_free(&map, &unknown));
        assert!(!conservative.segment_free(&map, &unknown, &Vec3::new(-19.0, -20.0, 5.0)));
    }

    #[test]
    fn trajectory_collision_index() {
        let map = wall_map();
        let cc = CollisionChecker::new(0.3);
        let mut traj = Trajectory::new();
        for (i, x) in [0.0, 2.0, 4.0, 6.0, 8.0].iter().enumerate() {
            traj.push(TrajectoryPoint::stationary(
                Vec3::new(*x, 0.0, 1.0),
                SimTime::from_secs(i as f64),
            ));
        }
        let hit = cc.first_collision(&map, &traj, 0);
        assert!(hit.is_some());
        assert!(
            hit.unwrap() >= 2,
            "collision should be at/after the wall, got {hit:?}"
        );
        assert!(!cc.trajectory_free(&map, &traj));
        // Re-checking only the tail beyond the wall still reports a collision
        // at the wall crossing segment.
        let free_traj = Trajectory::from_waypoints(
            &[Vec3::new(0.0, -8.0, 1.0), Vec3::new(8.0, -8.0, 1.0)],
            2.0,
            SimTime::ZERO,
        );
        assert!(cc.trajectory_free(&map, &free_traj));
    }

    #[test]
    fn collision_report_carries_the_blocking_voxel() {
        let map = wall_map();
        let cc = CollisionChecker::new(0.3);
        let mut traj = Trajectory::new();
        for (i, x) in [0.0, 2.0, 4.0, 6.0, 8.0].iter().enumerate() {
            traj.push(TrajectoryPoint::stationary(
                Vec3::new(*x, 0.0, 1.0),
                SimTime::from_secs(i as f64),
            ));
        }
        let hit = cc.first_collision_report(&map, &traj, 0).unwrap();
        // The index decision must match the plain query exactly.
        assert_eq!(Some(hit.index), cc.first_collision(&map, &traj, 0));
        // The blocking voxel is a real occupied voxel at the wall.
        let voxel = hit.blocking_voxel.expect("wall collisions have a voxel");
        assert_eq!(map.query(&voxel), mav_perception::Occupancy::Occupied);
        assert!(
            (voxel.x - 5.0).abs() < 1.0,
            "blocking voxel far from the wall: {voxel:?}"
        );
        // A free trajectory reports nothing.
        let free_traj = Trajectory::from_waypoints(
            &[Vec3::new(0.0, -8.0, 1.0), Vec3::new(8.0, -8.0, 1.0)],
            2.0,
            SimTime::ZERO,
        );
        assert!(cc.first_collision_report(&map, &free_traj, 0).is_none());
        // A conservative checker rejecting unknown space has no occupied
        // voxel to blame.
        let conservative = CollisionChecker::conservative(0.3);
        let unknown_traj = Trajectory::from_waypoints(
            &[Vec3::new(-20.0, -20.0, 5.0), Vec3::new(-19.0, -20.0, 5.0)],
            1.0,
            SimTime::ZERO,
        );
        let hit = conservative
            .first_collision_report(&map, &unknown_traj, 0)
            .unwrap();
        assert_eq!(hit.blocking_voxel, None);
    }

    #[test]
    #[should_panic]
    fn zero_radius_rejected() {
        let _ = CollisionChecker::new(0.0);
    }
}
