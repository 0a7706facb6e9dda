//! Obstacles populating a MAVBench-RS world.

use mav_types::{Aabb, Vec3};
use std::fmt;

/// Unique identifier of an obstacle within a [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObstacleId(pub u32);

impl fmt::Display for ObstacleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obstacle#{}", self.0)
    }
}

/// Whether an obstacle is fixed in place or moves during the mission.
///
/// The paper's simulation knobs include both *(static) obstacle density* and
/// *(dynamic) obstacle speed*; both are modelled here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObstacleKind {
    /// The obstacle never moves (buildings, walls, trees, furniture).
    Static,
    /// The obstacle translates with the given velocity (m/s) and bounces off
    /// the world bounds, e.g. a person or vehicle moving through the scene.
    Dynamic {
        /// Current velocity of the obstacle in the world frame.
        velocity: Vec3,
    },
}

/// Semantic label of an obstacle, used by the detection kernel to decide
/// whether a given obstacle is a "person", generic clutter, or the aerial
/// photography target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObstacleClass {
    /// Buildings, walls, shelves — generic structure.
    Structure,
    /// Vegetation and other soft clutter.
    Vegetation,
    /// A human. Search-and-rescue missions look for these.
    Person,
    /// The moving subject tracked by the aerial photography workload.
    PhotographySubject,
    /// Anything else.
    Generic,
}

impl ObstacleClass {
    /// Returns `true` if the detection kernel should report this class as a
    /// person-like detection.
    pub fn is_person_like(&self) -> bool {
        matches!(
            self,
            ObstacleClass::Person | ObstacleClass::PhotographySubject
        )
    }
}

/// A single axis-aligned obstacle in the world.
#[derive(Debug, Clone, PartialEq)]
pub struct Obstacle {
    /// Identifier unique within the owning world.
    pub id: ObstacleId,
    /// Geometry of the obstacle.
    pub bounds: Aabb,
    /// Static or dynamic behaviour.
    pub kind: ObstacleKind,
    /// Semantic class.
    pub class: ObstacleClass,
}

impl Obstacle {
    /// Creates a static obstacle of the given class.
    pub fn fixed(id: ObstacleId, bounds: Aabb, class: ObstacleClass) -> Self {
        Obstacle {
            id,
            bounds,
            kind: ObstacleKind::Static,
            class,
        }
    }

    /// Creates a dynamic obstacle moving at `velocity`.
    pub fn moving(id: ObstacleId, bounds: Aabb, velocity: Vec3, class: ObstacleClass) -> Self {
        Obstacle {
            id,
            bounds,
            kind: ObstacleKind::Dynamic { velocity },
            class,
        }
    }

    /// Returns `true` for dynamic obstacles.
    pub fn is_dynamic(&self) -> bool {
        matches!(self.kind, ObstacleKind::Dynamic { .. })
    }

    /// Current velocity (zero for static obstacles).
    pub fn velocity(&self) -> Vec3 {
        match self.kind {
            ObstacleKind::Static => Vec3::ZERO,
            ObstacleKind::Dynamic { velocity } => velocity,
        }
    }

    /// Centre of the obstacle.
    pub fn center(&self) -> Vec3 {
        self.bounds.center()
    }

    /// Advances a dynamic obstacle by `dt` seconds, reflecting its velocity
    /// whenever it would leave `world_bounds`. Static obstacles are unchanged.
    pub fn step(&mut self, dt: f64, world_bounds: &Aabb) {
        let velocity = match &mut self.kind {
            ObstacleKind::Static => return,
            ObstacleKind::Dynamic { velocity } => velocity,
        };
        let delta = *velocity * dt;
        let moved = Aabb {
            min: self.bounds.min + delta,
            max: self.bounds.max + delta,
        };
        // Reflect on each axis independently so the obstacle slides along the
        // boundary it hit instead of sticking to it.
        let mut v = *velocity;
        let mut apply = moved;
        for axis in 0..3 {
            let out_low = moved.min[axis] < world_bounds.min[axis];
            let out_high = moved.max[axis] > world_bounds.max[axis];
            if out_low || out_high {
                match axis {
                    0 => v.x = -v.x,
                    1 => v.y = -v.y,
                    _ => v.z = -v.z,
                }
                apply = self.bounds; // stay put on this step along the blocked axis
            }
        }
        self.bounds = apply;
        *velocity = v;
    }
}

impl fmt::Display for Obstacle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?} {}", self.id, self.class, self.bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world_bounds() -> Aabb {
        Aabb::new(Vec3::splat(-50.0), Vec3::splat(50.0))
    }

    #[test]
    fn static_obstacle_never_moves() {
        let mut o = Obstacle::fixed(
            ObstacleId(1),
            Aabb::from_center_size(Vec3::ZERO, Vec3::splat(2.0)),
            ObstacleClass::Structure,
        );
        let before = o.bounds;
        o.step(10.0, &world_bounds());
        assert_eq!(o.bounds, before);
        assert_eq!(o.velocity(), Vec3::ZERO);
        assert!(!o.is_dynamic());
    }

    #[test]
    fn dynamic_obstacle_translates() {
        let mut o = Obstacle::moving(
            ObstacleId(2),
            Aabb::from_center_size(Vec3::ZERO, Vec3::splat(1.0)),
            Vec3::new(2.0, 0.0, 0.0),
            ObstacleClass::Person,
        );
        o.step(1.0, &world_bounds());
        assert!((o.center().x - 2.0).abs() < 1e-12);
        assert!(o.is_dynamic());
        assert_eq!(o.velocity(), Vec3::new(2.0, 0.0, 0.0));
    }

    #[test]
    fn dynamic_obstacle_bounces_at_bounds() {
        let mut o = Obstacle::moving(
            ObstacleId(3),
            Aabb::from_center_size(Vec3::new(49.0, 0.0, 0.0), Vec3::splat(1.0)),
            Vec3::new(5.0, 0.0, 0.0),
            ObstacleClass::Person,
        );
        o.step(1.0, &world_bounds());
        // The velocity flipped and the obstacle did not cross the boundary.
        assert_eq!(o.velocity().x, -5.0);
        assert!(o.bounds.max.x <= 50.0 + 1e-9);
    }

    #[test]
    fn class_person_like() {
        assert!(ObstacleClass::Person.is_person_like());
        assert!(ObstacleClass::PhotographySubject.is_person_like());
        assert!(!ObstacleClass::Structure.is_person_like());
        assert!(!ObstacleClass::Generic.is_person_like());
    }

    #[test]
    fn display_nonempty() {
        let o = Obstacle::fixed(
            ObstacleId(9),
            Aabb::from_center_size(Vec3::ZERO, Vec3::splat(1.0)),
            ObstacleClass::Generic,
        );
        assert!(!format!("{o}").is_empty());
        assert!(!format!("{}", ObstacleId(4)).is_empty());
    }
}
