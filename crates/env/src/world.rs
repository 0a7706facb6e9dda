//! The simulated world: bounds, obstacles, collision queries and ray casting.
//!
//! This module is the MAVBench-RS stand-in for the Unreal Engine geometry
//! oracle. All perception in the workspace ultimately reduces to two
//! questions answered here: *what does a depth ray hit?* and *does this region
//! of space intersect an obstacle?*

use crate::obstacle::{Obstacle, ObstacleClass, ObstacleId, ObstacleKind};
use mav_types::{Aabb, SlabRay, Vec3};
use std::fmt;

/// Result of a ray-cast query against the world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayHit {
    /// Distance from the ray origin to the hit point, metres.
    pub distance: f64,
    /// World-frame hit point.
    pub point: Vec3,
    /// The obstacle that was hit, or `None` when the world boundary was hit.
    pub obstacle: Option<ObstacleId>,
}

/// A complete simulated environment.
///
/// # Example
///
/// ```
/// use mav_env::{World, Obstacle, ObstacleClass, ObstacleId};
/// use mav_types::{Aabb, Vec3};
///
/// let mut world = World::empty(Aabb::new(Vec3::splat(-20.0), Vec3::splat(20.0)));
/// world.add_obstacle(Obstacle::fixed(
///     ObstacleId(0),
///     Aabb::from_center_size(Vec3::new(5.0, 0.0, 1.0), Vec3::splat(2.0)),
///     ObstacleClass::Structure,
/// ));
/// let hit = world.raycast(&Vec3::new(0.0, 0.0, 1.0), &Vec3::UNIT_X, 30.0).unwrap();
/// assert!((hit.distance - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    bounds: Aabb,
    obstacles: Vec<Obstacle>,
    name: String,
}

impl World {
    /// Creates an empty world with the given bounds.
    pub fn empty(bounds: Aabb) -> Self {
        World {
            bounds,
            obstacles: Vec::new(),
            name: "unnamed".to_string(),
        }
    }

    /// Creates a world with the given bounds, name and obstacles.
    pub fn new(name: impl Into<String>, bounds: Aabb, obstacles: Vec<Obstacle>) -> Self {
        World {
            bounds,
            obstacles,
            name: name.into(),
        }
    }

    /// The world's descriptive name (e.g. `"urban-outdoor"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// World bounds: flight outside this box is treated as a failure.
    pub fn bounds(&self) -> &Aabb {
        &self.bounds
    }

    /// All obstacles currently in the world.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Number of obstacles.
    pub fn obstacle_count(&self) -> usize {
        self.obstacles.len()
    }

    /// Looks up an obstacle by id.
    pub fn obstacle(&self, id: ObstacleId) -> Option<&Obstacle> {
        self.obstacles.iter().find(|o| o.id == id)
    }

    /// Adds an obstacle, returning its id.
    pub fn add_obstacle(&mut self, obstacle: Obstacle) -> ObstacleId {
        let id = obstacle.id;
        self.obstacles.push(obstacle);
        id
    }

    /// Adds a static box obstacle and assigns it the next free id.
    pub fn add_box(&mut self, bounds: Aabb, class: ObstacleClass) -> ObstacleId {
        let id = ObstacleId(self.obstacles.len() as u32);
        self.obstacles.push(Obstacle::fixed(id, bounds, class));
        id
    }

    /// Returns `true` if `point` lies inside any obstacle.
    pub fn is_occupied(&self, point: &Vec3) -> bool {
        self.obstacles.iter().any(|o| o.bounds.contains(point))
    }

    /// Returns `true` if `point` lies inside the world bounds.
    pub fn in_bounds(&self, point: &Vec3) -> bool {
        self.bounds.contains(point)
    }

    /// Returns `true` if a vehicle occupying `region` would collide with any
    /// obstacle or leave the world.
    pub fn collides(&self, region: &Aabb) -> bool {
        if !self.bounds.contains(&region.min) || !self.bounds.contains(&region.max) {
            return true;
        }
        self.obstacles.iter().any(|o| o.bounds.intersects(region))
    }

    /// Returns `true` if a vehicle of half-width `radius` centred at `point`
    /// would collide.
    pub fn collides_sphere(&self, point: &Vec3, radius: f64) -> bool {
        if !self.bounds.contains(point) {
            return true;
        }
        self.obstacles
            .iter()
            .any(|o| o.bounds.distance_to_point(point) <= radius)
    }

    /// Returns `true` if the straight segment from `a` to `b`, swept by a
    /// vehicle of half-width `radius`, stays collision-free and in bounds.
    pub fn segment_free(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
        if !self.bounds.contains(a) || !self.bounds.contains(b) {
            return false;
        }
        let dist = a.distance(b);
        // Sample at half-radius granularity (minimum 2 samples) — exact enough
        // for box obstacles larger than the vehicle.
        let step = (radius * 0.5).max(0.05);
        let samples = ((dist / step).ceil() as usize).max(1);
        for i in 0..=samples {
            let t = i as f64 / samples as f64;
            let p = a.lerp(b, t);
            if self.collides_sphere(&p, radius) {
                return false;
            }
        }
        true
    }

    /// Distance from `point` to the closest obstacle surface (or the world
    /// boundary, whichever is nearer). Returns `0.0` when inside an obstacle.
    pub fn clearance(&self, point: &Vec3) -> f64 {
        let mut best = f64::INFINITY;
        for o in &self.obstacles {
            best = best.min(o.bounds.distance_to_point(point));
        }
        // Distance to the world boundary along each axis.
        for axis in 0..3 {
            best = best.min((point[axis] - self.bounds.min[axis]).abs());
            best = best.min((self.bounds.max[axis] - point[axis]).abs());
        }
        best.max(0.0)
    }

    /// Casts a ray from `origin` along `dir` (normalised internally) and
    /// returns the first hit within `max_range` metres.
    ///
    /// A hit on the world boundary is reported with `obstacle == None`; if
    /// nothing is hit within range the result is `None` (open space).
    pub fn raycast(&self, origin: &Vec3, dir: &Vec3, max_range: f64) -> Option<RayHit> {
        let d = dir.normalized();
        if d == Vec3::ZERO || max_range <= 0.0 {
            return None;
        }
        let ray = SlabRay::new(origin, &d);
        let mut best: Option<(f64, ObstacleId)> = None;
        for o in &self.obstacles {
            if let Some(t) = o.bounds.slab_intersection(&ray) {
                if t <= max_range && best.is_none_or(|(b, _)| t < b) {
                    best = Some((t, o.id));
                }
            }
        }
        if let Some((t, id)) = best {
            return Some(RayHit {
                distance: t,
                point: *origin + d * t,
                obstacle: Some(id),
            });
        }
        // Exit point through the world boundary (the drone "sees" the boundary
        // as solid, like the edge of the Unreal map).
        let t_exit = exit_distance(&self.bounds, origin, &d).filter(|&t| t <= max_range)?;
        Some(RayHit {
            distance: t_exit,
            point: *origin + d * t_exit,
            obstacle: None,
        })
    }

    /// Density of static obstacle volume within `radius` of `point`,
    /// expressed as the fraction of the probe sphere's bounding cube that is
    /// occupied. Used by the dynamic OctoMap-resolution policy to distinguish
    /// cluttered indoor space from open outdoor space.
    pub fn obstacle_density_near(&self, point: &Vec3, radius: f64) -> f64 {
        let probe = Aabb::from_center_size(*point, Vec3::splat(2.0 * radius));
        let probe_volume = probe.volume();
        if probe_volume <= 0.0 {
            return 0.0;
        }
        let mut occupied = 0.0;
        for o in &self.obstacles {
            if o.bounds.intersects(&probe) {
                let overlap_min = o.bounds.min.max(&probe.min);
                let overlap_max = o.bounds.max.min(&probe.max);
                let size = overlap_max - overlap_min;
                if size.x > 0.0 && size.y > 0.0 && size.z > 0.0 {
                    occupied += size.x * size.y * size.z;
                }
            }
        }
        (occupied / probe_volume).clamp(0.0, 1.0)
    }

    /// Advances all dynamic obstacles by `dt` seconds.
    pub fn step_dynamics(&mut self, dt: f64) {
        let bounds = self.bounds;
        for o in &mut self.obstacles {
            o.step(dt, &bounds);
        }
    }

    /// All obstacles of the given class (e.g. people for search-and-rescue).
    pub fn obstacles_of_class(&self, class: ObstacleClass) -> Vec<&Obstacle> {
        self.obstacles.iter().filter(|o| o.class == class).collect()
    }

    /// Returns the first dynamic obstacle of the given class, if any. The
    /// aerial-photography workload uses this to find its subject.
    pub fn dynamic_obstacle_of_class(&self, class: ObstacleClass) -> Option<&Obstacle> {
        self.obstacles
            .iter()
            .find(|o| o.class == class && matches!(o.kind, ObstacleKind::Dynamic { .. }))
    }

    /// Total volume of all static obstacles, cubic metres.
    pub fn total_obstacle_volume(&self) -> f64 {
        self.obstacles.iter().map(|o| o.bounds.volume()).sum()
    }
}

impl fmt::Display for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "world '{}' [{} obstacles, bounds {}]",
            self.name,
            self.obstacles.len(),
            self.bounds
        )
    }
}

/// Distance along the (normalised) ray at which it exits `bounds`, assuming
/// the origin is inside the box. Returns `None` if the origin is outside.
fn exit_distance(bounds: &Aabb, origin: &Vec3, dir: &Vec3) -> Option<f64> {
    if !bounds.contains(origin) {
        return None;
    }
    let mut t_exit = f64::INFINITY;
    for axis in 0..3 {
        let d = dir[axis];
        if d.abs() < 1e-12 {
            continue;
        }
        let boundary = if d > 0.0 {
            bounds.max[axis]
        } else {
            bounds.min[axis]
        };
        let t = (boundary - origin[axis]) / d;
        if t >= 0.0 {
            t_exit = t_exit.min(t);
        }
    }
    if t_exit.is_finite() {
        Some(t_exit)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_world() -> World {
        let mut w = World::empty(Aabb::new(Vec3::splat(-50.0), Vec3::new(50.0, 50.0, 30.0)));
        w.add_box(
            Aabb::from_center_size(Vec3::new(10.0, 0.0, 1.0), Vec3::new(2.0, 2.0, 2.0)),
            ObstacleClass::Structure,
        );
        w.add_box(
            Aabb::from_center_size(Vec3::new(-5.0, 8.0, 1.0), Vec3::new(4.0, 4.0, 2.0)),
            ObstacleClass::Vegetation,
        );
        w
    }

    #[test]
    fn occupancy_queries() {
        let w = test_world();
        assert!(w.is_occupied(&Vec3::new(10.0, 0.0, 1.0)));
        assert!(!w.is_occupied(&Vec3::new(0.0, 0.0, 1.0)));
        assert!(w.in_bounds(&Vec3::ZERO));
        assert!(!w.in_bounds(&Vec3::new(0.0, 0.0, 100.0)));
    }

    #[test]
    fn collision_with_region_and_sphere() {
        let w = test_world();
        let hit_region = Aabb::from_center_size(Vec3::new(10.0, 0.0, 1.0), Vec3::splat(0.5));
        let free_region = Aabb::from_center_size(Vec3::new(0.0, -10.0, 1.0), Vec3::splat(0.5));
        assert!(w.collides(&hit_region));
        assert!(!w.collides(&free_region));
        // Out-of-bounds region counts as a collision.
        let oob = Aabb::from_center_size(Vec3::new(0.0, 0.0, 40.0), Vec3::splat(1.0));
        assert!(w.collides(&oob));

        assert!(w.collides_sphere(&Vec3::new(11.2, 0.0, 1.0), 0.5));
        assert!(!w.collides_sphere(&Vec3::new(13.0, 0.0, 1.0), 0.5));
    }

    #[test]
    fn segment_queries() {
        let w = test_world();
        // Straight through the first obstacle.
        assert!(!w.segment_free(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(20.0, 0.0, 1.0), 0.4));
        // Well clear of both obstacles.
        assert!(w.segment_free(
            &Vec3::new(0.0, -20.0, 1.0),
            &Vec3::new(20.0, -20.0, 1.0),
            0.4
        ));
        // Endpoint outside the world.
        assert!(!w.segment_free(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(0.0, 0.0, 100.0), 0.4));
    }

    #[test]
    fn raycast_hits_nearest_obstacle() {
        let w = test_world();
        let hit = w
            .raycast(&Vec3::new(0.0, 0.0, 1.0), &Vec3::UNIT_X, 100.0)
            .unwrap();
        assert!((hit.distance - 9.0).abs() < 1e-9);
        assert_eq!(hit.obstacle, Some(ObstacleId(0)));
        assert!((hit.point.x - 9.0).abs() < 1e-9);
    }

    #[test]
    fn raycast_boundary_and_miss() {
        let w = test_world();
        // Looking straight up from the origin hits the world ceiling at z=30.
        let hit = w
            .raycast(&Vec3::new(0.0, 0.0, 1.0), &Vec3::UNIT_Z, 100.0)
            .unwrap();
        assert!((hit.distance - 29.0).abs() < 1e-9);
        assert_eq!(hit.obstacle, None);
        // Very short range sees nothing.
        assert!(w
            .raycast(&Vec3::new(0.0, 0.0, 1.0), &Vec3::UNIT_X, 1.0)
            .is_none());
        // Zero direction is rejected.
        assert!(w.raycast(&Vec3::ZERO, &Vec3::ZERO, 10.0).is_none());
    }

    #[test]
    fn clearance_decreases_near_obstacles() {
        let w = test_world();
        let far = w.clearance(&Vec3::new(-30.0, -30.0, 10.0));
        let near = w.clearance(&Vec3::new(11.5, 0.0, 1.0));
        assert!(near < far);
        assert_eq!(w.clearance(&Vec3::new(10.0, 0.0, 1.0)), 0.0);
    }

    #[test]
    fn obstacle_density_probe() {
        let w = test_world();
        let dense = w.obstacle_density_near(&Vec3::new(10.0, 0.0, 1.0), 2.0);
        let empty = w.obstacle_density_near(&Vec3::new(-30.0, -30.0, 10.0), 2.0);
        assert!(dense > 0.05);
        assert_eq!(empty, 0.0);
    }

    #[test]
    fn dynamic_obstacle_stepping_and_lookup() {
        let mut w = test_world();
        w.add_obstacle(Obstacle::moving(
            ObstacleId(100),
            Aabb::from_center_size(Vec3::new(0.0, 0.0, 1.0), Vec3::splat(1.0)),
            Vec3::new(1.0, 0.0, 0.0),
            ObstacleClass::PhotographySubject,
        ));
        let before = w.obstacle(ObstacleId(100)).unwrap().center();
        w.step_dynamics(2.0);
        let after = w.obstacle(ObstacleId(100)).unwrap().center();
        assert!((after.x - before.x - 2.0).abs() < 1e-9);
        assert!(w
            .dynamic_obstacle_of_class(ObstacleClass::PhotographySubject)
            .is_some());
        assert!(w.dynamic_obstacle_of_class(ObstacleClass::Person).is_none());
        assert_eq!(w.obstacles_of_class(ObstacleClass::Vegetation).len(), 1);
    }

    #[test]
    fn volume_accounting_and_display() {
        let w = test_world();
        assert!((w.total_obstacle_volume() - (8.0 + 32.0)).abs() < 1e-9);
        assert!(!format!("{w}").is_empty());
        assert_eq!(w.obstacle_count(), 2);
    }

    /// `raycast` with the prepared ray against its per-box form.
    mod raycast_oracle {
        use super::*;
        use proptest::prelude::*;

        impl World {
            /// `raycast` as it was before the ray was prepared once per
            /// cast, verbatim: the oracle of [`World::raycast`].
            fn raycast_oracle(&self, origin: &Vec3, dir: &Vec3, max_range: f64) -> Option<RayHit> {
                let d = dir.normalized();
                if d == Vec3::ZERO || max_range <= 0.0 {
                    return None;
                }
                let mut best: Option<RayHit> = None;
                for o in &self.obstacles {
                    if let Some(t) = o.bounds.ray_intersection(origin, &d) {
                        if t <= max_range && best.is_none_or(|b| t < b.distance) {
                            best = Some(RayHit {
                                distance: t,
                                point: *origin + d * t,
                                obstacle: Some(o.id),
                            });
                        }
                    }
                }
                // Exit point through the world boundary (the drone "sees" the boundary
                // as solid, like the edge of the Unreal map).
                if best.is_none() {
                    if let Some(t_exit) = exit_distance(&self.bounds, origin, &d) {
                        if t_exit <= max_range {
                            return Some(RayHit {
                                distance: t_exit,
                                point: *origin + d * t_exit,
                                obstacle: None,
                            });
                        }
                    }
                }
                best
            }
        }

        /// A hit as comparable bits.
        fn bits(hit: Option<RayHit>) -> Option<(u64, [u64; 3], Option<ObstacleId>)> {
            hit.map(|h| {
                let p = h.point;
                (
                    h.distance.to_bits(),
                    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()],
                    h.obstacle,
                )
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Worlds of 0 to 20 boxes, some sharing a face plane; origins
            /// inside and outside the bounds; directions along an axis, in
            /// a plane and oblique; ranges that cut rays short.
            #[test]
            fn prepared_raycast_matches_the_per_box_cast(
                boxes in proptest::collection::vec(
                    ((-20.0..20.0, -20.0..20.0, 0.0..10.0), (0.5..6.0, 0.5..6.0, 0.5..8.0)),
                    0..21,
                ),
                origin in (-24.0..24.0, -24.0..24.0, -2.0..14.0),
                dir in (-1.0..1.0, -1.0..1.0, -1.0..1.0),
                flat in 0usize..7,
                max_range in 0.5..40.0,
            ) {
                let mut world = World::empty(Aabb::new(Vec3::new(-22.0, -22.0, 0.0), Vec3::new(22.0, 22.0, 12.0)));
                for (i, ((x, y, z), (w, d, h))) in boxes.into_iter().enumerate() {
                    // Every third box snaps its centre to the grid, so boxes
                    // share face planes with each other and with the origins,
                    // and comes twice, so every hit on it is a tie the first
                    // box must win.
                    let snap = |v: f64| if i % 3 == 0 { v.round() } else { v };
                    let bounds = Aabb::from_center_size(Vec3::new(snap(x), snap(y), snap(z)), Vec3::new(snap(w), snap(d), h));
                    world.add_box(bounds, ObstacleClass::Structure);
                    if i % 3 == 0 {
                        world.add_box(bounds, ObstacleClass::Vegetation);
                    }
                }
                let (ox, oy, oz) = origin;
                let origin = Vec3::new(ox, oy, oz);
                // Also cast from inside the first box, where the entry is 0.
                let inside = world.obstacles().first().map_or(origin, |o| o.bounds.center());
                // Bit k of `flat` zeroes axis k of the direction (0 keeps it
                // oblique; 7 would be the zero vector, which both reject).
                let (dx, dy, dz) = dir;
                let keep = |k: usize, v: f64| if flat & (1 << k) != 0 { 0.0 } else { v };
                let dir = Vec3::new(keep(0, dx), keep(1, dy), keep(2, dz));
                let snapped = Vec3::new(ox.round(), oy.round(), oz.round());
                for o in [origin, snapped, inside] {
                    prop_assert_eq!(
                        bits(world.raycast(&o, &dir, max_range)),
                        bits(world.raycast_oracle(&o, &dir, max_range)),
                        "from {} along {} within {}",
                        o,
                        dir,
                        max_range
                    );
                }
            }
        }
    }
}
