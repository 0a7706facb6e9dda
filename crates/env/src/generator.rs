//! Procedural environment generation.
//!
//! The paper varies environments through Unreal maps plus knobs for static
//! obstacle density and dynamic obstacle speed. This module provides the same
//! knobs procedurally and deterministically (seeded), plus presets mirroring
//! the scenarios the five workloads run in: open farmland for Scanning, an
//! urban outdoor map for Package Delivery, an indoor space with door-width
//! openings for the OctoMap-resolution case study, a collapsed-building-like
//! rubble field for Search and Rescue, and a park with a moving subject for
//! Aerial Photography.

use crate::obstacle::{Obstacle, ObstacleClass, ObstacleId};
use crate::world::World;
use mav_types::{Aabb, Vec3};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Knobs controlling procedural world generation.
///
/// # Example
///
/// ```
/// use mav_env::EnvironmentConfig;
/// let world = EnvironmentConfig::urban_outdoor().with_seed(7).generate();
/// assert!(world.obstacle_count() > 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnvironmentConfig {
    /// Descriptive name copied into the generated [`World`].
    pub name: String,
    /// Horizontal half-extent of the world in metres (the world spans
    /// `[-extent, extent]` in x and y).
    pub extent: f64,
    /// Height of the world in metres (z spans `[0, height]`).
    pub height: f64,
    /// Number of static obstacles per 1000 m² of ground area.
    pub obstacle_density: f64,
    /// Static obstacle footprint range `[min, max]` in metres.
    pub obstacle_size: (f64, f64),
    /// Static obstacle height range `[min, max]` in metres.
    pub obstacle_height: (f64, f64),
    /// Number of dynamic obstacles.
    pub dynamic_obstacles: usize,
    /// Speed of dynamic obstacles, metres per second.
    pub dynamic_speed: f64,
    /// Number of person-class obstacles scattered in the world (targets for
    /// search-and-rescue).
    pub people: usize,
    /// When `true`, an indoor structure (rooms with door-width openings) is
    /// built around the world origin. Door width follows the paper's 0.82 m
    /// average door.
    pub indoor_structure: bool,
    /// Width of indoor door openings in metres.
    pub door_width: f64,
    /// Whether to include a dynamic photography subject.
    pub photography_subject: bool,
    /// RNG seed for reproducible generation.
    pub seed: u64,
    /// Radius around the origin kept free of obstacles so the drone always has
    /// a valid spawn location, metres.
    pub spawn_clearance: f64,
}

impl Default for EnvironmentConfig {
    fn default() -> Self {
        EnvironmentConfig {
            name: "default".to_string(),
            extent: 60.0,
            height: 25.0,
            obstacle_density: 2.0,
            obstacle_size: (1.0, 6.0),
            obstacle_height: (2.0, 12.0),
            dynamic_obstacles: 0,
            dynamic_speed: 1.0,
            people: 0,
            indoor_structure: false,
            door_width: 0.82,
            photography_subject: false,
            seed: 42,
            spawn_clearance: 6.0,
        }
    }
}

impl mav_types::ToJson for EnvironmentConfig {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::object()
            .field("name", self.name.as_str())
            .field("extent", self.extent)
            .field("height", self.height)
            .field("obstacle_density", self.obstacle_density)
            .field("obstacle_size", self.obstacle_size)
            .field("obstacle_height", self.obstacle_height)
            .field("dynamic_obstacles", self.dynamic_obstacles)
            .field("dynamic_speed", self.dynamic_speed)
            .field("people", self.people)
            .field("indoor_structure", self.indoor_structure)
            .field("door_width", self.door_width)
            .field("photography_subject", self.photography_subject)
            .field("seed", self.seed)
            .field("spawn_clearance", self.spawn_clearance)
    }
}

/// Half the side of each room of the indoor structure, metres.
const ROOM_HALF_WIDTH: f64 = 12.0;
/// Walls of the indoor structure ([`indoor_walls`]).
const INDOOR_WALLS: f64 = 7.0;

impl EnvironmentConfig {
    /// Most obstacles [`EnvironmentConfig::generate`] may place (static
    /// clutter, indoor walls, people, dynamic obstacles and the subject):
    /// every capture raycasts against all of them. The presets place fewer
    /// than 100.
    pub const MAX_OBSTACLES: f64 = 10_000.0;

    /// Smallest world half-extent and height, metres.
    pub const MIN_EXTENT: f64 = 1.0;

    /// Largest world half-extent and height, metres. The presets use at
    /// most 120 m; at 1 km Scanning's lawnmower smooths to 206,801
    /// trajectory samples, and the count grows with the extent squared.
    pub const MAX_EXTENT: f64 = 1000.0;

    /// Reads an environment description over `base`: omitted fields keep
    /// `base`'s values, so a sparse wire spec only names what it changes.
    /// This is the only environment parser; `MissionConfig::from_json`
    /// passes the application's own world as `base`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown field or a field of the wrong type.
    pub fn from_json_over(json: &mav_types::Json, base: EnvironmentConfig) -> Result<Self, String> {
        json.check_fields(&[
            "name",
            "extent",
            "height",
            "obstacle_density",
            "obstacle_size",
            "obstacle_height",
            "dynamic_obstacles",
            "dynamic_speed",
            "people",
            "indoor_structure",
            "door_width",
            "photography_subject",
            "seed",
            "spawn_clearance",
        ])?;
        Ok(EnvironmentConfig {
            name: json.parse_field_or("name", base.name)?,
            extent: json.parse_field_or("extent", base.extent)?,
            height: json.parse_field_or("height", base.height)?,
            obstacle_density: json.parse_field_or("obstacle_density", base.obstacle_density)?,
            obstacle_size: json.parse_field_or("obstacle_size", base.obstacle_size)?,
            obstacle_height: json.parse_field_or("obstacle_height", base.obstacle_height)?,
            dynamic_obstacles: json.parse_field_or("dynamic_obstacles", base.dynamic_obstacles)?,
            dynamic_speed: json.parse_field_or("dynamic_speed", base.dynamic_speed)?,
            people: json.parse_field_or("people", base.people)?,
            indoor_structure: json.parse_field_or("indoor_structure", base.indoor_structure)?,
            door_width: json.parse_field_or("door_width", base.door_width)?,
            photography_subject: json
                .parse_field_or("photography_subject", base.photography_subject)?,
            seed: json.parse_field_or("seed", base.seed)?,
            spawn_clearance: json.parse_field_or("spawn_clearance", base.spawn_clearance)?,
        })
    }

    /// Checks that [`EnvironmentConfig::generate`] can build the world:
    /// an extent and height between [`EnvironmentConfig::MIN_EXTENT`] and
    /// [`EnvironmentConfig::MAX_EXTENT`], ordered non-negative size and height
    /// ranges, non-negative speeds and clearances, a door that fits its wall,
    /// and at most [`EnvironmentConfig::MAX_OBSTACLES`] obstacles.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [("extent", self.extent), ("height", self.height)] {
            if !(Self::MIN_EXTENT..=Self::MAX_EXTENT).contains(&value) {
                return Err(format!(
                    "{name} must be in [{}, {}] m, got {value}",
                    Self::MIN_EXTENT,
                    Self::MAX_EXTENT
                ));
            }
        }
        for (name, (lo, hi)) in [
            ("obstacle_size", self.obstacle_size),
            ("obstacle_height", self.obstacle_height),
        ] {
            if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi) {
                return Err(format!(
                    "{name} must be a finite range [min, max] with 0 <= min <= max, \
                     got [{lo}, {hi}]"
                ));
            }
        }
        for (name, value) in [
            ("obstacle_density", self.obstacle_density),
            ("dynamic_speed", self.dynamic_speed),
            ("spawn_clearance", self.spawn_clearance),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "{name} must be finite and non-negative, got {value}"
                ));
            }
        }
        // The door opens in walls 2 × ROOM_HALF_WIDTH long.
        let wall = 2.0 * ROOM_HALF_WIDTH;
        if !(self.door_width.is_finite() && (0.0..=wall).contains(&self.door_width)) {
            return Err(format!(
                "door_width must be in [0, {wall}] m, got {}",
                self.door_width
            ));
        }
        let obstacles = self.static_obstacle_count()
            + if self.indoor_structure {
                INDOOR_WALLS
            } else {
                0.0
            }
            + self.people as f64
            + self.dynamic_obstacles as f64
            + if self.photography_subject { 1.0 } else { 0.0 };
        if obstacles > Self::MAX_OBSTACLES {
            return Err(format!(
                "the world would hold {obstacles} obstacles (obstacle_density, people, \
                 dynamic_obstacles), above the limit of {}",
                Self::MAX_OBSTACLES
            ));
        }
        Ok(())
    }

    /// Number of static obstacles the density knob asks for over the ground
    /// area.
    fn static_obstacle_count(&self) -> f64 {
        let ground_area = (2.0 * self.extent) * (2.0 * self.extent);
        ((ground_area / 1000.0) * self.obstacle_density).round()
    }

    /// Open farmland: essentially obstacle-free, large area. Used by the
    /// Scanning workload.
    pub fn open_field() -> Self {
        EnvironmentConfig {
            name: "open-field".to_string(),
            extent: 120.0,
            height: 40.0,
            obstacle_density: 0.05,
            obstacle_size: (1.0, 3.0),
            obstacle_height: (1.0, 4.0),
            ..Default::default()
        }
    }

    /// Urban outdoor map with buildings: the Package Delivery environment.
    pub fn urban_outdoor() -> Self {
        EnvironmentConfig {
            name: "urban-outdoor".to_string(),
            extent: 80.0,
            height: 30.0,
            obstacle_density: 3.0,
            obstacle_size: (3.0, 10.0),
            obstacle_height: (5.0, 20.0),
            ..Default::default()
        }
    }

    /// Mixed indoor/outdoor map with door-width openings: the 3D Mapping and
    /// OctoMap-resolution case-study environment.
    pub fn indoor_outdoor() -> Self {
        EnvironmentConfig {
            name: "indoor-outdoor".to_string(),
            extent: 50.0,
            height: 15.0,
            obstacle_density: 1.5,
            obstacle_size: (2.0, 6.0),
            obstacle_height: (2.0, 6.0),
            indoor_structure: true,
            ..Default::default()
        }
    }

    /// Rubble-strewn disaster area with people to find: Search and Rescue.
    pub fn disaster_site() -> Self {
        EnvironmentConfig {
            name: "disaster-site".to_string(),
            extent: 60.0,
            height: 20.0,
            obstacle_density: 4.0,
            obstacle_size: (1.0, 5.0),
            obstacle_height: (1.0, 6.0),
            people: 3,
            indoor_structure: true,
            ..Default::default()
        }
    }

    /// Park with a moving subject: Aerial Photography.
    pub fn park_with_subject() -> Self {
        EnvironmentConfig {
            name: "park".to_string(),
            extent: 70.0,
            height: 25.0,
            obstacle_density: 0.8,
            obstacle_size: (1.0, 4.0),
            obstacle_height: (2.0, 8.0),
            photography_subject: true,
            dynamic_speed: 2.0,
            ..Default::default()
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the static obstacle density in obstacles per 1000 m² (builder
    /// style).
    pub fn with_obstacle_density(mut self, density: f64) -> Self {
        self.obstacle_density = density.max(0.0);
        self
    }

    /// Sets the number and speed of dynamic obstacles (builder style).
    pub fn with_dynamic_obstacles(mut self, count: usize, speed: f64) -> Self {
        self.dynamic_obstacles = count;
        self.dynamic_speed = speed.max(0.0);
        self
    }

    /// Generates the world described by this configuration.
    pub fn generate(&self) -> World {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let bounds = Aabb::new(
            Vec3::new(-self.extent, -self.extent, 0.0),
            Vec3::new(self.extent, self.extent, self.height),
        );
        let mut obstacles = Vec::new();
        let mut next_id = 0u32;
        let push = |obstacles: &mut Vec<Obstacle>, o: Obstacle| {
            obstacles.push(o);
        };

        // Static clutter driven by the density knob.
        let count = self.static_obstacle_count() as usize;
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < count && attempts < count * 20 + 100 {
            attempts += 1;
            let x = rng.gen_range(-self.extent..self.extent);
            let y = rng.gen_range(-self.extent..self.extent);
            if (x * x + y * y).sqrt() < self.spawn_clearance {
                continue;
            }
            let w = rng.gen_range(self.obstacle_size.0..=self.obstacle_size.1);
            let d = rng.gen_range(self.obstacle_size.0..=self.obstacle_size.1);
            let h = rng.gen_range(self.obstacle_height.0..=self.obstacle_height.1);
            let center = Vec3::new(x, y, h / 2.0);
            let class = if rng.gen_bool(0.3) {
                ObstacleClass::Vegetation
            } else {
                ObstacleClass::Structure
            };
            push(
                &mut obstacles,
                Obstacle::fixed(
                    ObstacleId(next_id),
                    Aabb::from_center_size(center, Vec3::new(w, d, h)),
                    class,
                ),
            );
            next_id += 1;
            placed += 1;
        }

        // Indoor structure: two rooms connected by a door-width opening,
        // placed away from the spawn point.
        if self.indoor_structure {
            let ox = self.extent * 0.35;
            let oy = 0.0;
            let room = ROOM_HALF_WIDTH;
            let wall_t = 0.4;
            let wall_h = 3.0;
            let door = self.door_width;
            // Outer walls of a room spanning [ox, ox+2*room] x [-room, room].
            let walls = indoor_walls(ox, oy, room, wall_t, wall_h, door);
            for w in walls {
                push(
                    &mut obstacles,
                    Obstacle::fixed(ObstacleId(next_id), w, ObstacleClass::Structure),
                );
                next_id += 1;
            }
        }

        // People (static, person-class) for search and rescue.
        for _ in 0..self.people {
            let x = rng.gen_range(-self.extent * 0.8..self.extent * 0.8);
            let y = rng.gen_range(-self.extent * 0.8..self.extent * 0.8);
            push(
                &mut obstacles,
                Obstacle::fixed(
                    ObstacleId(next_id),
                    Aabb::from_center_size(Vec3::new(x, y, 0.9), Vec3::new(0.6, 0.6, 1.8)),
                    ObstacleClass::Person,
                ),
            );
            next_id += 1;
        }

        // Dynamic obstacles.
        for _ in 0..self.dynamic_obstacles {
            let x = rng.gen_range(-self.extent * 0.5..self.extent * 0.5);
            let y = rng.gen_range(-self.extent * 0.5..self.extent * 0.5);
            let heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let vel = Vec3::new(heading.cos(), heading.sin(), 0.0) * self.dynamic_speed;
            push(
                &mut obstacles,
                Obstacle::moving(
                    ObstacleId(next_id),
                    Aabb::from_center_size(Vec3::new(x, y, 1.0), Vec3::new(1.0, 1.0, 2.0)),
                    vel,
                    ObstacleClass::Generic,
                ),
            );
            next_id += 1;
        }

        // Photography subject: a dynamic person-sized obstacle that wanders.
        if self.photography_subject {
            let vel = Vec3::new(self.dynamic_speed, 0.3 * self.dynamic_speed, 0.0);
            push(
                &mut obstacles,
                Obstacle::moving(
                    ObstacleId(next_id),
                    Aabb::from_center_size(Vec3::new(10.0, 0.0, 0.9), Vec3::new(0.6, 0.6, 1.8)),
                    vel,
                    ObstacleClass::PhotographySubject,
                ),
            );
        }

        World::new(self.name.clone(), bounds, obstacles)
    }
}

/// Builds the wall boxes of a simple two-room indoor structure with a single
/// door-width opening between the rooms and one opening to the outside.
fn indoor_walls(ox: f64, oy: f64, room: f64, wall_t: f64, wall_h: f64, door: f64) -> Vec<Aabb> {
    let mut walls = Vec::new();
    let z = wall_h / 2.0;
    let x0 = ox;
    let x1 = ox + 2.0 * room;
    let y0 = oy - room;
    let y1 = oy + room;
    // North and south outer walls (full length).
    walls.push(Aabb::from_center_size(
        Vec3::new((x0 + x1) / 2.0, y1, z),
        Vec3::new(x1 - x0 + wall_t, wall_t, wall_h),
    ));
    walls.push(Aabb::from_center_size(
        Vec3::new((x0 + x1) / 2.0, y0, z),
        Vec3::new(x1 - x0 + wall_t, wall_t, wall_h),
    ));
    // East outer wall (full length).
    walls.push(Aabb::from_center_size(
        Vec3::new(x1, oy, z),
        Vec3::new(wall_t, y1 - y0 + wall_t, wall_h),
    ));
    // West outer wall with a door opening centred at oy.
    let seg = (y1 - y0 - door) / 2.0;
    walls.push(Aabb::from_center_size(
        Vec3::new(x0, y0 + seg / 2.0, z),
        Vec3::new(wall_t, seg, wall_h),
    ));
    walls.push(Aabb::from_center_size(
        Vec3::new(x0, y1 - seg / 2.0, z),
        Vec3::new(wall_t, seg, wall_h),
    ));
    // Interior dividing wall with a door opening centred at oy.
    let xm = ox + room;
    walls.push(Aabb::from_center_size(
        Vec3::new(xm, y0 + seg / 2.0, z),
        Vec3::new(wall_t, seg, wall_h),
    ));
    walls.push(Aabb::from_center_size(
        Vec3::new(xm, y1 - seg / 2.0, z),
        Vec3::new(wall_t, seg, wall_h),
    ));
    walls
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
        let b = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
        assert_eq!(a, b);
        let c = EnvironmentConfig::urban_outdoor().with_seed(4).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn density_knob_scales_obstacle_count() {
        let sparse = EnvironmentConfig::default()
            .with_obstacle_density(0.5)
            .generate();
        let dense = EnvironmentConfig::default()
            .with_obstacle_density(5.0)
            .generate();
        assert!(dense.obstacle_count() > sparse.obstacle_count() * 3);
    }

    #[test]
    fn spawn_area_is_clear() {
        let world = EnvironmentConfig::urban_outdoor().with_seed(11).generate();
        assert!(!world.collides_sphere(&Vec3::new(0.0, 0.0, 1.0), 0.5));
    }

    #[test]
    fn presets_have_expected_features() {
        let field = EnvironmentConfig::open_field().generate();
        let urban = EnvironmentConfig::urban_outdoor().generate();
        assert!(field.obstacle_count() < urban.obstacle_count());

        let sar = EnvironmentConfig::disaster_site().generate();
        assert_eq!(sar.obstacles_of_class(ObstacleClass::Person).len(), 3);

        let park = EnvironmentConfig::park_with_subject().generate();
        assert!(park
            .dynamic_obstacle_of_class(ObstacleClass::PhotographySubject)
            .is_some());
    }

    #[test]
    fn indoor_structure_has_a_door_opening() {
        let world = EnvironmentConfig::indoor_outdoor().with_seed(5).generate();
        // The west wall of the indoor structure sits at x = 0.35 * extent;
        // a ray fired through the door centre (y = 0) at door height must pass
        // deeper into the room than the wall plane, while a ray at y offset
        // half a room hits the wall.
        let ox = 50.0 * 0.35;
        let through_door = world.raycast(&Vec3::new(ox - 5.0, 0.0, 1.0), &Vec3::UNIT_X, 50.0);
        let into_wall = world.raycast(&Vec3::new(ox - 5.0, 6.0, 1.0), &Vec3::UNIT_X, 50.0);
        let wall_dist = into_wall.map(|h| h.distance).unwrap_or(f64::INFINITY);
        let door_dist = through_door.map(|h| h.distance).unwrap_or(f64::INFINITY);
        assert!(
            door_dist > wall_dist + 1.0,
            "expected the door ray to travel farther ({door_dist:.2}) than the wall ray ({wall_dist:.2})"
        );
    }

    #[test]
    fn dynamic_obstacles_requested_count() {
        let world = EnvironmentConfig::default()
            .with_dynamic_obstacles(4, 2.0)
            .with_seed(9)
            .generate();
        let dynamic = world.obstacles().iter().filter(|o| o.is_dynamic()).count();
        assert_eq!(dynamic, 4);
    }

    /// The presets pass validation and place fewer than 100 obstacles; the
    /// obstacle cap counts every kind of obstacle, and a NaN fails the
    /// range checks. (The wire tests cover each rejected field.)
    #[test]
    fn presets_validate_and_the_obstacle_cap_is_exact() {
        for preset in [
            EnvironmentConfig::default(),
            EnvironmentConfig::open_field(),
            EnvironmentConfig::urban_outdoor(),
            EnvironmentConfig::indoor_outdoor(),
            EnvironmentConfig::disaster_site(),
            EnvironmentConfig::park_with_subject(),
        ] {
            preset.validate().unwrap();
            assert!(preset.generate().obstacle_count() < 100, "{}", preset.name);
        }
        // Seven walls and three people, plus the dynamic obstacles.
        let mut cfg = EnvironmentConfig::disaster_site().with_obstacle_density(0.0);
        cfg.dynamic_obstacles = EnvironmentConfig::MAX_OBSTACLES as usize - 10;
        cfg.validate().unwrap();
        assert_eq!(cfg.generate().obstacle_count(), 10_000);
        cfg.dynamic_obstacles += 1;
        assert!(cfg.validate().unwrap_err().contains("obstacles"));
        cfg.dynamic_obstacles = 0;
        cfg.obstacle_height.1 = f64::NAN;
        assert!(cfg.validate().unwrap_err().contains("obstacle_height"));
    }

    #[test]
    fn world_bounds_match_config() {
        let cfg = EnvironmentConfig::open_field();
        let world = cfg.generate();
        assert_eq!(world.bounds().max.z, cfg.height);
        assert_eq!(world.bounds().max.x, cfg.extent);
        assert_eq!(world.name(), "open-field");
    }
}
