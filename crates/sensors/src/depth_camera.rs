//! Simulated RGB-D depth camera.
//!
//! The depth camera is the main exteroceptive sensor of every MAVBench
//! workload: its frames feed point-cloud generation, OctoMap updates and
//! collision checking. Here a frame is produced by casting one ray per pixel
//! into the [`mav_env::World`], which mirrors how AirSim rasterises depth from
//! the Unreal scene.

use mav_env::World;
use mav_types::{Pose, Vec3};
use std::cell::RefCell;
use std::fmt;

/// Static configuration of a depth camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthCameraConfig {
    /// Horizontal resolution in pixels.
    pub width: usize,
    /// Vertical resolution in pixels.
    pub height: usize,
    /// Horizontal field of view in radians.
    pub fov_horizontal: f64,
    /// Vertical field of view in radians.
    pub fov_vertical: f64,
    /// Maximum sensing range in metres; pixels with no return within this
    /// range are reported as [`f64::INFINITY`].
    pub max_range: f64,
}

impl Default for DepthCameraConfig {
    fn default() -> Self {
        // A coarse 32x24 depth frame keeps per-frame ray counts small enough
        // for the closed-loop simulation while preserving the geometry the
        // perception kernels need. Benchmarks can raise the resolution.
        DepthCameraConfig {
            width: 32,
            height: 24,
            fov_horizontal: std::f64::consts::FRAC_PI_2, // 90 degrees
            fov_vertical: std::f64::consts::FRAC_PI_3,   // 60 degrees
            max_range: 25.0,
        }
    }
}

impl mav_types::ToJson for DepthCameraConfig {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::object()
            .field("width", self.width)
            .field("height", self.height)
            .field("fov_horizontal", self.fov_horizontal)
            .field("fov_vertical", self.fov_vertical)
            .field("max_range", self.max_range)
    }
}

impl mav_types::FromJson for DepthCameraConfig {
    /// Reads a depth-camera description; omitted fields keep the default
    /// (32×24, 90°×60°, 25 m) values.
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        json.check_fields(&[
            "width",
            "height",
            "fov_horizontal",
            "fov_vertical",
            "max_range",
        ])?;
        let base = DepthCameraConfig::default();
        let config = DepthCameraConfig {
            width: json.parse_field_or("width", base.width)?,
            height: json.parse_field_or("height", base.height)?,
            fov_horizontal: json.parse_field_or("fov_horizontal", base.fov_horizontal)?,
            fov_vertical: json.parse_field_or("fov_vertical", base.fov_vertical)?,
            max_range: json.parse_field_or("max_range", base.max_range)?,
        };
        config.validate()?;
        Ok(config)
    }
}

impl DepthCameraConfig {
    /// A higher-resolution configuration used by the perception benchmarks.
    pub fn high_resolution() -> Self {
        DepthCameraConfig {
            width: 128,
            height: 96,
            ..Default::default()
        }
    }

    /// The largest frame a configuration may ask for: 2^20 pixels, 85× the
    /// 128×96 frames Fig. 18 captures. A capture reserves one `f64` per
    /// pixel, so the bound caps a frame at 8 MiB of depths.
    pub const MAX_PIXELS: usize = 1 << 20;

    /// Number of pixels per frame.
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Checks that the frame size is non-zero and at most
    /// [`DepthCameraConfig::MAX_PIXELS`] pixels, that both fields of view
    /// are finite and in (0, π] (a wider horizontal one turns its edge rays
    /// behind the camera, a wider vertical one tips them past the zenith),
    /// and that `max_range` is finite and positive.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when it is not.
    pub fn validate(&self) -> Result<(), String> {
        match self.width.checked_mul(self.height) {
            Some(0) => return Err("width/height: resolution must be non-zero".to_string()),
            Some(pixels) if pixels <= Self::MAX_PIXELS => {}
            _ => {
                return Err(format!(
                    "width/height: {}x{} exceeds the {}-pixel frame limit",
                    self.width,
                    self.height,
                    Self::MAX_PIXELS
                ))
            }
        }
        for (name, fov) in [
            ("fov_horizontal", self.fov_horizontal),
            ("fov_vertical", self.fov_vertical),
        ] {
            // Written so that NaN fails.
            if !(fov > 0.0 && fov <= std::f64::consts::PI) {
                return Err(format!("{name} must be in (0, pi] radians, got {fov}"));
            }
        }
        if !(self.max_range > 0.0 && self.max_range.is_finite()) {
            return Err(format!(
                "max_range must be finite and positive, got {}",
                self.max_range
            ));
        }
        Ok(())
    }
}

/// A single depth frame: row-major range values in metres.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major depth values in metres; `INFINITY` means no return.
    pub depths: Vec<f64>,
    /// Pose of the camera when the frame was captured.
    pub camera_pose: Pose,
    /// Configuration the frame was captured with.
    pub config: DepthCameraConfig,
}

impl DepthImage {
    /// Depth at pixel `(u, v)` where `u` is the column and `v` the row.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is out of range.
    pub fn depth_at(&self, u: usize, v: usize) -> f64 {
        assert!(
            u < self.width && v < self.height,
            "pixel ({u},{v}) out of range"
        );
        self.depths[v * self.width + u]
    }

    /// Minimum finite depth in the frame, or `None` when every pixel is a
    /// no-return.
    pub fn min_depth(&self) -> Option<f64> {
        self.depths
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.min(d))))
    }

    /// Fraction of pixels that returned a finite depth.
    pub fn coverage(&self) -> f64 {
        if self.depths.is_empty() {
            return 0.0;
        }
        self.depths.iter().filter(|d| d.is_finite()).count() as f64 / self.depths.len() as f64
    }

    /// World-frame ray direction of pixel `(u, v)` given the capture pose.
    pub fn ray_direction(&self, u: usize, v: usize) -> Vec3 {
        pixel_ray(&self.config, &self.camera_pose, u, v)
    }

    /// World-frame 3D point for pixel `(u, v)`, or `None` for a no-return.
    pub fn point_at(&self, u: usize, v: usize) -> Option<Vec3> {
        let d = self.depth_at(u, v);
        if d.is_finite() {
            Some(self.camera_pose.position + self.ray_direction(u, v) * d)
        } else {
            None
        }
    }

    /// Calls `visit` with the world-frame point of every finite-range pixel,
    /// in row-major order: the points of [`DepthImage::point_at`], without
    /// its per-pixel trigonometry.
    pub fn for_each_point(&self, mut visit: impl FnMut(Vec3)) {
        let position = self.camera_pose.position;
        for_each_ray(
            &self.config,
            self.camera_pose.yaw,
            self.width,
            self.height,
            |index, ray| {
                let d = self.depths[index];
                if d.is_finite() {
                    visit(position + ray * d);
                }
            },
        );
    }

    /// All finite-range points of the frame in the world frame, in
    /// row-major order.
    pub fn points(&self) -> Vec<Vec3> {
        let mut out = Vec::new();
        self.for_each_point(|p| out.push(p));
        out
    }
}

impl fmt::Display for DepthImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "depth[{}x{}, coverage {:.0}%]",
            self.width,
            self.height,
            self.coverage() * 100.0
        )
    }
}

/// World-frame ray direction for pixel `(u, v)` of a camera with `config`
/// looking along the pose's yaw (the camera is pitch-stabilised by the
/// simulated gimbal, matching the gimbal MAVBench adds to AirSim).
fn pixel_ray(config: &DepthCameraConfig, pose: &Pose, u: usize, v: usize) -> Vec3 {
    ray_of(row_trig(config, v), column_trig(config, pose.yaw, u))
}

/// The row part of a pixel ray: cosine and sine of row `v`'s elevation.
fn row_trig(config: &DepthCameraConfig, v: usize) -> (f64, f64) {
    let half_h = (config.height.max(2) - 1) as f64 / 2.0;
    // Normalised pixel coordinate in [-1, 1].
    let ny = (v as f64 - half_h) / half_h;
    let elevation = -ny * config.fov_vertical / 2.0;
    (elevation.cos(), elevation.sin())
}

/// The column part of a pixel ray: cosine and sine of column `u`'s azimuth
/// for a camera at `yaw`.
fn column_trig(config: &DepthCameraConfig, yaw: f64, u: usize) -> (f64, f64) {
    let half_w = (config.width.max(2) - 1) as f64 / 2.0;
    // Normalised pixel coordinate in [-1, 1].
    let nx = (u as f64 - half_w) / half_w;
    let azimuth = yaw + nx * config.fov_horizontal / 2.0;
    (azimuth.cos(), azimuth.sin())
}

/// The unit ray of a row part and a column part.
fn ray_of((cos_el, sin_el): (f64, f64), (cos_az, sin_az): (f64, f64)) -> Vec3 {
    Vec3::new(cos_el * cos_az, cos_el * sin_az, sin_el).normalized()
}

thread_local! {
    /// Per-thread column table of [`for_each_ray`]. Take/replace (not
    /// borrow-across-call) so a nested walk falls back to a fresh
    /// allocation instead of a RefCell panic.
    static COLUMN_TRIG: RefCell<Vec<(f64, f64)>> = const { RefCell::new(Vec::new()) };
    /// Per-thread list of the obstacles a frame can see (see
    /// [`DepthCamera::capture`]), taken and replaced like [`COLUMN_TRIG`].
    static IN_VIEW: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Calls `visit(row-major index, ray)` for every pixel of a `width ×
/// height` frame, in row-major order, with the rays of [`pixel_ray`]: the
/// trigonometry runs once per row and once per column instead of per pixel.
fn for_each_ray(
    config: &DepthCameraConfig,
    yaw: f64,
    width: usize,
    height: usize,
    mut visit: impl FnMut(usize, Vec3),
) {
    let mut columns = COLUMN_TRIG.with(|c| c.take());
    columns.clear();
    columns.extend((0..width).map(|u| column_trig(config, yaw, u)));
    let mut index = 0;
    for v in 0..height {
        let row = row_trig(config, v);
        for &column in &columns {
            visit(index, ray_of(row, column));
            index += 1;
        }
    }
    COLUMN_TRIG.with(|c| *c.borrow_mut() = columns);
}

/// The simulated depth camera itself.
///
/// # Example
///
/// ```
/// use mav_env::EnvironmentConfig;
/// use mav_sensors::{DepthCamera, DepthCameraConfig};
/// use mav_types::{Pose, Vec3};
///
/// let world = EnvironmentConfig::urban_outdoor().with_seed(1).generate();
/// let camera = DepthCamera::new(DepthCameraConfig::default());
/// let frame = camera.capture(&world, &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
/// assert_eq!(frame.depths.len(), frame.width * frame.height);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DepthCamera {
    config: DepthCameraConfig,
}

impl DepthCamera {
    /// Creates a camera with the given configuration.
    pub fn new(config: DepthCameraConfig) -> Self {
        DepthCamera { config }
    }

    /// The camera configuration.
    pub fn config(&self) -> &DepthCameraConfig {
        &self.config
    }

    /// Captures a depth frame from `pose` into `world`.
    ///
    /// The frame culls once: its rays are cast only against the obstacles
    /// of [`World::obstacles_in_view`], whose hits are those of a cast
    /// against every obstacle, bit for bit.
    pub fn capture(&self, world: &World, pose: &Pose) -> DepthImage {
        let config = &self.config;
        let mut in_view = IN_VIEW.with(|c| c.take());
        world.obstacles_in_view(
            &pose.position,
            pose.yaw,
            config.fov_horizontal,
            config.fov_vertical,
            config.max_range,
            &mut in_view,
        );
        let mut depths = Vec::with_capacity(config.pixel_count());
        for_each_ray(config, pose.yaw, config.width, config.height, |_, dir| {
            let depth = world
                .raycast_among(&in_view, &pose.position, &dir, config.max_range)
                .map(|hit| hit.distance)
                .unwrap_or(f64::INFINITY);
            depths.push(depth);
        });
        IN_VIEW.with(|c| *c.borrow_mut() = in_view);
        DepthImage {
            width: self.config.width,
            height: self.config.height,
            depths,
            camera_pose: *pose,
            config: self.config,
        }
    }
}

impl Default for DepthCamera {
    fn default() -> Self {
        DepthCamera::new(DepthCameraConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_env::{ObstacleClass, World};
    use mav_types::Aabb;

    fn wall_world() -> World {
        let mut w = World::empty(Aabb::new(
            Vec3::new(-50.0, -50.0, 0.0),
            Vec3::new(50.0, 50.0, 30.0),
        ));
        // A wall 10 m in front of the origin spanning the whole field of view.
        w.add_box(
            Aabb::from_center_size(Vec3::new(10.0, 0.0, 5.0), Vec3::new(1.0, 60.0, 10.0)),
            ObstacleClass::Structure,
        );
        w
    }

    #[test]
    fn frame_dimensions_match_config() {
        let cam = DepthCamera::default();
        let frame = cam.capture(&wall_world(), &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
        assert_eq!(frame.width, cam.config().width);
        assert_eq!(frame.height, cam.config().height);
        assert_eq!(frame.depths.len(), cam.config().pixel_count());
    }

    #[test]
    fn wall_appears_at_expected_depth() {
        let cam = DepthCamera::default();
        let frame = cam.capture(&wall_world(), &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
        // The centre pixel looks straight ahead and must report roughly 9.5 m
        // (the wall face is at x = 9.5).
        let c = frame.depth_at(frame.width / 2, frame.height / 2);
        assert!((c - 9.5).abs() < 0.5, "centre depth {c}");
        assert!(frame.min_depth().unwrap() <= c + 1e-9);
        assert!(frame.coverage() > 0.3);
    }

    #[test]
    fn points_lie_on_the_wall() {
        let cam = DepthCamera::default();
        let pose = Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0);
        let frame = cam.capture(&wall_world(), &pose);
        let pts = frame.points();
        assert!(!pts.is_empty());
        for p in pts {
            // Every returned point must be on (or extremely near) an obstacle
            // surface or the world boundary.
            assert!(p.x > 0.0);
        }
    }

    #[test]
    fn empty_world_has_boundary_returns_only() {
        let world = World::empty(Aabb::new(
            Vec3::new(-10.0, -10.0, 0.0),
            Vec3::new(10.0, 10.0, 10.0),
        ));
        let cam = DepthCamera::new(DepthCameraConfig {
            max_range: 5.0,
            ..Default::default()
        });
        let frame = cam.capture(&world, &Pose::new(Vec3::new(0.0, 0.0, 5.0), 0.0));
        // World boundary is 10 m away, beyond the 5 m max range: no returns.
        assert_eq!(frame.coverage(), 0.0);
        assert!(frame.min_depth().is_none());
        assert!(frame.point_at(0, 0).is_none());
    }

    #[test]
    fn yaw_rotates_the_view() {
        let cam = DepthCamera::default();
        let world = wall_world();
        // Facing away from the wall the centre pixel sees nothing within range.
        let away = cam.capture(
            &world,
            &Pose::new(Vec3::new(0.0, 0.0, 2.0), std::f64::consts::PI),
        );
        let c = away.depth_at(away.width / 2, away.height / 2);
        assert!(!c.is_finite() || c > 20.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_pixel_panics() {
        let cam = DepthCamera::default();
        let frame = cam.capture(&wall_world(), &Pose::origin());
        let _ = frame.depth_at(frame.width, 0);
    }

    #[test]
    fn display_nonempty() {
        let cam = DepthCamera::default();
        let frame = cam.capture(&wall_world(), &Pose::origin());
        assert!(!format!("{frame}").is_empty());
    }

    #[test]
    fn frame_size_is_bounded() {
        let camera = |width, height| DepthCameraConfig {
            width,
            height,
            ..Default::default()
        };
        assert!(DepthCameraConfig::high_resolution().validate().is_ok());
        assert!(camera(1024, 1024).validate().is_ok());
        assert!(camera(1025, 1024).validate().is_err());
        assert!(camera(0, 12).validate().is_err());
        // The product overflows `usize`; the check must not.
        assert!(camera(1 << 32, 1 << 32).validate().is_err());
        assert!(camera(usize::MAX, 2).validate().is_err());
    }

    #[test]
    fn fields_of_view_and_range_are_bounded() {
        use std::f64::consts::PI;
        let camera = |fov_horizontal, fov_vertical, max_range| DepthCameraConfig {
            fov_horizontal,
            fov_vertical,
            max_range,
            ..Default::default()
        };
        assert!(camera(PI, PI, 1e-3).validate().is_ok());
        for (h, v, range) in [
            (7.0, 1.0, 25.0),
            (1.0, PI + 1e-9, 25.0),
            (0.0, 1.0, 25.0),
            (1.0, -1.0, 25.0),
            (f64::NAN, 1.0, 25.0),
            (1.0, f64::INFINITY, 25.0),
            (1.0, 1.0, -5.0),
            (1.0, 1.0, 0.0),
            (1.0, 1.0, f64::INFINITY),
            (1.0, 1.0, f64::NAN),
        ] {
            assert!(camera(h, v, range).validate().is_err(), "{h} {v} {range}");
        }
    }

    /// The ray walk against the per-pixel loops it replaced, and the
    /// per-frame cull against a cast over every obstacle.
    mod frame_oracle {
        use super::*;
        use crate::DepthNoiseModel;
        use proptest::prelude::*;
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        use std::f64::consts::{FRAC_PI_2, PI};

        /// `pixel_ray` as it was before the row and column tables,
        /// verbatim: the oracle of every ray.
        fn pixel_ray_oracle(config: &DepthCameraConfig, pose: &Pose, u: usize, v: usize) -> Vec3 {
            let half_w = (config.width.max(2) - 1) as f64 / 2.0;
            let half_h = (config.height.max(2) - 1) as f64 / 2.0;
            // Normalised pixel coordinates in [-1, 1].
            let nx = (u as f64 - half_w) / half_w;
            let ny = (v as f64 - half_h) / half_h;
            let azimuth = pose.yaw + nx * config.fov_horizontal / 2.0;
            let elevation = -ny * config.fov_vertical / 2.0;
            Vec3::new(
                elevation.cos() * azimuth.cos(),
                elevation.cos() * azimuth.sin(),
                elevation.sin(),
            )
            .normalized()
        }

        /// `capture`'s per-pixel loop before the ray walk, verbatim.
        fn capture_oracle(camera: &DepthCamera, world: &World, pose: &Pose) -> Vec<f64> {
            let mut depths = Vec::with_capacity(camera.config.pixel_count());
            for v in 0..camera.config.height {
                for u in 0..camera.config.width {
                    let dir = pixel_ray_oracle(&camera.config, pose, u, v);
                    let depth = world
                        .raycast(&pose.position, &dir, camera.config.max_range)
                        .map(|hit| hit.distance)
                        .unwrap_or(f64::INFINITY);
                    depths.push(depth);
                }
            }
            depths
        }

        /// `points` before the point walk, verbatim.
        fn points_oracle(image: &DepthImage) -> Vec<Vec3> {
            let mut out = Vec::new();
            for v in 0..image.height {
                for u in 0..image.width {
                    if let Some(p) = image.point_at(u, v) {
                        out.push(p);
                    }
                }
            }
            out
        }

        fn bits(values: &[f64]) -> Vec<u64> {
            values.iter().map(|v| v.to_bits()).collect()
        }

        fn point_bits(points: &[Vec3]) -> Vec<[u64; 3]> {
            points
                .iter()
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        }

        /// A world of 0 to 20 random boxes in a 60 × 60 × 20 m box.
        fn random_world(rng: &mut ChaCha8Rng) -> World {
            let mut world = World::empty(Aabb::new(
                Vec3::new(-30.0, -30.0, 0.0),
                Vec3::new(30.0, 30.0, 20.0),
            ));
            for _ in 0..rng.gen_range(0..=20usize) {
                let center = Vec3::new(
                    rng.gen_range(-28.0..28.0),
                    rng.gen_range(-28.0..28.0),
                    rng.gen_range(0.5..10.0),
                );
                let size = Vec3::new(
                    rng.gen_range(0.5..8.0),
                    rng.gen_range(0.5..8.0),
                    rng.gen_range(1.0..12.0),
                );
                world.add_box(
                    Aabb::from_center_size(center, size),
                    ObstacleClass::Structure,
                );
            }
            world
        }

        /// Frame sizes: the missions' 16×12, the default 32×24, one-pixel
        /// rows and columns (the `max(2)` case) and odd sizes, whose middle
        /// row and column look exactly level and straight ahead.
        const SIZES: [(usize, usize); 9] = [
            (16, 12),
            (32, 24),
            (1, 1),
            (1, 7),
            (9, 1),
            (3, 3),
            (7, 5),
            (5, 9),
            (15, 11),
        ];

        /// Captures and point walks of random poses in random box worlds,
        /// plus yaw 0 and ±π/2 (whose exact or sub-1e-12 direction
        /// components take the slab test's parallel branch), against the
        /// per-pixel loops, bit for bit; then the noised frame's points,
        /// no-returns included.
        #[test]
        fn ray_walk_matches_the_per_pixel_loops() {
            let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
            for case in 0..360 {
                let world = random_world(&mut rng);
                let (width, height) = SIZES[case % SIZES.len()];
                let config = DepthCameraConfig {
                    width,
                    height,
                    fov_horizontal: rng.gen_range(0.2..3.0),
                    fov_vertical: rng.gen_range(0.2..2.0),
                    max_range: rng.gen_range(3.0..40.0),
                };
                let yaw = match case % 4 {
                    0 => 0.0,
                    1 => FRAC_PI_2,
                    2 => -FRAC_PI_2,
                    _ => rng.gen_range(-PI..PI),
                };
                let position = Vec3::new(
                    rng.gen_range(-25.0..25.0),
                    rng.gen_range(-25.0..25.0),
                    rng.gen_range(0.5..15.0),
                );
                let pose = Pose::new(position, yaw);
                let camera = DepthCamera::new(config);
                let mut frame = camera.capture(&world, &pose);
                assert_eq!(
                    bits(&frame.depths),
                    bits(&capture_oracle(&camera, &world, &pose)),
                    "case {case}: {width}x{height} at {position}, yaw {yaw}"
                );
                for v in 0..height {
                    for u in 0..width {
                        let ray = frame.ray_direction(u, v);
                        let want = pixel_ray_oracle(&config, &pose, u, v);
                        assert_eq!(
                            point_bits(&[ray]),
                            point_bits(&[want]),
                            "case {case} ({u}, {v})"
                        );
                    }
                }
                DepthNoiseModel::new(rng.gen_range(0.0..1.0), case as u64).apply(&mut frame);
                let walked = frame.points();
                assert_eq!(
                    point_bits(&walked),
                    point_bits(&points_oracle(&frame)),
                    "case {case}: points"
                );
                let mut visited = Vec::new();
                frame.for_each_point(|p| visited.push(p));
                assert_eq!(point_bits(&visited), point_bits(&walked));
            }
        }

        /// A field of view: random below π, exactly π, or above π (where
        /// the cull must keep the side planes off).
        fn fov(kind: usize, value: f64) -> f64 {
            match kind {
                0 => PI,
                1 => PI + value,
                _ => value.min(PI - 1e-3),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Worlds of 0 to 20 boxes of six kinds: anywhere; centred on a
            /// side ray of the camera's wedge; touching a side plane from
            /// outside at one corner; with a corner on a pixel's ray exactly
            /// `max_range` from the eye (or just inside it); containing the
            /// eye; and behind the eye, where the rows of a vertical field
            /// of view past π look. Yaws wrap past ±π; fields of view reach
            /// π and beyond; frames are 16×12 or 1×1.
            #[test]
            fn culled_capture_matches_the_cast_over_every_obstacle(
                boxes in proptest::collection::vec(
                    (0usize..6, (0.0..1.0, 0.0..1.0, 0.0..1.0), (0.2..8.0, 0.2..8.0, 0.2..10.0), 0usize..4),
                    0..21,
                ),
                eye in (-25.0..25.0, -25.0..25.0, 0.5..15.0),
                yaw in (0usize..5, -9.0..9.0),
                fovs in ((0usize..6, 0.01..4.0), (0usize..6, 0.01..4.0)),
                max_range in 1.0..40.0,
                one_pixel in 0usize..4,
            ) {
                let eye = Vec3::new(eye.0, eye.1, eye.2);
                let yaw = match yaw {
                    (0, _) => PI,
                    (1, _) => -PI,
                    (2, _) => 0.0,
                    (_, yaw) => yaw,
                };
                let ((h_kind, h), (v_kind, v)) = fovs;
                let (width, height) = if one_pixel == 0 { (1, 1) } else { (16, 12) };
                let config = DepthCameraConfig {
                    width,
                    height,
                    fov_horizontal: fov(h_kind, h),
                    fov_vertical: fov(v_kind, v),
                    max_range,
                };
                let pose = Pose::new(eye, yaw);
                let mut world = World::empty(Aabb::new(
                    Vec3::new(-30.0, -30.0, 0.0),
                    Vec3::new(30.0, 30.0, 20.0),
                ));
                for (kind, (a, b, c), size, pick) in boxes {
                    let size = Vec3::new(size.0, size.1, size.2);
                    // A point on a side ray of the wedge at the eye's
                    // height (past the guard, the ray the planes would use).
                    let half = config.fov_horizontal / 2.0;
                    let edge = if pick % 2 == 0 { yaw - half } else { yaw + half };
                    let along_edge = eye + Vec3::new(edge.cos(), edge.sin(), 0.0) * (a * max_range * 1.2);
                    let bounds = match kind {
                        1 => Aabb::from_center_size(along_edge, size),
                        2 => {
                            // Away from the wedge: the outward normal's side.
                            let (nx, ny) = if pick % 2 == 0 {
                                (edge.sin(), -edge.cos())
                            } else {
                                (-edge.sin(), edge.cos())
                            };
                            let far = along_edge
                                + Vec3::new(size.x * nx.signum(), size.y * ny.signum(), size.z * (b - 0.5));
                            Aabb::new(along_edge, far)
                        }
                        3 => {
                            let u = ((a * width as f64) as usize).min(width - 1);
                            let v = ((b * height as f64) as usize).min(height - 1);
                            let ray = pixel_ray(&config, &pose, u, v);
                            let reach = if pick == 0 { max_range } else { max_range - c * 0.04 };
                            let corner = eye + ray * reach;
                            let away = Vec3::new(ray.x.signum(), ray.y.signum(), ray.z.signum());
                            Aabb::new(corner, corner + Vec3::new(away.x * size.x, away.y * size.y, away.z * size.z))
                        }
                        4 => Aabb::new(eye - size * a, eye + size * (1.0 - a) + Vec3::splat(1e-3)),
                        5 => {
                            let back = Vec3::new(-yaw.cos(), -yaw.sin(), 0.0) * (1.0 + a * 6.0);
                            Aabb::from_center_size(eye + back + Vec3::new(0.0, 0.0, (b - 0.5) * 8.0), size)
                        }
                        _ => Aabb::from_center_size(
                            Vec3::new(a * 56.0 - 28.0, b * 56.0 - 28.0, 0.5 + c * 11.5),
                            size,
                        ),
                    };
                    world.add_box(bounds, ObstacleClass::Structure);
                }
                let camera = DepthCamera::new(config);
                let frame = camera.capture(&world, &pose);
                prop_assert_eq!(bits(&frame.depths), bits(&capture_oracle(&camera, &world, &pose)));
            }
        }
    }
}
