//! Simulated RGB-D depth camera.
//!
//! The depth camera is the main exteroceptive sensor of every MAVBench
//! workload: its frames feed point-cloud generation, OctoMap updates and
//! collision checking. Here a frame is produced by casting one ray per pixel
//! into the [`mav_env::World`], which mirrors how AirSim rasterises depth from
//! the Unreal scene.

use mav_env::World;
use mav_types::{Pose, Vec3};
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
        if config.width == 0 || config.height == 0 {
            return Err("width/height: resolution must be non-zero".to_string());
        }
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

    /// Number of pixels per frame.
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
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

    /// Iterates over all finite-range points of the frame in the world frame.
    pub fn points(&self) -> Vec<Vec3> {
        let mut out = Vec::new();
        for v in 0..self.height {
            for u in 0..self.width {
                if let Some(p) = self.point_at(u, v) {
                    out.push(p);
                }
            }
        }
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
    pub fn capture(&self, world: &World, pose: &Pose) -> DepthImage {
        let mut depths = Vec::with_capacity(self.config.pixel_count());
        for v in 0..self.config.height {
            for u in 0..self.config.width {
                let dir = pixel_ray(&self.config, pose, u, v);
                let depth = world
                    .raycast(&pose.position, &dir, self.config.max_range)
                    .map(|hit| hit.distance)
                    .unwrap_or(f64::INFINITY);
                depths.push(depth);
            }
        }
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
}
