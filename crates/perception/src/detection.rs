//! Object detection kernel (YOLO / HOG substitute).
//!
//! The original MAVBench ships YOLO and OpenCV HOG/Haar people detectors. In
//! this reproduction the detector operates on the simulated scene directly:
//! person-like obstacles within the camera's field of view and line of sight
//! are reported as detections, with a recall model that degrades with distance
//! (and differs per detector family), mirroring how detection precision falls
//! off in the paper's photorealism discussion.

use mav_env::{ObstacleClass, World};
use mav_types::{Pose, Vec3};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Which detector implementation is plugged in (the paper's "plug and play"
/// kernel knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// YOLO-class CNN detector: long range, high recall, expensive.
    Yolo,
    /// HOG people detector: shorter range, lower recall, cheaper.
    Hog,
}

impl DetectorKind {
    /// Maximum reliable detection range, metres.
    pub fn max_range(&self) -> f64 {
        match self {
            DetectorKind::Yolo => 40.0,
            DetectorKind::Hog => 20.0,
        }
    }

    /// Recall at point-blank range.
    pub fn base_recall(&self) -> f64 {
        match self {
            DetectorKind::Yolo => 0.95,
            DetectorKind::Hog => 0.80,
        }
    }
}

impl fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorKind::Yolo => f.write_str("yolo"),
            DetectorKind::Hog => f.write_str("hog"),
        }
    }
}

/// One detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// World-frame position of the detected object's centre.
    pub position: Vec3,
    /// Detection confidence in `[0, 1]`.
    pub confidence: f64,
    /// Horizontal offset of the detection from the image centre, normalised to
    /// `[-1, 1]` (the aerial-photography error metric measures the distance of
    /// the target's bounding box from the frame centre).
    pub image_offset: f64,
    /// Class of the detected obstacle.
    pub class: ObstacleClass,
}

/// Horizontal field of view of the detector's camera, radians (90°).
const FOV_HORIZONTAL: f64 = std::f64::consts::FRAC_PI_2;

/// Configuration of the object detection kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Which detector family is used.
    pub kind: DetectorKind,
    /// RNG seed for the recall model.
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            kind: DetectorKind::Yolo,
            seed: 17,
        }
    }
}

/// The object detector.
///
/// # Example
///
/// ```
/// use mav_env::EnvironmentConfig;
/// use mav_perception::{DetectorConfig, ObjectDetector};
/// use mav_types::{Pose, Vec3};
///
/// let world = EnvironmentConfig::disaster_site().with_seed(3).generate();
/// let mut detector = ObjectDetector::new(DetectorConfig::default());
/// let _detections = detector.detect(&world, &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectDetector {
    config: DetectorConfig,
    frame: u64,
}

impl ObjectDetector {
    /// Creates a detector.
    pub fn new(config: DetectorConfig) -> Self {
        ObjectDetector { config, frame: 0 }
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs detection from `pose` in `world`, returning every person-like
    /// object detected this frame.
    pub fn detect(&mut self, world: &World, pose: &Pose) -> Vec<Detection> {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.config.seed ^ self.frame.wrapping_mul(0xA076_1D64_78BD_642F),
        );
        self.frame += 1;
        let mut detections = Vec::new();
        for obstacle in world.obstacles() {
            if !obstacle.class.is_person_like() {
                continue;
            }
            let target = obstacle.center();
            let to_target = target - pose.position;
            let range = to_target.norm();
            if range > self.config.kind.max_range() || range < 0.5 {
                continue;
            }
            // Field-of-view check on the horizontal bearing.
            let bearing = mav_types::pose::wrap_angle(to_target.heading() - pose.yaw);
            if bearing.abs() > FOV_HORIZONTAL / 2.0 {
                continue;
            }
            // Line-of-sight: the first surface the ray hits must belong to the
            // target obstacle (or be within half a metre of it).
            let visible = match world.raycast(&pose.position, &to_target, range + 1.0) {
                Some(hit) => {
                    hit.obstacle == Some(obstacle.id) || (hit.distance - range).abs() < 0.75
                }
                None => true,
            };
            if !visible {
                continue;
            }
            // Recall falls off linearly with distance.
            let recall = self.config.kind.base_recall()
                * (1.0 - range / self.config.kind.max_range()).clamp(0.05, 1.0);
            if rng.gen_range(0.0..1.0) > recall {
                continue;
            }
            let confidence = (recall + rng.gen_range(-0.05f64..0.05)).clamp(0.1, 1.0);
            detections.push(Detection {
                position: target,
                confidence,
                image_offset: (bearing / (FOV_HORIZONTAL / 2.0)).clamp(-1.0, 1.0),
                class: obstacle.class,
            });
        }
        detections
    }

    /// Convenience: the highest-confidence detection of the given class, if
    /// any.
    pub fn detect_class(
        &mut self,
        world: &World,
        pose: &Pose,
        class: ObstacleClass,
    ) -> Option<Detection> {
        self.detect(world, pose)
            .into_iter()
            .filter(|d| d.class == class)
            // `total_cmp` ≡ the historical `partial_cmp().expect()`:
            // confidences are finite and strictly positive, so the NaN/±0.0
            // cases where the comparators differ cannot occur.
            .max_by(|a, b| a.confidence.total_cmp(&b.confidence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_env::{Obstacle, ObstacleId};
    use mav_types::Aabb;

    fn world_with_person_at(pos: Vec3) -> World {
        let mut w = World::empty(Aabb::new(
            Vec3::new(-60.0, -60.0, 0.0),
            Vec3::new(60.0, 60.0, 30.0),
        ));
        w.add_obstacle(Obstacle::fixed(
            ObstacleId(0),
            Aabb::from_center_size(pos, Vec3::new(0.6, 0.6, 1.8)),
            ObstacleClass::Person,
        ));
        w
    }

    #[test]
    fn detects_visible_person_in_front() {
        let world = world_with_person_at(Vec3::new(8.0, 0.0, 0.9));
        let mut det = ObjectDetector::new(DetectorConfig::default());
        // Run several frames: with ~75-95 % recall at 8 m the person must be
        // found within a few frames.
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.5), 0.0);
        let mut found = false;
        for _ in 0..10 {
            if det
                .detect_class(&world, &pose, ObstacleClass::Person)
                .is_some()
            {
                found = true;
                break;
            }
        }
        assert!(found);
    }

    #[test]
    fn ignores_person_behind_the_camera() {
        let world = world_with_person_at(Vec3::new(-8.0, 0.0, 0.9));
        let mut det = ObjectDetector::new(DetectorConfig::default());
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.5), 0.0);
        for _ in 0..20 {
            assert!(det.detect(&world, &pose).is_empty());
        }
    }

    #[test]
    fn occluded_person_is_not_detected() {
        let mut world = world_with_person_at(Vec3::new(12.0, 0.0, 0.9));
        // Wall between the camera and the person.
        world.add_box(
            Aabb::from_center_size(Vec3::new(6.0, 0.0, 2.0), Vec3::new(0.5, 10.0, 4.0)),
            ObstacleClass::Structure,
        );
        let mut det = ObjectDetector::new(DetectorConfig::default());
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.5), 0.0);
        for _ in 0..20 {
            assert!(det.detect(&world, &pose).is_empty());
        }
    }

    #[test]
    fn out_of_range_person_is_not_detected() {
        let world = world_with_person_at(Vec3::new(55.0, 0.0, 0.9));
        let mut det = ObjectDetector::new(DetectorConfig {
            kind: DetectorKind::Hog,
            ..Default::default()
        });
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.5), 0.0);
        for _ in 0..20 {
            assert!(det.detect(&world, &pose).is_empty());
        }
    }

    #[test]
    fn yolo_outranges_hog() {
        // Person at 30 m: in range of YOLO, out of range of HOG.
        let world = world_with_person_at(Vec3::new(30.0, 0.0, 0.9));
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.5), 0.0);
        let mut yolo = ObjectDetector::new(DetectorConfig::default());
        let mut hog = ObjectDetector::new(DetectorConfig {
            kind: DetectorKind::Hog,
            ..Default::default()
        });
        let mut yolo_found = false;
        for _ in 0..40 {
            if !yolo.detect(&world, &pose).is_empty() {
                yolo_found = true;
            }
            assert!(hog.detect(&world, &pose).is_empty());
        }
        assert!(yolo_found);
        assert!(DetectorKind::Yolo.max_range() > DetectorKind::Hog.max_range());
        assert!(!format!("{}", DetectorKind::Yolo).is_empty());
    }

    #[test]
    fn image_offset_reflects_bearing() {
        let world = world_with_person_at(Vec3::new(8.0, 3.0, 0.9));
        let mut det = ObjectDetector::new(DetectorConfig::default());
        let pose = Pose::new(Vec3::new(0.0, 0.0, 1.5), 0.0);
        for _ in 0..20 {
            if let Some(d) = det.detect_class(&world, &pose, ObstacleClass::Person) {
                assert!(
                    d.image_offset > 0.0,
                    "target left of centre should have positive offset"
                );
                assert!(d.confidence > 0.0 && d.confidence <= 1.0);
                return;
            }
        }
        panic!("person never detected");
    }
}
