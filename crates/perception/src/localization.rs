//! The localization kernel: a visual-SLAM model.
//!
//! The paper's Fig. 8b microbenchmark drives ORB-SLAM2 around a 25 m circle
//! while artificially throttling its frame rate, and finds that for a bounded
//! localization-failure rate (20 %) the permissible maximum velocity grows
//! with the SLAM frame rate. This module models that relationship directly:
//! the per-frame failure probability grows with the distance the vehicle
//! travels between processed frames (velocity / FPS), so higher compute (FPS)
//! permits higher speed at the same failure budget.

use mav_types::{Pose, Vec3};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Result of one localization update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizationResult {
    /// Estimated pose.
    pub pose: Pose,
    /// `false` when the localizer has lost track of the vehicle.
    pub healthy: bool,
}

/// Configuration of the visual SLAM model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlamConfig {
    /// Frames per second the SLAM front end can process — the compute knob.
    pub fps: f64,
    /// Metres the vehicle may travel between processed frames before the
    /// failure probability starts rising.
    pub tolerated_motion_per_frame: f64,
    /// Slope of the failure probability beyond the tolerated motion,
    /// per metre of excess inter-frame motion.
    pub failure_slope: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SlamConfig {
    /// A SLAM front end processing `fps` frames per second.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not strictly positive.
    pub fn with_fps(fps: f64) -> Self {
        assert!(fps > 0.0, "fps must be positive, got {fps}");
        SlamConfig {
            fps,
            tolerated_motion_per_frame: 0.35,
            failure_slope: 0.55,
            seed: 29,
        }
    }

    /// Probability of a localization failure on one processed frame at the
    /// given speed (m/s).
    pub fn failure_probability(&self, speed: f64) -> f64 {
        let motion_per_frame = speed / self.fps;
        ((motion_per_frame - self.tolerated_motion_per_frame) * self.failure_slope).clamp(0.0, 1.0)
    }

    /// The largest speed whose per-frame failure probability stays at or below
    /// `budget` — the analytic form of the paper's Fig. 8b sweep.
    pub fn max_velocity_for_failure_budget(&self, budget: f64) -> f64 {
        let budget = budget.clamp(0.0, 1.0);
        (self.tolerated_motion_per_frame + budget / self.failure_slope) * self.fps
    }
}

/// The visual SLAM localizer model (ORB-SLAM2 / VINS-Mono substitute).
///
/// # Example
///
/// ```
/// use mav_perception::SlamConfig;
///
/// let slow = SlamConfig::with_fps(2.0);
/// let fast = SlamConfig::with_fps(8.0);
/// // More compute (FPS) permits a higher speed at the same 20 % failure budget.
/// assert!(fast.max_velocity_for_failure_budget(0.2) > slow.max_velocity_for_failure_budget(0.2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VisualSlam {
    config: SlamConfig,
    failures: u32,
    frames: u64,
    lost: bool,
    /// When lost, the number of consecutive healthy-conditions frames needed
    /// to re-localize.
    relocalization_frames: u32,
    relocalization_progress: u32,
}

impl VisualSlam {
    /// Creates a SLAM localizer.
    pub fn new(config: SlamConfig) -> Self {
        VisualSlam {
            config,
            failures: 0,
            frames: 0,
            lost: false,
            relocalization_frames: 5,
            relocalization_progress: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SlamConfig {
        &self.config
    }

    /// Returns `true` while the SLAM system has lost track.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Number of frames processed.
    pub fn frames_processed(&self) -> u64 {
        self.frames
    }

    /// Observed failure rate (failures per processed frame).
    pub fn failure_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.failures as f64 / self.frames as f64
        }
    }

    /// Processes one frame at ground-truth pose `truth` while the vehicle
    /// moves at `velocity` (the simulator is the oracle; a real front end
    /// would track features).
    pub fn localize(&mut self, truth: &Pose, velocity: &Vec3) -> LocalizationResult {
        self.frames += 1;
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.config.seed ^ self.frames.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let speed = velocity.norm();
        let p_fail = self.config.failure_probability(speed);
        if self.lost {
            // Re-localization requires several consecutive low-motion frames.
            if p_fail < 0.05 {
                self.relocalization_progress += 1;
                if self.relocalization_progress >= self.relocalization_frames {
                    self.lost = false;
                    self.relocalization_progress = 0;
                }
            } else {
                self.relocalization_progress = 0;
            }
        } else if rng.gen_range(0.0..1.0) < p_fail {
            self.failures += 1;
            self.lost = true;
            self.relocalization_progress = 0;
        }
        LocalizationResult {
            pose: *truth,
            healthy: !self.lost,
        }
    }

    /// Number of localization failures so far.
    pub fn failure_count(&self) -> u32 {
        self.failures
    }
}

impl fmt::Display for VisualSlam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slam[{:.1} fps, {} failures / {} frames]",
            self.config.fps, self.failures, self.frames
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn failure_probability_grows_with_speed_and_shrinks_with_fps() {
        let slow_compute = SlamConfig::with_fps(2.0);
        let fast_compute = SlamConfig::with_fps(10.0);
        assert!(slow_compute.failure_probability(5.0) > fast_compute.failure_probability(5.0));
        assert!(slow_compute.failure_probability(8.0) > slow_compute.failure_probability(2.0));
        assert_eq!(fast_compute.failure_probability(0.5), 0.0);
    }

    #[test]
    fn max_velocity_increases_with_fps() {
        // The shape of Fig. 8b: max velocity under a 20 % failure budget grows
        // monotonically with the SLAM frame rate.
        let mut last = 0.0;
        for fps in [1.0, 2.0, 4.0, 6.0, 8.0] {
            let v = SlamConfig::with_fps(fps).max_velocity_for_failure_budget(0.2);
            assert!(v > last, "fps {fps} gave {v} which is not above {last}");
            last = v;
        }
        // And the budgets are consistent with the probability model.
        let cfg = SlamConfig::with_fps(4.0);
        let v = cfg.max_velocity_for_failure_budget(0.2);
        assert!((cfg.failure_probability(v) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn slam_fails_when_flying_too_fast_and_recovers_when_slow() {
        let mut slam = VisualSlam::new(SlamConfig::with_fps(2.0));
        let truth = Pose::origin();
        // Fly much faster than the 2 fps front end can tolerate.
        let mut failed = false;
        for _ in 0..200 {
            let r = slam.localize(&truth, &Vec3::new(12.0, 0.0, 0.0));
            if !r.healthy {
                failed = true;
                break;
            }
        }
        assert!(failed, "slam never failed at 12 m/s on a 2 fps front end");
        assert!(slam.is_lost());
        assert!(slam.failure_count() >= 1);
        // Slow down: after a few quiet frames the system re-localizes.
        let mut recovered = false;
        for _ in 0..50 {
            let r = slam.localize(&truth, &Vec3::new(0.2, 0.0, 0.0));
            if r.healthy {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "slam never re-localized at low speed");
        assert!(slam.frames_processed() > 0);
        assert!(slam.failure_rate() > 0.0);
    }

    #[test]
    fn high_fps_slam_survives_high_speed() {
        let mut slam = VisualSlam::new(SlamConfig::with_fps(30.0));
        let truth = Pose::origin();
        for _ in 0..500 {
            let r = slam.localize(&truth, &Vec3::new(8.0, 0.0, 0.0));
            assert!(r.healthy);
        }
        assert_eq!(slam.failure_count(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_fps_rejected() {
        let _ = SlamConfig::with_fps(0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", VisualSlam::new(SlamConfig::with_fps(5.0))).is_empty());
    }
}
