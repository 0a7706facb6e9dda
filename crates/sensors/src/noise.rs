//! Sensor noise models.
//!
//! The reliability case study of the paper (Table II) injects Gaussian noise
//! with standard deviations of 0–1.5 m into the depth readings of the RGB-D
//! camera and observes obstacle inflation, extra re-planning and mission
//! failures. This module provides that noise injection.

use crate::depth_camera::DepthImage;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Gaussian noise applied to every finite pixel of a depth image.
///
/// # Example
///
/// ```
/// use mav_sensors::DepthNoiseModel;
/// let quiet = DepthNoiseModel::new(0.0, 7);
/// assert!(quiet.is_noiseless());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DepthNoiseModel {
    /// Standard deviation of the additive Gaussian noise, metres.
    pub std_dev: f64,
    seed: u64,
    counter: u64,
}

impl DepthNoiseModel {
    /// Creates a noise model with the given standard deviation (metres) and
    /// RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    pub fn new(std_dev: f64, seed: u64) -> Self {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "invalid noise std {std_dev}"
        );
        DepthNoiseModel {
            std_dev,
            seed,
            counter: 0,
        }
    }

    /// Returns `true` when the model adds no noise at all.
    pub fn is_noiseless(&self) -> bool {
        self.std_dev == 0.0
    }

    /// Applies noise in place to a depth frame. Each call uses a fresh,
    /// deterministic RNG stream derived from the seed and an internal frame
    /// counter, so repeated runs of a mission are reproducible.
    pub fn apply(&mut self, image: &mut DepthImage) {
        if self.is_noiseless() {
            self.counter += 1;
            return;
        }
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.counter += 1;
        for d in &mut image.depths {
            if d.is_finite() {
                let n = sample_gaussian(&mut rng) * self.std_dev;
                *d = (*d + n).max(0.05);
            }
        }
    }
}

/// Samples a standard normal variate via the Box–Muller transform.
pub(crate) fn sample_gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depth_camera::{DepthCamera, DepthCameraConfig};
    use mav_env::{EnvironmentConfig, World};
    use mav_types::{Pose, Vec3};

    fn capture_frame(world: &World) -> DepthImage {
        DepthCamera::new(DepthCameraConfig::default())
            .capture(world, &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0))
    }

    #[test]
    fn noiseless_model_is_identity() {
        let world = EnvironmentConfig::urban_outdoor().with_seed(2).generate();
        let clean = capture_frame(&world);
        let mut noisy = clean.clone();
        let mut model = DepthNoiseModel::new(0.0, 5);
        model.apply(&mut noisy);
        assert_eq!(clean, noisy);
    }

    #[test]
    fn noise_perturbs_finite_pixels_only() {
        let world = EnvironmentConfig::urban_outdoor().with_seed(2).generate();
        let clean = capture_frame(&world);
        let mut noisy = clean.clone();
        let mut model = DepthNoiseModel::new(1.0, 5);
        model.apply(&mut noisy);
        let mut changed = 0usize;
        for (c, n) in clean.depths.iter().zip(noisy.depths.iter()) {
            if c.is_finite() {
                assert!(n.is_finite());
                assert!(*n >= 0.05);
                if (c - n).abs() > 1e-12 {
                    changed += 1;
                }
            } else {
                assert!(!n.is_finite());
            }
        }
        assert!(changed > 0, "noise changed no pixels");
    }

    #[test]
    fn noise_magnitude_tracks_std_dev() {
        let world = EnvironmentConfig::urban_outdoor().with_seed(2).generate();
        let clean = capture_frame(&world);
        let rms = |std: f64| {
            let mut noisy = clean.clone();
            DepthNoiseModel::new(std, 11).apply(&mut noisy);
            let (sum, n) = clean
                .depths
                .iter()
                .zip(noisy.depths.iter())
                .filter(|(c, _)| c.is_finite())
                .fold((0.0, 0usize), |(s, n), (c, d)| (s + (c - d).powi(2), n + 1));
            (sum / n.max(1) as f64).sqrt()
        };
        let small = rms(0.2);
        let large = rms(1.5);
        assert!(
            large > small * 2.0,
            "expected noise to scale: {small} vs {large}"
        );
    }

    #[test]
    fn successive_frames_get_different_noise() {
        let world = EnvironmentConfig::urban_outdoor().with_seed(2).generate();
        let clean = capture_frame(&world);
        let mut model = DepthNoiseModel::new(0.5, 3);
        let mut a = clean.clone();
        let mut b = clean.clone();
        model.apply(&mut a);
        model.apply(&mut b);
        assert_ne!(a.depths, b.depths);
    }

    #[test]
    fn gaussian_sampler_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    #[should_panic]
    fn negative_std_rejected() {
        let _ = DepthNoiseModel::new(-1.0, 0);
    }
}
