//! Inertial and GPS sensing.
//!
//! The flight controller consumes IMU samples while the perception stage of
//! each workload consumes GPS fixes (or hands them to the SLAM substitute).

use crate::noise::GpsNoiseModel;
use mav_types::{Pose, SimTime, Twist, Vec3};

/// One inertial measurement: specific force and angular rate plus a timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuSample {
    /// Linear acceleration including gravity compensation, m/s².
    pub acceleration: Vec3,
    /// Yaw rate, rad/s.
    pub yaw_rate: f64,
    /// Mission time of the sample.
    pub time: SimTime,
}

/// A GPS position fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsFix {
    /// Estimated position, world frame, metres.
    pub position: Vec3,
    /// Mission time of the fix.
    pub time: SimTime,
    /// One-sigma horizontal accuracy estimate, metres.
    pub horizontal_accuracy: f64,
}

/// Simulated IMU producing noiseless samples from the true vehicle state.
///
/// The paper's evaluation never varies IMU quality, so the default IMU is
/// ideal; acceleration noise can be added through the `accel_noise_std`
/// field when reliability studies need it.
#[derive(Debug, Clone, PartialEq)]
pub struct Imu {
    /// Standard deviation of additive acceleration noise, m/s².
    pub accel_noise_std: f64,
}

impl Default for Imu {
    fn default() -> Self {
        Imu {
            accel_noise_std: 0.0,
        }
    }
}

impl Imu {
    /// Creates an ideal IMU.
    pub fn ideal() -> Self {
        Imu::default()
    }

    /// Produces a sample from the true acceleration and yaw rate.
    pub fn sample(&self, acceleration: Vec3, twist: &Twist, time: SimTime) -> ImuSample {
        ImuSample {
            acceleration,
            yaw_rate: twist.yaw_rate,
            time,
        }
    }
}

/// Simulated GPS receiver.
///
/// # Example
///
/// ```
/// use mav_sensors::{Gps, GpsNoiseModel};
/// use mav_types::{Pose, SimTime, Vec3};
///
/// let mut gps = Gps::new(GpsNoiseModel::perfect());
/// let fix = gps.fix(&Pose::new(Vec3::new(1.0, 2.0, 3.0), 0.0), SimTime::ZERO);
/// assert_eq!(fix.position, Vec3::new(1.0, 2.0, 3.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Gps {
    noise: GpsNoiseModel,
}

impl Gps {
    /// Creates a GPS with the given noise model.
    pub fn new(noise: GpsNoiseModel) -> Self {
        Gps { noise }
    }

    /// Produces a fix of the true pose.
    pub fn fix(&mut self, truth: &Pose, time: SimTime) -> GpsFix {
        let position = self.noise.apply(truth.position);
        GpsFix {
            position,
            time,
            horizontal_accuracy: self.noise.horizontal_std.max(0.01),
        }
    }
}

impl Default for Gps {
    fn default() -> Self {
        Gps::new(GpsNoiseModel::perfect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_imu_passes_through_truth() {
        let imu = Imu::ideal();
        let twist = Twist::new(Vec3::new(1.0, 0.0, 0.0), 0.2);
        let s = imu.sample(Vec3::new(0.0, 0.0, -9.81), &twist, SimTime::from_secs(1.0));
        assert_eq!(s.acceleration.z, -9.81);
        assert_eq!(s.yaw_rate, 0.2);
        assert_eq!(s.time.as_secs(), 1.0);
    }

    #[test]
    fn perfect_gps_is_exact() {
        let mut gps = Gps::default();
        let truth = Pose::new(Vec3::new(5.0, -3.0, 10.0), 1.0);
        let fix = gps.fix(&truth, SimTime::from_secs(2.0));
        assert_eq!(fix.position, truth.position);
        assert!(fix.horizontal_accuracy > 0.0);
    }

    #[test]
    fn noisy_gps_scatters_fixes() {
        let mut gps = Gps::new(GpsNoiseModel::consumer_grade(4));
        let truth = Pose::new(Vec3::new(5.0, -3.0, 10.0), 1.0);
        let a = gps.fix(&truth, SimTime::ZERO);
        let b = gps.fix(&truth, SimTime::from_secs(1.0));
        assert_ne!(a.position, b.position);
        assert!(a.position.distance(&truth.position) < 5.0);
    }
}
