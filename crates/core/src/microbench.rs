//! The SLAM-throughput microbenchmark (the paper's Fig. 8b) and the
//! steady-state power/endurance helpers behind Figs. 2 and 9.
//!
//! The paper tasks the drone with a circular path of radius 25 m, throttles
//! ORB-SLAM2 to different frame rates, bounds the localization-failure rate at
//! 20 %, and reports the resulting maximum velocity and total energy. Here the
//! same sweep is driven by the [`mav_perception::SlamConfig`] failure model
//! plus the Eq. 1 energy model, with the airframe capped at 12 m/s.

use mav_dynamics::QuadrotorConfig;
use mav_energy::{ComputePowerModel, RotorPowerModel};
use mav_perception::{SlamConfig, VisualSlam};
use mav_types::Vec3;

/// One point of the Fig. 8b sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlamSweepPoint {
    /// SLAM frame rate, frames per second (the compute knob).
    pub fps: f64,
    /// Maximum velocity permitted at the 20 % failure budget, m/s.
    pub max_velocity: f64,
    /// Mission time to complete the circular path at that velocity, seconds.
    pub mission_time_secs: f64,
    /// Total system energy for the lap, kilojoules.
    pub energy_kj: f64,
    /// Localization failure rate actually observed when simulating the lap.
    pub observed_failure_rate: f64,
}

/// Radius of the circular path, metres (25 m in the paper).
const RADIUS: f64 = 25.0;
/// Localization failure-rate budget (20 % in the paper).
const FAILURE_BUDGET: f64 = 0.2;
/// Airframe mechanical velocity limit, m/s.
const MECHANICAL_LIMIT: f64 = 12.0;

/// Runs the Fig. 8b sweep over the given SLAM frame rates.
pub fn slam_fps_sweep(fps_values: &[f64]) -> Vec<SlamSweepPoint> {
    let rotor = RotorPowerModel::dji_matrice_100();
    let compute = ComputePowerModel::tx2();
    let quad = QuadrotorConfig::dji_matrice_100();
    fps_values
        .iter()
        .map(|&fps| {
            let slam_cfg = SlamConfig::with_fps(fps);
            let budgeted = slam_cfg.max_velocity_for_failure_budget(FAILURE_BUDGET);
            let velocity = budgeted.min(MECHANICAL_LIMIT).min(quad.max_velocity);
            let circumference = std::f64::consts::TAU * RADIUS;
            let mission_time = circumference / velocity.max(0.1);
            // Energy: rotor power at the cruise velocity plus compute power,
            // integrated over the lap.
            let rotor_power = rotor.power(&Vec3::new(velocity, 0.0, 0.0), &Vec3::ZERO, &Vec3::ZERO);
            let compute_power = compute.power(4, 2.2);
            let energy_kj =
                (rotor_power.as_watts() + compute_power.as_watts()) * mission_time / 1000.0;
            // Validate the analytic budget by actually simulating the lap with
            // the stochastic SLAM model.
            let observed_failure_rate = simulate_lap(&slam_cfg, velocity, RADIUS, fps);
            SlamSweepPoint {
                fps,
                max_velocity: velocity,
                mission_time_secs: mission_time,
                energy_kj,
                observed_failure_rate,
            }
        })
        .collect()
}

/// Simulates one lap of the circle at constant speed, feeding the SLAM model
/// one frame per 1/fps seconds, and returns the observed failure rate.
fn simulate_lap(slam_cfg: &SlamConfig, velocity: f64, radius: f64, fps: f64) -> f64 {
    let mut slam = VisualSlam::new(*slam_cfg);
    let circumference = std::f64::consts::TAU * radius;
    let lap_time = circumference / velocity.max(0.1);
    let frames = (lap_time * fps).ceil().max(1.0) as usize;
    let mut t = 0.0;
    for _ in 0..frames.min(20_000) {
        let angle = (velocity * t) / radius;
        let tangent = Vec3::new(-angle.sin(), angle.cos(), 0.0) * velocity;
        slam.localize(&tangent);
        t += 1.0 / fps;
    }
    slam.failure_rate()
}

/// Endurance of a hovering MAV given battery capacity (mAh at the given
/// nominal voltage) and hover power — the simple model behind Fig. 2a's trend.
pub fn hover_endurance_minutes(battery_mah: f64, nominal_voltage: f64, hover_watts: f64) -> f64 {
    if hover_watts <= 0.0 {
        return 0.0;
    }
    let energy_j = battery_mah * nominal_voltage * 3.6;
    energy_j / hover_watts / 60.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_slam_permits_faster_laps_and_less_energy() {
        let sweep = slam_fps_sweep(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(sweep.len(), 4);
        for w in sweep.windows(2) {
            assert!(
                w[1].max_velocity >= w[0].max_velocity,
                "velocity not monotone"
            );
            assert!(w[1].mission_time_secs <= w[0].mission_time_secs + 1e-9);
        }
        // The paper reports ≈4X energy reduction for a 5X FPS increase; our
        // model must show a clear (>1.5X) energy reduction from 1 to 8 FPS.
        let slow = &sweep[0];
        let fast = &sweep[3];
        assert!(
            slow.energy_kj / fast.energy_kj > 1.5,
            "energy ratio {:.2}",
            slow.energy_kj / fast.energy_kj
        );
    }

    #[test]
    fn observed_failure_rate_respects_the_budget() {
        let sweep = slam_fps_sweep(&[2.0, 5.0, 10.0]);
        for point in sweep {
            assert!(
                point.observed_failure_rate <= 0.35,
                "fps {} exceeded the failure budget with {:.2}",
                point.fps,
                point.observed_failure_rate
            );
        }
    }

    #[test]
    fn velocity_saturates_at_the_mechanical_limit() {
        // The Matrice 100's own 17 m/s limit lies above the 12 m/s cap.
        assert!(QuadrotorConfig::dji_matrice_100().max_velocity > MECHANICAL_LIMIT);
        let sweep = slam_fps_sweep(&[50.0, 100.0]);
        for p in sweep {
            assert_eq!(p.max_velocity, MECHANICAL_LIMIT);
        }
    }

    #[test]
    fn hover_endurance_matches_off_the_shelf_numbers() {
        // A 3DR-Solo-class pack (5200 mAh, 14.8 V) at ~287 W hovers for
        // roughly 16 minutes — under the 20-minute figure the paper quotes.
        let minutes = hover_endurance_minutes(5200.0, 14.8, 287.0);
        assert!(minutes > 10.0 && minutes < 20.0, "endurance {minutes}");
        assert_eq!(hover_endurance_minutes(5000.0, 14.8, 0.0), 0.0);
        // Bigger battery, longer endurance.
        assert!(hover_endurance_minutes(10_000.0, 14.8, 287.0) > minutes);
    }
}
