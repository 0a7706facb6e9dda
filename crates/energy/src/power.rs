//! Rotor and compute power models.
//!
//! The rotor model implements the parametric power estimation of the paper's
//! Eq. 1 (after Tseng et al.): three inner products over horizontal speed and
//! acceleration, vertical speed and acceleration, and a payload/wind/constant
//! group. The default coefficients are calibrated so that a 3DR-Solo-class
//! vehicle hovers at ≈287 W, matching the paper's wattmeter measurement
//! (Fig. 9a), and so that power grows with both speed and acceleration.
//!
//! The compute model approximates an NVIDIA TX2-class companion computer:
//! an idle floor plus a per-core dynamic term that scales quadratically with
//! clock frequency, calibrated to ≈13 W at 4 cores / 2.2 GHz (Fig. 9a).

use mav_types::{Power, Vec3};

/// Coefficients of the paper's Eq. 1 rotor power model.
///
/// `P = (β1, β2, β3)·(‖v_xy‖, ‖a_xy‖, ‖v_xy‖‖a_xy‖)
///    + (β4, β5, β6)·(‖v_z‖, ‖a_z‖, ‖v_z‖‖a_z‖)
///    + (β7, β8, β9)·(m, v_xy·w_xy, 1)`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCoefficients {
    /// Weight of horizontal speed, W/(m/s).
    pub beta1: f64,
    /// Weight of horizontal acceleration, W/(m/s²).
    pub beta2: f64,
    /// Weight of the product of horizontal speed and acceleration.
    pub beta3: f64,
    /// Weight of vertical speed, W/(m/s).
    pub beta4: f64,
    /// Weight of vertical acceleration, W/(m/s²).
    pub beta5: f64,
    /// Weight of the product of vertical speed and acceleration.
    pub beta6: f64,
    /// Weight of vehicle mass, W/kg.
    pub beta7: f64,
    /// Weight of the head-wind term (v_xy · w_xy), W/(m²/s²).
    pub beta8: f64,
    /// Constant term, W.
    pub beta9: f64,
}

impl Default for PowerCoefficients {
    fn default() -> Self {
        // Calibrated so that a 1.8 kg 3DR Solo hovers at ~286.8 W and a
        // 2.43 kg Matrice-class vehicle at ~325 W, with power rising by
        // ~6 W per m/s of horizontal speed and ~9 W per m/s² of acceleration.
        PowerCoefficients {
            beta1: 6.0,
            beta2: 9.0,
            beta3: 1.2,
            beta4: 24.0,
            beta5: 41.0,
            beta6: 2.2,
            beta7: 60.5,
            beta8: 1.0,
            beta9: 177.9,
        }
    }
}

/// Rotor (locomotion) power model.
///
/// # Example
///
/// ```
/// use mav_energy::RotorPowerModel;
/// use mav_types::Vec3;
///
/// let model = RotorPowerModel::solo_3dr();
/// let hover = model.power(&Vec3::ZERO, &Vec3::ZERO, &Vec3::ZERO);
/// let cruise = model.power(&Vec3::new(10.0, 0.0, 0.0), &Vec3::ZERO, &Vec3::ZERO);
/// assert!(cruise > hover);
/// assert!((hover.as_watts() - 286.8).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotorPowerModel {
    coefficients: PowerCoefficients,
    mass: f64,
}

impl RotorPowerModel {
    /// Creates a model from coefficients and vehicle mass (kg).
    ///
    /// # Panics
    ///
    /// Panics if `mass` is not strictly positive.
    pub fn new(coefficients: PowerCoefficients, mass: f64) -> Self {
        assert!(mass > 0.0, "vehicle mass must be positive, got {mass}");
        RotorPowerModel { coefficients, mass }
    }

    /// Model calibrated for the 3DR Solo (1.8 kg), the paper's measurement
    /// platform.
    pub fn solo_3dr() -> Self {
        RotorPowerModel::new(PowerCoefficients::default(), 1.8)
    }

    /// Model calibrated for the DJI Matrice 100 (2.43 kg), the paper's
    /// heat-map platform.
    pub fn dji_matrice_100() -> Self {
        RotorPowerModel::new(PowerCoefficients::default(), 2.431)
    }

    /// Vehicle mass in kilograms.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Instantaneous rotor power for the given velocity, acceleration and
    /// wind (all world-frame, m/s and m/s²).
    pub fn power(&self, velocity: &Vec3, acceleration: &Vec3, wind: &Vec3) -> Power {
        let c = &self.coefficients;
        let vxy = velocity.norm_xy();
        let axy = acceleration.norm_xy();
        let vz = velocity.z.abs();
        let az = acceleration.z.abs();
        let wind_term = velocity.horizontal().dot(&wind.horizontal());
        let p = c.beta1 * vxy
            + c.beta2 * axy
            + c.beta3 * vxy * axy
            + c.beta4 * vz
            + c.beta5 * az
            + c.beta6 * vz * az
            + c.beta7 * self.mass
            + c.beta8 * wind_term
            + c.beta9;
        Power::from_watts(p)
    }

    /// Hover power: zero velocity, zero acceleration, no wind.
    pub fn hover_power(&self) -> Power {
        self.power(&Vec3::ZERO, &Vec3::ZERO, &Vec3::ZERO)
    }
}

impl Default for RotorPowerModel {
    fn default() -> Self {
        RotorPowerModel::dji_matrice_100()
    }
}

/// Companion-computer (TX2-class) power model.
///
/// Power is `idle + cores × per_core × (f / f_ref)²`, calibrated to ≈13 W at
/// the 4-core / 2.2 GHz reference operating point.
///
/// # Example
///
/// ```
/// use mav_energy::ComputePowerModel;
/// let tx2 = ComputePowerModel::tx2();
/// let full = tx2.power(4, 2.2);
/// let slow = tx2.power(2, 0.8);
/// assert!(full.as_watts() > slow.as_watts());
/// assert!((full.as_watts() - 13.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputePowerModel {
    /// Idle (leakage + uncore) power, watts.
    pub idle_watts: f64,
    /// Dynamic power per active core at the reference frequency, watts.
    pub per_core_watts: f64,
    /// Reference frequency in GHz for the per-core figure.
    pub reference_ghz: f64,
}

impl ComputePowerModel {
    /// An NVIDIA Jetson TX2-class model (≈13 W at 4 cores / 2.2 GHz).
    pub fn tx2() -> Self {
        ComputePowerModel {
            idle_watts: 2.0,
            per_core_watts: 2.75,
            reference_ghz: 2.2,
        }
    }

    /// Power at the given core count and clock frequency (GHz).
    pub fn power(&self, cores: u32, frequency_ghz: f64) -> Power {
        let ratio = (frequency_ghz / self.reference_ghz).max(0.0);
        Power::from_watts(self.idle_watts + cores as f64 * self.per_core_watts * ratio * ratio)
    }
}

impl Default for ComputePowerModel {
    fn default() -> Self {
        ComputePowerModel::tx2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hover_power_matches_calibration() {
        let solo = RotorPowerModel::solo_3dr();
        assert!((solo.hover_power().as_watts() - 286.8).abs() < 1.0);
        let matrice = RotorPowerModel::dji_matrice_100();
        assert!(matrice.hover_power().as_watts() > solo.hover_power().as_watts());
    }

    #[test]
    fn power_increases_with_speed_and_acceleration() {
        let m = RotorPowerModel::default();
        let hover = m.hover_power().as_watts();
        let slow = m
            .power(&Vec3::new(2.0, 0.0, 0.0), &Vec3::ZERO, &Vec3::ZERO)
            .as_watts();
        let fast = m
            .power(&Vec3::new(10.0, 0.0, 0.0), &Vec3::ZERO, &Vec3::ZERO)
            .as_watts();
        let accel = m
            .power(
                &Vec3::new(10.0, 0.0, 0.0),
                &Vec3::new(3.0, 0.0, 0.0),
                &Vec3::ZERO,
            )
            .as_watts();
        assert!(hover < slow && slow < fast && fast < accel);
    }

    #[test]
    fn vertical_motion_costs_more_than_horizontal() {
        let m = RotorPowerModel::default();
        let horizontal = m.power(&Vec3::new(3.0, 0.0, 0.0), &Vec3::ZERO, &Vec3::ZERO);
        let vertical = m.power(&Vec3::new(0.0, 0.0, 3.0), &Vec3::ZERO, &Vec3::ZERO);
        assert!(vertical > horizontal);
    }

    #[test]
    fn headwind_increases_power_tailwind_decreases() {
        let m = RotorPowerModel::default();
        let v = Vec3::new(5.0, 0.0, 0.0);
        let no_wind = m.power(&v, &Vec3::ZERO, &Vec3::ZERO);
        let tail = m.power(&v, &Vec3::ZERO, &Vec3::new(-2.0, 0.0, 0.0));
        let head = m.power(&v, &Vec3::ZERO, &Vec3::new(2.0, 0.0, 0.0));
        assert!(head > no_wind);
        assert!(tail < no_wind);
    }

    #[test]
    fn rotor_power_dominates_compute_by_20x() {
        // The paper's key observation: rotors consume ~20X the compute power.
        let rotor = RotorPowerModel::solo_3dr().hover_power().as_watts();
        let compute = ComputePowerModel::tx2().power(4, 2.2).as_watts();
        assert!(rotor / compute > 20.0, "rotor {rotor} vs compute {compute}");
    }

    #[test]
    fn compute_power_scales_with_cores_and_frequency() {
        let m = ComputePowerModel::tx2();
        assert!(m.power(4, 2.2) > m.power(2, 2.2));
        assert!(m.power(4, 2.2) > m.power(4, 0.8));
        assert!(m.power(0, 2.2).as_watts() >= m.idle_watts - 1e-9);
        // Frequency scaling is quadratic: 0.8/2.2 ratio squared ≈ 0.13.
        let full = m.power(4, 2.2).as_watts() - m.idle_watts;
        let slow = m.power(4, 0.8).as_watts() - m.idle_watts;
        assert!((slow / full - (0.8f64 / 2.2).powi(2)).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_mass_rejected() {
        let _ = RotorPowerModel::new(PowerCoefficients::default(), 0.0);
    }
}
