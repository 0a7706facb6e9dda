//! Coulomb-counting battery model.
//!
//! The simulator tracks how many coulombs have passed through the battery
//! each cycle (current × time) and models the terminal voltage as a function
//! of the remaining state of charge, following the approach the paper cites
//! (a coulomb counter with a voltage-vs-SoC curve after Chen & Rincón-Mora).

use mav_types::{Energy, Power, SimDuration};
use std::fmt;

/// Static parameters of a LiPo flight battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryConfig {
    /// Rated capacity in milliamp-hours.
    pub capacity_mah: f64,
    /// Number of series cells (e.g. 4 for a 4S pack).
    pub cells: u32,
    /// Fully-charged per-cell voltage, volts.
    pub cell_full_voltage: f64,
    /// Cut-off per-cell voltage below which the pack is considered exhausted.
    pub cell_empty_voltage: f64,
    /// Nominal per-cell voltage used for energy-capacity conversions.
    pub cell_nominal_voltage: f64,
}

impl BatteryConfig {
    /// The DJI Matrice 100 TB47D pack: 4500 mAh, 6S.
    pub fn matrice_tb47() -> Self {
        BatteryConfig {
            capacity_mah: 4500.0,
            cells: 6,
            cell_full_voltage: 4.2,
            cell_empty_voltage: 3.3,
            cell_nominal_voltage: 3.7,
        }
    }

    /// The 3DR Solo smart battery: 5200 mAh, 4S.
    pub fn solo_smart_battery() -> Self {
        BatteryConfig {
            capacity_mah: 5200.0,
            cells: 4,
            cell_full_voltage: 4.2,
            cell_empty_voltage: 3.3,
            cell_nominal_voltage: 3.7,
        }
    }

    /// Full-pack nominal voltage, volts.
    pub fn nominal_voltage(&self) -> f64 {
        self.cells as f64 * self.cell_nominal_voltage
    }

    /// Total charge capacity in coulombs.
    pub fn capacity_coulombs(&self) -> f64 {
        self.capacity_mah * 3.6 // mAh → C
    }

    /// Total energy capacity at the nominal voltage.
    pub fn capacity_energy(&self) -> Energy {
        Energy::from_mah(self.capacity_mah, self.nominal_voltage())
    }

    /// Checks that the capacity is finite and positive (a zero capacity
    /// reads a NaN charge, a negative one never drains), that the pack has
    /// at least one cell, and that the per-cell voltages are finite and
    /// positive with the cut-off below the full voltage and the nominal
    /// voltage between the two.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for the first field that fails.
    pub fn validate(&self) -> Result<(), String> {
        // Every range check is written so that NaN fails it.
        if !(self.capacity_mah.is_finite() && self.capacity_mah > 0.0) {
            return Err(format!(
                "capacity_mah must be finite and positive, got {}",
                self.capacity_mah
            ));
        }
        if self.cells == 0 {
            return Err("cells: a pack needs at least one cell".to_string());
        }
        let (full, empty, nominal) = (
            self.cell_full_voltage,
            self.cell_empty_voltage,
            self.cell_nominal_voltage,
        );
        for (name, volts) in [
            ("cell_full_voltage", full),
            ("cell_empty_voltage", empty),
            ("cell_nominal_voltage", nominal),
        ] {
            if !(volts.is_finite() && volts > 0.0) {
                return Err(format!("{name} must be finite and positive, got {volts}"));
            }
        }
        // The voltages are finite by now.
        if empty >= full {
            return Err(format!(
                "cell_empty_voltage ({empty}) must be below cell_full_voltage ({full})"
            ));
        }
        if !(empty..=full).contains(&nominal) {
            return Err(format!(
                "cell_nominal_voltage ({nominal}) must lie in [{empty}, {full}]"
            ));
        }
        Ok(())
    }
}

impl Default for BatteryConfig {
    fn default() -> Self {
        BatteryConfig::matrice_tb47()
    }
}

impl mav_types::ToJson for BatteryConfig {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::object()
            .field("capacity_mah", self.capacity_mah)
            .field("cells", self.cells)
            .field("cell_full_voltage", self.cell_full_voltage)
            .field("cell_empty_voltage", self.cell_empty_voltage)
            .field("cell_nominal_voltage", self.cell_nominal_voltage)
    }
}

impl mav_types::FromJson for BatteryConfig {
    /// Reads a battery description; omitted fields keep the default
    /// (Matrice TB47D) values. The result must pass
    /// [`BatteryConfig::validate`].
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        json.check_fields(&[
            "capacity_mah",
            "cells",
            "cell_full_voltage",
            "cell_empty_voltage",
            "cell_nominal_voltage",
        ])?;
        let base = BatteryConfig::default();
        let config = BatteryConfig {
            capacity_mah: json.parse_field_or("capacity_mah", base.capacity_mah)?,
            cells: json.parse_field_or("cells", base.cells)?,
            cell_full_voltage: json.parse_field_or("cell_full_voltage", base.cell_full_voltage)?,
            cell_empty_voltage: json
                .parse_field_or("cell_empty_voltage", base.cell_empty_voltage)?,
            cell_nominal_voltage: json
                .parse_field_or("cell_nominal_voltage", base.cell_nominal_voltage)?,
        };
        config.validate()?;
        Ok(config)
    }
}

/// A battery being discharged by the mission.
///
/// # Example
///
/// ```
/// use mav_energy::{Battery, BatteryConfig};
/// use mav_types::{Power, SimDuration};
///
/// let mut battery = Battery::new(BatteryConfig::solo_smart_battery());
/// battery.discharge(Power::from_watts(300.0), SimDuration::from_secs(60.0));
/// assert!(battery.state_of_charge() < 1.0);
/// assert!(!battery.is_exhausted());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    config: BatteryConfig,
    consumed_coulombs: f64,
}

impl Battery {
    /// Creates a fully charged battery.
    pub fn new(config: BatteryConfig) -> Self {
        Battery {
            config,
            consumed_coulombs: 0.0,
        }
    }

    /// The battery configuration.
    pub fn config(&self) -> &BatteryConfig {
        &self.config
    }

    /// Remaining state of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        (1.0 - self.consumed_coulombs / self.config.capacity_coulombs()).clamp(0.0, 1.0)
    }

    /// Remaining battery percentage in `[0, 100]`.
    pub fn percentage(&self) -> f64 {
        self.state_of_charge() * 100.0
    }

    /// Terminal voltage as a function of the remaining state of charge.
    ///
    /// The curve is the typical LiPo discharge shape: a steep initial drop,
    /// a long nearly-flat plateau and a sharp knee near empty, modelled with
    /// an exponential-plus-linear fit in the spirit of Chen & Rincón-Mora.
    pub fn voltage(&self) -> f64 {
        let soc = self.state_of_charge();
        let full = self.config.cell_full_voltage;
        let empty = self.config.cell_empty_voltage;
        // Per-cell open-circuit voltage.
        let plateau = empty + (full - empty) * 0.75;
        let cell = if soc <= 0.0 {
            empty
        } else {
            // Exponential rise near full charge, linear plateau, sharp knee.
            let knee = (-12.0 * soc).exp();
            plateau + (full - plateau) * soc.powf(0.6) - (plateau - empty) * knee
        };
        (cell * self.config.cells as f64).max(empty * self.config.cells as f64)
    }

    /// Returns `true` once the pack has delivered its full rated charge or the
    /// voltage has reached the cut-off.
    pub fn is_exhausted(&self) -> bool {
        self.state_of_charge() <= 0.0
            || self.voltage() <= self.config.cell_empty_voltage * self.config.cells as f64 + 1e-9
    }

    /// Discharges the pack at `power` for `duration` using coulomb counting:
    /// the current is `power / voltage`, and `current × duration` coulombs are
    /// removed from the pack.
    ///
    /// Returns the energy drawn during this interval.
    pub fn discharge(&mut self, power: Power, duration: SimDuration) -> Energy {
        if duration.is_zero() || power == Power::ZERO {
            return Energy::ZERO;
        }
        let voltage = self.voltage().max(1e-6);
        let current = power.as_watts() / voltage;
        self.consumed_coulombs += current * duration.as_secs();
        power.over(duration)
    }

    /// Estimated hover endurance in seconds at a constant `power` draw from a
    /// full pack (capacity energy / power).
    pub fn endurance_at(config: &BatteryConfig, power: Power) -> SimDuration {
        if power == Power::ZERO {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs(config.capacity_energy().as_joules() / power.as_watts())
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "battery[{:.0}% {:.1} V]",
            self.percentage(),
            self.voltage()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_battery_is_full() {
        let b = Battery::new(BatteryConfig::default());
        assert_eq!(b.state_of_charge(), 1.0);
        assert_eq!(b.percentage(), 100.0);
        assert!(!b.is_exhausted());
    }

    #[test]
    fn voltage_decreases_monotonically_with_discharge() {
        let mut b = Battery::new(BatteryConfig::solo_smart_battery());
        let mut last_v = b.voltage();
        let mut last_soc = b.state_of_charge();
        for _ in 0..50 {
            b.discharge(Power::from_watts(300.0), SimDuration::from_secs(20.0));
            let v = b.voltage();
            let soc = b.state_of_charge();
            assert!(soc <= last_soc + 1e-12);
            assert!(v <= last_v + 1e-9, "voltage rose from {last_v} to {v}");
            last_v = v;
            last_soc = soc;
            if b.is_exhausted() {
                break;
            }
        }
    }

    #[test]
    fn voltage_stays_within_cell_limits() {
        let mut b = Battery::new(BatteryConfig::default());
        let cfg = *b.config();
        loop {
            let v = b.voltage();
            assert!(v <= cfg.cell_full_voltage * cfg.cells as f64 + 1e-9);
            assert!(v >= cfg.cell_empty_voltage * cfg.cells as f64 - 1e-9);
            if b.is_exhausted() {
                break;
            }
            b.discharge(Power::from_watts(400.0), SimDuration::from_secs(30.0));
        }
    }

    #[test]
    fn exhaustion_after_rated_capacity() {
        let cfg = BatteryConfig::solo_smart_battery();
        let mut b = Battery::new(cfg);
        // Drain at hover power until exhausted; this must terminate and the
        // delivered energy must be in the ballpark of the rated capacity.
        let hover = Power::from_watts(287.0);
        let mut t = 0.0;
        let mut delivered = Energy::ZERO;
        while !b.is_exhausted() && t < 10_000.0 {
            delivered += b.discharge(hover, SimDuration::from_secs(5.0));
            t += 5.0;
        }
        assert!(b.is_exhausted());
        let delivered = delivered.as_kilojoules();
        let rated = cfg.capacity_energy().as_kilojoules();
        assert!(
            (delivered - rated).abs() / rated < 0.25,
            "delivered {delivered} rated {rated}"
        );
        // Endurance at hover power should be roughly 20 minutes or less —
        // the paper's observation about off-the-shelf endurance.
        let endurance = Battery::endurance_at(&cfg, hover);
        assert!(endurance.as_secs() < 20.0 * 60.0);
        assert!(endurance.as_secs() > 3.0 * 60.0);
    }

    #[test]
    fn zero_power_or_duration_is_a_noop() {
        let mut b = Battery::new(BatteryConfig::default());
        assert_eq!(
            b.discharge(Power::ZERO, SimDuration::from_secs(10.0)),
            Energy::ZERO
        );
        assert_eq!(
            b.discharge(Power::from_watts(100.0), SimDuration::ZERO),
            Energy::ZERO
        );
        assert_eq!(b.state_of_charge(), 1.0);
    }

    #[test]
    fn endurance_scales_with_capacity() {
        let small = BatteryConfig {
            capacity_mah: 2500.0,
            ..BatteryConfig::default()
        };
        let large = BatteryConfig {
            capacity_mah: 5000.0,
            ..BatteryConfig::default()
        };
        let p = Power::from_watts(300.0);
        let e_small = Battery::endurance_at(&small, p).as_secs();
        let e_large = Battery::endurance_at(&large, p).as_secs();
        assert!((e_large / e_small - 2.0).abs() < 1e-9);
        assert_eq!(Battery::endurance_at(&small, Power::ZERO).as_secs(), 0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Battery::new(BatteryConfig::default())).is_empty());
    }

    #[test]
    fn validate_bounds_capacity_cells_and_voltages() {
        assert!(BatteryConfig::matrice_tb47().validate().is_ok());
        assert!(BatteryConfig::solo_smart_battery().validate().is_ok());
        let base = BatteryConfig::default();
        // One cell, nominal voltage at either end of its range.
        for nominal in [base.cell_empty_voltage, base.cell_full_voltage] {
            let pack = BatteryConfig {
                cells: 1,
                cell_nominal_voltage: nominal,
                ..base
            };
            assert!(pack.validate().is_ok(), "nominal {nominal}");
        }
        let bad = [
            BatteryConfig {
                capacity_mah: 0.0,
                ..base
            },
            BatteryConfig {
                capacity_mah: -100.0,
                ..base
            },
            BatteryConfig {
                capacity_mah: f64::INFINITY,
                ..base
            },
            BatteryConfig {
                capacity_mah: f64::NAN,
                ..base
            },
            BatteryConfig { cells: 0, ..base },
            BatteryConfig {
                cell_full_voltage: f64::NAN,
                ..base
            },
            BatteryConfig {
                cell_empty_voltage: -3.3,
                ..base
            },
            BatteryConfig {
                cell_empty_voltage: base.cell_full_voltage,
                ..base
            },
            BatteryConfig {
                cell_nominal_voltage: 4.5,
                ..base
            },
            BatteryConfig {
                cell_nominal_voltage: 3.0,
                ..base
            },
        ];
        for pack in bad {
            assert!(pack.validate().is_err(), "{pack:?}");
        }
        // A zero capacity would read a NaN charge.
        assert!(Battery::new(bad[0]).percentage().is_nan());
    }
}
