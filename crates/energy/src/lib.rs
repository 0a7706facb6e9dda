//! Energy modelling for MAVBench-RS: the paper's Eq. 1 rotor power model, a
//! TX2-class compute power model, a coulomb-counting battery and mission
//! energy accounting, plus the commercial-MAV catalogue behind Fig. 2.
//!
//! # Example
//!
//! ```
//! use mav_energy::{Battery, BatteryConfig, RotorPowerModel};
//! use mav_types::{SimDuration, Vec3};
//!
//! let model = RotorPowerModel::dji_matrice_100();
//! let mut battery = Battery::new(BatteryConfig::matrice_tb47());
//! let p = model.power(&Vec3::new(5.0, 0.0, 0.0), &Vec3::ZERO, &Vec3::ZERO);
//! battery.discharge(p, SimDuration::from_secs(30.0));
//! assert!(battery.percentage() < 100.0);
//! ```

#![warn(missing_docs)]

pub mod accounting;
pub mod battery;
pub mod catalog;
pub mod power;

pub use accounting::{EnergyAccount, FlightPhaseLabel, OTHER_ELECTRONICS_WATTS};
pub use battery::{Battery, BatteryConfig};
pub use catalog::{commercial_mav_catalog, CommercialMav, WingType};
pub use power::{ComputePowerModel, PowerCoefficients, RotorPowerModel};
