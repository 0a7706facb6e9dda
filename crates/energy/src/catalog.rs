//! Catalogue of commercial MAVs used to reproduce the paper's Fig. 2
//! (endurance vs battery capacity, size vs battery capacity).

/// Fixed or rotor wing, the distinction Fig. 2a highlights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WingType {
    /// Fixed-wing airframe (can glide; longer endurance per mAh).
    Fixed,
    /// Rotor-wing airframe (vertical take-off; shorter endurance per mAh).
    Rotor,
}

/// One commercial MAV data point.
#[derive(Debug, Clone, PartialEq)]
pub struct CommercialMav {
    /// Product name.
    pub name: &'static str,
    /// Wing type.
    pub wing: WingType,
    /// Battery capacity, mAh.
    pub battery_mah: f64,
    /// Characteristic size (diagonal / wingspan), millimetres.
    pub size_mm: f64,
    /// Manufacturer-quoted endurance, minutes.
    pub endurance_minutes: f64,
    /// Rough market segment used for grouping in Fig. 2b.
    pub segment: &'static str,
}

impl CommercialMav {
    /// Endurance in hours (the unit of Fig. 2a).
    pub fn endurance_hours(&self) -> f64 {
        self.endurance_minutes / 60.0
    }

    /// Endurance per unit battery capacity, hours per Ah — fixed wings score
    /// higher than rotor wings here, which is the point of Fig. 2a.
    pub fn endurance_per_ah(&self) -> f64 {
        self.endurance_hours() / (self.battery_mah / 1000.0)
    }
}

/// The catalogue of popular MAVs the figure is drawn from (public spec
/// sheets; values rounded).
pub fn commercial_mav_catalog() -> Vec<CommercialMav> {
    vec![
        CommercialMav {
            name: "Parrot Disco FPV",
            wing: WingType::Fixed,
            battery_mah: 2700.0,
            size_mm: 1150.0,
            endurance_minutes: 45.0,
            segment: "fixed-wing",
        },
        CommercialMav {
            name: "Parrot Bebop 2 Power",
            wing: WingType::Rotor,
            battery_mah: 3350.0,
            size_mm: 328.0,
            endurance_minutes: 30.0,
            segment: "camera",
        },
        CommercialMav {
            name: "DJI Spark",
            wing: WingType::Rotor,
            battery_mah: 1480.0,
            size_mm: 170.0,
            endurance_minutes: 16.0,
            segment: "camera",
        },
        CommercialMav {
            name: "DJI Mavic Pro",
            wing: WingType::Rotor,
            battery_mah: 3830.0,
            size_mm: 335.0,
            endurance_minutes: 27.0,
            segment: "camera",
        },
        CommercialMav {
            name: "DJI Phantom 4 Pro",
            wing: WingType::Rotor,
            battery_mah: 5870.0,
            size_mm: 350.0,
            endurance_minutes: 30.0,
            segment: "camera",
        },
        CommercialMav {
            name: "DJI Matrice 100",
            wing: WingType::Rotor,
            battery_mah: 4500.0,
            size_mm: 650.0,
            endurance_minutes: 22.0,
            segment: "developer",
        },
        CommercialMav {
            name: "3DR Solo",
            wing: WingType::Rotor,
            battery_mah: 5200.0,
            size_mm: 460.0,
            endurance_minutes: 20.0,
            segment: "camera",
        },
        CommercialMav {
            name: "DJI Inspire 2",
            wing: WingType::Rotor,
            battery_mah: 4280.0,
            size_mm: 605.0,
            endurance_minutes: 27.0,
            segment: "cinema",
        },
        CommercialMav {
            name: "Walkera F210 (racing)",
            wing: WingType::Rotor,
            battery_mah: 1300.0,
            size_mm: 210.0,
            endurance_minutes: 9.0,
            segment: "racing",
        },
        CommercialMav {
            name: "TBS Vendetta (racing)",
            wing: WingType::Rotor,
            battery_mah: 1500.0,
            size_mm: 240.0,
            endurance_minutes: 8.0,
            segment: "racing",
        },
        CommercialMav {
            name: "Yuneec Typhoon H",
            wing: WingType::Rotor,
            battery_mah: 5400.0,
            size_mm: 520.0,
            endurance_minutes: 25.0,
            segment: "camera",
        },
        CommercialMav {
            name: "senseFly eBee (fixed)",
            wing: WingType::Fixed,
            battery_mah: 2150.0,
            size_mm: 960.0,
            endurance_minutes: 50.0,
            segment: "fixed-wing",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_nontrivial() {
        let cat = commercial_mav_catalog();
        assert!(cat.len() >= 10);
        assert!(cat.iter().any(|m| m.wing == WingType::Fixed));
        assert!(cat.iter().any(|m| m.wing == WingType::Rotor));
    }

    #[test]
    fn endurance_correlates_with_battery_capacity_for_rotor_wings() {
        // Fig. 2a: within rotor wings, larger batteries generally mean longer
        // endurance. Compare the mean endurance of the top and bottom halves
        // by capacity.
        let mut rotors: Vec<CommercialMav> = commercial_mav_catalog()
            .into_iter()
            .filter(|m| m.wing == WingType::Rotor)
            .collect();
        // total_cmp ≡ partial_cmp().unwrap() for the strictly positive
        // finite capacities in the catalog, and cannot panic.
        rotors.sort_by(|a, b| a.battery_mah.total_cmp(&b.battery_mah));
        let half = rotors.len() / 2;
        let low: f64 = rotors[..half]
            .iter()
            .map(|m| m.endurance_minutes)
            .sum::<f64>()
            / half as f64;
        let high: f64 = rotors[half..]
            .iter()
            .map(|m| m.endurance_minutes)
            .sum::<f64>()
            / (rotors.len() - half) as f64;
        assert!(
            high > low,
            "endurance should rise with battery capacity: {low} vs {high}"
        );
    }

    #[test]
    fn fixed_wings_have_better_endurance_per_capacity() {
        // Fig. 2a: the Disco FPV (fixed) beats the Bebop 2 Power (rotor) at a
        // similar battery capacity.
        let cat = commercial_mav_catalog();
        let disco = cat.iter().find(|m| m.name.contains("Disco")).unwrap();
        let bebop = cat.iter().find(|m| m.name.contains("Bebop")).unwrap();
        assert!(disco.endurance_per_ah() > bebop.endurance_per_ah());
        assert!(disco.endurance_hours() > bebop.endurance_hours());
    }

    #[test]
    fn racing_drones_are_small_with_small_batteries() {
        // Fig. 2b: racing drones cluster at small size and small capacity.
        let cat = commercial_mav_catalog();
        for m in cat.iter().filter(|m| m.segment == "racing") {
            assert!(m.size_mm < 300.0);
            assert!(m.battery_mah < 2000.0);
        }
    }

    #[test]
    fn typical_rotor_endurance_is_under_20_to_30_minutes() {
        // Matches the paper's claim that off-the-shelf endurance is typically
        // well under half an hour.
        for m in commercial_mav_catalog()
            .iter()
            .filter(|m| m.wing == WingType::Rotor)
        {
            assert!(m.endurance_minutes <= 30.0);
        }
    }
}
