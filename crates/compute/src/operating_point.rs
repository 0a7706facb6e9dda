//! Companion-computer operating points (core count × clock frequency).
//!
//! The paper sweeps the NVIDIA TX2 across 2/3/4 ARM A57 cores and 0.8 / 1.5 /
//! 2.2 GHz and reports every metric as a 3×3 heat map. The same grid is
//! provided here.

use mav_types::Frequency;
use std::fmt;

/// One (cores, frequency) operating point of the companion computer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Number of enabled CPU cores.
    pub cores: u32,
    /// Clock frequency.
    pub frequency: Frequency,
}

impl OperatingPoint {
    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: u32, frequency: Frequency) -> Self {
        assert!(cores > 0, "an operating point needs at least one core");
        OperatingPoint { cores, frequency }
    }

    /// The paper's reference point: 4 cores at 2.2 GHz (where Table I was
    /// profiled).
    pub fn reference() -> Self {
        OperatingPoint::new(4, Frequency::from_ghz(2.2))
    }

    /// The slowest point of the sweep: 2 cores at 0.8 GHz.
    pub fn slowest() -> Self {
        OperatingPoint::new(2, Frequency::from_ghz(0.8))
    }

    /// The "big" cluster of a big.LITTLE-style pairing: all four cores at the
    /// given clock. Used by the per-node operating-point CLI (`plan=big@2.2`)
    /// to pin heavy stages (planning) to the full complex.
    pub fn big_cluster(frequency: Frequency) -> Self {
        OperatingPoint::new(4, frequency)
    }

    /// The "little" cluster of a big.LITTLE-style pairing: two cores at the
    /// given clock. Used by the per-node operating-point CLI
    /// (`cam=little@1.4`) to park light or throughput-bound stages on the
    /// small complex.
    pub fn little_cluster(frequency: Frequency) -> Self {
        OperatingPoint::new(2, frequency)
    }

    /// The full 3×3 sweep used by Figs. 10–15: cores ∈ {2, 3, 4} ×
    /// frequency ∈ {0.8, 1.5, 2.2} GHz.
    pub fn tx2_sweep() -> Vec<OperatingPoint> {
        let mut out = Vec::with_capacity(9);
        for &cores in &[4u32, 3, 2] {
            for &f in &[0.8, 1.5, 2.2] {
                out.push(OperatingPoint::new(cores, Frequency::from_ghz(f)));
            }
        }
        out
    }

    /// The slowest clock a point may run at. Kernel latencies scale by
    /// 2.2 GHz / f, so at 0.1 GHz on one core any one charge stays within
    /// about 100× its Table I time (the largest, OctoMap generation at the
    /// fine-resolution multiplier, about 140 s). At 1e-9 GHz one charge was
    /// 2e8 simulated seconds of physics steps.
    pub const MIN_FREQUENCY_GHZ: f64 = 0.1;

    /// Checks that the point can run: at least one core, and a finite clock
    /// of at least [`Self::MIN_FREQUENCY_GHZ`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the failed bound.
    pub fn validate(&self) -> Result<(), String> {
        OperatingPoint::checked(self.cores, self.frequency.as_ghz()).map(|_| ())
    }

    /// Builds a point from wire values under [`Self::validate`]'s bounds,
    /// before [`Frequency::from_ghz`] could panic on a non-positive clock.
    fn checked(cores: u32, ghz: f64) -> Result<OperatingPoint, String> {
        if cores == 0 {
            return Err("operating point needs at least one core".to_string());
        }
        if !(ghz.is_finite() && ghz >= Self::MIN_FREQUENCY_GHZ) {
            return Err(format!(
                "operating point frequency must be finite and at least {} GHz, got {ghz} GHz",
                Self::MIN_FREQUENCY_GHZ
            ));
        }
        Ok(OperatingPoint::new(cores, Frequency::from_ghz(ghz)))
    }

    /// A short label such as `"4c@2.2GHz"` for table headers.
    pub fn label(&self) -> String {
        format!("{}c@{:.1}GHz", self.cores, self.frequency.as_ghz())
    }

    /// Parses the CLI/wire spelling of an operating point: `big@2.2`
    /// (4 cores), `little@1.4` (2 cores) or an explicit `3c@1.5`. A trailing
    /// `GHz` is tolerated so [`OperatingPoint::label`] output round-trips.
    ///
    /// This is the single source of truth for the syntax: the harness
    /// `--node-op` flag and the `mav-server` job spec both route through it.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed input (missing `@`,
    /// unknown cluster) or a point [`OperatingPoint::validate`] rejects.
    pub fn parse(value: &str) -> Result<OperatingPoint, String> {
        let Some((cluster, ghz)) = value.split_once('@') else {
            return Err(format!(
                "operating point `{value}` must look like big@2.2, little@1.4 or 3c@1.5"
            ));
        };
        let ghz: f64 = ghz
            .trim()
            .trim_end_matches("GHz")
            .parse()
            .map_err(|_| format!("invalid frequency `{ghz}`"))?;
        let cores = match cluster.trim() {
            "big" => 4,
            "little" => 2,
            cores => cores
                .strip_suffix('c')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| {
                    format!("unknown cluster `{cores}` (expected big, little or <cores>c)")
                })?,
        };
        OperatingPoint::checked(cores, ghz)
    }
}

impl mav_types::ToJson for OperatingPoint {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::object()
            .field("cores", self.cores)
            .field("frequency_ghz", self.frequency.as_ghz())
    }
}

impl mav_types::FromJson for OperatingPoint {
    /// Accepts the structured form `{"cores": 4, "frequency_ghz": 2.2}` (what
    /// [`mav_types::ToJson`] emits) or the CLI string form `"big@2.2"` /
    /// `"3c@1.5"` routed through [`OperatingPoint::parse`].
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        if let Some(s) = json.as_str() {
            return OperatingPoint::parse(s);
        }
        json.check_fields(&["cores", "frequency_ghz"])?;
        OperatingPoint::checked(
            json.parse_field("cores")?,
            json.parse_field("frequency_ghz")?,
        )
    }
}

impl Default for OperatingPoint {
    fn default() -> Self {
        OperatingPoint::reference()
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cores @ {}", self.cores, self.frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_nine_points() {
        let sweep = OperatingPoint::tx2_sweep();
        assert_eq!(sweep.len(), 9);
        assert!(sweep.contains(&OperatingPoint::reference()));
        assert!(sweep.contains(&OperatingPoint::slowest()));
        // All cores × frequency combinations are distinct.
        let labels: std::collections::HashSet<String> = sweep.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn reference_point_is_fastest() {
        let r = OperatingPoint::reference();
        assert_eq!(r.cores, 4);
        assert_eq!(r.frequency.as_ghz(), 2.2);
    }

    #[test]
    #[should_panic]
    fn zero_cores_rejected() {
        let _ = OperatingPoint::new(0, Frequency::from_ghz(1.0));
    }

    #[test]
    fn labels_and_display() {
        let p = OperatingPoint::new(3, Frequency::from_ghz(1.5));
        assert_eq!(p.label(), "3c@1.5GHz");
        assert!(!format!("{p}").is_empty());
    }
}
