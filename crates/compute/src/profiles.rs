//! Per-application kernel latency profiles (the paper's Table I).
//!
//! Table I of the paper reports, per application, the runtime of every kernel
//! measured on the TX2 at 2.2 GHz with 4 cores enabled. Those numbers are the
//! calibration anchor of the MAVBench-RS compute model: each application gets
//! a profile table mapping its kernels to [`KernelProfile`]s whose reference
//! runtimes are the Table I milliseconds.

use crate::kernel::{KernelId, KernelProfile};
use std::collections::BTreeMap;
use std::fmt;

/// The five MAVBench applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ApplicationId {
    /// Lawnmower-pattern area scanning (agriculture).
    Scanning,
    /// Follow a moving subject with detection + tracking.
    AerialPhotography,
    /// Navigate to a delivery point and back through obstacles.
    PackageDelivery,
    /// Build a 3D map of an unknown environment.
    Mapping3D,
    /// Explore an unknown area looking for people.
    SearchAndRescue,
}

impl ApplicationId {
    /// All five applications in the paper's order.
    pub fn all() -> &'static [ApplicationId] {
        &[
            ApplicationId::Scanning,
            ApplicationId::AerialPhotography,
            ApplicationId::PackageDelivery,
            ApplicationId::Mapping3D,
            ApplicationId::SearchAndRescue,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ApplicationId::Scanning => "Scanning",
            ApplicationId::AerialPhotography => "Aerial Photography",
            ApplicationId::PackageDelivery => "Package Delivery",
            ApplicationId::Mapping3D => "3D Mapping",
            ApplicationId::SearchAndRescue => "Search and Rescue",
        }
    }

    /// Parses an application name, case-insensitively, accepting both the
    /// human-readable [`ApplicationId::name`] (`"Package Delivery"`) and a
    /// hyphenated slug (`"package-delivery"`).
    ///
    /// # Errors
    ///
    /// Lists the valid names when the input matches none of them.
    pub fn parse(value: &str) -> Result<ApplicationId, String> {
        let normalized: String = value
            .trim()
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        for &app in ApplicationId::all() {
            let canonical: String = app
                .name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_ascii_lowercase();
            if normalized == canonical {
                return Ok(app);
            }
        }
        Err(format!(
            "unknown application `{value}` (expected one of: Scanning, Aerial Photography, \
             Package Delivery, 3D Mapping, Search and Rescue)"
        ))
    }
}

impl fmt::Display for ApplicationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl mav_types::ToJson for ApplicationId {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::String(self.name().to_string())
    }
}

impl mav_types::FromJson for ApplicationId {
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        let name = json
            .as_str()
            .ok_or_else(|| format!("expected an application name string, got {json}"))?;
        ApplicationId::parse(name)
    }
}

/// The kernel-latency profile of one application: a map from kernel to its
/// [`KernelProfile`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ApplicationProfile {
    kernels: BTreeMap<KernelId, KernelProfile>,
}

impl ApplicationProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        ApplicationProfile {
            kernels: BTreeMap::new(),
        }
    }

    /// Adds or replaces a kernel profile (builder style).
    pub fn with(mut self, kernel: KernelId, reference_ms: f64, parallel_fraction: f64) -> Self {
        self.kernels
            .insert(kernel, KernelProfile::new(reference_ms, parallel_fraction));
        self
    }

    /// The profile of a kernel, if the application uses it.
    pub fn kernel(&self, kernel: KernelId) -> Option<&KernelProfile> {
        self.kernels.get(&kernel)
    }

    /// Returns `true` when the application uses this kernel.
    pub fn uses(&self, kernel: KernelId) -> bool {
        self.kernels.contains_key(&kernel)
    }

    /// Iterates over the kernels of this application in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&KernelId, &KernelProfile)> {
        self.kernels.iter()
    }

    /// Number of kernels in the profile.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Returns `true` when no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

/// Table I: per-application kernel runtimes (ms at 4 cores / 2.2 GHz) plus
/// parallel fractions chosen per kernel family (vision kernels parallelise
/// well, sampling-based planners and the octree update are mostly serial —
/// the paper calls motion planning and OctoMap generation the *sequential
/// bottlenecks*).
pub fn table1_profile(app: ApplicationId) -> ApplicationProfile {
    match app {
        ApplicationId::Scanning => ApplicationProfile::new()
            .with(KernelId::LawnmowerPlanning, 89.0, 0.10)
            .with(KernelId::Localization, 0.5, 0.0)
            .with(KernelId::PathTracking, 1.0, 0.0),
        ApplicationId::AerialPhotography => ApplicationProfile::new()
            .with(KernelId::ObjectDetection, 307.0, 0.75)
            .with(KernelId::TrackingBuffered, 80.0, 0.60)
            .with(KernelId::TrackingRealTime, 18.0, 0.60)
            .with(KernelId::PidControl, 0.3, 0.0)
            .with(KernelId::PathTracking, 1.0, 0.0),
        ApplicationId::PackageDelivery => ApplicationProfile::new()
            .with(KernelId::PointCloudGeneration, 2.0, 0.70)
            .with(KernelId::OctomapGeneration, 630.0, 0.25)
            .with(KernelId::CollisionCheck, 1.0, 0.20)
            .with(KernelId::Localization, 0.5, 0.0)
            .with(KernelId::PathSmoothing, 55.0, 0.30)
            .with(KernelId::MotionPlanning, 182.0, 0.15)
            .with(KernelId::PathTracking, 1.0, 0.0),
        ApplicationId::Mapping3D => ApplicationProfile::new()
            .with(KernelId::PointCloudGeneration, 2.0, 0.70)
            .with(KernelId::OctomapGeneration, 482.0, 0.25)
            .with(KernelId::CollisionCheck, 1.0, 0.20)
            .with(KernelId::Localization, 0.5, 0.0)
            .with(KernelId::PathSmoothing, 46.0, 0.30)
            .with(KernelId::FrontierExploration, 2647.0, 0.35)
            .with(KernelId::PathTracking, 1.0, 0.0),
        ApplicationId::SearchAndRescue => ApplicationProfile::new()
            .with(KernelId::PointCloudGeneration, 2.0, 0.70)
            .with(KernelId::OctomapGeneration, 427.0, 0.25)
            .with(KernelId::CollisionCheck, 1.0, 0.20)
            .with(KernelId::ObjectDetection, 271.0, 0.75)
            .with(KernelId::Localization, 0.5, 0.0)
            .with(KernelId::PathSmoothing, 45.0, 0.30)
            .with(KernelId::FrontierExploration, 2693.0, 0.35)
            .with(KernelId::PathTracking, 1.0, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operating_point::OperatingPoint;

    #[test]
    fn every_application_has_a_profile() {
        for &app in ApplicationId::all() {
            let profile = table1_profile(app);
            assert!(!profile.is_empty(), "{app} has an empty profile");
            // Every application ends its pipeline with path tracking.
            assert!(profile.uses(KernelId::PathTracking));
            assert!(!app.name().is_empty());
            assert!(!format!("{app}").is_empty());
        }
        assert_eq!(ApplicationId::all().len(), 5);
    }

    #[test]
    fn table1_reference_numbers_match_the_paper() {
        let pd = table1_profile(ApplicationId::PackageDelivery);
        assert_eq!(
            pd.kernel(KernelId::OctomapGeneration).unwrap().reference_ms,
            630.0
        );
        assert_eq!(
            pd.kernel(KernelId::MotionPlanning).unwrap().reference_ms,
            182.0
        );
        assert_eq!(
            pd.kernel(KernelId::PathSmoothing).unwrap().reference_ms,
            55.0
        );

        let map = table1_profile(ApplicationId::Mapping3D);
        assert_eq!(
            map.kernel(KernelId::FrontierExploration)
                .unwrap()
                .reference_ms,
            2647.0
        );
        assert_eq!(
            map.kernel(KernelId::OctomapGeneration)
                .unwrap()
                .reference_ms,
            482.0
        );

        let sar = table1_profile(ApplicationId::SearchAndRescue);
        assert_eq!(
            sar.kernel(KernelId::ObjectDetection).unwrap().reference_ms,
            271.0
        );
        assert_eq!(
            sar.kernel(KernelId::FrontierExploration)
                .unwrap()
                .reference_ms,
            2693.0
        );

        let ap = table1_profile(ApplicationId::AerialPhotography);
        assert_eq!(
            ap.kernel(KernelId::ObjectDetection).unwrap().reference_ms,
            307.0
        );
        assert_eq!(
            ap.kernel(KernelId::TrackingBuffered).unwrap().reference_ms,
            80.0
        );

        let sc = table1_profile(ApplicationId::Scanning);
        assert_eq!(
            sc.kernel(KernelId::LawnmowerPlanning).unwrap().reference_ms,
            89.0
        );
    }

    #[test]
    fn scanning_does_not_use_octomap() {
        let sc = table1_profile(ApplicationId::Scanning);
        assert!(!sc.uses(KernelId::OctomapGeneration));
        assert!(!sc.uses(KernelId::ObjectDetection));
    }

    #[test]
    fn bottleneck_kernels_speed_up_with_frequency() {
        // The paper reports up to ~2.9X OctoMap and ~9.2X motion-planning
        // improvements when scaling from the slowest to the fastest operating
        // point; our model must show the same direction with a ≥2X magnitude.
        let pd = table1_profile(ApplicationId::PackageDelivery);
        let omg = pd.kernel(KernelId::OctomapGeneration).unwrap();
        let speedup = omg.speedup_over_slowest(&OperatingPoint::reference());
        assert!(speedup >= 2.0, "octomap speed-up {speedup}");
        let mp = pd.kernel(KernelId::MotionPlanning).unwrap();
        assert!(mp.speedup_over_slowest(&OperatingPoint::reference()) >= 2.0);
    }

    #[test]
    fn profile_iteration_is_stable() {
        let a: Vec<KernelId> = table1_profile(ApplicationId::SearchAndRescue)
            .iter()
            .map(|(k, _)| *k)
            .collect();
        let b: Vec<KernelId> = table1_profile(ApplicationId::SearchAndRescue)
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(a, b);
        assert_eq!(
            a.len(),
            table1_profile(ApplicationId::SearchAndRescue).len()
        );
    }
}
