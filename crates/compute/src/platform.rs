//! The companion-computer platform model and cloud offload.
//!
//! A [`ComputePlatform`] answers one question for the closed-loop simulator:
//! *how long does kernel X take right now?* For the on-board TX2 the answer
//! comes from the Table I profile scaled to the current operating point. For
//! the sensor-cloud configuration of the paper's performance case study, some
//! kernels execute on a much faster cloud machine but pay a network round
//! trip, which is exactly how the paper's 3X planning speed-up (and the
//! resulting ~50 % mission-time reduction) arises.

use crate::kernel::{KernelId, KernelProfile};
use crate::operating_point::OperatingPoint;
use crate::profiles::{table1_profile, ApplicationId, ApplicationProfile};
use mav_types::SimDuration;
use std::collections::BTreeSet;
use std::fmt;

/// A network link between the MAV and a cloud/edge server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkLink {
    /// Link bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
}

impl NetworkLink {
    /// The 1 Gb/s LAN used by the paper to mimic a future 5G deployment.
    pub fn gigabit_lan() -> Self {
        NetworkLink {
            bandwidth_mbps: 1000.0,
            latency_ms: 1.0,
        }
    }

    /// A contemporary LTE link (for sensitivity studies).
    pub fn lte() -> Self {
        NetworkLink {
            bandwidth_mbps: 50.0,
            latency_ms: 30.0,
        }
    }

    /// Time to move `megabytes` of data across the link plus one round trip.
    pub fn transfer_time(&self, megabytes: f64) -> SimDuration {
        SimDuration::from_secs(self.transfer_secs(megabytes))
    }

    /// [`NetworkLink::transfer_time`] in seconds, before a non-finite or
    /// negative value is clamped to zero.
    fn transfer_secs(&self, megabytes: f64) -> f64 {
        let bits = megabytes * 8.0 * 1e6;
        let seconds = bits / (self.bandwidth_mbps * 1e6);
        seconds + 2.0 * self.latency_ms / 1000.0
    }
}

/// Cloud offload configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudConfig {
    /// Speed-up of the cloud server over the TX2 reference point for any
    /// offloaded kernel (the paper's i7-4790K + GTX 1080 runs the planning
    /// stage ≈3X faster).
    pub speedup: f64,
    /// The network link.
    pub link: NetworkLink,
    /// Data shipped per offloaded kernel invocation, megabytes (point cloud /
    /// map updates).
    pub payload_megabytes: f64,
    /// Which kernels are offloaded.
    pub offloaded: BTreeSet<KernelId>,
}

impl CloudConfig {
    /// The paper's sensor-cloud case study: the planning stage of 3D Mapping
    /// is offloaded over a gigabit link to a machine ~3X faster.
    pub fn planning_offload() -> Self {
        let mut offloaded = BTreeSet::new();
        offloaded.insert(KernelId::FrontierExploration);
        offloaded.insert(KernelId::MotionPlanning);
        offloaded.insert(KernelId::PathSmoothing);
        CloudConfig {
            speedup: 3.0,
            link: NetworkLink::gigabit_lan(),
            payload_megabytes: 0.5,
            offloaded,
        }
    }

    /// Returns `true` when the kernel runs in the cloud.
    pub fn offloads(&self, kernel: KernelId) -> bool {
        self.offloaded.contains(&kernel)
    }

    /// The slowest cloud [`CloudConfig::validate`] admits: an offloaded
    /// kernel then takes 100× its Table I time, the stretch the
    /// operating-point floor ([`OperatingPoint::MIN_FREQUENCY_GHZ`]) allows
    /// an on-board kernel.
    pub const MIN_SPEEDUP: f64 = 0.01;

    /// The longest link transfer [`CloudConfig::validate`] admits per
    /// offloaded charge, seconds: about 100× the longest Table I kernel
    /// (frontier exploration, 2.7 s).
    pub const MAX_TRANSFER_SECS: f64 = 300.0;

    /// Checks that every offloaded charge stays bounded: a finite speed-up
    /// of at least [`CloudConfig::MIN_SPEEDUP`], a positive finite
    /// bandwidth, a non-negative finite latency and payload, and a transfer
    /// of at most [`CloudConfig::MAX_TRANSFER_SECS`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.speedup.is_finite() && self.speedup >= Self::MIN_SPEEDUP) {
            return Err(format!(
                "speedup: must be finite and at least {}, got {}",
                Self::MIN_SPEEDUP,
                self.speedup
            ));
        }
        if !(self.payload_megabytes.is_finite() && self.payload_megabytes >= 0.0) {
            return Err(format!(
                "payload_megabytes: must be finite and non-negative, got {}",
                self.payload_megabytes
            ));
        }
        let link = &self.link;
        if !(link.bandwidth_mbps.is_finite() && link.bandwidth_mbps > 0.0) {
            return Err(format!(
                "link: bandwidth_mbps: must be positive and finite, got {}",
                link.bandwidth_mbps
            ));
        }
        if !(link.latency_ms.is_finite() && link.latency_ms >= 0.0) {
            return Err(format!(
                "link: latency_ms: must be finite and non-negative, got {}",
                link.latency_ms
            ));
        }
        let transfer = link.transfer_secs(self.payload_megabytes);
        if !(0.0..=Self::MAX_TRANSFER_SECS).contains(&transfer) {
            return Err(format!(
                "payload_megabytes / link: one transfer takes {transfer} s, above the {} s limit",
                Self::MAX_TRANSFER_SECS
            ));
        }
        Ok(())
    }
}

impl mav_types::ToJson for NetworkLink {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::object()
            .field("bandwidth_mbps", self.bandwidth_mbps)
            .field("latency_ms", self.latency_ms)
    }
}

impl mav_types::FromJson for NetworkLink {
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        json.check_fields(&["bandwidth_mbps", "latency_ms"])?;
        Ok(NetworkLink {
            bandwidth_mbps: json.parse_field("bandwidth_mbps")?,
            latency_ms: json.parse_field("latency_ms")?,
        })
    }
}

impl mav_types::ToJson for CloudConfig {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::object()
            .field("speedup", self.speedup)
            .field("link", self.link.to_json())
            .field("payload_megabytes", self.payload_megabytes)
            .field(
                "offloaded",
                self.offloaded.iter().collect::<Vec<_>>().as_slice(),
            )
    }
}

impl mav_types::FromJson for CloudConfig {
    /// Reads a cloud description; [`CloudConfig::validate`] checks its
    /// values.
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        json.check_fields(&["speedup", "link", "payload_megabytes", "offloaded"])?;
        let offloaded: Vec<KernelId> = json.parse_field("offloaded")?;
        Ok(CloudConfig {
            speedup: json.parse_field("speedup")?,
            link: json.parse_field("link")?,
            payload_megabytes: json.parse_field("payload_megabytes")?,
            offloaded: offloaded.into_iter().collect(),
        })
    }
}

/// The companion-computer model used by the closed-loop simulator.
///
/// # Example
///
/// ```
/// use mav_compute::{ApplicationId, ComputePlatform, KernelId, OperatingPoint};
///
/// let fast = ComputePlatform::tx2(ApplicationId::PackageDelivery, OperatingPoint::reference());
/// let slow = ComputePlatform::tx2(ApplicationId::PackageDelivery, OperatingPoint::slowest());
/// let k = KernelId::OctomapGeneration;
/// assert!(slow.kernel_latency(k) > fast.kernel_latency(k));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePlatform {
    application: ApplicationId,
    profile: ApplicationProfile,
    operating_point: OperatingPoint,
    cloud: Option<CloudConfig>,
}

impl ComputePlatform {
    /// An on-board TX2 running `application` at `operating_point`, calibrated
    /// from Table I.
    pub fn tx2(application: ApplicationId, operating_point: OperatingPoint) -> Self {
        ComputePlatform {
            application,
            profile: table1_profile(application),
            operating_point,
            cloud: None,
        }
    }

    /// A TX2 with a cloud offload configuration attached.
    pub fn tx2_with_cloud(
        application: ApplicationId,
        operating_point: OperatingPoint,
        cloud: CloudConfig,
    ) -> Self {
        ComputePlatform {
            cloud: Some(cloud),
            ..ComputePlatform::tx2(application, operating_point)
        }
    }

    /// The application this platform is configured for.
    pub fn application(&self) -> ApplicationId {
        self.application
    }

    /// The current operating point.
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.operating_point
    }

    /// The cloud configuration, if any.
    pub fn cloud(&self) -> Option<&CloudConfig> {
        self.cloud.as_ref()
    }

    /// The kernel profile table.
    pub fn profile(&self) -> &ApplicationProfile {
        &self.profile
    }

    /// Latency of one invocation of `kernel` on this platform.
    ///
    /// Kernels the application does not use take zero time. Offloaded kernels
    /// run `speedup` times faster than the TX2 *reference* point but pay the
    /// network transfer.
    pub fn kernel_latency(&self, kernel: KernelId) -> SimDuration {
        self.kernel_latency_at(kernel, &self.operating_point)
    }

    /// Latency of one invocation of `kernel` with the *edge* stage pinned to
    /// `point` instead of the platform's own operating point — the per-node
    /// DVFS hook (big.LITTLE-style perception-vs-planning core/frequency
    /// mappings). Cloud-offloaded kernels are unaffected: their compute runs
    /// on the remote machine, so the companion computer's clock is irrelevant
    /// to them.
    pub fn kernel_latency_at(&self, kernel: KernelId, point: &OperatingPoint) -> SimDuration {
        let Some(profile) = self.profile.kernel(kernel) else {
            return SimDuration::ZERO;
        };
        match &self.cloud {
            Some(cloud) if cloud.offloads(kernel) => {
                let compute = profile.reference_latency() / cloud.speedup.max(1e-9);
                compute + cloud.link.transfer_time(cloud.payload_megabytes)
            }
            _ => profile.latency(point),
        }
    }

    /// Scaled profile of a kernel at the current operating point (edge
    /// latency), if the application uses it.
    pub fn kernel_profile(&self, kernel: KernelId) -> Option<KernelProfile> {
        self.profile.kernel(kernel).copied()
    }

    /// Perception-to-actuation latency δt used by the paper's Eq. 2: the sum
    /// of the latencies of every kernel on the reactive path (perception +
    /// collision check + tracking/command issue). Planning kernels are *not*
    /// included — they determine hover time, not the reaction time that bounds
    /// velocity.
    pub fn reaction_latency(&self) -> SimDuration {
        let reactive = [
            KernelId::PointCloudGeneration,
            KernelId::OctomapGeneration,
            KernelId::CollisionCheck,
            KernelId::Localization,
            KernelId::ObjectDetection,
            KernelId::TrackingRealTime,
            KernelId::PidControl,
            KernelId::PathTracking,
        ];
        reactive.iter().map(|k| self.kernel_latency(*k)).sum()
    }

    /// Total latency of one planning episode (all planning-stage kernels the
    /// application uses). This is the time the MAV hovers waiting for a plan.
    pub fn planning_latency(&self) -> SimDuration {
        let planning = [
            KernelId::MotionPlanning,
            KernelId::FrontierExploration,
            KernelId::LawnmowerPlanning,
            KernelId::PathSmoothing,
        ];
        planning.iter().map(|k| self.kernel_latency(*k)).sum()
    }
}

impl fmt::Display for ComputePlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "platform[{} @ {}{}]",
            self.application,
            self.operating_point,
            if self.cloud.is_some() { " + cloud" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unused_kernels_cost_nothing() {
        let p = ComputePlatform::tx2(ApplicationId::Scanning, OperatingPoint::reference());
        assert!(p.kernel_latency(KernelId::OctomapGeneration).is_zero());
        assert!(p.kernel_latency(KernelId::ObjectDetection).is_zero());
        assert!(!p.kernel_latency(KernelId::LawnmowerPlanning).is_zero());
    }

    #[test]
    fn slower_operating_points_have_longer_latencies() {
        for &app in ApplicationId::all() {
            let fast = ComputePlatform::tx2(app, OperatingPoint::reference());
            let slow = ComputePlatform::tx2(app, OperatingPoint::slowest());
            assert!(slow.reaction_latency() >= fast.reaction_latency());
            assert!(slow.planning_latency() >= fast.planning_latency());
        }
    }

    #[test]
    fn reaction_latency_excludes_planning() {
        let p = ComputePlatform::tx2(ApplicationId::Mapping3D, OperatingPoint::reference());
        // Frontier exploration takes ~2.6 s; the reaction path must be much
        // shorter than that.
        assert!(p.reaction_latency().as_secs() < 1.0);
        assert!(p.planning_latency().as_secs() > 2.0);
    }

    #[test]
    fn cloud_offload_speeds_up_planning() {
        let edge = ComputePlatform::tx2(ApplicationId::Mapping3D, OperatingPoint::reference());
        let cloud = ComputePlatform::tx2_with_cloud(
            ApplicationId::Mapping3D,
            OperatingPoint::reference(),
            CloudConfig::planning_offload(),
        );
        let edge_planning = edge.planning_latency().as_secs();
        let cloud_planning = cloud.planning_latency().as_secs();
        assert!(
            cloud_planning < edge_planning / 2.0,
            "cloud planning {cloud_planning} vs edge {edge_planning}"
        );
        // The reactive path (not offloaded) is unchanged.
        assert_eq!(edge.reaction_latency(), cloud.reaction_latency());
        assert!(
            cloud.kernel_latency(KernelId::FrontierExploration)
                < edge.kernel_latency(KernelId::FrontierExploration)
        );
        assert_eq!(
            cloud.kernel_latency(KernelId::OctomapGeneration),
            edge.kernel_latency(KernelId::OctomapGeneration)
        );
    }

    #[test]
    fn slow_network_erodes_offload_benefit() {
        let mut cfg = CloudConfig::planning_offload();
        cfg.link = NetworkLink::lte();
        cfg.payload_megabytes = 20.0;
        let lan = ComputePlatform::tx2_with_cloud(
            ApplicationId::Mapping3D,
            OperatingPoint::reference(),
            CloudConfig::planning_offload(),
        );
        let lte = ComputePlatform::tx2_with_cloud(
            ApplicationId::Mapping3D,
            OperatingPoint::reference(),
            cfg,
        );
        assert!(lte.planning_latency() > lan.planning_latency());
    }

    /// The paper's cloud and the LTE sensitivity case pass, and at the
    /// speed-up floor an offloaded kernel takes 100× its Table I time.
    /// (The wire tests cover each rejected field.)
    #[test]
    fn cloud_stretch_is_bounded() {
        let paper = CloudConfig::planning_offload();
        paper.validate().unwrap();
        let mut lte = paper.clone();
        lte.link = NetworkLink::lte();
        lte.payload_megabytes = 20.0;
        lte.validate().unwrap();
        let mut slow = paper;
        slow.speedup = CloudConfig::MIN_SPEEDUP;
        slow.validate().unwrap();
        slow.speedup = f64::NAN;
        assert!(slow.validate().unwrap_err().contains("speedup"));
        slow.speedup = CloudConfig::MIN_SPEEDUP;
        // Payload and bandwidth both overflow to infinity, and inf / inf is
        // a NaN transfer time.
        let mut huge = slow.clone();
        huge.payload_megabytes = 1e302;
        huge.link.bandwidth_mbps = 1e303;
        assert!(huge.validate().unwrap_err().contains("transfer"));
        let platform = ComputePlatform::tx2_with_cloud(
            ApplicationId::Mapping3D,
            OperatingPoint::reference(),
            slow.clone(),
        );
        let kernel = KernelId::FrontierExploration;
        let reference = platform.kernel_profile(kernel).unwrap().reference_latency();
        let compute = platform.kernel_latency(kernel).as_secs()
            - slow.link.transfer_time(slow.payload_megabytes).as_secs();
        assert!((compute / reference.as_secs() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn network_transfer_time_model() {
        let lan = NetworkLink::gigabit_lan();
        // 1 MB over 1 Gb/s ≈ 8 ms + 2 ms RTT.
        let t = lan.transfer_time(1.0).as_millis();
        assert!((t - 10.0).abs() < 0.5, "transfer time {t} ms");
        let lte = NetworkLink::lte();
        assert!(lte.transfer_time(1.0) > lan.transfer_time(1.0));
    }

    #[test]
    fn per_node_latency_pins_the_edge_stage_only() {
        use mav_types::Frequency;
        let p = ComputePlatform::tx2(ApplicationId::PackageDelivery, OperatingPoint::reference());
        // Pinning a kernel to a slower point scales it like a platform built
        // at that point — `kernel_latency` is the `_at` of the platform's own
        // operating point.
        let little = OperatingPoint::little_cluster(Frequency::from_ghz(1.5));
        let slow_platform = ComputePlatform::tx2(ApplicationId::PackageDelivery, little);
        for kernel in [KernelId::MotionPlanning, KernelId::OctomapGeneration] {
            assert!(p.kernel_latency_at(kernel, &little) > p.kernel_latency(kernel));
            assert_eq!(
                p.kernel_latency_at(kernel, &little),
                slow_platform.kernel_latency(kernel)
            );
            assert_eq!(
                p.kernel_latency_at(kernel, p.operating_point()),
                p.kernel_latency(kernel)
            );
        }
        // Cloud-offloaded kernels ignore the companion computer's point: the
        // compute runs remotely.
        let cloud = ComputePlatform::tx2_with_cloud(
            ApplicationId::Mapping3D,
            OperatingPoint::reference(),
            CloudConfig::planning_offload(),
        );
        assert_eq!(
            cloud.kernel_latency_at(KernelId::MotionPlanning, &little),
            cloud.kernel_latency(KernelId::MotionPlanning)
        );
        // Clusters: big = 4 cores, little = 2 cores.
        assert_eq!(
            OperatingPoint::big_cluster(Frequency::from_ghz(2.2)).cores,
            4
        );
        assert_eq!(little.cores, 2);
    }

    #[test]
    fn display_nonempty() {
        let p = ComputePlatform::tx2(ApplicationId::PackageDelivery, OperatingPoint::reference());
        assert!(!format!("{p}").is_empty());
    }
}
