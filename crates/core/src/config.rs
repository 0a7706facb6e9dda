//! Mission configuration: every knob the MAVBench experiments turn.

use crate::faults::FaultPlan;
use mav_compute::{ApplicationId, CloudConfig, OperatingPoint};
use mav_dynamics::QuadrotorConfig;
use mav_energy::BatteryConfig;
use mav_env::EnvironmentConfig;
use mav_perception::OctoMap;
use mav_runtime::ExecModel;
use mav_sensors::DepthCameraConfig;
use mav_types::{Frequency, FromJson, Json, SimDuration, ToJson};

/// Per-node invocation rates of the closed-loop graph (PR 2).
///
/// Every closed-loop node scheduled by the
/// [`Executor`](mav_runtime::Executor) — depth camera, OctoMap update, the
/// collision-monitor/planner pair and the path tracker — has its own period.
/// `None` means *tick-synchronous*: the node runs every executor round, which
/// is exactly the cadence of the historical sequential loop. Setting explicit
/// rates decouples the stages and makes rate-interaction studies (the paper's
/// Fig. 8b SLAM-fps trade-off, control-rate starvation, frame drops under a
/// slow mapper) expressible in configuration instead of code.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RateConfig {
    /// Depth-camera capture rate, frames per second (`None`: every round).
    pub camera_fps: Option<f64>,
    /// OctoMap-update rate, Hz (`None`: every round, i.e. every frame).
    pub mapping_hz: Option<f64>,
    /// Collision-monitor / replan-trigger rate, Hz (`None`: every round).
    pub replan_hz: Option<f64>,
    /// Path-tracker (control) rate, Hz (`None`: every round).
    pub control_hz: Option<f64>,
}

impl RateConfig {
    /// The compatibility schedule: every node tick-synchronous with the loop,
    /// reproducing the pre-refactor sequential closed loop bit-identically
    /// (enforced by `tests/golden_legacy.rs`).
    pub fn legacy() -> Self {
        RateConfig::default()
    }

    /// Returns `true` when every node is tick-synchronous (the legacy loop).
    pub fn is_legacy(&self) -> bool {
        self.camera_fps.is_none()
            && self.mapping_hz.is_none()
            && self.replan_hz.is_none()
            && self.control_hz.is_none()
    }

    /// Overrides the camera rate (builder style).
    pub fn with_camera_fps(mut self, fps: f64) -> Self {
        self.camera_fps = Some(fps);
        self
    }

    /// Overrides the mapping rate (builder style).
    pub fn with_mapping_hz(mut self, hz: f64) -> Self {
        self.mapping_hz = Some(hz);
        self
    }

    /// Overrides the replan rate (builder style).
    pub fn with_replan_hz(mut self, hz: f64) -> Self {
        self.replan_hz = Some(hz);
        self
    }

    /// Overrides the control rate (builder style).
    pub fn with_control_hz(mut self, hz: f64) -> Self {
        self.control_hz = Some(hz);
        self
    }

    fn period_of(rate: Option<f64>) -> SimDuration {
        match rate {
            Some(hz) => SimDuration::from_secs(1.0 / hz.max(1e-6)),
            None => SimDuration::ZERO,
        }
    }

    /// The depth-camera node period ([`SimDuration::ZERO`]: every round).
    pub fn camera_period(&self) -> SimDuration {
        RateConfig::period_of(self.camera_fps)
    }

    /// The OctoMap node period.
    pub fn mapping_period(&self) -> SimDuration {
        RateConfig::period_of(self.mapping_hz)
    }

    /// The collision-monitor / planner node period.
    pub fn replan_period(&self) -> SimDuration {
        RateConfig::period_of(self.replan_hz)
    }

    /// The path-tracker node period.
    pub fn control_period(&self) -> SimDuration {
        RateConfig::period_of(self.control_hz)
    }

    /// Worst-case sensing staleness added to the Eq. 2 reaction latency δt: a
    /// new obstacle waits up to a full camera period to be observed and up to
    /// a full mapping period to land in the occupancy map. Zero for the
    /// legacy schedule, where perception is tick-synchronous.
    pub fn sensing_interval(&self) -> SimDuration {
        RateConfig::period_of(self.camera_fps) + RateConfig::period_of(self.mapping_hz)
    }

    /// Validates the rates.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for the first invalid rate.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("camera_fps", self.camera_fps),
            ("mapping_hz", self.mapping_hz),
            ("replan_hz", self.replan_hz),
            ("control_hz", self.control_hz),
        ] {
            if let Some(hz) = rate {
                if !(hz.is_finite() && hz > 0.0) {
                    return Err(format!("{name} must be a positive rate, got {hz}"));
                }
            }
        }
        Ok(())
    }

    /// Parses a `cam=15,map=4,plan=2,ctrl=50` rate list (any non-empty subset
    /// of the four keys) and validates it. This is the single source of truth
    /// for the syntax: the harness `--rates` flag and the `mav-server` job
    /// spec both route through it.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for a malformed clause, an unknown key
    /// or an invalid rate.
    pub fn parse(spec: &str) -> Result<RateConfig, String> {
        let mut rates = RateConfig::legacy();
        for part in spec.split(',') {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!(
                    "rate `{part}` must look like key=hz (keys: cam, map, plan, ctrl)"
                ));
            };
            let hz: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("invalid rate value `{value}`"))?;
            match key.trim() {
                "cam" => rates.camera_fps = Some(hz),
                "map" => rates.mapping_hz = Some(hz),
                "plan" => rates.replan_hz = Some(hz),
                "ctrl" => rates.control_hz = Some(hz),
                other => {
                    return Err(format!(
                        "unknown rate key `{other}` (expected cam, map, plan or ctrl)"
                    ))
                }
            }
        }
        rates.validate()?;
        Ok(rates)
    }
}

impl ToJson for RateConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("camera_fps", self.camera_fps)
            .field("mapping_hz", self.mapping_hz)
            .field("replan_hz", self.replan_hz)
            .field("control_hz", self.control_hz)
    }
}

impl FromJson for RateConfig {
    /// Accepts the structured form (what [`ToJson`] emits; omitted keys stay
    /// tick-synchronous) or the CLI string form (`"cam=15,map=4"`) routed
    /// through [`RateConfig::parse`].
    fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(s) = json.as_str() {
            return RateConfig::parse(s);
        }
        json.check_fields(&["camera_fps", "mapping_hz", "replan_hz", "control_hz"])?;
        let rates = RateConfig {
            camera_fps: json.parse_opt_field("camera_fps")?,
            mapping_hz: json.parse_opt_field("mapping_hz")?,
            replan_hz: json.parse_opt_field("replan_hz")?,
            control_hz: json.parse_opt_field("control_hz")?,
        };
        rates.validate()?;
        Ok(rates)
    }
}

/// Per-node operating points of the closed-loop graph (PR 5).
///
/// [`MissionConfig::operating_point`] pins the *whole* companion computer to
/// one (cores, frequency) setting. Real MAV stacks instead map stages to
/// clusters big.LITTLE-style — planning on the big cores at full clock,
/// perception or control parked on the little cluster — and DVFS them
/// independently. This config makes that mapping a mission knob: each field
/// overrides the operating point used to charge the latencies of one node of
/// the flight graph (`None` = the mission-global point, which reproduces the
/// historical accounting bit-for-bit).
///
/// The fields mirror the [`RateConfig`] node keys:
///
/// * `camera` — the depth-camera node. Capture itself carries no Table I
///   kernel cost, so today this field is accepted (and recorded) but scales
///   nothing; it exists so schedules and operating-point maps use one key
///   set.
/// * `mapping` — the OctoMap node's perception kernels (point-cloud
///   generation, map update, collision check, localization). Also used for
///   perception-stage kernels charged outside the graph (e.g. Search and
///   Rescue's detection hook), so "perception on the little cluster" means
///   the same thing in every application.
/// * `planning` — the planner node's kernels (motion planning, smoothing,
///   frontier/lawnmower planning), both for in-flight planning jobs and for
///   the applications' hover-to-plan episodes.
/// * `control` — the path-tracker node's kernels.
///
/// Latency is the only thing a per-node point changes: the compute *power*
/// model still draws at the mission-global operating point (per-cluster
/// power is a ROADMAP follow-on), so per-node DVFS reaches energy through
/// mission time, not watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeOpConfig {
    /// Depth-camera node operating point (`None`: mission-global).
    pub camera: Option<OperatingPoint>,
    /// OctoMap/perception node operating point (`None`: mission-global).
    pub mapping: Option<OperatingPoint>,
    /// Planner node operating point (`None`: mission-global).
    pub planning: Option<OperatingPoint>,
    /// Path-tracker (control) node operating point (`None`: mission-global).
    pub control: Option<OperatingPoint>,
}

impl NodeOpConfig {
    /// The compatibility mapping: every node at the mission-global operating
    /// point (the historical accounting, pinned by `tests/golden_legacy.rs`).
    pub fn mission_global() -> Self {
        NodeOpConfig::default()
    }

    /// Returns `true` when every node uses the mission-global point.
    pub fn is_mission_global(&self) -> bool {
        self.camera.is_none()
            && self.mapping.is_none()
            && self.planning.is_none()
            && self.control.is_none()
    }

    /// The canonical big.LITTLE split used by the per-node DVFS experiment:
    /// planning on the big cluster at full clock, perception and control
    /// parked on the little cluster at 1.5 GHz.
    pub fn big_little() -> Self {
        NodeOpConfig {
            camera: None,
            mapping: Some(OperatingPoint::little_cluster(Frequency::from_ghz(1.5))),
            planning: Some(OperatingPoint::big_cluster(Frequency::from_ghz(2.2))),
            control: Some(OperatingPoint::little_cluster(Frequency::from_ghz(1.5))),
        }
    }

    /// Every kernel-charging node parked on the little cluster at 1.5 GHz —
    /// the degenerate cluster mapping the per-node DVFS experiment compares
    /// [`NodeOpConfig::big_little`] against: identical perception and control
    /// latencies (hence an identical Eq. 2 velocity cap), differing only in
    /// where planning runs.
    pub fn all_little() -> Self {
        let little = OperatingPoint::little_cluster(Frequency::from_ghz(1.5));
        NodeOpConfig {
            camera: None,
            mapping: Some(little),
            planning: Some(little),
            control: Some(little),
        }
    }

    /// Overrides the camera node's point (builder style).
    pub fn with_camera(mut self, point: OperatingPoint) -> Self {
        self.camera = Some(point);
        self
    }

    /// Overrides the mapping node's point (builder style).
    pub fn with_mapping(mut self, point: OperatingPoint) -> Self {
        self.mapping = Some(point);
        self
    }

    /// Overrides the planner node's point (builder style).
    pub fn with_planning(mut self, point: OperatingPoint) -> Self {
        self.planning = Some(point);
        self
    }

    /// Overrides the control node's point (builder style).
    pub fn with_control(mut self, point: OperatingPoint) -> Self {
        self.control = Some(point);
        self
    }

    /// A compact `plan=4c@2.2,map=2c@1.5` label of the overrides (the CLI
    /// syntax), or `"mission-global"` when nothing is overridden.
    pub fn label(&self) -> String {
        let parts: Vec<String> = [
            ("cam", self.camera),
            ("map", self.mapping),
            ("plan", self.planning),
            ("ctrl", self.control),
        ]
        .iter()
        .filter_map(|(key, point)| point.map(|p| format!("{key}={}", p.label())))
        .collect();
        if parts.is_empty() {
            "mission-global".to_string()
        } else {
            parts.join(",")
        }
    }

    /// Validates the per-node points.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for the first invalid point.
    pub fn validate(&self) -> Result<(), String> {
        for (name, point) in [
            ("camera", self.camera),
            ("mapping", self.mapping),
            ("planning", self.planning),
            ("control", self.control),
        ] {
            if let Some(p) = point {
                p.validate().map_err(|e| format!("{name} {e}"))?;
            }
        }
        Ok(())
    }

    /// Parses a `plan=big@2.2,cam=little@1.4` list (any non-empty subset of
    /// the cam/map/plan/ctrl keys; point syntax per
    /// [`OperatingPoint::parse`]) and validates it. The harness `--node-op`
    /// flag and the `mav-server` job spec both route through here.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for a malformed clause, an unknown key
    /// or an invalid operating point.
    pub fn parse(spec: &str) -> Result<NodeOpConfig, String> {
        let mut ops = NodeOpConfig::mission_global();
        for part in spec.split(',') {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!(
                    "node op `{part}` must look like key=point (keys: cam, map, plan, ctrl; \
                     points: big@2.2, little@1.4, 3c@1.5)"
                ));
            };
            let point = OperatingPoint::parse(value.trim())?;
            match key.trim() {
                "cam" => ops.camera = Some(point),
                "map" => ops.mapping = Some(point),
                "plan" => ops.planning = Some(point),
                "ctrl" => ops.control = Some(point),
                other => {
                    return Err(format!(
                        "unknown node key `{other}` (expected cam, map, plan or ctrl)"
                    ))
                }
            }
        }
        ops.validate()?;
        Ok(ops)
    }
}

impl ToJson for NodeOpConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("camera", self.camera.map(|p| p.to_json()))
            .field("mapping", self.mapping.map(|p| p.to_json()))
            .field("planning", self.planning.map(|p| p.to_json()))
            .field("control", self.control.map(|p| p.to_json()))
    }
}

impl FromJson for NodeOpConfig {
    /// Accepts the structured form (what [`ToJson`] emits; omitted nodes stay
    /// mission-global) or the CLI string form (`"plan=big@2.2"`) routed
    /// through [`NodeOpConfig::parse`].
    fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(s) = json.as_str() {
            return NodeOpConfig::parse(s);
        }
        json.check_fields(&["camera", "mapping", "planning", "control"])?;
        let ops = NodeOpConfig {
            camera: json.parse_opt_field("camera")?,
            mapping: json.parse_opt_field("mapping")?,
            planning: json.parse_opt_field("planning")?,
            control: json.parse_opt_field("control")?,
        };
        ops.validate()?;
        Ok(ops)
    }
}

/// What the closed loop does when the collision monitor finds the remaining
/// plan obstructed (PR 3).
///
/// The paper charges planning latency at zero velocity: the vehicle hovers
/// while the mission planner runs, which is the most expensive place to
/// spend compute time. [`ReplanMode::PlanInMotion`] makes the alternative a
/// schedulable policy: the [`crate::flight::PlannerNode`] runs the planning
/// kernels across executor rounds *while the vehicle keeps flying the stale
/// plan*, then swaps the fresh trajectory in through the latched plan topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplanMode {
    /// A collision alert ends the episode; the application re-plans while the
    /// vehicle hovers (the paper's policy, and the historical behaviour —
    /// bit-identical under [`RateConfig::legacy`]).
    #[default]
    HoverToPlan,
    /// A collision alert starts an in-flight planning job: the planner
    /// charges `MotionPlanning`/`PathSmoothing` latency over successive
    /// rounds while the tracker keeps flying the stale plan, then publishes
    /// the fresh trajectory on the plan topic.
    PlanInMotion,
}

impl ReplanMode {
    /// The CLI/figure label of this mode.
    pub fn label(&self) -> &'static str {
        match self {
            ReplanMode::HoverToPlan => "hover-to-plan",
            ReplanMode::PlanInMotion => "plan-in-motion",
        }
    }

    /// Parses the CLI/wire spelling: `hover-to-plan` (alias `hover`) or
    /// `plan-in-motion` (alias `motion`). Shared by the harness
    /// `--replan-mode` flag and the `mav-server` job spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(value: &str) -> Result<ReplanMode, String> {
        match value.trim() {
            "hover-to-plan" | "hover" => Ok(ReplanMode::HoverToPlan),
            "plan-in-motion" | "motion" => Ok(ReplanMode::PlanInMotion),
            other => Err(format!(
                "unknown replan mode `{other}` (expected hover-to-plan or plan-in-motion)"
            )),
        }
    }
}

impl std::fmt::Display for ReplanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl ToJson for ReplanMode {
    fn to_json(&self) -> Json {
        Json::String(self.label().to_string())
    }
}

impl FromJson for ReplanMode {
    fn from_json(json: &Json) -> Result<Self, String> {
        let label = json
            .as_str()
            .ok_or_else(|| format!("expected a replan-mode string, got {json}"))?;
        ReplanMode::parse(label)
    }
}

/// How the vehicle reacts when a threat enters the Eq. 2 stopping distance
/// (PR 9, ROADMAP brake-policy carry-over).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BrakePolicy {
    /// The historical Eq. 2 stop: any threat inside the stopping distance
    /// zeroes the velocity command outright (bit-identical default).
    #[default]
    Binary,
    /// Graded slow-down: the command is scaled by `distance / stopping
    /// distance`, so the vehicle sheds speed proportionally to how deep the
    /// threat sits inside the braking envelope instead of slamming to zero.
    Graded,
}

/// Fraction of the stopping distance that stays a hard-stop core under
/// [`BrakePolicy::Graded`]. A purely proportional slow-down decays the
/// command geometrically but never to zero, so over enough control ticks
/// (e.g. a planning job at its timeout budget) the vehicle creeps inside
/// the obstacle's collision radius; the core makes the graded ramp land on
/// a full stop while still well clear of the threat.
pub const GRADED_HARD_STOP_FRACTION: f64 = 0.5;

impl BrakePolicy {
    /// The CLI/figure label of this policy.
    pub fn label(&self) -> &'static str {
        match self {
            BrakePolicy::Binary => "binary",
            BrakePolicy::Graded => "graded",
        }
    }

    /// The velocity-command scale for a threat at `distance` metres with an
    /// Eq. 2 stopping distance of `stop` metres (callers only consult this
    /// inside the braking envelope, `distance < stop`). Binary stops
    /// outright; graded ramps linearly from full speed at the envelope edge
    /// down to a full stop at the [`GRADED_HARD_STOP_FRACTION`] core.
    pub fn brake_factor(&self, distance: f64, stop: f64) -> f64 {
        match self {
            BrakePolicy::Binary => 0.0,
            BrakePolicy::Graded => {
                let core = GRADED_HARD_STOP_FRACTION * stop;
                ((distance - core) / (stop - core).max(f64::EPSILON)).clamp(0.0, 1.0)
            }
        }
    }
}

impl std::fmt::Display for BrakePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl BrakePolicy {
    /// Parses the CLI/wire spelling: `binary` or `graded`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(value: &str) -> Result<BrakePolicy, String> {
        match value.trim() {
            "binary" => Ok(BrakePolicy::Binary),
            "graded" => Ok(BrakePolicy::Graded),
            other => Err(format!(
                "unknown brake policy `{other}` (expected binary or graded)"
            )),
        }
    }
}

impl ToJson for BrakePolicy {
    fn to_json(&self) -> Json {
        Json::String(self.label().to_string())
    }
}

impl FromJson for BrakePolicy {
    fn from_json(json: &Json) -> Result<Self, String> {
        let label = json
            .as_str()
            .ok_or_else(|| format!("expected a brake-policy string, got {json}"))?;
        BrakePolicy::parse(label)
    }
}

/// Degraded-mode responses of the flight stack (PR 9). All off by default:
/// the default mission flies exactly the pre-fault-era code paths, pinned by
/// `tests/golden_legacy.rs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Stale-perception watchdog: when the path tracker sees no fresh depth
    /// frame for longer than the grace interval, it decays the Eq. 2
    /// velocity cap in proportion to the sensing age instead of flying blind
    /// on the last cap.
    pub perception_watchdog: bool,
    /// Grace multiplier on the expected sensing interval before the watchdog
    /// engages (the tracker tolerates this many nominal frame periods of
    /// silence).
    pub stale_grace_factor: f64,
    /// Abandon an in-motion planning job whose charged latency exceeds this
    /// budget, falling back to the hover-to-plan path (`None`: never).
    pub plan_timeout_secs: Option<f64>,
    /// How the vehicle brakes for threats inside the stopping distance.
    pub brake_policy: BrakePolicy,
    /// Partial-trajectory splicing on replan: graft the fresh segment onto
    /// the still-collision-free prefix of the current plan instead of
    /// replacing the whole trajectory.
    pub plan_splicing: bool,
}

impl DegradationConfig {
    /// Every response off: the historical fly-blind behaviour.
    pub fn off() -> Self {
        DegradationConfig {
            perception_watchdog: false,
            stale_grace_factor: 2.0,
            plan_timeout_secs: None,
            brake_policy: BrakePolicy::Binary,
            plan_splicing: false,
        }
    }

    /// The full defensive stack: watchdog + planner-timeout fallback +
    /// graded braking (splicing stays opt-in).
    pub fn defensive() -> Self {
        DegradationConfig {
            perception_watchdog: true,
            stale_grace_factor: 2.0,
            plan_timeout_secs: Some(4.0),
            brake_policy: BrakePolicy::Graded,
            plan_splicing: false,
        }
    }

    /// Whether every response is off (the bit-identical default).
    pub fn is_off(&self) -> bool {
        !self.perception_watchdog
            && self.plan_timeout_secs.is_none()
            && self.brake_policy == BrakePolicy::Binary
            && !self.plan_splicing
    }

    /// Enables the stale-perception watchdog (builder style).
    pub fn with_watchdog(mut self) -> Self {
        self.perception_watchdog = true;
        self
    }

    /// Sets the in-motion planning job budget (builder style).
    pub fn with_plan_timeout(mut self, secs: f64) -> Self {
        self.plan_timeout_secs = Some(secs);
        self
    }

    /// Sets the brake policy (builder style).
    pub fn with_brake_policy(mut self, policy: BrakePolicy) -> Self {
        self.brake_policy = policy;
        self
    }

    /// Enables partial-trajectory splicing on replan (builder style).
    pub fn with_plan_splicing(mut self) -> Self {
        self.plan_splicing = true;
        self
    }

    /// A compact label for reports: `off`, or the enabled responses joined
    /// with `+` (e.g. `watchdog+graded`).
    pub fn label(&self) -> String {
        if self.is_off() {
            return "off".into();
        }
        let mut parts: Vec<&str> = Vec::new();
        if self.perception_watchdog {
            parts.push("watchdog");
        }
        if self.plan_timeout_secs.is_some() {
            parts.push("plan-timeout");
        }
        if self.brake_policy == BrakePolicy::Graded {
            parts.push("graded");
        }
        if self.plan_splicing {
            parts.push("splicing");
        }
        parts.join("+")
    }

    /// Validates the responses.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.stale_grace_factor.is_finite() && self.stale_grace_factor >= 1.0) {
            return Err(format!(
                "stale_grace_factor must be >= 1, got {}",
                self.stale_grace_factor
            ));
        }
        if let Some(secs) = self.plan_timeout_secs {
            if !(secs.is_finite() && secs > 0.0) {
                return Err(format!("plan_timeout_secs must be positive, got {secs}"));
            }
        }
        Ok(())
    }
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig::off()
    }
}

impl ToJson for DegradationConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("perception_watchdog", self.perception_watchdog)
            .field("stale_grace_factor", self.stale_grace_factor)
            .field("plan_timeout_secs", self.plan_timeout_secs)
            .field("brake_policy", self.brake_policy.to_json())
            .field("plan_splicing", self.plan_splicing)
    }
}

impl FromJson for DegradationConfig {
    /// Reads a degradation description; omitted fields keep the
    /// [`DegradationConfig::off`] values, so a sparse spec only names the
    /// responses it enables.
    fn from_json(json: &Json) -> Result<Self, String> {
        json.check_fields(&[
            "perception_watchdog",
            "stale_grace_factor",
            "plan_timeout_secs",
            "brake_policy",
            "plan_splicing",
        ])?;
        let base = DegradationConfig::off();
        let config = DegradationConfig {
            perception_watchdog: json
                .parse_field_or("perception_watchdog", base.perception_watchdog)?,
            stale_grace_factor: json
                .parse_field_or("stale_grace_factor", base.stale_grace_factor)?,
            plan_timeout_secs: json.parse_opt_field("plan_timeout_secs")?,
            brake_policy: json.parse_field_or("brake_policy", base.brake_policy)?,
            plan_splicing: json.parse_field_or("plan_splicing", base.plan_splicing)?,
        };
        config.validate()?;
        Ok(config)
    }
}

/// How the OctoMap resolution is chosen during the mission (the paper's
/// energy case study, Fig. 19).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolutionPolicy {
    /// A single resolution for the whole mission.
    Static {
        /// Voxel edge length, metres.
        resolution: f64,
    },
    /// Switch between an outdoor (coarse) and indoor (fine) resolution based
    /// on the obstacle density around the vehicle.
    Dynamic {
        /// Resolution used in open space, metres.
        outdoor: f64,
        /// Resolution used in cluttered space, metres.
        indoor: f64,
        /// Obstacle-density threshold (fraction of nearby volume occupied)
        /// above which the indoor resolution is used.
        density_threshold: f64,
    },
}

impl ResolutionPolicy {
    /// The paper's fine static setting (0.15 m).
    pub fn static_fine() -> Self {
        ResolutionPolicy::Static { resolution: 0.15 }
    }

    /// The paper's coarse static setting (0.80 m).
    pub fn static_coarse() -> Self {
        ResolutionPolicy::Static { resolution: 0.80 }
    }

    /// The paper's dynamic setting: 0.80 m outdoors, 0.15 m indoors.
    pub fn dynamic_default() -> Self {
        ResolutionPolicy::Dynamic {
            outdoor: 0.80,
            indoor: 0.15,
            density_threshold: 0.02,
        }
    }

    /// The resolution to use given the local obstacle density.
    pub fn resolution_for_density(&self, density: f64) -> f64 {
        match *self {
            ResolutionPolicy::Static { resolution } => resolution,
            ResolutionPolicy::Dynamic {
                outdoor,
                indoor,
                density_threshold,
            } => {
                if density >= density_threshold {
                    indoor
                } else {
                    outdoor
                }
            }
        }
    }

    /// The initial resolution (before any density observation).
    pub fn initial_resolution(&self) -> f64 {
        match *self {
            ResolutionPolicy::Static { resolution } => resolution,
            ResolutionPolicy::Dynamic { outdoor, .. } => outdoor,
        }
    }

    /// Multiplier applied to the OctoMap-generation kernel latency relative to
    /// the Table I baseline (profiled at ~0.5 m): finer voxels mean more
    /// leaf updates per ray. The paper's Fig. 18 measures a ≈4.5X processing
    /// time swing across a 6.5X resolution change; a 1/resolution dependence
    /// (normalised at 0.5 m) reproduces that swing.
    pub fn octomap_cost_multiplier(resolution: f64) -> f64 {
        (0.5 / resolution.max(1e-3)).clamp(0.2, 8.0)
    }
}

impl ToJson for ResolutionPolicy {
    fn to_json(&self) -> Json {
        match *self {
            ResolutionPolicy::Static { resolution } => Json::object()
                .field("kind", "static")
                .field("resolution", resolution),
            ResolutionPolicy::Dynamic {
                outdoor,
                indoor,
                density_threshold,
            } => Json::object()
                .field("kind", "dynamic")
                .field("outdoor", outdoor)
                .field("indoor", indoor)
                .field("density_threshold", density_threshold),
        }
    }
}

impl FromJson for ResolutionPolicy {
    /// Accepts the tagged form [`ToJson`] emits (`{"kind": "static", …}` /
    /// `{"kind": "dynamic", …}`) or a bare number as shorthand for a static
    /// resolution.
    fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(resolution) = json.as_f64() {
            if !(resolution.is_finite() && resolution > 0.0) {
                return Err(format!("resolution must be positive, got {resolution}"));
            }
            return Ok(ResolutionPolicy::Static { resolution });
        }
        let kind: String = json.parse_field("kind")?;
        match kind.as_str() {
            "static" => {
                json.check_fields(&["kind", "resolution"])?;
                let resolution: f64 = json.parse_field("resolution")?;
                if !(resolution.is_finite() && resolution > 0.0) {
                    return Err(format!("resolution: must be positive, got {resolution}"));
                }
                Ok(ResolutionPolicy::Static { resolution })
            }
            "dynamic" => {
                json.check_fields(&["kind", "outdoor", "indoor", "density_threshold"])?;
                let policy = ResolutionPolicy::Dynamic {
                    outdoor: json.parse_field("outdoor")?,
                    indoor: json.parse_field("indoor")?,
                    density_threshold: json.parse_field("density_threshold")?,
                };
                if let ResolutionPolicy::Dynamic {
                    outdoor, indoor, ..
                } = policy
                {
                    if !(outdoor.is_finite() && outdoor > 0.0 && indoor.is_finite() && indoor > 0.0)
                    {
                        return Err("outdoor/indoor resolutions must be positive".to_string());
                    }
                }
                Ok(policy)
            }
            other => Err(format!(
                "unknown resolution-policy kind `{other}` (expected static or dynamic)"
            )),
        }
    }
}

/// Full configuration of one closed-loop mission.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionConfig {
    /// Which benchmark application to run.
    pub application: ApplicationId,
    /// Companion-computer operating point.
    pub operating_point: OperatingPoint,
    /// Optional cloud offload (the sensor-cloud case study).
    pub cloud: Option<CloudConfig>,
    /// Airframe.
    pub quadrotor: QuadrotorConfig,
    /// Battery pack.
    pub battery: BatteryConfig,
    /// Environment generator configuration.
    pub environment: EnvironmentConfig,
    /// Depth camera configuration.
    pub camera: DepthCameraConfig,
    /// Standard deviation of depth-image noise, metres (Table II).
    pub depth_noise_std: f64,
    /// OctoMap resolution policy (Fig. 19).
    pub resolution_policy: ResolutionPolicy,
    /// Hard mission time budget, seconds; exceeding it fails the mission.
    pub time_budget_secs: f64,
    /// Stopping-distance budget used in Eq. 2, metres.
    pub stopping_distance: f64,
    /// Application-level cruise velocity cap, m/s (the mission planner never
    /// commands more than this even if Eq. 2 allows it).
    pub cruise_velocity: f64,
    /// Physics integration step, seconds, in [0.001, 1].
    pub physics_dt: f64,
    /// Per-node rates of the closed-loop graph (PR 2). The default,
    /// [`RateConfig::legacy`], reproduces the historical sequential loop.
    pub rates: RateConfig,
    /// What the closed loop does on a collision alert (PR 3). The default,
    /// [`ReplanMode::HoverToPlan`], reproduces the historical
    /// end-the-episode-and-hover behaviour.
    pub replan_mode: ReplanMode,
    /// How executor rounds charge latency (PR 5): the default,
    /// [`ExecModel::Serial`], sums node latencies (the paper's accounting,
    /// bit-identical to history); [`ExecModel::Pipelined`] charges the
    /// critical path over pipeline stages — the camera captures the next
    /// frame while the mapper integrates the last one.
    pub exec_model: ExecModel,
    /// Per-node operating points of the flight graph (PR 5). The default,
    /// [`NodeOpConfig::mission_global`], charges every node at
    /// [`MissionConfig::operating_point`].
    pub node_ops: NodeOpConfig,
    /// Seeded fault intensities for this mission (PR 9). The default,
    /// [`FaultPlan::none`], compiles to no injector at all, leaving every
    /// historical code path untouched.
    pub fault_plan: FaultPlan,
    /// Degraded-mode responses of the flight stack (PR 9). The default,
    /// [`DegradationConfig::off`], is the historical fly-blind behaviour.
    pub degradation: DegradationConfig,
    /// RNG seed shared by all stochastic components.
    pub seed: u64,
}

impl MissionConfig {
    /// A sensible default configuration for the given application: the
    /// DJI Matrice 100 with its TB47 battery at the reference operating point
    /// in that application's natural environment.
    pub fn new(application: ApplicationId) -> Self {
        let environment = match application {
            ApplicationId::Scanning => EnvironmentConfig::open_field(),
            ApplicationId::AerialPhotography => EnvironmentConfig::park_with_subject(),
            ApplicationId::PackageDelivery => EnvironmentConfig::urban_outdoor(),
            ApplicationId::Mapping3D => EnvironmentConfig::indoor_outdoor(),
            ApplicationId::SearchAndRescue => EnvironmentConfig::disaster_site(),
        };
        MissionConfig {
            application,
            operating_point: OperatingPoint::reference(),
            cloud: None,
            quadrotor: QuadrotorConfig::dji_matrice_100(),
            battery: BatteryConfig::matrice_tb47(),
            environment,
            camera: DepthCameraConfig::default(),
            depth_noise_std: 0.0,
            resolution_policy: ResolutionPolicy::Static { resolution: 0.5 },
            time_budget_secs: 1800.0,
            stopping_distance: 10.0,
            cruise_velocity: 8.0,
            physics_dt: 0.05,
            rates: RateConfig::legacy(),
            replan_mode: ReplanMode::default(),
            exec_model: ExecModel::default(),
            node_ops: NodeOpConfig::mission_global(),
            fault_plan: FaultPlan::none(),
            degradation: DegradationConfig::off(),
            seed: 42,
        }
    }

    /// Overrides the operating point (builder style).
    pub fn with_operating_point(mut self, point: OperatingPoint) -> Self {
        self.operating_point = point;
        self
    }

    /// Overrides the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.environment.seed = seed;
        self
    }

    /// Overrides the depth noise (builder style).
    pub fn with_depth_noise(mut self, std_dev: f64) -> Self {
        self.depth_noise_std = std_dev.max(0.0);
        self
    }

    /// Overrides the resolution policy (builder style).
    pub fn with_resolution_policy(mut self, policy: ResolutionPolicy) -> Self {
        self.resolution_policy = policy;
        self
    }

    /// Attaches a cloud offload configuration (builder style).
    pub fn with_cloud(mut self, cloud: CloudConfig) -> Self {
        self.cloud = Some(cloud);
        self
    }

    /// Overrides the closed-loop node rates (builder style).
    pub fn with_rates(mut self, rates: RateConfig) -> Self {
        self.rates = rates;
        self
    }

    /// Overrides the collision-alert replanning policy (builder style).
    pub fn with_replan_mode(mut self, mode: ReplanMode) -> Self {
        self.replan_mode = mode;
        self
    }

    /// Overrides the executor's latency-charging model (builder style).
    pub fn with_exec_model(mut self, model: ExecModel) -> Self {
        self.exec_model = model;
        self
    }

    /// Overrides the per-node operating points (builder style).
    pub fn with_node_ops(mut self, node_ops: NodeOpConfig) -> Self {
        self.node_ops = node_ops;
        self
    }

    /// Overrides the fault plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Overrides the degraded-mode responses (builder style).
    pub fn with_degradation(mut self, degradation: DegradationConfig) -> Self {
        self.degradation = degradation;
        self
    }

    /// A scaled-down configuration for fast unit/integration testing: a small
    /// world, a coarse camera and map, and short distances. The physics and
    /// kernels are identical — only the scenario is smaller.
    pub fn fast_test(application: ApplicationId) -> Self {
        let mut cfg = MissionConfig::new(application);
        cfg.environment.extent = cfg.environment.extent.min(45.0);
        cfg.environment.obstacle_density = cfg.environment.obstacle_density.min(1.5);
        cfg.camera = DepthCameraConfig {
            width: 16,
            height: 12,
            ..DepthCameraConfig::default()
        };
        cfg.resolution_policy = ResolutionPolicy::Static { resolution: 0.8 };
        cfg.time_budget_secs = 900.0;
        cfg
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.operating_point.validate()?;
        self.quadrotor.validate()?;
        self.camera.validate()?;
        // Every range check is written so that NaN fails it. A step far
        // below a millisecond would stall `MissionContext::advance`, whose
        // remaining time stops shrinking once the step falls under its ulp.
        if !(self.physics_dt >= 1e-3 && self.physics_dt <= 1.0) {
            return Err(format!(
                "physics_dt must be in [0.001, 1], got {:?}",
                self.physics_dt
            ));
        }
        if !(self.time_budget_secs.is_finite() && self.time_budget_secs > 0.0) {
            return Err("time budget must be positive and finite".to_string());
        }
        if !(self.stopping_distance.is_finite() && self.stopping_distance > 0.0) {
            return Err("stopping distance must be positive and finite".to_string());
        }
        if !(self.cruise_velocity.is_finite() && self.cruise_velocity > 0.0) {
            return Err("cruise velocity must be positive and finite".to_string());
        }
        if !(self.depth_noise_std.is_finite() && self.depth_noise_std >= 0.0) {
            return Err("depth noise std must be finite and non-negative".to_string());
        }
        self.rates.validate()?;
        self.node_ops.validate()?;
        self.fault_plan.validate()?;
        self.degradation.validate()?;
        self.validate_map_depth()
    }

    /// Half-extent of the mission's cubic occupancy map, metres: the larger
    /// of the world's horizontal half-extent and height, plus a 5 m margin.
    /// [`crate::MissionContext`] builds the map over it, and
    /// [`MissionConfig::validate`] vets the map resolutions against it.
    pub fn map_half_extent(&self) -> f64 {
        self.environment.extent.max(self.environment.height) + 5.0
    }

    /// Rejects a resolution the mission's map cannot be built at. Every map
    /// of the mission covers [`Self::map_half_extent`] within
    /// [`OctoMap::MAX_DEPTH`] levels: the first at the initial resolution (a
    /// dynamic policy's outdoor one), and every dynamic switch
    /// ([`OctoMap::reresolved`]) over the same half-extent at the indoor or
    /// the outdoor resolution.
    fn validate_map_depth(&self) -> Result<(), String> {
        let half_extent = self.map_half_extent();
        if !(half_extent.is_finite() && half_extent > 0.0) {
            return Err(format!(
                "map half extent must be positive and finite, got {half_extent}"
            ));
        }
        let fits = |resolution: f64, half_extent: f64| {
            if !(resolution.is_finite() && resolution > 0.0) {
                return Err(format!("resolution must be positive, got {resolution}"));
            }
            let depth = OctoMap::depth_for(resolution, half_extent);
            if depth > OctoMap::MAX_DEPTH {
                return Err(format!(
                    "resolution {resolution:?} m needs a {depth}-level map over \
                     ±{half_extent} m, above the {}-level maximum",
                    OctoMap::MAX_DEPTH
                ));
            }
            Ok(())
        };
        fits(self.resolution_policy.initial_resolution(), half_extent)?;
        if let ResolutionPolicy::Dynamic { indoor, .. } = self.resolution_policy {
            fits(indoor, half_extent)?;
        }
        Ok(())
    }
}

impl ToJson for MissionConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("application", self.application.to_json())
            .field("operating_point", self.operating_point.to_json())
            .field("cloud", self.cloud.as_ref().map(ToJson::to_json))
            .field("quadrotor", self.quadrotor.to_json())
            .field("battery", self.battery.to_json())
            .field("environment", self.environment.to_json())
            .field("camera", self.camera.to_json())
            .field("depth_noise_std", self.depth_noise_std)
            .field("resolution_policy", self.resolution_policy.to_json())
            .field("time_budget_secs", self.time_budget_secs)
            .field("stopping_distance", self.stopping_distance)
            .field("cruise_velocity", self.cruise_velocity)
            .field("physics_dt", self.physics_dt)
            .field("rates", self.rates.to_json())
            .field("replan_mode", self.replan_mode.to_json())
            .field("exec_model", self.exec_model.to_json())
            .field("node_ops", self.node_ops.to_json())
            .field("fault_plan", self.fault_plan.to_json())
            .field("degradation", self.degradation.to_json())
            .field("seed", self.seed)
    }
}

impl FromJson for MissionConfig {
    /// Reads a mission description. Only `application` is required; every
    /// other field defaults from [`MissionConfig::new`] for that application,
    /// so a sparse wire spec names exactly the knobs it turns. Unknown fields
    /// are rejected (a typoed knob must not silently run with defaults), and
    /// the assembled configuration is [`MissionConfig::validate`]d.
    fn from_json(json: &Json) -> Result<Self, String> {
        json.check_fields(&[
            "application",
            "operating_point",
            "cloud",
            "quadrotor",
            "battery",
            "environment",
            "camera",
            "depth_noise_std",
            "resolution_policy",
            "time_budget_secs",
            "stopping_distance",
            "cruise_velocity",
            "physics_dt",
            "rates",
            "replan_mode",
            "exec_model",
            "node_ops",
            "fault_plan",
            "degradation",
            "seed",
        ])?;
        let application: ApplicationId = json.parse_field("application")?;
        let base = MissionConfig::new(application);
        let mut config = MissionConfig {
            application,
            operating_point: json.parse_field_or("operating_point", base.operating_point)?,
            cloud: json.parse_opt_field("cloud")?,
            quadrotor: json.parse_field_or("quadrotor", base.quadrotor)?,
            battery: json.parse_field_or("battery", base.battery)?,
            environment: json.parse_field_or("environment", base.environment)?,
            camera: json.parse_field_or("camera", base.camera)?,
            depth_noise_std: json.parse_field_or("depth_noise_std", base.depth_noise_std)?,
            resolution_policy: json.parse_field_or("resolution_policy", base.resolution_policy)?,
            time_budget_secs: json.parse_field_or("time_budget_secs", base.time_budget_secs)?,
            stopping_distance: json.parse_field_or("stopping_distance", base.stopping_distance)?,
            cruise_velocity: json.parse_field_or("cruise_velocity", base.cruise_velocity)?,
            physics_dt: json.parse_field_or("physics_dt", base.physics_dt)?,
            rates: json.parse_field_or("rates", base.rates)?,
            replan_mode: json.parse_field_or("replan_mode", base.replan_mode)?,
            exec_model: json.parse_field_or("exec_model", base.exec_model)?,
            node_ops: json.parse_field_or("node_ops", base.node_ops)?,
            fault_plan: json.parse_field_or("fault_plan", base.fault_plan)?,
            degradation: json.parse_field_or("degradation", base.degradation)?,
            seed: base.seed,
        };
        // `seed` mirrors `with_seed`: the mission seed also drives the
        // environment generator unless the spec pins `environment.seed`
        // itself.
        if let Some(seed) = json.parse_opt_field::<u64>("seed")? {
            config.seed = seed;
            if json
                .get("environment")
                .map(|e| e.get("seed").is_none())
                .unwrap_or(true)
            {
                config.environment.seed = seed;
            }
        }
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_for_every_application() {
        for &app in ApplicationId::all() {
            assert!(
                MissionConfig::new(app).validate().is_ok(),
                "{app} default invalid"
            );
            assert!(MissionConfig::fast_test(app).validate().is_ok());
        }
    }

    #[test]
    fn builders_override_fields() {
        let cfg = MissionConfig::new(ApplicationId::PackageDelivery)
            .with_operating_point(OperatingPoint::slowest())
            .with_seed(7)
            .with_depth_noise(1.5)
            .with_resolution_policy(ResolutionPolicy::static_fine());
        assert_eq!(cfg.operating_point, OperatingPoint::slowest());
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.environment.seed, 7);
        assert_eq!(cfg.depth_noise_std, 1.5);
        assert_eq!(cfg.resolution_policy, ResolutionPolicy::static_fine());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = MissionConfig::new(ApplicationId::Scanning);
        cfg.physics_dt = 0.0;
        assert!(cfg.validate().is_err());
        for (dt, valid) in [(1e-300, false), (9.9e-4, false), (1e-3, true)] {
            cfg.physics_dt = dt;
            assert_eq!(cfg.validate().is_ok(), valid, "physics_dt = {dt}");
        }
        let mut cfg = MissionConfig::new(ApplicationId::Scanning);
        cfg.cruise_velocity = -1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = MissionConfig::new(ApplicationId::Scanning);
        cfg.time_budget_secs = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = MissionConfig::new(ApplicationId::Scanning);
        cfg.stopping_distance = f64::NAN;
        assert!(cfg.validate().is_err());
        // The operating point's floor holds for a config built in Rust too,
        // mission-global and per node.
        for (ghz, valid) in [(1e-9, false), (0.099, false), (0.1, true)] {
            let point = OperatingPoint::new(1, Frequency::from_ghz(ghz));
            let cfg = MissionConfig::new(ApplicationId::Scanning).with_operating_point(point);
            assert_eq!(cfg.validate().is_ok(), valid, "{ghz} GHz");
            let mut cfg = MissionConfig::new(ApplicationId::Scanning);
            cfg.node_ops = NodeOpConfig::mission_global().with_planning(point);
            assert_eq!(cfg.validate().is_ok(), valid, "planning at {ghz} GHz");
        }
        let mut cfg = MissionConfig::new(ApplicationId::Scanning);
        cfg.operating_point.cores = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn resolution_policy_switches_on_density() {
        let dynamic = ResolutionPolicy::dynamic_default();
        assert_eq!(dynamic.resolution_for_density(0.0), 0.80);
        assert_eq!(dynamic.resolution_for_density(0.5), 0.15);
        assert_eq!(dynamic.initial_resolution(), 0.80);
        let fixed = ResolutionPolicy::static_fine();
        assert_eq!(fixed.resolution_for_density(0.0), 0.15);
        assert_eq!(fixed.resolution_for_density(1.0), 0.15);
    }

    #[test]
    fn rate_config_legacy_is_tick_synchronous() {
        let legacy = RateConfig::legacy();
        assert!(legacy.is_legacy());
        assert!(legacy.camera_period().is_zero());
        assert!(legacy.mapping_period().is_zero());
        assert!(legacy.replan_period().is_zero());
        assert!(legacy.control_period().is_zero());
        assert!(legacy.sensing_interval().is_zero());
        assert!(legacy.validate().is_ok());
    }

    #[test]
    fn rate_config_periods_and_staleness() {
        let rates = RateConfig::legacy()
            .with_camera_fps(20.0)
            .with_mapping_hz(4.0)
            .with_replan_hz(2.0)
            .with_control_hz(50.0);
        assert!(!rates.is_legacy());
        assert!((rates.camera_period().as_millis() - 50.0).abs() < 1e-9);
        assert!((rates.mapping_period().as_millis() - 250.0).abs() < 1e-9);
        assert!((rates.replan_period().as_millis() - 500.0).abs() < 1e-9);
        assert!((rates.control_period().as_millis() - 20.0).abs() < 1e-9);
        // Staleness = camera interval + mapping interval.
        assert!((rates.sensing_interval().as_millis() - 300.0).abs() < 1e-9);
        assert!(rates.validate().is_ok());
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let bad = RateConfig::legacy().with_camera_fps(0.0);
        assert!(bad.validate().is_err());
        let mut cfg = MissionConfig::new(ApplicationId::Scanning);
        cfg.rates.control_hz = Some(-3.0);
        assert!(cfg.validate().is_err());
        cfg.rates.control_hz = Some(f64::NAN);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn replan_mode_defaults_to_hover_and_overrides() {
        let cfg = MissionConfig::new(ApplicationId::PackageDelivery);
        assert_eq!(cfg.replan_mode, ReplanMode::HoverToPlan);
        let cfg = cfg.with_replan_mode(ReplanMode::PlanInMotion);
        assert_eq!(cfg.replan_mode, ReplanMode::PlanInMotion);
        assert_eq!(ReplanMode::HoverToPlan.label(), "hover-to-plan");
        assert_eq!(format!("{}", ReplanMode::PlanInMotion), "plan-in-motion");
    }

    #[test]
    fn exec_model_defaults_to_serial_and_overrides() {
        let cfg = MissionConfig::new(ApplicationId::PackageDelivery);
        assert_eq!(cfg.exec_model, ExecModel::Serial);
        let cfg = cfg.with_exec_model(ExecModel::Pipelined);
        assert_eq!(cfg.exec_model, ExecModel::Pipelined);
        assert_eq!(ExecModel::Serial.label(), "serial");
        assert_eq!(format!("{}", ExecModel::Pipelined), "pipelined");
    }

    #[test]
    fn node_ops_default_to_mission_global_and_validate() {
        let cfg = MissionConfig::new(ApplicationId::PackageDelivery);
        assert!(cfg.node_ops.is_mission_global());
        assert_eq!(cfg.node_ops.label(), "mission-global");
        assert!(cfg.validate().is_ok());

        let split = NodeOpConfig::big_little();
        assert!(!split.is_mission_global());
        assert_eq!(split.planning.unwrap().cores, 4);
        assert_eq!(split.mapping.unwrap().cores, 2);
        assert_eq!(split.label(), "map=2c@1.5GHz,plan=4c@2.2GHz,ctrl=2c@1.5GHz");
        let cfg = cfg.with_node_ops(split);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.node_ops, split);
    }

    #[test]
    fn invalid_node_ops_are_rejected() {
        let mut cfg = MissionConfig::new(ApplicationId::PackageDelivery);
        cfg.node_ops.planning = Some(OperatingPoint {
            cores: 0,
            frequency: Frequency::from_ghz(1.5),
        });
        assert!(cfg.validate().is_err());
        assert!(NodeOpConfig::big_little().validate().is_ok());
        let builders = NodeOpConfig::mission_global()
            .with_camera(OperatingPoint::little_cluster(Frequency::from_ghz(1.4)))
            .with_mapping(OperatingPoint::little_cluster(Frequency::from_ghz(1.5)))
            .with_planning(OperatingPoint::big_cluster(Frequency::from_ghz(2.2)))
            .with_control(OperatingPoint::little_cluster(Frequency::from_ghz(1.5)));
        assert!(builders.validate().is_ok());
        assert!(!builders.is_mission_global());
    }

    #[test]
    fn fault_and_degradation_default_off_and_validate() {
        let cfg = MissionConfig::new(ApplicationId::PackageDelivery);
        assert!(cfg.fault_plan.is_none());
        assert!(cfg.degradation.is_off());
        assert_eq!(cfg.degradation.brake_policy, BrakePolicy::Binary);
        assert_eq!(cfg.degradation.label(), "off");
        assert!(cfg.validate().is_ok());

        let defensive = DegradationConfig::defensive();
        assert!(!defensive.is_off());
        assert_eq!(defensive.label(), "watchdog+plan-timeout+graded");
        let cfg = cfg
            .with_fault_plan(FaultPlan::parse("cam-drop=0.1,battery-fade=0.2").unwrap())
            .with_degradation(defensive);
        assert!(cfg.validate().is_ok());
        assert!(!cfg.fault_plan.is_none());

        let mut bad = MissionConfig::new(ApplicationId::PackageDelivery);
        bad.fault_plan.battery_fade = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = MissionConfig::new(ApplicationId::PackageDelivery);
        bad.degradation.stale_grace_factor = 0.0;
        assert!(bad.validate().is_err());
        let bad = DegradationConfig::off().with_plan_timeout(-1.0);
        assert!(bad.validate().is_err());
        assert_eq!(BrakePolicy::Graded.label(), "graded");
        assert_eq!(format!("{}", BrakePolicy::Binary), "binary");
        // Binary always stops; graded ramps from full speed at the envelope
        // edge down to a full stop at the hard-stop core (never a creep).
        assert_eq!(BrakePolicy::Binary.brake_factor(4.9, 5.0), 0.0);
        assert_eq!(BrakePolicy::Graded.brake_factor(5.0, 5.0), 1.0);
        let mid = BrakePolicy::Graded.brake_factor(4.0, 5.0);
        assert!(mid > 0.0 && mid < 1.0, "mid-envelope factor {mid}");
        let core = GRADED_HARD_STOP_FRACTION * 5.0;
        assert_eq!(BrakePolicy::Graded.brake_factor(core, 5.0), 0.0);
        assert_eq!(BrakePolicy::Graded.brake_factor(0.1, 5.0), 0.0);
        assert_eq!(
            DegradationConfig::off()
                .with_watchdog()
                .with_brake_policy(BrakePolicy::Graded)
                .with_plan_splicing()
                .label(),
            "watchdog+graded+splicing"
        );
    }

    #[test]
    fn octomap_cost_multiplier_matches_fig18_shape() {
        // Going from 0.15 m to 1.0 m resolution (≈6.5X coarser) must cut the
        // modelled processing time by roughly 3–5X, like Fig. 18.
        let fine = ResolutionPolicy::octomap_cost_multiplier(0.15);
        let coarse = ResolutionPolicy::octomap_cost_multiplier(1.0);
        let ratio = fine / coarse;
        assert!(ratio > 3.0 && ratio < 8.0, "ratio {ratio}");
        // And the baseline at 0.5 m is 1.0 (Table I calibration point).
        assert!((ResolutionPolicy::octomap_cost_multiplier(0.5) - 1.0).abs() < 1e-9);
    }
}
