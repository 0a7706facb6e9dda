//! Deterministic fault injection and degraded-mode accounting.
//!
//! The paper's closed loop assumes every sensor frame arrives, every kernel
//! finishes on time, and the battery never surprises the planner. This module
//! makes failure a first-class, *seeded* input to the simulator: a
//! [`FaultPlan`] describes per-mission fault intensities (camera frame-dropout
//! windows, depth-noise bursts, kernel latency spikes, planner-latency
//! stretch, topic message drops, battery capacity fade), and a
//! [`FaultInjector`] compiled from it draws every fault decision from
//! splitmix64 chains keyed on the episode seed and a per-site counter — so
//! identical seeds give bit-identical fault traces at any `--threads`.
//!
//! The injector is deliberately *absent* (`FaultInjector::compile` returns
//! `None`) when the plan is [`FaultPlan::none`]: every hook site gates on
//! `Option<FaultInjector>`, so the fault-free paths are structurally the same
//! code the golden fixtures pinned before this module existed.
//!
//! Degradation responses live in the flight nodes (`crate::flight`) and are
//! configured by `crate::config::DegradationConfig`; this module provides the
//! [`DegradedState`] bookkeeping they report into and the [`DegradedSummary`]
//! surfaced in `MissionReport`.

use crate::sweep::splitmix64;
use mav_compute::KernelId;
use mav_sensors::{DepthImage, DepthNoiseModel};
use mav_types::json::{Json, ToJson};
use mav_types::{SimDuration, SimTime};
use std::fmt;

/// Default length, in frames, of a camera dropout window once one starts.
const DEFAULT_DROPOUT_FRAMES: u32 = 3;
/// Default extra depth-noise standard deviation during a burst, metres.
const DEFAULT_BURST_STD: f64 = 1.0;
/// Default latency multiplier applied to a spiked kernel charge.
const DEFAULT_SPIKE_FACTOR: f64 = 4.0;

/// Per-mission fault intensities, all off by default.
///
/// The plan is plain data: compiling it against an episode seed produces the
/// stateful [`FaultInjector`] that actually draws fault decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability, per captured frame, that a dropout window starts.
    pub camera_dropout: f64,
    /// Consecutive frames lost once a dropout window starts.
    pub camera_dropout_frames: u32,
    /// Probability, per captured frame, of a depth-noise burst.
    pub noise_burst: f64,
    /// Extra depth-noise standard deviation during a burst, metres.
    pub noise_burst_std: f64,
    /// Probability, per kernel charge, of a latency spike.
    pub kernel_spike: f64,
    /// Latency multiplier applied to a spiked charge.
    pub kernel_spike_factor: f64,
    /// Latency multiplier applied to every planning-kernel charge
    /// (`1.0` = off).
    pub plan_timeout_factor: f64,
    /// Probability that a guarded topic publish is dropped.
    pub topic_drop: f64,
    /// Fraction of rated battery capacity already lost at mission start.
    pub battery_fade: f64,
}

impl FaultPlan {
    /// The largest latency multiplier a spike or the planner stretch may
    /// apply: 100×, the stretch the operating-point floor
    /// ([`mav_compute::OperatingPoint::MIN_FREQUENCY_GHZ`]) allows. A
    /// 1e12× charge was 1e12 simulated seconds of physics steps in
    /// `MissionContext::advance`.
    pub const MAX_STRETCH: f64 = 100.0;

    /// The empty plan: no faults. This is the default everywhere, and it
    /// compiles to *no* injector, leaving every legacy code path untouched.
    pub fn none() -> Self {
        FaultPlan {
            camera_dropout: 0.0,
            camera_dropout_frames: DEFAULT_DROPOUT_FRAMES,
            noise_burst: 0.0,
            noise_burst_std: DEFAULT_BURST_STD,
            kernel_spike: 0.0,
            kernel_spike_factor: DEFAULT_SPIKE_FACTOR,
            plan_timeout_factor: 1.0,
            topic_drop: 0.0,
            battery_fade: 0.0,
        }
    }

    /// Whether every fault channel is off.
    pub fn is_none(&self) -> bool {
        self.camera_dropout == 0.0
            && self.noise_burst == 0.0
            && self.kernel_spike == 0.0
            && self.plan_timeout_factor == 1.0
            && self.topic_drop == 0.0
            && self.battery_fade == 0.0
    }

    /// Parses a `--faults` argument: comma-separated `key=value` clauses,
    /// e.g. `cam-drop=0.1,plan-timeout=2x,battery-fade=0.2`. The literal
    /// `none` yields the empty plan.
    pub fn parse(arg: &str) -> Result<Self, String> {
        let trimmed = arg.trim();
        if trimmed.is_empty() || trimmed == "none" {
            return Ok(FaultPlan::none());
        }
        let mut plan = FaultPlan::none();
        for clause in trimmed.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause '{clause}' is not key=value"))?;
            plan.set(key.trim(), value.trim())?;
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Sets the channel that one `key=value` clause names. A `P@X` value
    /// carries the per-event magnitude (window length, burst std, spike
    /// factor) next to the probability; without `@X` the magnitude is the
    /// default.
    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let num = |v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .map_err(|_| format!("fault value '{v}' is not a number"))
        };
        let (p, at) = match value.split_once('@') {
            Some((p, x)) => (p, Some(x)),
            None => (value, None),
        };
        match key {
            "cam-drop" => {
                self.camera_dropout_frames = match at {
                    Some(n) => n
                        .parse::<u32>()
                        .map_err(|_| format!("cam-drop window '{n}' is not an integer"))?,
                    None => DEFAULT_DROPOUT_FRAMES,
                };
                self.camera_dropout = num(p)?;
            }
            "noise-burst" => {
                self.noise_burst_std = at.map_or(Ok(DEFAULT_BURST_STD), num)?;
                self.noise_burst = num(p)?;
            }
            "kernel-spike" => {
                self.kernel_spike_factor = at.map_or(Ok(DEFAULT_SPIKE_FACTOR), num)?;
                self.kernel_spike = num(p)?;
            }
            "plan-timeout" => {
                self.plan_timeout_factor = num(value.strip_suffix('x').unwrap_or(value))?;
            }
            "topic-drop" => self.topic_drop = num(value)?,
            "battery-fade" => self.battery_fade = num(value)?,
            other => {
                return Err(format!(
                    "unknown fault kind '{other}' (expected cam-drop, noise-burst, \
                     kernel-spike, plan-timeout, topic-drop or battery-fade)"
                ))
            }
        }
        Ok(())
    }

    /// Scales every fault *intensity* (probabilities, fade, planner stretch)
    /// by `factor`, keeping window lengths and per-event magnitudes. Used by
    /// the reliability fault matrix to build a none → half → full intensity
    /// axis from one plan.
    pub fn scaled(&self, factor: f64) -> Self {
        let f = factor.clamp(0.0, 1.0);
        let mut plan = *self;
        plan.camera_dropout = (self.camera_dropout * f).clamp(0.0, 1.0);
        plan.noise_burst = (self.noise_burst * f).clamp(0.0, 1.0);
        plan.kernel_spike = (self.kernel_spike * f).clamp(0.0, 1.0);
        plan.plan_timeout_factor = 1.0 + (self.plan_timeout_factor - 1.0) * f;
        plan.topic_drop = (self.topic_drop * f).clamp(0.0, 1.0);
        plan.battery_fade = self.battery_fade * f;
        plan
    }

    /// Checks every channel is in range. Probabilities live in `[0, 1]`,
    /// multipliers in `[1, MAX_STRETCH]`, the fade fraction in `[0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, p: f64| -> Result<(), String> {
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{name} probability {p} outside [0, 1]"))
            }
        };
        prob("cam-drop", self.camera_dropout)?;
        prob("noise-burst", self.noise_burst)?;
        prob("kernel-spike", self.kernel_spike)?;
        prob("topic-drop", self.topic_drop)?;
        if self.camera_dropout > 0.0 && self.camera_dropout_frames == 0 {
            return Err("cam-drop window must lose at least one frame".into());
        }
        if !(self.noise_burst_std.is_finite() && self.noise_burst_std >= 0.0) {
            return Err(format!("noise-burst std {} invalid", self.noise_burst_std));
        }
        let stretch = |name: &str, factor: f64| {
            if (1.0..=Self::MAX_STRETCH).contains(&factor) {
                Ok(())
            } else {
                Err(format!(
                    "{name} factor {factor} outside [1, {}]",
                    Self::MAX_STRETCH
                ))
            }
        };
        stretch("kernel-spike", self.kernel_spike_factor)?;
        stretch("plan-timeout", self.plan_timeout_factor)?;
        if !(self.battery_fade.is_finite() && (0.0..1.0).contains(&self.battery_fade)) {
            return Err(format!("battery-fade {} outside [0, 1)", self.battery_fade));
        }
        Ok(())
    }

    /// Canonical compact label, `none` or the same `key=value` syntax
    /// [`FaultPlan::parse`] accepts (round-trips through it).
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".into();
        }
        let mut parts: Vec<String> = Vec::new();
        if self.camera_dropout > 0.0 {
            if self.camera_dropout_frames == DEFAULT_DROPOUT_FRAMES {
                parts.push(format!("cam-drop={}", self.camera_dropout));
            } else {
                parts.push(format!(
                    "cam-drop={}@{}",
                    self.camera_dropout, self.camera_dropout_frames
                ));
            }
        }
        if self.noise_burst > 0.0 {
            if self.noise_burst_std == DEFAULT_BURST_STD {
                parts.push(format!("noise-burst={}", self.noise_burst));
            } else {
                parts.push(format!(
                    "noise-burst={}@{}",
                    self.noise_burst, self.noise_burst_std
                ));
            }
        }
        if self.kernel_spike > 0.0 {
            if self.kernel_spike_factor == DEFAULT_SPIKE_FACTOR {
                parts.push(format!("kernel-spike={}", self.kernel_spike));
            } else {
                parts.push(format!(
                    "kernel-spike={}@{}",
                    self.kernel_spike, self.kernel_spike_factor
                ));
            }
        }
        if self.plan_timeout_factor != 1.0 {
            parts.push(format!("plan-timeout={}x", self.plan_timeout_factor));
        }
        if self.topic_drop > 0.0 {
            parts.push(format!("topic-drop={}", self.topic_drop));
        }
        if self.battery_fade > 0.0 {
            parts.push(format!("battery-fade={}", self.battery_fade));
        }
        parts.join(",")
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

// Per-site salts for the draw chains. Each hook site owns a counter and a
// salt, so adding draws at one site never perturbs another site's stream.
const SITE_FRAME: u64 = 0x66_72_61_6d_65; // "frame"
const SITE_BURST: u64 = 0x62_75_72_73_74; // "burst"
const SITE_KERNEL: u64 = 0x6b_65_72_6e; // "kern"
const SITE_TOPIC: u64 = 0x74_6f_70_69_63; // "topic"

/// The compiled, stateful form of a [`FaultPlan`] for one mission.
///
/// Every decision is a pure function of `(seed, site, counter)` through
/// splitmix64, and each hook site owns its own counter — the trace is
/// bit-reproducible regardless of host thread count or which other sites
/// fired.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    frame_draws: u64,
    dropout_left: u32,
    burst_draws: u64,
    kernel_draws: u64,
    topic_draws: u64,
    burst_noise: DepthNoiseModel,
}

impl FaultInjector {
    /// Compiles a plan against the mission seed. Returns `None` for the
    /// empty plan so fault-free missions carry no injector at all.
    pub fn compile(plan: &FaultPlan, seed: u64) -> Option<FaultInjector> {
        if plan.is_none() {
            return None;
        }
        let injector_seed = splitmix64(seed ^ INJECTOR_SALT);
        Some(FaultInjector {
            plan: *plan,
            seed: injector_seed,
            frame_draws: 0,
            dropout_left: 0,
            burst_draws: 0,
            kernel_draws: 0,
            topic_draws: 0,
            burst_noise: DepthNoiseModel::new(
                plan.noise_burst_std,
                splitmix64(injector_seed ^ SITE_BURST),
            ),
        })
    }

    /// The plan this injector was compiled from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Uniform draw in `[0, 1)` for `(site, counter)`.
    fn unit_draw(&self, site: u64, counter: u64) -> f64 {
        let x =
            splitmix64(self.seed ^ site.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ splitmix64(!counter));
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether the frame captured right now is lost to a dropout window.
    pub fn drop_frame(&mut self) -> bool {
        if self.dropout_left > 0 {
            self.dropout_left -= 1;
            return true;
        }
        let counter = self.frame_draws;
        self.frame_draws += 1;
        if self.plan.camera_dropout > 0.0
            && self.unit_draw(SITE_FRAME, counter) < self.plan.camera_dropout
        {
            self.dropout_left = self.plan.camera_dropout_frames.saturating_sub(1);
            return true;
        }
        false
    }

    /// Applies a depth-noise burst to the frame, if this frame drew one.
    pub fn maybe_burst(&mut self, image: &mut DepthImage) {
        if self.plan.noise_burst == 0.0 {
            return;
        }
        let counter = self.burst_draws;
        self.burst_draws += 1;
        if self.unit_draw(SITE_BURST, counter) < self.plan.noise_burst {
            self.burst_noise.apply(image);
        }
    }

    /// Latency multiplier for the kernel charge happening right now:
    /// the spike draw times the planner stretch (for planning kernels).
    pub fn kernel_latency_factor(&mut self, kernel: KernelId) -> f64 {
        let mut factor = 1.0;
        if self.plan.kernel_spike > 0.0 {
            let counter = self.kernel_draws;
            self.kernel_draws += 1;
            if self.unit_draw(SITE_KERNEL, counter) < self.plan.kernel_spike {
                factor *= self.plan.kernel_spike_factor;
            }
        }
        if self.plan.plan_timeout_factor != 1.0 && is_planning_kernel(kernel) {
            factor *= self.plan.plan_timeout_factor;
        }
        factor
    }

    /// Whether the guarded topic publish happening right now is lost.
    pub fn drop_message(&mut self) -> bool {
        if self.plan.topic_drop == 0.0 {
            return false;
        }
        let counter = self.topic_draws;
        self.topic_draws += 1;
        self.unit_draw(SITE_TOPIC, counter) < self.plan.topic_drop
    }

    /// Multiplier on rated battery capacity (`1 - fade`).
    pub fn battery_capacity_scale(&self) -> f64 {
        1.0 - self.plan.battery_fade
    }
}

/// Kernels whose latency the `plan-timeout` fault stretches: the ones that
/// produce or refine trajectories.
fn is_planning_kernel(kernel: KernelId) -> bool {
    matches!(
        kernel,
        KernelId::MotionPlanning
            | KernelId::PathSmoothing
            | KernelId::FrontierExploration
            | KernelId::LawnmowerPlanning
    )
}

/// Salt mixed into the injector seed so fault draws never collide with the
/// scenario generator's or sensor models' use of the same episode seed.
const INJECTOR_SALT: u64 = 0xFA17_1EC7_0B5E_55ED;

/// Mission-level degraded-mode state machine: Nominal → Degraded →
/// Aborted. `Degraded` means a watchdog or fallback is actively limiting
/// the vehicle; recovery returns to `Nominal`; a mission that fails while
/// (or after) being degraded ends `Aborted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// Full-capability flight.
    #[default]
    Nominal,
    /// A degradation response (cap decay, planner-timeout fallback) is
    /// active.
    Degraded,
    /// The mission failed during or after degraded operation.
    Aborted,
}

impl DegradedMode {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DegradedMode::Nominal => "nominal",
            DegradedMode::Degraded => "degraded",
            DegradedMode::Aborted => "aborted",
        }
    }
}

impl fmt::Display for DegradedMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Running degraded-mode bookkeeping for one mission. Owned by
/// `MissionContext`; flight nodes report transitions into it and the
/// physics step accumulates degraded time.
#[derive(Debug, Clone, Default)]
pub struct DegradedState {
    degraded: bool,
    entered_at: Option<SimTime>,
    degraded_time: SimDuration,
    recoveries: u32,
    recover_time: SimDuration,
    ever_degraded: bool,
}

impl DegradedState {
    /// Marks a degradation response active (idempotent while active).
    pub fn note_degraded(&mut self, now: SimTime) {
        if !self.degraded {
            self.degraded = true;
            self.ever_degraded = true;
            self.entered_at = Some(now);
        }
    }

    /// Marks the response cleared; counts a recovery and its duration.
    pub fn note_recovered(&mut self, now: SimTime) {
        if self.degraded {
            self.degraded = false;
            if let Some(entered) = self.entered_at.take() {
                self.recoveries += 1;
                self.recover_time += now - entered;
            }
        }
    }

    /// Accumulates one physics step while degraded.
    pub fn accumulate(&mut self, step: SimDuration) {
        if self.degraded {
            self.degraded_time += step;
        }
    }

    /// Whether any degradation response ever engaged this mission.
    pub fn ever_degraded(&self) -> bool {
        self.ever_degraded
    }

    /// Final summary, or `None` for a mission that never degraded — the
    /// report stays byte-identical to the pre-fault era in that case.
    pub fn summary(&self, mission_secs: f64, failed: bool) -> Option<DegradedSummary> {
        if !self.ever_degraded {
            return None;
        }
        let mode = if failed {
            DegradedMode::Aborted
        } else if self.degraded {
            DegradedMode::Degraded
        } else {
            DegradedMode::Nominal
        };
        let degraded_secs = self.degraded_time.as_secs();
        Some(DegradedSummary {
            mode,
            degraded_secs,
            degraded_fraction: if mission_secs > 0.0 {
                degraded_secs / mission_secs
            } else {
                0.0
            },
            recoveries: self.recoveries,
            mean_recover_secs: if self.recoveries > 0 {
                self.recover_time.as_secs() / self.recoveries as f64
            } else {
                0.0
            },
        })
    }
}

/// Degraded-mode metrics surfaced in `MissionReport` when a mission spent
/// any time degraded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedSummary {
    /// Final state of the Nominal → Degraded → Aborted machine.
    pub mode: DegradedMode,
    /// Total simulated seconds spent with a degradation response active.
    pub degraded_secs: f64,
    /// `degraded_secs` over total mission seconds.
    pub degraded_fraction: f64,
    /// Number of Degraded → Nominal transitions.
    pub recoveries: u32,
    /// Mean seconds from entering Degraded to recovering (0 if never).
    pub mean_recover_secs: f64,
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> Json {
        Json::object()
            .field("camera_dropout", self.camera_dropout)
            .field("camera_dropout_frames", self.camera_dropout_frames)
            .field("noise_burst", self.noise_burst)
            .field("noise_burst_std", self.noise_burst_std)
            .field("kernel_spike", self.kernel_spike)
            .field("kernel_spike_factor", self.kernel_spike_factor)
            .field("plan_timeout_factor", self.plan_timeout_factor)
            .field("topic_drop", self.topic_drop)
            .field("battery_fade", self.battery_fade)
    }
}

impl mav_types::FromJson for FaultPlan {
    /// Accepts the structured form (what [`ToJson`] emits; omitted fields
    /// stay off) or the CLI clause string (`"cam-drop=0.1,plan-timeout=2x"`)
    /// routed through [`FaultPlan::parse`] — one syntax for `--faults` and
    /// the `mav-server` job spec.
    fn from_json(json: &Json) -> Result<Self, String> {
        if let Some(s) = json.as_str() {
            return FaultPlan::parse(s);
        }
        json.check_fields(&[
            "camera_dropout",
            "camera_dropout_frames",
            "noise_burst",
            "noise_burst_std",
            "kernel_spike",
            "kernel_spike_factor",
            "plan_timeout_factor",
            "topic_drop",
            "battery_fade",
        ])?;
        let base = FaultPlan::none();
        let plan = FaultPlan {
            camera_dropout: json.parse_field_or("camera_dropout", base.camera_dropout)?,
            camera_dropout_frames: json
                .parse_field_or("camera_dropout_frames", base.camera_dropout_frames)?,
            noise_burst: json.parse_field_or("noise_burst", base.noise_burst)?,
            noise_burst_std: json.parse_field_or("noise_burst_std", base.noise_burst_std)?,
            kernel_spike: json.parse_field_or("kernel_spike", base.kernel_spike)?,
            kernel_spike_factor: json
                .parse_field_or("kernel_spike_factor", base.kernel_spike_factor)?,
            plan_timeout_factor: json
                .parse_field_or("plan_timeout_factor", base.plan_timeout_factor)?,
            topic_drop: json.parse_field_or("topic_drop", base.topic_drop)?,
            battery_fade: json.parse_field_or("battery_fade", base.battery_fade)?,
        };
        plan.validate()?;
        Ok(plan)
    }
}

impl ToJson for DegradedSummary {
    fn to_json(&self) -> Json {
        Json::object()
            .field("mode", self.mode.label())
            .field("degraded_secs", self.degraded_secs)
            .field("degraded_fraction", self.degraded_fraction)
            .field("recoveries", self.recoveries as u64)
            .field("mean_recover_secs", self.mean_recover_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_compiles_to_no_injector() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultInjector::compile(&FaultPlan::none(), 42).is_none());
        assert_eq!(FaultPlan::none().label(), "none");
    }

    #[test]
    fn parse_round_trips_through_label() {
        let arg = "cam-drop=0.1,plan-timeout=2x,battery-fade=0.2";
        let plan = FaultPlan::parse(arg).unwrap();
        assert_eq!(plan.camera_dropout, 0.1);
        assert_eq!(plan.camera_dropout_frames, 3);
        assert_eq!(plan.plan_timeout_factor, 2.0);
        assert_eq!(plan.battery_fade, 0.2);
        let relabel = plan.label();
        assert_eq!(FaultPlan::parse(&relabel).unwrap(), plan);
    }

    #[test]
    fn parse_magnitude_suffixes() {
        let plan =
            FaultPlan::parse("cam-drop=0.2@5,noise-burst=0.3@1.5,kernel-spike=0.05@8").unwrap();
        assert_eq!(plan.camera_dropout_frames, 5);
        assert_eq!(plan.noise_burst_std, 1.5);
        assert_eq!(plan.kernel_spike_factor, 8.0);
        assert_eq!(FaultPlan::parse(&plan.label()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultPlan::parse("cam-drop=1.5").is_err());
        assert!(FaultPlan::parse("battery-fade=1.0").is_err());
        assert!(FaultPlan::parse("plan-timeout=0.5x").is_err());
        assert!(FaultPlan::parse("warp-core-breach=0.1").is_err());
        assert!(FaultPlan::parse("cam-drop").is_err());
    }

    #[test]
    fn injector_draws_are_seed_deterministic() {
        let plan = FaultPlan::parse("cam-drop=0.3,kernel-spike=0.2,topic-drop=0.1").unwrap();
        let mut a = FaultInjector::compile(&plan, 7).unwrap();
        let mut b = FaultInjector::compile(&plan, 7).unwrap();
        for _ in 0..256 {
            assert_eq!(a.drop_frame(), b.drop_frame());
            assert_eq!(
                a.kernel_latency_factor(KernelId::MotionPlanning).to_bits(),
                b.kernel_latency_factor(KernelId::MotionPlanning).to_bits()
            );
            assert_eq!(a.drop_message(), b.drop_message());
        }
        let mut c = FaultInjector::compile(&plan, 8).unwrap();
        let same: usize = (0..256)
            .filter(|_| {
                let mut fresh = FaultInjector::compile(&plan, 7).unwrap();
                fresh.drop_frame() == c.drop_frame()
            })
            .count();
        // Different seeds must not replay the same trace.
        assert!(same < 256);
    }

    #[test]
    fn dropout_windows_lose_consecutive_frames() {
        let plan = FaultPlan::parse("cam-drop=0.5@4").unwrap();
        let mut inj = FaultInjector::compile(&plan, 11).unwrap();
        let trace: Vec<bool> = (0..128).map(|_| inj.drop_frame()).collect();
        // Every dropout run must be at least the window length (runs can
        // chain when a new window starts on the draw after one ends).
        let mut run = 0usize;
        let mut runs = Vec::new();
        for dropped in &trace {
            if *dropped {
                run += 1;
            } else {
                if run > 0 {
                    runs.push(run);
                }
                run = 0;
            }
        }
        assert!(!runs.is_empty(), "p=0.5 must drop something in 128 frames");
        assert!(runs.iter().all(|r| *r >= 4), "{runs:?}");
    }

    #[test]
    fn scaled_interpolates_intensity() {
        let plan = FaultPlan::parse("cam-drop=0.4,plan-timeout=3x,battery-fade=0.3").unwrap();
        let half = plan.scaled(0.5);
        assert_eq!(half.camera_dropout, 0.2);
        assert_eq!(half.plan_timeout_factor, 2.0);
        assert_eq!(half.battery_fade, 0.15);
        assert_eq!(plan.scaled(0.0), FaultPlan::none());
        assert!(plan.scaled(0.0).is_none());
        assert_eq!(plan.scaled(1.0), plan);
    }

    #[test]
    fn plan_timeout_stretches_only_planning_kernels() {
        let plan = FaultPlan::parse("plan-timeout=2x").unwrap();
        let mut inj = FaultInjector::compile(&plan, 3).unwrap();
        assert_eq!(inj.kernel_latency_factor(KernelId::MotionPlanning), 2.0);
        assert_eq!(inj.kernel_latency_factor(KernelId::PathSmoothing), 2.0);
        assert_eq!(inj.kernel_latency_factor(KernelId::OctomapGeneration), 1.0);
        assert_eq!(inj.kernel_latency_factor(KernelId::PathTracking), 1.0);
    }

    #[test]
    fn degraded_state_tracks_time_and_recoveries() {
        let mut state = DegradedState::default();
        let t = |s: f64| SimTime::from_secs(s);
        assert!(state.summary(10.0, false).is_none());
        state.note_degraded(t(1.0));
        state.accumulate(SimDuration::from_secs(0.5));
        state.note_degraded(t(1.5)); // idempotent
        state.note_recovered(t(2.0));
        state.note_recovered(t(2.5)); // idempotent
        let summary = state.summary(10.0, false).unwrap();
        assert_eq!(summary.mode, DegradedMode::Nominal);
        assert_eq!(summary.recoveries, 1);
        assert_eq!(summary.mean_recover_secs, 1.0);
        assert_eq!(summary.degraded_secs, 0.5);
        assert_eq!(summary.degraded_fraction, 0.05);
        let failed = state.summary(10.0, true).unwrap();
        assert_eq!(failed.mode, DegradedMode::Aborted);
    }
}
