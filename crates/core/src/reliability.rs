//! Monte-Carlo reliability sweeps: many randomized episodes, streaming
//! aggregates, deterministic sharding.
//!
//! The paper evaluates each application on a handful of hand-picked
//! scenarios; the reliability sweep asks the statistical question instead —
//! *across thousands of randomized scenarios, how often does the mission
//! succeed, and what do the time/energy tails look like?* Three pieces make
//! that affordable and reproducible:
//!
//! * [`ScenarioGenerator`] — a pure function `(base_seed, index) → MissionConfig`
//!   drawing every knob (obstacle density, world extent, depth noise, node
//!   rates, replan mode, executor model) from configurable choice lists via
//!   SplitMix64. No RNG state is carried between episodes, so episode `i` is
//!   the same mission no matter which worker runs it or in what order.
//! * [`ReliabilityStats`] / [`StreamingHistogram`] — streaming aggregates
//!   (success/collision counters plus log-spaced histograms for mission time
//!   and energy) so a million-episode sweep never materialises a per-episode
//!   report `Vec`. Histogram merges add integer bin counts; f64 sums are
//!   folded in fixed shard order, so aggregates are bit-identical at every
//!   thread count.
//! * [`reliability_sweep_classified`] — shards the episode range into fixed
//!   contiguous blocks via [`SweepRunner::run_sharded`], runs each shard's
//!   episodes through that worker's [`crate::EpisodeScratch`]
//!   (zero-realloc episode reuse), and merges the shard accumulators in
//!   shard order.

use crate::apps::run_mission_with_scratch;
use crate::config::{DegradationConfig, MissionConfig, RateConfig, ReplanMode};
use crate::experiments::quick_config;
use crate::faults::FaultPlan;
use crate::qof::{MissionFailure, MissionReport};
use crate::scratch::with_episode_scratch;
use crate::sweep::{splitmix64, SweepRunner};
use mav_compute::ApplicationId;
use mav_runtime::ExecModel;
use mav_types::{Json, ToJson};
use std::collections::BTreeMap;

/// A streaming quantile sketch over positive values: log-spaced bins with
/// integer counts, plus exact count/sum/min/max.
///
/// Bin `i` covers `[FLOOR·RATIO^i, FLOOR·RATIO^(i+1))`, so a quantile read
/// back from a bin midpoint is within a factor `RATIO` of the exact
/// nearest-rank value (the oracle test pins this). Merging adds bin counts —
/// pure integer arithmetic — which is what makes the sharded sweep's
/// quantiles invariant to thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl StreamingHistogram {
    /// Smallest resolvable value; everything below lands in bin 0.
    const FLOOR: f64 = 1e-2;
    /// Geometric bin width: quantiles are exact to within this factor.
    const RATIO: f64 = 1.05;
    /// Bin count. `FLOOR · RATIO^BINS ≈ 5e10`, far above any mission time in
    /// seconds or energy in kilojoules; larger values clamp into the top bin.
    const BINS: usize = 600;

    /// An empty histogram.
    pub fn new() -> Self {
        StreamingHistogram {
            counts: vec![0; Self::BINS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bin_of(value: f64) -> usize {
        if value <= Self::FLOOR {
            return 0;
        }
        let bin = ((value / Self::FLOOR).ln() / Self::RATIO.ln()).floor();
        (bin as usize).min(Self::BINS - 1)
    }

    fn bin_midpoint(bin: usize) -> f64 {
        Self::FLOOR * Self::RATIO.powf(bin as f64 + 0.5)
    }

    /// Records one value. Values must be finite; negatives clamp to zero.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "histogram values must be finite");
        let value = value.max(0.0);
        self.counts[Self::bin_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one. Bin counts add exactly; the
    /// sums add in call order, so merging shards in a fixed order yields
    /// bit-identical aggregates regardless of which threads filled them.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded values (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded value (zero when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (zero when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The nearest-rank `q`-quantile, read back as the geometric midpoint of
    /// the bin holding that rank, clamped to the observed `[min, max]`.
    /// Within a factor `RATIO` of the exact sorted-array answer.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bin, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bin_midpoint(bin).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        StreamingHistogram::new()
    }
}

/// Streaming aggregate of a reliability sweep: success/collision counters and
/// the mission-time / energy distributions. Never holds per-episode state, so
/// it is O(1) in the episode count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReliabilityStats {
    /// Episodes recorded.
    pub episodes: u64,
    /// Episodes that completed successfully.
    pub successes: u64,
    /// Episodes that ended in a collision.
    pub collisions: u64,
    /// Total re-planning episodes across all missions.
    pub replans: u64,
    /// Episodes whose report carried a degraded-mode summary.
    pub degraded_episodes: u64,
    /// Total simulated seconds spent degraded, across all episodes.
    pub degraded_time_secs: f64,
    /// Total Degraded → Nominal recoveries, across all episodes.
    pub recoveries: u64,
    /// Total seconds from entering Degraded to recovering, across all
    /// episodes (`mean × count` per episode, folded in record order).
    pub recover_time_secs: f64,
    /// Mission-time distribution, seconds.
    pub time: StreamingHistogram,
    /// Total-energy distribution, kilojoules.
    pub energy: StreamingHistogram,
}

impl ReliabilityStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        ReliabilityStats::default()
    }

    /// Folds one mission report into the aggregate.
    pub fn record(&mut self, report: &MissionReport) {
        self.episodes += 1;
        if report.success() {
            self.successes += 1;
        }
        if matches!(report.failure, Some(MissionFailure::Collision)) {
            self.collisions += 1;
        }
        self.replans += u64::from(report.replans);
        if let Some(degraded) = &report.degraded {
            self.degraded_episodes += 1;
            self.degraded_time_secs += degraded.degraded_secs;
            self.recoveries += u64::from(degraded.recoveries);
            self.recover_time_secs += degraded.mean_recover_secs * f64::from(degraded.recoveries);
        }
        self.time.record(report.mission_time_secs);
        self.energy.record(report.energy_kj());
    }

    /// Folds another accumulator (one shard) into this one. Call in fixed
    /// shard order for bit-identical aggregates at every thread count.
    pub fn merge(&mut self, other: &ReliabilityStats) {
        self.episodes += other.episodes;
        self.successes += other.successes;
        self.collisions += other.collisions;
        self.replans += other.replans;
        self.degraded_episodes += other.degraded_episodes;
        self.degraded_time_secs += other.degraded_time_secs;
        self.recoveries += other.recoveries;
        self.recover_time_secs += other.recover_time_secs;
        self.time.merge(&other.time);
        self.energy.merge(&other.energy);
    }

    /// Fraction of episodes that succeeded (zero when empty).
    pub fn success_rate(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.successes as f64 / self.episodes as f64
        }
    }

    /// Fraction of episodes that ended in a collision (zero when empty).
    pub fn collision_rate(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.collisions as f64 / self.episodes as f64
        }
    }

    /// Fraction of episodes the vehicle survived (did not collide). Under a
    /// fault plan this is the headline robustness number: an abort or timeout
    /// is a failed mission but a surviving vehicle.
    pub fn survival_rate(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            1.0 - self.collision_rate()
        }
    }

    /// Fraction of total simulated mission time spent degraded.
    pub fn degraded_time_fraction(&self) -> f64 {
        if self.time.sum() > 0.0 {
            self.degraded_time_secs / self.time.sum()
        } else {
            0.0
        }
    }

    /// Mean seconds from entering Degraded to recovering (zero if no
    /// recovery ever happened).
    pub fn mean_recover_secs(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recover_time_secs / self.recoveries as f64
        }
    }
}

impl ToJson for ReliabilityStats {
    fn to_json(&self) -> Json {
        Json::object()
            .field("episodes", self.episodes)
            .field("successes", self.successes)
            .field("success_rate", self.success_rate())
            .field("collisions", self.collisions)
            .field("collision_rate", self.collision_rate())
            .field("replans", self.replans)
            .field("time_p50_secs", self.time.quantile(0.5))
            .field("time_p99_secs", self.time.quantile(0.99))
            .field("mean_time_secs", self.time.mean())
            .field("energy_p50_kj", self.energy.quantile(0.5))
            .field("energy_p99_kj", self.energy.quantile(0.99))
            .field("mean_energy_kj", self.energy.mean())
    }
}

/// A seeded scenario generator: a pure function `(base_seed, index) →`
/// [`MissionConfig`], drawing every mission knob from a configurable choice
/// list via SplitMix64. Pin a knob by giving it a single-element list.
///
/// Purity is the determinism contract: episode `i` is the same mission on
/// every worker, at every thread count, in any execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGenerator {
    /// The application every episode runs.
    pub application: ApplicationId,
    /// Base seed; episode draws mix it with the episode index.
    pub base_seed: u64,
    /// Obstacle-density choices, obstacles per 1000 m².
    pub densities: Vec<f64>,
    /// World half-extent choices, metres.
    pub extents: Vec<f64>,
    /// Depth-noise standard-deviation choices, metres.
    pub noise_levels: Vec<f64>,
    /// Node-rate schedule choices.
    pub rates: Vec<RateConfig>,
    /// Collision-alert replanning policy choices.
    pub replan_modes: Vec<ReplanMode>,
    /// Executor-model choices.
    pub exec_models: Vec<ExecModel>,
    /// Fault-plan choices. The default single-element `[FaultPlan::none()]`
    /// list draws nothing (keeping every episode seed bit-identical to the
    /// pre-fault generator); a multi-element list samples a fault profile
    /// per episode.
    pub fault_plans: Vec<FaultPlan>,
    /// Degradation policy applied to every episode (never drawn: the policy
    /// is the experiment variable, not part of the scenario randomness).
    pub degradation: DegradationConfig,
}

impl ScenarioGenerator {
    /// The default scenario space: a small grid over density, extent, depth
    /// noise, replan rate/mode and executor model around the fast-test
    /// mission shape.
    pub fn new(application: ApplicationId, base_seed: u64) -> Self {
        ScenarioGenerator {
            application,
            base_seed,
            densities: vec![0.4, 0.8, 1.5],
            extents: vec![18.0, 24.0, 32.0],
            noise_levels: vec![0.0, 0.25, 0.5],
            rates: vec![
                RateConfig::legacy(),
                RateConfig::legacy().with_replan_hz(2.0),
            ],
            replan_modes: vec![ReplanMode::HoverToPlan, ReplanMode::PlanInMotion],
            exec_models: vec![ExecModel::Serial, ExecModel::Pipelined],
            fault_plans: vec![FaultPlan::none()],
            degradation: DegradationConfig::off(),
        }
    }

    /// Replaces the obstacle-density choices (builder style).
    pub fn with_densities(mut self, densities: Vec<f64>) -> Self {
        self.densities = densities;
        self
    }

    /// Replaces the world-extent choices (builder style).
    pub fn with_extents(mut self, extents: Vec<f64>) -> Self {
        self.extents = extents;
        self
    }

    /// Replaces the depth-noise choices (builder style).
    pub fn with_noise_levels(mut self, noise_levels: Vec<f64>) -> Self {
        self.noise_levels = noise_levels;
        self
    }

    /// Replaces the node-rate schedule choices (builder style).
    pub fn with_rate_choices(mut self, rates: Vec<RateConfig>) -> Self {
        self.rates = rates;
        self
    }

    /// Replaces the replan-mode choices (builder style).
    pub fn with_replan_modes(mut self, modes: Vec<ReplanMode>) -> Self {
        self.replan_modes = modes;
        self
    }

    /// Replaces the executor-model choices (builder style).
    pub fn with_exec_models(mut self, models: Vec<ExecModel>) -> Self {
        self.exec_models = models;
        self
    }

    /// Replaces the fault-plan choices (builder style). A single-element
    /// list applies that plan to every episode without spending a draw.
    pub fn with_fault_plans(mut self, plans: Vec<FaultPlan>) -> Self {
        self.fault_plans = plans;
        self
    }

    /// Sets the degradation policy every episode runs under (builder style).
    pub fn with_degradation(mut self, degradation: DegradationConfig) -> Self {
        self.degradation = degradation;
        self
    }

    /// The raw choice-list indices (plus the episode seed) of episode
    /// `index`: the single source of truth shared by [`Self::episode`] and
    /// [`Self::episode_class`], so the class label always matches the
    /// mission actually generated.
    fn draws(&self, index: u64) -> EpisodeDraws {
        let mut state = splitmix64(self.base_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut pick = |len: usize| -> usize {
            assert!(len > 0, "scenario choice lists must be non-empty");
            state = splitmix64(state);
            (state % len as u64) as usize
        };
        let density = pick(self.densities.len());
        let extent = pick(self.extents.len());
        let noise = pick(self.noise_levels.len());
        let rates = pick(self.rates.len());
        let mode = pick(self.replan_modes.len());
        let exec = pick(self.exec_models.len());
        // The fault draw only happens when there is a real choice to make: a
        // single-plan list (the default) leaves the draw sequence — and with
        // it every episode seed — bit-identical to the pre-fault generator.
        let fault = if self.fault_plans.len() > 1 {
            pick(self.fault_plans.len())
        } else {
            0
        };
        let episode_seed = splitmix64(state);
        EpisodeDraws {
            density,
            extent,
            noise,
            rates,
            mode,
            exec,
            fault,
            episode_seed,
        }
    }

    /// The mission configuration of episode `index` — a pure function of
    /// `(base_seed, index)` and the choice lists.
    pub fn episode(&self, index: u64) -> MissionConfig {
        let d = self.draws(index);
        let mut cfg = quick_config(MissionConfig::fast_test(self.application));
        cfg.environment.obstacle_density = self.densities[d.density];
        cfg.environment.extent = self.extents[d.extent];
        cfg.with_depth_noise(self.noise_levels[d.noise])
            .with_rates(self.rates[d.rates])
            .with_replan_mode(self.replan_modes[d.mode])
            .with_exec_model(self.exec_models[d.exec])
            .with_fault_plan(self.fault_plans[d.fault])
            .with_degradation(self.degradation)
            .with_seed(d.episode_seed)
    }

    /// The scenario class of episode `index`: the replan policy plus the
    /// fault cohort, e.g. `"hover+faults:none"` or
    /// `"in-motion+faults:cam-drop=0.1"`. Keys the per-class breakdown of
    /// [`reliability_sweep_classified`], so fault cohorts are separable from
    /// one sweep's JSON without re-running.
    pub fn episode_class(&self, index: u64) -> String {
        let d = self.draws(index);
        format!(
            "{}+faults:{}",
            self.replan_modes[d.mode].label(),
            self.fault_plans[d.fault].label()
        )
    }
}

impl ToJson for ScenarioGenerator {
    fn to_json(&self) -> Json {
        Json::object()
            .field("application", self.application.to_json())
            .field("base_seed", self.base_seed)
            .field("densities", self.densities.as_slice())
            .field("extents", self.extents.as_slice())
            .field("noise_levels", self.noise_levels.as_slice())
            .field(
                "rates",
                Json::Array(self.rates.iter().map(ToJson::to_json).collect()),
            )
            .field(
                "replan_modes",
                Json::Array(self.replan_modes.iter().map(ToJson::to_json).collect()),
            )
            .field(
                "exec_models",
                Json::Array(self.exec_models.iter().map(ToJson::to_json).collect()),
            )
            .field(
                "fault_plans",
                Json::Array(self.fault_plans.iter().map(ToJson::to_json).collect()),
            )
            .field("degradation", self.degradation.to_json())
    }
}

impl mav_types::FromJson for ScenarioGenerator {
    /// Reads a scenario-space description. Only `application` is required;
    /// omitted choice lists keep the [`ScenarioGenerator::new`] defaults.
    /// Present lists must be non-empty — the per-episode draws have no
    /// sensible meaning for an empty choice list.
    fn from_json(json: &Json) -> Result<Self, String> {
        json.check_fields(&[
            "application",
            "base_seed",
            "densities",
            "extents",
            "noise_levels",
            "rates",
            "replan_modes",
            "exec_models",
            "fault_plans",
            "degradation",
        ])?;
        let application: ApplicationId = json.parse_field("application")?;
        let base_seed: u64 = json.parse_field_or("base_seed", 42)?;
        let base = ScenarioGenerator::new(application, base_seed);
        let generator = ScenarioGenerator {
            application,
            base_seed,
            densities: json.parse_field_or("densities", base.densities)?,
            extents: json.parse_field_or("extents", base.extents)?,
            noise_levels: json.parse_field_or("noise_levels", base.noise_levels)?,
            rates: json.parse_field_or("rates", base.rates)?,
            replan_modes: json.parse_field_or("replan_modes", base.replan_modes)?,
            exec_models: json.parse_field_or("exec_models", base.exec_models)?,
            fault_plans: json.parse_field_or("fault_plans", base.fault_plans)?,
            degradation: json.parse_field_or("degradation", base.degradation)?,
        };
        for (name, len) in [
            ("densities", generator.densities.len()),
            ("extents", generator.extents.len()),
            ("noise_levels", generator.noise_levels.len()),
            ("rates", generator.rates.len()),
            ("replan_modes", generator.replan_modes.len()),
            ("exec_models", generator.exec_models.len()),
            ("fault_plans", generator.fault_plans.len()),
        ] {
            if len == 0 {
                return Err(format!("{name}: choice list must be non-empty"));
            }
        }
        Ok(generator)
    }
}

/// The per-episode choice-list indices drawn by [`ScenarioGenerator::draws`].
struct EpisodeDraws {
    density: usize,
    extent: usize,
    noise: usize,
    rates: usize,
    mode: usize,
    exec: usize,
    fault: usize,
    episode_seed: u64,
}

/// Episodes per shard of the sharded sweep. Shard boundaries are part of the
/// determinism contract (they fix the f64 summation order), so the default is
/// a named constant rather than a tuning knob.
pub const DEFAULT_SHARD_SIZE: u64 = 32;

/// All-integer per-scenario-class counters: the per-class leg of a
/// classified sweep. Merging adds counts, so the breakdown is trivially
/// thread-count invariant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStats {
    /// Episodes recorded in this class.
    pub episodes: u64,
    /// Episodes that completed successfully.
    pub successes: u64,
    /// Episodes that ended in a collision.
    pub collisions: u64,
    /// Episodes that failed without colliding (timeout, battery, watchdog).
    pub aborts: u64,
}

impl ClassStats {
    /// Folds one mission report into the class.
    pub fn record(&mut self, report: &MissionReport) {
        self.episodes += 1;
        if report.success() {
            self.successes += 1;
        } else if matches!(report.failure, Some(MissionFailure::Collision)) {
            self.collisions += 1;
        } else {
            self.aborts += 1;
        }
    }

    /// Adds another accumulator's counts into this one.
    pub fn merge(&mut self, other: &ClassStats) {
        self.episodes += other.episodes;
        self.successes += other.successes;
        self.collisions += other.collisions;
        self.aborts += other.aborts;
    }

    fn rate(&self, count: u64) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            count as f64 / self.episodes as f64
        }
    }

    /// Fraction of the class's episodes that completed their mission.
    pub fn success_rate(&self) -> f64 {
        self.rate(self.successes)
    }

    /// Fraction of the class's episodes that ended in a collision.
    pub fn collision_rate(&self) -> f64 {
        self.rate(self.collisions)
    }

    /// Fraction of the class's episodes that aborted without a collision.
    pub fn abort_rate(&self) -> f64 {
        self.rate(self.aborts)
    }
}

impl ToJson for ClassStats {
    fn to_json(&self) -> Json {
        Json::object()
            .field("episodes", self.episodes)
            .field("successes", self.successes)
            .field("success_rate", self.rate(self.successes))
            .field("collisions", self.collisions)
            .field("collision_rate", self.rate(self.collisions))
            .field("aborts", self.aborts)
            .field("abort_rate", self.rate(self.aborts))
    }
}

/// Runs `episodes` scenario-generator episodes in fixed contiguous shards of
/// at most `shard_size` ([`DEFAULT_SHARD_SIZE`]; tests use small shards to
/// exercise multi-shard merging) and returns the streaming aggregate plus a
/// per-scenario-class breakdown keyed by [`ScenarioGenerator::episode_class`].
/// Each worker folds its shard through its thread-local
/// [`crate::EpisodeScratch`] (zero-realloc episode reuse), and the shard
/// accumulators, the all-integer class map included, merge in shard order:
/// results are bit-identical at every thread count.
pub fn reliability_sweep_classified(
    runner: &SweepRunner,
    generator: &ScenarioGenerator,
    episodes: u64,
    shard_size: u64,
) -> (ReliabilityStats, BTreeMap<String, ClassStats>) {
    reliability_sweep_classified_observed(runner, generator, episodes, shard_size, &|_| {})
}

/// [`reliability_sweep_classified`] with an episode-completion observer: the
/// callback fires once per finished episode, from whichever worker thread ran
/// it. The observer sees only *that* an episode completed — never its data —
/// so it cannot perturb the aggregates; `mav-server` uses it to publish job
/// progress counters while a sweep runs. The plain entry point routes through
/// here with a no-op observer, so there is exactly one sweep loop to keep
/// bit-identical.
pub fn reliability_sweep_classified_observed(
    runner: &SweepRunner,
    generator: &ScenarioGenerator,
    episodes: u64,
    shard_size: u64,
    observe_episode_done: &(dyn Fn(u64) + Sync),
) -> (ReliabilityStats, BTreeMap<String, ClassStats>) {
    let shards = runner.run_sharded(episodes, shard_size, |range| {
        with_episode_scratch(|scratch| {
            let mut acc = ReliabilityStats::new();
            let mut classes: BTreeMap<String, ClassStats> = BTreeMap::new();
            for index in range {
                let report = run_mission_with_scratch(generator.episode(index), scratch);
                acc.record(&report);
                classes
                    .entry(generator.episode_class(index))
                    .or_default()
                    .record(&report);
                observe_episode_done(index);
            }
            (acc, classes)
        })
    });
    let mut total = ReliabilityStats::new();
    let mut classes: BTreeMap<String, ClassStats> = BTreeMap::new();
    for (shard, shard_classes) in &shards {
        total.merge(shard);
        for (class, stats) in shard_classes {
            classes.entry(class.clone()).or_default().merge(stats);
        }
    }
    (total, classes)
}

/// One cell of the replan-rate × replan-mode reliability grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RateGridCell {
    /// Replan-trigger rate, Hz (`None`: the legacy every-round schedule).
    pub replan_hz: Option<f64>,
    /// Collision-alert replanning policy of this cell.
    pub replan_mode: ReplanMode,
    /// The cell's aggregate over its episodes.
    pub stats: ReliabilityStats,
}

impl RateGridCell {
    /// A compact `"hover@legacy"` / `"in-motion@2Hz"` cell label.
    pub fn label(&self) -> String {
        let rate = match self.replan_hz {
            None => "legacy".to_string(),
            Some(hz) => format!("{hz}Hz"),
        };
        format!("{}@{rate}", self.replan_mode.label())
    }
}

impl ToJson for RateGridCell {
    fn to_json(&self) -> Json {
        Json::object()
            .field("label", self.label().as_str())
            .field("replan_hz", self.replan_hz.unwrap_or(0.0))
            .field("replan_mode", self.replan_mode.label())
            .field("stats", self.stats.to_json())
    }
}

/// The replan-Hz × replan-mode reliability grid: every combination of replan
/// rate (legacy plus explicit rates) and [`ReplanMode`], each cell a pinned
/// scenario sweep over the same seed base so cells see comparable scenario
/// draws. The executor model is pinned to `Serial` so the grid isolates the
/// replanning policy.
pub fn reliability_rate_grid_with(
    runner: &SweepRunner,
    application: ApplicationId,
    base_seed: u64,
    episodes_per_cell: u64,
) -> Vec<RateGridCell> {
    let hz_choices = [None, Some(1.0), Some(2.0), Some(5.0)];
    let modes = [ReplanMode::HoverToPlan, ReplanMode::PlanInMotion];
    let mut cells = Vec::with_capacity(hz_choices.len() * modes.len());
    for &replan_mode in &modes {
        for &replan_hz in &hz_choices {
            let rates = match replan_hz {
                None => RateConfig::legacy(),
                Some(hz) => RateConfig::legacy().with_replan_hz(hz),
            };
            let generator = ScenarioGenerator::new(application, base_seed)
                .with_rate_choices(vec![rates])
                .with_replan_modes(vec![replan_mode])
                .with_exec_models(vec![ExecModel::Serial]);
            let (stats, _) = reliability_sweep_classified(
                runner,
                &generator,
                episodes_per_cell,
                DEFAULT_SHARD_SIZE,
            );
            cells.push(RateGridCell {
                replan_hz,
                replan_mode,
                stats,
            });
        }
    }
    cells
}

/// One cell of the fault-intensity × degradation-policy matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultGridCell {
    /// Fault-intensity scale in `[0, 1]` applied to the base plan.
    pub intensity: f64,
    /// The scaled fault plan every episode of this cell ran under.
    pub plan: FaultPlan,
    /// Short name of the cell's degradation policy (`"fly-blind"`, …).
    pub policy: &'static str,
    /// The degradation policy itself.
    pub degradation: DegradationConfig,
    /// The cell's aggregate over its episodes.
    pub stats: ReliabilityStats,
}

impl FaultGridCell {
    /// A compact `"fly-blind@x0.5"` cell label.
    pub fn label(&self) -> String {
        format!("{}@x{}", self.policy, self.intensity)
    }
}

impl ToJson for FaultGridCell {
    fn to_json(&self) -> Json {
        Json::object()
            .field("label", self.label().as_str())
            .field("intensity", self.intensity)
            .field("faults", self.plan.label().as_str())
            .field("policy", self.policy)
            .field("degradation", self.degradation.label().as_str())
            .field("survival_rate", self.stats.survival_rate())
            .field(
                "degraded_time_fraction",
                self.stats.degraded_time_fraction(),
            )
            .field("mean_recover_secs", self.stats.mean_recover_secs())
            .field("degraded_episodes", self.stats.degraded_episodes)
            .field("stats", self.stats.to_json())
    }
}

/// The degradation-policy axis of [`reliability_fault_grid_with`]: fly-blind
/// (no response at all), the stale-perception watchdog with the binary
/// brake, and the full defensive posture (watchdog + planner timeout +
/// graded brake).
pub fn fault_grid_policies() -> [(&'static str, DegradationConfig); 3] {
    [
        ("fly-blind", DegradationConfig::off()),
        (
            "watchdog",
            DegradationConfig::off()
                .with_watchdog()
                .with_plan_timeout(4.0),
        ),
        ("watchdog+graded", DegradationConfig::defensive()),
    ]
}

/// The fault-intensity × degradation-policy reliability matrix: the base
/// fault plan scaled to each intensity, crossed with
/// [`fault_grid_policies`]. Every cell sweeps the same scenario seeds, so
/// the *only* thing that varies across a row is the degradation policy —
/// the survival comparison the fault matrix exists to make.
pub fn reliability_fault_grid_with(
    runner: &SweepRunner,
    application: ApplicationId,
    base_seed: u64,
    episodes_per_cell: u64,
    plan: &FaultPlan,
) -> Vec<FaultGridCell> {
    let intensities = [0.0, 0.5, 1.0];
    let policies = fault_grid_policies();
    let mut cells = Vec::with_capacity(intensities.len() * policies.len());
    for &intensity in &intensities {
        let scaled = plan.scaled(intensity);
        for (policy, degradation) in &policies {
            let generator = ScenarioGenerator::new(application, base_seed)
                .with_fault_plans(vec![scaled])
                .with_degradation(*degradation);
            let (stats, _) = reliability_sweep_classified(
                runner,
                &generator,
                episodes_per_cell,
                DEFAULT_SHARD_SIZE,
            );
            cells.push(FaultGridCell {
                intensity,
                plan: scaled,
                policy,
                degradation: *degradation,
                stats,
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::run_mission;

    /// A small pinned scenario space so tests run quickly.
    fn tiny_generator() -> ScenarioGenerator {
        ScenarioGenerator::new(ApplicationId::Scanning, 11)
            .with_densities(vec![0.5])
            .with_extents(vec![16.0])
            .with_noise_levels(vec![0.0])
            .with_rate_choices(vec![RateConfig::legacy()])
    }

    #[test]
    fn streaming_quantiles_track_the_exact_oracle() {
        let mut hist = StreamingHistogram::new();
        let mut values = Vec::new();
        for i in 0..5000u64 {
            let u = (splitmix64(i ^ 0xabcdef) % 100_000) as f64 / 100_000.0;
            // Log-uniform over roughly [0.05, 1100].
            let value = 0.05 * (u * 10.0).exp();
            hist.record(value);
            values.push(value);
        }
        // The sum is accumulated in the exact record order: bit-identical.
        assert_eq!(hist.sum().to_bits(), values.iter().sum::<f64>().to_bits());
        values.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(hist.count(), 5000);
        for q in [0.01f64, 0.25, 0.5, 0.9, 0.99] {
            let rank = ((q * 5000.0).ceil() as usize).clamp(1, 5000);
            let exact = values[rank - 1];
            let approx = hist.quantile(q);
            let ratio = approx / exact;
            assert!(
                (1.0 / 1.06..=1.06).contains(&ratio),
                "q={q}: approx {approx} vs exact {exact} (ratio {ratio})"
            );
        }
        assert!(hist.min() > 0.0);
        assert!(hist.max() <= 1101.0);
    }

    #[test]
    fn histogram_merge_adds_counts_exactly() {
        let mut left = StreamingHistogram::new();
        let mut right = StreamingHistogram::new();
        for i in 0..100u64 {
            let value = 0.1 + i as f64;
            if i < 60 {
                left.record(value);
            } else {
                right.record(value);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged.count(), 100);
        assert_eq!(merged.min(), 0.1);
        assert_eq!(merged.max(), 99.1);
        assert_eq!(merged.sum(), left.sum() + right.sum());
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let hist = StreamingHistogram::new();
        assert_eq!(hist.quantile(0.5), 0.0);
        assert_eq!(hist.mean(), 0.0);
        assert_eq!(hist.min(), 0.0);
        assert_eq!(hist.max(), 0.0);
    }

    #[test]
    fn scenario_generator_is_a_pure_function_of_seed_and_index() {
        let a = ScenarioGenerator::new(ApplicationId::Scanning, 42);
        let b = ScenarioGenerator::new(ApplicationId::Scanning, 42);
        // Same generator, any evaluation order: identical configs.
        for index in (0..16u64).rev() {
            assert_eq!(a.episode(index), b.episode(index), "episode {index}");
        }
        // Episodes draw distinct seeds, and the base seed matters.
        assert_ne!(a.episode(0).seed, a.episode(1).seed);
        let c = ScenarioGenerator::new(ApplicationId::Scanning, 43);
        assert_ne!(a.episode(0).seed, c.episode(0).seed);
        // The environment seed follows the mission seed.
        let cfg = a.episode(5);
        assert_eq!(cfg.seed, cfg.environment.seed);
    }

    #[test]
    fn sweep_aggregates_match_a_serial_fresh_mission_loop() {
        // Six episodes fit one shard, so the sharded sweep accumulates in the
        // same order as this serial loop — and the loop uses the allocating
        // run_mission, so this also pins scratch reuse to fresh missions at
        // the aggregate level.
        let generator = tiny_generator();
        let mut expected = ReliabilityStats::new();
        for index in 0..6 {
            expected.record(&run_mission(generator.episode(index)));
        }
        let (swept, _) = reliability_sweep_classified(
            &SweepRunner::new().with_threads(2),
            &generator,
            6,
            DEFAULT_SHARD_SIZE,
        );
        assert_eq!(expected, swept);
    }

    #[test]
    fn aggregates_are_bit_identical_across_thread_counts() {
        let generator = tiny_generator();
        // 40 episodes over shards of 8: five shards to schedule.
        let (baseline, _) =
            reliability_sweep_classified(&SweepRunner::new().with_threads(1), &generator, 40, 8);
        assert_eq!(baseline.episodes, 40);
        for threads in [2, 4, 8] {
            let (parallel, _) = reliability_sweep_classified(
                &SweepRunner::new().with_threads(threads),
                &generator,
                40,
                8,
            );
            assert_eq!(baseline, parallel, "diverged at {threads} threads");
            assert_eq!(
                baseline.time.sum().to_bits(),
                parallel.time.sum().to_bits(),
                "time sum bits diverged at {threads} threads"
            );
            assert_eq!(
                baseline.energy.sum().to_bits(),
                parallel.energy.sum().to_bits(),
                "energy sum bits diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn single_fault_plan_spends_no_draw_and_default_matches_pre_fault_generator() {
        // The default generator and one with a pinned *non-none* single plan
        // must draw identical episode seeds: the plan is applied without
        // consuming RNG state, so fault cohorts see the same scenarios.
        let plain = tiny_generator();
        let faulted = tiny_generator()
            .with_fault_plans(vec![FaultPlan::parse("cam-drop=0.2").unwrap()])
            .with_degradation(DegradationConfig::defensive());
        for index in 0..8u64 {
            let a = plain.episode(index);
            let b = faulted.episode(index);
            assert_eq!(a.seed, b.seed, "episode {index} seed diverged");
            assert!(a.fault_plan.is_none());
            assert!(!b.fault_plan.is_none());
            assert!(b.degradation.perception_watchdog);
        }
        // A multi-plan list does draw, and the class label tracks the drawn
        // cohort of the episode actually generated.
        let mixed = tiny_generator().with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::parse("cam-drop=0.5").unwrap(),
        ]);
        for index in 0..16u64 {
            let cfg = mixed.episode(index);
            let class = mixed.episode_class(index);
            assert_eq!(
                class.ends_with("faults:none"),
                cfg.fault_plan.is_none(),
                "episode {index}: class {class} vs plan {:?}",
                cfg.fault_plan
            );
        }
    }

    #[test]
    fn classified_sweep_breakdown_adds_up_and_keeps_aggregate_bits() {
        let generator = tiny_generator().with_fault_plans(vec![
            FaultPlan::none(),
            FaultPlan::parse("kernel-spike=0.3").unwrap(),
        ]);
        let runner = SweepRunner::new().with_threads(2);
        let (stats, classes) = reliability_sweep_classified(&runner, &generator, 12, 4);
        assert_eq!(stats.episodes, 12);
        assert!(!classes.is_empty());
        let class_total: u64 = classes.values().map(|c| c.episodes).sum();
        assert_eq!(class_total, 12);
        let successes: u64 = classes.values().map(|c| c.successes).sum();
        assert_eq!(successes, stats.successes);
        for class in classes.values() {
            assert_eq!(
                class.episodes,
                class.successes + class.collisions + class.aborts
            );
            assert!(class.to_json().to_string_pretty().contains("abort_rate"));
        }
        // The classified aggregate is bit-identical to the plain sweep, and
        // invariant to thread count.
        for threads in [1, 4] {
            let (again, classes_again) = reliability_sweep_classified(
                &SweepRunner::new().with_threads(threads),
                &generator,
                12,
                4,
            );
            assert_eq!(stats, again, "aggregate diverged at {threads} threads");
            assert_eq!(
                classes, classes_again,
                "classes diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn fault_grid_covers_the_matrix_and_zero_intensity_rows_match() {
        let plan = FaultPlan::parse("cam-drop=0.3,plan-timeout=3x").unwrap();
        let cells = reliability_fault_grid_with(
            &SweepRunner::new().with_threads(2),
            ApplicationId::Scanning,
            5,
            2,
            &plan,
        );
        assert_eq!(cells.len(), 9);
        let labels: Vec<String> = cells.iter().map(FaultGridCell::label).collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "duplicate cells: {labels:?}");
        for cell in &cells {
            assert_eq!(cell.stats.episodes, 2);
            assert!((cell.intensity - 0.0).abs() < 1e-12 || !cell.plan.is_none());
            let json = cell.to_json().to_string_pretty();
            assert!(json.contains("survival_rate"));
            assert!(json.contains("degraded_time_fraction"));
        }
        // Intensity 0 with the fly-blind policy is the plain sweep: no
        // faults, no degradation, no degraded episodes.
        let baseline = &cells[0];
        assert_eq!(baseline.policy, "fly-blind");
        assert!(baseline.plan.is_none());
        assert_eq!(baseline.stats.degraded_episodes, 0);
    }

    #[test]
    fn rate_grid_covers_every_cell_once() {
        let cells = reliability_rate_grid_with(
            &SweepRunner::new().with_threads(2),
            ApplicationId::Scanning,
            7,
            2,
        );
        assert_eq!(cells.len(), 8);
        let labels: Vec<String> = cells.iter().map(RateGridCell::label).collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "duplicate cells: {labels:?}");
        for cell in &cells {
            assert_eq!(cell.stats.episodes, 2);
            let json = cell.to_json().to_string_pretty();
            assert!(json.contains("\"success_rate\""));
        }
    }
}
