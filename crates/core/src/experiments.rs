//! Experiment drivers: the parameter sweeps behind every table and figure of
//! the paper's evaluation.
//!
//! Each function here is called both by the `mav-bench` harness binaries
//! (which print the tables) and by the integration tests (which assert the
//! qualitative shape of the results: who wins, in which direction, by roughly
//! what factor).
//!
//! All sweeps execute through the parallel [`SweepRunner`]: the default
//! entry points (`operating_point_sweep`, …) use every available core, and
//! each has a `*_with` variant taking an explicit runner so harnesses can
//! honour `--threads`. Results are bit-identical across thread counts — see
//! [`crate::sweep`] for the determinism contract.

use crate::config::{MissionConfig, NodeOpConfig, RateConfig, ReplanMode, ResolutionPolicy};
use crate::qof::MissionReport;
use crate::sweep::{SweepPoint, SweepRunner};
use mav_compute::{ApplicationId, CloudConfig, KernelId, OperatingPoint};
use mav_runtime::ExecModel;
use mav_types::{Json, ToJson};

/// One cell of an operating-point heat map (Figs. 10–14).
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapCell {
    /// Core count of the operating point.
    pub cores: u32,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
    /// The mission report produced at this operating point.
    pub report: MissionReport,
}

impl ToJson for HeatmapCell {
    fn to_json(&self) -> Json {
        Json::object()
            .field("cores", self.cores)
            .field("frequency_ghz", self.frequency_ghz)
            .field("report", self.report.to_json())
    }
}

/// Runs the 3×3 TX2 operating-point sweep for one application on every
/// available core.
///
/// `configure` receives the default configuration for the application and may
/// adjust it (seed, environment size, …) before each run.
pub fn operating_point_sweep(
    application: ApplicationId,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<HeatmapCell> {
    operating_point_sweep_with(&SweepRunner::new(), application, configure)
}

/// [`operating_point_sweep`] on an explicit [`SweepRunner`].
pub fn operating_point_sweep_with(
    runner: &SweepRunner,
    application: ApplicationId,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<HeatmapCell> {
    let grid = OperatingPoint::tx2_sweep();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|&point| {
            let config = configure(MissionConfig::new(application)).with_operating_point(point);
            SweepPoint::new(point.label(), config)
        })
        .collect();
    runner
        .run(points)
        .outcomes
        .into_iter()
        .zip(grid)
        .map(|(outcome, point)| HeatmapCell {
            cores: point.cores,
            frequency_ghz: point.frequency.as_ghz(),
            report: outcome.report,
        })
        .collect()
}

/// Finds the heat-map cell for a specific operating point.
pub fn cell(cells: &[HeatmapCell], cores: u32, frequency_ghz: f64) -> Option<&HeatmapCell> {
    cells
        .iter()
        .find(|c| c.cores == cores && (c.frequency_ghz - frequency_ghz).abs() < 1e-9)
}

/// Renders a 3×3 heat map as a text table of the selected metric.
pub fn format_heatmap(
    cells: &[HeatmapCell],
    metric_name: &str,
    metric: impl Fn(&MissionReport) -> f64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{metric_name:<18} |   0.8 GHz |   1.5 GHz |   2.2 GHz\n"
    ));
    out.push_str(&format!("{}\n", "-".repeat(60)));
    for cores in [4u32, 3, 2] {
        out.push_str(&format!("{cores} cores            |"));
        for f in [0.8, 1.5, 2.2] {
            match cell(cells, cores, f) {
                Some(c) => out.push_str(&format!(" {:>9.2} |", metric(&c.report))),
                None => out.push_str("       n/a |"),
            }
        }
        out.push('\n');
    }
    out
}

/// The edge-vs-cloud comparison of the performance case study (Fig. 16).
#[derive(Debug, Clone, PartialEq)]
pub struct CloudComparison {
    /// Fully-on-edge run.
    pub edge: MissionReport,
    /// Sensor-cloud run (planning offloaded over a gigabit link).
    pub cloud: MissionReport,
}

impl CloudComparison {
    /// Ratio of edge to cloud mission time (>1 means the cloud run is faster).
    pub fn speedup(&self) -> f64 {
        if self.cloud.mission_time_secs <= 0.0 {
            return 1.0;
        }
        self.edge.mission_time_secs / self.cloud.mission_time_secs
    }

    /// Planning time (frontier exploration + motion planning + smoothing) of a
    /// report, seconds.
    pub fn planning_time(report: &MissionReport) -> f64 {
        [
            KernelId::FrontierExploration,
            KernelId::MotionPlanning,
            KernelId::PathSmoothing,
        ]
        .iter()
        .map(|k| report.kernel_timer.total(*k).as_secs())
        .sum()
    }
}

impl ToJson for CloudComparison {
    fn to_json(&self) -> Json {
        Json::object()
            .field("edge", self.edge.to_json())
            .field("cloud", self.cloud.to_json())
            .field("speedup", self.speedup())
    }
}

/// Runs the sensor-cloud case study on 3D Mapping (both runs in parallel).
pub fn cloud_offload_study(configure: impl Fn(MissionConfig) -> MissionConfig) -> CloudComparison {
    cloud_offload_study_with(&SweepRunner::new(), configure)
}

/// [`cloud_offload_study`] on an explicit [`SweepRunner`].
pub fn cloud_offload_study_with(
    runner: &SweepRunner,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> CloudComparison {
    let edge_cfg = configure(MissionConfig::new(ApplicationId::Mapping3D));
    let cloud_cfg = configure(MissionConfig::new(ApplicationId::Mapping3D))
        .with_cloud(CloudConfig::planning_offload());
    let mut outcomes = runner
        .run(vec![
            SweepPoint::new("edge", edge_cfg),
            SweepPoint::new("cloud", cloud_cfg),
        ])
        .outcomes;
    let cloud = outcomes.pop().expect("cloud outcome").report;
    let edge = outcomes.pop().expect("edge outcome").report;
    CloudComparison { edge, cloud }
}

/// One row of the OctoMap-resolution study (Fig. 19).
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionRow {
    /// Human-readable policy label.
    pub policy: String,
    /// The application it ran on.
    pub application: ApplicationId,
    /// The mission report.
    pub report: MissionReport,
}

impl ToJson for ResolutionRow {
    fn to_json(&self) -> Json {
        Json::object()
            .field("policy", self.policy.as_str())
            .field("application", self.application.to_json())
            .field("report", self.report.to_json())
    }
}

/// Runs the static-fine / static-coarse / dynamic resolution study for one
/// application, all policies in parallel.
pub fn resolution_study(
    application: ApplicationId,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<ResolutionRow> {
    resolution_study_with(&SweepRunner::new(), application, configure)
}

/// [`resolution_study`] on an explicit [`SweepRunner`].
pub fn resolution_study_with(
    runner: &SweepRunner,
    application: ApplicationId,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<ResolutionRow> {
    let policies = [
        ("static 0.15 m", ResolutionPolicy::static_fine()),
        ("static 0.80 m", ResolutionPolicy::static_coarse()),
        ("dynamic 0.15/0.80 m", ResolutionPolicy::dynamic_default()),
    ];
    let points: Vec<SweepPoint> = policies
        .iter()
        .map(|(label, policy)| {
            let config = configure(MissionConfig::new(application)).with_resolution_policy(*policy);
            SweepPoint::new(*label, config)
        })
        .collect();
    runner
        .run(points)
        .outcomes
        .into_iter()
        .map(|outcome| ResolutionRow {
            policy: outcome.label,
            application,
            report: outcome.report,
        })
        .collect()
}

/// One row of the depth-noise reliability study (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseRow {
    /// Injected noise standard deviation, metres.
    pub noise_std: f64,
    /// Fraction of runs that failed.
    pub failure_rate: f64,
    /// Mean number of re-planning episodes over the successful runs.
    pub mean_replans: f64,
    /// Mean mission time over the successful runs, seconds.
    pub mean_mission_time: f64,
}

impl ToJson for NoiseRow {
    fn to_json(&self) -> Json {
        Json::object()
            .field("noise_std", self.noise_std)
            .field("failure_rate", self.failure_rate)
            .field("mean_replans", self.mean_replans)
            .field("mean_mission_time", self.mean_mission_time)
    }
}

/// Runs the Table II reliability study: Package Delivery under increasing
/// depth-image noise, `runs` repetitions per noise level, every
/// (level, repetition) mission in parallel.
pub fn noise_reliability_study(
    noise_levels: &[f64],
    runs: u32,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<NoiseRow> {
    noise_reliability_study_with(&SweepRunner::new(), noise_levels, runs, configure)
}

/// [`noise_reliability_study`] on an explicit [`SweepRunner`].
pub fn noise_reliability_study_with(
    runner: &SweepRunner,
    noise_levels: &[f64],
    runs: u32,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<NoiseRow> {
    // Flatten the (level × repetition) grid into one parallel sweep; the
    // per-run seeds match the historical serial implementation exactly.
    let points: Vec<SweepPoint> = noise_levels
        .iter()
        .flat_map(|&std| (0..runs).map(move |run| (std, run)))
        .map(|(std, run)| {
            let config = configure(MissionConfig::new(ApplicationId::PackageDelivery))
                .with_depth_noise(std)
                .with_seed(1000 + run as u64 * 17);
            SweepPoint::new(format!("noise {std:.2} m, run {run}"), config)
        })
        .collect();
    let outcomes = runner.run(points).outcomes;
    noise_levels
        .iter()
        .enumerate()
        .map(|(level_idx, &std)| {
            let level_reports = outcomes
                [level_idx * runs as usize..(level_idx + 1) * runs as usize]
                .iter()
                .map(|o| &o.report);
            let mut failures = 0u32;
            let mut replans = 0.0;
            let mut times = 0.0;
            let mut successes = 0u32;
            for report in level_reports {
                if report.success() {
                    successes += 1;
                    replans += report.replans as f64;
                    times += report.mission_time_secs;
                } else {
                    failures += 1;
                }
            }
            NoiseRow {
                noise_std: std,
                failure_rate: failures as f64 / runs.max(1) as f64,
                mean_replans: if successes > 0 {
                    replans / successes as f64
                } else {
                    0.0
                },
                mean_mission_time: if successes > 0 {
                    times / successes as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// One row of the closed-loop perception-rate sweep (the emergent,
/// full-mission counterpart of the paper's Fig. 8b microbenchmark).
#[derive(Debug, Clone, PartialEq)]
pub struct RateSweepRow {
    /// Camera and mapping rate of this point, Hz (both nodes run at this
    /// rate; control and replanning stay tick-synchronous).
    pub perception_hz: f64,
    /// The mission report produced under that schedule.
    pub report: MissionReport,
}

impl ToJson for RateSweepRow {
    fn to_json(&self) -> Json {
        Json::object()
            .field("perception_hz", self.perception_hz)
            .field("velocity_cap", self.report.velocity_cap)
            .field("report", self.report.to_json())
    }
}

/// Runs the perception-rate sweep: the same Package Delivery mission under
/// node schedules whose camera + OctoMap rates step through `rates_hz`,
/// every point in parallel.
///
/// This is the first experiment only expressible on the PR 2 node-graph
/// executor: the schedule (not the code) sets how stale the occupancy map
/// is, and the Eq. 2 cap reacts to that staleness — lower perception rate ⇒
/// lower safe velocity ⇒ longer mission time, the paper's Fig. 8b trend at
/// whole-mission scope.
pub fn perception_rate_sweep(
    rates_hz: &[f64],
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<RateSweepRow> {
    perception_rate_sweep_with(&SweepRunner::new(), rates_hz, configure)
}

/// [`perception_rate_sweep`] on an explicit [`SweepRunner`].
pub fn perception_rate_sweep_with(
    runner: &SweepRunner,
    rates_hz: &[f64],
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<RateSweepRow> {
    let points: Vec<SweepPoint> = rates_hz
        .iter()
        .map(|&hz| {
            let config = configure(MissionConfig::new(ApplicationId::PackageDelivery))
                .with_rates(RateConfig::legacy().with_camera_fps(hz).with_mapping_hz(hz));
            SweepPoint::new(format!("perception {hz:.1} Hz"), config)
        })
        .collect();
    runner
        .run(points)
        .outcomes
        .into_iter()
        .zip(rates_hz)
        .map(|(outcome, &hz)| RateSweepRow {
            perception_hz: hz,
            report: outcome.report,
        })
        .collect()
}

/// One row of the replanning-policy comparison (PR 3): the same mission under
/// [`ReplanMode::HoverToPlan`] and [`ReplanMode::PlanInMotion`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanModeRow {
    /// The policy this mission flew under.
    pub mode: ReplanMode,
    /// The mission report it produced.
    pub report: MissionReport,
}

impl ToJson for ReplanModeRow {
    fn to_json(&self) -> Json {
        Json::object()
            .field("mode", self.mode.label())
            .field("replans", self.report.replans)
            .field("mission_time_secs", self.report.mission_time_secs)
            .field("hover_time_secs", self.report.hover_time_secs)
            .field("energy_kj", self.report.energy_kj())
            .field("report", self.report.to_json())
    }
}

/// Runs the replanning-policy comparison: the identical Package Delivery
/// mission once per [`ReplanMode`], both missions in parallel.
///
/// The paper charges planning latency while hovering — the most expensive
/// possible policy, since every planner millisecond is a millisecond of
/// zero progress at full rotor power. Plan-in-motion runs the same planning
/// kernels on the node-graph executor *while the vehicle keeps flying the
/// stale plan*, so at equal collision(-alert) counts the mission strictly
/// shortens — compare the rows' `replans` to confirm the counts match.
pub fn replan_mode_sweep(configure: impl Fn(MissionConfig) -> MissionConfig) -> Vec<ReplanModeRow> {
    replan_mode_sweep_with(&SweepRunner::new(), configure)
}

/// [`replan_mode_sweep`] on an explicit [`SweepRunner`].
pub fn replan_mode_sweep_with(
    runner: &SweepRunner,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<ReplanModeRow> {
    let modes = [ReplanMode::HoverToPlan, ReplanMode::PlanInMotion];
    let points: Vec<SweepPoint> = modes
        .iter()
        .map(|&mode| {
            let config = configure(MissionConfig::new(ApplicationId::PackageDelivery))
                .with_replan_mode(mode);
            SweepPoint::new(mode.label(), config)
        })
        .collect();
    runner
        .run(points)
        .outcomes
        .into_iter()
        .zip(modes)
        .map(|(outcome, mode)| ReplanModeRow {
            mode,
            report: outcome.report,
        })
        .collect()
}

/// One row of the executor-model / per-node-DVFS study (PR 5): the same
/// mission under one latency-charging model and one node→operating-point
/// mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecModelRow {
    /// How executor rounds charged latency in this mission.
    pub exec_model: ExecModel,
    /// The per-node operating points the flight graph ran with.
    pub node_ops: NodeOpConfig,
    /// Human-readable row label (`"pipelined / big.LITTLE"`).
    pub label: String,
    /// The mission report it produced.
    pub report: MissionReport,
}

impl ToJson for ExecModelRow {
    fn to_json(&self) -> Json {
        Json::object()
            .field("exec_model", self.exec_model.label())
            .field("node_ops", self.node_ops.label())
            .field("label", self.label.as_str())
            .field("replans", self.report.replans)
            .field("mission_time_secs", self.report.mission_time_secs)
            .field("hover_time_secs", self.report.hover_time_secs)
            .field("velocity_cap", self.report.velocity_cap)
            .field("energy_kj", self.report.energy_kj())
            .field("report", self.report.to_json())
    }
}

/// The (exec model, node ops) grid of [`exec_model_sweep`]:
///
/// 1. `serial / mission-global` — the paper's accounting (the baseline every
///    other figure uses);
/// 2. `pipelined / mission-global` — same mission, rounds charged as the
///    critical path over pipeline stages (camera capturing while the mapper
///    integrates);
/// 3. `pipelined / all-little` — every node parked on the little cluster:
///    the whole stack downclocked;
/// 4. `pipelined / big.LITTLE` — planning kept on the big cluster while
///    perception and control stay on the little one: rows 3 vs 4 isolate
///    what per-node DVFS of the *planner* alone buys at identical
///    perception/control latencies (and therefore an identical Eq. 2
///    velocity cap).
pub fn exec_model_grid() -> Vec<(ExecModel, NodeOpConfig, &'static str)> {
    vec![
        (
            ExecModel::Serial,
            NodeOpConfig::mission_global(),
            "serial / mission-global",
        ),
        (
            ExecModel::Pipelined,
            NodeOpConfig::mission_global(),
            "pipelined / mission-global",
        ),
        (
            ExecModel::Pipelined,
            NodeOpConfig::all_little(),
            "pipelined / all-little",
        ),
        (
            ExecModel::Pipelined,
            NodeOpConfig::big_little(),
            "pipelined / big.LITTLE",
        ),
    ]
}

/// Runs the executor-model / per-node-DVFS study: the identical Package
/// Delivery mission once per [`exec_model_grid`] row, all rows in parallel.
///
/// The paper charges each round's kernel latencies serially — as if camera,
/// mapper, monitor and tracker shared one core. [`ExecModel::Pipelined`]
/// charges the critical path instead, so rounds shorten to the slowest
/// stage: the same mission runs more (finer-grained) control and monitor
/// rounds per simulated second, which tightens tracking and trims the
/// end-of-episode convergence tail — mission time strictly shortens, by an
/// amount bounded by how much of the mission is round-quantized (trajectory
/// cruise time is rate-limited by the Eq. 2 cap, not by rounds; the
/// schedule-free quotable contrast lives in the executor's own
/// camera+mapper direction test, where the same twenty frames cost 33 %
/// less clock). The DVFS rows then split the cluster mapping: rows 3 and 4
/// have identical perception/control latencies — hence the identical,
/// lowered Eq. 2 velocity cap — and differ only in where planning runs, so
/// their delta isolates what keeping the planner on the big cluster buys in
/// hover time.
pub fn exec_model_sweep(configure: impl Fn(MissionConfig) -> MissionConfig) -> Vec<ExecModelRow> {
    exec_model_sweep_with(&SweepRunner::new(), configure)
}

/// [`exec_model_sweep`] on an explicit [`SweepRunner`].
pub fn exec_model_sweep_with(
    runner: &SweepRunner,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<ExecModelRow> {
    let grid = exec_model_grid();
    let points: Vec<SweepPoint> = grid
        .iter()
        .map(|(model, ops, label)| {
            let config = configure(MissionConfig::new(ApplicationId::PackageDelivery))
                .with_exec_model(*model)
                .with_node_ops(*ops);
            SweepPoint::new(*label, config)
        })
        .collect();
    runner
        .run(points)
        .outcomes
        .into_iter()
        .zip(grid)
        .map(|(outcome, (exec_model, node_ops, label))| ExecModelRow {
            exec_model,
            node_ops,
            label: label.to_string(),
            report: outcome.report,
        })
        .collect()
}

/// The scenario the executor-model study (and its direction tests) runs on:
/// the sparse long-leg rate-sweep scenario, so every grid row — including
/// the downclocked DVFS mappings, which fly at a lower Eq. 2 cap — completes
/// its delivery and the four rows stay like-for-like (same routes, same zero
/// collision-alert count). Dense replan-heavy fields are deliberately *not*
/// used here: a different charging model shifts alert timing, which replans
/// onto different routes and makes the mission-time comparison compare
/// routes, not models.
pub fn exec_model_scenario(config: MissionConfig) -> MissionConfig {
    rate_sweep_scenario(config)
}

/// The scenario the replanning-policy comparison (and its direction test)
/// runs on: a dense, initially-unknown obstacle field, so the optimistic
/// initial plan (planned through unexplored space) is reliably obstructed by
/// real obstacles discovered at camera range mid-flight — the situation in
/// which the two policies differ. Legs are long enough that the replanning
/// policy visibly moves the mission time.
pub fn replan_scenario(config: MissionConfig) -> MissionConfig {
    let mut cfg = quick_config(config).with_seed(1);
    cfg.environment.extent = 70.0;
    cfg.environment.obstacle_density = 3.0;
    cfg
}

/// The scenario the perception-rate sweep (and its direction tests) run on:
/// legs long enough that cruise time dominates planning noise, and sparse
/// enough that every schedule completes.
pub fn rate_sweep_scenario(config: MissionConfig) -> MissionConfig {
    let mut cfg = quick_config(config).with_seed(9);
    cfg.environment.extent = 70.0;
    cfg.environment.obstacle_density = 0.3;
    cfg
}

/// Scales a default configuration down so the full experiment sweeps finish
/// quickly (used by tests and the harness `--fast` mode).
pub fn quick_config(config: MissionConfig) -> MissionConfig {
    let mut cfg = config;
    cfg.environment.extent = cfg.environment.extent.min(32.0);
    cfg.environment.obstacle_density = cfg.environment.obstacle_density.min(1.5);
    cfg.camera = mav_sensors::DepthCameraConfig {
        width: 16,
        height: 12,
        ..Default::default()
    };
    cfg.time_budget_secs = 900.0;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanning_quick(cfg: MissionConfig) -> MissionConfig {
        let mut c = quick_config(cfg).with_seed(2);
        c.environment.extent = 20.0;
        c
    }

    #[test]
    fn heatmap_formatting_contains_all_cells() {
        // Use the cheap Scanning application for a smoke test of the sweep
        // plumbing itself; the shape assertions on the heavier applications
        // live in the integration tests.
        let cells = operating_point_sweep(ApplicationId::Scanning, scanning_quick);
        assert_eq!(cells.len(), 9);
        assert!(cell(&cells, 4, 2.2).is_some());
        assert!(cell(&cells, 2, 0.8).is_some());
        assert!(cell(&cells, 5, 1.0).is_none());
        let table = format_heatmap(&cells, "mission time (s)", |r| r.mission_time_secs);
        assert!(table.contains("4 cores"));
        assert!(table.contains("2.2 GHz"));
        // Every scanning run succeeds.
        assert!(cells.iter().all(|c| c.report.success()));
    }

    #[test]
    fn heatmap_format_renders_all_nine_metric_values() {
        // Synthetic cells: metric = cores + GHz, so every rendered number is
        // predictable and distinct.
        let template = operating_point_sweep_with(
            &SweepRunner::new().with_threads(2),
            ApplicationId::Scanning,
            scanning_quick,
        );
        let table = format_heatmap(&template, "synthetic", |r| {
            r.operating_point.cores as f64 + r.operating_point.frequency.as_ghz()
        });
        for expected in [
            "4.80", "5.50", "6.20", "3.80", "4.50", "5.20", "2.80", "3.50", "4.20",
        ] {
            assert!(table.contains(expected), "missing {expected} in:\n{table}");
        }
        assert!(!table.contains("n/a"));
    }

    #[test]
    fn heatmap_format_marks_missing_cells() {
        let cells = operating_point_sweep_with(
            &SweepRunner::new().with_threads(2),
            ApplicationId::Scanning,
            scanning_quick,
        );
        let partial: Vec<HeatmapCell> = cells
            .into_iter()
            .filter(|c| !(c.cores == 3 && c.frequency_ghz == 1.5))
            .collect();
        let table = format_heatmap(&partial, "mission time (s)", |r| r.mission_time_secs);
        assert!(table.contains("n/a"));
    }

    #[test]
    fn cell_lookup_tolerates_float_formatting() {
        let cells = operating_point_sweep_with(
            &SweepRunner::new().with_threads(3),
            ApplicationId::Scanning,
            scanning_quick,
        );
        // 2.2 is not exactly representable; lookup must still hit.
        assert!(cell(&cells, 4, 2.2).is_some());
        assert!(cell(&cells, 4, 2.21).is_none());
        assert!(cell(&cells, 9, 2.2).is_none());
    }

    #[test]
    fn operating_point_sweep_is_thread_count_invariant() {
        let serial = operating_point_sweep_with(
            &SweepRunner::new().with_threads(1),
            ApplicationId::Scanning,
            scanning_quick,
        );
        let parallel = operating_point_sweep_with(
            &SweepRunner::new().with_threads(4),
            ApplicationId::Scanning,
            scanning_quick,
        );
        assert_eq!(serial, parallel);
    }
}
