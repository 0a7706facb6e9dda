//! Experiment drivers: the parameter sweeps behind every table and figure of
//! the paper's evaluation.
//!
//! Each function here is called both by the `mav-bench` harness binaries
//! (which print the tables) and by the integration tests (which assert the
//! qualitative shape of the results: who wins, in which direction, by roughly
//! what factor).
//!
//! Every study is one [`study`] call: one mission per grid value, run on the
//! caller's [`SweepRunner`] (harnesses build it from `--threads`), each report
//! paired with its grid value in a [`StudyRow`]. Results are bit-identical
//! across thread counts — see [`crate::sweep`] for the determinism contract.

use crate::config::{MissionConfig, NodeOpConfig, RateConfig, ReplanMode, ResolutionPolicy};
use crate::qof::MissionReport;
use crate::sweep::{SweepPoint, SweepRunner};
use mav_compute::{ApplicationId, CloudConfig, KernelId, OperatingPoint};
use mav_runtime::ExecModel;
use mav_types::{Json, ToJson};

/// One mission of a study: the grid value it ran at and the report it
/// produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyRow<A> {
    /// The grid value this mission ran at.
    pub value: A,
    /// The mission report it produced.
    pub report: MissionReport,
}

/// Runs one mission per grid value on `runner`, configured by `point`, and
/// pairs each report with its value, in grid order.
pub fn study<A: Clone>(
    runner: &SweepRunner,
    grid: &[A],
    point: impl Fn(&A) -> MissionConfig,
) -> Vec<StudyRow<A>> {
    // The rows carry the grid values, so the sweep points need no labels.
    let points = grid
        .iter()
        .map(|value| SweepPoint::new("", point(value)))
        .collect();
    grid.iter()
        .cloned()
        .zip(runner.run(points).outcomes)
        .map(|(value, outcome)| StudyRow {
            value,
            report: outcome.report,
        })
        .collect()
}

/// A heat-map cell of Figs. 10–14.
impl ToJson for StudyRow<OperatingPoint> {
    fn to_json(&self) -> Json {
        Json::object()
            .field("cores", self.value.cores)
            .field("frequency_ghz", self.value.frequency.as_ghz())
            .field("report", self.report.to_json())
    }
}

/// Runs the 3×3 TX2 operating-point sweep for one application (the heat maps
/// of Figs. 10–14).
///
/// `configure` receives the default configuration for the application and may
/// adjust it (seed, environment size, …) before each run.
pub fn operating_point_sweep(
    runner: &SweepRunner,
    application: ApplicationId,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<StudyRow<OperatingPoint>> {
    study(runner, &OperatingPoint::tx2_sweep(), |&point| {
        configure(MissionConfig::new(application)).with_operating_point(point)
    })
}

/// Finds the heat-map cell for a specific operating point.
pub fn cell(
    cells: &[StudyRow<OperatingPoint>],
    cores: u32,
    frequency_ghz: f64,
) -> Option<&StudyRow<OperatingPoint>> {
    cells.iter().find(|c| {
        c.value.cores == cores && (c.value.frequency.as_ghz() - frequency_ghz).abs() < 1e-9
    })
}

/// Renders a 3×3 heat map as a text table of the selected metric.
pub fn format_heatmap(
    cells: &[StudyRow<OperatingPoint>],
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

/// Runs the sensor-cloud case study on 3D Mapping: the mission fully on the
/// edge and with planning offloaded, both runs in parallel.
pub fn cloud_offload_study(
    runner: &SweepRunner,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> CloudComparison {
    let placements = [None, Some(CloudConfig::planning_offload())];
    let rows = study(runner, &placements, |cloud| {
        let config = configure(MissionConfig::new(ApplicationId::Mapping3D));
        match cloud {
            Some(cloud) => config.with_cloud(cloud.clone()),
            None => config,
        }
    });
    let [edge, cloud]: [StudyRow<_>; 2] = rows.try_into().expect("one row per placement");
    CloudComparison {
        edge: edge.report,
        cloud: cloud.report,
    }
}

/// A row of the OctoMap-resolution study (Fig. 19); the value is the policy
/// label.
impl ToJson for StudyRow<&'static str> {
    fn to_json(&self) -> Json {
        Json::object()
            .field("policy", self.value)
            .field("application", self.report.application.to_json())
            .field("report", self.report.to_json())
    }
}

/// Runs the static-fine / static-coarse / dynamic resolution study for one
/// application, all policies in parallel. Each row's value is the policy's
/// label.
pub fn resolution_study(
    runner: &SweepRunner,
    application: ApplicationId,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<StudyRow<&'static str>> {
    let policies = [
        ("static 0.15 m", ResolutionPolicy::static_fine()),
        ("static 0.80 m", ResolutionPolicy::static_coarse()),
        ("dynamic 0.15/0.80 m", ResolutionPolicy::dynamic_default()),
    ];
    study(runner, &policies, |&(_, policy)| {
        configure(MissionConfig::new(application)).with_resolution_policy(policy)
    })
    .into_iter()
    .map(|row| StudyRow {
        value: row.value.0,
        report: row.report,
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
    runner: &SweepRunner,
    noise_levels: &[f64],
    runs: u32,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<NoiseRow> {
    // One grid value per (level, repetition); the per-run seeds match the
    // historical serial implementation exactly.
    let grid: Vec<(f64, u32)> = noise_levels
        .iter()
        .flat_map(|&std| (0..runs).map(move |run| (std, run)))
        .collect();
    let rows = study(runner, &grid, |&(std, run)| {
        configure(MissionConfig::new(ApplicationId::PackageDelivery))
            .with_depth_noise(std)
            .with_seed(1000 + run as u64 * 17)
    });
    let runs = runs as usize;
    noise_levels
        .iter()
        .enumerate()
        .map(|(level, &noise_std)| {
            let successes: Vec<&MissionReport> = rows[level * runs..(level + 1) * runs]
                .iter()
                .map(|row| &row.report)
                .filter(|report| report.success())
                .collect();
            // Means over the successful runs; zero when none succeeded.
            let mean = |metric: fn(&MissionReport) -> f64| match successes.len() {
                0 => 0.0,
                n => successes.iter().map(|report| metric(report)).sum::<f64>() / n as f64,
            };
            NoiseRow {
                noise_std,
                failure_rate: (runs - successes.len()) as f64 / runs.max(1) as f64,
                mean_replans: mean(|report| report.replans as f64),
                mean_mission_time: mean(|report| report.mission_time_secs),
            }
        })
        .collect()
}

/// A row of the perception-rate sweep; the value is the camera and mapping
/// rate, Hz.
impl ToJson for StudyRow<f64> {
    fn to_json(&self) -> Json {
        Json::object()
            .field("perception_hz", self.value)
            .field("velocity_cap", self.report.velocity_cap)
            .field("report", self.report.to_json())
    }
}

/// Runs the perception-rate sweep: the same Package Delivery mission under
/// node schedules whose camera + OctoMap rates step through `rates_hz`,
/// every point in parallel (the emergent, full-mission counterpart of the
/// paper's Fig. 8b microbenchmark). Control and replanning stay
/// tick-synchronous.
///
/// This is the first experiment only expressible on the PR 2 node-graph
/// executor: the schedule (not the code) sets how stale the occupancy map
/// is, and the Eq. 2 cap reacts to that staleness — lower perception rate ⇒
/// lower safe velocity ⇒ longer mission time, the paper's Fig. 8b trend at
/// whole-mission scope.
pub fn perception_rate_sweep(
    runner: &SweepRunner,
    rates_hz: &[f64],
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<StudyRow<f64>> {
    study(runner, rates_hz, |&hz| {
        configure(MissionConfig::new(ApplicationId::PackageDelivery))
            .with_rates(RateConfig::legacy().with_camera_fps(hz).with_mapping_hz(hz))
    })
}

/// A row of the replanning-policy comparison.
impl ToJson for StudyRow<ReplanMode> {
    fn to_json(&self) -> Json {
        Json::object()
            .field("mode", self.value.label())
            .field("replans", self.report.replans)
            .field("mission_time_secs", self.report.mission_time_secs)
            .field("hover_time_secs", self.report.hover_time_secs)
            .field("energy_kj", self.report.energy_kj())
            .field("report", self.report.to_json())
    }
}

/// Runs the replanning-policy comparison: the identical Package
/// Delivery mission once per [`ReplanMode`], both missions in parallel.
///
/// The paper charges planning latency while hovering — the most expensive
/// possible policy, since every planner millisecond is a millisecond of
/// zero progress at full rotor power. Plan-in-motion runs the same planning
/// kernels on the node-graph executor *while the vehicle keeps flying the
/// stale plan*, so at equal collision(-alert) counts the mission strictly
/// shortens — compare the rows' `replans` to confirm the counts match.
pub fn replan_mode_sweep(
    runner: &SweepRunner,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<StudyRow<ReplanMode>> {
    let modes = [ReplanMode::HoverToPlan, ReplanMode::PlanInMotion];
    study(runner, &modes, |&mode| {
        configure(MissionConfig::new(ApplicationId::PackageDelivery)).with_replan_mode(mode)
    })
}

/// A row of the executor-model / per-node-DVFS study; the value is
/// its [`exec_model_grid`] entry.
impl ToJson for StudyRow<(ExecModel, NodeOpConfig, &'static str)> {
    fn to_json(&self) -> Json {
        let (exec_model, node_ops, label) = self.value;
        Json::object()
            .field("exec_model", exec_model.label())
            .field("node_ops", node_ops.label())
            .field("label", label)
            .field("replans", self.report.replans)
            .field("mission_time_secs", self.report.mission_time_secs)
            .field("hover_time_secs", self.report.hover_time_secs)
            .field("velocity_cap", self.report.velocity_cap)
            .field("energy_kj", self.report.energy_kj())
            .field("report", self.report.to_json())
    }
}

/// The (exec model, node ops, label) grid of [`exec_model_sweep`]:
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
pub fn exec_model_sweep(
    runner: &SweepRunner,
    configure: impl Fn(MissionConfig) -> MissionConfig,
) -> Vec<StudyRow<(ExecModel, NodeOpConfig, &'static str)>> {
    study(runner, &exec_model_grid(), |&(model, ops, _)| {
        configure(MissionConfig::new(ApplicationId::PackageDelivery))
            .with_exec_model(model)
            .with_node_ops(ops)
    })
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
    use crate::apps::run_mission;

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
        let cells =
            operating_point_sweep(&SweepRunner::new(), ApplicationId::Scanning, scanning_quick);
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
        let template = operating_point_sweep(
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
        let cells = operating_point_sweep(
            &SweepRunner::new().with_threads(2),
            ApplicationId::Scanning,
            scanning_quick,
        );
        let partial: Vec<StudyRow<OperatingPoint>> = cells
            .into_iter()
            .filter(|c| !(c.value.cores == 3 && c.value.frequency.as_ghz() == 1.5))
            .collect();
        let table = format_heatmap(&partial, "mission time (s)", |r| r.mission_time_secs);
        assert!(table.contains("n/a"));
    }

    #[test]
    fn cell_lookup_tolerates_float_formatting() {
        let cells = operating_point_sweep(
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
        let sweep = |threads| {
            operating_point_sweep(
                &SweepRunner::new().with_threads(threads),
                ApplicationId::Scanning,
                scanning_quick,
            )
        };
        let serial = sweep(1);
        // `study` pairs each report with its grid value, in grid order.
        let values: Vec<OperatingPoint> = serial.iter().map(|row| row.value).collect();
        assert_eq!(values, OperatingPoint::tx2_sweep());
        assert!(serial
            .iter()
            .all(|row| row.value == row.report.operating_point));
        for threads in [2, 3, 8] {
            assert_eq!(serial, sweep(threads), "diverged at {threads} threads");
        }
    }

    /// The top-level keys of a JSON object, in order, space-separated.
    fn keys(json: &Json) -> String {
        match json {
            Json::Object(fields) => fields
                .iter()
                .map(|(key, _)| key.as_str())
                .collect::<Vec<_>>()
                .join(" "),
            _ => String::new(),
        }
    }

    fn row_json<A>(value: A, report: &MissionReport) -> Json
    where
        StudyRow<A>: ToJson,
    {
        StudyRow {
            value,
            report: report.clone(),
        }
        .to_json()
    }

    #[test]
    fn study_rows_keep_the_harness_json_fields() {
        let report = run_mission(scanning_quick(MissionConfig::new(ApplicationId::Scanning)));
        let cloud = CloudComparison {
            edge: report.clone(),
            cloud: report.clone(),
        };
        let noise = NoiseRow {
            noise_std: 0.5,
            failure_rate: 0.0,
            mean_replans: 0.0,
            mean_mission_time: 0.0,
        };
        let documents = [
            (
                row_json(OperatingPoint::reference(), &report),
                "cores frequency_ghz report",
            ),
            (
                row_json("static 0.15 m", &report),
                "policy application report",
            ),
            (row_json(20.0, &report), "perception_hz velocity_cap report"),
            (
                row_json(ReplanMode::PlanInMotion, &report),
                "mode replans mission_time_secs hover_time_secs energy_kj report",
            ),
            (
                row_json(exec_model_grid()[3], &report),
                "exec_model node_ops label replans mission_time_secs hover_time_secs \
                 velocity_cap energy_kj report",
            ),
            (
                noise.to_json(),
                "noise_std failure_rate mean_replans mean_mission_time",
            ),
            (cloud.to_json(), "edge cloud speedup"),
        ];
        for (json, expected) in &documents {
            assert_eq!(keys(json), *expected);
        }

        // Zero repetitions run no mission and still report one all-zero row
        // per noise level.
        let empty = noise_reliability_study(
            &SweepRunner::new().with_threads(2),
            &[0.0, 0.5],
            0,
            scanning_quick,
        );
        assert_eq!(
            empty,
            [
                NoiseRow {
                    noise_std: 0.0,
                    ..noise.clone()
                },
                noise
            ]
        );
    }
}
