//! The figure/table builders behind the 18 harness binaries.
//!
//! Every builder takes the parsed [`Cli`] and returns a [`FigureOutput`]
//! carrying both the text rendering and a JSON document of the same data, so
//! each binary is a one-line `run_figure(..)` call. Mission sweeps all go
//! through [`SweepRunner`](mav_core::sweep::SweepRunner) via
//! [`Cli::runner`], so `--threads` controls their parallelism.

use crate::cli::{Cli, FigureOutput};
use crate::table::format_table;
use mav_compute::{table1_profile, ApplicationId, KernelId, OperatingPoint};
use mav_core::experiments::{
    cloud_offload_study, exec_model_scenario, format_heatmap, noise_reliability_study,
    operating_point_sweep, perception_rate_sweep, replan_mode_sweep, replan_scenario,
    resolution_study, CloudComparison,
};
use mav_core::microbench::{hover_endurance_minutes, slam_fps_sweep, SlamMicrobenchConfig};
use mav_core::reliability::{
    reliability_fault_grid_with, reliability_rate_grid_with, reliability_sweep_classified,
    ScenarioGenerator, DEFAULT_SHARD_SIZE,
};
use mav_core::velocity::velocity_vs_process_time;
use mav_energy::{
    commercial_mav_catalog, ComputePowerModel, EnergyAccount, FlightPhaseLabel, RotorPowerModel,
    WingType,
};
use mav_types::{Json, Power, SimDuration, SimTime, ToJson, Vec3};

/// Shared driver for the Figs. 10–14 operating-point heat maps.
pub fn heatmap_figure(application: ApplicationId, seed: u64, cli: &Cli) -> FigureOutput {
    let cells = operating_point_sweep(&cli.runner(), application, |cfg| {
        cli.scale(cfg).with_seed(seed)
    });
    let mut text = format!("== {application} — operating-point sweep ==\n");
    if application == ApplicationId::AerialPhotography {
        text.push_str(&format_heatmap(&cells, "error (norm.)", |r| {
            r.tracking_error
        }));
    } else {
        text.push_str(&format_heatmap(&cells, "velocity (m/s)", |r| {
            r.average_velocity
        }));
    }
    text.push_str(&format_heatmap(&cells, "mission time (s)", |r| {
        r.mission_time_secs
    }));
    text.push_str(&format_heatmap(&cells, "energy (kJ)", |r| r.energy_kj()));
    let failures: Vec<String> = cells
        .iter()
        .filter(|c| !c.report.success())
        .map(|c| format!("{}: {:?}", c.value.label(), c.report.failure))
        .collect();
    if failures.is_empty() {
        text.push_str("all 9 operating points completed successfully\n");
    } else {
        text.push_str(&format!("failed operating points: {failures:?}\n"));
    }
    FigureOutput {
        text,
        json: Json::object()
            .field("application", application)
            .field("seed", seed)
            .field("cells", cells.to_json()),
    }
}

/// Fig. 2 — endurance and size vs battery capacity for commercial MAVs.
pub fn fig02_endurance(_cli: &Cli) -> FigureOutput {
    let catalog = commercial_mav_catalog();
    let mut text = String::from("-- Fig. 2a: flight endurance vs battery capacity --\n");
    let rows: Vec<Vec<String>> = catalog
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                format!("{:?}", m.wing),
                format!("{:.0}", m.battery_mah),
                format!("{:.2}", m.endurance_hours()),
                format!("{:.2}", m.endurance_per_ah()),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &[
            "model",
            "wing",
            "battery (mAh)",
            "endurance (h)",
            "h per Ah",
        ],
        &rows,
    ));

    text.push_str("\n-- Fig. 2b: size vs battery capacity --\n");
    let rows: Vec<Vec<String>> = catalog
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.segment.to_string(),
                format!("{:.0}", m.battery_mah),
                format!("{:.0}", m.size_mm),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &["model", "segment", "battery (mAh)", "size (mm)"],
        &rows,
    ));

    text.push_str("\n-- model cross-check: hover endurance from the energy model --\n");
    let rows: Vec<Vec<String>> = catalog
        .iter()
        .filter(|m| m.wing == WingType::Rotor)
        .map(|m| {
            let est = hover_endurance_minutes(m.battery_mah, 14.8, 287.0);
            vec![
                m.name.to_string(),
                format!("{:.1}", m.endurance_minutes),
                format!("{:.1}", est),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &[
            "model",
            "quoted endurance (min)",
            "modelled hover endurance (min)",
        ],
        &rows,
    ));

    let json = Json::Array(
        catalog
            .iter()
            .map(|m| {
                Json::object()
                    .field("model", m.name)
                    .field("wing", format!("{:?}", m.wing))
                    .field("segment", m.segment)
                    .field("battery_mah", m.battery_mah)
                    .field("size_mm", m.size_mm)
                    .field("endurance_minutes", m.endurance_minutes)
                    .field("endurance_hours", m.endurance_hours())
                    .field("hours_per_ah", m.endurance_per_ah())
            })
            .collect(),
    );
    FigureOutput { text, json }
}

/// Fig. 8a — theoretical maximum velocity vs perception-to-actuation latency (Eq. 2).
pub fn fig08a_max_velocity(_cli: &Cli) -> FigureOutput {
    let sweep = velocity_vs_process_time(4.0, 16, 7.8, 5.0);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|(t, v)| vec![format!("{t:.2}"), format!("{v:.2}")])
        .collect();
    let mut text = String::from("(Eq. 2, d = 7.8 m, a = 5 m/s^2)\n");
    text.push_str(&format_table(
        &["process time (s)", "max velocity (m/s)"],
        &rows,
    ));
    text.push_str(&format!(
        "\npaper envelope: 8.83 m/s at 0 s .. 1.57 m/s at 4 s; measured: {:.2} .. {:.2}\n",
        sweep.first().unwrap().1,
        sweep.last().unwrap().1
    ));
    let json = Json::Array(
        sweep
            .iter()
            .map(|(t, v)| {
                Json::object()
                    .field("process_time_secs", *t)
                    .field("max_velocity", *v)
            })
            .collect(),
    );
    FigureOutput { text, json }
}

/// Fig. 8b — SLAM throughput vs maximum velocity and energy: the analytic
/// microbenchmark plus, since PR 2, the emergent whole-mission counterpart
/// (the perception-rate sweep on the node-graph executor).
pub fn fig08b_slam_fps(cli: &Cli) -> FigureOutput {
    let sweep = slam_fps_sweep(
        &[0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0],
        SlamMicrobenchConfig::default(),
    );
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}", p.fps),
                format!("{:.2}", p.max_velocity),
                format!("{:.1}", p.mission_time_secs),
                format!("{:.1}", p.energy_kj),
                format!("{:.2}", p.observed_failure_rate),
            ]
        })
        .collect();
    let mut text = String::from("(circular path, r = 25 m, failure budget 20%)\n");
    text.push_str(&format_table(
        &[
            "SLAM FPS",
            "max velocity (m/s)",
            "lap time (s)",
            "energy (kJ)",
            "observed failure rate",
        ],
        &rows,
    ));
    let first = sweep.first().unwrap();
    let last = sweep.last().unwrap();
    text.push_str(&format!(
        "\nenergy reduction from {:.1} to {:.1} FPS: {:.2}X (paper: ~4X for a 5X FPS increase)\n",
        first.fps,
        last.fps,
        first.energy_kj / last.energy_kj
    ));
    let microbench_json = Json::Array(
        sweep
            .iter()
            .map(|p| {
                Json::object()
                    .field("fps", p.fps)
                    .field("max_velocity", p.max_velocity)
                    .field("mission_time_secs", p.mission_time_secs)
                    .field("energy_kj", p.energy_kj)
                    .field("observed_failure_rate", p.observed_failure_rate)
            })
            .collect(),
    );

    // The closed-loop counterpart: whole Package Delivery missions whose
    // camera + OctoMap node rates step down on the node-graph executor. The
    // Eq. 2 cap reacts to the schedule's sensing staleness, so the same
    // lower-rate ⇒ slower-and-longer trend emerges from full missions.
    let rates: &[f64] = if cli.fast {
        &[20.0, 5.0, 1.0]
    } else {
        &[30.0, 10.0, 5.0, 2.0, 1.0]
    };
    let closed_loop = perception_rate_sweep(
        &cli.runner(),
        rates,
        mav_core::experiments::rate_sweep_scenario,
    );
    text.push_str(
        "\n-- closed-loop counterpart: Package Delivery under perception-rate schedules --\n",
    );
    let rows: Vec<Vec<String>> = closed_loop
        .iter()
        .map(|row| {
            vec![
                format!("{:.1}", row.value),
                format!("{:.2}", row.report.velocity_cap),
                format!("{:.1}", row.report.mission_time_secs),
                format!("{:.1}", row.report.energy_kj()),
                format!("{}", row.report.success()),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &[
            "camera+map rate (Hz)",
            "velocity cap (m/s)",
            "mission time (s)",
            "energy (kJ)",
            "success",
        ],
        &rows,
    ));
    text.push_str(
        "paper direction: lower perception rate => lower safe velocity => longer mission\n",
    );
    FigureOutput {
        text,
        json: Json::object()
            .field("microbench", microbench_json)
            .field("closed_loop", closed_loop.to_json()),
    }
}

fn power_trace(cruise: f64) -> EnergyAccount {
    let rotor = RotorPowerModel::solo_3dr();
    let compute = ComputePowerModel::tx2().power(4, 2.2);
    let mut acc = EnergyAccount::new();
    let dt = SimDuration::from_millis(200.0);
    let mut t = SimTime::ZERO;
    let phases: &[(f64, FlightPhaseLabel, Vec3)] = &[
        (5.0, FlightPhaseLabel::Arming, Vec3::ZERO),
        (10.0, FlightPhaseLabel::Hovering, Vec3::ZERO),
        (30.0, FlightPhaseLabel::Flying, Vec3::new(cruise, 0.0, 0.0)),
        (5.0, FlightPhaseLabel::Landing, Vec3::new(0.0, 0.0, -1.0)),
    ];
    for (duration, phase, velocity) in phases {
        let steps = (duration / dt.as_secs()) as usize;
        for _ in 0..steps {
            let rotor_p = if *phase == FlightPhaseLabel::Arming {
                Power::from_watts(80.0)
            } else {
                rotor.power(velocity, &Vec3::ZERO, &Vec3::ZERO)
            };
            acc.record(t, dt, rotor_p, compute, *phase);
            t += dt;
        }
    }
    acc
}

/// Fig. 9 — measured power breakdown and mission power trace (3DR Solo class).
pub fn fig09_power_breakdown(_cli: &Cli) -> FigureOutput {
    let mut text = String::from("-- Fig. 9a: power breakdown while flying (3DR Solo class) --\n");
    let acc = power_trace(5.0);
    let rotor_hover = RotorPowerModel::solo_3dr().hover_power().as_watts();
    let compute_w = ComputePowerModel::tx2().power(4, 2.2).as_watts();
    let rows = vec![
        vec!["quad rotors".to_string(), format!("{rotor_hover:.1}")],
        vec![
            "compute platform (TX2)".to_string(),
            format!("{compute_w:.1}"),
        ],
        vec!["other electronics".to_string(), format!("{:.1}", 2.0)],
    ];
    text.push_str(&format_table(&["subsystem", "power (W)"], &rows));
    text.push_str(&format!(
        "rotor share of total energy over a mission: {:.1}% (compute {:.1}%)\n",
        acc.rotor_fraction() * 100.0,
        acc.compute_fraction() * 100.0
    ));

    let mut traces = Vec::new();
    for cruise in [5.0, 10.0] {
        text.push_str(&format!(
            "\n-- Fig. 9b: mission power trace at {cruise} m/s --\n"
        ));
        let acc = power_trace(cruise);
        let phases = [
            FlightPhaseLabel::Arming,
            FlightPhaseLabel::Hovering,
            FlightPhaseLabel::Flying,
            FlightPhaseLabel::Landing,
        ];
        let rows: Vec<Vec<String>> = phases
            .iter()
            .map(|phase| {
                let p = acc
                    .average_power_in_phase(*phase)
                    .map(|p| p.as_watts())
                    .unwrap_or(0.0);
                vec![format!("{phase}"), format!("{p:.1}")]
            })
            .collect();
        text.push_str(&format_table(&["phase", "avg total power (W)"], &rows));
        traces.push(
            Json::object().field("cruise_velocity", cruise).field(
                "phase_power_w",
                Json::Object(
                    phases
                        .iter()
                        .map(|phase| {
                            let p = acc
                                .average_power_in_phase(*phase)
                                .map(|p| p.as_watts())
                                .unwrap_or(0.0);
                            (format!("{phase}"), Json::Number(p))
                        })
                        .collect(),
                ),
            ),
        );
    }
    let json = Json::object()
        .field("rotor_hover_w", rotor_hover)
        .field("compute_w", compute_w)
        .field("rotor_energy_fraction", acc.rotor_fraction())
        .field("compute_energy_fraction", acc.compute_fraction())
        .field("traces", Json::Array(traces));
    FigureOutput { text, json }
}

/// Fig. 10 — Scanning heat maps over the TX2 sweep.
pub fn fig10_scanning(cli: &Cli) -> FigureOutput {
    heatmap_figure(ApplicationId::Scanning, 11, cli)
}

/// Fig. 11 — Package Delivery heat maps over the TX2 sweep, plus (PR 3) the
/// in-flight replanning comparison: the same delivery mission answering the
/// same collision alerts under hover-to-plan (the paper's policy — planning
/// latency charged at zero velocity) and plan-in-motion (the planner node
/// charges the planning kernels across executor rounds while the vehicle
/// keeps flying the stale plan, swapping the fresh trajectory in through the
/// latched plan topic).
pub fn fig11_package_delivery(cli: &Cli) -> FigureOutput {
    let heatmap = heatmap_figure(ApplicationId::PackageDelivery, 9, cli);
    // The scenario is a dense, initially-unknown obstacle field, so the
    // optimistic initial plan reliably gets obstructed mid-flight. Each
    // comparison row pins its own ReplanMode (that is the point of the
    // section); a `--replan-mode` flag applies to the heat-map missions
    // above, not to these rows.
    let replan = replan_mode_sweep(&cli.runner(), replan_scenario);
    let mut text = heatmap.text;
    text.push_str("\n-- in-flight replanning: hover-to-plan vs plan-in-motion --\n");
    let rows: Vec<Vec<String>> = replan
        .iter()
        .map(|row| {
            vec![
                row.value.label().to_string(),
                format!("{}", row.report.replans),
                format!("{:.1}", row.report.mission_time_secs),
                format!("{:.1}", row.report.hover_time_secs),
                format!("{:.1}", row.report.energy_kj()),
                format!("{}", row.report.success()),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &[
            "replan mode",
            "replans",
            "mission time (s)",
            "hover time (s)",
            "energy (kJ)",
            "success",
        ],
        &rows,
    ));
    text.push_str(
        "paper direction: planning while flying beats planning while hovering at equal collision counts\n",
    );
    FigureOutput {
        text,
        json: Json::object().field("heatmap", heatmap.json).field(
            "replan_modes",
            // Self-describing: these rows run the pinned replan scenario
            // under legacy rates with one row per mode, so the document's
            // top-level `fast`/`rates`/`replan_mode` flags (which apply to
            // the heat-map missions) must not be attributed to them.
            Json::object()
                .field(
                    "scenario",
                    "replan_scenario: Package Delivery, seed 1, obstacle density 3.0, \
                     extent 70 m, legacy rates, reference operating point; each row \
                     pins its own replan mode (top-level CLI flags do not apply)",
                )
                .field("rows", replan.to_json()),
        ),
    }
}

/// Fig. 12 — 3D Mapping heat maps over the TX2 sweep.
pub fn fig12_mapping(cli: &Cli) -> FigureOutput {
    heatmap_figure(ApplicationId::Mapping3D, 4, cli)
}

/// Fig. 13 — Search and Rescue heat maps over the TX2 sweep.
pub fn fig13_search_rescue(cli: &Cli) -> FigureOutput {
    heatmap_figure(ApplicationId::SearchAndRescue, 6, cli)
}

/// Fig. 14 — Aerial Photography heat maps over the TX2 sweep.
pub fn fig14_aerial_photography(cli: &Cli) -> FigureOutput {
    heatmap_figure(ApplicationId::AerialPhotography, 8, cli)
}

/// Fig. 15 — per-kernel runtime breakdown across operating points.
pub fn fig15_kernel_breakdown(_cli: &Cli) -> FigureOutput {
    let kernels_of_interest = [
        KernelId::MotionPlanning,
        KernelId::OctomapGeneration,
        KernelId::FrontierExploration,
        KernelId::ObjectDetection,
        KernelId::TrackingBuffered,
        KernelId::TrackingRealTime,
        KernelId::LawnmowerPlanning,
        KernelId::PathSmoothing,
    ];
    let mut text = String::from("(ms per invocation)\n");
    let mut apps_json = Vec::new();
    for &app in ApplicationId::all() {
        let profile = table1_profile(app);
        let used: Vec<KernelId> = kernels_of_interest
            .iter()
            .copied()
            .filter(|k| profile.uses(*k))
            .collect();
        if used.is_empty() {
            continue;
        }
        text.push_str(&format!("\n-- {app} --\n"));
        let mut rows = Vec::new();
        let mut points_json = Vec::new();
        for point in OperatingPoint::tx2_sweep() {
            let mut row = vec![point.label()];
            let mut latencies = Vec::new();
            for k in &used {
                let ms = profile.kernel(*k).unwrap().latency(&point).as_millis();
                row.push(format!("{ms:.0}"));
                latencies.push((k.short_name().to_string(), Json::Number(ms)));
            }
            rows.push(row);
            points_json.push(
                Json::object()
                    .field("operating_point", point)
                    .field("latency_ms", Json::Object(latencies)),
            );
        }
        let mut headers: Vec<&str> = vec!["operating point"];
        let names: Vec<String> = used.iter().map(|k| k.short_name().to_string()).collect();
        headers.extend(names.iter().map(|s| s.as_str()));
        text.push_str(&format_table(&headers, &rows));
        apps_json.push(
            Json::object()
                .field("application", app)
                .field("points", Json::Array(points_json)),
        );
    }
    FigureOutput {
        text,
        json: Json::Array(apps_json),
    }
}

/// Fig. 16 — fully-on-edge vs sensor-cloud 3D Mapping.
pub fn fig16_cloud_offload(cli: &Cli) -> FigureOutput {
    let cmp = cloud_offload_study(&cli.runner(), |cfg| cli.scale(cfg).with_seed(4));
    let row = |label: &str, report: &mav_core::MissionReport| {
        vec![
            label.to_string(),
            format!("{:.1}", report.mission_time_secs),
            format!("{:.1}", CloudComparison::planning_time(report)),
            format!("{:.1}", report.energy_kj()),
            format!("{}", report.success()),
        ]
    };
    let rows = vec![
        row("edge (TX2 only)", &cmp.edge),
        row("sensor-cloud", &cmp.cloud),
    ];
    let mut text = String::from("(planning offloaded over 1 Gb/s)\n");
    text.push_str(&format_table(
        &[
            "configuration",
            "mission time (s)",
            "planning time (s)",
            "energy (kJ)",
            "success",
        ],
        &rows,
    ));
    text.push_str(&format!(
        "\nmission-time speed-up from cloud offload: {:.2}X (paper: up to ~2X / 50% reduction)\n",
        cmp.speedup()
    ));
    FigureOutput {
        text,
        json: cmp.to_json(),
    }
}

/// Fig. 17 — perception of a doorway at different OctoMap resolutions.
pub fn fig17_resolution_maps(_cli: &Cli) -> FigureOutput {
    use mav_perception::{OctoMap, OctoMapConfig};

    /// Builds a wall with a door-width (0.82 m) opening mapped at `resolution`.
    fn map_doorway(resolution: f64) -> OctoMap {
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(resolution), 32.0);
        let origin = Vec3::new(-5.0, 0.0, 1.0);
        for i in -40..=40 {
            let y = i as f64 * 0.1;
            if y.abs() < 0.41 {
                continue; // the doorway
            }
            for z in [0.5, 1.0, 1.5, 2.0, 2.5] {
                map.insert_ray(&origin, &Vec3::new(3.0, y, z));
            }
        }
        map
    }

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for resolution in [0.15, 0.5, 0.8] {
        let map = map_doorway(resolution);
        let doorway = Vec3::new(3.0, 0.0, 1.0);
        let passable = !map.is_occupied_with_inflation(&doorway, 0.325);
        rows.push(vec![
            format!("{resolution:.2}"),
            format!("{}", map.occupied_voxel_count()),
            format!("{}", map.known_voxel_count()),
            format!("{}", if passable { "open" } else { "blocked" }),
        ]);
        entries.push(
            Json::object()
                .field("resolution_m", resolution)
                .field("occupied_voxels", map.occupied_voxel_count())
                .field("known_voxels", map.known_voxel_count())
                .field("doorway_passable", passable),
        );
    }
    let mut text = String::from("(0.82 m doorway)\n");
    text.push_str(&format_table(
        &[
            "resolution (m)",
            "occupied voxels",
            "known voxels",
            "doorway perceived as",
        ],
        &rows,
    ));
    text.push_str(
        "\npaper: at 0.80 m the drone no longer recognises the opening as a passageway\n",
    );
    FigureOutput {
        text,
        json: Json::Array(entries),
    }
}

/// Fig. 18 — OctoMap processing time vs resolution (measured on the host).
pub fn fig18_octomap_resolution(_cli: &Cli) -> FigureOutput {
    use mav_env::EnvironmentConfig;
    use mav_perception::{OctoMap, OctoMapConfig, PointCloud};
    use mav_sensors::{DepthCamera, DepthCameraConfig};
    use mav_types::Pose;
    use std::time::Instant;

    let world = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
    let camera = DepthCamera::new(DepthCameraConfig::high_resolution());
    // Capture a fixed set of frames once; time only the map updates.
    let poses: Vec<Pose> = (0..6)
        .map(|i| {
            Pose::new(
                Vec3::new(i as f64 * 6.0 - 15.0, (i % 3) as f64 * 8.0 - 8.0, 2.5),
                i as f64,
            )
        })
        .collect();
    let clouds: Vec<PointCloud> = poses
        .iter()
        .map(|p| PointCloud::from_depth_image(&camera.capture(&world, p)))
        .collect();
    let mut rows = Vec::new();
    let mut times = Vec::new();
    let mut entries = Vec::new();
    for resolution in [0.15, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0] {
        // Harness timing: measures host-side map-update cost for the figure;
        // never feeds back into simulation state.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(resolution), 96.0);
        for cloud in &clouds {
            map.insert_point_cloud(cloud);
        }
        let elapsed = start.elapsed().as_secs_f64();
        times.push((resolution, elapsed));
        rows.push(vec![
            format!("{resolution:.2}"),
            format!("{:.1}", elapsed * 1000.0),
            format!("{}", map.update_count()),
            format!("{}", map.known_voxel_count()),
        ]);
        entries.push(
            Json::object()
                .field("resolution_m", resolution)
                .field("update_time_ms", elapsed * 1000.0)
                .field("leaf_updates", map.update_count())
                .field("known_voxels", map.known_voxel_count()),
        );
    }
    let mut text = String::from("(host-measured)\n");
    text.push_str(&format_table(
        &[
            "resolution (m)",
            "update time (ms)",
            "leaf updates",
            "known voxels",
        ],
        &rows,
    ));
    let fine = times.first().unwrap();
    let coarse = times.last().unwrap();
    text.push_str(&format!(
        "\nprocessing-time ratio {:.2} m -> {:.2} m: {:.1}X (paper: ~4.5X over a 6.5X resolution change)\n",
        fine.0,
        coarse.0,
        fine.1 / coarse.1
    ));
    FigureOutput {
        text,
        json: Json::Array(entries),
    }
}

/// Fig. 19 — static vs dynamic OctoMap resolution.
pub fn fig19_dynamic_resolution(cli: &Cli) -> FigureOutput {
    let mut text = String::new();
    let mut studies = Vec::new();
    for app in [
        ApplicationId::Mapping3D,
        ApplicationId::SearchAndRescue,
        ApplicationId::PackageDelivery,
    ] {
        text.push_str(&format!("\n-- {app} --\n"));
        let study = resolution_study(&cli.runner(), app, |cfg| cli.scale(cfg).with_seed(13));
        let rows: Vec<Vec<String>> = study
            .iter()
            .map(|row| {
                let outcome = match &row.report.failure {
                    None => "success".to_string(),
                    Some(f) => format!("fail ({f})"),
                };
                vec![
                    row.value.to_string(),
                    outcome,
                    format!("{:.1}", row.report.mission_time_secs),
                    format!("{:.1}", row.report.battery_remaining_pct),
                    format!("{:.1}", row.report.energy_kj()),
                ]
            })
            .collect();
        text.push_str(&format_table(
            &[
                "policy",
                "outcome",
                "flight time (s)",
                "battery left (%)",
                "energy (kJ)",
            ],
            &rows,
        ));
        studies.push(
            Json::object()
                .field("application", app)
                .field("rows", study.to_json()),
        );
    }
    FigureOutput {
        text,
        json: Json::Array(studies),
    }
}

/// PR 5 — executor model × per-node DVFS study: the same Package Delivery
/// mission under serial vs pipelined round charging and under mission-global
/// vs per-node (big.LITTLE-style) operating points. Rows 3 and 4 share
/// identical perception/control latencies — and therefore the identical,
/// lowered Eq. 2 velocity cap — so their delta isolates what keeping the
/// planner on the big cluster buys in hover time.
pub fn exec_model_sweep(cli: &Cli) -> FigureOutput {
    let rows_data = mav_core::experiments::exec_model_sweep(&cli.runner(), |cfg| {
        // The grid pins its own exec model and node ops per row (that is the
        // point of the figure); --fast/--rates/--replan-mode still apply.
        exec_model_scenario(cli.scale(cfg))
    });
    let mut text = String::from(
        "(Package Delivery, sparse long-leg scenario; each row pins its own \
         exec model and node operating points)\n",
    );
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|row| {
            vec![
                row.value.0.label().to_string(),
                row.value.1.label(),
                format!("{:.2}", row.report.velocity_cap),
                format!("{:.2}", row.report.mission_time_secs),
                format!("{:.2}", row.report.hover_time_secs),
                format!("{:.1}", row.report.energy_kj()),
                format!("{}", row.report.success()),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &[
            "exec model",
            "node operating points",
            "velocity cap (m/s)",
            "mission time (s)",
            "hover time (s)",
            "energy (kJ)",
            "success",
        ],
        &rows,
    ));
    if let (Some(serial), Some(pipelined)) = (rows_data.first(), rows_data.get(1)) {
        text.push_str(&format!(
            "\npipelined vs serial at mission-global points: {:+.2} s mission time \
             (rounds charge the critical path, not the sum)\n",
            pipelined.report.mission_time_secs - serial.report.mission_time_secs
        ));
    }
    if let (Some(little), Some(split)) = (rows_data.get(2), rows_data.get(3)) {
        text.push_str(&format!(
            "planning on the big cluster (vs all-little) at an identical velocity cap: \
             {:.2} s hover bought back, {:.2} s mission time\n",
            little.report.hover_time_secs - split.report.hover_time_secs,
            little.report.mission_time_secs - split.report.mission_time_secs,
        ));
    }
    FigureOutput {
        text,
        json: Json::object()
            .field(
                "scenario",
                "exec_model_scenario: Package Delivery, seed 9, obstacle density 0.3, \
                 extent 70 m; each row pins its own exec model and node operating \
                 points (top-level CLI flags apply to the shared scenario only)",
            )
            .field("rows", rows_data.to_json()),
    }
}

/// Table I — per-application kernel time profile at the reference point.
pub fn table1_kernel_profile(_cli: &Cli) -> FigureOutput {
    let reference = OperatingPoint::reference();
    let mut text = String::from("(ms at 4 cores / 2.2 GHz)\n");
    let mut apps = Vec::new();
    for &app in ApplicationId::all() {
        text.push_str(&format!("\n-- {app} --\n"));
        let profile = table1_profile(app);
        let rows: Vec<Vec<String>> = profile
            .iter()
            .map(|(kernel, prof)| {
                vec![
                    kernel.short_name().to_string(),
                    format!("{}", kernel.stage()),
                    format!("{:.1}", prof.latency(&reference).as_millis()),
                    format!("{:.0}%", prof.parallel_fraction * 100.0),
                ]
            })
            .collect();
        text.push_str(&format_table(
            &["kernel", "stage", "latency (ms)", "parallel fraction"],
            &rows,
        ));
        apps.push(
            Json::object().field("application", app).field(
                "kernels",
                Json::Array(
                    profile
                        .iter()
                        .map(|(kernel, prof)| {
                            Json::object()
                                .field("kernel", *kernel)
                                .field("stage", format!("{}", kernel.stage()))
                                .field("latency_ms", prof.latency(&reference).as_millis())
                                .field("parallel_fraction", prof.parallel_fraction)
                        })
                        .collect(),
                ),
            ),
        );
    }
    FigureOutput {
        text,
        json: Json::Array(apps),
    }
}

/// Table II — impact of depth-image noise on Package Delivery reliability.
pub fn table2_noise_reliability(cli: &Cli) -> FigureOutput {
    let runs = if cli.fast { 3 } else { 5 };
    let rows_data = noise_reliability_study(&cli.runner(), &[0.0, 0.5, 1.0, 1.5], runs, |cfg| {
        cli.scale(cfg).with_seed(21)
    });
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|row| {
            vec![
                format!("{:.1}", row.noise_std),
                format!("{:.0}%", row.failure_rate * 100.0),
                format!("{:.1}", row.mean_replans),
                format!("{:.1}", row.mean_mission_time),
            ]
        })
        .collect();
    let mut text = format!("(Package Delivery, {runs} runs per level)\n");
    text.push_str(&format_table(
        &[
            "noise std (m)",
            "failure rate",
            "mean re-plans",
            "mean mission time (s)",
        ],
        &rows,
    ));
    text.push_str(
        "\npaper: 0 -> 1.5 m noise raises re-planning from 2 to 8 episodes and mission time by ~90%, with 10% failures at 1.5 m\n",
    );
    FigureOutput {
        text,
        json: rows_data.to_json(),
    }
}

/// PR 7 — Monte-Carlo reliability sweep: many randomized Package Delivery
/// scenarios (obstacle density × world extent × depth noise × node rates ×
/// replan mode × executor model, all drawn by the seeded
/// [`ScenarioGenerator`]), aggregated by streaming statistics and sharded
/// deterministically over the sweep workers — plus the replan-Hz ×
/// replan-mode reliability grid and a per-scenario-class breakdown. With
/// `--faults` the sweep samples fault cohorts (none / half / full intensity)
/// per episode and appends the fault-intensity × degradation-policy matrix.
/// The generator draws its own rates/modes per episode, so the top-level
/// `--rates`/`--replan-mode`/`--exec-model` flags do not apply here;
/// `--fast` scales the episode counts.
pub fn reliability_sweep(cli: &Cli) -> FigureOutput {
    let runner = cli.runner();
    let episodes: u64 = if cli.fast { 192 } else { 1920 };
    let episodes_per_cell: u64 = if cli.fast { 24 } else { 192 };
    let mut generator = ScenarioGenerator::new(ApplicationId::PackageDelivery, 29);
    if let Some(plan) = cli.faults {
        // Fault cohorts: a third of the episodes fault-free, a third at half
        // intensity, a third at the requested plan — separable afterwards
        // through the per-class breakdown. Degraded runs get the defensive
        // posture so the responses under test actually engage.
        generator = generator
            .with_fault_plans(vec![mav_core::FaultPlan::none(), plan.scaled(0.5), plan])
            .with_degradation(mav_core::DegradationConfig::defensive());
    }
    // Harness timing: episodes/sec throughput metadata only — the sweep's
    // reliability statistics are computed from simulated-clock outcomes.
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    let (stats, classes) =
        reliability_sweep_classified(&runner, &generator, episodes, DEFAULT_SHARD_SIZE);
    let wall_secs = started.elapsed().as_secs_f64();
    let episodes_per_sec = episodes as f64 / wall_secs.max(1e-9);
    let grid = reliability_rate_grid_with(
        &runner,
        ApplicationId::PackageDelivery,
        31,
        episodes_per_cell,
    );
    let mut text = format!(
        "(Package Delivery, {episodes} randomized scenarios on {} threads; \
         streaming aggregates, per-worker scratch reuse)\n\
         success rate: {:.1}%   collision rate: {:.1}%   replans/episode: {:.2}\n\
         mission time: p50 {:.1} s, p99 {:.1} s   energy: p50 {:.1} kJ, p99 {:.1} kJ\n\
         throughput: {:.1} episodes/sec ({:.2} s wall)\n",
        runner.threads(),
        stats.success_rate() * 100.0,
        stats.collision_rate() * 100.0,
        stats.replans as f64 / stats.episodes.max(1) as f64,
        stats.time.quantile(0.5),
        stats.time.quantile(0.99),
        stats.energy.quantile(0.5),
        stats.energy.quantile(0.99),
        episodes_per_sec,
        wall_secs,
    );
    text.push_str(&format!(
        "\n-- replan-Hz x replan-mode grid ({episodes_per_cell} episodes/cell) --\n"
    ));
    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|cell| {
            vec![
                cell.replan_mode.label().to_string(),
                match cell.replan_hz {
                    None => "legacy".to_string(),
                    Some(hz) => format!("{hz:.0}"),
                },
                format!("{:.0}%", cell.stats.success_rate() * 100.0),
                format!("{:.0}%", cell.stats.collision_rate() * 100.0),
                format!("{:.1}", cell.stats.time.quantile(0.5)),
                format!("{:.1}", cell.stats.energy.quantile(0.5)),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &[
            "replan mode",
            "replan Hz",
            "success",
            "collisions",
            "p50 time (s)",
            "p50 energy (kJ)",
        ],
        &rows,
    ));
    text.push_str("\n-- scenario-class breakdown --\n");
    let class_rows: Vec<Vec<String>> = classes
        .iter()
        .map(|(class, cs)| {
            vec![
                class.clone(),
                cs.episodes.to_string(),
                format!("{:.0}%", cs.success_rate() * 100.0),
                format!("{:.0}%", cs.collision_rate() * 100.0),
                format!("{:.0}%", cs.abort_rate() * 100.0),
            ]
        })
        .collect();
    text.push_str(&format_table(
        &["class", "episodes", "success", "collisions", "aborts"],
        &class_rows,
    ));
    let class_json = classes.iter().fold(Json::object(), |json, (class, cs)| {
        json.field(class.as_str(), cs.to_json())
    });
    let fault_matrix = cli.faults.map(|plan| {
        reliability_fault_grid_with(
            &runner,
            ApplicationId::PackageDelivery,
            31,
            episodes_per_cell,
            &plan,
        )
    });
    if let Some(cells) = &fault_matrix {
        text.push_str(&format!(
            "\n-- fault-intensity x degradation-policy matrix ({episodes_per_cell} episodes/cell) --\n"
        ));
        let matrix_rows: Vec<Vec<String>> = cells
            .iter()
            .map(|cell| {
                vec![
                    cell.label(),
                    format!("{:.0}%", cell.stats.survival_rate() * 100.0),
                    format!("{:.0}%", cell.stats.success_rate() * 100.0),
                    format!("{:.1}%", cell.stats.degraded_time_fraction() * 100.0),
                    format!("{:.2}", cell.stats.mean_recover_secs()),
                    format!("{:.1}", cell.stats.time.quantile(0.5)),
                ]
            })
            .collect();
        text.push_str(&format_table(
            &[
                "cell",
                "survival",
                "success",
                "degraded time",
                "recover (s)",
                "p50 time (s)",
            ],
            &matrix_rows,
        ));
    }
    let json = Json::object()
        .field(
            "scenario",
            "Package Delivery; ScenarioGenerator seed 29 drawing density/extent/noise/\
             rates/replan-mode/exec-model per episode; grid seed 31 pins rates+mode per cell",
        )
        .field("episodes", episodes)
        .field("wall_secs", wall_secs)
        .field("episodes_per_sec", episodes_per_sec)
        .field("aggregate", stats.to_json())
        .field("rate_grid", grid.to_json())
        .field("classes", class_json);
    let json = match fault_matrix {
        Some(cells) => json.field("fault_matrix", cells.to_json()),
        None => json,
    };
    FigureOutput { text, json }
}
