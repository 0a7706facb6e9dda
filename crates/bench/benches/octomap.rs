//! Criterion benches for the OctoMap kernel: insertion cost vs resolution
//! (the measured counterpart of Fig. 18) into a new and into a reset map,
//! query cost, warm-map scan insertion, frontier extraction (the block-mask
//! candidate pass beside the free-voxel list and the full-tree walk) and a
//! whole mapping-mission episode (the episodes/sec figure the ROADMAP's
//! Monte-Carlo item tracks).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mav_core::{run_mission, run_mission_with_scratch, EpisodeScratch, MissionConfig};
use mav_env::EnvironmentConfig;
use mav_perception::{OctoMap, OctoMapConfig, PointCloud};
use mav_planning::FrontierExplorer;
use mav_sensors::{DepthCamera, DepthCameraConfig};
use mav_types::{Pose, Vec3};

fn capture_clouds() -> Vec<PointCloud> {
    let world = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
    let camera = DepthCamera::new(DepthCameraConfig::default());
    (0..3)
        .map(|i| {
            let pose = Pose::new(Vec3::new(i as f64 * 8.0 - 8.0, 0.0, 2.5), i as f64);
            PointCloud::from_depth_image(&camera.capture(&world, &pose))
        })
        .collect()
}

fn bench_octomap_insertion(c: &mut Criterion) {
    let clouds = capture_clouds();
    let mut group = c.benchmark_group("octomap_insert_vs_resolution");
    group.sample_size(10);
    for resolution in [0.15, 0.3, 0.5, 0.8, 1.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(resolution),
            &resolution,
            |b, &res| {
                b.iter(|| {
                    let mut map = OctoMap::new(OctoMapConfig::with_resolution(res), 96.0);
                    for cloud in &clouds {
                        map.insert_point_cloud(cloud);
                    }
                    map.known_voxel_count()
                })
            },
        );
    }
    group.finish();
}

/// The same insertion into one map `reset` before each iteration, as
/// `EpisodeScratch` reuses a map across episodes: the insertion cost alone,
/// where `octomap_insert_vs_resolution` also times `OctoMap::new` (the block
/// hash and the per-axis centre table).
fn bench_octomap_insert_reset(c: &mut Criterion) {
    let clouds = capture_clouds();
    let mut group = c.benchmark_group("octomap_insert_reset");
    group.sample_size(10);
    for resolution in [0.15, 0.3, 0.5, 0.8, 1.0] {
        let config = OctoMapConfig::with_resolution(resolution);
        let mut map = OctoMap::new(config, 96.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(resolution),
            &config,
            |b, &config| {
                b.iter(|| {
                    map.reset(config, 96.0);
                    for cloud in &clouds {
                        map.insert_point_cloud(cloud);
                    }
                    map.known_voxel_count()
                })
            },
        );
    }
    group.finish();
}

fn bench_octomap_queries(c: &mut Criterion) {
    let clouds = capture_clouds();
    let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.5), 96.0);
    for cloud in &clouds {
        map.insert_point_cloud(cloud);
    }
    c.bench_function("octomap_segment_free_20m", |b| {
        b.iter(|| {
            map.segment_free(
                &Vec3::new(0.0, -10.0, 2.0),
                &Vec3::new(0.0, 10.0, 2.0),
                0.33,
            )
        })
    });
    c.bench_function("octomap_point_query", |b| {
        b.iter(|| map.query(&Vec3::new(5.0, 3.0, 2.0)))
    });
}

/// Scan insertion into a *warm* map: the steady-state mapping-mission shape
/// (most leaves already exist, so the per-voxel work is a value update, not a
/// node allocation). Each iteration inserts into a fresh clone of the warm
/// map.
fn bench_scan_insertion(c: &mut Criterion) {
    let clouds = capture_clouds();
    let mut warm = OctoMap::new(OctoMapConfig::with_resolution(0.3), 96.0);
    for cloud in &clouds {
        warm.insert_point_cloud(cloud);
    }
    let mut group = c.benchmark_group("octomap_scan_insert");
    group.sample_size(10);
    group.bench_function("serial_warm", |b| {
        b.iter(|| {
            let mut map = warm.clone();
            for cloud in &clouds {
                map.insert_point_cloud(cloud);
            }
            map.update_count()
        })
    });
    group.finish();
}

/// Frontier extraction on a partially mapped world: `find_frontiers` pays one
/// `frontier_voxel_centers_into` pass over the block masks (the free voxels
/// in the altitude band with an unknown face neighbour) plus the clustering
/// pass — exactly what mapping / search-and-rescue tick every replan. The
/// free-voxel list it replaced is benched beside it.
fn bench_frontier_extraction(c: &mut Criterion) {
    let clouds = capture_clouds();
    let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.5), 96.0);
    for cloud in &clouds {
        map.insert_point_cloud(cloud);
    }
    let explorer = FrontierExplorer::default();
    let mut group = c.benchmark_group("octomap_frontier");
    group.sample_size(10);
    group.bench_function("free_voxel_centers", |b| {
        b.iter(|| map.free_voxel_centers().len())
    });
    let band = explorer.config();
    let mut candidates = Vec::new();
    group.bench_function("frontier_voxel_centers", |b| {
        b.iter(|| {
            map.frontier_voxel_centers_into(band.min_altitude, band.max_altitude, &mut candidates);
            candidates.len()
        })
    });
    group.bench_function("find_frontiers", |b| {
        b.iter(|| explorer.find_frontiers(&map).len())
    });
    group.finish();
}

/// One whole fast-profile 3D Mapping mission: the episodes/sec figure for the
/// ROADMAP's Monte-Carlo reliability trajectory (scan insertion + frontier
/// extraction dominate its wall time). `fast_episode` allocates everything
/// per episode at the historical configuration (extent 25 m, fast-profile
/// default resolution), so its episodes/sec line is comparable across PRs;
/// `fast_episode_scratch` is the same mission through a persistent
/// [`EpisodeScratch`] — the paired A/B of the zero-realloc episode-reuse
/// layer (identical reports, pinned by the core tests).
///
/// The `fine_episode` pair repeats the A/B at 0.30 m static resolution
/// (inside the paper's 0.15–0.80 m case-study band): a ~50k-voxel map per
/// episode is where the allocate/fault/drop cost the scratch layer removes
/// shows most clearly.
fn bench_mapping_mission(c: &mut Criterion) {
    let episode_config = |resolution: Option<f64>| {
        let mut cfg = MissionConfig::fast_test(mav_compute::ApplicationId::Mapping3D).with_seed(4);
        cfg.environment.extent = 25.0;
        if let Some(resolution) = resolution {
            cfg.resolution_policy = mav_core::config::ResolutionPolicy::Static { resolution };
        }
        cfg
    };
    let mut group = c.benchmark_group("mapping_mission");
    // Whole-mission samples are ~10 ms and the paired fresh/scratch ratio is
    // the quantity of record, so buy extra samples for a stable median.
    group.sample_size(40);
    group.bench_function("fast_episode", |b| {
        b.iter(|| run_mission(episode_config(None)).mission_time_secs)
    });
    let mut scratch = EpisodeScratch::new();
    group.bench_function("fast_episode_scratch", |b| {
        b.iter(|| run_mission_with_scratch(episode_config(None), &mut scratch).mission_time_secs)
    });
    group.bench_function("fine_episode", |b| {
        b.iter(|| run_mission(episode_config(Some(0.3))).mission_time_secs)
    });
    let mut scratch = EpisodeScratch::new();
    group.bench_function("fine_episode_scratch", |b| {
        b.iter(|| {
            run_mission_with_scratch(episode_config(Some(0.3)), &mut scratch).mission_time_secs
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_octomap_insertion,
    bench_octomap_insert_reset,
    bench_octomap_queries,
    bench_scan_insertion,
    bench_frontier_extraction,
    bench_mapping_mission
);
criterion_main!(benches);
