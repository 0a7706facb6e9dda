//! Criterion benches for the perception kernels: depth capture, point-cloud
//! generation, object detection and the SLAM failure model.
use criterion::{criterion_group, criterion_main, Criterion};
use mav_compute::ApplicationId;
use mav_core::ScenarioGenerator;
use mav_env::{EnvironmentConfig, ObstacleClass};
use mav_perception::{
    DetectorConfig, DownsampleScratch, ObjectDetector, PointCloud, SlamConfig, VisualSlam,
};
use mav_sensors::{DepthCamera, DepthCameraConfig, DepthNoiseModel};
use mav_types::{Pose, Vec3};

fn bench_depth_and_pointcloud(c: &mut Criterion) {
    let world = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
    let camera = DepthCamera::new(DepthCameraConfig::default());
    let pose = Pose::new(Vec3::new(0.0, 0.0, 2.5), 0.0);
    c.bench_function("depth_capture_32x24", |b| {
        b.iter(|| camera.capture(&world, &pose).coverage())
    });
    let frame = camera.capture(&world, &pose);
    c.bench_function("pointcloud_generation", |b| {
        b.iter(|| PointCloud::from_depth_image(&frame).len())
    });
    let cloud = PointCloud::from_depth_image(&frame);
    c.bench_function("pointcloud_downsample_0.5m", |b| {
        b.iter(|| cloud.downsample(0.5).len())
    });
    c.bench_function("pointcloud_downsample_0.8m", |b| {
        b.iter(|| cloud.downsample(0.8).len())
    });
    let mut noise = DepthNoiseModel::new(1.0, 7);
    c.bench_function("depth_noise_injection", |b| {
        b.iter(|| {
            let mut f = frame.clone();
            noise.apply(&mut f);
            f.coverage()
        })
    });
}

/// The perception front-end as the benchmark workloads run it: the
/// missions' camera on the worlds of the first eight `ScenarioGenerator`
/// episodes, Search and Rescue (`explore`, 11–16 boxes) and Package Delivery
/// (`deliver`, 1–6 boxes), from the mission start at eight headings; then
/// cloud fill and downsampling at the missions' 0.8 m into reused buffers.
/// The default `disaster_site()` world has about 68 boxes, so it would
/// overstate capture cost.
fn bench_mission_front_end(c: &mut Criterion) {
    for (name, application) in [
        ("search_rescue", ApplicationId::SearchAndRescue),
        ("package_delivery", ApplicationId::PackageDelivery),
    ] {
        let generator = ScenarioGenerator::new(application, 1);
        let scenes: Vec<_> = (0..8)
            .map(|i| {
                let config = generator.episode(i);
                let start = Vec3::new(0.0, 0.0, config.quadrotor.cruise_altitude);
                let pose = Pose::new(start, i as f64 * std::f64::consts::FRAC_PI_4);
                (
                    config.environment.generate(),
                    DepthCamera::new(config.camera),
                    pose,
                )
            })
            .collect();
        let frame_size = scenes[0].1.config();
        let size = format!("{}x{}", frame_size.width, frame_size.height);
        c.bench_function(format!("depth_capture_{size}_{name}"), |b| {
            b.iter(|| {
                scenes
                    .iter()
                    .map(|(world, camera, pose)| camera.capture(world, pose).coverage())
                    .sum::<f64>()
            })
        });
        let frames: Vec<_> = scenes
            .iter()
            .map(|(world, camera, pose)| camera.capture(world, pose))
            .collect();
        let mut raw = PointCloud::default();
        c.bench_function(format!("pointcloud_fill_{size}_{name}"), |b| {
            b.iter(|| {
                frames
                    .iter()
                    .map(|frame| {
                        raw.fill_from_depth_image(frame);
                        raw.len()
                    })
                    .sum::<usize>()
            })
        });
        let clouds: Vec<_> = frames.iter().map(PointCloud::from_depth_image).collect();
        let mut scratch = DownsampleScratch::default();
        let mut coarse = PointCloud::default();
        c.bench_function(format!("pointcloud_downsample_0.8m_{size}_{name}"), |b| {
            b.iter(|| {
                clouds
                    .iter()
                    .map(|cloud| {
                        cloud.downsample_into(0.8, &mut scratch, &mut coarse);
                        coarse.len()
                    })
                    .sum::<usize>()
            })
        });
    }
}

fn bench_detection_and_slam(c: &mut Criterion) {
    let world = EnvironmentConfig::disaster_site().with_seed(5).generate();
    let pose = Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0);
    c.bench_function("object_detection_scene_query", |b| {
        let mut detector = ObjectDetector::new(DetectorConfig::default());
        b.iter(|| {
            detector
                .detect_class(&world, &pose, ObstacleClass::Person)
                .is_some()
        })
    });
    c.bench_function("visual_slam_frame", |b| {
        let mut slam = VisualSlam::new(SlamConfig::with_fps(5.0));
        b.iter(|| slam.localize(&Vec3::new(3.0, 0.0, 0.0)))
    });
}

criterion_group!(
    benches,
    bench_depth_and_pointcloud,
    bench_mission_front_end,
    bench_detection_and_slam
);
criterion_main!(benches);
