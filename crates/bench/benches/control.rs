//! Criterion benches for the control kernels: PID updates and path tracking.
use criterion::{criterion_group, criterion_main, Criterion};
use mav_control::{PathTracker, Pid, PidConfig};
use mav_dynamics::{MavState, Quadrotor, QuadrotorConfig};
use mav_types::{Pose, SimTime, Trajectory, Vec3};

fn bench_control(c: &mut Criterion) {
    c.bench_function("pid_update", |b| {
        let mut pid = Pid::new(PidConfig::new(1.0, 0.1, 0.05));
        let mut error = 1.0;
        b.iter(|| {
            error = 1.0 - pid.update(error, 0.05) * 0.01;
            error
        })
    });
    let trajectory = Trajectory::from_waypoints(
        &[
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(40.0, 0.0, 2.0),
            Vec3::new(40.0, 40.0, 2.0),
        ],
        5.0,
        SimTime::ZERO,
    );
    let tracker = PathTracker;
    let state = MavState::at_rest(Pose::new(Vec3::new(3.0, 1.0, 2.0), 0.0));
    c.bench_function("path_tracking_command", |b| {
        b.iter(|| {
            tracker
                .command(&trajectory, &state, SimTime::from_secs(2.0))
                .velocity
        })
    });
    c.bench_function("quadrotor_physics_step", |b| {
        let mut quad = Quadrotor::new(QuadrotorConfig::dji_matrice_100(), Pose::origin());
        b.iter(|| quad.step(Vec3::new(5.0, 1.0, 0.5), 0.05))
    });
}

criterion_group!(benches, bench_control);
criterion_main!(benches);
