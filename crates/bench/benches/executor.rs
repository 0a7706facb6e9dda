//! Criterion benches for the PR 5 executor work: the exec-model × per-node
//! DVFS missions of the `exec_model_sweep` experiment (paired host wall
//! times; the *simulated* mission times are the experiment's own output and
//! are recorded next to these in BENCH_pr5.json).

use criterion::{criterion_group, criterion_main, Criterion};
use mav_compute::ApplicationId;
use mav_core::experiments::{exec_model_grid, exec_model_scenario};
use mav_core::{run_mission, MissionConfig};

fn bench_exec_model_missions(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_model_mission");
    group.sample_size(10);
    for (model, ops, label) in exec_model_grid() {
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = exec_model_scenario(MissionConfig::new(ApplicationId::PackageDelivery))
                    .with_exec_model(model)
                    .with_node_ops(ops);
                run_mission(cfg).mission_time_secs
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exec_model_missions);
criterion_main!(benches);
