//! Criterion benches for the energy substrate: Eq. 1 evaluation, battery
//! coulomb counting and mission energy accounting.
use criterion::{criterion_group, criterion_main, Criterion};
use mav_energy::{
    Battery, BatteryConfig, ComputePowerModel, EnergyAccount, FlightPhaseLabel, RotorPowerModel,
};
use mav_types::{Power, SimDuration, Vec3};

fn bench_energy(c: &mut Criterion) {
    let rotor = RotorPowerModel::dji_matrice_100();
    c.bench_function("rotor_power_eq1", |b| {
        b.iter(|| {
            rotor
                .power(
                    &Vec3::new(6.0, 1.0, 0.5),
                    &Vec3::new(1.0, 0.0, 0.0),
                    &Vec3::new(0.5, 0.0, 0.0),
                )
                .as_watts()
        })
    });
    c.bench_function("compute_power_model", |b| {
        let m = ComputePowerModel::tx2();
        b.iter(|| m.power(4, 2.2).as_watts())
    });
    c.bench_function("battery_discharge_step", |b| {
        let mut battery = Battery::new(BatteryConfig::matrice_tb47());
        b.iter(|| battery.discharge(Power::from_watts(330.0), SimDuration::from_millis(50.0)))
    });
    c.bench_function("energy_account_record", |b| {
        let mut acc = EnergyAccount::new();
        b.iter(|| {
            acc.record(
                SimDuration::from_millis(50.0),
                Power::from_watts(330.0),
                Power::from_watts(13.0),
                FlightPhaseLabel::Flying,
            )
        })
    });
}

criterion_group!(benches, bench_energy);
criterion_main!(benches);
