//! Macro benchmark of shared-table replicate groups: K=8 replicate
//! lanes of one 8×8 cell run serially (each lane rebuilds its
//! route/neighbor tables) versus as one `Experiment::run_batch` group
//! (lanes still run one after another, but those tables are built
//! once). Post-fault reroutes are not what separates the two cells:
//! every network in the process, serial or grouped, takes its up*/down*
//! tables from `noc-sim`'s process-wide reroute cache, so both cells
//! solve each dead set once.
//!
//! The cell is fault-churn heavy — a long schedule of link failures
//! spread across the simulated window — the degradation-sweep regime,
//! where every lane walks the same sequence of dead sets.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use noc_fault::hardfault::HardFaultSchedule;
use noc_sim::config::NocConfig;
use noc_sim::topology::Mesh;
use noc_sim::traffic::TrafficPattern;
use rlnoc_core::benchmarks::{PhaseSpec, WorkloadProfile};
use rlnoc_core::{ErrorControlScheme, Experiment};
use std::sync::Arc;

const LANES: u64 = 8;

/// Sparse uniform load: enough traffic that the reroute tables are
/// exercised, little enough that fault-event processing dominates.
fn sparse_workload(duration: u64) -> WorkloadProfile {
    WorkloadProfile {
        name: "sparse",
        phases: vec![PhaseSpec {
            cycles: duration,
            injection_rate: 0.002,
            pattern: TrafficPattern::UniformRandom,
        }],
        duration_cycles: duration,
    }
}

/// The K=8 replicate lanes of one fault-churn cell, seeded the way
/// `Campaign::tasks` derives replicate seeds.
fn lanes() -> Vec<Experiment> {
    let schedule = Arc::new(HardFaultSchedule::random(
        Mesh::new(8, 8),
        40,
        0,
        (100, 1_300),
        31,
    ));
    (0..LANES)
        .map(|i| {
            Experiment::builder()
                .scheme(ErrorControlScheme::StaticCrc)
                .workload(sparse_workload(1_200))
                .noc(NocConfig::builder().mesh(8, 8).build())
                .warmup_cycles(100)
                .measure_cycles(1_200)
                .drain_limit(20_000)
                .hard_faults(schedule.clone())
                .seed(rand::seed_stream(41, i))
                .build()
                .expect("valid bench lane")
        })
        .collect()
}

/// K fault-free replicate lanes: the sim-dominated regime where no
/// reroute table is ever needed, so the cell tracks the per-lane cost
/// of the cycle kernel itself.
fn fault_free_lanes(k: u64) -> Vec<Experiment> {
    (0..k)
        .map(|i| {
            Experiment::builder()
                .scheme(ErrorControlScheme::StaticCrc)
                .workload(sparse_workload(1_200))
                .noc(NocConfig::builder().mesh(8, 8).build())
                .warmup_cycles(100)
                .measure_cycles(1_200)
                .drain_limit(20_000)
                .seed(rand::seed_stream(41, i))
                .build()
                .expect("valid bench lane")
        })
        .collect()
}

fn bench_campaign_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_batched");
    group.bench_function("serial_8x8_k8", |b| {
        b.iter_batched(
            lanes,
            |ls| ls.into_iter().map(Experiment::run).collect::<Vec<_>>(),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("shared_8x8_k8", |b| {
        b.iter_batched(lanes, Experiment::run_batch, BatchSize::LargeInput)
    });
    // Width sweep over the fault-free regime: tracks the per-lane cost
    // of the fused cycle kernel without any reroute amortization.
    group.bench_function("fault_free_k8", |b| {
        b.iter_batched(
            || fault_free_lanes(8),
            Experiment::run_batch,
            BatchSize::LargeInput,
        )
    });
    group.bench_function("fault_free_k16", |b| {
        b.iter_batched(
            || fault_free_lanes(16),
            Experiment::run_batch,
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_campaign_batched
}
criterion_main!(benches);
