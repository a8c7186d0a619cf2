//! Ad-hoc wall-clock breakdown of one campaign lane: total run time vs
//! time inside the simulator's per-cycle phases (telemetry spans).
//!
//! Not a benchmark — a diagnosis tool for deciding which layer to
//! optimize next. Run with `cargo run --release -p rlnoc-bench
//! --example profile_campaign`.

use noc_fault::hardfault::HardFaultSchedule;
use noc_sim::config::NocConfig;
use noc_sim::topology::Mesh;
use noc_sim::traffic::TrafficPattern;
use rlnoc_core::benchmarks::{PhaseSpec, WorkloadProfile};
use rlnoc_core::{ErrorControlScheme, Experiment};
use rlnoc_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

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

/// Replicate `i` of the campaign cell, with or without the 40-link
/// fault schedule.
fn lane(i: u64, faulted: bool, telemetry: Option<&Telemetry>) -> Experiment {
    let mut b = Experiment::builder()
        .scheme(ErrorControlScheme::StaticCrc)
        .workload(sparse_workload(1_200))
        .noc(NocConfig::builder().mesh(8, 8).build())
        .warmup_cycles(100)
        .measure_cycles(1_200)
        .drain_limit(20_000)
        .seed(rand::seed_stream(41, i));
    if faulted {
        b = b.hard_faults(Arc::new(HardFaultSchedule::random(
            Mesh::new(8, 8),
            40,
            0,
            (100, 1_300),
            31,
        )));
    }
    if let Some(t) = telemetry {
        b = b.telemetry(t.clone());
    }
    b.build().expect("valid lane")
}

fn main() {
    // Eight replicates with telemetry, one after another: aggregate
    // phase sums (the first computes each reroute, later ones hit the
    // process-wide cache).
    {
        let tel = Telemetry::enabled();
        let t0 = Instant::now();
        for i in 0..8 {
            let _r = lane(i, true, Some(&tel)).run();
        }
        println!("serial8 with telemetry: {:?}", t0.elapsed());
        for name in [
            "sim.phase.process_events",
            "sim.phase.inject",
            "sim.phase.sa_st",
            "sim.phase.va",
            "sim.phase.rc",
            "sim.phase.sample",
            "sim.hardfault.apply",
        ] {
            let snap = tel.timer(name).snapshot();
            println!(
                "  {name}: count {} sum {:.3} ms",
                snap.count,
                snap.sum as f64 / 1e6
            );
        }
    }

    // Pass 0: fault-free lane for comparison.
    let t0 = Instant::now();
    let ff = lane(0, false, None).run();
    println!(
        "fault-free lane run: {:?} (delivered {})",
        t0.elapsed(),
        ff.packets_delivered
    );

    // Pass 1: plain wall time, fused path (no telemetry).
    let t0 = Instant::now();
    let report = lane(0, true, None).run();
    let plain = t0.elapsed();
    println!("plain lane run: {plain:?}");
    println!(
        "  delivered {} / injected {}",
        report.packets_delivered, report.packets_injected
    );

    // Pass 2: telemetry enabled (split path) to get per-phase sums.
    let tel = Telemetry::enabled();
    let t0 = Instant::now();
    let _report = lane(0, true, Some(&tel)).run();
    let spanned = t0.elapsed();
    println!("spanned lane run: {spanned:?}");
    let mut phase_total = 0u64;
    for name in [
        "sim.phase.process_events",
        "sim.phase.inject",
        "sim.phase.sa_st",
        "sim.phase.va",
        "sim.phase.rc",
        "sim.phase.sample",
        "sim.hardfault.apply",
    ] {
        let snap = tel.timer(name).snapshot();
        phase_total += snap.sum;
        println!(
            "  {name}: count {} sum {:.3} ms mean {:.0} ns",
            snap.count,
            snap.sum as f64 / 1e6,
            snap.mean()
        );
    }
    println!("  phases total: {:.3} ms", phase_total as f64 / 1e6);
    for (name, v) in tel.counter_snapshot() {
        if name.contains("cycle") || name.contains("worklist") {
            println!("  counter {name}: {v}");
        }
    }
}
