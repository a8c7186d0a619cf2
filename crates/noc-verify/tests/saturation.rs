//! Saturated meshes, optimized kernel against the reference model.
//!
//! Nothing else in the differential stream saturates: the fuzz cases'
//! injection rates come from the PARSEC profiles (at most 0.026
//! packets/node/cycle). Here 3×3 and 4×4 meshes are offered 0.04 and
//! 0.06 under static CRC (end-to-end retransmissions) and static ARQ+ECC
//! (hop-level retransmissions), so source queues grow for the whole
//! window and retransmissions reassemble beside ids thousands newer than
//! their own. Every run must match the reference model byte for byte,
//! and destination reassembly must cost what is live there — at most
//! [`SLOTS_PER_ENTRY`] entries scanned per entry opened — not the id
//! gap.
//!
//! The full slice (`--ignored`, 50 000 cycles per run) is sized for a
//! release build; the default test runs one short saturated case.

use noc_sim::config::NocConfig;
use noc_sim::traffic::TrafficPattern;
use rlnoc_core::benchmarks::{PhaseSpec, WorkloadProfile};
use rlnoc_core::experiment::ExperimentBuilder;
use rlnoc_core::{ErrorControlScheme, Experiment};
use rlnoc_telemetry::Telemetry;
use rlnoc_verify::ReferenceBackend;

/// Reassembly entries scanned per entry opened.
const SLOTS_PER_ENTRY: u64 = 16;

fn saturated(side: u16, rate: f64, scheme: ErrorControlScheme, cycles: u64) -> ExperimentBuilder {
    let workload = WorkloadProfile {
        name: "saturated",
        phases: vec![PhaseSpec {
            cycles,
            injection_rate: rate,
            pattern: TrafficPattern::UniformRandom,
        }],
        duration_cycles: cycles,
    };
    Experiment::builder()
        .scheme(scheme)
        .workload(workload)
        .noc(NocConfig::builder().mesh(side, side).build())
        .seed(2019)
        .pretrain_cycles(0)
        .warmup_cycles(0)
        .measure_cycles(cycles)
        .drain_limit(2 * cycles)
}

/// Runs one case untraced, traced (which also counts reassembly work)
/// and on the reference model.
fn check(side: u16, rate: f64, scheme: ErrorControlScheme, cycles: u64) {
    let label = format!("{side}x{side} at {rate} under {scheme}");
    let build = |builder: ExperimentBuilder| builder.build().expect("saturation case must build");
    let telemetry = Telemetry::enabled();
    let plain = build(saturated(side, rate, scheme, cycles)).run();
    let traced = build(saturated(side, rate, scheme, cycles).telemetry(telemetry.clone())).run();
    let reference =
        build(saturated(side, rate, scheme, cycles)).run_with_backend::<ReferenceBackend>();
    for (shape, report) in [("untraced", &plain), ("traced", &traced)] {
        let diffs = report.diff(&reference);
        assert!(diffs.is_empty(), "{label}, {shape}: diverged {diffs:?}");
    }
    assert!(plain.packets_injected > 0, "{label} offered nothing");
    let entries = telemetry.counter("sim.reassembly.entries").get();
    let touched = telemetry.counter("sim.reassembly.slots_touched").get();
    assert!(
        entries >= plain.packets_delivered,
        "{label}: {entries} entries"
    );
    assert!(
        touched <= SLOTS_PER_ENTRY * entries,
        "{label}: {touched} reassembly slots touched for {entries} entries"
    );
}

#[test]
fn a_saturated_mesh_matches_the_reference() {
    check(3, 0.06, ErrorControlScheme::StaticCrc, 4_000);
}

#[test]
#[ignore = "release-mode saturation slice, run by the CI verify job"]
fn saturated_meshes_match_the_reference_and_bound_reassembly_work() {
    for side in [3, 4] {
        for rate in [0.04, 0.06] {
            for scheme in [
                ErrorControlScheme::StaticCrc,
                ErrorControlScheme::StaticArqEcc,
            ] {
                check(side, rate, scheme, 50_000);
            }
        }
    }
}
