//! The lane-equivalence test wall for shared-table replicate groups
//! (`Experiment::run_batch`).
//!
//! Every test here pins the same contract from a different angle: a
//! lane of a batched run is byte-identical — the full
//! [`ExperimentReport`], every field — to running that experiment alone
//! on the serial backend. Lanes share immutable tables — routes and
//! neighbors through [`noc_sim::network::SharedTables`], post-fault
//! reroutes through the process-wide cache — so these tests are what
//! makes "shared" provably mean "read-only".

use noc_fault::hardfault::HardFaultSchedule;
use noc_sim::config::NocConfig;
use noc_sim::error_control::PerfectLink;
use noc_sim::network::{HardFaultEvent, HardFaultKind, Network};
use noc_sim::topology::{Direction, FoldedTorus, Mesh, Mesh3d, NodeId, Topo, Torus};
use rlnoc_core::experiment::ExperimentReport;
use rlnoc_core::{ErrorControlScheme, Experiment, WorkloadProfile};
use std::sync::Arc;

/// One replicate lane of a campaign cell. `cell_seed` picks the cell,
/// `lane` derives the replicate seed the way `Campaign::tasks` does.
fn lane(
    scheme: ErrorControlScheme,
    workload: WorkloadProfile,
    cell_seed: u64,
    lane: u64,
    faults: Option<Arc<HardFaultSchedule>>,
) -> Experiment {
    lane_on(Mesh::new(4, 4), scheme, workload, cell_seed, lane, faults)
}

/// Same cell shape on an arbitrary zoo member.
fn lane_on(
    topo: impl Into<Topo>,
    scheme: ErrorControlScheme,
    workload: WorkloadProfile,
    cell_seed: u64,
    lane: u64,
    faults: Option<Arc<HardFaultSchedule>>,
) -> Experiment {
    let mut builder = Experiment::builder()
        .scheme(scheme)
        .workload(workload)
        .noc(NocConfig::builder().topology(topo).build())
        .pretrain_cycles(3_000)
        .warmup_cycles(500)
        .measure_cycles(3_000)
        .drain_limit(30_000)
        .seed(rand::seed_stream(cell_seed, lane));
    if let Some(schedule) = faults {
        builder = builder.hard_faults(schedule);
    }
    builder.build().expect("valid lane configuration")
}

fn serial_reports(lanes: &[Experiment]) -> Vec<ExperimentReport> {
    lanes.iter().cloned().map(Experiment::run).collect()
}

/// The process-wide reroute cache, pinned by its counters: on a dead
/// set no other test in this binary produces (a 3×5 folded torus), the
/// first network through a schedule solves every batch, and a second —
/// independently built, different seed — is served every batch from the
/// cache and routes on equal tables. `solves + hits == reroute_events`
/// on each.
#[test]
fn second_network_through_a_schedule_is_served_from_the_route_cache() {
    let config = NocConfig::builder()
        .topology(FoldedTorus::new(3, 5))
        .build();
    let kill = |cycle, node, dir| HardFaultEvent {
        cycle,
        kind: HardFaultKind::Link {
            node: NodeId(node),
            dir,
        },
    };
    let schedule = vec![
        kill(2, 5, Direction::East),
        kill(4, 7, Direction::South),
        HardFaultEvent {
            cycle: 6,
            kind: HardFaultKind::Router { node: NodeId(11) },
        },
    ];
    let through_schedule = |seed: u64| {
        let telemetry = rlnoc_telemetry::Telemetry::enabled();
        let mut net = Network::new(config, PerfectLink::new(), seed);
        net.set_telemetry(&telemetry);
        net.set_hard_faults(schedule.clone());
        for _ in 0..8 {
            net.step();
        }
        let batches = net.stats().reroute_events;
        assert_eq!(batches, 3);
        let count = |name: &str| telemetry.counter(name).get();
        (
            count("sim.hardfault.route_solves"),
            count("sim.hardfault.route_cache_hits"),
            net.fault_routes().expect("faults applied").clone(),
        )
    };
    let (solves, hits, first) = through_schedule(1);
    assert_eq!((solves, hits), (3, 0), "first network pays every solve");
    let (solves, hits, second) = through_schedule(2);
    assert_eq!((solves, hits), (0, 3), "second network pays none");
    assert_eq!(first, second, "a hit unpacks to the solved table");
}

#[test]
fn every_lane_is_byte_identical_to_serial_for_k_1_2_3_4_5_7_8() {
    // Ragged counts included: the group must not care how many lanes it
    // is given.
    for k in [1usize, 2, 3, 4, 5, 7, 8] {
        let lanes: Vec<Experiment> = (0..k as u64)
            .map(|i| {
                lane(
                    ErrorControlScheme::ProposedRl,
                    WorkloadProfile::blackscholes(),
                    7,
                    i,
                    None,
                )
            })
            .collect();
        let serial = serial_reports(&lanes);
        let batched = Experiment::run_batch(lanes);
        assert_eq!(serial, batched, "K={k} lanes must match serial exactly");
    }
}

#[test]
fn results_are_invariant_under_lane_permutation() {
    let build = |order: &[u64]| -> Vec<Experiment> {
        order
            .iter()
            .map(|&i| {
                lane(
                    ErrorControlScheme::ProposedRl,
                    WorkloadProfile::blackscholes(),
                    13,
                    i,
                    None,
                )
            })
            .collect()
    };
    let forward = Experiment::run_batch(build(&[0, 1, 2, 3]));
    let shuffled = Experiment::run_batch(build(&[2, 0, 3, 1]));
    for (slot, &src) in [2usize, 0, 3, 1].iter().enumerate() {
        assert_eq!(
            shuffled[slot], forward[src],
            "lane order is an execution detail, not an input"
        );
    }
}

#[test]
fn hard_faulted_lanes_share_reroute_tables_and_still_match_serial() {
    // All lanes carry the same schedule, so each post-fault reroute
    // table is solved once in this process and every later lane —
    // serial or batched — unpacks it from the cache. Identical reports
    // prove the cache is coherent.
    let schedule = Arc::new(HardFaultSchedule::random(
        Mesh::new(4, 4),
        3,
        1,
        (100, 5_000),
        23,
    ));
    let lanes: Vec<Experiment> = (0..4u64)
        .map(|i| {
            lane(
                ErrorControlScheme::ProposedRl,
                WorkloadProfile::blackscholes(),
                17,
                i,
                Some(schedule.clone()),
            )
        })
        .collect();
    let serial = serial_reports(&lanes);
    assert!(
        serial.iter().any(|r| r.hard_fault_events > 0),
        "the schedule must actually fire inside the simulated window"
    );
    let batched = Experiment::run_batch(lanes);
    assert_eq!(serial, batched, "shared reroute tables must be invisible");
}

#[test]
fn mixed_cells_in_one_batch_match_serial() {
    // A batch is allowed to mix cells (different schemes, workloads,
    // and fault schedules): sharing degrades per cell, results do not.
    let schedule = Arc::new(HardFaultSchedule::random(
        Mesh::new(4, 4),
        2,
        0,
        (100, 4_000),
        29,
    ));
    let lanes = vec![
        lane(
            ErrorControlScheme::StaticCrc,
            WorkloadProfile::blackscholes(),
            19,
            0,
            None,
        ),
        lane(
            ErrorControlScheme::ProposedRl,
            WorkloadProfile::canneal(),
            19,
            1,
            Some(schedule.clone()),
        ),
        lane(
            ErrorControlScheme::DecisionTree,
            WorkloadProfile::blackscholes(),
            19,
            2,
            Some(schedule),
        ),
    ];
    let serial = serial_reports(&lanes);
    let batched = Experiment::run_batch(lanes);
    assert_eq!(serial, batched);
}

#[test]
fn lanes_whose_operation_modes_diverge_still_match_serial() {
    // RL-controlled lanes with different replicate seeds drift into
    // different operation modes mid-run, so the fused kernel executes
    // genuinely different per-hop protection paths (ARQ on/off, ECC
    // on/off) lane by lane. The run is only meaningful if that
    // divergence actually happens, so it is asserted, not assumed.
    let lanes: Vec<Experiment> = (0..4u64)
        .map(|i| {
            lane(
                ErrorControlScheme::ProposedRl,
                WorkloadProfile::canneal(),
                37,
                i,
                None,
            )
        })
        .collect();
    let serial = serial_reports(&lanes);
    assert!(
        serial
            .iter()
            .any(|r| r.mode_histogram != serial[0].mode_histogram),
        "replicate lanes must diverge in mode decisions for this test to bite"
    );
    let batched = Experiment::run_batch(lanes);
    assert_eq!(serial, batched, "mode-divergent lanes must match serial");
}

#[test]
fn per_lane_distinct_mid_run_fault_schedules_match_serial() {
    // Every lane carries a *different* schedule (router kills included),
    // so no lane's reroute is another lane's cache hit and each lane
    // walks its own evacuation/divert/purge path through the
    // fused kernel while traffic is in flight.
    let lanes: Vec<Experiment> = (0..4u64)
        .map(|i| {
            let schedule = Arc::new(HardFaultSchedule::random(
                Mesh::new(4, 4),
                2,
                1,
                (600, 3_000),
                43 + i,
            ));
            lane(
                ErrorControlScheme::StaticArqEcc,
                WorkloadProfile::blackscholes(),
                31,
                i,
                Some(schedule),
            )
        })
        .collect();
    let serial = serial_reports(&lanes);
    assert!(
        serial.iter().all(|r| r.hard_fault_events > 0),
        "every lane's schedule must fire mid-run"
    );
    assert!(
        serial
            .iter()
            .any(|r| r.reroute_events != serial[0].reroute_events
                || r.packets_lost_hard_fault != serial[0].packets_lost_hard_fault
                || r.packets_delivered != serial[0].packets_delivered),
        "distinct schedules must produce observably different lane outcomes"
    );
    let batched = Experiment::run_batch(lanes);
    assert_eq!(
        serial, batched,
        "per-lane fault schedules must match serial"
    );
}

#[test]
fn telemetry_spans_leave_every_report_byte_unchanged() {
    // With telemetry enabled the simulator steps through the six
    // *split* spanned phases; disabled, it runs the fused single-pass
    // kernel. Identical reports under both settings prove the fused
    // kernel is observation-equivalent to the split shape — and that
    // instrumentation never perturbs results.
    let schedule = Arc::new(HardFaultSchedule::random(
        Mesh::new(4, 4),
        3,
        1,
        (100, 5_000),
        23,
    ));
    let build = |tel: Option<rlnoc_telemetry::Telemetry>| -> Vec<Experiment> {
        (0..3u64)
            .map(|i| {
                let mut b = Experiment::builder()
                    .scheme(ErrorControlScheme::ProposedRl)
                    .workload(WorkloadProfile::blackscholes())
                    .noc(NocConfig::builder().mesh(4, 4).build())
                    .pretrain_cycles(3_000)
                    .warmup_cycles(500)
                    .measure_cycles(3_000)
                    .drain_limit(30_000)
                    .hard_faults(schedule.clone())
                    .seed(rand::seed_stream(47, i));
                if let Some(t) = &tel {
                    b = b.telemetry(t.clone());
                }
                b.build().expect("valid lane configuration")
            })
            .collect()
    };
    let plain = serial_reports(&build(None));
    let spanned = serial_reports(&build(Some(rlnoc_telemetry::Telemetry::enabled())));
    assert_eq!(
        plain, spanned,
        "split (spanned) and fused (plain) pipelines must agree byte for byte"
    );
    let batched_spanned = Experiment::run_batch(build(Some(rlnoc_telemetry::Telemetry::enabled())));
    assert_eq!(plain, batched_spanned, "batched spanned runs agree too");
}

/// The lane-equivalence contract extended across the topology zoo:
/// batched lanes on a torus (with mid-run hard faults, so the
/// shared reroute cache covers wrap links), a folded torus, and a 3D
/// mesh (with faults hitting vertical links) all stay byte-identical
/// to their serial runs.
#[test]
fn zoo_lanes_match_serial() {
    let cells: [(Topo, Option<Arc<HardFaultSchedule>>); 3] = [
        (
            Torus::new(4, 4).into(),
            Some(Arc::new(HardFaultSchedule::random(
                Torus::new(4, 4),
                3,
                1,
                (3_600, 4_800),
                53,
            ))),
        ),
        (FoldedTorus::new(4, 4).into(), None),
        (
            Mesh3d::new(4, 2, 2).into(),
            Some(Arc::new(HardFaultSchedule::random(
                Mesh3d::new(4, 2, 2),
                2,
                1,
                (3_600, 4_800),
                59,
            ))),
        ),
    ];
    for (topo, faults) in cells {
        let lanes: Vec<Experiment> = (0..4u64)
            .map(|i| {
                lane_on(
                    topo,
                    ErrorControlScheme::ProposedRl,
                    WorkloadProfile::blackscholes(),
                    61,
                    i,
                    faults.clone(),
                )
            })
            .collect();
        let serial = serial_reports(&lanes);
        if faults.is_some() {
            assert!(
                serial.iter().any(|r| r.hard_fault_events > 0),
                "the {topo:?} schedule must fire inside the simulated window"
            );
        }
        let batched = Experiment::run_batch(lanes);
        assert_eq!(
            serial, batched,
            "{topo:?} lanes must be byte-identical to serial"
        );
    }
}

/// Deterministic fuzz over random (scheme, seed, fault) cells. Each
/// case runs 2 serial + 2 batched experiments; the case count is kept
/// small enough for the tier-1 budget and every case is reproducible
/// from the fixed root seed.
#[test]
fn fuzzed_cells_match_serial() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0xBA7C_E001);
    for case in 0..6u64 {
        let scheme = ErrorControlScheme::ALL[rng.gen_range(0..4usize)];
        let cell_seed: u64 = rng.gen_range(0..1_000u64);
        let faults = rng.gen_range(0..2u32).eq(&1).then(|| {
            Arc::new(HardFaultSchedule::random(
                Mesh::new(4, 4),
                2,
                0,
                (100, 4_000),
                cell_seed,
            ))
        });
        let lanes: Vec<Experiment> = (0..2u64)
            .map(|i| {
                lane(
                    scheme,
                    WorkloadProfile::blackscholes(),
                    cell_seed,
                    i,
                    faults.clone(),
                )
            })
            .collect();
        let serial = serial_reports(&lanes);
        let batched = Experiment::run_batch(lanes);
        assert_eq!(
            serial, batched,
            "fuzz case {case} ({scheme} seed {cell_seed}) diverged"
        );
    }
}
