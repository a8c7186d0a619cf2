//! Two contracts that let one simulation be swapped for another without
//! a report byte moving: the process-wide reroute cache hands a network
//! exactly the table it would have solved itself, and telemetry spans
//! never perturb a result.

use noc_fault::hardfault::HardFaultSchedule;
use noc_sim::config::NocConfig;
use noc_sim::error_control::PerfectLink;
use noc_sim::network::{HardFaultEvent, HardFaultKind, Network};
use noc_sim::topology::{Direction, FoldedTorus, Mesh, Mesh3d, NodeId, Topo, Torus};
use rlnoc_core::experiment::ExperimentReport;
use rlnoc_core::{ErrorControlScheme, Experiment, WorkloadProfile};
use std::sync::Arc;

/// The process-wide reroute cache, pinned by its counters across the
/// zoo: a folded torus, a torus whose wrap links die, and a 3D mesh
/// whose vertical links die — each a shape no other test in this binary
/// uses, so every dead set is new to the process. The first network
/// through a schedule solves every batch, and a second — independently
/// built, different seed — is served every batch from the cache and
/// routes on equal tables. `solves + hits == reroute_events` on each.
#[test]
fn second_zoo_network_through_a_schedule_is_served_from_the_route_cache() {
    let link = |cycle, node, dir| HardFaultEvent {
        cycle,
        kind: HardFaultKind::Link {
            node: NodeId(node),
            dir,
        },
    };
    let router = |cycle, node| HardFaultEvent {
        cycle,
        kind: HardFaultKind::Router { node: NodeId(node) },
    };
    let torus: Topo = Torus::new(5, 4).into();
    let cells: [(Topo, Vec<HardFaultEvent>); 3] = [
        (
            FoldedTorus::new(3, 5).into(),
            vec![
                link(2, 5, Direction::East),
                link(4, 7, Direction::South),
                router(6, 11),
            ],
        ),
        (
            torus,
            vec![
                // (4, 0) east and (2, 0) north both wrap around.
                link(2, torus.node_at(4, 0).0, Direction::East),
                link(4, torus.node_at(2, 0).0, Direction::North),
                router(6, 12),
            ],
        ),
        (
            Mesh3d::new(3, 3, 2).into(),
            vec![
                // Layer-0 routers 4 and 0 lose their links to layer 1.
                link(2, 4, Direction::Up),
                link(4, 0, Direction::Up),
                router(6, 16),
            ],
        ),
    ];
    for (topo, schedule) in cells {
        let config = NocConfig::builder().topology(topo).build();
        let through_schedule = |seed: u64| {
            let telemetry = rlnoc_telemetry::Telemetry::enabled();
            let mut net = Network::new(config, PerfectLink::new(), seed);
            net.set_telemetry(&telemetry);
            net.set_hard_faults(schedule.clone());
            for _ in 0..8 {
                net.step();
            }
            assert_eq!(net.stats().reroute_events, 3, "{topo:?}");
            let count = |name: &str| telemetry.counter(name).get();
            (
                count("sim.hardfault.route_solves"),
                count("sim.hardfault.route_cache_hits"),
                net.routes().clone(),
            )
        };
        let (solves, hits, first) = through_schedule(1);
        assert_eq!(
            (solves, hits),
            (3, 0),
            "{topo:?}: first network pays every solve"
        );
        let (solves, hits, second) = through_schedule(2);
        assert_eq!((solves, hits), (0, 3), "{topo:?}: second network pays none");
        assert_eq!(first, second, "{topo:?}: a hit unpacks to the solved table");
    }
}

#[test]
fn telemetry_spans_leave_every_report_byte_unchanged() {
    // With telemetry enabled the simulator stamps its stage boundaries
    // on sampled cycles and records counters and histograms every
    // cycle; disabled, it reads no clock. Identical reports under both
    // settings prove that instrumentation never perturbs results.
    let schedule = Arc::new(HardFaultSchedule::random(
        Mesh::new(4, 4),
        3,
        1,
        (100, 5_000),
        23,
    ));
    let run = |tel: Option<rlnoc_telemetry::Telemetry>| -> Vec<ExperimentReport> {
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
                b.build().expect("valid configuration").run()
            })
            .collect()
    };
    let plain = run(None);
    let spanned = run(Some(rlnoc_telemetry::Telemetry::enabled()));
    assert_eq!(
        plain, spanned,
        "traced and plain runs must agree byte for byte"
    );
}
