//! Hard-fault semantics: permanent link/router failures, doomed-
//! packet evaporation, self-healing rerouting, and loss accounting.

use super::*;
use crate::error_control::{PerfectLink, ScriptedErrorControl};
use crate::router::StageMasks;
use crate::routing::RouteCache;
use std::sync::LazyLock;

fn net_4x4() -> Network<PerfectLink> {
    let config = NocConfig::builder().mesh(4, 4).build();
    Network::new(config, PerfectLink::new(), 42)
}

fn link(cycle: u64, node: NodeId, dir: Direction) -> HardFaultEvent {
    HardFaultEvent {
        cycle,
        kind: HardFaultKind::Link { node, dir },
    }
}

fn router(cycle: u64, node: NodeId) -> HardFaultEvent {
    HardFaultEvent {
        cycle,
        kind: HardFaultKind::Router { node },
    }
}

#[test]
fn empty_schedule_leaves_fault_machinery_cold() {
    let mut net = net_4x4();
    net.set_hard_faults(Vec::new());
    assert!(!net.hard_faults_active());
    let mesh = net.mesh();
    net.offer(mesh.node_at(0, 0), mesh.node_at(3, 3));
    assert!(net.run_until_quiescent(500));
    assert_eq!(net.stats().packets_delivered, 1);
    assert_eq!(net.stats().hard_fault_events, 0);
    assert_eq!(net.stats().reroute_events, 0);
}

#[test]
fn link_fault_before_traffic_reroutes_everything() {
    let mut net = net_4x4();
    let mesh = net.mesh();
    net.set_hard_faults(vec![link(0, mesh.node_at(1, 1), Direction::East)]);
    for i in 0..16u16 {
        for j in 0..16u16 {
            if i != j {
                net.offer(NodeId(i), NodeId(j));
            }
        }
    }
    assert!(net.run_until_quiescent(30_000), "network must drain");
    let s = net.stats();
    assert_eq!(s.hard_fault_events, 1);
    assert_eq!(s.reroute_events, 1);
    assert_eq!(s.unreachable_pairs, 0, "one dead link cannot partition");
    assert_eq!(s.packets_lost_hard_fault, 0, "fault predates all traffic");
    assert_eq!(s.packets_delivered, s.packets_injected);
    assert!(net.link_dead(mesh.node_at(1, 1), Direction::East));
    assert!(net.link_dead(mesh.node_at(2, 1), Direction::West));
}

#[test]
fn router_fault_mid_flight_drains_with_exact_loss_accounting() {
    let mut net = net_4x4();
    let mesh = net.mesh();
    let dead = mesh.node_at(1, 1);
    net.set_hard_faults(vec![router(40, dead)]);
    for i in 0..16u16 {
        for j in 0..16u16 {
            if i != j {
                net.offer(NodeId(i), NodeId(j));
            }
        }
    }
    assert!(net.run_until_quiescent(60_000), "network must drain");
    let s = net.stats();
    assert_eq!(s.hard_fault_events, 1);
    assert!(
        s.packets_lost_hard_fault > 0,
        "mid-flight death loses packets"
    );
    // With a perfect link layer every injected packet is either
    // delivered or lost to the fault — never silently dropped.
    assert_eq!(
        s.packets_delivered + s.packets_lost_hard_fault,
        s.packets_injected,
        "loss accounting must be exact"
    );
    assert!(net.node_dead(dead));
    assert_eq!(
        s.unreachable_pairs, 0,
        "mesh minus one router stays connected"
    );
}

#[test]
fn mid_flight_link_fault_drains_with_exact_loss_accounting() {
    let mut net = net_4x4();
    let mesh = net.mesh();
    net.set_hard_faults(vec![
        link(25, mesh.node_at(0, 0), Direction::East),
        link(35, mesh.node_at(1, 2), Direction::South),
    ]);
    for i in 0..16u16 {
        for j in 0..16u16 {
            if i != j {
                net.offer(NodeId(i), NodeId(j));
            }
        }
    }
    assert!(net.run_until_quiescent(60_000), "network must drain");
    let s = net.stats();
    assert_eq!(s.hard_fault_events, 2);
    assert_eq!(s.reroute_events, 2, "one recompute per fault batch");
    assert_eq!(
        s.packets_delivered + s.packets_lost_hard_fault,
        s.packets_injected
    );
}

#[test]
fn offers_to_unreachable_destinations_are_refused() {
    // 4×1 line mesh cut in the middle: {0,1} | {2,3}.
    let config = NocConfig::builder().mesh(4, 1).build();
    let mut net = Network::new(config, PerfectLink::new(), 7);
    net.set_hard_faults(vec![link(0, NodeId(1), Direction::East)]);
    net.step(); // apply the fault batch
    assert!(net.hard_faults_active());
    assert_eq!(net.stats().unreachable_pairs, 8);
    net.offer(NodeId(0), NodeId(3)); // refused: other side of the cut
    net.offer(NodeId(0), NodeId(1)); // accepted: same side
    assert!(net.run_until_quiescent(500));
    let s = net.stats();
    assert_eq!(s.packets_refused_unreachable, 1);
    assert_eq!(s.packets_injected, 1);
    assert_eq!(s.packets_delivered, 1);
}

#[test]
fn fault_runs_are_deterministic() {
    let run = || {
        let mut net = net_4x4();
        let mesh = net.mesh();
        net.set_hard_faults(vec![
            router(30, mesh.node_at(2, 2)),
            link(55, mesh.node_at(0, 1), Direction::South),
        ]);
        for i in 0..16u16 {
            for j in 0..16u16 {
                if i != j {
                    net.offer(NodeId(i), NodeId(j));
                }
            }
        }
        assert!(net.run_until_quiescent(60_000));
        net.stats().clone()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical inputs must give identical stats");
}

#[test]
fn arq_links_survive_mid_flight_router_death() {
    // Hop ARQ + go-back-N churn + a router death: gates, retransmit
    // buffers, and credits must all unwind without wedging.
    let config = NocConfig::builder().mesh(4, 4).build();
    let mut net = Network::new(config, ScriptedErrorControl::reject_every(5), 99);
    let mesh = net.mesh();
    net.set_hard_faults(vec![router(25, mesh.node_at(1, 2))]);
    for round in 0..4u16 {
        for i in 0..16u16 {
            let dst = NodeId((i + 3 + round) % 16);
            if NodeId(i) != dst {
                net.offer(NodeId(i), dst);
            }
        }
    }
    assert!(
        net.run_until_quiescent(60_000),
        "ARQ state must unwind around the dead router"
    );
    let s = net.stats();
    assert!(s.packets_lost_hard_fault > 0);
    assert_eq!(
        s.packets_delivered + s.packets_lost_hard_fault,
        s.packets_injected
    );
    assert_eq!(s.silent_corruptions, 0);
}

#[test]
fn stage_masks_equal_rescan_right_after_a_fault_batch() {
    // A router and a link die in one batch under go-back-N churn:
    // the evacuation rewrites FIFOs, VC states and resend queues
    // behind the incremental mask sites, so the batch must leave
    // every router's masks (and the worklist) equal to a rescan.
    let config = NocConfig::builder().mesh(4, 4).build();
    let mut net = Network::new(config, ScriptedErrorControl::reject_every(3), 99);
    let mesh = net.mesh();
    let dead = mesh.node_at(1, 2);
    let cut = mesh.node_at(2, 0);
    net.set_hard_faults(vec![router(25, dead), link(25, cut, Direction::East)]);
    for round in 0..4u16 {
        for i in 0..16u16 {
            let dst = NodeId((i + 3 + round) % 16);
            if NodeId(i) != dst {
                net.offer(NodeId(i), dst);
            }
        }
    }
    for _ in 0..25 {
        net.step();
    }
    // A NACK's resend leaves in the cycle it arrives, so between
    // steps the resend queues are empty; plant one on the port about
    // to be cut so the batch has a queue to drain.
    let packet = Packet {
        id: PacketId(u64::MAX),
        src: cut,
        dst: mesh.node_at(3, 0),
        num_flits: 1,
        class: PacketClass::Data,
        injected_at: 0,
        payload_seed: 1,
    };
    let flit = net.arena.alloc(packet.make_flit(0, 0, &Crc32::new()));
    let east = Direction::East.index();
    let resend = Resend {
        flit,
        out_vc: 0,
        seq: SequenceNumber::new(0),
    };
    net.routers[cut.index()].arq(east, |link| link.queue_resend(resend));
    let before: Vec<_> = net.routers.iter().map(|r| r.masks).collect();
    assert_ne!(
        before[dead.index()].occupied(),
        0,
        "fixture: dead router holds flits"
    );

    net.apply_hard_fault_batch(25);
    assert!(net.node_dead(dead) && net.link_dead(cut, Direction::East));
    for (ri, r) in net.routers.iter().enumerate() {
        assert_eq!(r.masks, r.rescan_stage_masks(25), "router {ri}");
        assert_eq!(net.active.contains(ri), r.masks.any_work(), "router {ri}");
    }
    let dead_masks = net.routers[dead.index()].masks;
    assert_eq!(
        dead_masks,
        StageMasks {
            busy_until: dead_masks.busy_until,
            ..StageMasks::default()
        }
    );
    assert_eq!(
        net.routers[cut.index()].masks.retx,
        0,
        "cut port's queue drained"
    );
    assert!(net.run_until_quiescent(60_000), "network must still drain");
}

#[test]
fn telemetry_leaves_rc_doom_samples_unchanged() {
    // A 4×1 line cut mid-flight: heads still queued at node 0 find
    // node 3 unreachable at RC and are doomed there, so the fused
    // pass has to re-sample what the purge changed.
    let run = |telemetry: &Telemetry| {
        let config = NocConfig::builder().mesh(4, 1).build();
        let mut net = Network::new(config, PerfectLink::new(), 7);
        net.set_telemetry(telemetry);
        net.set_hard_faults(vec![link(6, NodeId(1), Direction::East)]);
        for _ in 0..6 {
            net.offer(NodeId(0), NodeId(3));
            net.offer(NodeId(1), NodeId(0));
        }
        let mut epochs = Vec::new();
        for cycle in 0..120 {
            net.step();
            if cycle % 10 == 9 {
                epochs.push(net.epoch_stats().to_vec());
                net.reset_epoch_stats();
            }
        }
        assert!(net.is_quiescent());
        (format!("{:?}", net.stats()), epochs)
    };
    let (fused, epochs) = run(&Telemetry::disabled());
    assert!(fused.contains("packets_lost_hard_fault: 6"), "{fused}");
    assert!(epochs.iter().flatten().any(|e| e.occupied_vc_cycles > 0));
    let telemetry = Telemetry::enabled();
    assert_eq!((fused, epochs), run(&telemetry));
    // The count a sampling pass after doom resolution takes: the
    // doom cycle counts the worklist the purge rebuilt.
    assert_eq!(
        telemetry.counter("sim.worklist.active_router_cycles").get(),
        60
    );
    // Cycles 0, 16, …, 112 are timed, each standing for 16.
    assert_eq!(
        telemetry.timer("sim.phase.sa_st").snapshot().count,
        8 * STAGE_SAMPLE_PERIOD
    );
}

#[test]
fn reset_stats_preserves_unreachable_pairs_gauge() {
    let config = NocConfig::builder().mesh(4, 1).build();
    let mut net = Network::new(config, PerfectLink::new(), 7);
    net.set_hard_faults(vec![link(0, NodeId(1), Direction::East)]);
    net.step();
    assert_eq!(net.stats().unreachable_pairs, 8);
    net.reset_stats();
    assert_eq!(
        net.stats().unreachable_pairs,
        8,
        "gauge must survive the measurement-phase boundary"
    );
    assert_eq!(net.stats().hard_fault_events, 0, "accumulators reset");
}

/// A faulted run with traffic in flight across every batch: five
/// link deaths and a router death on a 5×4 torus under all-pairs
/// load. Returns the rendered stats and the table after each
/// reroute. `cache` swaps the process-wide cache for a private one.
fn churn_run(seed: u64, cache: Option<&'static RouteCache>) -> (String, Vec<Routes>) {
    let topo = Topo::torus(5, 4);
    let config = NocConfig::builder().topology(topo).build();
    let mut net = Network::new(config, PerfectLink::new(), seed);
    net.set_hard_faults(vec![
        link(20, NodeId(3), Direction::East),
        link(40, NodeId(7), Direction::South),
        link(40, NodeId(12), Direction::West),
        router(60, NodeId(9)),
        link(80, NodeId(0), Direction::North),
        link(100, NodeId(16), Direction::East),
    ]);
    if let Some(cache) = cache {
        net.faults.as_mut().expect("schedule installed").cache = cache;
    }
    for i in 0..20u16 {
        for j in 0..20u16 {
            if i != j {
                net.offer(NodeId(i), NodeId(j));
            }
        }
    }
    let mut tables = Vec::new();
    while net.cycle() <= 100 {
        net.step();
        if net.stats().reroute_events as usize > tables.len() {
            tables.push(net.routes().clone());
        }
    }
    assert!(net.run_until_quiescent(60_000));
    assert_eq!(tables.len(), 5, "five distinct event cycles");
    (format!("{:?}", net.stats()), tables)
}

#[test]
fn tiny_cache_cap_only_costs_time() {
    // Room for about two packed tables: the five-batch run must
    // overflow and start over at least once. And no room at all:
    // every reroute solves.
    static TINY: LazyLock<RouteCache> = LazyLock::new(|| RouteCache::with_cap(250));
    static NONE: LazyLock<RouteCache> = LazyLock::new(|| RouteCache::with_cap(0));
    let uncapped = churn_run(1, None);
    for (cache, cap) in [(&*TINY, 250), (&*NONE, 0)] {
        assert_eq!(churn_run(1, Some(cache)), uncapped, "cold capped run");
        assert_eq!(churn_run(1, Some(cache)), uncapped, "second capped run");
        let (entries, bytes) = cache.held();
        assert!(bytes <= cap, "{bytes} bytes held over the cap");
        assert!(entries < 5, "the cap must have forced a restart");
    }
    assert!(TINY.held().0 > 0, "tables that fit are kept");
}

#[test]
fn concurrent_networks_share_the_cache_and_agree() {
    // The `RLNOC_JOBS=4` shape: four workers walk one schedule at
    // once, racing to solve and publish the same dead sets.
    let barrier = std::sync::Barrier::new(4);
    let runs: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4u64)
            .map(|seed| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    churn_run(seed, None).1
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    for tables in &runs[1..] {
        assert_eq!(tables, &runs[0], "every worker routes on equal tables");
    }
}

#[test]
#[should_panic(expected = "nonexistent link")]
fn schedule_validation_rejects_edge_links() {
    let mut net = net_4x4();
    net.set_hard_faults(vec![link(0, NodeId(0), Direction::North)]);
}

/// Offers one packet (1,1) → (3,1) on a 4×4 mesh and steps until the
/// source's local input VC holds an output VC toward East with its
/// head flit still queued (`head_sent == false`) or already through
/// the crossbar (`head_sent == true`); then the East link dies.
fn kill_route_under_allocated_vc(head_sent: bool) -> Network<PerfectLink> {
    let mut net = net_4x4();
    let mesh = net.mesh();
    let src = mesh.node_at(1, 1);
    net.offer(src, mesh.node_at(3, 1));
    let routed = |net: &Network<PerfectLink>| {
        let arena = &net.arena;
        net.routers[src.index()]
            .port_vcs(Direction::Local.index())
            .iter()
            .any(|ivc| {
                let head_waiting = ivc
                    .fifo
                    .front()
                    .is_some_and(|bf| arena[bf.flit].kind.is_head());
                matches!(
                    ivc.state,
                    VcState::Active {
                        out_port: Direction::East,
                        ..
                    }
                ) && head_waiting != head_sent
            })
    };
    while !routed(&net) {
        assert!(net.cycle() < 50, "the packet never reached the state");
        net.step();
    }
    net.set_hard_faults(vec![link(net.cycle(), src, Direction::East)]);
    assert!(net.run_until_quiescent(5_000), "network must drain");
    assert_eq!(net.stats().hard_fault_events, 1);
    net
}

#[test]
fn divert_reroutes_a_packet_whose_head_is_still_queued() {
    let net = kill_route_under_allocated_vc(false);
    let s = net.stats();
    assert_eq!(s.packets_lost_hard_fault, 0, "the head re-enters RC");
    assert_eq!(s.packets_delivered, 1, "up*/down* delivers it");
}

#[test]
fn divert_dooms_a_packet_whose_head_already_left() {
    let net = kill_route_under_allocated_vc(true);
    let s = net.stats();
    assert_eq!(s.packets_lost_hard_fault, 1, "the wormhole is severed");
    assert_eq!(s.packets_delivered, 0);
    assert_eq!(net.arena.live(), 0, "every lost flit's slot is freed");
}

#[test]
fn second_fault_batch_composes_with_first() {
    // Two sequential router deaths carve the 4×4 mesh down; traffic
    // offered between batches must still route around both holes.
    let mut net = net_4x4();
    let mesh = net.mesh();
    net.set_hard_faults(vec![
        router(10, mesh.node_at(1, 1)),
        router(700, mesh.node_at(2, 2)),
    ]);
    for _ in 0..30 {
        net.step();
    }
    // Between the batches: offer traffic that must skirt (1,1).
    net.offer(mesh.node_at(0, 1), mesh.node_at(2, 1));
    assert!(net.run_until_quiescent(60_000));
    // Idle through the second batch, then route around both holes.
    while net.cycle() <= 700 {
        net.step();
    }
    net.offer(mesh.node_at(1, 2), mesh.node_at(3, 2));
    assert!(net.run_until_quiescent(60_000));
    let s = net.stats();
    assert_eq!(s.hard_fault_events, 2);
    assert_eq!(s.reroute_events, 2);
    assert_eq!(
        s.packets_delivered + s.packets_lost_hard_fault,
        s.packets_injected
    );
}
