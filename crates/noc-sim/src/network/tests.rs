use super::*;
use crate::error_control::PerfectLink;
use crate::traffic::{SyntheticSource, TrafficPattern, TrafficSource};

fn net_4x4() -> Network<PerfectLink> {
    let config = NocConfig::builder().mesh(4, 4).build();
    Network::new(config, PerfectLink::new(), 42)
}

#[test]
fn single_packet_delivery() {
    let mut net = net_4x4();
    let mesh = net.mesh();
    net.offer(mesh.node_at(0, 0), mesh.node_at(3, 3));
    assert!(net.run_until_quiescent(500));
    assert_eq!(net.stats().packets_delivered, 1);
    assert_eq!(net.stats().packets_injected, 1);
    assert_eq!(net.stats().flits_delivered, 4);
    assert_eq!(net.stats().silent_corruptions, 0);
    assert_eq!(net.stats().packets_failed_crc, 0);
}

#[test]
fn zero_load_latency_matches_pipeline_model() {
    // 1 hop: inject(t) → RC(t+1) → VA(t+2) → SA/ST(t+3) → wire →
    // arrive(t+4) … 4 cycles per router stage per hop, plus ejection,
    // plus 3 serialization cycles for the 3 trailing flits.
    let mut net = net_4x4();
    let mesh = net.mesh();
    net.offer(mesh.node_at(0, 0), mesh.node_at(1, 0));
    assert!(net.run_until_quiescent(200));
    let lat = net.stats().latency.mean();
    // 2 routers × 4 stages + 1 link + 1 eject + 3 serialization = 13.
    assert!(
        (10.0..=16.0).contains(&lat),
        "unexpected zero-load latency {lat}"
    );
}

#[test]
fn latency_grows_with_distance() {
    let mut near = net_4x4();
    let mesh = near.mesh();
    near.offer(mesh.node_at(0, 0), mesh.node_at(1, 0));
    assert!(near.run_until_quiescent(300));

    let mut far = net_4x4();
    far.offer(mesh.node_at(0, 0), mesh.node_at(3, 3));
    assert!(far.run_until_quiescent(300));

    assert!(far.stats().latency.mean() > near.stats().latency.mean());
}

#[test]
fn many_packets_all_delivered() {
    let mut net = net_4x4();
    // All-to-all traffic.
    for i in 0..16u16 {
        for j in 0..16u16 {
            if i != j {
                net.offer(NodeId(i), NodeId(j));
            }
        }
    }
    let offered = net.stats().packets_injected;
    assert_eq!(offered, 16 * 15);
    assert!(net.run_until_quiescent(20_000), "network did not drain");
    assert_eq!(net.stats().packets_delivered, offered);
    assert_eq!(net.stats().silent_corruptions, 0);
}

#[test]
fn quiescent_initially_and_after_drain() {
    let mut net = net_4x4();
    assert!(net.is_quiescent());
    let mesh = net.mesh();
    net.offer(mesh.node_at(0, 0), mesh.node_at(2, 2));
    assert!(!net.is_quiescent());
    assert!(net.run_until_quiescent(500));
}

#[test]
fn conservation_of_flits() {
    let mut net = net_4x4();
    let mesh = net.mesh();
    for x in 0..4u16 {
        net.offer(mesh.node_at(x, 0), mesh.node_at(x, 3));
    }
    assert!(net.run_until_quiescent(2_000));
    let s = net.stats();
    assert_eq!(
        s.flits_delivered,
        s.packets_delivered * 4,
        "all delivered packets carry 4 flits"
    );
    // Every injected flit was CRC-encoded exactly once.
    let encodes: u64 = net.counters().iter().map(|c| c.crc_encodes).sum();
    assert_eq!(encodes, s.packets_injected * 4);
    let checks: u64 = net.counters().iter().map(|c| c.crc_checks).sum();
    assert_eq!(checks, s.flits_delivered);
}

#[test]
fn epoch_stats_accumulate_and_reset() {
    let mut net = net_4x4();
    let mesh = net.mesh();
    net.offer(mesh.node_at(0, 0), mesh.node_at(3, 0));
    for _ in 0..50 {
        net.step();
    }
    let src = mesh.node_at(0, 0).index();
    assert!(net.epoch_stats()[src].cycles == 50);
    assert!(net.epoch_stats()[src].flits_in[Direction::Local.index()] > 0);
    net.reset_epoch_stats();
    assert_eq!(net.epoch_stats()[src].cycles, 0);
    assert_eq!(net.epoch_stats()[src].flits_in[Direction::Local.index()], 0);
}

#[test]
fn per_router_latency_attribution_covers_path() {
    let mut net = net_4x4();
    let mesh = net.mesh();
    let src = mesh.node_at(0, 0);
    let dst = mesh.node_at(2, 0);
    net.offer(src, dst);
    assert!(net.run_until_quiescent(500));
    for node in [src, mesh.node_at(1, 0), dst] {
        assert_eq!(
            net.epoch_stats()[node.index()].latency_count,
            1,
            "router {node} missing latency attribution"
        );
    }
    assert_eq!(
        net.epoch_stats()[mesh.node_at(3, 3).index()].latency_count,
        0
    );
}

#[test]
#[should_panic(expected = "source and destination must differ")]
fn offer_to_self_panics() {
    let mut net = net_4x4();
    net.offer(NodeId(0), NodeId(0));
}

#[test]
fn saturating_throughput_bounded_by_ejection() {
    // Everyone sends to node (1,1): ejection bandwidth (1 flit/cycle)
    // bounds aggregate delivery.
    let mut net = net_4x4();
    let mesh = net.mesh();
    let hot = mesh.node_at(1, 1);
    for round in 0..10 {
        for n in mesh.nodes() {
            if n != hot {
                net.offer(n, hot);
            }
        }
        let _ = round;
    }
    assert!(net.run_until_quiescent(50_000));
    assert_eq!(net.stats().packets_delivered, 150);
}

/// Accepts every hop and fails every `n`-th end-to-end check, so the
/// destination asks the source to retransmit: the packet comes back
/// under its old id, behind everything offered since.
#[derive(Debug)]
struct FailEveryNthEject {
    n: u64,
    checks: u64,
}

impl ErrorControl for FailEveryNthEject {
    fn hop_transfer(
        &mut self,
        _link: LinkId,
        _flit: &mut Flit,
        _cycle: u64,
        _kind: TransferKind,
        _protected: bool,
        _counters: &mut EventCounters,
    ) -> HopOutcome {
        HopOutcome::Delivered
    }

    fn eject_check(
        &mut self,
        _flits: &[Flit],
        _cycle: u64,
        _counters: &mut EventCounters,
    ) -> EjectOutcome {
        self.checks += 1;
        if self.checks.is_multiple_of(self.n) {
            EjectOutcome::RequestRetransmit
        } else {
            EjectOutcome::Accept
        }
    }
}

#[test]
fn reassembly_work_follows_live_entries_not_the_id_gap() {
    // A saturated 3×3 mesh: source queues grow without bound, so a
    // retransmit request waits behind thousands of packets and the
    // retransmission reassembles beside ids thousands newer than its
    // own. Finding and closing entries must cost what is live at the
    // destination, not that gap.
    let config = NocConfig::builder().mesh(3, 3).build();
    let mut net = Network::new(config, FailEveryNthEject { n: 3, checks: 0 }, 5);
    let telemetry = Telemetry::enabled();
    net.set_telemetry(&telemetry);
    let mesh = net.mesh();
    let mut source = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.2, 9);
    for cycle in 0..3_000 {
        source.generate(cycle, &mut |src, dst| {
            net.offer(src, dst);
        });
        net.step();
    }
    assert!(net.run_until_quiescent(200_000), "network must drain");
    let s = net.stats();
    assert_eq!(s.packets_delivered, s.packets_injected);
    assert!(s.packet_retransmissions > 1_000, "fixture must retransmit");
    let entries = telemetry.counter("sim.reassembly.entries").get();
    let touched = telemetry.counter("sim.reassembly.slots_touched").get();
    assert!(entries > s.packets_injected, "every attempt opens an entry");
    assert!(
        touched <= 16 * entries,
        "{touched} reassembly slots touched for {entries} entries"
    );
}

#[test]
fn counters_track_crossbar_and_links() {
    let mut net = net_4x4();
    let mesh = net.mesh();
    net.offer(mesh.node_at(0, 0), mesh.node_at(1, 0));
    assert!(net.run_until_quiescent(500));
    let src = mesh.node_at(0, 0).index();
    let c = &net.counters()[src];
    // 4 flits crossed the source's crossbar and its East link.
    assert_eq!(c.crossbar_traversals, 4);
    assert_eq!(c.link_traversals[Direction::East.index()], 4);
    assert_eq!(c.buffer_reads, 4);
    assert_eq!(c.buffer_writes, 4);
}

#[cfg(test)]
mod arq_tests {
    //! Direct exercise of the hop-level ARQ machinery (retransmit
    //! buffers, NACK round trips, go-back-N ordering) with a scripted,
    //! deterministic error control.

    use super::*;
    use crate::error_control::ScriptedErrorControl;

    fn net_with(protocol: ScriptedErrorControl) -> Network<ScriptedErrorControl> {
        let config = NocConfig::builder().mesh(4, 4).build();
        Network::new(config, protocol, 99)
    }

    #[test]
    fn reliable_arq_links_ack_everything() {
        let mut net = net_with(ScriptedErrorControl::reliable());
        let mesh = net.mesh();
        net.offer(mesh.node_at(0, 0), mesh.node_at(3, 3));
        assert!(net.run_until_quiescent(1_000));
        let s = net.stats();
        assert_eq!(s.packets_delivered, 1);
        assert_eq!(s.hop_nacks, 0);
        assert_eq!(s.flit_retransmissions, 0);
        // Every inter-router hop buffered a copy and got an ACK back.
        let copies: u64 = net
            .counters()
            .iter()
            .map(|c| c.retransmit_buffer_writes)
            .sum();
        let acks: u64 = net.counters().iter().map(|c| c.ack_signals).sum();
        assert!(copies > 0);
        assert_eq!(acks, copies, "one ACK per buffered transfer");
    }

    #[test]
    fn rejected_flits_are_retransmitted_and_delivered_intact() {
        let mut net = net_with(ScriptedErrorControl::reject_every(7));
        for i in 0..8u16 {
            net.offer(NodeId(i), NodeId(15 - i));
        }
        assert!(
            net.run_until_quiescent(10_000),
            "must drain despite rejects"
        );
        let s = net.stats();
        assert_eq!(s.packets_delivered, 8);
        assert!(s.hop_nacks > 0, "rejects must raise NACKs");
        assert!(s.flit_retransmissions > 0, "NACKs must trigger resends");
        assert_eq!(s.silent_corruptions, 0);
        assert_eq!(s.packets_failed_crc, 0, "hop ARQ hides errors end-to-end");
    }

    #[test]
    fn heavy_rejection_still_converges_in_order() {
        // Every 3rd transfer rejected: go-back-N churn is constant; the
        // network must still deliver everything without order corruption
        // (order violations would panic the router state machine in
        // debug builds or surface as CRC failures).
        let mut net = net_with(ScriptedErrorControl::reject_every(3));
        let mesh = net.mesh();
        for x in 0..4u16 {
            for y in 0..4u16 {
                if (x, y) != (3, 3) {
                    net.offer(mesh.node_at(x, y), mesh.node_at(3, 3));
                }
            }
        }
        assert!(net.run_until_quiescent(30_000));
        let s = net.stats();
        assert_eq!(s.packets_delivered, 15);
        assert_eq!(s.silent_corruptions, 0);
        assert!(
            s.flit_retransmissions >= s.hop_nacks / 2,
            "most NACKs must produce a resend"
        );
    }

    #[test]
    fn pre_retransmission_rescues_rejects_without_nacks() {
        // With proactive duplicates and every 6th transfer rejected, the
        // duplicate (next transfer, not divisible by 6) always rescues:
        // no NACK round trips at all.
        let mut net = net_with(ScriptedErrorControl::reject_every(6).with_pre_retransmit(true));
        let mesh = net.mesh();
        net.offer(mesh.node_at(0, 0), mesh.node_at(3, 0));
        net.offer(mesh.node_at(0, 1), mesh.node_at(3, 1));
        assert!(net.run_until_quiescent(2_000));
        let s = net.stats();
        assert_eq!(s.packets_delivered, 2);
        assert!(s.pre_retransmit_hits > 0, "duplicates must be consulted");
        assert_eq!(s.hop_nacks, 0, "duplicates preempt the NACK path");
    }

    #[test]
    fn tx_delay_slows_but_preserves_delivery() {
        let mut fast = net_with(ScriptedErrorControl::reliable());
        let mut slow = net_with(ScriptedErrorControl::reliable().with_tx_delay(2));
        let mesh = fast.mesh();
        for net in [&mut fast, &mut slow] {
            net.offer(mesh.node_at(0, 0), mesh.node_at(3, 3));
            assert!(net.run_until_quiescent(2_000));
            assert_eq!(net.stats().packets_delivered, 1);
        }
        // 6 hops × 2 extra cycles each = +12 cycles of pure stall.
        let delta = slow.stats().latency.mean() - fast.stats().latency.mean();
        assert!(
            (10.0..=30.0).contains(&delta),
            "tx_delay=2 should add ~12+ cycles, got {delta}"
        );
    }

    #[test]
    fn retransmissions_consume_credits_correctly() {
        // Saturating traffic with rejects: if credits leaked, the network
        // would wedge long before draining.
        let mut net = net_with(ScriptedErrorControl::reject_every(4));
        let mesh = net.mesh();
        for round in 0..20 {
            for i in 0..16u16 {
                let dst = NodeId((i + 5) % 16);
                if NodeId(i) != dst {
                    net.offer(NodeId(i), dst);
                }
            }
            let _ = round;
        }
        assert!(net.run_until_quiescent(60_000), "credit leak would wedge");
        assert_eq!(net.stats().packets_delivered, net.stats().packets_injected);
        let _ = mesh;
    }
}

#[cfg(test)]
mod select_tests {
    //! `sa_select` against a slab walk kept here: every Active VC of
    //! every input port probed for the reasons it cannot send, and the
    //! slice arbiter run over the result. One scenario per blocking
    //! reason drives a network through `checked_step`, which compares
    //! every router's switch requests and arbiter pointers with the
    //! walk, and the RC candidates with the idle VCs whose head has left
    //! its buffer-write stage.

    use super::*;
    use crate::arbiter::RoundRobinArbiter;
    use crate::error_control::{PerfectLink, ScriptedErrorControl};
    use crate::traffic::{SyntheticSource, TrafficPattern, TrafficSource};

    /// Why an Active VC cannot send. The walk records a reason only when
    /// it is the VC's sole one, so a scenario that sees it proves that
    /// reason alone decided a selection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Blocked {
        Empty,
        /// The front flit was written this cycle.
        Fresh,
        /// The held port has a resend queued.
        Resending,
        /// The held port is still busy (`next_free` ahead).
        Busy,
        NoCredit,
        /// The held port's ARQ link has no room in its retransmit buffer.
        RetxFull,
        /// Not a switch reason: a tail left in this cycle and the head
        /// behind it arrived in this cycle, so RC must wait.
        HeadBehindTail,
    }

    /// The switch requests and input-arbiter pointers the slab walk
    /// reaches for router `ri`, recording every VC blocked for a single
    /// reason in `seen`.
    fn slab_walk<E: ErrorControl>(
        net: &Network<E>,
        ri: usize,
        cycle: u64,
        resending: u8,
        seen: &mut Vec<Blocked>,
    ) -> (SwitchRequests, [RoundRobinArbiter; MAX_PORTS]) {
        let router = &net.routers[ri];
        let mut arbiters = router.sa_input_arbiters.clone();
        let mut requests = SwitchRequests::default();
        for (in_p, arbiter) in arbiters.iter_mut().enumerate().take(router.num_ports) {
            let mut eligible = vec![false; router.vcs_per_port];
            for (in_v, ivc) in router.port_vcs(in_p).iter().enumerate() {
                let VcState::Active {
                    out_port, out_vc, ..
                } = ivc.state
                else {
                    continue;
                };
                let p = out_port.index();
                let link = LinkId {
                    src: router.id,
                    dir: out_port,
                };
                let remote = out_port != Direction::Local;
                let front = ivc.fifo.front();
                let reasons = [
                    (Blocked::Empty, front.is_none()),
                    (Blocked::Fresh, front.is_some_and(|f| f.arrived_at >= cycle)),
                    (Blocked::Resending, resending >> p & 1 != 0),
                    (Blocked::Busy, cycle < router.next_free[p]),
                    (
                        Blocked::NoCredit,
                        remote && router.out_vc(p, out_vc as usize).credits == 0,
                    ),
                    (
                        Blocked::RetxFull,
                        remote && net.protocol.hop_arq(link) && router.outputs[p].is_full(),
                    ),
                ];
                let mut blocking = reasons.iter().filter(|(_, holds)| *holds);
                match (blocking.next(), blocking.next()) {
                    (None, _) => eligible[in_v] = true,
                    (Some(&(reason, _)), None) => seen.push(reason),
                    (Some(_), Some(_)) => {}
                }
            }
            if let Some(win) = arbiter.grant(&eligible) {
                let VcState::Active {
                    out_port, out_vc, ..
                } = router.input(in_p, win).state
                else {
                    unreachable!("eligible VCs are Active");
                };
                requests.winner[in_p] = (win as u8, out_vc);
                requests.wanted[out_port.index()] |= 1 << in_p;
                requests.ports |= 1 << out_port.index();
            }
        }
        (requests, arbiters)
    }

    /// Idle VCs whose buffered head has left its buffer-write stage.
    fn slab_route_candidates(router: &Router, cycle: u64) -> u64 {
        let mut candidates = 0;
        for (flat, ivc) in router.inputs.iter().enumerate() {
            if ivc.state == VcState::Idle && ivc.fifo.front().is_some_and(|f| f.arrived_at < cycle)
            {
                candidates |= 1 << flat;
            }
        }
        candidates
    }

    /// One `step` of the fused shape (no hard faults) with every
    /// router's selection and RC candidates checked against the walk.
    fn checked_step<E: ErrorControl>(net: &mut Network<E>, seen: &mut Vec<Blocked>) {
        let cycle = net.cycle;
        net.process_events(cycle);
        net.inject_phase(cycle);
        let live: Vec<usize> = (0..net.routers.len())
            .filter(|&ri| net.active.contains(ri))
            .collect();
        for ri in live {
            let resending = net.routers[ri].masks.retx;
            if resending != 0 {
                net.sa_resend(ri, cycle);
            }
            let (expected, arbiters) = slab_walk(net, ri, cycle, resending, seen);
            let active_before = net.routers[ri].masks.act;
            let requests = net.sa_select(ri, cycle, resending);
            assert_eq!(requests, expected, "router {ri}, cycle {cycle}");
            assert_eq!(net.routers[ri].sa_input_arbiters, arbiters);
            if requests.ports != 0 {
                net.sa_traverse(ri, cycle, &requests);
            }
            let router = &net.routers[ri];
            let waiting = router.masks.rc & active_before & router.masks.fresh;
            seen.extend((0..waiting.count_ones()).map(|_| Blocked::HeadBehindTail));
            if router.masks.va != 0 {
                net.va_router(ri, cycle);
            }
            let candidates = slab_route_candidates(&net.routers[ri], cycle);
            assert_eq!(net.routers[ri].masks.route_candidates(), candidates);
            if candidates != 0 {
                net.rc_router(ri, cycle);
            }
            net.sample_router(ri);
        }
        net.cycle += 1;
    }

    /// Runs `cycles` checked cycles of uniform traffic at `rate` on
    /// `config`, then drains, and returns every blocking reason seen.
    fn run<E: ErrorControl>(
        config: NocConfig,
        protocol: E,
        rate: f64,
        cycles: u64,
    ) -> Vec<Blocked> {
        let mut net = Network::new(config, protocol, 3);
        let mut source = SyntheticSource::new(net.mesh(), TrafficPattern::UniformRandom, rate, 4);
        let mut seen = Vec::new();
        for cycle in 0..cycles {
            source.generate(cycle, &mut |src, dst| {
                net.offer(src, dst);
            });
            checked_step(&mut net, &mut seen);
        }
        while !net.is_quiescent() {
            assert!(net.cycle < cycles + 50_000, "network must drain");
            checked_step(&mut net, &mut seen);
        }
        assert_eq!(net.stats().packets_delivered, net.stats().packets_injected);
        seen
    }

    fn mesh4() -> NocConfig {
        NocConfig::builder().mesh(4, 4).build()
    }

    #[test]
    fn a_front_written_this_cycle_waits() {
        let seen = run(mesh4(), PerfectLink::new(), 0.05, 400);
        assert!(seen.contains(&Blocked::Fresh), "{seen:?}");
    }

    #[test]
    fn a_port_busy_under_mode3_tx_delay_is_skipped() {
        let protocol = ScriptedErrorControl::reliable().with_tx_delay(2);
        let seen = run(mesh4(), protocol, 0.05, 400);
        assert!(seen.contains(&Blocked::Busy), "{seen:?}");
    }

    #[test]
    fn a_port_with_a_queued_resend_is_skipped() {
        // A resend that cannot go — its output VC has no credit — still
        // dedicates its port: a packet holding another output VC on that
        // port, with credit and nothing else in its way, must wait.
        let mut net = Network::new(mesh4(), ScriptedErrorControl::reliable(), 3);
        let mesh = net.mesh();
        let (src, east) = (mesh.node_at(0, 0), Direction::East.index());
        net.offer(src, mesh.node_at(3, 0));
        let mut seen = Vec::new();
        while net.routers[src.index()].masks.holds[east] == 0 {
            checked_step(&mut net, &mut seen);
        }
        checked_step(&mut net, &mut seen);
        assert!(!seen.contains(&Blocked::Resending));
        let packet = Packet {
            id: PacketId(u64::MAX),
            src,
            dst: mesh.node_at(1, 0),
            num_flits: 1,
            class: PacketClass::Data,
            injected_at: 0,
            payload_seed: 1,
        };
        let flit = net.arena.alloc(packet.make_flit(0, 0, &Crc32::new()));
        let router = &mut net.routers[src.index()];
        let held = (0..router.vcs_per_port)
            .find(|&v| router.out_vc(east, v).allocated)
            .expect("the packet holds an East output VC");
        let starved = (held + 1) % router.vcs_per_port;
        router.out_vc_mut(east, starved).credits = 0;
        let resend = Resend {
            flit,
            out_vc: starved as u8,
            seq: SequenceNumber::new(0),
        };
        router.arq(east, |link| link.queue_resend(resend));
        checked_step(&mut net, &mut seen);
        assert!(seen.contains(&Blocked::Resending), "{seen:?}");
    }

    #[test]
    fn a_vc_at_zero_credit_is_skipped() {
        let seen = run(mesh4(), PerfectLink::new(), 0.2, 400);
        assert!(seen.contains(&Blocked::NoCredit), "{seen:?}");
    }

    #[test]
    fn a_full_retransmit_buffer_on_an_arq_link_is_skipped() {
        let config = NocConfig::builder()
            .mesh(4, 4)
            .retransmit_buffer_depth(1)
            .ack_latency(3)
            .build();
        let seen = run(config, ScriptedErrorControl::reliable(), 0.05, 400);
        assert!(seen.contains(&Blocked::RetxFull), "{seen:?}");
    }

    #[test]
    fn a_head_written_behind_a_leaving_tail_waits_for_rc() {
        // Single-flit packets: every grant is a tail, and under load the
        // next packet's head often lands on the VC in the same cycle.
        let config = NocConfig::builder().mesh(4, 4).flits_per_packet(1).build();
        let seen = run(config, PerfectLink::new(), 0.3, 400);
        assert!(seen.contains(&Blocked::HeadBehindTail), "{seen:?}");
    }
}
