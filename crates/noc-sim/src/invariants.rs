//! Runtime invariant checker for the optimized data plane.
//!
//! Compiled only under the `verify` cargo feature (as a child module of
//! [`network`](crate::network), so it can traverse the private event
//! wheel and router state) and armed at runtime by `RLNOC_VERIFY=1`.
//! Every armed cycle re-derives, from scratch, properties the optimized
//! kernel maintains incrementally:
//!
//! * **Flit conservation / arena leak accounting** — every live
//!   [`FlitArena`] slot is owned by exactly one input-FIFO entry,
//!   flit-carrying wheel event, priority-resend queue entry, or
//!   reassembly entry; the structural count must equal
//!   [`FlitArena::live`].
//! * **Credit conservation** — for every inter-router (output port, VC),
//!   held credits + downstream FIFO occupancy + in-flight flits and
//!   credit returns on that link sum to exactly `vc_depth`.
//! * **ARQ window sanity** — every go-back-N gate (`awaiting_retx`)
//!   names a sequence number the upstream retransmit buffer still holds
//!   a pristine copy of (NACKs keep entries; only ACKs release them),
//!   and no gate sits on a local injection port.
//! * **Hard-fault hygiene** (when a hard-fault schedule is active) —
//!   dead routers hold no arena flits or pending resends, no credit
//!   return in the event wheel targets a dead link (dead-link credits
//!   are deliberately lost, never replenished), and every entry of the
//!   fault-adaptive reroute table points at a live link to a live
//!   neighbor.
//! * **Pipeline-stage masks** — every incrementally kept stage word
//!   (`rc` / `va` / `act` / `retx`, and with them the occupied set and
//!   the worklist predicate; `nonempty`, `fresh`, `holds`, `no_credit`,
//!   `va_req`, the busy horizon, the occupied count) matches a full
//!   rescan of every VC, held output VC, port and resend queue (the
//!   release-build analogue of [`Router::debug_check_stage_masks`]).
//! * **No-progress watchdog** — a non-quiescent network whose activity
//!   fingerprint has not changed for [`WATCHDOG_CYCLES`] cycles is
//!   declared deadlocked/livelocked.
//!
//! Violations panic with a diagnostic; the differential fuzzer surfaces
//! the panic together with the replayable case that triggered it.

use super::*;
use crate::flit::splitmix64;
use crate::router::InputVc;
use std::sync::OnceLock;

/// Cycles without any activity-fingerprint change (while non-quiescent)
/// before the watchdog declares a deadlock/livelock. Generously above
/// the worst legitimate stall (ARQ timeout ≪ 1k cycles).
const WATCHDOG_CYCLES: u64 = 20_000;

/// Test-only override: arms the checker regardless of the environment
/// (the env verdict is cached process-wide, which tests cannot rely on).
#[cfg(test)]
static FORCE_ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// `true` when the process opted into per-cycle invariant checking via
/// `RLNOC_VERIFY=1` (or `true`). Read once; the verdict is cached.
pub(crate) fn armed() -> bool {
    #[cfg(test)]
    if FORCE_ARMED.load(std::sync::atomic::Ordering::Relaxed) {
        return true;
    }
    static ARMED: OnceLock<bool> = OnceLock::new();
    *ARMED.get_or_init(|| {
        matches!(
            std::env::var("RLNOC_VERIFY").as_deref(),
            Ok("1") | Ok("true")
        )
    })
}

/// Watchdog bookkeeping carried between cycles.
#[derive(Debug, Clone, Default)]
pub(crate) struct VerifyState {
    /// Activity fingerprint observed at `last_change_cycle`.
    fingerprint: u64,
    /// Last cycle at which the fingerprint changed.
    last_change_cycle: u64,
}

impl<E: ErrorControl> Network<E> {
    /// Checks every runtime invariant; called at the end of each
    /// [`Network::step`] when the checker is armed.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic on the first violated invariant.
    pub(crate) fn verify_invariants(&mut self) {
        if !armed() {
            return;
        }
        self.verify_arena_reachability();
        self.verify_credit_conservation();
        self.verify_arq_windows();
        self.verify_hard_faults();
        self.verify_stage_masks();
        self.verify_worklists();
        self.verify_watchdog();
    }

    /// Flit conservation: structural ownership count == arena live count.
    fn verify_arena_reachability(&self) {
        let mut fifo = 0usize;
        let mut resend = 0usize;
        for r in &self.routers {
            fifo += r.inputs.iter().map(|vc| vc.fifo.len()).sum::<usize>();
            resend += r
                .outputs
                .iter()
                .map(|o| o.retx_pending.len())
                .sum::<usize>();
        }
        let mut in_events = 0usize;
        for slot in &self.wheel.slots {
            for ev in slot {
                match ev {
                    Event::Arrival { .. } | Event::DirectDeliver { .. } | Event::Eject { .. } => {
                        in_events += 1;
                    }
                    Event::Credit { .. } | Event::AckSignal { .. } => {}
                }
            }
        }
        let entries: usize = self.reassembly.iter().map(Vec::len).sum();
        assert_eq!(
            entries, self.reassembling,
            "reassembly entry count diverged at cycle {}",
            self.cycle
        );
        let reassembling: usize = self
            .reassembly
            .iter()
            .flatten()
            .map(|e| e.flits.len())
            .sum();
        let reachable = fifo + resend + in_events + reassembling;
        assert_eq!(
            reachable,
            self.arena.live(),
            "flit conservation violated at cycle {}: {} arena slots live but {} reachable \
             (fifo {fifo} + resend {resend} + events {in_events} + reassembly {reassembling})",
            self.cycle,
            self.arena.live(),
            reachable,
        );
    }

    /// Credit conservation: for every inter-router (node, output port,
    /// VC), credits held at the sender plus flits/credits in flight on
    /// the link plus downstream FIFO occupancy equals `vc_depth`.
    fn verify_credit_conservation(&self) {
        let v = self.config.vcs_per_port as usize;
        let np = self.mesh.num_ports();
        let slot = |node: usize, port: usize, vc: usize| (node * np + port) * v + vc;
        // In-flight debits per (upstream node, output port, vc): flits on
        // the wire (Arrival), accepted mode-2 duplicates one cycle from
        // the downstream buffer (DirectDeliver), and credits returning
        // upstream (Credit).
        let mut in_flight = vec![0u32; self.routers.len() * np * v];
        for events in &self.wheel.slots {
            for ev in events {
                match *ev {
                    Event::Arrival { link, vc, .. } => {
                        in_flight[slot(link.src.index(), link.dir.index(), vc as usize)] += 1;
                    }
                    Event::Credit { node, port, vc } => {
                        if port != Direction::Local {
                            in_flight[slot(node.index(), port.index(), vc as usize)] += 1;
                        }
                    }
                    Event::DirectDeliver {
                        node, in_port, vc, ..
                    } => {
                        let up = self
                            .neighbors
                            .get(node, in_port)
                            .expect("duplicate crossed a real link");
                        in_flight[slot(up.index(), in_port.opposite().index(), vc as usize)] += 1;
                    }
                    Event::Eject { .. } | Event::AckSignal { .. } => {}
                }
            }
        }
        for r in &self.routers {
            for dir in Direction::ALL {
                if dir == Direction::Local {
                    continue; // ejection port: modeled as never back-pressured
                }
                let Some(down) = self.neighbors.get(r.id, dir) else {
                    continue; // mesh edge: port unused
                };
                if self.faults.as_deref().is_some_and(|fs| {
                    fs.node_dead[r.id.index()]
                        || fs.node_dead[down.index()]
                        || fs.link_dead[r.id.index()][dir.index()]
                }) {
                    // Dead link: its credits are deliberately lost (flits
                    // evaporate without returns), so the sum runs short.
                    // `verify_hard_faults` owns the dead-side properties.
                    continue;
                }
                let in_port = dir.opposite().index();
                for vcn in 0..v {
                    let credits = u32::from(r.out_vc(dir.index(), vcn).credits);
                    let fifo = self.routers[down.index()].input(in_port, vcn).fifo.len() as u32;
                    let flight = in_flight[slot(r.id.index(), dir.index(), vcn)];
                    assert_eq!(
                        credits + fifo + flight,
                        u32::from(self.config.vc_depth),
                        "credit conservation violated at cycle {} on {}:{dir} vc{vcn}: \
                         credits {credits} + downstream fifo {fifo} + in-flight {flight} \
                         != depth {}",
                        self.cycle,
                        r.id,
                        self.config.vc_depth,
                    );
                }
            }
        }
    }

    /// ARQ window sanity: every go-back-N gate awaits a sequence number
    /// whose pristine copy the upstream retransmit buffer still holds.
    fn verify_arq_windows(&self) {
        for r in &self.routers {
            for pi in 0..r.num_ports {
                let dir = Direction::from_index(pi);
                for (vci, ivc) in r.port_vcs(pi).iter().enumerate() {
                    let Some(seq) = ivc.awaiting_retx else {
                        continue;
                    };
                    assert!(
                        dir != Direction::Local,
                        "ARQ gate on the injection port of {}",
                        r.id
                    );
                    let up = self
                        .neighbors
                        .get(r.id, dir)
                        .expect("gated input port faces a neighbor");
                    if self.faults.as_deref().is_some_and(|fs| {
                        fs.node_dead[r.id.index()]
                            || fs.node_dead[up.index()]
                            || fs.link_dead[r.id.index()][pi]
                    }) {
                        // A dead upstream's retransmit buffer was cleared;
                        // the fault purge is responsible for these gates.
                        continue;
                    }
                    let out = &self.routers[up.index()].outputs[dir.opposite().index()];
                    assert!(
                        out.retx_buffer.iter().any(|(s, _)| s == seq),
                        "ARQ gate at cycle {}: {}:{dir} vc{vci} awaits {seq} but upstream \
                         {up} no longer buffers it (premature release would deadlock the VC)",
                        self.cycle,
                        r.id,
                    );
                }
            }
        }
    }

    /// Hard-fault hygiene: dead routers are fully evacuated, dead-link
    /// credits are never replenished, and the fault-adaptive reroute
    /// table only ever points at live links to live neighbors.
    fn verify_hard_faults(&self) {
        let Some(fs) = self.faults.as_deref() else {
            return; // no schedule installed: nothing to police
        };
        // 1. Dead routers hold no arena flits: the evacuation drained
        //    every input FIFO and pending-resend queue and idled the VCs.
        for (ni, r) in self.routers.iter().enumerate() {
            if !fs.node_dead[ni] {
                continue;
            }
            let fifo: usize = r.inputs.iter().map(|vc| vc.fifo.len()).sum();
            let resend: usize = r.outputs.iter().map(|o| o.retx_pending.len()).sum();
            assert!(
                fifo == 0 && resend == 0 && !r.masks.any_work(),
                "dead router {} holds flits at cycle {}: {fifo} buffered, {resend} pending \
                 resends, stage masks {:?} (evacuation must drain everything)",
                r.id,
                self.cycle,
                r.masks,
            );
        }
        // 2. Credits on dead links are never replenished: no credit
        //    return in flight may target a dead endpoint or channel.
        for events in &self.wheel.slots {
            for ev in events {
                if let Event::Credit { node, port, vc } = *ev {
                    assert!(
                        !fs.node_dead[node.index()] && !fs.link_dead[node.index()][port.index()],
                        "credit replenished on dead link at cycle {}: {}:{port} vc{vc} \
                         (dead-link credits are lost by design)",
                        self.cycle,
                        node,
                    );
                }
            }
        }
        // 3. Reroute table consistent with the live-neighbor set: every
        //    routed hop crosses a live link into a live router.
        if fs.next_event > 0 {
            for cur in self.mesh.nodes() {
                if fs.node_dead[cur.index()] {
                    continue;
                }
                for dst in self.mesh.nodes() {
                    let Some((dir, _)) = self.routes.next_hop(cur, dst) else {
                        continue;
                    };
                    if dir == Direction::Local {
                        continue; // ejection at the destination itself
                    }
                    let live = !fs.link_dead[cur.index()][dir.index()]
                        && self
                            .neighbors
                            .get(cur, dir)
                            .is_some_and(|nb| !fs.node_dead[nb.index()]);
                    assert!(
                        live,
                        "reroute table inconsistent with live-neighbor set at cycle {}: \
                         {cur}→{dst} via {dir} crosses a dead link or router",
                        self.cycle,
                    );
                }
            }
        }
    }

    /// Pipeline-stage masks match a full rescan of the VCs, their held
    /// output VCs' credits, the port horizons and the resend queues —
    /// every word, from the stage candidates to `nonempty`, `fresh`,
    /// `holds`, `no_credit`, `va_req` and the occupied count — in release
    /// builds too (the optimized stages trust them to find their
    /// candidates and to skip routers). Two facts the incremental
    /// updates lean on are checked beside them: every allocated output
    /// VC names the Active VC holding it (credit changes reach
    /// `no_credit` through it), and every buffered entry's tail flag is
    /// its flit's. The occupied set is the masks' union, so it is
    /// covered; [`Self::verify_worklists`] checks the predicate built on
    /// it against [`InputVc::occupied`] itself.
    fn verify_stage_masks(&self) {
        for r in &self.routers {
            assert_eq!(
                r.masks,
                r.rescan_stage_masks(self.cycle),
                "pipeline-stage masks diverged from rescan at {} (cycle {})",
                r.id,
                self.cycle,
            );
            for (flat, vc) in r.inputs.iter().enumerate() {
                if let VcState::Active {
                    out_port, out_vc, ..
                } = vc.state
                {
                    let held = r.out_vc(out_port.index(), out_vc as usize);
                    assert!(
                        held.allocated && usize::from(held.holder) == flat,
                        "output VC {out_port}:{out_vc} at {} does not name its holder {flat} \
                         (cycle {})",
                        r.id,
                        self.cycle,
                    );
                }
                for bf in &vc.fifo {
                    assert_eq!(
                        bf.tail,
                        self.arena[bf.flit].kind.is_tail(),
                        "buffered tail flag diverged at {} (cycle {})",
                        r.id,
                        self.cycle,
                    );
                }
            }
        }
    }

    /// Worklist exactness: at the end of a step, pipeline worklist
    /// membership must equal its predicate (an occupied input VC or a
    /// pending priority resend) for every router, and injection
    /// worklist membership must equal an open injection or a non-empty
    /// source queue. A missing member silently freezes a router — the
    /// fused kernel only visits worklist members — while a stale member
    /// would survive the sampling pass's retirement scan only through a
    /// maintenance bug.
    fn verify_worklists(&self) {
        for (ri, r) in self.routers.iter().enumerate() {
            let should = r.inputs.iter().any(InputVc::occupied)
                || r.outputs.iter().any(|o| !o.retx_pending.is_empty());
            assert_eq!(
                self.active.contains(ri),
                should,
                "pipeline worklist diverged from predicate at {} (cycle {}): \
                 member {} but stage masks {:?}",
                r.id,
                self.cycle,
                self.active.contains(ri),
                r.masks,
            );
        }
        for ni in 0..self.routers.len() {
            let should = self.inject_progress[ni].is_some() || !self.source_queues[ni].is_empty();
            assert_eq!(
                self.inject_active.contains(ni),
                should,
                "injection worklist diverged from predicate at node {ni} (cycle {}): \
                 member {} but open injection {} / queued {}",
                self.cycle,
                self.inject_active.contains(ni),
                self.inject_progress[ni].is_some(),
                self.source_queues[ni].len(),
            );
        }
    }

    /// No-progress watchdog: a non-quiescent network whose activity
    /// fingerprint is frozen for [`WATCHDOG_CYCLES`] is stuck.
    fn verify_watchdog(&mut self) {
        let fp = self.activity_fingerprint();
        if fp != self.verify.fingerprint {
            self.verify.fingerprint = fp;
            self.verify.last_change_cycle = self.cycle;
            return;
        }
        if self.cycle - self.verify.last_change_cycle >= WATCHDOG_CYCLES && !self.is_quiescent() {
            panic!(
                "no-progress watchdog: network non-quiescent with no activity since cycle {} \
                 (now {}): deadlock or livelock",
                self.verify.last_change_cycle, self.cycle,
            );
        }
    }

    /// Order-sensitive hash over the monotone activity counters; any
    /// flit movement, signal, or delivery changes it.
    fn activity_fingerprint(&self) -> u64 {
        let mut h = 0xA5A5_0001u64;
        let mut mix = |x: u64| h = splitmix64(h ^ x);
        mix(self.stats.packets_injected);
        mix(self.stats.packets_delivered);
        mix(self.stats.flits_delivered);
        mix(self.stats.hop_nacks);
        mix(self.stats.flit_retransmissions);
        mix(self.stats.packet_retransmissions);
        for c in &self.counters {
            mix(c.buffer_writes);
            mix(c.buffer_reads);
            mix(c.ack_signals);
            mix(c.retransmit_sends);
            mix(c.link_traversals.iter().sum());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_control::{PerfectLink, ScriptedErrorControl};

    fn armed_net<E: ErrorControl>(protocol: E) -> Network<E> {
        FORCE_ARMED.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(armed());
        let config = NocConfig::builder().mesh(4, 4).build();
        Network::new(config, protocol, 77)
    }

    fn offer_all_pairs<E: ErrorControl>(net: &mut Network<E>) {
        let mesh = net.mesh();
        for src in mesh.nodes() {
            let dst = NodeId(((src.index() + 5) % mesh.num_nodes()) as u16);
            if src != dst {
                net.offer(src, dst);
            }
        }
    }

    #[test]
    fn clean_traffic_upholds_every_invariant() {
        let mut net = armed_net(PerfectLink::new());
        offer_all_pairs(&mut net);
        assert!(net.run_until_quiescent(10_000));
    }

    #[test]
    fn arq_heavy_traffic_upholds_every_invariant() {
        let mut net = armed_net(ScriptedErrorControl::reject_every(3));
        offer_all_pairs(&mut net);
        assert!(net.run_until_quiescent(20_000));
        assert!(
            net.stats().flit_retransmissions > 0,
            "scenario must exercise ARQ"
        );
    }

    #[test]
    fn pre_retransmit_traffic_upholds_every_invariant() {
        let protocol = ScriptedErrorControl::reject_every(4).with_pre_retransmit(true);
        let mut net = armed_net(protocol);
        offer_all_pairs(&mut net);
        assert!(net.run_until_quiescent(20_000));
        assert!(
            net.stats().pre_retransmit_hits > 0,
            "scenario must exercise mode 2"
        );
    }

    #[test]
    #[should_panic(expected = "credit conservation violated")]
    fn stolen_credit_is_detected() {
        let mut net = armed_net(PerfectLink::new());
        net.routers[0]
            .out_vc_mut(Direction::East.index(), 0)
            .credits -= 1;
        net.step();
    }

    #[test]
    #[should_panic(expected = "flit conservation violated")]
    fn leaked_arena_slot_is_detected() {
        let mut net = armed_net(PerfectLink::new());
        let packet = Packet {
            id: PacketId(0),
            src: NodeId(0),
            dst: NodeId(1),
            num_flits: 1,
            class: PacketClass::Data,
            injected_at: 0,
            payload_seed: 1,
        };
        // Allocate a slot no FIFO, event, or reassembly entry owns.
        let _ = net.arena.alloc(packet.make_flit(0, 0, &Crc32::new()));
        net.step();
    }

    #[test]
    #[should_panic(expected = "ARQ gate")]
    fn orphaned_arq_gate_is_detected() {
        let mut net = armed_net(ScriptedErrorControl::reliable());
        // Gate an input VC on a sequence number the upstream never sent.
        net.routers[0]
            .input_mut(Direction::East.index(), 0)
            .awaiting_retx = Some(SequenceNumber::new(41));
        net.step();
    }

    #[test]
    #[should_panic(expected = "pipeline-stage masks diverged")]
    fn corrupted_stage_mask_is_detected() {
        let mut net = armed_net(PerfectLink::new());
        net.routers[0].masks.rc |= 1 << 3;
        net.step();
    }

    #[test]
    fn every_stage_word_is_swept() {
        type Corrupt = fn(&mut crate::router::StageMasks);
        let corruptions: [(&str, Corrupt); 9] = [
            ("nonempty", |m| m.nonempty ^= 1),
            ("fresh", |m| m.fresh ^= 1),
            ("no_credit", |m| m.no_credit ^= 1),
            ("busy_until", |m| m.busy_until += 1),
            ("retx_full", |m| m.retx_full ^= 1),
            ("va_ports", |m| m.va_ports ^= 1),
            ("holds", |m| m.holds[1] ^= 1),
            ("va_req", |m| m.va_req[2][0] ^= 1),
            ("occupied_vcs", |m| m.occupied_vcs += 1),
        ];
        for (word, corrupt) in corruptions {
            let mut net = armed_net(PerfectLink::new());
            corrupt(&mut net.routers[5].masks);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.verify_invariants();
            }));
            let payload = caught.expect_err(word);
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.contains("pipeline-stage masks diverged"),
                "`{word}` tripped another check: {message}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "pipeline worklist diverged")]
    fn dropped_worklist_member_is_detected() {
        let mut net = armed_net(PerfectLink::new());
        let mesh = net.mesh();
        net.offer(mesh.node_at(0, 0), mesh.node_at(3, 3));
        // Let the packet buffer somewhere mid-mesh, then knock its
        // router off the worklist: the fused kernel would never visit
        // it again, silently freezing the packet in place.
        for _ in 0..6 {
            net.step();
        }
        let stuck = (0..net.routers.len())
            .find(|&ri| net.routers[ri].masks.occupied() != 0)
            .expect("a router must hold the in-flight packet");
        net.active.remove(stuck);
        net.verify_invariants();
    }

    #[test]
    #[should_panic(expected = "injection worklist diverged")]
    fn dropped_injection_member_is_detected() {
        let mut net = armed_net(PerfectLink::new());
        let mesh = net.mesh();
        // Saturate node 0's injection port so its source queue stays
        // non-empty, then hide the node from the injection worklist.
        for _ in 0..8 {
            net.offer(mesh.node_at(0, 0), mesh.node_at(3, 3));
        }
        net.step();
        assert!(
            net.inject_progress[0].is_some() || !net.source_queues[0].is_empty(),
            "fixture must leave injection work at node 0"
        );
        net.inject_active.remove(0);
        net.verify_invariants();
    }

    /// Armed network with the router at (1, 1) already dead: the common
    /// fixture for the hard-fault corruption-injection tests below.
    fn armed_faulted_net() -> Network<PerfectLink> {
        let mut net = armed_net(PerfectLink::new());
        let dead = net.mesh().node_at(1, 1);
        net.set_hard_faults(vec![HardFaultEvent {
            cycle: 1,
            kind: HardFaultKind::Router { node: dead },
        }]);
        for _ in 0..4 {
            net.step();
        }
        assert!(net.node_dead(dead), "fixture fault must have applied");
        net
    }

    #[test]
    fn hard_fault_traffic_upholds_every_invariant() {
        let mut net = armed_net(ScriptedErrorControl::reject_every(5));
        let mesh = net.mesh();
        net.set_hard_faults(vec![
            HardFaultEvent {
                cycle: 20,
                kind: HardFaultKind::Link {
                    node: mesh.node_at(0, 0),
                    dir: Direction::East,
                },
            },
            HardFaultEvent {
                cycle: 30,
                kind: HardFaultKind::Router {
                    node: mesh.node_at(2, 2),
                },
            },
        ]);
        offer_all_pairs(&mut net);
        assert!(net.run_until_quiescent(20_000));
        let stats = net.stats();
        assert_eq!(stats.hard_fault_events, 2);
        assert_eq!(
            stats.packets_delivered + stats.packets_lost_hard_fault,
            stats.packets_injected,
            "conservation must hold under armed hard-fault checking"
        );
    }

    #[test]
    #[should_panic(expected = "dead router")]
    fn flit_in_dead_router_is_detected() {
        use crate::router::BufferedFlit;
        let mut net = armed_faulted_net();
        let dead = net.mesh().node_at(1, 1);
        let packet = Packet {
            id: PacketId(900),
            src: NodeId(0),
            dst: NodeId(1),
            num_flits: 1,
            class: PacketClass::Data,
            injected_at: 0,
            payload_seed: 1,
        };
        // Smuggle an arena flit into the evacuated router's input FIFO.
        let flit = net.arena.alloc(packet.make_flit(0, 0, &Crc32::new()));
        net.routers[dead.index()]
            .input_mut(Direction::East.index(), 0)
            .fifo
            .push_back(BufferedFlit {
                flit,
                tail: true,
                arrived_at: 0,
            });
        // Invoke the checker directly: a full step would trip the
        // debug-build stage-mask assertion before it gets here.
        net.verify_invariants();
    }

    #[test]
    #[should_panic(expected = "credit replenished on dead link")]
    fn replenished_dead_link_credit_is_detected() {
        let mut net = armed_faulted_net();
        // (0, 1)'s East channel leads into the dead router: schedule a
        // credit return onto it as if a flit had just drained there.
        let west_neighbor = net.mesh().node_at(0, 1);
        let now = net.cycle;
        net.wheel.push(
            now,
            now + 1,
            Event::Credit {
                node: west_neighbor,
                port: Direction::East,
                vc: 0,
            },
        );
        net.step();
    }

    #[test]
    #[should_panic(expected = "reroute table inconsistent")]
    fn stale_reroute_entry_is_detected() {
        let mut net = armed_faulted_net();
        let mesh = net.mesh();
        let (cur, dst) = (mesh.node_at(0, 1), mesh.node_at(3, 3));
        // Point a live pair's route straight into the dead router.
        assert!(net.hard_faults_active(), "fixture applied a fault");
        net.routes.corrupt_entry(cur, dst, Direction::East);
        net.step();
    }
}
