//! Reference network: the by-value simulation engine.
//!
//! A re-implementation of `noc_sim::network::Network` with none of the
//! optimized kernel's machinery: flits travel through events **by
//! value** (no arena handles), source/reassembly bookkeeping uses plain
//! `HashMap`s (no dense packet windows), routes are computed on demand
//! (no route tables), and every phase scans every router and VC every
//! cycle (no skip counters). The phase order, event timing, and RNG
//! consumption are contractually identical to the optimized engine —
//! that is exactly what the differential oracle verifies.

use crate::refrouter::{BufferedFlit, PendingRetransmit, RefRouter, VcState};
use crate::refroutes::RefFaultRoutes;
use noc_coding::arq::{AckKind, SequenceNumber};
use noc_coding::crc::Crc32;
use noc_sim::config::NocConfig;
use noc_sim::error_control::{EjectOutcome, ErrorControl, HopOutcome, TransferKind};
use noc_sim::flit::{splitmix64, Flit, Packet, PacketClass, PacketId};
use noc_sim::network::{HardFaultEvent, HardFaultKind};
use noc_sim::stats::{EventCounters, NetworkStats, RouterEpochStats};
use noc_sim::topology::{Direction, LinkId, NodeId, Topo, MAX_PORTS};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Event-wheel horizon in cycles; all scheduled events must land within
/// this many cycles of the present.
const WHEEL: u64 = 64;

/// A scheduled simulation event. Flits ride the events by value.
#[derive(Debug, Clone)]
enum Event {
    /// A flit reaches the downstream end of `link`.
    Arrival {
        link: LinkId,
        vc: u8,
        flit: Flit,
        seq: Option<SequenceNumber>,
        kind: TransferKind,
        /// Whether a proactive duplicate was sent one cycle behind
        /// (captured at send time; mode 2).
        pre_sent: bool,
    },
    /// A pre-retransmitted copy that was already accepted lands in the
    /// downstream buffer (one cycle after the rejected original).
    DirectDeliver {
        node: NodeId,
        in_port: Direction,
        vc: u8,
        flit: Flit,
    },
    /// A flit leaves through the local port into the destination core.
    Eject { node: NodeId, flit: Flit },
    /// A buffer credit returns to the upstream router's output port.
    Credit {
        node: NodeId,
        port: Direction,
        vc: u8,
    },
    /// An ACK/NACK side-band signal reaches the sending router.
    AckSignal {
        node: NodeId,
        port: Direction,
        seq: SequenceNumber,
        kind: AckKind,
    },
}

/// Cyclic event wheel (allocate-per-slot; no buffer recycling).
#[derive(Debug)]
struct Wheel {
    slots: Vec<Vec<Event>>,
}

impl Wheel {
    fn new() -> Self {
        Self {
            slots: (0..WHEEL).map(|_| Vec::new()).collect(),
        }
    }

    fn push(&mut self, now: u64, at: u64, event: Event) {
        assert!(at > now, "events must be scheduled in the future");
        assert!(at - now < WHEEL, "event horizon exceeded");
        self.slots[(at % WHEEL) as usize].push(event);
    }

    fn take(&mut self, cycle: u64) -> Vec<Event> {
        std::mem::take(&mut self.slots[(cycle % WHEEL) as usize])
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Vec::is_empty)
    }
}

/// Progress of a packet being injected flit-by-flit at a node.
#[derive(Debug, Clone)]
struct InjectProgress {
    packet: Packet,
    attempt: u8,
    next_flit: u8,
    vc: u8,
}

/// Hard-fault bookkeeping, mirroring the optimized engine's state: the
/// pending schedule, liveness marks, the fault-adaptive route table
/// (built at the first applied event), and the set of packets lost to
/// faults ("doomed" — their surviving flits evaporate on arrival
/// instead of being forwarded).
#[derive(Debug)]
struct RefFaultState {
    events: Vec<HardFaultEvent>,
    next_event: usize,
    node_dead: Vec<bool>,
    /// `link_dead[node][port]`: the channel at `node` in that direction
    /// is dead. Kept symmetric with the peer's opposite entry.
    link_dead: Vec<[bool; MAX_PORTS]>,
    /// `Some` once the first fault event has been applied; the network
    /// then routes via this table instead of X-Y.
    routes: Option<RefFaultRoutes>,
    /// Packets that lost at least one flit (or their source/destination
    /// router) to a hard fault.
    doomed: BTreeSet<PacketId>,
}

impl RefFaultState {
    fn new(events: Vec<HardFaultEvent>, n: usize) -> Self {
        Self {
            events,
            next_event: 0,
            node_dead: vec![false; n],
            link_dead: vec![[false; MAX_PORTS]; n],
            routes: None,
            doomed: BTreeSet::new(),
        }
    }

    /// Marks the channel `node → dir` (and its reverse) dead.
    fn kill_link(&mut self, mesh: Topo, node: NodeId, dir: Direction) {
        self.link_dead[node.index()][dir.index()] = true;
        if let Some(peer) = mesh.neighbor(node, dir) {
            self.link_dead[peer.index()][dir.opposite().index()] = true;
        }
    }

    /// Records `id` as lost; returns `true` when newly recorded and the
    /// packet carries data (i.e. counts toward `packets_lost_faults`).
    fn doom(&mut self, id: PacketId, is_data: bool) -> bool {
        self.doomed.insert(id) && is_data
    }
}

/// The reference simulation engine, generic over the same
/// [`ErrorControl`] extension point as the optimized kernel.
#[derive(Debug)]
pub struct RefNetwork<E: ErrorControl> {
    config: NocConfig,
    mesh: Topo,
    protocol: E,
    routers: Vec<RefRouter>,
    crc: Crc32,
    cycle: u64,
    wheel: Wheel,
    source_queues: Vec<VecDeque<(Packet, u8)>>,
    inject_progress: Vec<Option<InjectProgress>>,
    next_inject_vc: Vec<u8>,
    /// Source store: packets awaiting confirmed delivery, with their
    /// retransmission attempt count.
    pending_packets: HashMap<PacketId, (Packet, u8)>,
    /// Destination reassembly, keyed by (packet, attempt).
    reassembly: HashMap<(PacketId, u8), Vec<Flit>>,
    next_packet_id: u64,
    payload_seed: u64,
    stats: NetworkStats,
    epoch: Vec<RouterEpochStats>,
    counters: Vec<EventCounters>,
    /// Hard-fault bookkeeping; `None` while the topology is intact.
    faults: Option<Box<RefFaultState>>,
    /// Packets doomed during the current RC phase (destination became
    /// unreachable); drained right after the phase.
    rc_doomed: Vec<(PacketId, bool)>,
}

impl<E: ErrorControl> RefNetwork<E> {
    /// Builds a reference network from `config` with the given
    /// error-control layer. `seed` determinizes packet payloads exactly
    /// as in the optimized engine.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`NocConfig::validate`].
    pub fn new(config: NocConfig, protocol: E, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let mesh = config.mesh;
        let n = mesh.num_nodes();
        Self {
            config,
            mesh,
            protocol,
            routers: mesh.nodes().map(|id| RefRouter::new(id, &config)).collect(),
            crc: Crc32::new(),
            cycle: 0,
            wheel: Wheel::new(),
            source_queues: vec![VecDeque::new(); n],
            inject_progress: vec![None; n],
            next_inject_vc: vec![0; n],
            pending_packets: HashMap::new(),
            reassembly: HashMap::new(),
            next_packet_id: 0,
            payload_seed: seed,
            stats: NetworkStats::default(),
            epoch: vec![RouterEpochStats::default(); n],
            counters: vec![EventCounters::default(); n],
            faults: None,
            rc_doomed: Vec::new(),
        }
    }

    /// Installs a permanent hard-fault schedule. Mirrors the optimized
    /// engine exactly: events are sorted by cycle and each batch takes
    /// effect at the start of its cycle's `step`, before event
    /// processing. An empty schedule leaves the zero-fault path.
    ///
    /// # Panics
    ///
    /// Panics if an event names a node outside the mesh or a link that
    /// does not exist.
    pub fn set_hard_faults(&mut self, mut events: Vec<HardFaultEvent>) {
        for ev in &events {
            match ev.kind {
                HardFaultKind::Router { node } => {
                    assert!(
                        node.index() < self.mesh.num_nodes(),
                        "fault node outside mesh"
                    );
                }
                HardFaultKind::Link { node, dir } => {
                    assert!(
                        node.index() < self.mesh.num_nodes(),
                        "fault node outside mesh"
                    );
                    assert!(
                        self.mesh.neighbor(node, dir).is_some(),
                        "hard fault on a nonexistent link {node}:{dir}"
                    );
                }
            }
        }
        if events.is_empty() {
            self.faults = None;
            return;
        }
        events.sort_by_key(|e| e.cycle);
        self.faults = Some(Box::new(RefFaultState::new(events, self.mesh.num_nodes())));
    }

    /// The network topology.
    pub fn mesh(&self) -> Topo {
        self.mesh
    }

    /// The current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cumulative network statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Per-router statistics for the current control epoch.
    pub fn epoch_stats(&self) -> &[RouterEpochStats] {
        &self.epoch
    }

    /// Resets per-router epoch statistics.
    pub fn reset_epoch_stats(&mut self) {
        for e in &mut self.epoch {
            e.reset();
        }
    }

    /// Clears cumulative statistics and energy counters. In-flight
    /// traffic and learned state are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = NetworkStats::default();
        for c in &mut self.counters {
            c.reset();
        }
        // `unreachable_pairs` is a gauge, not an accumulator: re-seed it
        // from the live fault state so measurement-phase reports still
        // describe the surviving topology.
        if let Some(fs) = &self.faults {
            if let Some(fr) = &fs.routes {
                self.stats.unreachable_pairs = fr.unreachable_pairs();
            }
        }
    }

    /// Cumulative per-router energy event counters.
    pub fn counters(&self) -> &[EventCounters] {
        &self.counters
    }

    /// Immutable access to the error-control layer.
    pub fn protocol(&self) -> &E {
        &self.protocol
    }

    /// Mutable access to the error-control layer.
    pub fn protocol_mut(&mut self) -> &mut E {
        &mut self.protocol
    }

    /// Offers a data packet from `src` to `dst`, returning its id.
    ///
    /// Once hard faults are active, an offer between endpoints with no
    /// live route is *refused*: it consumes an id (keeping id streams
    /// aligned with the optimized engine) but injects nothing, counted
    /// in `packets_refused_unreachable`.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either node is outside the mesh.
    pub fn offer(&mut self, src: NodeId, dst: NodeId) -> PacketId {
        assert!(src != dst, "packet source and destination must differ");
        assert!(
            src.index() < self.mesh.num_nodes() && dst.index() < self.mesh.num_nodes(),
            "node outside mesh"
        );
        if let Some(fs) = &self.faults {
            if let Some(fr) = &fs.routes {
                if !fr.reachable(src, dst) {
                    let id = PacketId(self.next_packet_id);
                    self.next_packet_id += 1;
                    self.stats.packets_refused_unreachable += 1;
                    return id;
                }
            }
        }
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let packet = Packet {
            id,
            src,
            dst,
            num_flits: self.config.flits_per_packet,
            class: PacketClass::Data,
            injected_at: self.cycle,
            payload_seed: splitmix64(self.payload_seed ^ id.0),
        };
        self.source_queues[src.index()].push_back((packet, 0));
        self.pending_packets.insert(id, (packet, 0));
        self.stats.packets_injected += 1;
        id
    }

    /// Offers a retransmit-request control packet (destination → source).
    fn offer_control(&mut self, from: NodeId, to: NodeId, of: PacketId) {
        if let Some(fs) = &self.faults {
            if let Some(fr) = &fs.routes {
                if !fr.reachable(from, to) {
                    // The source can no longer be reached; the request
                    // (and with it the retransmission) is abandoned.
                    return;
                }
            }
        }
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let packet = Packet {
            id,
            src: from,
            dst: to,
            num_flits: 1,
            class: PacketClass::RetransmitRequest { of },
            injected_at: self.cycle,
            payload_seed: splitmix64(self.payload_seed ^ id.0),
        };
        self.source_queues[from.index()].push_back((packet, 0));
        self.stats.control_packets += 1;
    }

    /// Advances the simulation by one clock cycle.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        if let Some(fs) = &self.faults {
            if fs
                .events
                .get(fs.next_event)
                .is_some_and(|e| e.cycle <= cycle)
            {
                self.apply_hard_fault_batch(cycle);
            }
        }
        self.process_events(cycle);
        self.inject_phase(cycle);
        self.sa_st_phase(cycle);
        self.va_phase();
        self.rc_phase(cycle);
        self.sample_phase();
        self.cycle += 1;
    }

    /// `true` when no packet or flit remains anywhere in the system.
    pub fn is_quiescent(&self) -> bool {
        self.wheel.is_empty()
            && self.source_queues.iter().all(VecDeque::is_empty)
            && self.inject_progress.iter().all(Option::is_none)
            && self.reassembly.is_empty()
            && self.routers.iter().all(|r| {
                r.inputs
                    .iter()
                    .all(|port| port.iter().all(|vc| vc.fifo.is_empty()))
                    && r.outputs.iter().all(|p| p.retx_pending.is_empty())
            })
    }

    // ----- phases ---------------------------------------------------------

    fn process_events(&mut self, cycle: u64) {
        for event in self.wheel.take(cycle) {
            match event {
                Event::Arrival {
                    link,
                    vc,
                    flit,
                    seq,
                    kind,
                    pre_sent,
                } => self.handle_arrival(cycle, link, vc, flit, seq, kind, pre_sent),
                Event::DirectDeliver {
                    node,
                    in_port,
                    vc,
                    flit,
                } => {
                    if self
                        .faults
                        .as_ref()
                        .is_some_and(|fs| fs.doomed.contains(&flit.packet))
                    {
                        // Evaporate (the hop already ACKed at accept
                        // time); return the buffer credit if the
                        // upstream link still lives.
                        if in_port != Direction::Local
                            && !self
                                .faults
                                .as_ref()
                                .is_some_and(|fs| fs.link_dead[node.index()][in_port.index()])
                        {
                            let up = self
                                .mesh
                                .neighbor(node, in_port)
                                .expect("flit arrived from a neighbor");
                            self.wheel.push(
                                cycle,
                                cycle + 1,
                                Event::Credit {
                                    node: up,
                                    port: in_port.opposite(),
                                    vc,
                                },
                            );
                        }
                    } else {
                        self.accept_flit(node, in_port, vc, flit, cycle);
                    }
                }
                Event::Eject { node, flit } => self.handle_eject(cycle, node, flit),
                Event::Credit { node, port, vc } => {
                    let out = &mut self.routers[node.index()].outputs[port.index()];
                    let credit = &mut out.vcs[vc as usize].credits;
                    *credit = credit.saturating_add(1);
                    debug_assert!(
                        port == Direction::Local || *credit <= self.config.vc_depth,
                        "credit overflow on {node}:{port}"
                    );
                }
                Event::AckSignal {
                    node,
                    port,
                    seq,
                    kind,
                } => {
                    let out = &mut self.routers[node.index()].outputs[port.index()];
                    let (_, copy) = out.retx_buffer.acknowledge(seq, kind);
                    if let Some((flit, out_vc)) = copy {
                        out.retx_pending
                            .push_back(PendingRetransmit { flit, out_vc, seq });
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_arrival(
        &mut self,
        cycle: u64,
        link: LinkId,
        vc: u8,
        flit: Flit,
        seq: Option<SequenceNumber>,
        kind: TransferKind,
        pre_sent: bool,
    ) {
        let dst = self
            .mesh
            .neighbor(link.src, link.dir)
            .expect("arrival beyond mesh edge");
        let di = dst.index();
        let si = link.src.index();
        let in_port = link.dir.opposite();
        let ack_at = cycle + self.config.ack_latency as u64;

        // Hard-fault evaporation: flits of a doomed packet drain out at
        // arrival — the link-level contract (ACK + credit) completes so
        // the sender's ARQ window and credit pool recover, but the flit
        // goes no further. Arrivals only happen on live links: dead
        // links had their in-flight events swept at fault application.
        if self
            .faults
            .as_ref()
            .is_some_and(|fs| fs.doomed.contains(&flit.packet))
        {
            if kind == TransferKind::HopRetransmit && seq.is_some() {
                let ivc = &mut self.routers[di].inputs[in_port.index()][vc as usize];
                if ivc.awaiting_retx == seq {
                    ivc.awaiting_retx = None;
                }
            }
            if let Some(seq) = seq {
                self.counters[di].ack_signals += 1;
                self.wheel.push(
                    cycle,
                    ack_at,
                    Event::AckSignal {
                        node: link.src,
                        port: link.dir,
                        seq,
                        kind: AckKind::Ack,
                    },
                );
            }
            self.wheel.push(
                cycle,
                cycle + 1,
                Event::Credit {
                    node: link.src,
                    port: link.dir,
                    vc,
                },
            );
            return;
        }

        // Go-back-N gate: while a rejected flit awaits retransmission on
        // this VC, auto-reject every non-matching arrival that carries a
        // sequence number (order preservation).
        let gate = self.routers[di].inputs[in_port.index()][vc as usize].awaiting_retx;
        if let Some(gate_seq) = gate {
            let matches = kind == TransferKind::HopRetransmit && seq == Some(gate_seq);
            if !matches {
                if let Some(seq) = seq {
                    self.stats.hop_nacks += 1;
                    self.epoch[di].nacks_out += 1;
                    self.epoch[si].nacks_in += 1;
                    self.counters[di].ack_signals += 1;
                    self.wheel.push(
                        cycle,
                        ack_at,
                        Event::AckSignal {
                            node: link.src,
                            port: link.dir,
                            seq,
                            kind: AckKind::Nack,
                        },
                    );
                    self.wheel.push(
                        cycle,
                        ack_at,
                        Event::Credit {
                            node: link.src,
                            port: link.dir,
                            vc,
                        },
                    );
                    // Keep the sender quiet until it processes the NACK.
                    let out = &mut self.routers[si].outputs[link.dir.index()];
                    out.next_free = out.next_free.max(ack_at);
                    return;
                }
                // A sequence-less arrival under a gate can only happen
                // across an ECC-off mode switch. It cannot be NACKed (the
                // sender holds no copy), so stall it on the wire until the
                // awaited retransmission lands.
                self.wheel.push(
                    cycle,
                    cycle + 1,
                    Event::Arrival {
                        link,
                        vc,
                        flit,
                        seq,
                        kind,
                        pre_sent: false,
                    },
                );
                return;
            }
        }

        let mut working = flit;
        let protected = seq.is_some();
        let outcome = self.protocol.hop_transfer(
            link,
            &mut working,
            cycle,
            kind,
            protected,
            &mut self.counters[di],
        );
        match outcome {
            HopOutcome::Delivered | HopOutcome::DeliveredCorrected => {
                if outcome == HopOutcome::DeliveredCorrected {
                    self.stats.ecc_corrections += 1;
                }
                if kind == TransferKind::HopRetransmit {
                    self.routers[di].inputs[in_port.index()][vc as usize].awaiting_retx = None;
                }
                self.accept_flit(dst, in_port, vc, working, cycle);
                if let Some(seq) = seq {
                    self.counters[di].ack_signals += 1;
                    self.wheel.push(
                        cycle,
                        ack_at,
                        Event::AckSignal {
                            node: link.src,
                            port: link.dir,
                            seq,
                            kind: AckKind::Ack,
                        },
                    );
                }
            }
            HopOutcome::Reject => {
                debug_assert!(seq.is_some(), "reject on a link without ARQ");
                // Operation mode 2: consult the proactive duplicate before
                // falling back to a NACK round trip.
                if kind == TransferKind::Original && pre_sent {
                    let mut copy = flit;
                    let o2 = self.protocol.hop_transfer(
                        link,
                        &mut copy,
                        cycle,
                        TransferKind::PreRetransmitCopy,
                        protected,
                        &mut self.counters[di],
                    );
                    if o2 != HopOutcome::Reject {
                        if o2 == HopOutcome::DeliveredCorrected {
                            self.stats.ecc_corrections += 1;
                        }
                        self.stats.pre_retransmit_hits += 1;
                        self.wheel.push(
                            cycle,
                            cycle + 1,
                            Event::DirectDeliver {
                                node: dst,
                                in_port,
                                vc,
                                flit: copy,
                            },
                        );
                        if let Some(seq) = seq {
                            self.counters[di].ack_signals += 1;
                            self.wheel.push(
                                cycle,
                                ack_at + 1,
                                Event::AckSignal {
                                    node: link.src,
                                    port: link.dir,
                                    seq,
                                    kind: AckKind::Ack,
                                },
                            );
                        }
                        return;
                    }
                }
                let seq = seq.expect("reject requires hop ARQ");
                self.routers[di].inputs[in_port.index()][vc as usize].awaiting_retx = Some(seq);
                self.stats.hop_nacks += 1;
                self.epoch[di].nacks_out += 1;
                self.epoch[si].nacks_in += 1;
                self.counters[di].ack_signals += 1;
                self.wheel.push(
                    cycle,
                    ack_at,
                    Event::AckSignal {
                        node: link.src,
                        port: link.dir,
                        seq,
                        kind: AckKind::Nack,
                    },
                );
                self.wheel.push(
                    cycle,
                    ack_at,
                    Event::Credit {
                        node: link.src,
                        port: link.dir,
                        vc,
                    },
                );
                // Suspend the sender's port until the NACK is processed so
                // no younger flit enters the reorder window.
                let out = &mut self.routers[si].outputs[link.dir.index()];
                out.next_free = out.next_free.max(ack_at);
            }
        }
    }

    fn accept_flit(&mut self, node: NodeId, in_port: Direction, vc: u8, flit: Flit, cycle: u64) {
        let ni = node.index();
        self.counters[ni].buffer_writes += 1;
        self.epoch[ni].flits_in[in_port.index()] += 1;
        let fifo = &mut self.routers[ni].inputs[in_port.index()][vc as usize].fifo;
        debug_assert!(
            fifo.len() < self.config.vc_depth as usize,
            "input VC overflow at {node}:{in_port}:{vc}"
        );
        fifo.push_back(BufferedFlit {
            flit,
            arrived_at: cycle,
        });
    }

    fn handle_eject(&mut self, cycle: u64, node: NodeId, flit: Flit) {
        if self
            .faults
            .as_ref()
            .is_some_and(|fs| fs.doomed.contains(&flit.packet))
        {
            return;
        }
        self.counters[node.index()].crc_checks += 1;
        let expected = if flit.class.is_control() {
            1
        } else {
            self.config.flits_per_packet
        } as usize;
        let key = (flit.packet, flit.attempt);
        let entry = self.reassembly.entry(key).or_default();
        entry.push(flit);
        if entry.len() == expected {
            let flits = self.reassembly.remove(&key).expect("entry just filled");
            self.finish_packet(cycle, node, flits);
        }
    }

    fn finish_packet(&mut self, cycle: u64, node: NodeId, flits: Vec<Flit>) {
        let head = flits[0];
        match head.class {
            PacketClass::RetransmitRequest { of } => {
                // The request reached the original source: re-queue the
                // packet. Stale requests (packet already delivered) are
                // ignored, as real hardware would.
                if let Some((packet, attempts)) = self.pending_packets.get_mut(&of) {
                    *attempts = attempts.saturating_add(1);
                    let resend = (*packet, *attempts);
                    self.source_queues[node.index()].push_front(resend);
                    self.stats.packet_retransmissions += 1;
                }
            }
            PacketClass::Data => {
                let outcome =
                    self.protocol
                        .eject_check(&flits, cycle, &mut self.counters[node.index()]);
                match outcome {
                    EjectOutcome::Accept => {
                        self.stats.packets_delivered += 1;
                        self.stats.flits_delivered += flits.len() as u64;
                        self.epoch[node.index()].core_activity_flits += flits.len() as u64;
                        let latency = cycle.saturating_sub(head.injected_at);
                        self.stats.latency.record(latency);
                        self.stats.last_delivery_cycle = cycle;
                        if let Some((packet, _)) = self.pending_packets.remove(&head.packet) {
                            if flits
                                .iter()
                                .any(|f| f.payload != packet.payload_for(f.index))
                            {
                                self.stats.silent_corruptions += 1;
                            }
                        }
                        // Attribute the latency sample along the route
                        // the packet actually took: X-Y while the
                        // topology is intact, the fault-adaptive table
                        // once faults are active (the walk stops early
                        // if the surviving route dead-ends).
                        let mut r = head.src;
                        loop {
                            let e = &mut self.epoch[r.index()];
                            e.latency_sum += latency;
                            e.latency_count += 1;
                            if r == head.dst {
                                break;
                            }
                            let dir = match self.faults.as_ref().and_then(|f| f.routes.as_ref()) {
                                Some(fr) => match fr.next_hop(r, head.dst) {
                                    Some(d) if d != Direction::Local => d,
                                    _ => break,
                                },
                                None => self.mesh.min_route(r, head.dst).0,
                            };
                            r = self.mesh.neighbor(r, dir).expect("route stays in mesh");
                        }
                    }
                    EjectOutcome::RequestRetransmit => {
                        self.stats.packets_failed_crc += 1;
                        self.offer_control(node, head.src, head.packet);
                    }
                }
            }
        }
    }

    fn inject_phase(&mut self, cycle: u64) {
        let local = Direction::Local.index();
        let vdepth = self.config.vc_depth as usize;
        let vcs = self.config.vcs_per_port;
        for ni in 0..self.routers.len() {
            if self.inject_progress[ni].is_none() {
                if let Some((packet, attempt)) = self.source_queues[ni].pop_front() {
                    // Rotate the starting VC; prefer one with space now.
                    let start = self.next_inject_vc[ni];
                    let mut vc = start;
                    for off in 0..vcs {
                        let cand = (start + off) % vcs;
                        if self.routers[ni].inputs[local][cand as usize].fifo.len() < vdepth {
                            vc = cand;
                            break;
                        }
                    }
                    self.next_inject_vc[ni] = (vc + 1) % vcs;
                    self.inject_progress[ni] = Some(InjectProgress {
                        packet,
                        attempt,
                        next_flit: 0,
                        vc,
                    });
                }
            }
            let Some(prog) = &mut self.inject_progress[ni] else {
                continue;
            };
            let fifo = &mut self.routers[ni].inputs[local][prog.vc as usize].fifo;
            if fifo.len() >= vdepth {
                continue; // local port back-pressured this cycle
            }
            let flit = prog
                .packet
                .make_flit(prog.next_flit, prog.attempt, &self.crc);
            fifo.push_back(BufferedFlit {
                flit,
                arrived_at: cycle,
            });
            self.counters[ni].crc_encodes += 1;
            self.counters[ni].buffer_writes += 1;
            self.epoch[ni].flits_in[local] += 1;
            if prog.attempt == 0 {
                self.epoch[ni].core_activity_flits += 1;
            }
            prog.next_flit += 1;
            if prog.next_flit == prog.packet.num_flits {
                self.inject_progress[ni] = None;
            }
        }
    }

    fn sa_st_phase(&mut self, cycle: u64) {
        let Self {
            routers,
            protocol,
            counters,
            epoch,
            stats,
            wheel,
            config,
            mesh,
            ..
        } = self;
        let link_latency = config.link_latency as u64;
        let v = config.vcs_per_port as usize;

        for router in routers.iter_mut() {
            let rid = router.id;
            let ri = rid.index();
            let np = router.inputs.len();
            let mut port_used = [false; MAX_PORTS];

            // Phase A: priority resends of NACKed flits. A port with a
            // pending retransmission is dedicated to it (order safety).
            for (out_p, used) in port_used.iter_mut().enumerate().take(np) {
                let dir = Direction::from_index(out_p);
                if dir == Direction::Local {
                    continue;
                }
                if cycle < router.outputs[out_p].next_free {
                    *used = true;
                    continue;
                }
                if router.outputs[out_p].retx_pending.is_empty() {
                    continue;
                }
                *used = true;
                let can_send = {
                    let pr = router.outputs[out_p]
                        .retx_pending
                        .front()
                        .expect("non-empty");
                    router.outputs[out_p].vcs[pr.out_vc as usize].credits > 0
                };
                if !can_send {
                    continue;
                }
                let pr = router.outputs[out_p]
                    .retx_pending
                    .pop_front()
                    .expect("non-empty");
                router.outputs[out_p].vcs[pr.out_vc as usize].credits -= 1;
                let link = LinkId { src: rid, dir };
                let delay = protocol.tx_delay(link) as u64;
                let pipeline = protocol.pipeline_latency(link) as u64;
                let pre = protocol.pre_retransmit(link);
                counters[ri].retransmit_sends += 1;
                counters[ri].link_traversals[out_p] += 1 + u64::from(pre);
                epoch[ri].flits_out[out_p] += 1;
                stats.flit_retransmissions += 1;
                wheel.push(
                    cycle,
                    cycle + link_latency + delay + pipeline,
                    Event::Arrival {
                        link,
                        vc: pr.out_vc,
                        flit: pr.flit,
                        seq: Some(pr.seq),
                        kind: TransferKind::HopRetransmit,
                        pre_sent: pre,
                    },
                );
                router.outputs[out_p].next_free = cycle + 1 + delay + u64::from(pre);
            }

            // Phase B: input-first selection.
            let mut selected: [Option<(usize, usize, u8)>; MAX_PORTS] = [None; MAX_PORTS];
            for (in_p, sel) in selected.iter_mut().enumerate().take(np) {
                let mut requests = vec![false; v];
                for (in_v, ivc) in router.inputs[in_p].iter().enumerate() {
                    let VcState::Active {
                        out_port, out_vc, ..
                    } = ivc.state
                    else {
                        continue;
                    };
                    let Some(front) = ivc.fifo.front() else {
                        continue;
                    };
                    if front.arrived_at >= cycle {
                        continue;
                    }
                    let op = out_port.index();
                    if port_used[op] || cycle < router.outputs[op].next_free {
                        continue;
                    }
                    if out_port != Direction::Local {
                        if router.outputs[op].vcs[out_vc as usize].credits == 0 {
                            continue;
                        }
                        let link = LinkId {
                            src: rid,
                            dir: out_port,
                        };
                        if protocol.hop_arq(link) && router.outputs[op].retx_buffer.is_full() {
                            continue;
                        }
                    }
                    requests[in_v] = true;
                }
                if let Some(win) = router.sa_input_arbiters[in_p].grant(&requests) {
                    let VcState::Active {
                        out_port, out_vc, ..
                    } = router.inputs[in_p][win].state
                    else {
                        unreachable!("selected VC must be active");
                    };
                    *sel = Some((win, out_port.index(), out_vc));
                }
            }

            // Phase C: output arbitration + switch traversal.
            for (out_p, &used) in port_used.iter().enumerate().take(np) {
                if used || cycle < router.outputs[out_p].next_free {
                    continue;
                }
                let mut requests = [false; MAX_PORTS];
                let mut any = false;
                for (in_p, sel) in selected.iter().enumerate().take(np) {
                    if let Some((_, op, _)) = sel {
                        if *op == out_p {
                            requests[in_p] = true;
                            any = true;
                        }
                    }
                }
                if !any {
                    continue;
                }
                let in_p = router.sa_output_arbiters[out_p]
                    .grant(&requests[..np])
                    .expect("a request was asserted");
                let (in_v, _, out_vc) = selected[in_p].expect("request implies selection");

                counters[ri].sa_grants += 1;
                let bf = router.inputs[in_p][in_v]
                    .fifo
                    .pop_front()
                    .expect("granted VC holds a flit");
                counters[ri].buffer_reads += 1;
                counters[ri].crossbar_traversals += 1;
                epoch[ri].flits_out[out_p] += 1;
                let is_tail = bf.flit.kind.is_tail();
                if is_tail {
                    router.inputs[in_p][in_v].state = VcState::Idle;
                }

                // Return the freed buffer slot to the upstream router.
                let in_dir = Direction::from_index(in_p);
                if in_dir != Direction::Local {
                    let upstream = mesh
                        .neighbor(rid, in_dir)
                        .expect("flit arrived from a neighbor");
                    wheel.push(
                        cycle,
                        cycle + 1,
                        Event::Credit {
                            node: upstream,
                            port: in_dir.opposite(),
                            vc: in_v as u8,
                        },
                    );
                }

                let out_dir = Direction::from_index(out_p);
                if is_tail {
                    router.outputs[out_p].vcs[out_vc as usize].allocated = false;
                }
                if out_dir == Direction::Local {
                    wheel.push(
                        cycle,
                        cycle + 1,
                        Event::Eject {
                            node: rid,
                            flit: bf.flit,
                        },
                    );
                    router.outputs[out_p].next_free = cycle + 1;
                } else {
                    router.outputs[out_p].vcs[out_vc as usize].credits -= 1;
                    let link = LinkId {
                        src: rid,
                        dir: out_dir,
                    };
                    let delay = protocol.tx_delay(link) as u64;
                    let pipeline = protocol.pipeline_latency(link) as u64;
                    let pre = protocol.pre_retransmit(link);
                    counters[ri].link_traversals[out_p] += 1 + u64::from(pre);
                    let seq = if protocol.hop_arq(link) {
                        counters[ri].retransmit_buffer_writes += 1;
                        Some(
                            router.outputs[out_p]
                                .retx_buffer
                                .push((bf.flit, out_vc), cycle)
                                .expect("fullness checked during selection"),
                        )
                    } else {
                        None
                    };
                    wheel.push(
                        cycle,
                        cycle + link_latency + delay + pipeline,
                        Event::Arrival {
                            link,
                            vc: out_vc,
                            flit: bf.flit,
                            seq,
                            kind: TransferKind::Original,
                            pre_sent: pre,
                        },
                    );
                    router.outputs[out_p].next_free = cycle + 1 + delay + u64::from(pre);
                }
            }
        }
    }

    fn va_phase(&mut self) {
        for (ri, router) in self.routers.iter_mut().enumerate() {
            let grants = router.va_stage();
            self.counters[ri].va_allocations += grants;
        }
    }

    fn rc_phase(&mut self, cycle: u64) {
        let Self {
            routers,
            mesh,
            faults,
            rc_doomed,
            ..
        } = self;
        let fault_routes = faults.as_deref().and_then(|f| f.routes.as_ref());
        for router in routers.iter_mut() {
            router.rc_stage(cycle, *mesh, fault_routes, rc_doomed);
        }
        if !self.rc_doomed.is_empty() {
            self.finish_rc_dooms(cycle);
        }
    }

    fn sample_phase(&mut self) {
        for (ri, router) in self.routers.iter().enumerate() {
            let e = &mut self.epoch[ri];
            e.cycles += 1;
            e.occupied_vc_cycles += router.occupied_input_vcs() as u64;
        }
    }

    // ----- hard faults ----------------------------------------------------

    /// Applies every hard-fault event due at `cycle`: marks the dead
    /// elements, recomputes the fault-adaptive route table, evacuates
    /// state resident on dead elements, and purges the packets the
    /// batch killed. Runs at the top of `step` — before event
    /// processing — so both simulation engines observe the failure at
    /// the same phase-order point.
    fn apply_hard_fault_batch(&mut self, cycle: u64) {
        let mut fs = self
            .faults
            .take()
            .expect("caller checked a schedule exists");
        let mut lost = 0u64;

        // 1. Consume the due events.
        let mut applied = 0u64;
        while let Some(ev) = fs.events.get(fs.next_event) {
            if ev.cycle > cycle {
                break;
            }
            match ev.kind {
                HardFaultKind::Router { node } => {
                    fs.node_dead[node.index()] = true;
                    for &dir in self.mesh.compass() {
                        if self.mesh.neighbor(node, dir).is_some() {
                            fs.kill_link(self.mesh, node, dir);
                        }
                    }
                }
                HardFaultKind::Link { node, dir } => fs.kill_link(self.mesh, node, dir),
            }
            fs.next_event += 1;
            applied += 1;
        }

        // 2. Recompute the routing tree on the surviving topology.
        let node_alive: Vec<bool> = fs.node_dead.iter().map(|&d| !d).collect();
        let routes = RefFaultRoutes::compute(self.mesh, &node_alive, |n, d| {
            !fs.link_dead[n.index()][d.index()]
        });
        let unreachable = routes.unreachable_pairs();
        fs.routes = Some(routes);

        // 3. Wheel sweep: in-flight events on dead elements die in
        // place. Killing an arrival dooms its packet — the wormhole has
        // been severed.
        for slot in &mut self.wheel.slots {
            slot.retain(|ev| {
                let dead_packet = match ev {
                    Event::Arrival { link, flit, .. } => {
                        if fs.link_dead[link.src.index()][link.dir.index()] {
                            Some((flit.packet, !flit.class.is_control()))
                        } else {
                            None
                        }
                    }
                    Event::DirectDeliver { node, flit, .. } | Event::Eject { node, flit } => {
                        if fs.node_dead[node.index()] {
                            Some((flit.packet, !flit.class.is_control()))
                        } else {
                            None
                        }
                    }
                    Event::Credit { node, port, .. } | Event::AckSignal { node, port, .. } => {
                        return !(fs.node_dead[node.index()]
                            || fs.link_dead[node.index()][port.index()]);
                    }
                };
                match dead_packet {
                    Some((id, is_data)) => {
                        if fs.doom(id, is_data) {
                            lost += 1;
                        }
                        false
                    }
                    None => true,
                }
            });
        }

        // 4. Evacuate dead routers and dead-link ports, and divert live
        // VCs that were routed toward a link that just died.
        let mut dealloc: Vec<(usize, usize)> = Vec::new();
        for router in self.routers.iter_mut() {
            let ni = router.id.index();
            if fs.node_dead[ni] {
                // Dead router: everything it holds is lost, and its
                // core can no longer source traffic.
                for port in router.inputs.iter_mut() {
                    for ivc in port.iter_mut() {
                        for bf in ivc.fifo.drain(..) {
                            if fs.doom(bf.flit.packet, !bf.flit.class.is_control()) {
                                lost += 1;
                            }
                        }
                        match ivc.state {
                            VcState::NeedsVa { packet, .. } | VcState::Active { packet, .. } => {
                                // Flits of this packet already left
                                // through the crossbar; it can never
                                // complete.
                                if fs.doom(packet, true) {
                                    lost += 1;
                                }
                            }
                            VcState::Idle => {}
                        }
                        ivc.state = VcState::Idle;
                        ivc.awaiting_retx = None;
                    }
                }
                for out in router.outputs.iter_mut() {
                    for pr in out.retx_pending.drain(..) {
                        if fs.doom(pr.flit.packet, !pr.flit.class.is_control()) {
                            lost += 1;
                        }
                    }
                    out.retx_buffer.clear();
                    for ovc in out.vcs.iter_mut() {
                        ovc.allocated = false;
                    }
                }
                for (p, _) in self.source_queues[ni].drain(..) {
                    if fs.doom(p.id, !p.class.is_control()) {
                        lost += 1;
                    }
                }
                if let Some(prog) = self.inject_progress[ni].take() {
                    if fs.doom(prog.packet.id, !prog.packet.class.is_control()) {
                        lost += 1;
                    }
                }
                continue;
            }

            // Live router: flush ports attached to dead links.
            for &dir in self.mesh.compass() {
                let p = dir.index();
                if !fs.link_dead[ni][p] {
                    continue;
                }
                for ivc in router.inputs[p].iter_mut() {
                    for bf in ivc.fifo.drain(..) {
                        if fs.doom(bf.flit.packet, !bf.flit.class.is_control()) {
                            lost += 1;
                        }
                    }
                    match ivc.state {
                        VcState::NeedsVa { packet, .. } | VcState::Active { packet, .. } => {
                            // The rest of the packet is stranded
                            // upstream of the dead link.
                            if fs.doom(packet, true) {
                                lost += 1;
                            }
                        }
                        VcState::Idle => {}
                    }
                    if let VcState::Active {
                        out_port, out_vc, ..
                    } = ivc.state
                    {
                        dealloc.push((out_port.index(), out_vc as usize));
                    }
                    ivc.state = VcState::Idle;
                    ivc.awaiting_retx = None;
                }
                for pr in router.outputs[p].retx_pending.drain(..) {
                    if fs.doom(pr.flit.packet, !pr.flit.class.is_control()) {
                        lost += 1;
                    }
                }
                router.outputs[p].retx_buffer.clear();
            }

            // Self-healing divert: VCs routed toward a dead output
            // link. A packet that has not yet sent a flit through
            // the crossbar re-enters RC; a severed wormhole is lost.
            for port in router.inputs.iter_mut() {
                for ivc in port.iter_mut() {
                    match ivc.state {
                        VcState::NeedsVa { out_port, .. } if fs.link_dead[ni][out_port.index()] => {
                            ivc.state = VcState::Idle;
                        }
                        VcState::Active {
                            out_port,
                            out_vc,
                            packet,
                        } if fs.link_dead[ni][out_port.index()] => {
                            dealloc.push((out_port.index(), out_vc as usize));
                            let head_waiting =
                                ivc.fifo.front().is_some_and(|bf| bf.flit.kind.is_head());
                            if !head_waiting && fs.doom(packet, true) {
                                lost += 1;
                            }
                            ivc.state = VcState::Idle;
                        }
                        _ => {}
                    }
                }
            }
            for &(op, ov) in &dealloc {
                router.outputs[op].vcs[ov].allocated = false;
            }
            dealloc.clear();
        }

        // 5. Packets whose source or destination core died are lost, as
        // are reassembly attempts collecting at a dead destination.
        let stale: Vec<PacketId> = self
            .pending_packets
            .values()
            .filter(|(p, _)| fs.node_dead[p.src.index()] || fs.node_dead[p.dst.index()])
            .map(|(p, _)| p.id)
            .collect();
        for id in stale {
            if fs.doom(id, true) {
                lost += 1;
            }
        }
        let stale: Vec<(PacketId, bool)> = self
            .reassembly
            .values()
            .filter_map(|flits| {
                let f = flits.first()?;
                fs.node_dead[f.dst.index()].then_some((f.packet, !f.class.is_control()))
            })
            .collect();
        for (id, is_data) in stale {
            if fs.doom(id, is_data) {
                lost += 1;
            }
        }

        // 6. Purge everything the batch doomed, then publish counters.
        self.purge_doomed_resident(&fs, cycle);
        self.stats.hard_fault_events += applied;
        self.stats.reroute_events += 1;
        self.stats.unreachable_pairs = unreachable;
        self.stats.packets_lost_hard_fault += lost;
        self.faults = Some(fs);
    }

    /// Called after the RC phase when head flits found their
    /// destination unreachable on the surviving topology: dooms those
    /// packets and purges their resident flits so the network stays
    /// drainable.
    fn finish_rc_dooms(&mut self, cycle: u64) {
        let mut fs = self.faults.take().expect("RC dooms require fault state");
        let mut dooms = std::mem::take(&mut self.rc_doomed);
        let mut lost = 0u64;
        for &(id, is_data) in &dooms {
            if fs.doom(id, is_data) {
                lost += 1;
            }
        }
        dooms.clear();
        self.rc_doomed = dooms;
        self.purge_doomed_resident(&fs, cycle);
        self.stats.packets_lost_hard_fault += lost;
        self.faults = Some(fs);
    }

    /// Removes every resident trace of doomed packets — buffered flits
    /// (returning credits on live links), VC ownership, injection
    /// state, source-queue entries, and the pending/reassembly windows.
    /// In-flight wheel events self-clean on arrival instead. The fault
    /// state is passed detached because callers hold it taken out of
    /// `self.faults`.
    fn purge_doomed_resident(&mut self, fs: &RefFaultState, now: u64) {
        let Self {
            routers,
            wheel,
            mesh,
            source_queues,
            inject_progress,
            pending_packets,
            reassembly,
            ..
        } = self;
        let mut dealloc: Vec<(usize, usize)> = Vec::new();
        for router in routers.iter_mut() {
            let rid = router.id;
            let ni = rid.index();
            for in_p in 0..router.inputs.len() {
                let in_dir = Direction::from_index(in_p);
                let upstream = if in_dir == Direction::Local {
                    None
                } else {
                    mesh.neighbor(rid, in_dir)
                };
                let credits_live = !fs.node_dead[ni]
                    && !fs.link_dead[ni][in_p]
                    && upstream.is_some_and(|up| !fs.node_dead[up.index()]);
                for (in_v, ivc) in router.inputs[in_p].iter_mut().enumerate() {
                    if !ivc.fifo.is_empty() {
                        ivc.fifo.retain(|bf| {
                            let keep = !fs.doomed.contains(&bf.flit.packet);
                            if !keep && credits_live {
                                wheel.push(
                                    now,
                                    now + 1,
                                    Event::Credit {
                                        node: upstream.expect("live link has a peer"),
                                        port: in_dir.opposite(),
                                        vc: in_v as u8,
                                    },
                                );
                            }
                            keep
                        });
                    }
                    match ivc.state {
                        VcState::NeedsVa { packet, .. } if fs.doomed.contains(&packet) => {
                            ivc.state = VcState::Idle;
                        }
                        VcState::Active {
                            out_port,
                            out_vc,
                            packet,
                        } if fs.doomed.contains(&packet) => {
                            dealloc.push((out_port.index(), out_vc as usize));
                            ivc.state = VcState::Idle;
                        }
                        _ => {}
                    }
                }
            }
            for &(op, ov) in &dealloc {
                router.outputs[op].vcs[ov].allocated = false;
            }
            dealloc.clear();
        }
        for (ni, prog) in inject_progress.iter_mut().enumerate() {
            if prog
                .as_ref()
                .is_some_and(|p| fs.doomed.contains(&p.packet.id))
            {
                *prog = None;
            }
            source_queues[ni].retain(|(p, _)| !fs.doomed.contains(&p.id));
        }
        pending_packets.retain(|id, _| !fs.doomed.contains(id));
        reassembly.retain(|(id, _), _| !fs.doomed.contains(id));
    }
}
