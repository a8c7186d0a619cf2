//! The network: routers, links, event scheduling, injection/ejection, and
//! the per-cycle simulation loop.
//!
//! [`Network::step`] advances one clock cycle through six phases:
//!
//! 1. **Events** — flit arrivals (with error-control processing), credit
//!    returns, ACK/NACK processing, ejection/reassembly.
//! 2. **Injection** — one flit per node from the source queue into the
//!    local input port.
//! 3. **SA/ST** — switch allocation and traversal (priority resends
//!    first, then separable input-first/output arbitration).
//! 4. **VA** — virtual-channel allocation.
//! 5. **RC** — route computation.
//! 6. **Sampling** — per-router occupancy statistics.
//!
//! Running the phases in this order makes each pipeline stage take one
//! cycle: a flit arriving at cycle *t* computes its route at *t+1*, gets a
//! VC at *t+2*, and crosses the switch at *t+3* — the paper's 4-stage
//! router — then spends `link_latency` cycles on the wire.
//!
//! ## Hop-level ARQ ordering (go-back-N gate)
//!
//! When a flit is rejected by the downstream ECC decoder, flits of the
//! same packet may already be in flight behind it. To preserve per-VC flit
//! order the receiver *gates* the VC: every non-matching arrival is
//! auto-rejected (NACKed) until the retransmission of the rejected flit
//! arrives — classic go-back-N. The sender's port is additionally
//! suspended from the reject until its NACK is processed, so no new flit
//! can slip into the window.

use crate::config::NocConfig;
use crate::error_control::{EjectOutcome, ErrorControl, HopOutcome, TransferKind};
use crate::flit::{Flit, FlitArena, FlitRef, Packet, PacketClass, PacketId, PacketWindow};
use crate::router::{BufferedFlit, PendingRetransmit, Router, VcState};
use crate::routing::{RouteCache, Routes, ROUTE_CACHE};
use crate::stats::{EventCounters, NetworkStats, RouterEpochStats};
use crate::topology::{Direction, LinkId, NeighborTable, NodeId, Topo, MAX_PORTS};
use crate::worklist::{bits, ActiveSet};
use noc_coding::arq::{AckKind, SequenceNumber};
use noc_coding::crc::Crc32;
use rlnoc_telemetry::{Counter, Gauge, Histogram, LapClock, Laps, Telemetry, TimerHandle};
use std::collections::{BTreeSet, VecDeque};

/// Per-cycle runtime invariant checks (child module so it can traverse
/// the private event wheel); compiled only under the `verify` feature
/// and armed by `RLNOC_VERIFY=1`.
#[cfg(feature = "verify")]
#[path = "invariants.rs"]
pub(crate) mod invariants;

/// Event-wheel horizon in cycles; all scheduled events must land within
/// this many cycles of the present.
const WHEEL: u64 = 64;

/// A scheduled simulation event. Flit-carrying events hold arena
/// handles, so an event is a few machine words rather than a full flit
/// body.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A flit reaches the downstream end of `link`.
    Arrival {
        link: LinkId,
        vc: u8,
        flit: FlitRef,
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
        flit: FlitRef,
    },
    /// A flit leaves through the local port into the destination core.
    Eject { node: NodeId, flit: FlitRef },
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

/// Cyclic event wheel with slot-buffer reuse: draining a slot swaps in
/// a recycled buffer instead of leaving a fresh zero-capacity `Vec`
/// behind, so steady-state event scheduling performs no allocation.
#[derive(Debug)]
struct Wheel {
    slots: Vec<Vec<Event>>,
    /// The buffer drained by the previous cycle, cleared and waiting to
    /// back the next drained slot.
    spare: Vec<Event>,
}

impl Wheel {
    fn new() -> Self {
        Self {
            slots: (0..WHEEL).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, now: u64, at: u64, event: Event) {
        assert!(at > now, "events must be scheduled in the future");
        assert!(at - now < WHEEL, "event horizon exceeded");
        self.slots[(at % WHEEL) as usize].push(event);
    }

    /// Drains the slot for `cycle`, leaving the spare buffer (with its
    /// grown capacity) in its place. Return the drained buffer via
    /// [`Wheel::recycle`] once processed.
    fn take(&mut self, cycle: u64) -> Vec<Event> {
        std::mem::replace(
            &mut self.slots[(cycle % WHEEL) as usize],
            std::mem::take(&mut self.spare),
        )
    }

    fn recycle(&mut self, mut buffer: Vec<Event>) {
        buffer.clear();
        self.spare = buffer;
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(Vec::is_empty)
    }
}

/// One router's switch requests for a cycle: what input-first selection
/// hands to output arbitration.
#[derive(Debug, Default, PartialEq, Eq)]
struct SwitchRequests {
    /// Per input port, the `(input VC, held output VC)` its arbiter
    /// picked; meaningful only for ports named in `wanted`.
    winner: [(u8, u8); MAX_PORTS],
    /// Per output port, the input ports whose pick wants it.
    wanted: [u8; MAX_PORTS],
    /// Output ports with a non-zero `wanted` word.
    ports: u8,
}

/// Progress of a packet being injected flit-by-flit at a node.
#[derive(Debug, Clone)]
struct InjectProgress {
    packet: Packet,
    attempt: u8,
    next_flit: u8,
    vc: u8,
}

/// What fails in a [`HardFaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardFaultKind {
    /// The bidirectional channel between `node` and its neighbor in
    /// `dir` fails permanently (both directions die together — the
    /// physical wires share a bundle).
    Link {
        /// One endpoint of the failing channel.
        node: NodeId,
        /// The direction of the channel at `node` (never `Local`).
        dir: Direction,
    },
    /// The whole router (and every link attached to it) fails
    /// permanently. Its core can no longer inject or receive packets.
    Router {
        /// The failing router.
        node: NodeId,
    },
}

/// A permanent topology failure scheduled at a simulation cycle.
///
/// Applied at the start of the `step` for `cycle` — before event
/// processing — so both the production and reference simulators observe
/// the failure at exactly the same point in the phase order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardFaultEvent {
    /// Absolute cycle at which the element dies.
    pub cycle: u64,
    /// The failing element.
    pub kind: HardFaultKind,
}

/// Hard-fault bookkeeping: the pending schedule, liveness marks, where
/// reroute tables come from, and the set of packets lost to faults
/// ("doomed" — their surviving flits evaporate on arrival instead of
/// being forwarded).
#[derive(Debug)]
struct FaultState {
    events: Vec<HardFaultEvent>,
    next_event: usize,
    node_dead: Vec<bool>,
    /// `link_dead[node][port]`: the channel at `node` in that direction
    /// is dead. Kept symmetric with the peer's opposite entry.
    link_dead: Vec<[bool; MAX_PORTS]>,
    /// Where reroute tables are looked up: [`ROUTE_CACHE`] outside this
    /// module's own tests.
    cache: &'static RouteCache,
    /// Packets that lost at least one flit (or their source/destination
    /// router) to a hard fault. Membership-only, ordered for
    /// deterministic iteration.
    doomed: BTreeSet<PacketId>,
}

impl FaultState {
    fn new(events: Vec<HardFaultEvent>, n: usize) -> Self {
        Self {
            events,
            next_event: 0,
            node_dead: vec![false; n],
            link_dead: vec![[false; MAX_PORTS]; n],
            cache: &ROUTE_CACHE,
            doomed: BTreeSet::new(),
        }
    }

    /// Marks the channel `node → dir` (and its reverse) dead.
    fn kill_link(&mut self, neighbors: &NeighborTable, node: NodeId, dir: Direction) {
        self.link_dead[node.index()][dir.index()] = true;
        if let Some(peer) = neighbors.get(node, dir) {
            self.link_dead[peer.index()][dir.opposite().index()] = true;
        }
    }

    /// Records `id` as lost; returns `true` when newly recorded and the
    /// packet carries data (i.e. counts toward `packets_lost_faults`).
    fn doom(&mut self, id: PacketId, is_data: bool) -> bool {
        self.doomed.insert(id) && is_data
    }
}

/// The two lookup tables every [`Network`] builds for its topology: the
/// healthy route table and the neighbor table. [`Network::new`] builds them
/// through this type, so timing [`SharedTables::new`] times exactly what
/// a network build pays for them. The type exists only for that
/// measurement; it goes when the benchmark stops naming it (ROADMAP
/// item 1c).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct SharedTables {
    routes: Routes,
    neighbors: NeighborTable,
}

impl SharedTables {
    /// Builds both tables for `mesh` (any topology).
    pub fn new(mesh: impl Into<Topo>) -> Self {
        let mesh = mesh.into();
        Self {
            routes: Routes::healthy(mesh),
            neighbors: NeighborTable::new(mesh),
        }
    }
}

/// A cycle-accurate NoC simulation instance, generic over the
/// [`ErrorControl`] implementation that governs link protection.
///
/// # Example
///
/// ```
/// use noc_sim::config::NocConfig;
/// use noc_sim::error_control::PerfectLink;
/// use noc_sim::network::Network;
///
/// let config = NocConfig::builder().mesh(4, 4).build();
/// let mut net = Network::new(config, PerfectLink::new(), 1);
/// let mesh = net.mesh();
/// net.offer(mesh.node_at(0, 0), mesh.node_at(3, 3));
/// for _ in 0..100 {
///     net.step();
/// }
/// assert_eq!(net.stats().packets_delivered, 1);
/// ```
#[derive(Debug)]
pub struct Network<E: ErrorControl> {
    config: NocConfig,
    mesh: Topo,
    protocol: E,
    routers: Vec<Router>,
    crc: Crc32,
    cycle: u64,
    wheel: Wheel,
    /// The one next-hop table (RC stage, reachability, latency
    /// attribution): minimal routes on the intact topology, up*/down*
    /// ones once a hard-fault batch has been applied.
    routes: Routes,
    /// Precomputed node × direction neighbor lookup (link endpoints).
    neighbors: NeighborTable,
    /// Slab of in-flight flit bodies; everything else moves handles.
    arena: FlitArena,
    source_queues: Vec<VecDeque<(Packet, u8)>>,
    inject_progress: Vec<Option<InjectProgress>>,
    next_inject_vc: Vec<u8>,
    /// Source store: packets awaiting confirmed delivery, with their
    /// retransmission attempt count. Dense over the in-flight id band.
    pending_packets: PacketWindow<(Packet, u8)>,
    /// Destination reassembly: `reassembly[node]` holds the transmission
    /// attempts collecting at `node`. A node has a handful at once — one
    /// per packet holding a local output VC, plus ejections a cycle
    /// behind — so a lookup costs what is live there, whatever the ids:
    /// under saturation a retransmitted packet's id can trail the newest
    /// by tens of thousands.
    reassembly: Vec<Vec<ReassemblyEntry>>,
    /// Entries across `reassembly`.
    reassembling: usize,
    /// Recycled flit-handle buffers for reassembly entries.
    reassembly_pool: Vec<Vec<FlitRef>>,
    /// Reused staging buffer: flit bodies of a completed packet, handed
    /// to `eject_check` and the payload-verification pass.
    eject_scratch: Vec<Flit>,
    next_packet_id: u64,
    payload_seed: u64,
    stats: NetworkStats,
    epoch: Vec<RouterEpochStats>,
    counters: Vec<EventCounters>,
    /// Hard-fault state; `None` (the default) leaves every fault-mode
    /// branch cold so zero-fault runs are bit-identical to a build
    /// without the subsystem.
    faults: Option<Box<FaultState>>,
    /// Scratch: packets doomed by the RC stage this cycle (destination
    /// became unreachable), with their data/control classification.
    rc_doomed: Vec<(PacketId, bool)>,
    /// Pipeline worklist: routers with at least one occupied input VC or
    /// a pending priority resend. Maintained incrementally at every
    /// buffer write and resend enqueue, retired in the sampling pass,
    /// rebuilt after hard-fault purges. Routers outside the set provably
    /// have no SA/VA/RC work (see the phase skip conditions).
    active: ActiveSet,
    /// Injection worklist: nodes with an open flit-by-flit injection or
    /// a non-empty source queue.
    inject_active: ActiveSet,
    /// Epoch cycles not yet flushed into the per-router records. The
    /// per-cycle `cycles` increment is uniform across routers, so the
    /// sampling pass bumps this single counter instead of touching all
    /// `n` records; [`Network::finish_epoch`] flushes before any read.
    epoch_pending_cycles: u64,
    tel: NetTelemetry,
    /// Watchdog state for the runtime invariant checker.
    #[cfg(feature = "verify")]
    verify: invariants::VerifyState,
}

/// Flits of one end-to-end transmission attempt collecting at the
/// destination.
#[derive(Debug)]
struct ReassemblyEntry {
    packet: PacketId,
    attempt: u8,
    flits: Vec<FlitRef>,
}

/// Pre-resolved telemetry handles for the simulation hot path. All
/// handles are inert no-ops until [`Network::set_telemetry`] installs an
/// enabled [`Telemetry`]; disabled, each site costs one branch.
#[derive(Debug, Clone, Default)]
struct NetTelemetry {
    /// One span timer per [`Stage`], in its order.
    stages: [TimerHandle; STAGE_TIMERS.len()],
    hardfault_apply: TimerHandle,
    cycles: Counter,
    active_router_cycles: Counter,
    arq_nacks: Counter,
    arq_retransmits: Counter,
    buffered_flits: Histogram,
    hardfault_events: Counter,
    hardfault_reroutes: Counter,
    /// Reroutes that ran the up*/down* solve, and reroutes served from
    /// the process-wide cache; they sum to `hardfault_reroutes`.
    hardfault_route_solves: Counter,
    hardfault_route_cache_hits: Counter,
    hardfault_packets_lost: Counter,
    hardfault_unreachable_pairs: Gauge,
    /// Reassembly entries opened, and entries scanned to find the one a
    /// flit joins: the second stays within a small multiple of the first
    /// whatever ids are in flight.
    reassembly_entries: Counter,
    reassembly_slots: Counter,
}

impl NetTelemetry {
    fn resolve(telemetry: &Telemetry) -> Self {
        Self {
            stages: STAGE_TIMERS.map(|name| telemetry.timer(name)),
            hardfault_apply: telemetry.timer("sim.hardfault.apply"),
            cycles: telemetry.counter("sim.cycles"),
            active_router_cycles: telemetry.counter("sim.worklist.active_router_cycles"),
            arq_nacks: telemetry.counter("sim.arq.nacks"),
            arq_retransmits: telemetry.counter("sim.arq.retransmit_sends"),
            buffered_flits: telemetry.histogram("sim.router.buffered_flits"),
            hardfault_events: telemetry.counter("sim.hardfault.events"),
            hardfault_reroutes: telemetry.counter("sim.hardfault.reroutes"),
            hardfault_route_solves: telemetry.counter("sim.hardfault.route_solves"),
            hardfault_route_cache_hits: telemetry.counter("sim.hardfault.route_cache_hits"),
            hardfault_packets_lost: telemetry.counter("sim.hardfault.packets_lost"),
            hardfault_unreachable_pairs: telemetry.gauge("sim.hardfault.unreachable_pairs"),
            reassembly_entries: telemetry.counter("sim.reassembly.entries"),
            reassembly_slots: telemetry.counter("sim.reassembly.slots_touched"),
        }
    }
}

/// The stages of one cycle, in the order they run and the order of
/// [`STAGE_TIMERS`].
enum Stage {
    Events,
    Inject,
    SaSt,
    Va,
    Rc,
    Sample,
}

/// The v1 span names of the [`Stage`]s.
const STAGE_TIMERS: [&str; 6] = [
    "sim.phase.process_events",
    "sim.phase.inject",
    "sim.phase.sa_st",
    "sim.phase.va",
    "sim.phase.rc",
    "sim.phase.sample",
];

/// With telemetry on, the stages are timed on the cycles that are
/// multiples of this and each time is recorded with this weight, so a
/// stage timer's sum estimates the stage's wall time over every cycle
/// while unsampled cycles read no clock.
const STAGE_SAMPLE_PERIOD: u64 = 16;

impl<E: ErrorControl> Network<E> {
    /// Builds a network from `config` with the given error-control layer.
    ///
    /// `seed` determinizes packet payload contents.
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
        let SharedTables { routes, neighbors } = SharedTables::new(mesh);
        Self {
            config,
            mesh,
            protocol,
            routers: mesh.nodes().map(|id| Router::new(id, &config)).collect(),
            crc: Crc32::new(),
            cycle: 0,
            wheel: Wheel::new(),
            routes,
            neighbors,
            arena: FlitArena::new(),
            source_queues: vec![VecDeque::new(); n],
            inject_progress: vec![None; n],
            next_inject_vc: vec![0; n],
            pending_packets: PacketWindow::new(),
            reassembly: (0..n).map(|_| Vec::new()).collect(),
            reassembling: 0,
            reassembly_pool: Vec::new(),
            eject_scratch: Vec::new(),
            next_packet_id: 0,
            payload_seed: seed,
            stats: NetworkStats::default(),
            epoch: vec![RouterEpochStats::default(); n],
            counters: vec![EventCounters::default(); n],
            faults: None,
            rc_doomed: Vec::new(),
            active: ActiveSet::new(n),
            inject_active: ActiveSet::new(n),
            epoch_pending_cycles: 0,
            tel: NetTelemetry::default(),
            #[cfg(feature = "verify")]
            verify: invariants::VerifyState::default(),
        }
    }

    /// Installs a telemetry handle, resolving the simulator's hot-path
    /// instruments (per-phase span timers, cycle/ARQ counters, buffer
    /// occupancy histogram). With a disabled handle — also the state of
    /// a freshly built network — every instrument is a single-branch
    /// no-op.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.tel = NetTelemetry::resolve(telemetry);
    }

    /// The network configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
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

    /// Per-router statistics for the current control epoch. Flushes the
    /// deferred cycle count first, so the returned records are complete.
    pub fn epoch_stats(&mut self) -> &[RouterEpochStats] {
        self.finish_epoch();
        &self.epoch
    }

    /// Per-router epoch records *without* flushing deferred cycle
    /// accounting. Callers must run [`Network::finish_epoch`] first;
    /// exists so trait-level `&self` accessors keep working.
    pub fn epoch_stats_raw(&self) -> &[RouterEpochStats] {
        &self.epoch
    }

    /// Flushes deferred epoch accounting into the per-router records.
    /// The sampling pass accumulates the uniform per-cycle `cycles`
    /// increment in one network-level counter; this folds it back in.
    /// Idempotent and cheap when nothing is pending.
    pub fn finish_epoch(&mut self) {
        if self.epoch_pending_cycles == 0 {
            return;
        }
        let pending = self.epoch_pending_cycles;
        self.epoch_pending_cycles = 0;
        for e in &mut self.epoch {
            e.cycles += pending;
        }
    }

    /// Resets per-router epoch statistics (call at each control epoch).
    /// When telemetry is enabled, samples each router's buffered-flit
    /// occupancy into the `sim.router.buffered_flits` histogram first —
    /// an epoch-boundary congestion snapshot with no per-cycle cost.
    pub fn reset_epoch_stats(&mut self) {
        if self.tel.buffered_flits.is_enabled() {
            for r in &self.routers {
                self.tel.buffered_flits.record(r.buffered_flits());
            }
        }
        self.epoch_pending_cycles = 0;
        for e in &mut self.epoch {
            e.reset();
        }
    }

    /// Clears cumulative network statistics and energy counters — used at
    /// a measurement-phase boundary (e.g. after warm-up or pre-training).
    /// In-flight traffic and learned state are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = NetworkStats::default();
        for c in &mut self.counters {
            c.reset();
        }
        // `unreachable_pairs` is a gauge, not an accumulator: re-seed it
        // from the live fault state so measurement-phase reports still
        // describe the surviving topology.
        self.stats.unreachable_pairs = self.routes.unreachable_pairs();
    }

    /// Cumulative per-router energy event counters.
    pub fn counters(&self) -> &[EventCounters] {
        &self.counters
    }

    /// Immutable access to the error-control layer.
    pub fn protocol(&self) -> &E {
        &self.protocol
    }

    /// Mutable access to the error-control layer (e.g. for switching
    /// operation modes between epochs).
    pub fn protocol_mut(&mut self) -> &mut E {
        &mut self.protocol
    }

    /// Immutable access to a router (for feature extraction).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// Installs a permanent hard-fault schedule. Each event is applied
    /// at the start of its cycle's `step`; an empty schedule leaves the
    /// network in the exact zero-fault fast path.
    ///
    /// Replaces any previously installed schedule; call before the
    /// first `step` (events whose cycle already passed are applied at
    /// the next step in one batch).
    ///
    /// # Panics
    ///
    /// Panics if an event names a node outside the mesh, a `Local`
    /// direction, or a link beyond a mesh edge.
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
        if self.hard_faults_active() {
            // A new schedule starts from the intact topology.
            self.routes = Routes::healthy(self.mesh);
        }
        if events.is_empty() {
            self.faults = None;
            return;
        }
        events.sort_by_key(|e| e.cycle);
        self.faults = Some(Box::new(FaultState::new(events, self.mesh.num_nodes())));
    }

    /// `true` once at least one hard-fault event has been applied (the
    /// network is routing up*/down*).
    pub fn hard_faults_active(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.next_event > 0)
    }

    /// The next-hop table the network routes on.
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// Whether router `node` has failed.
    pub fn node_dead(&self, node: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.node_dead[node.index()])
    }

    /// Whether the channel leaving `node` in `dir` has failed.
    pub fn link_dead(&self, node: NodeId, dir: Direction) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.link_dead[node.index()][dir.index()])
    }

    /// Offers a data packet from `src` to `dst`, returning its id. The
    /// packet enters the source queue immediately and is injected
    /// flit-by-flit as the local port allows.
    ///
    /// Once hard faults are active, an offer between endpoints with no
    /// live route is *refused*: it consumes an id (so id streams stay
    /// aligned with the reference model) but injects nothing, counted
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
        if !self.routes.reachable(src, dst) {
            let id = PacketId(self.next_packet_id);
            self.next_packet_id += 1;
            self.stats.packets_refused_unreachable += 1;
            return id;
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
            payload_seed: crate::flit::splitmix64(self.payload_seed ^ id.0),
        };
        self.source_queues[src.index()].push_back((packet, 0));
        self.inject_active.insert(src.index());
        self.pending_packets.insert(id, (packet, 0));
        self.stats.packets_injected += 1;
        id
    }

    /// Offers a retransmit-request control packet (destination → source).
    fn offer_control(&mut self, from: NodeId, to: NodeId, of: PacketId) {
        if !self.routes.reachable(from, to) {
            // The source can no longer be reached; the request (and
            // with it the retransmission) is abandoned.
            return;
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
            payload_seed: crate::flit::splitmix64(self.payload_seed ^ id.0),
        };
        self.source_queues[from.index()].push_back((packet, 0));
        self.inject_active.insert(from.index());
        self.stats.control_packets += 1;
    }

    /// Advances the simulation by one clock cycle: events, injection,
    /// then one fused pass over the active-router worklist in which each
    /// live router executes SA/ST → VA → RC → sampling back to back while
    /// its state is hot.
    ///
    /// With telemetry on, one cycle in [`STAGE_SAMPLE_PERIOD`] stamps
    /// every stage boundary and records the six stage times with that
    /// weight; the simulation is the same either way.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        if let Some(fs) = &self.faults {
            if fs
                .events
                .get(fs.next_event)
                .is_some_and(|e| e.cycle <= cycle)
            {
                let _span = self.tel.hardfault_apply.start();
                self.apply_hard_fault_batch(cycle);
            }
        }
        if self.tel.stages[0].is_enabled() && cycle.is_multiple_of(STAGE_SAMPLE_PERIOD) {
            let mut laps = Laps::start();
            self.run_stages(cycle, &mut laps);
            laps.record(&self.tel.stages, STAGE_SAMPLE_PERIOD);
        } else {
            self.run_stages(cycle, &mut ());
        }
        self.epoch_pending_cycles += 1;
        self.tel.cycles.inc();
        self.cycle += 1;
        #[cfg(feature = "verify")]
        self.verify_invariants();
    }

    /// Advances until either the network is quiescent or `max_cycles`
    /// additional cycles have elapsed. Returns `true` on quiescence.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_quiescent() {
                return true;
            }
            self.step();
        }
        self.is_quiescent()
    }

    /// `true` when no packet or flit remains anywhere in the system.
    ///
    /// Between steps both worklists equal their membership predicates
    /// (armed runs check this every cycle), so empty worklists certify
    /// that no router buffers a flit or owes a resend and no node has
    /// injection work — the drain loop's per-cycle quiescence probe
    /// costs a few word compares instead of a full state scan.
    pub fn is_quiescent(&self) -> bool {
        let quiet = self.active.is_empty()
            && self.inject_active.is_empty()
            && self.wheel.is_empty()
            && self.reassembling == 0;
        debug_assert_eq!(
            quiet,
            self.wheel.is_empty()
                && self.source_queues.iter().all(VecDeque::is_empty)
                && self.inject_progress.iter().all(Option::is_none)
                && self.reassembly.iter().all(Vec::is_empty)
                && self.routers.iter().all(|r| {
                    r.inputs.iter().all(|vc| vc.fifo.is_empty())
                        && r.outputs.iter().all(|p| p.retx_pending.is_empty())
                }),
            "worklist quiescence probe diverged from the full state scan"
        );
        // Every live arena slot is owned by exactly one FIFO entry,
        // scheduled event, resend queue, or reassembly entry — all empty
        // here, so a non-zero live count would be a handle leak.
        debug_assert!(
            !quiet || self.arena.live() == 0,
            "flit arena leaks {} slots at quiescence",
            self.arena.live()
        );
        quiet
    }

    // ----- phases ---------------------------------------------------------

    /// The cycle after hard-fault application; see [`Network::step`].
    #[inline]
    fn run_stages(&mut self, cycle: u64, clock: &mut impl LapClock) {
        self.process_events(cycle);
        clock.lap(Stage::Events as usize);
        self.inject_phase(cycle);
        clock.lap(Stage::Inject as usize);
        self.fused_pipeline(cycle, clock);
    }

    fn process_events(&mut self, cycle: u64) {
        let mut events = self.wheel.take(cycle);
        for event in events.drain(..) {
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
                        .is_some_and(|fs| fs.doomed.contains(&self.arena[flit].packet))
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
                                .neighbors
                                .get(node, in_port)
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
                        self.arena.free(flit);
                    } else {
                        self.accept_flit(node, in_port, vc, flit, cycle);
                    }
                }
                Event::Eject { node, flit } => self.handle_eject(cycle, node, flit),
                Event::Credit { node, port, vc } => {
                    let router = &mut self.routers[node.index()];
                    router.return_credit(port.index(), vc as usize);
                    debug_assert!(
                        port == Direction::Local
                            || router.out_vc(port.index(), vc as usize).credits
                                <= self.config.vc_depth,
                        "credit overflow on {node}:{port}"
                    );
                }
                Event::AckSignal {
                    node,
                    port,
                    seq,
                    kind,
                } => {
                    let copy = self.routers[node.index()].acknowledge(port.index(), seq, kind);
                    if let Some((flit, out_vc)) = copy {
                        // Re-materialize the buffered copy into a fresh
                        // arena slot: the slot of the rejected transfer was
                        // freed (its payload may carry an escaped fault
                        // draw), and the buffer keeps its own pristine copy
                        // for further NACKs.
                        let flit = self.arena.alloc(flit);
                        let router = &mut self.routers[node.index()];
                        router.outputs[port.index()]
                            .retx_pending
                            .push_back(PendingRetransmit { flit, out_vc, seq });
                        router.masks.retx |= 1 << port.index();
                        // A pending resend is SA/ST work even on an
                        // otherwise-empty router.
                        self.active.insert(node.index());
                    }
                }
            }
        }
        self.wheel.recycle(events);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_arrival(
        &mut self,
        cycle: u64,
        link: LinkId,
        vc: u8,
        flit: FlitRef,
        seq: Option<SequenceNumber>,
        kind: TransferKind,
        pre_sent: bool,
    ) {
        let dst = self
            .neighbors
            .get(link.src, link.dir)
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
            .is_some_and(|fs| fs.doomed.contains(&self.arena[flit].packet))
        {
            if kind == TransferKind::HopRetransmit && seq.is_some() {
                let ivc = self.routers[di].input_mut(in_port.index(), vc as usize);
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
            self.arena.free(flit);
            return;
        }

        // Go-back-N gate: while a rejected flit awaits retransmission on
        // this VC, auto-reject every non-matching arrival that carries a
        // sequence number (order preservation).
        let gate = self.routers[di]
            .input(in_port.index(), vc as usize)
            .awaiting_retx;
        if let Some(gate_seq) = gate {
            let matches = kind == TransferKind::HopRetransmit && seq == Some(gate_seq);
            if !matches {
                if let Some(seq) = seq {
                    self.stats.hop_nacks += 1;
                    self.tel.arq_nacks.inc();
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
                    self.routers[si].hold_port(link.dir.index(), ack_at);
                    // The gated flit is discarded; its resend will be
                    // re-materialized from the sender's buffered copy.
                    self.arena.free(flit);
                    return;
                }
                // A sequence-less arrival under a gate can only happen
                // across an ECC-off mode switch. It cannot be NACKed (the
                // sender holds no copy), so stall it on the wire until the
                // awaited retransmission lands — otherwise it would
                // overtake the rejected flit and corrupt per-VC flit order.
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
            } else {
                // The awaited retransmission: clear the gate if it decodes.
            }
        }

        let protected = seq.is_some();
        // The fault draw mutates the arena slot in place. An operation-
        // mode-2 duplicate must see the payload *as sent*, so save the
        // two payload words for a potential rewind before the first draw.
        let saved_payload =
            (pre_sent && kind == TransferKind::Original).then(|| self.arena[flit].payload);
        let outcome = self.protocol.hop_transfer(
            link,
            &mut self.arena[flit],
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
                    self.routers[di]
                        .input_mut(in_port.index(), vc as usize)
                        .awaiting_retx = None;
                }
                self.accept_flit(dst, in_port, vc, flit, cycle);
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
                // falling back to a NACK round trip. Rewind the slot to
                // the as-sent payload so the duplicate's draw is
                // independent of the original's.
                if kind == TransferKind::Original && pre_sent {
                    self.arena[flit].payload =
                        saved_payload.expect("payload saved before the first draw");
                    let o2 = self.protocol.hop_transfer(
                        link,
                        &mut self.arena[flit],
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
                                flit,
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
                // The rejected body is dropped; the retransmission will be
                // re-materialized from the sender's buffered copy.
                self.arena.free(flit);
                self.routers[di]
                    .input_mut(in_port.index(), vc as usize)
                    .awaiting_retx = Some(seq);
                self.stats.hop_nacks += 1;
                self.tel.arq_nacks.inc();
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
                self.routers[si].hold_port(link.dir.index(), ack_at);
            }
        }
    }

    #[inline]
    fn accept_flit(&mut self, node: NodeId, in_port: Direction, vc: u8, flit: FlitRef, cycle: u64) {
        let ni = node.index();
        self.counters[ni].buffer_writes += 1;
        self.epoch[ni].flits_in[in_port.index()] += 1;
        debug_assert!(
            self.routers[ni]
                .input(in_port.index(), vc as usize)
                .fifo
                .len()
                < self.config.vc_depth as usize,
            "input VC overflow at {node}:{in_port}:{vc}"
        );
        let buffered = BufferedFlit {
            flit,
            tail: self.arena[flit].kind.is_tail(),
            arrived_at: cycle,
        };
        self.routers[ni].enqueue(in_port.index(), vc as usize, buffered);
        self.active.insert(ni);
    }

    fn handle_eject(&mut self, cycle: u64, node: NodeId, flit: FlitRef) {
        if self
            .faults
            .as_ref()
            .is_some_and(|fs| fs.doomed.contains(&self.arena[flit].packet))
        {
            self.arena.free(flit);
            return;
        }
        self.counters[node.index()].crc_checks += 1;
        let (packet_id, attempt, is_control) = {
            let f = &self.arena[flit];
            (f.packet, f.attempt, f.class.is_control())
        };
        let expected = if is_control {
            1
        } else {
            self.config.flits_per_packet
        } as usize;
        let entries = &mut self.reassembly[node.index()];
        let found = entries
            .iter()
            .position(|e| e.packet == packet_id && e.attempt == attempt);
        self.tel
            .reassembly_slots
            .add(found.map_or(entries.len(), |i| i + 1) as u64);
        let idx = found.unwrap_or_else(|| {
            let flits = self.reassembly_pool.pop().unwrap_or_default();
            entries.push(ReassemblyEntry {
                packet: packet_id,
                attempt,
                flits,
            });
            self.reassembling += 1;
            self.tel.reassembly_entries.inc();
            entries.len() - 1
        });
        entries[idx].flits.push(flit);
        if entries[idx].flits.len() == expected {
            let entry = entries.swap_remove(idx);
            self.reassembling -= 1;
            self.finish_packet(cycle, node, entry);
        }
    }

    fn finish_packet(&mut self, cycle: u64, node: NodeId, mut entry: ReassemblyEntry) {
        // Materialize the flit bodies into the reusable staging buffer and
        // release their arena slots — the packet is leaving the network.
        self.eject_scratch.clear();
        for fr in entry.flits.drain(..) {
            self.eject_scratch.push(self.arena[fr]);
            self.arena.free(fr);
        }
        self.reassembly_pool.push(entry.flits);
        let flits = std::mem::take(&mut self.eject_scratch);
        let head = flits[0];
        match head.class {
            PacketClass::RetransmitRequest { of } => {
                // The request reached the original source: re-queue the
                // packet. Stale requests (packet already delivered) are
                // ignored, as real hardware would.
                if let Some((packet, attempts)) = self.pending_packets.get_mut(of) {
                    *attempts = attempts.saturating_add(1);
                    let resend = (*packet, *attempts);
                    self.source_queues[node.index()].push_front(resend);
                    self.inject_active.insert(node.index());
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
                        if let Some((packet, _)) = self.pending_packets.remove(head.packet) {
                            if flits
                                .iter()
                                .any(|f| f.payload != packet.payload_for(f.index))
                            {
                                self.stats.silent_corruptions += 1;
                            }
                        }
                        // Attribute the latency to every router on the
                        // packet's routed path (src and dst inclusive).
                        // Under hard faults the walk follows the current
                        // up*/down* table and stops early if the path
                        // was severed after delivery.
                        let mut r = head.src;
                        loop {
                            let e = &mut self.epoch[r.index()];
                            e.latency_sum += latency;
                            e.latency_count += 1;
                            if r == head.dst {
                                break;
                            }
                            let dir = match self.routes.next_hop(r, head.dst) {
                                Some((d, _)) if d != Direction::Local => d,
                                _ => break,
                            };
                            r = self.neighbors.get(r, dir).expect("route stays in mesh");
                        }
                    }
                    EjectOutcome::RequestRetransmit => {
                        self.stats.packets_failed_crc += 1;
                        self.offer_control(node, head.src, head.packet);
                    }
                }
            }
        }
        self.eject_scratch = flits;
    }

    fn inject_phase(&mut self, cycle: u64) {
        let local = Direction::Local.index();
        let vdepth = self.config.vc_depth as usize;
        let vcs = self.config.vcs_per_port;
        // Worklist scan, ascending node order — identical visit order to
        // the old dense loop on the nodes that have work; nodes outside
        // the set have no open injection and an empty queue, for which
        // the loop body was a no-op. Arena allocation order (and with it
        // every flit handle) is therefore unchanged.
        for wi in 0..self.inject_active.num_words() {
            let mut word = self.inject_active.word(wi);
            while word != 0 {
                let ni = (wi << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                if self.inject_progress[ni].is_none() {
                    if let Some((packet, attempt)) = self.source_queues[ni].pop_front() {
                        // Rotate the starting VC; prefer one with space now.
                        let start = self.next_inject_vc[ni];
                        let mut vc = start;
                        for off in 0..vcs {
                            let cand = (start + off) % vcs;
                            if self.routers[ni].input(local, cand as usize).fifo.len() < vdepth {
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
                    // Queue drained with nothing in flight: retire.
                    self.inject_active.remove(ni);
                    continue;
                };
                if self.routers[ni].input(local, prog.vc as usize).fifo.len() >= vdepth {
                    continue; // local port back-pressured this cycle
                }
                let flit = prog
                    .packet
                    .make_flit(prog.next_flit, prog.attempt, &self.crc);
                let buffered = BufferedFlit {
                    tail: flit.kind.is_tail(),
                    flit: self.arena.alloc(flit),
                    arrived_at: cycle,
                };
                self.routers[ni].enqueue(local, prog.vc as usize, buffered);
                self.active.insert(ni);
                self.counters[ni].crc_encodes += 1;
                self.counters[ni].buffer_writes += 1;
                self.epoch[ni].flits_in[local] += 1;
                if prog.attempt == 0 {
                    self.epoch[ni].core_activity_flits += 1;
                }
                prog.next_flit += 1;
                if prog.next_flit == prog.packet.num_flits {
                    self.inject_progress[ni] = None;
                    if self.source_queues[ni].is_empty() {
                        self.inject_active.remove(ni);
                    }
                }
            }
        }
    }

    /// SA/ST for one router: priority resends, then separable
    /// input-first/output switch arbitration and traversal. Each step
    /// runs only when its mask says it has a candidate; skipping is
    /// exact because a grant on an empty request word touches no arbiter
    /// and `next_free` only advances when something is sent.
    #[inline]
    fn sa_st_router(&mut self, ri: usize, cycle: u64) {
        let router = &self.routers[ri];
        router.debug_check_stage_masks(cycle);
        // A port with a resend queued when the cycle starts is dedicated
        // to it (order safety), whether or not the resend can go now.
        let resending = router.masks.retx;
        if resending != 0 {
            self.sa_resend(ri, cycle);
        }
        let requests = self.sa_select(ri, cycle, resending);
        if requests.ports != 0 {
            self.sa_traverse(ri, cycle, &requests);
        }
    }

    /// Priority resends of NACKed flits, one per free output port with
    /// credit, ports ascending.
    fn sa_resend(&mut self, ri: usize, cycle: u64) {
        for out_p in bits(u64::from(self.routers[ri].masks.retx)) {
            let router = &mut self.routers[ri];
            if cycle < router.next_free[out_p] {
                continue;
            }
            let pr = *router.outputs[out_p]
                .retx_pending
                .front()
                .expect("resend mask bit set");
            if router.out_vc(out_p, pr.out_vc as usize).credits == 0 {
                continue;
            }
            let out = &mut router.outputs[out_p];
            out.retx_pending.pop_front();
            if out.retx_pending.is_empty() {
                router.masks.retx &= !(1 << out_p);
            }
            self.counters[ri].retransmit_sends += 1;
            self.epoch[ri].flits_out[out_p] += 1;
            self.stats.flit_retransmissions += 1;
            self.tel.arq_retransmits.inc();
            self.launch(
                ri,
                out_p,
                cycle,
                pr.out_vc,
                pr.flit,
                Some(pr.seq),
                TransferKind::HopRetransmit,
            );
        }
    }

    /// Puts `flit` on the link out of router `ri`'s port `out_p`: takes
    /// the downstream credit, schedules the arrival, and holds the port
    /// for the transfer (longer in the modes that stretch or repeat it).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn launch(
        &mut self,
        ri: usize,
        out_p: usize,
        cycle: u64,
        vc: u8,
        flit: FlitRef,
        seq: Option<SequenceNumber>,
        kind: TransferKind,
    ) {
        let router = &mut self.routers[ri];
        let link = LinkId {
            src: router.id,
            dir: Direction::from_index(out_p),
        };
        let delay = self.protocol.tx_delay(link) as u64;
        let pipeline = self.protocol.pipeline_latency(link) as u64;
        let pre = self.protocol.pre_retransmit(link);
        self.counters[ri].link_traversals[out_p] += 1 + u64::from(pre);
        router.take_credit(out_p, vc as usize);
        router.hold_port(out_p, cycle + 1 + delay + u64::from(pre));
        self.wheel.push(
            cycle,
            cycle + self.config.link_latency as u64 + delay + pipeline,
            Event::Arrival {
                link,
                vc,
                flit,
                seq,
                kind,
                pre_sent: pre,
            },
        );
    }

    /// Input-first selection: each input port's arbiter picks one of its
    /// Active VCs that can send this cycle, and the pick is filed under
    /// the output port it holds. A VC can send when it is a switch
    /// candidate (a front past its buffer-write cycle, credit on its
    /// output VC) and its output port is not blocked: `resending` ports
    /// take no new flit, a port is busy until `next_free`, and an ARQ
    /// link needs room in its retransmit buffer. Per-VC state is read
    /// only for each input port's winner.
    fn sa_select(&mut self, ri: usize, cycle: u64, resending: u8) -> SwitchRequests {
        let router = &mut self.routers[ri];
        let mut requests = SwitchRequests::default();
        let mut eligible = router.masks.switch_candidates();
        if eligible == 0 {
            return requests;
        }
        let mut blocked = resending | router.busy_ports(cycle);
        for p in bits(u64::from(router.masks.retx_full)) {
            let link = LinkId {
                src: router.id,
                dir: Direction::from_index(p),
            };
            if self.protocol.hop_arq(link) {
                blocked |= 1 << p;
            }
        }
        for p in bits(u64::from(blocked)) {
            eligible &= !router.masks.holds[p];
        }
        // Input ports ascending, one `v`-bit field of the word each.
        let v = router.vcs_per_port;
        let field = u64::MAX >> (64 - v);
        while eligible != 0 {
            let in_p = router.port_of(eligible.trailing_zeros() as usize);
            let word = eligible >> (in_p * v) & field;
            eligible &= !(field << (in_p * v));
            let win = router.sa_input_arbiters[in_p]
                .grant_mask(word)
                .expect("an eligible VC requests");
            let VcState::Active {
                out_port, out_vc, ..
            } = router.inputs[in_p * v + win].state
            else {
                unreachable!("selected VC must be active");
            };
            requests.winner[in_p] = (win as u8, out_vc);
            requests.wanted[out_port.index()] |= 1 << in_p;
            requests.ports |= 1 << out_port.index();
        }
        requests
    }

    /// Output arbitration and switch traversal, requested output ports
    /// ascending: the granted input's head flit leaves its FIFO for the
    /// link (or the core), its credit goes back upstream, and a tail
    /// releases both VCs.
    fn sa_traverse(&mut self, ri: usize, cycle: u64, requests: &SwitchRequests) {
        for out_p in bits(u64::from(requests.ports)) {
            let router = &mut self.routers[ri];
            let rid = router.id;
            let in_p = router.sa_output_arbiters[out_p]
                .grant_mask(u64::from(requests.wanted[out_p]))
                .expect("a request was asserted");
            let (in_v, out_vc) = requests.winner[in_p];
            let flat = in_p * router.vcs_per_port + in_v as usize;

            let bf = router.pop_front(flat, cycle);
            self.counters[ri].sa_grants += 1;
            self.counters[ri].buffer_reads += 1;
            self.counters[ri].crossbar_traversals += 1;
            self.epoch[ri].flits_out[out_p] += 1;
            if bf.tail {
                router.release(flat, out_p, out_vc as usize);
            }

            // Return the freed buffer slot to the upstream router —
            // unless the upstream link died (dead links never see
            // their credits replenished).
            let in_dir = Direction::from_index(in_p);
            if in_dir != Direction::Local
                && !self.faults.as_ref().is_some_and(|f| f.link_dead[ri][in_p])
            {
                let node = self
                    .neighbors
                    .get(rid, in_dir)
                    .expect("flit arrived from a neighbor");
                let credit = Event::Credit {
                    node,
                    port: in_dir.opposite(),
                    vc: in_v,
                };
                self.wheel.push(cycle, cycle + 1, credit);
            }

            let out_dir = Direction::from_index(out_p);
            if out_dir == Direction::Local {
                let eject = Event::Eject {
                    node: rid,
                    flit: bf.flit,
                };
                self.wheel.push(cycle, cycle + 1, eject);
                router.hold_port(out_p, cycle + 1);
                continue;
            }
            let link = LinkId {
                src: rid,
                dir: out_dir,
            };
            let seq = self.protocol.hop_arq(link).then(|| {
                self.counters[ri].retransmit_buffer_writes += 1;
                // The buffer keeps the body *by value*: the wire-side
                // arena slot is mutated in place by fault draws and
                // must never alias the canonical retransmit copy.
                router.retain_copy(out_p, (self.arena[bf.flit], out_vc), cycle)
            });
            self.launch(
                ri,
                out_p,
                cycle,
                out_vc,
                bf.flit,
                seq,
                TransferKind::Original,
            );
        }
    }

    #[inline]
    fn va_router(&mut self, ri: usize, cycle: u64) {
        let grants = self.routers[ri].va_stage(cycle);
        self.counters[ri].va_allocations += grants;
    }

    #[inline]
    fn rc_router(&mut self, ri: usize, cycle: u64) {
        let Self {
            routers,
            routes,
            arena,
            rc_doomed,
            ..
        } = self;
        routers[ri].rc_stage(cycle, routes, arena, rc_doomed);
    }

    /// The fused per-cycle pipeline kernel: one pass over the active
    /// worklist running SA/ST → VA → RC → sampling for each live router
    /// before moving to the next, reporting each stage boundary to
    /// `clock`. The worklist walk is charged to SA/ST.
    ///
    /// Equivalent to the paper's phase-major order (each stage over
    /// every router before the next stage, as the reference model in
    /// `rlnoc-verify` runs it) because the stages of router `i` read and
    /// write only router-`i` state — cross-router effects travel
    /// exclusively through the event wheel, and of the stages only SA/ST
    /// pushes events, so the wheel's push order under router-major
    /// fusion matches the phase-major order exactly, and a router's
    /// sample after its own RC is the sample a separate pass takes after
    /// every router's. Doom resolution (`finish_rc_dooms`) runs after
    /// every router's RC, because it purges state across arbitrary
    /// routers; a cycle that dooms takes back every router's sample and
    /// samples again after the purge.
    fn fused_pipeline(&mut self, cycle: u64, clock: &mut impl LapClock) {
        // Live routers this cycle: the worklist as the pass finds it, or
        // as the purge rebuilds it.
        let mut live_routers = if self.tel.active_router_cycles.is_enabled() {
            self.active.len()
        } else {
            0
        };
        for wi in 0..self.active.num_words() {
            let mut word = self.active.word(wi);
            while word != 0 {
                let ri = (wi << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                self.sa_st_router(ri, cycle);
                clock.lap(Stage::SaSt as usize);
                // Each stage reads the masks the stage before it left: a
                // tail sent above can file the next head for RC (which
                // waits a cycle if that head arrived in this one).
                if self.routers[ri].masks.va != 0 {
                    self.va_router(ri, cycle);
                    clock.lap(Stage::Va as usize);
                }
                if self.routers[ri].masks.route_candidates() != 0 {
                    self.rc_router(ri, cycle);
                    clock.lap(Stage::Rc as usize);
                }
                self.sample_router(ri);
                clock.lap(Stage::Sample as usize);
            }
        }
        clock.lap(Stage::SaSt as usize);
        if !self.rc_doomed.is_empty() {
            // Routers off the worklist sampled zero, and no router has
            // changed since its own sample, so this takes back exactly
            // what the pass added.
            for (router, epoch) in self.routers.iter().zip(&mut self.epoch) {
                epoch.occupied_vc_cycles -= router.occupied_input_vcs() as u64;
            }
            clock.lap(Stage::Sample as usize);
            self.finish_rc_dooms(cycle);
            clock.lap(Stage::Rc as usize);
            for (router, epoch) in self.routers.iter_mut().zip(&mut self.epoch) {
                router.end_cycle();
                epoch.occupied_vc_cycles += router.occupied_input_vcs() as u64;
            }
            clock.lap(Stage::Sample as usize);
            live_routers = self.active.len();
        }
        self.tel.active_router_cycles.add(live_routers as u64);
    }

    /// Ends the cycle for live router `ri`: adds its occupied VCs to the
    /// epoch record and retires it from the worklist once it has no
    /// work. Idle routers (not on the worklist) hold zero occupied VCs,
    /// so their per-cycle sample is exactly zero; their `cycles` bump is
    /// deferred to `finish_epoch`.
    #[inline]
    fn sample_router(&mut self, ri: usize) {
        let router = &mut self.routers[ri];
        router.end_cycle();
        self.epoch[ri].occupied_vc_cycles += router.occupied_input_vcs() as u64;
        if !router.masks.any_work() {
            self.active.remove(ri);
        }
    }

    /// Rebuilds both worklists from their membership predicates. Called
    /// after hard-fault purges, which rewrite router and source-queue
    /// state wholesale rather than through the incremental insert sites.
    fn rebuild_worklists(&mut self) {
        for (ri, router) in self.routers.iter().enumerate() {
            self.active.set(ri, router.masks.any_work());
        }
        for ni in 0..self.routers.len() {
            self.inject_active.set(
                ni,
                self.inject_progress[ni].is_some() || !self.source_queues[ni].is_empty(),
            );
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
        let doomed_before = fs.doomed.len();

        // 1. Consume the due events, recording which routers the batch
        // touches: the dead node itself plus both endpoints of every
        // killed link. Elements that died in *earlier* batches were
        // evacuated then and can never reacquire state (dead links carry
        // no arrivals and return no credits), so the evacuation pass
        // below only needs to visit this batch's endpoints.
        let mut applied = 0u64;
        let mut affected = vec![false; self.routers.len()];
        let mut any_node_died = false;
        let compass = self.mesh.compass();
        while let Some(ev) = fs.events.get(fs.next_event) {
            if ev.cycle > cycle {
                break;
            }
            match ev.kind {
                HardFaultKind::Router { node } => {
                    fs.node_dead[node.index()] = true;
                    any_node_died = true;
                    affected[node.index()] = true;
                    for &dir in compass {
                        if let Some(peer) = self.mesh.neighbor(node, dir) {
                            fs.kill_link(&self.neighbors, node, dir);
                            affected[peer.index()] = true;
                        }
                    }
                }
                HardFaultKind::Link { node, dir } => {
                    fs.kill_link(&self.neighbors, node, dir);
                    affected[node.index()] = true;
                    if let Some(peer) = self.neighbors.get(node, dir) {
                        affected[peer.index()] = true;
                    }
                }
            }
            fs.next_event += 1;
            applied += 1;
        }

        // 2. Reroute on the surviving topology. The table is a pure
        // function of (topology, dead set), so any network in the
        // process that reached this dead set first has already paid for
        // the solve.
        let (routes, hit) = fs.cache.up_down(self.mesh, &fs.node_dead, &fs.link_dead);
        if hit {
            self.tel.hardfault_route_cache_hits.inc();
        } else {
            self.tel.hardfault_route_solves.inc();
        }
        let unreachable = routes.unreachable_pairs();
        self.routes = routes;

        // 3. Wheel sweep: in-flight events on dead elements die in
        // place. Killing an arrival dooms its packet — the wormhole has
        // been severed.
        {
            let arena = &mut self.arena;
            for slot in &mut self.wheel.slots {
                slot.retain(|ev| {
                    let dead_flit = match *ev {
                        Event::Arrival { link, flit, .. } => {
                            if fs.link_dead[link.src.index()][link.dir.index()] {
                                Some(flit)
                            } else {
                                None
                            }
                        }
                        Event::DirectDeliver { node, flit, .. } | Event::Eject { node, flit } => {
                            if fs.node_dead[node.index()] {
                                Some(flit)
                            } else {
                                None
                            }
                        }
                        Event::Credit { node, port, .. } | Event::AckSignal { node, port, .. } => {
                            return !(fs.node_dead[node.index()]
                                || fs.link_dead[node.index()][port.index()]);
                        }
                    };
                    match dead_flit {
                        Some(flit) => {
                            let f = &arena[flit];
                            if fs.doom(f.packet, !f.class.is_control()) {
                                lost += 1;
                            }
                            arena.free(flit);
                            false
                        }
                        None => true,
                    }
                });
            }
        }

        // 4. Evacuate dead routers and dead-link ports, and divert live
        // VCs that were routed toward a link that just died.
        {
            let arena = &mut self.arena;
            let mut dealloc: Vec<(usize, usize)> = Vec::new();
            for router in self.routers.iter_mut() {
                let ni = router.id.index();
                if !affected[ni] {
                    // Not an endpoint of anything that died this batch:
                    // no port flush, and no VC can point at a newly dead
                    // link (a VC's out link is this router's own port).
                    continue;
                }
                if fs.node_dead[ni] {
                    // Dead router: everything it holds is lost, and its
                    // core can no longer source traffic.
                    for ivc in router.inputs.iter_mut() {
                        {
                            for bf in ivc.fifo.drain(..) {
                                let f = &arena[bf.flit];
                                if fs.doom(f.packet, !f.class.is_control()) {
                                    lost += 1;
                                }
                                arena.free(bf.flit);
                            }
                            match ivc.state {
                                VcState::NeedsVa { packet, .. }
                                | VcState::Active { packet, .. } => {
                                    // Flits of this packet already left
                                    // through the crossbar; it can never
                                    // complete (single-flit packets go
                                    // Idle at the tail, so a non-idle VC
                                    // always implies a multi-flit data
                                    // packet once its FIFO is empty).
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
                            let f = &arena[pr.flit];
                            if fs.doom(f.packet, !f.class.is_control()) {
                                lost += 1;
                            }
                            arena.free(pr.flit);
                        }
                        out.retx_buffer.clear();
                    }
                    for ovc in router.out_vcs.iter_mut() {
                        ovc.allocated = false;
                    }
                    router.masks = router.rescan_stage_masks(cycle);
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
                for &dir in compass {
                    let p = dir.index();
                    if !fs.link_dead[ni][p] {
                        continue;
                    }
                    for ivc in router.port_vcs_mut(p).iter_mut() {
                        for bf in ivc.fifo.drain(..) {
                            let f = &arena[bf.flit];
                            if fs.doom(f.packet, !f.class.is_control()) {
                                lost += 1;
                            }
                            arena.free(bf.flit);
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
                        let f = &arena[pr.flit];
                        if fs.doom(f.packet, !f.class.is_control()) {
                            lost += 1;
                        }
                        arena.free(pr.flit);
                    }
                    router.outputs[p].retx_buffer.clear();
                }

                // Self-healing divert: VCs routed toward a dead output
                // link. A packet that has not yet sent a flit through
                // the crossbar re-enters RC; a severed wormhole is lost.
                for ivc in router.inputs.iter_mut() {
                    {
                        match ivc.state {
                            VcState::NeedsVa { out_port, .. }
                                if fs.link_dead[ni][out_port.index()] =>
                            {
                                ivc.state = VcState::Idle;
                            }
                            VcState::Active {
                                out_port,
                                out_vc,
                                packet,
                            } if fs.link_dead[ni][out_port.index()] => {
                                dealloc.push((out_port.index(), out_vc as usize));
                                let head_waiting = ivc
                                    .fifo
                                    .front()
                                    .is_some_and(|bf| arena[bf.flit].kind.is_head());
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
                    router.out_vc_mut(op, ov).allocated = false;
                }
                dealloc.clear();
                router.masks = router.rescan_stage_masks(cycle);
            }
        }

        // 5. Packets whose source or destination core died are lost, as
        // are reassembly attempts collecting at a dead destination. Only
        // node deaths can strand these windows, so a link-only batch
        // skips both scans (earlier batches already doomed their
        // casualties).
        if any_node_died {
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
                .iter()
                .enumerate()
                .filter(|&(ni, _)| fs.node_dead[ni])
                .flat_map(|(_, entries)| entries)
                .map(|e| (e.packet, !self.arena[e.flits[0]].class.is_control()))
                .collect();
            for (id, is_data) in stale {
                if fs.doom(id, is_data) {
                    lost += 1;
                }
            }
        }

        // 6. Purge everything the batch doomed, then publish counters.
        // A batch that doomed nothing new leaves no resident traces to
        // purge — every packet doomed earlier was purged when it was
        // doomed — but the evacuation above may still have rewritten
        // router state, so the worklists are re-derived either way.
        if fs.doomed.len() > doomed_before {
            self.purge_doomed_resident(&fs, cycle);
        } else {
            self.rebuild_worklists();
        }
        self.stats.hard_fault_events += applied;
        self.tel.hardfault_events.add(applied);
        self.stats.reroute_events += 1;
        self.tel.hardfault_reroutes.inc();
        self.stats.unreachable_pairs = unreachable;
        self.tel.hardfault_unreachable_pairs.set(unreachable as f64);
        self.stats.packets_lost_hard_fault += lost;
        self.tel.hardfault_packets_lost.add(lost);
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
        self.tel.hardfault_packets_lost.add(lost);
        self.faults = Some(fs);
    }

    /// Removes every resident trace of doomed packets — buffered flits
    /// (returning credits on live links), VC ownership, injection
    /// state, source-queue entries, and the pending/reassembly windows.
    /// In-flight wheel events self-clean on arrival instead. The fault
    /// state is passed detached because callers hold it taken out of
    /// `self.faults`.
    fn purge_doomed_resident(&mut self, fs: &FaultState, now: u64) {
        let Self {
            routers,
            arena,
            wheel,
            neighbors,
            source_queues,
            inject_progress,
            pending_packets,
            reassembly,
            reassembling,
            reassembly_pool,
            ..
        } = self;
        let mut dealloc: Vec<(usize, usize)> = Vec::new();
        for router in routers.iter_mut() {
            let rid = router.id;
            let ni = rid.index();
            for in_p in 0..router.num_ports {
                let in_dir = Direction::from_index(in_p);
                let upstream = if in_dir == Direction::Local {
                    None
                } else {
                    neighbors.get(rid, in_dir)
                };
                let credits_live = !fs.node_dead[ni]
                    && !fs.link_dead[ni][in_p]
                    && upstream.is_some_and(|up| !fs.node_dead[up.index()]);
                for (in_v, ivc) in router.port_vcs_mut(in_p).iter_mut().enumerate() {
                    if !ivc.fifo.is_empty() {
                        ivc.fifo.retain(|bf| {
                            let keep = !fs.doomed.contains(&arena[bf.flit].packet);
                            if !keep {
                                arena.free(bf.flit);
                                if credits_live {
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
                router.out_vc_mut(op, ov).allocated = false;
            }
            dealloc.clear();
            router.masks = router.rescan_stage_masks(now);
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
        let stale: Vec<PacketId> = pending_packets
            .values()
            .filter(|(p, _)| fs.doomed.contains(&p.id))
            .map(|(p, _)| p.id)
            .collect();
        for id in stale {
            pending_packets.remove(id);
        }
        for entries in reassembly.iter_mut() {
            entries.retain_mut(|e| {
                if !fs.doomed.contains(&e.packet) {
                    return true;
                }
                for fr in e.flits.drain(..) {
                    arena.free(fr);
                }
                reassembly_pool.push(std::mem::take(&mut e.flits));
                *reassembling -= 1;
                false
            });
        }
        // Purges rewrite router and injection state wholesale, so the
        // incremental worklist insert sites cannot see the changes;
        // re-derive both sets from their predicates.
        self.rebuild_worklists();
    }
}

#[cfg(test)]
mod tests {
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
                        remote
                            && net.protocol.hop_arq(link)
                            && router.outputs[p].retx_buffer.is_full(),
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
        router.outputs[east]
            .retx_pending
            .push_back(PendingRetransmit {
                flit,
                out_vc: starved as u8,
                seq: SequenceNumber::new(0),
            });
        router.masks.retx |= 1 << east;
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

#[cfg(test)]
mod hardfault_tests {
    //! Hard-fault semantics: permanent link/router failures, doomed-
    //! packet evaporation, self-healing rerouting, and loss accounting.

    use super::*;
    use crate::error_control::{PerfectLink, ScriptedErrorControl};
    use crate::router::StageMasks;
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
        let planted = &mut net.routers[cut.index()];
        planted.outputs[east]
            .retx_pending
            .push_back(PendingRetransmit {
                flit,
                out_vc: 0,
                seq: SequenceNumber::new(0),
            });
        planted.masks.retx |= 1 << east;
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
}
