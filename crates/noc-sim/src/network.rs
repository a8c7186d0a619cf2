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
//! Hop-level ARQ keeps each link's go-back-N state in one `ArqLink`,
//! owned by the sending router; this module applies its verdicts.

use crate::arq_link::{Admit, ArqLink, Resend};
use crate::config::NocConfig;
use crate::error_control::{EjectOutcome, ErrorControl, HopOutcome, TransferKind};
use crate::flit::{Flit, FlitArena, FlitRef, Packet, PacketClass, PacketId, PacketWindow};
use crate::router::{BufferedFlit, Router, VcState};
use crate::routing::Routes;
use crate::stats::{EventCounters, NetworkStats, RouterEpochStats};
use crate::topology::{Direction, LinkId, NeighborTable, NodeId, Topo, MAX_PORTS};
use crate::worklist::{bits, ActiveSet};
use noc_coding::arq::{AckKind, SequenceNumber};
use noc_coding::crc::Crc32;
use rlnoc_telemetry::{Counter, Gauge, Histogram, LapClock, Laps, Telemetry, TimerHandle};
use std::collections::VecDeque;

/// Per-cycle runtime invariant checks (child module so it can traverse
/// the private event wheel); compiled only under the `verify` feature
/// and armed by `RLNOC_VERIFY=1`.
#[cfg(feature = "verify")]
#[path = "invariants.rs"]
pub(crate) mod invariants;

mod faults;
use faults::FaultState;

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

/// One link transfer as its receiving end sees it: the link it crossed,
/// the input VC it lands in, and its hop-ARQ sequence number (`None` on
/// an unprotected link). The ACK, NACK and credit a transfer earns are
/// addressed by it.
#[derive(Debug, Clone, Copy)]
struct Hop {
    link: LinkId,
    /// The receiving router, across `link` from `link.src`.
    dst: NodeId,
    vc: u8,
    seq: Option<SequenceNumber>,
}

impl Hop {
    /// The receiving router's input port.
    fn in_port(self) -> Direction {
        self.link.dir.opposite()
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

    /// The next-hop table the network routes on.
    pub fn routes(&self) -> &Routes {
        &self.routes
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
    /// With telemetry on, one cycle in 16 (`STAGE_SAMPLE_PERIOD`) stamps
    /// every stage boundary and records the six stage times with that
    /// weight; the simulation is the same either way.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        if self.faults.as_ref().is_some_and(|fs| fs.due(cycle)) {
            let _span = self.tel.hardfault_apply.start();
            self.apply_hard_fault_batch(cycle);
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
                        && r.outputs.iter().all(|link| !link.has_resend())
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
                } => {
                    let dst = self
                        .neighbors
                        .get(link.src, link.dir)
                        .expect("arrival beyond mesh edge");
                    let hop = Hop { link, dst, vc, seq };
                    self.handle_arrival(cycle, hop, flit, kind, pre_sent);
                }
                Event::DirectDeliver {
                    node,
                    in_port,
                    vc,
                    flit,
                } => {
                    if self.doomed(flit) {
                        // Evaporate: the hop already ACKed at accept time.
                        self.credit_upstream(cycle, node, in_port, vc, cycle + 1);
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
                    let (router, p) = (&mut self.routers[node.index()], port.index());
                    if kind == AckKind::Ack {
                        router.arq(p, |link| link.ack(seq));
                    } else if let Some((flit, out_vc)) = router.arq(p, |link| link.nack(seq)) {
                        // The rejected transfer's slot was freed: the
                        // resend gets a fresh one.
                        let flit = self.arena.alloc(flit);
                        let resend = Resend { flit, out_vc, seq };
                        router.arq(p, |link| link.queue_resend(resend));
                        // A pending resend is SA/ST work even on an
                        // otherwise-empty router.
                        self.active.insert(node.index());
                    }
                }
            }
        }
        self.wheel.recycle(events);
    }

    /// A flit reaches the receiving end of `hop`. A doomed packet's flit
    /// evaporates, a flit behind a go-back-N gate is held there, and
    /// every other flit takes the hop transfer.
    fn handle_arrival(
        &mut self,
        cycle: u64,
        hop: Hop,
        flit: FlitRef,
        kind: TransferKind,
        pre_sent: bool,
    ) {
        if self.doomed(flit) {
            self.evaporate(cycle, hop, flit, kind);
            return;
        }
        match self.link(hop).admit(hop.vc, hop.seq, kind) {
            Admit::Transfer => self.transfer(cycle, hop, flit, kind, pre_sent),
            Admit::Nack => self.nack(cycle, hop, flit),
            // Only across an ECC-off mode switch: the flit waits on the
            // wire, where it cannot overtake the rejected one.
            Admit::Stall => self.wheel.push(
                cycle,
                cycle + 1,
                Event::Arrival {
                    link: hop.link,
                    vc: hop.vc,
                    flit,
                    seq: None,
                    kind,
                    pre_sent: false,
                },
            ),
        }
    }

    /// The hop protocol of the link `hop` crossed, which its sender owns.
    fn link(&mut self, hop: Hop) -> &mut ArqLink {
        &mut self.routers[hop.link.src.index()].outputs[hop.link.dir.index()]
    }

    /// Hard-fault evaporation: flits of a doomed packet drain out at
    /// arrival — the link-level contract (ACK + credit) completes so the
    /// sender's ARQ window and credit pool recover, but the flit goes no
    /// further. Arrivals only happen on live links: dead links had their
    /// in-flight events swept at fault application.
    fn evaporate(&mut self, cycle: u64, hop: Hop, flit: FlitRef, kind: TransferKind) {
        self.link(hop).opened(hop.vc, kind, hop.seq);
        let ack_at = cycle + self.config.ack_latency as u64;
        self.acknowledge(cycle, hop, AckKind::Ack, ack_at);
        self.credit_upstream(cycle, hop.dst, hop.in_port(), hop.vc, cycle + 1);
        self.arena.free(flit);
    }

    /// The hop transfer: the error-control layer decides whether the
    /// flit decodes. A decoded flit enters its input VC and is ACKed; a
    /// rejected one falls back on the operation-mode-2 duplicate, then
    /// on a NACK that closes the VC's gate.
    fn transfer(
        &mut self,
        cycle: u64,
        hop: Hop,
        flit: FlitRef,
        kind: TransferKind,
        pre_sent: bool,
    ) {
        let draw = |net: &mut Self, kind| {
            let (body, counters) = (&mut net.arena[flit], &mut net.counters[hop.dst.index()]);
            let protected = hop.seq.is_some();
            net.protocol
                .hop_transfer(hop.link, body, cycle, kind, protected, counters)
        };
        // The fault draw mutates the arena slot in place. An operation-
        // mode-2 duplicate must see the payload *as sent*, so save the
        // two payload words for a potential rewind before the first draw.
        let saved_payload =
            (pre_sent && kind == TransferKind::Original).then(|| self.arena[flit].payload);
        let mut outcome = draw(self, kind);
        // Operation mode 2: consult the proactive duplicate, drawn on the
        // rewound as-sent payload, before falling back to a NACK.
        let duplicate = outcome == HopOutcome::Reject && saved_payload.is_some();
        if let Some(payload) = saved_payload.filter(|_| duplicate) {
            self.arena[flit].payload = payload;
            outcome = draw(self, TransferKind::PreRetransmitCopy);
        }
        match outcome {
            HopOutcome::Reject => {
                let seq = hop.seq.expect("reject requires hop ARQ");
                self.link(hop).closed(hop.vc, seq);
                return self.nack(cycle, hop, flit);
            }
            HopOutcome::DeliveredCorrected => self.stats.ecc_corrections += 1,
            HopOutcome::Delivered => {}
        }
        if duplicate {
            self.stats.pre_retransmit_hits += 1;
            let deliver = Event::DirectDeliver {
                node: hop.dst,
                in_port: hop.in_port(),
                vc: hop.vc,
                flit,
            };
            self.wheel.push(cycle, cycle + 1, deliver);
        } else {
            self.link(hop).opened(hop.vc, kind, hop.seq);
            self.accept_flit(hop.dst, hop.in_port(), hop.vc, flit, cycle);
        }
        // The duplicate's ACK trails it by the cycle it was sent behind.
        let ack_at = cycle + self.config.ack_latency as u64 + u64::from(duplicate);
        self.acknowledge(cycle, hop, AckKind::Ack, ack_at);
    }

    /// Sends an ACK or NACK for an ARQ-protected transfer back to its
    /// sender at `at`; an unprotected one (`hop.seq == None`) is not
    /// acknowledged.
    fn acknowledge(&mut self, cycle: u64, hop: Hop, kind: AckKind, at: u64) {
        if let Some(seq) = hop.seq {
            self.counters[hop.dst.index()].ack_signals += 1;
            let signal = Event::AckSignal {
                node: hop.link.src,
                port: hop.link.dir,
                seq,
                kind,
            };
            self.wheel.push(cycle, at, signal);
        }
    }

    /// NACKs the protected transfer and discards `flit`: the resend will
    /// be re-materialized from the sender's window. The NACK and the
    /// buffer credit travel back with the ACK latency, and the sender's
    /// port is held until it processes the NACK so no younger flit
    /// enters the reorder window.
    fn nack(&mut self, cycle: u64, hop: Hop, flit: FlitRef) {
        let (di, si) = (hop.dst.index(), hop.link.src.index());
        let ack_at = cycle + self.config.ack_latency as u64;
        self.stats.hop_nacks += 1;
        self.tel.arq_nacks.inc();
        self.epoch[di].nacks_out += 1;
        self.epoch[si].nacks_in += 1;
        self.acknowledge(cycle, hop, AckKind::Nack, ack_at);
        self.credit_upstream(cycle, hop.dst, hop.in_port(), hop.vc, ack_at);
        self.routers[si].hold_port(hop.link.dir.index(), ack_at);
        self.arena.free(flit);
    }

    /// Returns the buffer credit of input VC `vc` on `node`'s `in_port`
    /// to the upstream router at `at` — unless the port is the core's or
    /// its link died (dead links never see their credits replenished).
    #[inline]
    fn credit_upstream(&mut self, cycle: u64, node: NodeId, in_port: Direction, vc: u8, at: u64) {
        if in_port == Direction::Local || self.link_dead(node, in_port) {
            return;
        }
        let up = self
            .neighbors
            .get(node, in_port)
            .expect("flit arrived from a neighbor");
        let credit = Event::Credit {
            node: up,
            port: in_port.opposite(),
            vc,
        };
        self.wheel.push(cycle, at, credit);
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
        if self.doomed(flit) {
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
            let pr = router.outputs[out_p]
                .front_resend()
                .expect("resend mask bit set");
            if cycle < router.next_free[out_p]
                || router.out_vc(out_p, pr.out_vc as usize).credits == 0
            {
                continue;
            }
            router.arq(out_p, ArqLink::pop_resend);
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

            // Return the freed buffer slot to the upstream router.
            self.credit_upstream(cycle, rid, Direction::from_index(in_p), in_v, cycle + 1);

            let router = &mut self.routers[ri];
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
                // The window keeps the body *by value*: the wire-side
                // arena slot is mutated in place by fault draws and
                // must never alias the canonical retransmit copy.
                let copy = (self.arena[bf.flit], out_vc);
                router.arq(out_p, |link| link.send(copy))
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
}

#[cfg(test)]
mod tests;

#[cfg(test)]
mod hardfault_tests;
