//! Hard-fault application: permanent link and router failures, and the
//! packets they doom.
//!
//! A fault batch marks the dead elements, reroutes on what survives, and
//! then empties everything resident on the dead side through four
//! operations: [`FaultState::doom_flits`] loses flits' packets and frees
//! their slots, [`FaultState::evacuate_input`] empties one input VC,
//! `ArqLink::sever` empties one dead link's hop protocol, and
//! [`FaultState::divert`] moves a live router's VCs off the links that
//! died. Each takes only the state it touches. Flits
//! of a doomed packet still on live links evaporate on arrival through
//! the ordinary ACK and credit responses (see `Network::handle_arrival`).

use super::{Event, Network, ReassemblyEntry, Wheel};
use crate::error_control::ErrorControl;
use crate::flit::{FlitArena, FlitRef, Packet, PacketId, PacketWindow};
use crate::router::{InputVc, Router, VcState};
use crate::routing::{RouteCache, Routes, ROUTE_CACHE};
use crate::topology::{Direction, NeighborTable, NodeId, Topo, MAX_PORTS};
use std::collections::{BTreeSet, VecDeque};

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
pub(super) struct FaultState {
    events: Vec<HardFaultEvent>,
    pub(super) next_event: usize,
    pub(super) node_dead: Vec<bool>,
    /// `link_dead[node][port]`: the channel at `node` in that direction
    /// is dead. Kept symmetric with the peer's opposite entry.
    pub(super) link_dead: Vec<[bool; MAX_PORTS]>,
    /// Where reroute tables are looked up: [`ROUTE_CACHE`] outside this
    /// module's own tests.
    pub(super) cache: &'static RouteCache,
    /// Packets that lost at least one flit (or their source/destination
    /// router) to a hard fault. Membership-only, ordered for
    /// deterministic iteration.
    pub(super) doomed: BTreeSet<PacketId>,
}

/// The events one batch consumed and the routers they touch.
struct Batch {
    applied: u64,
    /// The dead node itself plus both endpoints of every killed link.
    affected: Vec<bool>,
    any_node_died: bool,
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

    /// Whether an event is due at `cycle`.
    pub(super) fn due(&self, cycle: u64) -> bool {
        self.events
            .get(self.next_event)
            .is_some_and(|e| e.cycle <= cycle)
    }

    /// Marks the channel `node → dir` (and its reverse) dead.
    fn kill_link(&mut self, neighbors: &NeighborTable, node: NodeId, dir: Direction) {
        self.link_dead[node.index()][dir.index()] = true;
        if let Some(peer) = neighbors.get(node, dir) {
            self.link_dead[peer.index()][dir.opposite().index()] = true;
        }
    }

    /// Marks every element whose event is due at `cycle` dead. Elements
    /// that died in *earlier* batches were evacuated then and can never
    /// reacquire state (dead links carry no arrivals and return no
    /// credits), so only this batch's routers are reported affected.
    fn consume_due(&mut self, cycle: u64, mesh: Topo, neighbors: &NeighborTable) -> Batch {
        let mut batch = Batch {
            applied: 0,
            affected: vec![false; self.node_dead.len()],
            any_node_died: false,
        };
        while self.due(cycle) {
            match self.events[self.next_event].kind {
                HardFaultKind::Router { node } => {
                    self.node_dead[node.index()] = true;
                    batch.any_node_died = true;
                    batch.affected[node.index()] = true;
                    for &dir in mesh.compass() {
                        if let Some(peer) = mesh.neighbor(node, dir) {
                            self.kill_link(neighbors, node, dir);
                            batch.affected[peer.index()] = true;
                        }
                    }
                }
                HardFaultKind::Link { node, dir } => {
                    self.kill_link(neighbors, node, dir);
                    batch.affected[node.index()] = true;
                    if let Some(peer) = neighbors.get(node, dir) {
                        batch.affected[peer.index()] = true;
                    }
                }
            }
            self.next_event += 1;
            batch.applied += 1;
        }
        batch
    }

    /// Records `id` as lost; returns `true` when newly recorded and the
    /// packet carries data (i.e. counts toward `packets_lost_faults`).
    fn doom(&mut self, id: PacketId, is_data: bool) -> bool {
        self.doomed.insert(id) && is_data
    }

    /// Dooms each flit's packet and frees its slot: the one way a flit
    /// is lost to a fault. Returns the data packets newly lost.
    fn doom_flits(&mut self, arena: &mut FlitArena, flits: impl Iterator<Item = FlitRef>) -> u64 {
        let mut lost = 0;
        for flit in flits {
            let f = &arena[flit];
            lost += u64::from(self.doom(f.packet, !f.class.is_control()));
            arena.free(flit);
        }
        lost
    }

    /// Wheel sweep: in-flight events on dead elements die in place.
    /// Killing an arrival dooms its packet — the wormhole has been
    /// severed. Returns the data packets newly lost.
    fn sweep(&mut self, arena: &mut FlitArena, wheel: &mut Wheel) -> u64 {
        let mut lost = 0;
        for slot in &mut wheel.slots {
            slot.retain(|ev| {
                let dead_flit = match *ev {
                    Event::Arrival { link, flit, .. } => {
                        self.link_dead[link.src.index()][link.dir.index()].then_some(flit)
                    }
                    Event::DirectDeliver { node, flit, .. } | Event::Eject { node, flit } => {
                        self.node_dead[node.index()].then_some(flit)
                    }
                    Event::Credit { node, port, .. } | Event::AckSignal { node, port, .. } => {
                        return !(self.node_dead[node.index()]
                            || self.link_dead[node.index()][port.index()]);
                    }
                };
                lost += self.doom_flits(arena, dead_flit.into_iter());
                dead_flit.is_none()
            });
        }
        lost
    }

    /// Empties one input VC of a dead router or of a port on a dead
    /// link: its buffered flits and the packet it serves are lost — the
    /// rest of that packet is stranded on the dead side. (Single-flit
    /// packets go Idle at the tail, so a non-idle VC with an empty FIFO
    /// always serves a multi-flit data packet.) Returns the data packets
    /// newly lost and the `(port, vc)` output VC the VC held.
    fn evacuate_input(
        &mut self,
        arena: &mut FlitArena,
        ivc: &mut InputVc,
    ) -> (u64, Option<(usize, usize)>) {
        let mut lost = self.doom_flits(arena, ivc.fifo.drain(..).map(|bf| bf.flit));
        if let VcState::NeedsVa { packet, .. } | VcState::Active { packet, .. } = ivc.state {
            lost += u64::from(self.doom(packet, true));
        }
        let held = match ivc.state {
            VcState::Active {
                out_port, out_vc, ..
            } => Some((out_port.index(), out_vc as usize)),
            _ => None,
        };
        ivc.state = VcState::Idle;
        (lost, held)
    }

    /// Empties a dead router: everything it holds is lost. Returns the
    /// data packets newly lost.
    fn evacuate_router(&mut self, arena: &mut FlitArena, router: &mut Router, cycle: u64) -> u64 {
        let mut lost = 0;
        for ivc in &mut router.inputs {
            lost += self.evacuate_input(arena, ivc).0;
        }
        for link in &mut router.outputs {
            lost += self.doom_flits(arena, link.sever());
        }
        for ovc in &mut router.out_vcs {
            ovc.allocated = false;
        }
        router.masks = router.rescan_stage_masks(cycle);
        lost
    }

    /// Moves a live router off the links that died: its ports on a dead
    /// link are evacuated, and a VC routed toward one re-enters RC if its
    /// packet has not yet sent a flit through the crossbar — a severed
    /// wormhole is lost instead. Returns the data packets newly lost.
    fn divert(&mut self, arena: &mut FlitArena, router: &mut Router, cycle: u64) -> u64 {
        let dead = self.link_dead[router.id.index()];
        let mut lost = 0;
        let mut dealloc = Vec::new();
        for p in (0..router.num_ports).filter(|&p| dead[p]) {
            for ivc in router.port_vcs_mut(p) {
                let (newly, held) = self.evacuate_input(arena, ivc);
                lost += newly;
                dealloc.extend(held);
            }
            lost += self.doom_flits(arena, router.outputs[p].sever());
        }
        for ivc in &mut router.inputs {
            match ivc.state {
                VcState::NeedsVa { out_port, .. } if dead[out_port.index()] => {
                    ivc.state = VcState::Idle;
                }
                VcState::Active {
                    out_port,
                    out_vc,
                    packet,
                } if dead[out_port.index()] => {
                    dealloc.push((out_port.index(), out_vc as usize));
                    let head_waiting = ivc
                        .fifo
                        .front()
                        .is_some_and(|bf| arena[bf.flit].kind.is_head());
                    if !head_waiting {
                        lost += u64::from(self.doom(packet, true));
                    }
                    ivc.state = VcState::Idle;
                }
                _ => {}
            }
        }
        for (op, ov) in dealloc {
            router.out_vc_mut(op, ov).allocated = false;
        }
        router.masks = router.rescan_stage_masks(cycle);
        lost
    }

    /// A dead router's core sources nothing more: its queued packets and
    /// the one it was injecting are lost. Returns the data packets newly
    /// lost.
    fn doom_sources(
        &mut self,
        queue: &mut VecDeque<(Packet, u8)>,
        injecting: Option<Packet>,
    ) -> u64 {
        let mut lost = 0;
        for p in queue.drain(..).map(|(p, _)| p).chain(injecting) {
            lost += u64::from(self.doom(p.id, !p.class.is_control()));
        }
        lost
    }

    /// Packets whose source or destination core died are lost, as are
    /// reassembly attempts collecting at a dead destination. Returns the
    /// data packets newly lost.
    fn doom_stranded(
        &mut self,
        pending: &PacketWindow<(Packet, u8)>,
        reassembly: &[Vec<ReassemblyEntry>],
        arena: &FlitArena,
    ) -> u64 {
        let mut lost = 0;
        for (p, _) in pending.values() {
            if self.node_dead[p.src.index()] || self.node_dead[p.dst.index()] {
                lost += u64::from(self.doom(p.id, true));
            }
        }
        for (ni, entries) in reassembly.iter().enumerate() {
            if self.node_dead[ni] {
                for e in entries {
                    let is_data = !arena[e.flits[0]].class.is_control();
                    lost += u64::from(self.doom(e.packet, is_data));
                }
            }
        }
        lost
    }
}

impl<E: ErrorControl> Network<E> {
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
            let (HardFaultKind::Router { node } | HardFaultKind::Link { node, .. }) = ev.kind;
            assert!(
                node.index() < self.mesh.num_nodes(),
                "fault node outside mesh"
            );
            if let HardFaultKind::Link { node, dir } = ev.kind {
                assert!(
                    self.mesh.neighbor(node, dir).is_some(),
                    "hard fault on a nonexistent link {node}:{dir}"
                );
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
    pub(crate) fn hard_faults_active(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.next_event > 0)
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

    /// Whether `flit` belongs to a packet lost to a hard fault.
    #[inline]
    pub(super) fn doomed(&self, flit: FlitRef) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|fs| fs.doomed.contains(&self.arena[flit].packet))
    }

    /// Applies every hard-fault event due at `cycle`: marks the dead
    /// elements, recomputes the fault-adaptive route table, evacuates
    /// state resident on dead elements, and purges the packets the
    /// batch killed. Runs at the top of `step` — before event
    /// processing — so both simulation engines observe the failure at
    /// the same phase-order point.
    pub(super) fn apply_hard_fault_batch(&mut self, cycle: u64) {
        let mut fs = self
            .faults
            .take()
            .expect("caller checked a schedule exists");
        let doomed_before = fs.doomed.len();

        // 1. Consume the due events.
        let batch = fs.consume_due(cycle, self.mesh, &self.neighbors);

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

        // 3. Sweep the wheel.
        let mut lost = fs.sweep(&mut self.arena, &mut self.wheel);

        // 4. Evacuate the batch's dead routers and divert its live ones.
        // A router it does not touch has no dead port, and none of its
        // VCs can point at a newly dead link (a VC's out link is its own
        // router's port).
        for ni in (0..self.routers.len()).filter(|&ni| batch.affected[ni]) {
            let router = &mut self.routers[ni];
            if fs.node_dead[ni] {
                lost += fs.evacuate_router(&mut self.arena, router, cycle);
                let injecting = self.inject_progress[ni].take().map(|p| p.packet);
                lost += fs.doom_sources(&mut self.source_queues[ni], injecting);
            } else {
                lost += fs.divert(&mut self.arena, router, cycle);
            }
        }

        // 5. Doom the windows stranded by dead cores. Only node deaths
        // strand them, so a link-only batch skips both scans (earlier
        // batches already doomed their casualties).
        if batch.any_node_died {
            lost += fs.doom_stranded(&self.pending_packets, &self.reassembly, &self.arena);
        }

        // 6. Purge everything the batch doomed, then publish counters.
        // A batch that doomed nothing new leaves no resident traces to
        // purge — every packet doomed earlier was purged when it was
        // doomed — but the evacuation above may still have rewritten
        // router state, so the worklists are re-derived either way.
        let purge = fs.doomed.len() > doomed_before;
        self.faults = Some(fs);
        if purge {
            self.purge_doomed_resident(cycle);
        } else {
            self.rebuild_worklists();
        }
        self.stats.hard_fault_events += batch.applied;
        self.tel.hardfault_events.add(batch.applied);
        self.stats.reroute_events += 1;
        self.tel.hardfault_reroutes.inc();
        self.stats.unreachable_pairs = unreachable;
        self.tel.hardfault_unreachable_pairs.set(unreachable as f64);
        self.count_lost(lost);
    }

    /// Called after the RC phase when head flits found their
    /// destination unreachable on the surviving topology: dooms those
    /// packets and purges their resident flits so the network stays
    /// drainable.
    pub(super) fn finish_rc_dooms(&mut self, cycle: u64) {
        let fs = self
            .faults
            .as_deref_mut()
            .expect("RC dooms require fault state");
        let mut lost = 0;
        for &(id, is_data) in &self.rc_doomed {
            lost += u64::from(fs.doom(id, is_data));
        }
        self.rc_doomed.clear();
        self.purge_doomed_resident(cycle);
        self.count_lost(lost);
    }

    /// Publishes `lost` data packets newly lost to hard faults.
    fn count_lost(&mut self, lost: u64) {
        self.stats.packets_lost_hard_fault += lost;
        self.tel.hardfault_packets_lost.add(lost);
    }

    /// Removes every resident trace of doomed packets — buffered flits
    /// (returning credits on live links), VC ownership, injection
    /// state, source-queue entries, and the pending/reassembly windows.
    /// In-flight wheel events self-clean on arrival instead.
    fn purge_doomed_resident(&mut self, now: u64) {
        let fs = self.faults.as_deref().expect("purge requires fault state");
        let doomed = |id: &PacketId| fs.doomed.contains(id);
        let arena = &mut self.arena;
        // The input VCs (router, flat index) that dropped a flit, one
        // entry per credit owed upstream.
        let mut credits = Vec::new();
        let mut dealloc = Vec::new();
        for router in &mut self.routers {
            let rid = router.id;
            for (flat, ivc) in router.inputs.iter_mut().enumerate() {
                ivc.fifo.retain(|bf| {
                    let keep = !doomed(&arena[bf.flit].packet);
                    if !keep {
                        arena.free(bf.flit);
                        credits.push((rid, flat));
                    }
                    keep
                });
                match ivc.state {
                    VcState::NeedsVa { packet, .. } if doomed(&packet) => {
                        ivc.state = VcState::Idle;
                    }
                    VcState::Active {
                        out_port,
                        out_vc,
                        packet,
                    } if doomed(&packet) => {
                        dealloc.push((out_port.index(), out_vc as usize));
                        ivc.state = VcState::Idle;
                    }
                    _ => {}
                }
            }
            for (op, ov) in dealloc.drain(..) {
                router.out_vc_mut(op, ov).allocated = false;
            }
            router.masks = router.rescan_stage_masks(now);
        }
        for (prog, queue) in self.inject_progress.iter_mut().zip(&mut self.source_queues) {
            if prog.as_ref().is_some_and(|p| doomed(&p.packet.id)) {
                *prog = None;
            }
            queue.retain(|(p, _)| !doomed(&p.id));
        }
        let stale: Vec<PacketId> = self
            .pending_packets
            .values()
            .map(|(p, _)| p.id)
            .filter(doomed)
            .collect();
        for id in stale {
            self.pending_packets.remove(id);
        }
        for entries in &mut self.reassembly {
            entries.retain_mut(|e| {
                if !doomed(&e.packet) {
                    return true;
                }
                for fr in e.flits.drain(..) {
                    arena.free(fr);
                }
                self.reassembly_pool.push(std::mem::take(&mut e.flits));
                self.reassembling -= 1;
                false
            });
        }
        let v = self.config.vcs_per_port as usize;
        for (node, flat) in credits {
            let in_port = Direction::from_index(flat / v);
            self.credit_upstream(now, node, in_port, (flat % v) as u8, now + 1);
        }
        // Purges rewrite router and injection state wholesale, so the
        // incremental worklist insert sites cannot see the changes;
        // re-derive both sets from their predicates.
        self.rebuild_worklists();
    }
}
