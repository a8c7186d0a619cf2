//! The virtual-channel router microarchitecture.
//!
//! Each router implements the canonical 4-stage pipeline:
//!
//! 1. **BW** — buffer write: an arriving flit spends at least one cycle in
//!    its input VC FIFO.
//! 2. **RC** — route computation: the head flit of an idle VC computes its
//!    output port (X-Y routing).
//! 3. **VA** — virtual-channel allocation: the packet competes for a free
//!    VC on the chosen output port (round-robin arbitration).
//! 4. **SA/ST** — switch allocation and traversal: per-cycle separable
//!    (input-first, then output) arbitration for the crossbar, followed by
//!    link traversal.
//!
//! The inter-router mechanics (flit arrival, ejection, credits, ARQ
//! acknowledgements) are orchestrated by
//! [`Network`](crate::network::Network); this module owns the per-router
//! state and the RC/VA stages.

use crate::arbiter::RoundRobinArbiter;
use crate::config::NocConfig;
use crate::flit::{Flit, FlitArena, FlitRef, PacketId};
use crate::routing::Routes;
use crate::topology::{Direction, NodeId, VcClass, MAX_PORTS};
use crate::worklist::bits;
use noc_coding::arq::{AckKind, RetransmitBuffer, SequenceNumber};
use std::collections::VecDeque;

/// A flit resident in an input VC buffer, stamped with its arrival cycle
/// so the pipeline can enforce the buffer-write stage. The flit body
/// lives in the network's [`FlitArena`]; the FIFO moves 16-byte entries,
/// which carry whether the flit ends its packet, so switch traversal
/// releases the VC without reading the body.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufferedFlit {
    pub flit: FlitRef,
    pub tail: bool,
    pub arrived_at: u64,
}

/// Input VC pipeline state.
///
/// The `NeedsVa`/`Active` variants record which packet owns the VC so
/// the hard-fault purge can release channels whose packet was doomed by
/// a link/router failure without scanning FIFO contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VcState {
    /// No packet assigned.
    Idle,
    /// Route computed; awaiting an output VC admissible for the hop's
    /// date-line class (always [`VcClass::Any`] off-torus).
    NeedsVa {
        out_port: Direction,
        class: VcClass,
        packet: PacketId,
    },
    /// Output VC held; flits flow through SA.
    Active {
        out_port: Direction,
        out_vc: u8,
        packet: PacketId,
    },
}

/// One input virtual channel.
#[derive(Debug, Clone)]
pub(crate) struct InputVc {
    pub fifo: VecDeque<BufferedFlit>,
    pub state: VcState,
    /// Go-back-N gate: when a flit with this sequence number was rejected,
    /// later flits on this VC are auto-rejected until its retransmission
    /// arrives (preserves per-VC flit order under hop-level ARQ).
    pub awaiting_retx: Option<SequenceNumber>,
}

impl InputVc {
    fn new() -> Self {
        Self {
            fifo: VecDeque::new(),
            state: VcState::Idle,
            awaiting_retx: None,
        }
    }

    /// An input VC counts as occupied for the buffer-utilization feature
    /// when it holds flits or an active packet.
    #[inline]
    pub(crate) fn occupied(&self) -> bool {
        !self.fifo.is_empty() || self.state != VcState::Idle
    }
}

/// Credit/allocation state of one output VC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutputVc {
    pub allocated: bool,
    pub credits: u8,
    /// The input VC (flat index) holding this output VC; meaningful only
    /// while `allocated`. A credit change finds the VC whose
    /// `no_credit` bit it moves through here.
    pub holder: u8,
}

/// A NACKed flit waiting for priority resend on its output port. Holds
/// an arena handle: the resend copy is re-materialized into a fresh
/// slot when the NACK is processed, while the pristine canonical copy
/// stays in the [`RetransmitBuffer`] by value (the wire-side slot is
/// mutated in place by fault draws, so it can never be shared with the
/// buffered original).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRetransmit {
    pub flit: FlitRef,
    pub out_vc: u8,
    pub seq: SequenceNumber,
}

/// One output port's ARQ state: the retransmit buffer and resend queue.
#[derive(Debug, Clone)]
pub(crate) struct OutputPort {
    /// Copies of unacknowledged flits sent on ECC-enabled links.
    pub retx_buffer: RetransmitBuffer<(Flit, u8)>,
    /// NACKed flits queued for priority resend.
    pub retx_pending: VecDeque<PendingRetransmit>,
}

/// Per-router stage state kept at transitions: bit `port * V + vc` of
/// every `u64` names an input VC, bit `port` of a `u8` an output port.
/// Every input VC is in at most one of `rc` / `va` / `act` (their union
/// is the occupied set). The other words hold each stage's per-VC inputs
/// — FIFO emptiness, the front's buffer-write cycle, the held output
/// port, its credit, the VA request class — so a stage computes its
/// candidates in a few word operations and loads per-VC state only for
/// a winner. A zero candidate word is the
/// exact skip test: with no candidate no arbiter is consulted and no
/// state changes. Ascending bit order is the slab's port-major order.
/// Maintained at every site that changes a VC's state, a FIFO's front,
/// a held output VC's credit, a port's busy horizon, a retransmit
/// buffer's fullness or a resend queue's emptiness;
/// [`Router::rescan_stage_masks`] is the definition, and hard-fault
/// purges assign it back. Everything a router visit reads when no port
/// is blocked shares the first cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct StageMasks {
    /// VCs in [`VcState::Active`]: the union of `holds`.
    pub act: u64,
    /// VCs holding at least one buffered flit.
    pub nonempty: u64,
    /// VCs whose front flit was written in the current cycle — still in
    /// its buffer-write stage. The sampling pass, which ends every
    /// cycle, clears it ([`Router::end_cycle`]).
    pub fresh: u64,
    /// Active VCs whose held output VC is at zero credits.
    pub no_credit: u64,
    /// Idle VCs holding a buffered head flit — the RC candidates.
    pub rc: u64,
    /// VCs in [`VcState::NeedsVa`]: the union of `va_req`.
    pub va: u64,
    /// The latest `next_free` of any output port: from this cycle on no
    /// port is busy.
    pub busy_until: u64,
    /// Output ports with a queued priority resend.
    pub retx: u8,
    /// Output ports whose retransmit buffer is full.
    pub retx_full: u8,
    /// Output ports with a non-zero `va_req` word.
    pub va_ports: u8,
    /// Occupied input VCs: the population of `rc | va | act`, which the
    /// sampling pass adds up every cycle.
    pub occupied_vcs: u8,
    /// `holds[p]`: Active VCs holding an output VC on port `p`.
    pub holds: [u64; MAX_PORTS],
    /// `va_req[p][class]`: NeedsVa VCs routed to output port `p` in
    /// date-line class `class` — filed at RC promotion, so VA grants
    /// from these words without rebuilding a request table.
    pub va_req: [[u64; VcClass::ALL.len()]; MAX_PORTS],
}

impl StageMasks {
    /// Active VCs that can send unless their output port is blocked: a
    /// buffered front past its buffer-write cycle, and credit on the held
    /// output VC.
    #[inline]
    pub(crate) fn switch_candidates(&self) -> u64 {
        self.act & self.nonempty & !self.fresh & !self.no_credit
    }

    /// RC candidates whose head has completed its buffer-write stage.
    #[inline]
    pub(crate) fn route_candidates(&self) -> u64 {
        self.rc & !self.fresh
    }

    /// Input VCs holding flits or a packet (see [`InputVc::occupied`]).
    #[inline]
    pub(crate) fn occupied(self) -> u64 {
        self.rc | self.va | self.act
    }

    /// `true` when the router has pipeline work: an occupied input VC
    /// or a pending resend — the worklist membership predicate.
    #[inline]
    pub(crate) fn any_work(self) -> bool {
        self.occupied_vcs != 0 || self.retx != 0
    }
}

/// `⌊2¹⁶ / v⌋ + 1`: for every index `i < 64`, `(i * r) >> 16 == i / v`.
/// The product overshoots `i / v` by less than `64 / 2¹⁶ < 1 / v`, which
/// never reaches the next multiple of `1 / v`.
fn reciprocal(v: usize) -> usize {
    (1 << 16) / v + 1
}

/// A router: `P` input ports of `V` VCs each, `P` output ports, and
/// the arbiters for VA and SA. `P` is the topology's port count (5 on
/// planar networks, 7 with vertical links).
#[derive(Debug, Clone)]
pub struct Router {
    pub(crate) id: NodeId,
    /// All input VCs in one dense slab, indexed `port * vcs_per_port +
    /// vc`. Flat layout keeps the per-cycle pipeline scans on one
    /// contiguous allocation (and iteration order identical to the old
    /// port-major nesting).
    pub(crate) inputs: Vec<InputVc>,
    /// VCs per input port (`inputs.len() == num_ports * vcs_per_port`).
    pub(crate) vcs_per_port: usize,
    /// Ports on this router, including `Local` — fixed by the topology.
    pub(crate) num_ports: usize,
    /// [`reciprocal`] of `vcs_per_port`, so [`Router::port_of`]
    /// multiplies instead of dividing.
    vc_reciprocal: usize,
    /// `outputs[port]`.
    pub(crate) outputs: Vec<OutputPort>,
    /// Every output VC's credit and allocation state, indexed
    /// `port * vcs_per_port + vc` (at most 64, like the stage masks):
    /// held in the router itself, so a credit return or a credit spent
    /// reaches it without chasing a port's allocation.
    pub(crate) out_vcs: [OutputVc; 64],
    /// Per output port, the earliest cycle it may transmit again (the
    /// link-busy horizon of operation modes 2 and 3, and the NACK hold).
    pub(crate) next_free: [u64; MAX_PORTS],
    /// Per output port, over `num_ports * V` flattened input VCs.
    pub(crate) va_arbiters: [RoundRobinArbiter; MAX_PORTS],
    /// Per input port, over its `V` VCs.
    pub(crate) sa_input_arbiters: [RoundRobinArbiter; MAX_PORTS],
    /// Per output port, over the `num_ports` input ports.
    pub(crate) sa_output_arbiters: [RoundRobinArbiter; MAX_PORTS],
    /// Which input VCs and output ports have work for each stage.
    pub(crate) masks: StageMasks,
}

impl Router {
    /// Builds an empty router for node `id` under `config`.
    pub(crate) fn new(id: NodeId, config: &NocConfig) -> Self {
        let v = config.vcs_per_port as usize;
        let num_ports = config.mesh.num_ports();
        debug_assert!(
            num_ports * v <= 64,
            "stage masks hold 64 input VCs (NocConfig::validate bounds this)"
        );
        let inputs = (0..num_ports * v).map(|_| InputVc::new()).collect();
        let outputs = (0..num_ports)
            .map(|_| OutputPort {
                retx_buffer: RetransmitBuffer::new(config.retransmit_buffer_depth),
                retx_pending: VecDeque::new(),
            })
            .collect();
        let mut out_vcs = [OutputVc {
            allocated: false,
            credits: config.vc_depth,
            holder: 0,
        }; 64];
        // The ejection port drains into the core; model it as never
        // back-pressured.
        let local = Direction::Local.index() * v;
        for ovc in &mut out_vcs[local..local + v] {
            ovc.credits = u8::MAX;
        }
        // Slots past `num_ports` are never consulted.
        let arbiters = |n| std::array::from_fn(|_| RoundRobinArbiter::new(n));
        Self {
            id,
            inputs,
            vcs_per_port: v,
            num_ports,
            vc_reciprocal: reciprocal(v),
            outputs,
            out_vcs,
            next_free: [0; MAX_PORTS],
            va_arbiters: arbiters(num_ports * v),
            sa_input_arbiters: arbiters(v),
            sa_output_arbiters: arbiters(num_ports),
            masks: StageMasks::default(),
        }
    }

    /// The input port of flat VC index `flat`: `flat / vcs_per_port`.
    #[inline]
    pub(crate) fn port_of(&self, flat: usize) -> usize {
        (flat * self.vc_reciprocal) >> 16
    }

    /// Output VC `vc` of port `port`.
    #[inline]
    pub(crate) fn out_vc(&self, port: usize, vc: usize) -> &OutputVc {
        &self.out_vcs[port * self.vcs_per_port + vc]
    }

    /// Mutable access to output VC `vc` of port `port`.
    #[inline]
    pub(crate) fn out_vc_mut(&mut self, port: usize, vc: usize) -> &mut OutputVc {
        &mut self.out_vcs[port * self.vcs_per_port + vc]
    }

    /// The input VC at `(port, vc)`.
    #[inline]
    pub(crate) fn input(&self, port: usize, vc: usize) -> &InputVc {
        &self.inputs[port * self.vcs_per_port + vc]
    }

    /// Mutable access to the input VC at `(port, vc)`.
    #[inline]
    pub(crate) fn input_mut(&mut self, port: usize, vc: usize) -> &mut InputVc {
        &mut self.inputs[port * self.vcs_per_port + vc]
    }

    /// The slice of input VCs belonging to `port`.
    #[cfg_attr(not(any(test, feature = "verify")), allow(dead_code))]
    #[inline]
    pub(crate) fn port_vcs(&self, port: usize) -> &[InputVc] {
        let v = self.vcs_per_port;
        &self.inputs[port * v..(port + 1) * v]
    }

    /// Mutable slice of input VCs belonging to `port`.
    #[inline]
    pub(crate) fn port_vcs_mut(&mut self, port: usize) -> &mut [InputVc] {
        let v = self.vcs_per_port;
        &mut self.inputs[port * v..(port + 1) * v]
    }

    /// Appends a flit handle to an input VC FIFO in the current cycle;
    /// a flit landing on an idle VC makes it an RC candidate, and one
    /// landing in an empty FIFO is a front in its buffer-write stage. All
    /// buffer writes go through here.
    #[inline]
    pub(crate) fn enqueue(&mut self, in_port: usize, vc: usize, flit: BufferedFlit) {
        let flat = in_port * self.vcs_per_port + vc;
        let bit = 1 << flat;
        let m = &mut self.masks;
        let joins = bit & !m.occupied();
        m.occupied_vcs += u8::from(joins != 0);
        m.rc |= bit & !(m.va | m.act);
        m.fresh |= bit & !m.nonempty;
        m.nonempty |= bit;
        self.inputs[flat].fifo.push_back(flit);
    }

    /// Removes the front flit of input VC `flat` in cycle `now`; a flit
    /// behind it that arrived in `now` becomes a front still in its
    /// buffer-write stage. All buffer reads go through here.
    #[inline]
    pub(crate) fn pop_front(&mut self, flat: usize, now: u64) -> BufferedFlit {
        let fifo = &mut self.inputs[flat].fifo;
        let bf = fifo.pop_front().expect("granted VC holds a flit");
        match fifo.front() {
            None => self.masks.nonempty &= !(1 << flat),
            Some(next) if next.arrived_at >= now => self.masks.fresh |= 1 << flat,
            Some(_) => {}
        }
        bf
    }

    /// Ends the current cycle: no front is in its buffer-write stage any
    /// more. The sampling pass calls this on every router with work, and
    /// a router without work holds no flit.
    #[inline]
    pub(crate) fn end_cycle(&mut self) {
        self.masks.fresh = 0;
    }

    /// Holds output port `p` until cycle `until` (a port's horizon never
    /// moves back).
    #[inline]
    pub(crate) fn hold_port(&mut self, p: usize, until: u64) {
        self.next_free[p] = self.next_free[p].max(until);
        self.masks.busy_until = self.masks.busy_until.max(until);
    }

    /// Output ports that may not transmit in cycle `now`.
    #[inline]
    pub(crate) fn busy_ports(&self, now: u64) -> u8 {
        if now >= self.masks.busy_until {
            return 0;
        }
        (0..self.num_ports).fold(0, |busy, p| busy | u8::from(now < self.next_free[p]) << p)
    }

    /// A tail flit left input VC `flat`: the VC goes idle — an RC
    /// candidate at once if the next packet's head is already buffered —
    /// and output VC `out_vc` of `out_p` is free again.
    #[inline]
    pub(crate) fn release(&mut self, flat: usize, out_p: usize, out_vc: usize) {
        let bit = 1 << flat;
        self.inputs[flat].state = VcState::Idle;
        let m = &mut self.masks;
        m.act &= !bit;
        m.holds[out_p] &= !bit;
        m.no_credit &= !bit;
        m.rc |= bit & m.nonempty;
        m.occupied_vcs -= u8::from(m.nonempty & bit == 0);
        self.out_vc_mut(out_p, out_vc).allocated = false;
    }

    /// Spends one credit of output VC `vc` on `out_p`; its holder, if
    /// any, stops being a switch candidate at zero.
    #[inline]
    pub(crate) fn take_credit(&mut self, out_p: usize, vc: usize) {
        let ovc = &mut self.out_vcs[out_p * self.vcs_per_port + vc];
        ovc.credits -= 1;
        if ovc.credits == 0 && ovc.allocated {
            self.masks.no_credit |= 1 << ovc.holder;
        }
    }

    /// A credit of output VC `vc` on `out_p` returned from downstream.
    #[inline]
    pub(crate) fn return_credit(&mut self, out_p: usize, vc: usize) {
        let ovc = &mut self.out_vcs[out_p * self.vcs_per_port + vc];
        if ovc.credits == 0 && ovc.allocated {
            self.masks.no_credit &= !(1 << ovc.holder);
        }
        ovc.credits = ovc.credits.saturating_add(1);
    }

    /// Buffers the pristine copy of a flit sent on the ARQ link out of
    /// `out_p`, returning its sequence number.
    #[inline]
    pub(crate) fn retain_copy(&mut self, out_p: usize, copy: (Flit, u8)) -> SequenceNumber {
        let buffer = &mut self.outputs[out_p].retx_buffer;
        let seq = buffer
            .push(copy)
            .expect("fullness checked during selection");
        if buffer.is_full() {
            self.masks.retx_full |= 1 << out_p;
        }
        seq
    }

    /// Applies an ACK or NACK for `seq` to the retransmit buffer of
    /// `out_p`; a NACK returns the copy to resend.
    #[inline]
    pub(crate) fn acknowledge(
        &mut self,
        out_p: usize,
        seq: SequenceNumber,
        kind: AckKind,
    ) -> Option<(Flit, u8)> {
        let buffer = &mut self.outputs[out_p].retx_buffer;
        let (_, copy) = buffer.acknowledge(seq, kind);
        if !buffer.is_full() {
            self.masks.retx_full &= !(1 << out_p);
        }
        copy
    }

    /// The stage masks derived from a full scan of the input VCs, their
    /// held output VCs, the port horizons and the resend queues, during
    /// cycle `now` (a front that arrived in `now` is fresh) — the
    /// definition every incremental update must agree with. Hard-fault
    /// purges assign this back: they rewrite FIFO, VC and resend-queue
    /// state wholesale, where incremental maintenance is not worth the
    /// complexity.
    pub(crate) fn rescan_stage_masks(&self, now: u64) -> StageMasks {
        let mut masks = StageMasks {
            busy_until: self.next_free.iter().copied().max().unwrap_or(0),
            ..StageMasks::default()
        };
        for (flat, vc) in self.inputs.iter().enumerate() {
            let bit = 1 << flat;
            if let Some(front) = vc.fifo.front() {
                masks.nonempty |= bit;
                if front.arrived_at >= now {
                    masks.fresh |= bit;
                }
            }
            match vc.state {
                VcState::Idle if !vc.fifo.is_empty() => masks.rc |= bit,
                VcState::Idle => {}
                VcState::NeedsVa {
                    out_port, class, ..
                } => {
                    masks.va |= bit;
                    masks.va_req[out_port.index()][class.index()] |= bit;
                    masks.va_ports |= 1 << out_port.index();
                }
                VcState::Active {
                    out_port, out_vc, ..
                } => {
                    masks.act |= bit;
                    masks.holds[out_port.index()] |= bit;
                    if self.out_vc(out_port.index(), out_vc as usize).credits == 0 {
                        masks.no_credit |= bit;
                    }
                }
            }
        }
        masks.occupied_vcs = masks.occupied().count_ones() as u8;
        for (port, out) in self.outputs.iter().enumerate() {
            if !out.retx_pending.is_empty() {
                masks.retx |= 1 << port;
            }
            if out.retx_buffer.is_full() {
                masks.retx_full |= 1 << port;
            }
        }
        masks
    }

    /// Debug cross-check of the incremental stage masks against a full
    /// rescan in cycle `now` (compiled out in release).
    #[inline]
    pub(crate) fn debug_check_stage_masks(&self, now: u64) {
        debug_assert_eq!(
            self.masks,
            self.rescan_stage_masks(now),
            "pipeline-stage masks diverged at {}",
            self.id
        );
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of currently occupied input VCs (the RL buffer-utilization
    /// feature). O(1): kept at the transitions that change the set.
    #[inline]
    pub fn occupied_input_vcs(&self) -> usize {
        debug_assert_eq!(
            usize::from(self.masks.occupied_vcs),
            self.inputs.iter().filter(|vc| vc.occupied()).count(),
            "occupied-VC count diverged at {}",
            self.id
        );
        usize::from(self.masks.occupied_vcs)
    }

    /// Total flits currently buffered across all input VC FIFOs — a
    /// point-in-time congestion measure sampled by the telemetry layer
    /// at control-epoch boundaries.
    pub fn buffered_flits(&self) -> u64 {
        self.inputs.iter().map(|vc| vc.fifo.len() as u64).sum()
    }

    /// Route computation: idle input VCs whose head flit has completed its
    /// buffer-write stage look up their output port and VC class in the
    /// network's route table.
    ///
    /// A head flit whose destination is unreachable on the live topology
    /// keeps its VC idle and reports its packet id into `doomed`; the
    /// network purges every flit of that packet right after the RC phase.
    pub(crate) fn rc_stage(
        &mut self,
        cycle: u64,
        routes: &Routes,
        arena: &FlitArena,
        doomed: &mut Vec<(PacketId, bool)>,
    ) {
        self.debug_check_stage_masks(cycle);
        // A snapshot: promotions below clear bits of the live mask.
        for flat in bits(self.masks.route_candidates()) {
            let vc = &mut self.inputs[flat];
            let front = vc.fifo.front().expect("RC candidate holds a flit");
            let flit = &arena[front.flit];
            debug_assert!(
                flit.kind.is_head(),
                "non-head flit {:?} at front of idle VC",
                flit.kind
            );
            let Some((out_port, class)) = routes.next_hop(self.id, flit.dst) else {
                doomed.push((flit.packet, !flit.class.is_control()));
                continue;
            };
            vc.state = VcState::NeedsVa {
                out_port,
                class,
                packet: flit.packet,
            };
            let bit = 1 << flat;
            self.masks.rc &= !bit;
            self.masks.va |= bit;
            self.masks.va_req[out_port.index()][class.index()] |= bit;
            self.masks.va_ports |= 1 << out_port.index();
        }
    }

    /// Virtual-channel allocation: one grant per output port per cycle.
    ///
    /// Returns the number of allocations performed (for the power model).
    pub(crate) fn va_stage(&mut self, cycle: u64) -> u64 {
        self.debug_check_stage_masks(cycle);
        // The flat slab index *is* the VA arbiter's request index, and
        // `va_req` files every requester under its (output port, VC
        // class). A requester targets exactly one port, and a grant
        // removes the winner only from that port's word, so the words
        // stay valid across the grant loop.
        let mut allocations = 0;
        for out_p in bits(u64::from(self.masks.va_ports)) {
            let requests = self.masks.va_req[out_p];
            // The first class (in Any, Lo, Hi order) with both a
            // requester and a free output VC in its admissible range
            // competes; off-torus every requester is `Any` over the full
            // range, so this degenerates to the classic first-free-VC
            // scan.
            let chosen = VcClass::ALL.into_iter().find_map(|class| {
                let word = requests[class.index()];
                if word == 0 {
                    return None;
                }
                let range = class.vc_range(self.vcs_per_port as u8);
                let base = out_p * self.vcs_per_port;
                let free = self.out_vcs[base + range.start..base + range.end]
                    .iter()
                    .position(|o| !o.allocated)?;
                Some((class, word, range.start + free))
            });
            let Some((class, word, free_vc)) = chosen else {
                continue;
            };
            let winner = self.va_arbiters[out_p]
                .grant_mask(word)
                .expect("a request was asserted");
            let VcState::NeedsVa { packet, .. } = self.inputs[winner].state else {
                unreachable!("VA winner must be in NeedsVa");
            };
            self.inputs[winner].state = VcState::Active {
                out_port: Direction::from_index(out_p),
                out_vc: free_vc as u8,
                packet,
            };
            let bit = 1 << winner;
            let ovc = &mut self.out_vcs[out_p * self.vcs_per_port + free_vc];
            ovc.allocated = true;
            ovc.holder = winner as u8;
            let m = &mut self.masks;
            m.va &= !bit;
            m.va_req[out_p][class.index()] &= !bit;
            if m.va_req[out_p] == [0; VcClass::ALL.len()] {
                m.va_ports &= !(1 << out_p);
            }
            m.act |= bit;
            m.holds[out_p] |= bit;
            if ovc.credits == 0 {
                m.no_credit |= bit;
            }
            allocations += 1;
        }
        allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Packet, PacketClass, PacketId};
    use crate::topology::{Topo, NUM_PORTS};
    use noc_coding::crc::Crc32;

    fn test_config() -> NocConfig {
        NocConfig::builder().mesh(4, 4).build()
    }

    /// A non-tail flit handle buffered in cycle `arrived_at`.
    fn at(flit: FlitRef, arrived_at: u64) -> BufferedFlit {
        BufferedFlit {
            flit,
            tail: false,
            arrived_at,
        }
    }

    fn head_flit(src: NodeId, dst: NodeId) -> Flit {
        Packet {
            id: PacketId(1),
            src,
            dst,
            num_flits: 4,
            class: PacketClass::Data,
            injected_at: 0,
            payload_seed: 7,
        }
        .make_flit(0, 0, &Crc32::new())
    }

    #[test]
    fn port_of_divides_exactly() {
        for v in 1..=64 {
            let r = Router {
                vc_reciprocal: reciprocal(v),
                ..Router::new(NodeId(0), &test_config())
            };
            for flat in 0..64 {
                assert_eq!(r.port_of(flat), flat / v, "V = {v}, bit {flat}");
            }
        }
    }

    #[test]
    fn new_router_is_empty() {
        let r = Router::new(NodeId(5), &test_config());
        assert_eq!(r.id(), NodeId(5));
        assert_eq!(r.masks, StageMasks::default());
        assert!(!r.masks.any_work());
        assert_eq!(r.occupied_input_vcs(), 0);
        assert_eq!(r.inputs.len(), NUM_PORTS * 4);
        assert_eq!(r.vcs_per_port, 4);
        assert_eq!(r.out_vc(0, 0).credits, 4);
        assert_eq!(
            r.out_vc(Direction::Local.index(), 0).credits,
            u8::MAX,
            "ejection port is never back-pressured"
        );
    }

    #[test]
    fn rc_waits_for_buffer_write_stage() {
        let config = test_config();
        let mesh = config.mesh;
        let routes = Routes::healthy(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(3, 0)));
        r.enqueue(Direction::Local.index(), 0, at(f, 10));
        let mut doomed = Vec::new();
        // Same cycle: still in BW.
        r.rc_stage(10, &routes, &arena, &mut doomed);
        assert_eq!(r.input(Direction::Local.index(), 0).state, VcState::Idle);
        // Next cycle: RC fires, X-first routing goes east.
        r.end_cycle();
        r.rc_stage(11, &routes, &arena, &mut doomed);
        assert_eq!(
            r.input(Direction::Local.index(), 0).state,
            VcState::NeedsVa {
                out_port: Direction::East,
                class: VcClass::Any,
                packet: PacketId(1)
            }
        );
        assert!(doomed.is_empty());
    }

    #[test]
    fn rc_assigns_dateline_class_on_torus() {
        let config = NocConfig::builder().topology(Topo::torus(4, 4)).build();
        let topo = config.mesh;
        let routes = Routes::healthy(topo);
        let mut arena = FlitArena::new();
        // Router (3, 0) sending to (1, 0): East across the wrap link.
        let mut r = Router::new(topo.node_at(3, 0), &config);
        let f = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 0, at(f, 0));
        r.end_cycle();
        r.rc_stage(1, &routes, &arena, &mut Vec::new());
        assert_eq!(
            r.input(Direction::Local.index(), 0).state,
            VcState::NeedsVa {
                out_port: Direction::East,
                class: VcClass::Lo,
                packet: PacketId(1)
            }
        );
    }

    #[test]
    fn va_respects_dateline_vc_halves() {
        let config = NocConfig::builder().topology(Topo::torus(4, 4)).build();
        let topo = config.mesh;
        let routes = Routes::healthy(topo);
        let mut arena = FlitArena::new();
        let mut r = Router::new(topo.node_at(3, 0), &config);
        // A Lo-class requester (wraps the date line) on East.
        let f = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 0, at(f, 0));
        r.end_cycle();
        r.rc_stage(1, &routes, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(1), 1);
        let VcState::Active { out_vc, .. } = r.input(Direction::Local.index(), 0).state else {
            panic!("requester must be granted");
        };
        assert!(
            VcClass::Lo.admits(out_vc as usize, config.vcs_per_port),
            "Lo-class hop got VC {out_vc} outside the low half"
        );
        // Exhaust the low half (VCs 0..2 of 4): a further Lo requester
        // stalls even though the high half is free.
        let g = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 1, at(g, 0));
        r.end_cycle();
        r.rc_stage(1, &routes, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(1), 1);
        let h = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 2, at(h, 0));
        r.end_cycle();
        r.rc_stage(1, &routes, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(1), 0, "low half exhausted: Lo requester waits");
        // A Hi-class requester (no wrap) still gets a high-half VC.
        let k = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(2, 0)));
        r.enqueue(Direction::Local.index(), 3, at(k, 0));
        r.end_cycle();
        r.rc_stage(1, &routes, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(1), 1);
        let VcState::Active {
            out_vc, out_port, ..
        } = r.input(Direction::Local.index(), 3).state
        else {
            panic!("Hi requester must be granted");
        };
        assert_eq!(out_port, Direction::West, "3→2 is one hop west, no wrap");
        assert!(VcClass::Hi.admits(out_vc as usize, config.vcs_per_port));
    }

    #[test]
    fn va_allocates_one_vc_per_output_per_cycle() {
        let config = test_config();
        let mesh = config.mesh;
        let routes = Routes::healthy(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        // Two input VCs both want East.
        for vc in 0..2 {
            let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(3, 0)));
            r.enqueue(Direction::Local.index(), vc, at(f, 0));
        }
        r.end_cycle();
        r.rc_stage(1, &routes, &arena, &mut Vec::new());
        let granted = r.va_stage(1);
        assert_eq!(granted, 1, "one VA grant per output port per cycle");
        let active = r
            .port_vcs(Direction::Local.index())
            .iter()
            .filter(|vc| matches!(vc.state, VcState::Active { .. }))
            .count();
        assert_eq!(active, 1);
        // Second cycle: the other one gets a (different) VC.
        let granted = r.va_stage(1);
        assert_eq!(granted, 1);
        let vcs: Vec<u8> = r
            .port_vcs(Direction::Local.index())
            .iter()
            .filter_map(|vc| match vc.state {
                VcState::Active { out_vc, .. } => Some(out_vc),
                _ => None,
            })
            .collect();
        assert_eq!(vcs.len(), 2);
        assert_ne!(vcs[0], vcs[1], "distinct output VCs");
    }

    #[test]
    fn va_exhausts_output_vcs() {
        let config = test_config();
        let mesh = config.mesh;
        let routes = Routes::healthy(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        // 5 requesters for East across two input ports, only 4 output VCs.
        for vc in 0..4 {
            let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(3, 0)));
            r.enqueue(Direction::Local.index(), vc, at(f, 0));
        }
        let f = arena.alloc(head_flit(mesh.node_at(0, 1), mesh.node_at(3, 0)));
        r.enqueue(Direction::West.index(), 0, at(f, 0));
        r.end_cycle();
        r.rc_stage(1, &routes, &arena, &mut Vec::new());
        let mut total = 0;
        for _ in 0..8 {
            total += r.va_stage(1);
        }
        assert_eq!(total, 4, "only 4 output VCs exist on East");
    }

    #[test]
    fn masks_follow_a_vc_through_the_stages() {
        let config = test_config();
        let mesh = config.mesh;
        let routes = Routes::healthy(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(1, 0)));
        r.enqueue(0, 1, at(f, 0));
        let bit = 1 << 1; // port 0, VC 1
        assert_eq!((r.masks.rc, r.masks.occupied()), (bit, bit));
        assert_eq!((r.masks.nonempty, r.masks.fresh), (bit, bit));
        assert_eq!(r.masks.route_candidates(), 0, "written this cycle");
        r.end_cycle();
        // A second flit on the same VC does not double-count, and the
        // front it queues behind is past its buffer-write stage.
        let g = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(1, 0)));
        r.enqueue(0, 1, at(g, 1));
        assert_eq!(r.occupied_input_vcs(), 1);
        assert_eq!(r.masks.fresh, 0);
        r.rc_stage(1, &routes, &arena, &mut Vec::new());
        assert_eq!((r.masks.rc, r.masks.va, r.masks.act), (0, bit, 0));
        let east = Direction::East.index();
        assert_eq!(r.masks.va_req[east][VcClass::Any.index()], bit);
        assert_eq!(r.masks.va_ports, 1 << east);
        assert_eq!(r.va_stage(1), 1);
        assert_eq!((r.masks.rc, r.masks.va, r.masks.act), (0, 0, bit));
        assert_eq!((r.masks.va_req[east], r.masks.holds[east]), ([0; 3], bit));
        assert_eq!(r.masks.va_ports, 0);
        r.end_cycle();
        // A flit landing on a VC that owns a packet is not an RC candidate.
        let h = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(1, 0)));
        r.enqueue(0, 1, at(h, 2));
        assert_eq!((r.masks.rc, r.masks.occupied()), (0, bit));
        assert_eq!(r.masks, r.rescan_stage_masks(2));
        assert!(r.masks.any_work());
        // Draining the output VC's credits takes the holder out of SA
        // until one returns.
        for _ in 0..config.vc_depth {
            assert_eq!(r.masks.switch_candidates(), bit);
            r.take_credit(east, 0);
        }
        assert_eq!((r.masks.no_credit, r.masks.switch_candidates()), (bit, 0));
        r.return_credit(east, 0);
        assert_eq!((r.masks.no_credit, r.masks.switch_candidates()), (0, bit));
        // A held port is busy until its horizon.
        r.hold_port(east, 4);
        assert_eq!((r.busy_ports(3), r.busy_ports(4)), (1 << east, 0));
        // Pops keep `nonempty` and `fresh` exact; the tail releases.
        assert_eq!(r.pop_front(1, 2).flit, f);
        assert_eq!(r.masks.fresh, 0, "g arrived in cycle 1");
        r.pop_front(1, 2);
        assert_eq!(r.masks.fresh, bit, "h arrived in cycle 2");
        r.release(1, east, 0);
        assert_eq!((r.masks.act, r.masks.holds[east], r.masks.rc), (0, 0, bit));
        assert_eq!(r.masks.route_candidates(), 0, "the head behind waits");
        assert_eq!(r.masks, r.rescan_stage_masks(2));
        r.end_cycle();
        assert_eq!(r.masks.route_candidates(), bit);
    }
}
