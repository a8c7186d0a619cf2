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
use crate::routing::{FaultRoutes, RouteTable};
use crate::topology::{Direction, NodeId, VcClass, MAX_PORTS};
use crate::worklist::bits;
use noc_coding::arq::{RetransmitBuffer, SequenceNumber};
use std::collections::VecDeque;

/// A flit resident in an input VC buffer, stamped with its arrival cycle
/// so the pipeline can enforce the buffer-write stage. The flit body
/// lives in the network's [`FlitArena`]; the FIFO moves 16-byte entries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufferedFlit {
    pub flit: FlitRef,
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

/// One output port: its VC credit state, the ARQ retransmit buffer, and
/// the link-busy horizon used by operation modes 2 and 3.
#[derive(Debug, Clone)]
pub(crate) struct OutputPort {
    pub vcs: Vec<OutputVc>,
    /// Earliest cycle at which the port may transmit again.
    pub next_free: u64,
    /// Copies of unacknowledged flits sent on ECC-enabled links.
    pub retx_buffer: RetransmitBuffer<(Flit, u8)>,
    /// NACKed flits queued for priority resend.
    pub retx_pending: VecDeque<PendingRetransmit>,
}

/// Per-router stage masks: bit `port * V + vc` of the three `u64`s
/// names an input VC, bit `port` of `retx` an output port. Every input
/// VC is in at most one of `rc` / `va` / `act` (their union is the
/// occupied set), so a stage finds its one or two candidates with
/// `trailing_zeros` instead of walking the slab, and a zero mask is
/// the exact skip test: with no candidate no arbiter is consulted and
/// no state changes. Ascending bit order is the slab's port-major
/// order. Maintained at every site that changes a VC's state or a
/// resend queue's emptiness; reassigned from
/// [`Router::rescan_stage_masks`] after hard-fault purges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StageMasks {
    /// Idle VCs holding a buffered head flit — the RC candidates.
    pub rc: u64,
    /// VCs in [`VcState::NeedsVa`].
    pub va: u64,
    /// VCs in [`VcState::Active`].
    pub act: u64,
    /// Output ports with a queued priority resend.
    pub retx: u8,
}

impl StageMasks {
    /// Input VCs holding flits or a packet (see [`InputVc::occupied`]).
    #[inline]
    pub(crate) fn occupied(self) -> u64 {
        self.rc | self.va | self.act
    }

    /// `true` when the router has pipeline work: an occupied input VC
    /// or a pending resend — the worklist membership predicate.
    #[inline]
    pub(crate) fn any_work(self) -> bool {
        self.occupied() != 0 || self.retx != 0
    }
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
    /// `outputs[port]`.
    pub(crate) outputs: Vec<OutputPort>,
    /// Per output port, over `num_ports * V` flattened input VCs.
    pub(crate) va_arbiters: Vec<RoundRobinArbiter>,
    /// Per input port, over its `V` VCs.
    pub(crate) sa_input_arbiters: Vec<RoundRobinArbiter>,
    /// Per output port, over the `num_ports` input ports.
    pub(crate) sa_output_arbiters: Vec<RoundRobinArbiter>,
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
            .map(|p| OutputPort {
                vcs: (0..v)
                    .map(|_| OutputVc {
                        allocated: false,
                        // The ejection port drains into the core; model it
                        // as never back-pressured.
                        credits: if p == Direction::Local.index() {
                            u8::MAX
                        } else {
                            config.vc_depth
                        },
                    })
                    .collect(),
                next_free: 0,
                retx_buffer: RetransmitBuffer::new(config.retransmit_buffer_depth),
                retx_pending: VecDeque::new(),
            })
            .collect();
        Self {
            id,
            inputs,
            vcs_per_port: v,
            num_ports,
            outputs,
            va_arbiters: (0..num_ports)
                .map(|_| RoundRobinArbiter::new(num_ports * v))
                .collect(),
            sa_input_arbiters: (0..num_ports).map(|_| RoundRobinArbiter::new(v)).collect(),
            sa_output_arbiters: (0..num_ports)
                .map(|_| RoundRobinArbiter::new(num_ports))
                .collect(),
            masks: StageMasks::default(),
        }
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

    /// Appends a flit handle to an input VC FIFO; a flit landing on an
    /// idle VC makes it an RC candidate. All buffer writes go through
    /// here.
    #[inline]
    pub(crate) fn enqueue(&mut self, in_port: usize, vc: usize, flit: FlitRef, arrived_at: u64) {
        let flat = in_port * self.vcs_per_port + vc;
        self.masks.rc |= (1 << flat) & !(self.masks.va | self.masks.act);
        self.inputs[flat]
            .fifo
            .push_back(BufferedFlit { flit, arrived_at });
    }

    /// The stage masks re-derived from a full scan of the input VCs and
    /// resend queues. Hard-fault purges assign this back: they rewrite
    /// FIFO, VC and resend-queue state wholesale, where incremental
    /// maintenance is not worth the complexity.
    pub(crate) fn rescan_stage_masks(&self) -> StageMasks {
        let mut masks = StageMasks::default();
        for (flat, vc) in self.inputs.iter().enumerate() {
            match vc.state {
                VcState::Idle if !vc.fifo.is_empty() => masks.rc |= 1 << flat,
                VcState::Idle => {}
                VcState::NeedsVa { .. } => masks.va |= 1 << flat,
                VcState::Active { .. } => masks.act |= 1 << flat,
            }
        }
        for (port, out) in self.outputs.iter().enumerate() {
            if !out.retx_pending.is_empty() {
                masks.retx |= 1 << port;
            }
        }
        masks
    }

    /// Debug cross-check of the incremental stage masks against a full
    /// rescan (compiled out in release).
    #[inline]
    pub(crate) fn debug_check_stage_masks(&self) {
        debug_assert_eq!(
            self.masks,
            self.rescan_stage_masks(),
            "pipeline-stage masks diverged at {}",
            self.id
        );
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of currently occupied input VCs (the RL buffer-utilization
    /// feature). O(1): a population count of the stage masks.
    #[inline]
    pub fn occupied_input_vcs(&self) -> usize {
        debug_assert_eq!(
            self.masks.occupied().count_ones() as usize,
            self.inputs.iter().filter(|vc| vc.occupied()).count(),
            "occupied-VC mask diverged at {}",
            self.id
        );
        self.masks.occupied().count_ones() as usize
    }

    /// Total flits currently buffered across all input VC FIFOs — a
    /// point-in-time congestion measure sampled by the telemetry layer
    /// at control-epoch boundaries.
    pub fn buffered_flits(&self) -> u64 {
        self.inputs.iter().map(|vc| vc.fifo.len() as u64).sum()
    }

    /// Route computation: idle input VCs whose head flit has completed its
    /// buffer-write stage compute their output port via the precomputed
    /// route table — or, once hard faults are active, via the
    /// fault-adaptive up*/down* table.
    ///
    /// A head flit whose destination is unreachable on the live topology
    /// keeps its VC idle and reports its packet id into `doomed`; the
    /// network purges every flit of that packet right after the RC phase.
    pub(crate) fn rc_stage(
        &mut self,
        cycle: u64,
        routes: &RouteTable,
        fault: Option<&FaultRoutes>,
        arena: &FlitArena,
        doomed: &mut Vec<(PacketId, bool)>,
    ) {
        self.debug_check_stage_masks();
        // A snapshot: promotions below clear bits of the live mask.
        for flat in bits(self.masks.rc) {
            let vc = &mut self.inputs[flat];
            let front = vc.fifo.front().expect("RC candidate holds a flit");
            if front.arrived_at >= cycle {
                continue; // still in the BW stage
            }
            let flit = &arena[front.flit];
            debug_assert!(
                flit.kind.is_head(),
                "non-head flit {:?} at front of idle VC",
                flit.kind
            );
            let (out_port, class) = match fault {
                None => routes.next_hop_class(self.id, flit.dst),
                // Up*/down* recovery routes are deadlock-free by rank
                // monotonicity alone; they place no VC restriction.
                Some(f) => match f.next_hop(self.id, flit.dst) {
                    Some(dir) => (dir, VcClass::Any),
                    None => {
                        doomed.push((flit.packet, !flit.class.is_control()));
                        continue;
                    }
                },
            };
            vc.state = VcState::NeedsVa {
                out_port,
                class,
                packet: flit.packet,
            };
            self.masks.rc &= !(1 << flat);
            self.masks.va |= 1 << flat;
        }
    }

    /// Virtual-channel allocation: one grant per output port per cycle.
    ///
    /// Returns the number of allocations performed (for the power model).
    pub(crate) fn va_stage(&mut self) -> u64 {
        self.debug_check_stage_masks();
        if self.masks.va == 0 {
            return 0;
        }
        // One pass files every requester under its (output port, VC
        // class); the flat slab index *is* the VA arbiter's request
        // index. A requester targets exactly one port, and a grant
        // removes the winner only from that port's word, so the table
        // stays valid across the grant loop.
        let mut requests = [[0u64; 3]; MAX_PORTS];
        let mut ports = 0u64;
        for flat in bits(self.masks.va) {
            let VcState::NeedsVa {
                out_port, class, ..
            } = self.inputs[flat].state
            else {
                unreachable!("VA mask bit on a VC not in NeedsVa");
            };
            requests[out_port.index()][class.index()] |= 1 << flat;
            ports |= 1 << out_port.index();
        }
        let mut allocations = 0;
        for out_p in bits(ports) {
            // The first class (in Any, Lo, Hi order) with both a
            // requester and a free output VC in its admissible range
            // competes; off-torus every requester is `Any` over the full
            // range, so this degenerates to the classic first-free-VC
            // scan.
            let chosen = VcClass::ALL.into_iter().find_map(|class| {
                let word = requests[out_p][class.index()];
                if word == 0 {
                    return None;
                }
                let range = class.vc_range(self.vcs_per_port as u8);
                let free = self.outputs[out_p].vcs[range.clone()]
                    .iter()
                    .position(|o| !o.allocated)?;
                Some((word, range.start + free))
            });
            let Some((word, free_vc)) = chosen else {
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
            self.masks.va &= !(1 << winner);
            self.masks.act |= 1 << winner;
            self.outputs[out_p].vcs[free_vc].allocated = true;
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
    fn new_router_is_empty() {
        let r = Router::new(NodeId(5), &test_config());
        assert_eq!(r.id(), NodeId(5));
        assert_eq!(r.masks, StageMasks::default());
        assert!(!r.masks.any_work());
        assert_eq!(r.occupied_input_vcs(), 0);
        assert_eq!(r.inputs.len(), NUM_PORTS * 4);
        assert_eq!(r.vcs_per_port, 4);
        assert_eq!(r.outputs[0].vcs[0].credits, 4);
        assert_eq!(
            r.outputs[Direction::Local.index()].vcs[0].credits,
            u8::MAX,
            "ejection port is never back-pressured"
        );
    }

    #[test]
    fn rc_waits_for_buffer_write_stage() {
        let config = test_config();
        let mesh = config.mesh;
        let routes = RouteTable::new(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(3, 0)));
        r.enqueue(Direction::Local.index(), 0, f, 10);
        let mut doomed = Vec::new();
        // Same cycle: still in BW.
        r.rc_stage(10, &routes, None, &arena, &mut doomed);
        assert_eq!(r.input(Direction::Local.index(), 0).state, VcState::Idle);
        // Next cycle: RC fires, X-first routing goes east.
        r.rc_stage(11, &routes, None, &arena, &mut doomed);
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
        let routes = RouteTable::new(topo);
        let mut arena = FlitArena::new();
        // Router (3, 0) sending to (1, 0): East across the wrap link.
        let mut r = Router::new(topo.node_at(3, 0), &config);
        let f = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 0, f, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
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
        let routes = RouteTable::new(topo);
        let mut arena = FlitArena::new();
        let mut r = Router::new(topo.node_at(3, 0), &config);
        // A Lo-class requester (wraps the date line) on East.
        let f = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 0, f, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(), 1);
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
        r.enqueue(Direction::Local.index(), 1, g, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(), 1);
        let h = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 2, h, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(), 0, "low half exhausted: Lo requester waits");
        // A Hi-class requester (no wrap) still gets a high-half VC.
        let k = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(2, 0)));
        r.enqueue(Direction::Local.index(), 3, k, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(), 1);
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
        let routes = RouteTable::new(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        // Two input VCs both want East.
        for vc in 0..2 {
            let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(3, 0)));
            r.enqueue(Direction::Local.index(), vc, f, 0);
        }
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        let granted = r.va_stage();
        assert_eq!(granted, 1, "one VA grant per output port per cycle");
        let active = r
            .port_vcs(Direction::Local.index())
            .iter()
            .filter(|vc| matches!(vc.state, VcState::Active { .. }))
            .count();
        assert_eq!(active, 1);
        // Second cycle: the other one gets a (different) VC.
        let granted = r.va_stage();
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
        let routes = RouteTable::new(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        // 5 requesters for East across two input ports, only 4 output VCs.
        for vc in 0..4 {
            let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(3, 0)));
            r.enqueue(Direction::Local.index(), vc, f, 0);
        }
        let f = arena.alloc(head_flit(mesh.node_at(0, 1), mesh.node_at(3, 0)));
        r.enqueue(Direction::West.index(), 0, f, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        let mut total = 0;
        for _ in 0..8 {
            total += r.va_stage();
        }
        assert_eq!(total, 4, "only 4 output VCs exist on East");
    }

    #[test]
    fn masks_follow_a_vc_through_the_stages() {
        let config = test_config();
        let mesh = config.mesh;
        let routes = RouteTable::new(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(1, 0)));
        r.enqueue(0, 1, f, 0);
        let bit = 1 << 1; // port 0, VC 1
        assert_eq!((r.masks.rc, r.masks.occupied()), (bit, bit));
        // A second flit on the same VC does not double-count.
        let g = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(1, 0)));
        r.enqueue(0, 1, g, 1);
        assert_eq!(r.occupied_input_vcs(), 1);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!((r.masks.rc, r.masks.va, r.masks.act), (0, bit, 0));
        assert_eq!(r.va_stage(), 1);
        assert_eq!((r.masks.rc, r.masks.va, r.masks.act), (0, 0, bit));
        // A flit landing on a VC that owns a packet is not an RC candidate.
        let h = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(1, 0)));
        r.enqueue(0, 1, h, 2);
        assert_eq!((r.masks.rc, r.masks.occupied()), (0, bit));
        assert_eq!(r.masks, r.rescan_stage_masks());
        assert!(r.masks.any_work());
    }
}
