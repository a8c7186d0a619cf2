//! Reference router: the deliberately simple per-router pipeline state.
//!
//! This is a by-value re-implementation of the optimized router in
//! `noc_sim::router` with none of its performance machinery: flits are
//! stored by value in `VecDeque` FIFOs (no arena handles), there are no
//! pipeline-stage skip counters, and every stage scans every VC every
//! cycle. Obviously correct beats fast here — the differential oracle
//! diffs this model against the optimized kernel.

use crate::refroutes::RefFaultRoutes;
use noc_coding::arq::{RetransmitBuffer, SequenceNumber};
use noc_sim::arbiter::RoundRobinArbiter;
use noc_sim::config::NocConfig;
use noc_sim::flit::{Flit, PacketId};
use noc_sim::routing::min_route;
use noc_sim::topology::{Direction, NodeId, Topo, VcClass};
use std::collections::VecDeque;

/// A flit resident in an input VC buffer, stamped with its arrival cycle
/// so the pipeline can enforce the buffer-write stage.
#[derive(Debug, Clone)]
pub(crate) struct BufferedFlit {
    pub flit: Flit,
    pub arrived_at: u64,
}

/// Input VC pipeline state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VcState {
    /// No packet assigned.
    Idle,
    /// Route computed; awaiting an output VC.
    NeedsVa {
        out_port: Direction,
        /// Date-line VC class the hop must allocate from ([`VcClass::Any`]
        /// off-torus and in fault-adaptive mode).
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

/// A NACKed flit waiting for priority resend on its output port.
#[derive(Debug, Clone)]
pub(crate) struct PendingRetransmit {
    pub flit: Flit,
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

/// A reference router: one input port of `V` VCs and one output port per
/// topology direction, plus the arbiters for VA and SA.
#[derive(Debug, Clone)]
pub struct RefRouter {
    pub(crate) id: NodeId,
    /// `inputs[port][vc]`.
    pub(crate) inputs: Vec<Vec<InputVc>>,
    /// `outputs[port]`.
    pub(crate) outputs: Vec<OutputPort>,
    /// Per output port, over `NUM_PORTS * V` flattened input VCs.
    pub(crate) va_arbiters: Vec<RoundRobinArbiter>,
    /// Per input port, over its `V` VCs.
    pub(crate) sa_input_arbiters: Vec<RoundRobinArbiter>,
    /// Per output port, over the input ports.
    pub(crate) sa_output_arbiters: Vec<RoundRobinArbiter>,
    /// VCs per port (for the date-line class ranges).
    vcs_per_port: u8,
}

impl RefRouter {
    /// Builds an empty router for node `id` under `config`.
    pub(crate) fn new(id: NodeId, config: &NocConfig) -> Self {
        let v = config.vcs_per_port as usize;
        let num_ports = config.mesh.num_ports();
        let inputs = (0..num_ports)
            .map(|_| (0..v).map(|_| InputVc::new()).collect())
            .collect();
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
            outputs,
            va_arbiters: (0..num_ports)
                .map(|_| RoundRobinArbiter::new(num_ports * v))
                .collect(),
            sa_input_arbiters: (0..num_ports).map(|_| RoundRobinArbiter::new(v)).collect(),
            sa_output_arbiters: (0..num_ports)
                .map(|_| RoundRobinArbiter::new(num_ports))
                .collect(),
            vcs_per_port: config.vcs_per_port,
        }
    }

    /// Number of currently occupied input VCs (the RL buffer-utilization
    /// feature).
    pub fn occupied_input_vcs(&self) -> usize {
        self.inputs
            .iter()
            .flat_map(|port| port.iter())
            .filter(|vc| vc.occupied())
            .count()
    }

    /// Route computation: idle input VCs whose head flit has completed its
    /// buffer-write stage compute their output port — via minimal
    /// dimension-ordered routing (with its date-line VC class on tori),
    /// or, once hard faults are active, via the fault-adaptive up*/down*
    /// table (class `Any`: the fault tree is deadlock-free by
    /// construction).
    ///
    /// A head flit whose destination is unreachable on the live topology
    /// keeps its VC idle and reports its packet id into `doomed`; the
    /// network purges every flit of that packet right after the RC phase.
    pub(crate) fn rc_stage(
        &mut self,
        cycle: u64,
        mesh: Topo,
        fault: Option<&RefFaultRoutes>,
        doomed: &mut Vec<(PacketId, bool)>,
    ) {
        for port in &mut self.inputs {
            for vc in port.iter_mut() {
                if vc.state != VcState::Idle {
                    continue;
                }
                let Some(front) = vc.fifo.front() else {
                    continue;
                };
                if front.arrived_at >= cycle {
                    continue; // still in the BW stage
                }
                debug_assert!(
                    front.flit.kind.is_head(),
                    "non-head flit {:?} at front of idle VC",
                    front.flit.kind
                );
                let (out_port, class) = match fault {
                    None => min_route(mesh, self.id, front.flit.dst),
                    Some(f) => match f.next_hop(self.id, front.flit.dst) {
                        Some(dir) => (dir, VcClass::Any),
                        None => {
                            doomed.push((front.flit.packet, !front.flit.class.is_control()));
                            continue;
                        }
                    },
                };
                vc.state = VcState::NeedsVa {
                    out_port,
                    class,
                    packet: front.flit.packet,
                };
            }
        }
    }

    /// Virtual-channel allocation: one grant per output port per cycle.
    ///
    /// Returns the number of allocations performed (for the power model).
    pub(crate) fn va_stage(&mut self) -> u64 {
        let v = self.inputs[0].len();
        let num_ports = self.inputs.len();
        let mut allocations = 0;
        for out_p in 0..num_ports {
            // One grant per output port per cycle: the first class (in
            // Any, Lo, Hi order) with both a requester and a free output
            // VC in its admissible range competes; off-torus every
            // requester is `Any` over the full range, so this degenerates
            // to the classic first-free-VC scan.
            let mut chosen = None;
            for class in VcClass::ALL {
                let wanted = self.inputs.iter().flatten().any(|vc| {
                    matches!(vc.state, VcState::NeedsVa { out_port, class: c, .. }
                        if out_port.index() == out_p && c == class)
                });
                if !wanted {
                    continue;
                }
                let range = class.vc_range(self.vcs_per_port);
                if let Some(free) = self.outputs[out_p].vcs[range.clone()]
                    .iter()
                    .position(|o| !o.allocated)
                {
                    chosen = Some((class, range.start + free));
                    break;
                }
            }
            let Some((granted_class, free_vc)) = chosen else {
                continue;
            };
            // Gather requesting input VCs of the granted class
            // (flattened index).
            let mut requests = vec![false; num_ports * v];
            for (in_p, port) in self.inputs.iter().enumerate() {
                for (in_v, vc) in port.iter().enumerate() {
                    if matches!(vc.state, VcState::NeedsVa { out_port, class, .. }
                        if out_port.index() == out_p && class == granted_class)
                    {
                        requests[in_p * v + in_v] = true;
                    }
                }
            }
            let winner = self.va_arbiters[out_p]
                .grant(&requests)
                .expect("a request was asserted");
            let (in_p, in_v) = (winner / v, winner % v);
            let VcState::NeedsVa { packet, .. } = self.inputs[in_p][in_v].state else {
                unreachable!("VA winner must be in NeedsVa");
            };
            self.inputs[in_p][in_v].state = VcState::Active {
                out_port: Direction::from_index(out_p),
                out_vc: free_vc as u8,
                packet,
            };
            self.outputs[out_p].vcs[free_vc].allocated = true;
            allocations += 1;
        }
        allocations
    }
}
