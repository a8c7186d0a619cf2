//! One link's hop-level go-back-N protocol, the per-hop half of ARQ+ECC:
//! the sender's window of pristine copies and its resend queue, and the
//! gate of every downstream input VC. When the ECC decoder rejects a
//! flit, younger flits of its VC may be in flight behind it; the gate
//! NACKs them until the rejected flit's retransmission arrives, and the
//! network holds the sender's port until the NACK lands.
//!
//! The sending router owns the link: each non-`Local` input port has one
//! upstream link, and a hard fault kills a link's two directions at once.
//! Transitions return small `Copy` values and allocate nothing; the
//! network applies them, and the error-control layer decides outcomes.

use crate::error_control::TransferKind;
use crate::flit::{Flit, FlitRef};
use noc_coding::arq::{AckKind, RetransmitBuffer, SequenceNumber};
use std::collections::VecDeque;

/// A NACKed flit queued for priority resend, in an arena slot of its own
/// (fault draws mutate a wire-side slot, so none aliases a window copy).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resend {
    pub flit: FlitRef,
    pub out_vc: u8,
    pub seq: SequenceNumber,
}

/// A gate's verdict on an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Open, or the awaited retransmission: take the hop transfer.
    Transfer,
    /// Closed on an older flit: NACK this one so it cannot overtake.
    Nack,
    /// Closed, and the flit was sent without ARQ across a mode switch:
    /// with no copy to resend, it waits on the wire.
    Stall,
}

/// The hop protocol state of one link.
#[derive(Debug, Clone)]
pub(crate) struct ArqLink {
    /// Unacknowledged flits' pristine copies, with their output VC.
    window: RetransmitBuffer<(Flit, u8)>,
    resends: VecDeque<Resend>,
    /// `gates[vc]`: the rejected flit whose retransmission VC `vc` awaits.
    gates: Box<[Option<SequenceNumber>]>,
    /// Bit `vc` is set iff `gates[vc]` is closed, so an arrival at an
    /// open gate reads no array. `NocConfig` caps a router at 64 input
    /// VCs, which bounds a link's VCs too.
    closed_mask: u64,
}

impl ArqLink {
    /// An idle link: a window of `depth` copies, `vcs` open gates.
    pub(crate) fn new(depth: usize, vcs: usize) -> Self {
        Self {
            window: RetransmitBuffer::new(depth),
            resends: VecDeque::new(),
            gates: vec![None; vcs].into_boxed_slice(),
            closed_mask: 0,
        }
    }

    /// Whether the window is full: an ARQ link then takes no new flit.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.window.is_full()
    }

    /// Whether a NACKed flit waits for priority resend.
    #[inline]
    pub(crate) fn has_resend(&self) -> bool {
        !self.resends.is_empty()
    }

    /// Keeps the copy of a flit sent on VC `copy.1`; returns its number.
    #[inline]
    pub(crate) fn send(&mut self, copy: (Flit, u8)) -> SequenceNumber {
        self.window
            .push(copy)
            .expect("window fullness checked at SA")
    }

    /// The verdict of input VC `vc`'s gate on an arrival.
    #[inline]
    pub(crate) fn admit(&self, vc: u8, seq: Option<SequenceNumber>, kind: TransferKind) -> Admit {
        if self.closed_mask & (1 << vc) == 0 {
            return Admit::Transfer;
        }
        match (self.gates[vc as usize], seq) {
            (None, _) => Admit::Transfer,
            (gate, _) if kind == TransferKind::HopRetransmit && seq == gate => Admit::Transfer,
            (Some(_), Some(_)) => Admit::Nack,
            (Some(_), None) => Admit::Stall,
        }
    }

    /// A transfer into `vc` was accepted or evaporated: the awaited
    /// retransmission opens the gate.
    #[inline]
    pub(crate) fn opened(&mut self, vc: u8, kind: TransferKind, seq: Option<SequenceNumber>) {
        if kind == TransferKind::HopRetransmit
            && self.closed_mask & (1 << vc) != 0
            && self.gates[vc as usize] == seq
        {
            self.gates[vc as usize] = None;
            self.closed_mask &= !(1 << vc);
        }
    }

    /// Transfer `seq` into `vc` was rejected.
    pub(crate) fn closed(&mut self, vc: u8, seq: SequenceNumber) {
        self.gates[vc as usize] = Some(seq);
        self.closed_mask |= 1 << vc;
    }

    /// Releases the copy of `seq`.
    #[inline]
    pub(crate) fn ack(&mut self, seq: SequenceNumber) {
        self.window.acknowledge(seq, AckKind::Ack);
    }

    /// The copy to resend for `seq`, which stays in the window.
    pub(crate) fn nack(&mut self, seq: SequenceNumber) -> Option<(Flit, u8)> {
        self.window.acknowledge(seq, AckKind::Nack).1
    }

    /// Queues a NACKed flit for resend.
    pub(crate) fn queue_resend(&mut self, resend: Resend) {
        self.resends.push_back(resend);
    }

    /// The resend that goes next.
    pub(crate) fn front_resend(&self) -> Option<Resend> {
        self.resends.front().copied()
    }

    /// Takes the resend that goes next.
    pub(crate) fn pop_resend(&mut self) -> Option<Resend> {
        self.resends.pop_front()
    }

    /// The link died: empties the window, every gate and the resend
    /// queue, yielding its flits.
    pub(crate) fn sever(&mut self) -> impl Iterator<Item = FlitRef> + '_ {
        self.window.clear();
        self.gates.fill(None);
        self.closed_mask = 0;
        self.resends.drain(..).map(|r| r.flit)
    }

    /// Resends queued.
    #[cfg_attr(not(feature = "verify"), allow(dead_code))]
    pub(crate) fn queued(&self) -> usize {
        self.resends.len()
    }

    /// A gate, as `(vc, seq)`, whose copy the window no longer holds:
    /// that VC would never open again.
    #[cfg_attr(not(any(test, feature = "verify")), allow(dead_code))]
    pub(crate) fn orphaned_gate(&self) -> Option<(usize, SequenceNumber)> {
        self.gates.iter().enumerate().find_map(|(vc, gate)| {
            let seq = (*gate)?;
            (!self.window.iter().any(|(s, _)| s == seq)).then_some((vc, seq))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitArena, Packet, PacketClass, PacketId};
    use crate::topology::NodeId;
    use noc_coding::crc::Crc32;
    use TransferKind::{HopRetransmit, Original};

    /// Flit `index` of a four-flit packet.
    fn flit(index: u8) -> Flit {
        let packet = Packet {
            id: PacketId(7),
            src: NodeId(0),
            dst: NodeId(1),
            num_flits: 4,
            class: PacketClass::Data,
            injected_at: 0,
            payload_seed: 3,
        };
        packet.make_flit(index, 0, &Crc32::new())
    }

    fn idle(link: &ArqLink) -> bool {
        link.window.is_empty()
            && !link.has_resend()
            && link.gates.iter().all(Option::is_none)
            && link.closed_mask == 0
    }

    #[test]
    fn go_back_n_over_one_link() {
        let mut arena = FlitArena::new();
        let mut link = ArqLink::new(3, 2);
        let [s0, s1, s2] = [0, 1, 2].map(|i| link.send((flit(i), 1)));
        assert!(link.is_full());
        // s0 decodes; s1 is rejected and closes VC 1's gate.
        assert_eq!(link.admit(1, Some(s0), Original), Admit::Transfer);
        link.opened(1, Original, Some(s0));
        link.ack(s0);
        assert!(!link.is_full());
        assert_eq!(link.admit(1, Some(s1), Original), Admit::Transfer);
        link.closed(1, s1);
        // s2 must not overtake s1; the other VC is not gated.
        assert_eq!(link.admit(1, Some(s2), Original), Admit::Nack);
        assert_eq!(link.admit(0, Some(s2), Original), Admit::Transfer);
        // Both NACKs return the pristine copies and queue their resends
        // in NACK order.
        for (seq, index) in [(s1, 1), (s2, 2)] {
            assert_eq!(link.nack(seq), Some((flit(index), 1)));
            let resend = Resend {
                flit: arena.alloc(flit(index)),
                out_vc: 1,
                seq,
            };
            link.queue_resend(resend);
        }
        assert_eq!(link.window.len(), 2, "NACKs keep their copies");
        assert_eq!(link.pop_resend().map(|r| r.seq), Some(s1));
        assert_eq!(link.front_resend().map(|r| r.seq), Some(s2));
        assert_eq!(link.pop_resend().map(|r| r.seq), Some(s2));
        assert!(!link.has_resend());
        // Only s1's retransmission passes the gate, and it opens it.
        assert_eq!(link.admit(1, Some(s2), HopRetransmit), Admit::Nack);
        assert_eq!(link.admit(1, Some(s1), HopRetransmit), Admit::Transfer);
        link.opened(1, HopRetransmit, Some(s1));
        assert_eq!(link.admit(1, Some(s2), HopRetransmit), Admit::Transfer);
        link.opened(1, HopRetransmit, Some(s2));
        link.ack(s1);
        link.ack(s2);
        assert!(idle(&link));
        assert_eq!(link.send((flit(3), 0)), s2.next(), "numbering goes on");
    }

    #[test]
    fn a_sequence_less_arrival_stalls_at_a_closed_gate() {
        let mut link = ArqLink::new(2, 2);
        let s0 = link.send((flit(0), 0));
        link.closed(0, s0);
        assert_eq!(link.admit(0, None, Original), Admit::Stall);
        assert_eq!(link.admit(1, None, Original), Admit::Transfer);
        // A retransmission of another flit does not open the gate.
        link.opened(0, HopRetransmit, None);
        link.opened(0, Original, Some(s0));
        assert_eq!(link.admit(0, None, Original), Admit::Stall);
        link.opened(0, HopRetransmit, Some(s0));
        assert_eq!(link.admit(0, None, Original), Admit::Transfer);
    }

    #[test]
    fn sever_yields_every_queued_resend_and_empties_the_link() {
        let mut arena = FlitArena::new();
        let mut link = ArqLink::new(4, 3);
        let seqs = [0, 1, 2].map(|i| link.send((flit(i), i)));
        link.closed(0, seqs[0]);
        link.closed(2, seqs[2]);
        let queued: Vec<FlitRef> = seqs[..2]
            .iter()
            .map(|&seq| {
                let flit = arena.alloc(link.nack(seq).expect("copy held").0);
                link.queue_resend(Resend {
                    flit,
                    out_vc: 0,
                    seq,
                });
                flit
            })
            .collect();
        assert_eq!(link.orphaned_gate(), None);
        assert_eq!(link.sever().collect::<Vec<_>>(), queued);
        assert!(idle(&link));
    }
}
