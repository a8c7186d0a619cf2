//! The error-control extension point.
//!
//! The simulator itself is fault-agnostic: every flit that crosses a link
//! or ejects at a destination is routed through an [`ErrorControl`]
//! implementation, which may corrupt the payload (injecting timing
//! faults), correct it (link SECDED), reject it (raising a hop-level
//! NACK), request end-to-end retransmission (destination CRC check), and
//! shape the link's transmission timing (the proposed scheme's operation
//! modes 2 and 3).
//!
//! The `rlnoc-core` crate implements the paper's four schemes on top of
//! this trait; [`PerfectLink`] is the built-in no-fault implementation
//! used for baseline calibration and simulator testing.

use crate::flit::Flit;
use crate::stats::EventCounters;
use crate::topology::LinkId;

/// Why a flit is crossing a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// First transmission of this flit on this hop.
    Original,
    /// The proactive duplicate sent one cycle after the original
    /// (operation mode 2).
    PreRetransmitCopy,
    /// A retransmission triggered by a hop-level NACK.
    HopRetransmit,
}

/// The receiving side's verdict on a hop transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopOutcome {
    /// The flit arrived usable (payload possibly mutated in place by
    /// injected faults that escaped detection).
    Delivered,
    /// The flit arrived with a single-bit error that the link SECDED
    /// decoder corrected.
    DeliveredCorrected,
    /// The flit arrived with an uncorrectable error and is rejected; the
    /// sender must retransmit (NACK) or the pre-retransmitted copy is
    /// consulted.
    Reject,
}

/// The destination's verdict on a fully reassembled packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EjectOutcome {
    /// The packet passed the end-to-end check and is consumed by the core.
    Accept,
    /// The end-to-end CRC failed; a retransmit request must be sent back
    /// to the source.
    RequestRetransmit,
}

/// Error-control behaviour plugged into the network.
///
/// Implementations decide, per link and per cycle, how flits are
/// protected, corrupted, delayed, and acknowledged. All methods receive
/// the *downstream* router's [`EventCounters`] so coding work is charged
/// to the right power budget.
pub trait ErrorControl {
    /// Processes one flit transfer across `link` at `cycle`.
    ///
    /// The implementation may mutate `flit.payload` in place (fault
    /// injection, SECDED correction) — and **only** `flit.payload`.
    /// The simulator stores in-flight flit bodies in an arena and, for
    /// an operation-mode-2 duplicate, rewinds the slot by restoring the
    /// saved payload words before re-drawing; mutating any other field
    /// would leak the first draw into the duplicate's transfer.
    /// `kind` distinguishes first
    /// transmissions from proactive copies and NACK-triggered resends so
    /// that every attempt gets an independent error draw. `protected`
    /// records whether the link's ECC/ARQ hardware was enabled *when the
    /// flit was sent* — on a dynamic link the mode may have changed while
    /// the flit was in flight, and only protected transfers may return
    /// [`HopOutcome::Reject`].
    fn hop_transfer(
        &mut self,
        link: LinkId,
        flit: &mut Flit,
        cycle: u64,
        kind: TransferKind,
        protected: bool,
        counters: &mut EventCounters,
    ) -> HopOutcome;

    /// Extra cycles the sender must stall before each transmission on
    /// `link` (operation mode 3 returns 2; everything else 0). Stall
    /// cycles occupy the port: they cost bandwidth as well as latency.
    fn tx_delay(&self, link: LinkId) -> u32 {
        let _ = link;
        0
    }

    /// Extra pipeline latency on `link` that does *not* occupy the port —
    /// the SECDED encode/decode stage of an ECC-enabled link (1 cycle).
    /// Pure latency: bandwidth is unaffected.
    fn pipeline_latency(&self, link: LinkId) -> u32 {
        let _ = link;
        0
    }

    /// Whether the sender proactively transmits a duplicate one cycle
    /// after each flit on `link` (operation mode 2).
    fn pre_retransmit(&self, link: LinkId) -> bool {
        let _ = link;
        false
    }

    /// Whether hop-level ARQ (retransmit buffering + ACK/NACK) is active
    /// on `link` — true exactly when the link's ECC hardware is enabled.
    fn hop_arq(&self, link: LinkId) -> bool {
        let _ = link;
        false
    }

    /// End-to-end check over the reassembled packet's flits at ejection.
    ///
    /// The default accepts everything (no destination CRC).
    fn eject_check(
        &mut self,
        flits: &[Flit],
        cycle: u64,
        counters: &mut EventCounters,
    ) -> EjectOutcome {
        let _ = (flits, cycle, counters);
        EjectOutcome::Accept
    }
}

/// The trivial [`ErrorControl`]: a fault-free network with no protection
/// hardware. Used for simulator self-tests and zero-load calibration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfectLink;

impl PerfectLink {
    /// Creates the no-op error control.
    pub fn new() -> Self {
        Self
    }
}

impl ErrorControl for PerfectLink {
    #[inline]
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
}

/// Blanket implementation so `Box<dyn ErrorControl>` composes.
impl<E: ErrorControl + ?Sized> ErrorControl for Box<E> {
    fn hop_transfer(
        &mut self,
        link: LinkId,
        flit: &mut Flit,
        cycle: u64,
        kind: TransferKind,
        protected: bool,
        counters: &mut EventCounters,
    ) -> HopOutcome {
        (**self).hop_transfer(link, flit, cycle, kind, protected, counters)
    }

    fn tx_delay(&self, link: LinkId) -> u32 {
        (**self).tx_delay(link)
    }

    fn pipeline_latency(&self, link: LinkId) -> u32 {
        (**self).pipeline_latency(link)
    }

    fn pre_retransmit(&self, link: LinkId) -> bool {
        (**self).pre_retransmit(link)
    }

    fn hop_arq(&self, link: LinkId) -> bool {
        (**self).hop_arq(link)
    }

    fn eject_check(
        &mut self,
        flits: &[Flit],
        cycle: u64,
        counters: &mut EventCounters,
    ) -> EjectOutcome {
        (**self).eject_check(flits, cycle, counters)
    }
}

/// A deterministic, scriptable [`ErrorControl`] for exercising the
/// ARQ/NACK machinery in tests.
///
/// Every inter-router link runs hop ARQ. Protected transfer number `n`
/// (counting from 1, globally) is rejected iff `reject_every` divides
/// `n`. Payloads are never corrupted.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct ScriptedErrorControl {
    reject_every: u64,
    transfers: u64,
    tx_delay: u32,
    pre_retransmit: bool,
}

#[cfg(test)]
impl ScriptedErrorControl {
    /// Rejects every `n`-th protected transfer (`n == 0` never rejects).
    pub(crate) fn reject_every(n: u64) -> Self {
        Self {
            reject_every: n,
            transfers: 0,
            tx_delay: 0,
            pre_retransmit: false,
        }
    }

    /// ARQ links that never reject.
    pub(crate) fn reliable() -> Self {
        Self::reject_every(0)
    }

    /// Adds a per-transmission stall (operation-mode-3-style).
    pub(crate) fn with_tx_delay(mut self, cycles: u32) -> Self {
        self.tx_delay = cycles;
        self
    }

    /// Enables proactive duplicates (operation-mode-2-style).
    pub(crate) fn with_pre_retransmit(mut self, enabled: bool) -> Self {
        self.pre_retransmit = enabled;
        self
    }
}

#[cfg(test)]
impl ErrorControl for ScriptedErrorControl {
    fn hop_transfer(
        &mut self,
        _link: LinkId,
        _flit: &mut Flit,
        _cycle: u64,
        _kind: TransferKind,
        protected: bool,
        _counters: &mut EventCounters,
    ) -> HopOutcome {
        if !protected {
            return HopOutcome::Delivered;
        }
        self.transfers += 1;
        if self.reject_every > 0 && self.transfers.is_multiple_of(self.reject_every) {
            HopOutcome::Reject
        } else {
            HopOutcome::Delivered
        }
    }

    fn tx_delay(&self, _link: LinkId) -> u32 {
        self.tx_delay
    }

    fn pre_retransmit(&self, _link: LinkId) -> bool {
        self.pre_retransmit
    }

    fn hop_arq(&self, _link: LinkId) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Packet, PacketClass, PacketId};
    use crate::topology::{Direction, NodeId};
    use noc_coding::crc::Crc32;

    fn flit() -> Flit {
        Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(1),
            num_flits: 1,
            class: PacketClass::Data,
            injected_at: 0,
            payload_seed: 1,
        }
        .make_flit(0, 0, &Crc32::new())
    }

    #[test]
    fn perfect_link_delivers_everything() {
        let mut pl = PerfectLink::new();
        let mut counters = EventCounters::default();
        let link = LinkId {
            src: NodeId(0),
            dir: Direction::East,
        };
        let mut f = flit();
        let before = f;
        for kind in [
            TransferKind::Original,
            TransferKind::PreRetransmitCopy,
            TransferKind::HopRetransmit,
        ] {
            assert_eq!(
                pl.hop_transfer(link, &mut f, 0, kind, true, &mut counters),
                HopOutcome::Delivered
            );
        }
        assert_eq!(f, before, "perfect link must not corrupt payload");
        assert_eq!(pl.tx_delay(link), 0);
        assert!(!pl.pre_retransmit(link));
        assert!(!pl.hop_arq(link));
    }

    #[test]
    fn default_eject_check_accepts() {
        let mut pl = PerfectLink::new();
        let mut counters = EventCounters::default();
        let flits = vec![flit()];
        assert_eq!(
            pl.eject_check(&flits, 0, &mut counters),
            EjectOutcome::Accept
        );
    }

    #[test]
    fn boxed_error_control_delegates() {
        let mut boxed: Box<dyn ErrorControl> = Box::new(PerfectLink::new());
        let mut counters = EventCounters::default();
        let link = LinkId {
            src: NodeId(0),
            dir: Direction::East,
        };
        let mut f = flit();
        assert_eq!(
            boxed.hop_transfer(
                link,
                &mut f,
                0,
                TransferKind::Original,
                false,
                &mut counters
            ),
            HopOutcome::Delivered
        );
        assert_eq!(boxed.tx_delay(link), 0);
    }

    #[test]
    fn scripted_rejects_are_recovered_by_hop_arq() {
        use crate::config::NocConfig;
        use crate::network::Network;
        // Reject every 5th transfer: heavy but fully recoverable.
        let config = NocConfig::builder().mesh(4, 4).build();
        let mut net = Network::new(config, ScriptedErrorControl::reject_every(5), 1);
        let mesh = net.mesh();
        net.offer(mesh.node_at(0, 0), mesh.node_at(3, 3));
        assert!(net.run_until_quiescent(2_000));
        assert_eq!(net.stats().packets_delivered, 1);
        assert!(net.stats().hop_nacks > 0);
    }
}
