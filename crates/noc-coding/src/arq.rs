//! Automatic-retransmission-query (ARQ) machinery.
//!
//! In the ARQ+ECC scheme every transmitted flit is held in an upstream
//! *retransmission buffer* until the downstream router acknowledges it.
//! A positive acknowledgement ([`AckKind::Ack`]) frees the slot; a negative
//! one ([`AckKind::Nack`], raised when the SECDED decoder detects an
//! uncorrectable error) makes the buffered copy available for resend.
//!
//! [`RetransmitBuffer`] is generic over the payload so the simulator can
//! store whole flits, and bounded in capacity because the hardware it
//! models is a small per-VC output buffer. It also supports a *timeout*
//! sweep for lost acknowledgements.

use std::collections::VecDeque;
use std::fmt;

/// A wrapping per-link flit sequence number.
///
/// # Example
///
/// ```
/// use noc_coding::arq::SequenceNumber;
/// let s = SequenceNumber::ZERO;
/// assert_eq!(s.next().value(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SequenceNumber(u64);

impl SequenceNumber {
    /// The first sequence number.
    pub const ZERO: Self = Self(0);

    /// Creates a sequence number from a raw value.
    pub fn new(value: u64) -> Self {
        Self(value)
    }

    /// The raw counter value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The successor (wrapping) sequence number.
    #[must_use]
    pub fn next(self) -> Self {
        Self(self.0.wrapping_add(1))
    }
}

impl fmt::Display for SequenceNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq#{}", self.0)
    }
}

/// The polarity of an acknowledgement flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AckKind {
    /// The flit was received intact (possibly after a SECDED correction);
    /// the upstream copy may be released.
    Ack,
    /// The flit arrived with an uncorrectable error; the upstream copy must
    /// be retransmitted.
    Nack,
}

impl fmt::Display for AckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Ack => write!(f, "ACK"),
            Self::Nack => write!(f, "NACK"),
        }
    }
}

/// Outcome of feeding an acknowledgement into a [`RetransmitBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArqEvent {
    /// The acknowledged entry was found and released.
    Released,
    /// A NACK matched a buffered entry; the caller received a copy to
    /// retransmit.
    Retransmit,
    /// The sequence number did not match any buffered entry (duplicate or
    /// stale acknowledgement). Hardware ignores these.
    Unknown,
}

/// An entry held in the retransmission buffer.
#[derive(Debug, Clone)]
struct Pending<T> {
    seq: SequenceNumber,
    payload: T,
}

/// Bounded buffer of in-flight payloads awaiting acknowledgement.
///
/// The buffer preserves send order, matching the FIFO output buffer of the
/// modeled router. `T` is usually a flit.
///
/// # Example
///
/// ```
/// use noc_coding::arq::{AckKind, ArqEvent, RetransmitBuffer, SequenceNumber};
///
/// let mut buf: RetransmitBuffer<&str> = RetransmitBuffer::new(4);
/// let seq = buf.push("flit-a").expect("buffer has space");
/// // Downstream NACKs: get the copy back for resend.
/// let (event, copy) = buf.acknowledge(seq, AckKind::Nack);
/// assert_eq!(event, ArqEvent::Retransmit);
/// assert_eq!(copy, Some("flit-a"));
/// // Eventually the retry succeeds.
/// let (event, _) = buf.acknowledge(seq, AckKind::Ack);
/// assert_eq!(event, ArqEvent::Released);
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RetransmitBuffer<T> {
    capacity: usize,
    next_seq: SequenceNumber,
    pending: VecDeque<Pending<T>>,
}

impl<T: Clone> RetransmitBuffer<T> {
    /// Creates a buffer holding at most `capacity` unacknowledged payloads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "retransmit buffer capacity must be positive");
        Self {
            capacity,
            next_seq: SequenceNumber::ZERO,
            pending: VecDeque::with_capacity(capacity),
        }
    }

    /// Number of unacknowledged payloads currently held.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` when nothing is awaiting acknowledgement.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Returns `true` when no further payload can be pushed.
    pub fn is_full(&self) -> bool {
        self.pending.len() >= self.capacity
    }

    /// Maximum number of in-flight payloads.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers a payload as sent and returns its sequence number, or
    /// `None` when the buffer is full (the link must stall).
    pub fn push(&mut self, payload: T) -> Option<SequenceNumber> {
        if self.is_full() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.next();
        self.pending.push_back(Pending { seq, payload });
        Some(seq)
    }

    /// Feeds an acknowledgement for `seq` into the buffer.
    ///
    /// Returns the event classification and, for a NACK that matched, a
    /// clone of the payload to retransmit (the original stays buffered
    /// until a matching ACK arrives).
    #[inline]
    pub fn acknowledge(&mut self, seq: SequenceNumber, kind: AckKind) -> (ArqEvent, Option<T>) {
        let Some(idx) = self.pending.iter().position(|p| p.seq == seq) else {
            return (ArqEvent::Unknown, None);
        };
        match kind {
            AckKind::Ack => {
                self.pending.remove(idx);
                (ArqEvent::Released, None)
            }
            AckKind::Nack => {
                let copy = self.pending[idx].payload.clone();
                (ArqEvent::Retransmit, Some(copy))
            }
        }
    }

    /// Drops every buffered payload (e.g. on link reconfiguration).
    pub fn clear(&mut self) {
        self.pending.clear();
    }

    /// Iterates over `(sequence, payload)` pairs in send order.
    pub fn iter(&self) -> impl Iterator<Item = (SequenceNumber, &T)> {
        self.pending.iter().map(|p| (p.seq, &p.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_increase_monotonically() {
        let mut buf: RetransmitBuffer<u32> = RetransmitBuffer::new(8);
        let a = buf.push(1).unwrap();
        let b = buf.push(2).unwrap();
        let c = buf.push(3).unwrap();
        assert!(a < b && b < c);
        assert_eq!(b, a.next());
    }

    #[test]
    fn push_fails_when_full() {
        let mut buf: RetransmitBuffer<u32> = RetransmitBuffer::new(2);
        assert!(buf.push(1).is_some());
        assert!(buf.push(2).is_some());
        assert!(buf.is_full());
        assert!(buf.push(3).is_none());
    }

    #[test]
    fn ack_releases_slot() {
        let mut buf: RetransmitBuffer<u32> = RetransmitBuffer::new(1);
        let seq = buf.push(7).unwrap();
        assert!(buf.is_full());
        let (event, copy) = buf.acknowledge(seq, AckKind::Ack);
        assert_eq!(event, ArqEvent::Released);
        assert_eq!(copy, None);
        assert!(buf.is_empty());
        assert!(buf.push(8).is_some());
    }

    #[test]
    fn nack_returns_copy_and_keeps_entry() {
        let mut buf: RetransmitBuffer<u32> = RetransmitBuffer::new(2);
        let seq = buf.push(99).unwrap();
        let (event, copy) = buf.acknowledge(seq, AckKind::Nack);
        assert_eq!(event, ArqEvent::Retransmit);
        assert_eq!(copy, Some(99));
        assert_eq!(buf.len(), 1, "entry must stay until ACK");
        // Repeated NACKs keep returning copies.
        let (event, copy) = buf.acknowledge(seq, AckKind::Nack);
        assert_eq!(event, ArqEvent::Retransmit);
        assert_eq!(copy, Some(99));
        let (event, _) = buf.acknowledge(seq, AckKind::Ack);
        assert_eq!(event, ArqEvent::Released);
        assert!(buf.is_empty());
    }

    #[test]
    fn unknown_sequence_is_ignored() {
        let mut buf: RetransmitBuffer<u32> = RetransmitBuffer::new(2);
        let seq = buf.push(1).unwrap();
        let (event, copy) = buf.acknowledge(seq.next(), AckKind::Ack);
        assert_eq!(event, ArqEvent::Unknown);
        assert_eq!(copy, None);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn duplicate_ack_is_unknown() {
        let mut buf: RetransmitBuffer<u32> = RetransmitBuffer::new(2);
        let seq = buf.push(1).unwrap();
        assert_eq!(buf.acknowledge(seq, AckKind::Ack).0, ArqEvent::Released);
        assert_eq!(buf.acknowledge(seq, AckKind::Ack).0, ArqEvent::Unknown);
    }

    #[test]
    fn clear_empties_buffer() {
        let mut buf: RetransmitBuffer<u32> = RetransmitBuffer::new(4);
        buf.push(1);
        buf.push(2);
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn iter_is_in_send_order() {
        let mut buf: RetransmitBuffer<&str> = RetransmitBuffer::new(4);
        buf.push("a");
        buf.push("b");
        buf.push("c");
        let items: Vec<&&str> = buf.iter().map(|(_, p)| p).collect();
        assert_eq!(items, vec![&"a", &"b", &"c"]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = RetransmitBuffer::<u32>::new(0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(AckKind::Ack.to_string(), "ACK");
        assert_eq!(AckKind::Nack.to_string(), "NACK");
        assert_eq!(SequenceNumber::new(3).to_string(), "seq#3");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pushing then ACKing everything always empties the buffer.
        #[test]
        fn ack_all_empties(values in proptest::collection::vec(any::<u32>(), 1..32)) {
            let mut buf = RetransmitBuffer::new(values.len());
            let seqs: Vec<_> = values
                .iter()
                .map(|&v| buf.push(v).expect("capacity sized to input"))
                .collect();
            for seq in seqs {
                prop_assert_eq!(buf.acknowledge(seq, AckKind::Ack).0, ArqEvent::Released);
            }
            prop_assert!(buf.is_empty());
        }

        /// A NACK never loses data: the returned copy equals what was pushed.
        #[test]
        fn nack_returns_original(values in proptest::collection::vec(any::<u32>(), 1..16),
                                 pick in any::<proptest::sample::Index>()) {
            let mut buf = RetransmitBuffer::new(values.len());
            let seqs: Vec<_> = values
                .iter()
                .map(|&v| buf.push(v).unwrap())
                .collect();
            let i = pick.index(values.len());
            let (_, copy) = buf.acknowledge(seqs[i], AckKind::Nack);
            prop_assert_eq!(copy, Some(values[i]));
        }

        /// len() never exceeds capacity regardless of operation order.
        #[test]
        fn len_bounded_by_capacity(ops in proptest::collection::vec(any::<u8>(), 0..128)) {
            let mut buf: RetransmitBuffer<u8> = RetransmitBuffer::new(4);
            let mut live: Vec<SequenceNumber> = Vec::new();
            for op in ops {
                if op % 2 == 0 {
                    if let Some(seq) = buf.push(op) {
                        live.push(seq);
                    }
                } else if let Some(seq) = live.pop() {
                    buf.acknowledge(seq, AckKind::Ack);
                }
                prop_assert!(buf.len() <= buf.capacity());
            }
        }
    }
}
