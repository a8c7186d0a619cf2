//! Property tests for the hop-level ARQ machinery.
//!
//! Three guarantees the simulator's go-back-N retransmission layer
//! leans on:
//!
//! 1. **NACK round-trip restores the pristine flit.** Whatever happens
//!    to the wire copy (arbitrary bit corruption, detected by SECDED),
//!    every copy handed back by a NACK is bit-identical to the payload
//!    as originally sent — across any number of consecutive NACKs.
//! 2. **Retransmit windows never deliver duplicates.** Under any
//!    interleaving of ACK/NACK traffic, each sequence number is
//!    *released* at most once, stale acknowledgements classify as
//!    [`ArqEvent::Unknown`], and the buffer never exceeds its capacity.
//! 3. **The held window is NACK-order independent.** The set and order
//!    of payloads still held depends only on what was pushed and
//!    acknowledged, not on the order in which NACKs were processed in
//!    between.

use noc_coding::arq::{AckKind, ArqEvent, RetransmitBuffer, SequenceNumber};
use noc_coding::hamming::Secded64;
use proptest::prelude::*;

/// SplitMix64 step for deriving deterministic sub-streams from a raw
/// proptest `u64` without pulling in an RNG dependency.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    /// Push a payload, corrupt its wire image with two bit flips (always
    /// detected, never correctable by SECDED), and NACK repeatedly: each
    /// returned copy equals the payload as sent, and the final ACK
    /// releases exactly that entry.
    #[test]
    fn nack_round_trip_restores_pristine_payload(
        data: u64,
        flip_a in 0u32..Secded64::CODE_BITS,
        flip_b in 0u32..Secded64::CODE_BITS,
        nacks in 1usize..6,
    ) {
        prop_assume!(flip_a != flip_b);
        let mut buf: RetransmitBuffer<u64> = RetransmitBuffer::new(4);
        let seq = buf.push(data).expect("buffer has space");

        // The wire copy takes a detectable double-bit error: the
        // downstream decoder must report it uncorrectable and NACK.
        let wire = Secded64::encode(data)
            .with_bit_flipped(flip_a)
            .with_bit_flipped(flip_b);
        prop_assert!(wire.decode().data().is_none(), "double flip must be uncorrectable");

        for _ in 0..nacks {
            let (event, copy) = buf.acknowledge(seq, AckKind::Nack);
            prop_assert_eq!(event, ArqEvent::Retransmit);
            // The buffered copy is untouched by wire corruption.
            prop_assert_eq!(copy, Some(data));
        }
        let (event, copy) = buf.acknowledge(seq, AckKind::Ack);
        prop_assert_eq!(event, ArqEvent::Released);
        prop_assert_eq!(copy, None);
        prop_assert!(buf.is_empty());
    }

    /// Random ACK/NACK/push traffic: every sequence number is released
    /// at most once, acknowledgements for released or never-issued
    /// sequence numbers classify as `Unknown`, and occupancy never
    /// exceeds capacity.
    #[test]
    fn windows_never_release_duplicates(
        capacity in 1usize..9,
        ops_seed: u64,
        ops_len in 1usize..64,
    ) {
        let mut buf: RetransmitBuffer<u64> = RetransmitBuffer::new(capacity);
        let mut issued: Vec<SequenceNumber> = Vec::new();
        let mut released: Vec<SequenceNumber> = Vec::new();
        let mut s = ops_seed;
        for _ in 0..ops_len {
            s = mix(s);
            match s % 3 {
                0 => {
                    if let Some(seq) = buf.push(s) {
                        prop_assert!(!issued.contains(&seq), "sequence numbers never repeat");
                        issued.push(seq);
                    } else {
                        prop_assert!(buf.is_full(), "push only fails when full");
                    }
                }
                1 | 2 => {
                    // Aim at a random issued (possibly released) seq, or
                    // a never-issued one.
                    let target = if issued.is_empty() || s % 7 == 0 {
                        SequenceNumber::new(u64::MAX - s % 1000)
                    } else {
                        issued[(s / 3) as usize % issued.len()]
                    };
                    let kind = if s % 3 == 1 { AckKind::Ack } else { AckKind::Nack };
                    let (event, copy) = buf.acknowledge(target, kind);
                    match event {
                        ArqEvent::Released => {
                            prop_assert_eq!(kind, AckKind::Ack);
                            prop_assert!(
                                !released.contains(&target),
                                "sequence {} released twice", target
                            );
                            released.push(target);
                        }
                        ArqEvent::Retransmit => {
                            prop_assert_eq!(kind, AckKind::Nack);
                            prop_assert!(copy.is_some());
                            prop_assert!(!released.contains(&target));
                        }
                        ArqEvent::Unknown => {
                            prop_assert!(copy.is_none());
                            prop_assert!(
                                released.contains(&target) || !issued.contains(&target),
                                "known in-flight {} classified Unknown", target
                            );
                        }
                    }
                }
                _ => unreachable!(),
            }
            prop_assert!(buf.len() <= capacity);
        }
    }

    /// Two buffers receive identical pushes and identical ACK sets but
    /// process their NACK bursts in different (seed-derived) orders: both
    /// must hold the same sequence numbers and payloads in the same
    /// (send) order.
    #[test]
    fn held_window_is_nack_order_independent(
        n in 1usize..10,
        acked_mask in 0u16..1024,
        shuffle_seed: u64,
    ) {
        let mut a: RetransmitBuffer<u64> = RetransmitBuffer::new(16);
        let mut b: RetransmitBuffer<u64> = RetransmitBuffer::new(16);
        let mut seqs = Vec::new();
        for i in 0..n {
            let payload = mix(i as u64);
            let sa = a.push(payload).expect("capacity 16 > n");
            let sb = b.push(payload).expect("capacity 16 > n");
            prop_assert_eq!(sa, sb, "sequence issue order is deterministic");
            seqs.push(sa);
        }

        // Identical ACK set...
        for (i, &seq) in seqs.iter().enumerate() {
            if acked_mask & (1 << i) != 0 {
                a.acknowledge(seq, AckKind::Ack);
                b.acknowledge(seq, AckKind::Ack);
            }
        }
        // ...but NACK bursts fed in different orders: `a` in send order,
        // `b` in a seed-shuffled order.
        let unacked: Vec<SequenceNumber> = seqs
            .iter()
            .enumerate()
            .filter(|(i, _)| acked_mask & (1 << i) == 0)
            .map(|(_, &s)| s)
            .collect();
        for &seq in &unacked {
            a.acknowledge(seq, AckKind::Nack);
        }
        let mut shuffled = unacked.clone();
        let mut s = shuffle_seed;
        for i in (1..shuffled.len()).rev() {
            s = mix(s);
            shuffled.swap(i, (s % (i as u64 + 1)) as usize);
        }
        for &seq in &shuffled {
            b.acknowledge(seq, AckKind::Nack);
        }

        let held_a: Vec<(SequenceNumber, u64)> = a.iter().map(|(s, &p)| (s, p)).collect();
        let held_b: Vec<(SequenceNumber, u64)> = b.iter().map(|(s, &p)| (s, p)).collect();
        prop_assert_eq!(&held_a, &held_b, "window independent of NACK order");
        // Send order over exactly the unacknowledged set.
        let order: Vec<SequenceNumber> = held_a.iter().map(|(s, _)| *s).collect();
        prop_assert_eq!(order, unacked);
    }
}
