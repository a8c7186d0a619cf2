//! Error-control coding substrates for on-chip networks.
//!
//! This crate provides the three "hardware" building blocks that the
//! fault-tolerant router designs in the parent workspace rely on:
//!
//! * [`crc`] — the CRC-32/IEEE check used for *end-to-end* error
//!   detection at the destination router's local ejection port.
//! * [`hamming`] — Hamming single-error-correct / double-error-detect
//!   (SECDED) codes used for *per-hop* error correction on ECC-protected
//!   links ("ARQ+ECC" in the paper).
//! * [`arq`] — automatic-retransmission-query machinery: ACK/NACK messages,
//!   sequence numbers, and the upstream retransmission buffer that holds a
//!   copy of every in-flight flit until it is acknowledged.
//!
//! [`textfmt`] applies the same CRC-32 to the workspace's persisted text
//! formats: one strict reader and writer for their trailers and fields.
//!
//! All types are deterministic, allocation-light, and independent of the
//! simulator so they can be tested (and property-tested) in isolation.
//!
//! # Example
//!
//! ```
//! use noc_coding::crc::Crc32;
//! use noc_coding::hamming::{Secded64, DecodeOutcome};
//!
//! // End-to-end CRC over a packet payload.
//! let crc = Crc32::new();
//! let payload = [0xDEu8, 0xAD, 0xBE, 0xEF];
//! let check = crc.checksum(&payload);
//! assert!(crc.verify(&payload, check));
//!
//! // Per-hop SECDED over a 64-bit word.
//! let code = Secded64::encode(0x0123_4567_89AB_CDEF);
//! let corrupted = code.with_bit_flipped(17);
//! match corrupted.decode() {
//!     DecodeOutcome::Corrected { data, .. } => assert_eq!(data, 0x0123_4567_89AB_CDEF),
//!     other => panic!("expected single-bit correction, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arq;
pub mod crc;
pub mod hamming;
pub mod textfmt;

pub use arq::{AckKind, ArqEvent, RetransmitBuffer, SequenceNumber};
pub use crc::Crc32;
pub use hamming::{DecodeOutcome, Secded64};
