//! New-vs-reference equivalence for the word-sliced data-plane kernels.
//!
//! The byte-sliced SECDED tables and the slicing-by-8 CRC must be
//! *indistinguishable* from the retained bitwise reference
//! implementations — the golden campaign fixtures depend on it. The
//! cheap sweeps run in every `cargo test`; the exhaustive sweeps
//! (every single-bit flip and all C(n,2) double flips across all
//! byte-lane patterns) are `#[ignore]`d for debug builds and executed
//! in release mode by the `kernel-equivalence` CI job via
//! `cargo test --release ... -- --include-ignored`.

use noc_coding::crc::Crc32;
use noc_coding::hamming::{DecodeOutcome, Secded32, Secded64};
use proptest::prelude::*;

/// Deterministic 64-bit mixer (SplitMix64 finalizer) for data sweeps.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every single-byte pattern in every lane of a 64-bit word, plus the
/// all-zero and all-one words: the inputs that exercise each table
/// entry of the byte-sliced encoder in isolation.
fn lane_patterns_64() -> Vec<u64> {
    let mut v = vec![0, u64::MAX];
    for lane in 0..8 {
        for byte in 0..=255u64 {
            v.push(byte << (8 * lane));
        }
    }
    v
}

fn lane_patterns_32() -> Vec<u32> {
    let mut v = vec![0, u32::MAX];
    for lane in 0..4 {
        for byte in 0..=255u32 {
            v.push(byte << (8 * lane));
        }
    }
    v
}

#[test]
fn secded64_clean_encode_matches_reference_for_all_byte_patterns() {
    for data in lane_patterns_64() {
        let fast = Secded64::encode(data);
        assert_eq!(fast, Secded64::encode_reference(data), "data {data:#x}");
        assert_eq!(fast.decode(), DecodeOutcome::Clean { data });
        assert_eq!(fast.decode(), fast.decode_reference());
    }
}

#[test]
fn secded32_clean_encode_matches_reference_for_all_byte_patterns() {
    for data in lane_patterns_32() {
        let fast = Secded32::encode(data);
        assert_eq!(fast, Secded32::encode_reference(data), "data {data:#x}");
        assert_eq!(
            fast.decode(),
            DecodeOutcome::Clean {
                data: u64::from(data)
            }
        );
        assert_eq!(fast.decode(), fast.decode_reference());
    }
}

#[test]
fn secded64_flips_match_reference_on_mixed_words() {
    for i in 0..32u64 {
        let data = mix(i);
        let cw = Secded64::encode(data);
        for a in 0..Secded64::CODE_BITS {
            let one = cw.with_bit_flipped(a);
            assert_eq!(
                one.decode(),
                DecodeOutcome::Corrected { data, bit: a },
                "single flip {a}"
            );
            assert_eq!(one.decode(), one.decode_reference(), "single flip {a}");
        }
        for a in 0..Secded64::CODE_BITS {
            for b in (a + 1)..Secded64::CODE_BITS {
                let two = cw.with_bit_flipped(a).with_bit_flipped(b);
                assert_eq!(two.decode(), DecodeOutcome::DoubleError, "pair ({a},{b})");
                assert_eq!(two.decode(), two.decode_reference(), "pair ({a},{b})");
            }
        }
    }
}

#[test]
fn secded32_flips_match_reference_on_mixed_words() {
    for i in 0..32u64 {
        let data = mix(i.wrapping_add(977)) as u32;
        let cw = Secded32::encode(data);
        for a in 0..Secded32::CODE_BITS {
            let one = cw.with_bit_flipped(a);
            assert_eq!(
                one.decode(),
                DecodeOutcome::Corrected {
                    data: u64::from(data),
                    bit: a
                },
                "single flip {a}"
            );
            assert_eq!(one.decode(), one.decode_reference(), "single flip {a}");
        }
        for a in 0..Secded32::CODE_BITS {
            for b in (a + 1)..Secded32::CODE_BITS {
                let two = cw.with_bit_flipped(a).with_bit_flipped(b);
                assert_eq!(two.decode(), DecodeOutcome::DoubleError, "pair ({a},{b})");
                assert_eq!(two.decode(), two.decode_reference(), "pair ({a},{b})");
            }
        }
    }
}

/// Exhaustive: every byte-lane pattern × every single flip × every
/// C(72,2) double flip. ~17M decode pairs; release-mode CI only.
#[test]
#[ignore = "exhaustive sweep; run in release via the kernel-equivalence CI job"]
fn secded64_exhaustive_flip_equivalence_all_byte_patterns() {
    for data in lane_patterns_64() {
        let cw = Secded64::encode(data);
        assert_eq!(cw, Secded64::encode_reference(data));
        for a in 0..Secded64::CODE_BITS {
            let one = cw.with_bit_flipped(a);
            assert_eq!(
                one.decode(),
                DecodeOutcome::Corrected { data, bit: a },
                "data {data:#x} single flip {a}"
            );
            for b in (a + 1)..Secded64::CODE_BITS {
                let two = one.with_bit_flipped(b);
                let out = two.decode();
                assert_eq!(out, DecodeOutcome::DoubleError, "data {data:#x} ({a},{b})");
                assert_eq!(out, two.decode_reference(), "data {data:#x} ({a},{b})");
            }
        }
    }
}

/// Exhaustive (39,32) counterpart of the sweep above.
#[test]
#[ignore = "exhaustive sweep; run in release via the kernel-equivalence CI job"]
fn secded32_exhaustive_flip_equivalence_all_byte_patterns() {
    for data in lane_patterns_32() {
        let cw = Secded32::encode(data);
        assert_eq!(cw, Secded32::encode_reference(data));
        for a in 0..Secded32::CODE_BITS {
            let one = cw.with_bit_flipped(a);
            assert_eq!(
                one.decode(),
                DecodeOutcome::Corrected {
                    data: u64::from(data),
                    bit: a
                },
                "data {data:#x} single flip {a}"
            );
            for b in (a + 1)..Secded32::CODE_BITS {
                let two = one.with_bit_flipped(b);
                let out = two.decode();
                assert_eq!(out, DecodeOutcome::DoubleError, "data {data:#x} ({a},{b})");
                assert_eq!(out, two.decode_reference(), "data {data:#x} ({a},{b})");
            }
        }
    }
}

/// Wide random sweep of full words through encode/decode equivalence.
#[test]
#[ignore = "exhaustive sweep; run in release via the kernel-equivalence CI job"]
fn secded_random_word_sweep_matches_reference() {
    for i in 0..100_000u64 {
        let data = mix(i);
        let cw = Secded64::encode(data);
        assert_eq!(cw, Secded64::encode_reference(data), "data {data:#x}");
        assert_eq!(cw.decode(), DecodeOutcome::Clean { data });
        let d32 = data as u32;
        let cw32 = Secded32::encode(d32);
        assert_eq!(cw32, Secded32::encode_reference(d32), "data {d32:#x}");
        assert_eq!(
            cw32.decode(),
            DecodeOutcome::Clean {
                data: u64::from(d32)
            }
        );
    }
}

#[test]
fn crc32_sliced_matches_reference_check_value() {
    let crc = Crc32::new();
    assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
    assert_eq!(Crc32::checksum_reference(b"123456789"), 0xCBF4_3926);
}

#[test]
fn crc32_sliced_matches_reference_across_lengths() {
    let crc = Crc32::new();
    // Every length 0..=64 exercises all chunk/remainder splits of the
    // slicing-by-8 loop.
    let bytes: Vec<u8> = (0..64u64).map(|i| mix(i) as u8).collect();
    for len in 0..=bytes.len() {
        let data = &bytes[..len];
        assert_eq!(
            crc.checksum(data),
            Crc32::checksum_reference(data),
            "len {len}"
        );
    }
}

proptest! {
    // The sliced CRC-32 kernel must equal the retained bitwise
    // reference on arbitrary payloads (all alignments and lengths).
    #[test]
    fn crc32_sliced_equals_bitwise_reference(
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assert_eq!(Crc32::new().checksum(&data), Crc32::checksum_reference(&data));
    }

    // The two-step word kernel must equal the byte-serialized path.
    #[test]
    fn crc32_word_kernel_equals_byte_path(w0: u64, w1: u64) {
        let crc = Crc32::new();
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&w0.to_le_bytes());
        bytes[8..].copy_from_slice(&w1.to_le_bytes());
        prop_assert_eq!(crc.checksum_words(&[w0, w1]), crc.checksum(&bytes));
        prop_assert_eq!(crc.checksum_words(&[w0, w1]), Crc32::checksum_reference(&bytes));
    }
}
