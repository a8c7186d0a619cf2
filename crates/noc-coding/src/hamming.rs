//! Extended Hamming SECDED (single-error-correct, double-error-detect)
//! codes.
//!
//! The ARQ+ECC link hardware of the paper attaches a SECDED code to each
//! flit: the downstream decoder corrects any single bit flip in place and
//! raises a NACK on any double flip. [`Secded64`] is Hamming(72,64): 64
//! data bits, 7 parity bits, 1 overall parity bit. Two of these protect
//! one 128-bit flit.
//!
//! Bit layout follows the classic extended-Hamming construction: codeword
//! positions are 1-indexed, parity bits sit at power-of-two positions, data
//! bits fill the remaining positions, and the overall parity bit occupies
//! position 0. The syndrome of a single flip equals the flipped position.

use std::fmt;

/// Result of decoding a (possibly corrupted) SECDED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// The codeword was clean; `data` is the original payload.
    Clean {
        /// Recovered data word.
        data: u64,
    },
    /// A single-bit error was corrected.
    Corrected {
        /// Recovered data word (after correction).
        data: u64,
        /// Codeword bit position (0-indexed) that was flipped.
        bit: u32,
    },
    /// Two bit errors were detected; the data cannot be trusted and the
    /// receiver must request a retransmission (NACK).
    DoubleError,
}

impl DecodeOutcome {
    /// Returns the recovered data if the outcome is usable
    /// ([`Clean`](Self::Clean) or [`Corrected`](Self::Corrected)).
    pub fn data(self) -> Option<u64> {
        match self {
            Self::Clean { data } | Self::Corrected { data, .. } => Some(data),
            Self::DoubleError => None,
        }
    }

    /// Returns `true` when the decoder had to correct a bit.
    pub fn was_corrected(self) -> bool {
        matches!(self, Self::Corrected { .. })
    }
}

impl fmt::Display for DecodeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Clean { .. } => write!(f, "clean"),
            Self::Corrected { bit, .. } => write!(f, "corrected bit {bit}"),
            Self::DoubleError => write!(f, "double error detected"),
        }
    }
}

/// Const-evaluable extended-Hamming encode, used only to *build* the
/// byte-sliced tables below. The independently written
/// [`encode_generic`] remains the specification the tables are tested
/// against.
const fn encode_const(data: u64, data_bits: u32, total_positions: u32) -> u128 {
    let mut code: u128 = 0;
    let mut d = 0u32;
    let mut pos = 1u32;
    while pos <= total_positions {
        if !pos.is_power_of_two() {
            if data & (1u64 << d) != 0 {
                code |= 1u128 << pos;
            }
            d += 1;
            if d == data_bits {
                break;
            }
        }
        pos += 1;
    }
    let mut p = 1u32;
    while p <= total_positions {
        let mut parity = 0u32;
        let mut q = 1u32;
        while q <= total_positions {
            if q & p != 0 && code & (1u128 << q) != 0 {
                parity ^= 1;
            }
            q += 1;
        }
        if parity != 0 {
            code |= 1u128 << p;
        }
        p <<= 1;
    }
    if code.count_ones() & 1 != 0 {
        code |= 1;
    }
    code
}

/// Sentinel in `data_index` for positions that carry no data bit
/// (parity positions, position 0, and positions past the codeword).
const NO_DATA: u8 = 0xFF;

/// Word-sliced encode/decode tables for one code size.
///
/// Extended Hamming is linear, so a codeword is the XOR of the
/// codewords of its data bytes taken in isolation — `encode` is `DB`
/// table loads XORed together, with parity bits and the overall parity
/// bit already folded into each entry. Decode slices the codeword into
/// `CB` bytes: `syndrome[i][b]` accumulates (low 8 bits) the XOR of the
/// positions of `b`'s set bits and (bit 15) their popcount parity,
/// while `gather[i][b]` accumulates the data bits those positions
/// carry. No per-bit loops remain on the hot path.
struct ByteTables<const DB: usize, const CB: usize> {
    /// `encode[lane][b]` = codeword of data byte `b` in lane `lane`.
    encode: [[u128; 256]; DB],
    /// `syndrome[i][b]` = XOR of positions (low bits) | parity (bit 15).
    syndrome: [[u16; 256]; CB],
    /// `gather[i][b]` = data-word contribution of codeword byte `i`=`b`.
    gather: [[u64; 256]; CB],
    /// `data_index[pos]` = data-bit index stored at codeword position
    /// `pos`, or [`NO_DATA`].
    data_index: [u8; 128],
}

impl<const DB: usize, const CB: usize> ByteTables<DB, CB> {
    const fn build(data_bits: u32, total_positions: u32) -> Self {
        let mut data_index = [NO_DATA; 128];
        let mut d = 0u32;
        let mut pos = 1u32;
        while pos <= total_positions && d < data_bits {
            if !pos.is_power_of_two() {
                data_index[pos as usize] = d as u8;
                d += 1;
            }
            pos += 1;
        }
        let mut encode = [[0u128; 256]; DB];
        let mut lane = 0;
        while lane < DB {
            let mut v = 0usize;
            while v < 256 {
                encode[lane][v] =
                    encode_const((v as u64) << (lane * 8), data_bits, total_positions);
                v += 1;
            }
            lane += 1;
        }
        let mut syndrome = [[0u16; 256]; CB];
        let mut gather = [[0u64; 256]; CB];
        let mut byte = 0;
        while byte < CB {
            let mut v = 0usize;
            while v < 256 {
                let mut s = 0u16;
                let mut g = 0u64;
                let mut j = 0u32;
                while j < 8 {
                    if v & (1usize << j) != 0 {
                        let p = byte as u32 * 8 + j;
                        // Every set bit toggles the overall parity (bit
                        // 15) and XORs its position into the syndrome.
                        s ^= 0x8000 | (p as u16);
                        if data_index[p as usize] != NO_DATA {
                            g |= 1u64 << data_index[p as usize];
                        }
                    }
                    j += 1;
                }
                syndrome[byte][v] = s;
                gather[byte][v] = g;
                v += 1;
            }
            byte += 1;
        }
        Self {
            encode,
            syndrome,
            gather,
            data_index,
        }
    }

    /// Fast encode: one table load + XOR per data byte.
    #[inline]
    fn encode(&self, data: u64) -> u128 {
        let mut code = 0u128;
        for (lane, table) in self.encode.iter().enumerate() {
            code ^= table[((data >> (8 * lane)) & 0xFF) as usize];
        }
        code
    }

    /// Fast decode: syndrome + overall parity + data gather in one
    /// byte-sliced pass, then a single indexed fix-up on correction.
    #[inline]
    fn decode(&self, code: u128, total_positions: u32) -> DecodeOutcome {
        let mut acc = 0u16;
        let mut data = 0u64;
        for (byte, (syn, gat)) in self.syndrome.iter().zip(&self.gather).enumerate() {
            let v = ((code >> (8 * byte)) & 0xFF) as usize;
            acc ^= syn[v];
            data ^= gat[v];
        }
        let syndrome = u32::from(acc & 0x7FFF);
        let overall_ok = acc & 0x8000 == 0;
        match (syndrome, overall_ok) {
            (0, true) => DecodeOutcome::Clean { data },
            // Position 0 (the overall parity bit) carries no data.
            (0, false) => DecodeOutcome::Corrected { data, bit: 0 },
            (s, false) => {
                if s > total_positions {
                    return DecodeOutcome::DoubleError;
                }
                let di = self.data_index[s as usize];
                if di != NO_DATA {
                    data ^= 1u64 << di;
                }
                DecodeOutcome::Corrected { data, bit: s }
            }
            (_, true) => DecodeOutcome::DoubleError,
        }
    }
}

static TABLES_64: ByteTables<8, 9> = ByteTables::build(64, 71);

/// Reference extended-Hamming encode over `k` data bits (kept as the
/// specification against which the table-driven fast path is tested).
///
/// Returns the codeword as a `u128` whose bit `i` is codeword position `i`
/// (position 0 = overall parity).
fn encode_generic(data: u64, data_bits: u32, total_positions: u32) -> u128 {
    debug_assert!(data_bits <= 64);
    debug_assert!(
        data_bits == 64 || data >> data_bits == 0,
        "data exceeds width"
    );
    let mut code: u128 = 0;
    // Scatter data bits into non-power-of-two positions 3, 5, 6, 7, 9, ...
    let mut d = 0u32;
    for pos in 1..=total_positions {
        if !pos.is_power_of_two() {
            if data & (1u64 << d) != 0 {
                code |= 1u128 << pos;
            }
            d += 1;
            if d == data_bits {
                break;
            }
        }
    }
    // Parity bits: parity bit at position 2^j covers every position whose
    // j-th index bit is set.
    let mut p = 1u32;
    while p <= total_positions {
        let mut parity = 0u32;
        for pos in 1..=total_positions {
            if pos & p != 0 && code & (1u128 << pos) != 0 {
                parity ^= 1;
            }
        }
        if parity != 0 {
            code |= 1u128 << p;
        }
        p <<= 1;
    }
    // Overall parity at position 0 (even parity over the whole codeword).
    if (code.count_ones() & 1) != 0 {
        code |= 1;
    }
    code
}

/// Shared extended-Hamming decode; inverse of [`encode_generic`].
fn decode_generic(mut code: u128, data_bits: u32, total_positions: u32) -> DecodeOutcome {
    // Syndrome: XOR of the positions of all set bits.
    let mut syndrome = 0u32;
    for pos in 1..=total_positions {
        if code & (1u128 << pos) != 0 {
            syndrome ^= pos;
        }
    }
    let overall_ok = code.count_ones().is_multiple_of(2);
    let corrected_bit = match (syndrome, overall_ok) {
        (0, true) => None,
        (0, false) => {
            // The overall parity bit itself flipped.
            code ^= 1;
            Some(0)
        }
        (s, false) => {
            if s > total_positions {
                // Syndrome points outside the codeword: an uncorrectable
                // pattern that we conservatively report as a double error.
                return DecodeOutcome::DoubleError;
            }
            code ^= 1u128 << s;
            Some(s)
        }
        (_, true) => return DecodeOutcome::DoubleError,
    };
    // Gather data bits back out.
    let mut data = 0u64;
    let mut d = 0u32;
    for pos in 1..=total_positions {
        if !pos.is_power_of_two() {
            if code & (1u128 << pos) != 0 {
                data |= 1u64 << d;
            }
            d += 1;
            if d == data_bits {
                break;
            }
        }
    }
    match corrected_bit {
        None => DecodeOutcome::Clean { data },
        Some(bit) => DecodeOutcome::Corrected { data, bit },
    }
}

/// A Hamming(72,64) SECDED codeword protecting one 64-bit word.
///
/// # Example
///
/// ```
/// use noc_coding::hamming::{Secded64, DecodeOutcome};
///
/// let cw = Secded64::encode(0xFACE_CAFE_1234_5678);
/// assert_eq!(cw.decode(), DecodeOutcome::Clean { data: 0xFACE_CAFE_1234_5678 });
/// assert_eq!(cw.with_bit_flipped(5).decode().data(), Some(0xFACE_CAFE_1234_5678));
/// assert_eq!(
///     cw.with_bit_flipped(5).with_bit_flipped(40).decode(),
///     DecodeOutcome::DoubleError
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Secded64 {
    bits: u128,
}

impl Secded64 {
    /// Number of data bits protected by the code.
    pub const DATA_BITS: u32 = 64;
    /// Total codeword length in bits (including the overall parity bit).
    pub const CODE_BITS: u32 = 72;
    const TOP_POSITION: u32 = Self::CODE_BITS - 1;

    /// Encodes a 64-bit word into a 72-bit SECDED codeword.
    pub fn encode(data: u64) -> Self {
        Self {
            bits: TABLES_64.encode(data),
        }
    }

    /// Reference (table-free) encoder used to cross-check the fast path.
    #[doc(hidden)]
    pub fn encode_reference(data: u64) -> Self {
        Self {
            bits: encode_generic(data, Self::DATA_BITS, Self::TOP_POSITION),
        }
    }

    /// Reconstructs a codeword from raw bits (e.g. after link transmission).
    ///
    /// Bits above [`Self::CODE_BITS`] are masked off.
    pub fn from_raw(bits: u128) -> Self {
        Self {
            bits: bits & ((1u128 << Self::CODE_BITS) - 1),
        }
    }

    /// Raw codeword bits (bit `i` = codeword position `i`).
    pub fn as_raw(self) -> u128 {
        self.bits
    }

    /// Decodes, correcting a single flip and detecting double flips.
    pub fn decode(self) -> DecodeOutcome {
        TABLES_64.decode(self.bits, Self::TOP_POSITION)
    }

    /// Reference (table-free) decoder used to cross-check the fast path.
    #[doc(hidden)]
    pub fn decode_reference(self) -> DecodeOutcome {
        decode_generic(self.bits, Self::DATA_BITS, Self::TOP_POSITION)
    }

    /// Returns a copy with codeword bit `bit` flipped.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= Self::CODE_BITS`.
    pub fn with_bit_flipped(self, bit: u32) -> Self {
        assert!(bit < Self::CODE_BITS, "bit {bit} out of range");
        Self {
            bits: self.bits ^ (1u128 << bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secded64_clean_round_trip() {
        for data in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF, 0xAAAA_5555_AAAA_5555] {
            assert_eq!(
                Secded64::encode(data).decode(),
                DecodeOutcome::Clean { data }
            );
        }
    }

    #[test]
    fn secded64_corrects_every_single_bit_flip() {
        let data = 0x0F1E_2D3C_4B5A_6978u64;
        let cw = Secded64::encode(data);
        for bit in 0..Secded64::CODE_BITS {
            let out = cw.with_bit_flipped(bit).decode();
            match out {
                DecodeOutcome::Corrected { data: d, bit: b } => {
                    assert_eq!(d, data, "wrong data after correcting bit {bit}");
                    assert_eq!(b, bit);
                }
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn secded64_detects_every_double_bit_flip() {
        let data = 0x1234_5678_9ABC_DEF0u64;
        let cw = Secded64::encode(data);
        // Exhaustive over all 72*71/2 pairs.
        for a in 0..Secded64::CODE_BITS {
            for b in (a + 1)..Secded64::CODE_BITS {
                let out = cw.with_bit_flipped(a).with_bit_flipped(b).decode();
                assert_eq!(out, DecodeOutcome::DoubleError, "pair ({a},{b}) escaped");
            }
        }
    }

    #[test]
    fn fast_encode_matches_reference() {
        for data in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF, 0x8000_0000_0000_0001] {
            assert_eq!(Secded64::encode(data), Secded64::encode_reference(data));
        }
    }

    #[test]
    fn fast_decode_matches_reference_under_flips() {
        let data = 0xA5A5_5A5A_0FF0_F00Fu64;
        let cw = Secded64::encode(data);
        assert_eq!(cw.decode(), cw.decode_reference());
        for a in 0..Secded64::CODE_BITS {
            let one = cw.with_bit_flipped(a);
            assert_eq!(one.decode(), one.decode_reference(), "single flip {a}");
            let two = one.with_bit_flipped((a + 13) % Secded64::CODE_BITS);
            assert_eq!(two.decode(), two.decode_reference(), "double flip {a}");
        }
    }

    #[test]
    fn from_raw_masks_out_of_range_bits() {
        let cw = Secded64::encode(42);
        let noisy = cw.as_raw() | (1u128 << 100);
        assert_eq!(Secded64::from_raw(noisy), cw);
    }

    #[test]
    fn outcome_accessors() {
        assert_eq!(DecodeOutcome::Clean { data: 7 }.data(), Some(7));
        assert_eq!(DecodeOutcome::DoubleError.data(), None);
        assert!(DecodeOutcome::Corrected { data: 1, bit: 2 }.was_corrected());
        assert!(!DecodeOutcome::Clean { data: 1 }.was_corrected());
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(
            DecodeOutcome::DoubleError.to_string(),
            "double error detected"
        );
        assert_eq!(DecodeOutcome::Clean { data: 0 }.to_string(), "clean");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn secded64_round_trip(data: u64) {
            prop_assert_eq!(Secded64::encode(data).decode(), DecodeOutcome::Clean { data });
        }

        #[test]
        fn secded64_single_flip_corrected(data: u64, bit in 0u32..72) {
            let out = Secded64::encode(data).with_bit_flipped(bit).decode();
            prop_assert_eq!(out.data(), Some(data));
        }

        #[test]
        fn secded64_double_flip_detected(data: u64, a in 0u32..72, b in 0u32..72) {
            prop_assume!(a != b);
            let out = Secded64::encode(data)
                .with_bit_flipped(a)
                .with_bit_flipped(b)
                .decode();
            prop_assert_eq!(out, DecodeOutcome::DoubleError);
        }

        // The decoder's classification must track the injected flip count
        // exactly: 0 flips → Clean, 1 flip → Corrected at that position,
        // 2 distinct flips → DoubleError.
        #[test]
        fn secded64_classification_matches_flip_count(data: u64, a in 0u32..72, b in 0u32..72) {
            let cw = Secded64::encode(data);
            prop_assert_eq!(cw.decode(), DecodeOutcome::Clean { data });
            prop_assert_eq!(
                cw.with_bit_flipped(a).decode(),
                DecodeOutcome::Corrected { data, bit: a }
            );
            prop_assume!(a != b);
            prop_assert_eq!(
                cw.with_bit_flipped(a).with_bit_flipped(b).decode(),
                DecodeOutcome::DoubleError
            );
        }

        // Transport round-trip: raw bits survive from_raw/as_raw untouched.
        #[test]
        fn secded64_raw_round_trip(data: u64) {
            let cw = Secded64::encode(data);
            prop_assert_eq!(Secded64::from_raw(cw.as_raw()), cw);
        }
    }
}
