//! Table-driven CRC-32, the check of the destination router's ejection
//! port: reflected polynomial `0xEDB88320` (IEEE 802.3).
//!
//! Lookup tables are built at compile time, so the per-byte cost in the
//! simulator's hot loop is a table access and an XOR — the structure a
//! parallel hardware CRC realizes in one cycle.
//!
//! CRC guarantees used by the protocol layer: a CRC detects **all**
//! single-bit errors and all burst errors shorter than its width; for the
//! random multi-bit flips produced by the timing-error injector the escape
//! probability is `2^-32`, which the protocol layer treats as zero (and
//! accounts separately as "silent corruption" when it is not).

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial,
/// built at compile time and shared process-wide: constructing a
/// [`Crc32`] costs nothing, so every `Network`, checkpoint writer, and
/// policy-snapshot codec shares the same static 8 KiB.
///
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC32_TABLES[j][b]` extends it to the CRC of byte `b` followed by
/// `j` zero bytes, which lets eight input bytes be consumed with eight
/// independent loads XORed together.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ Crc32::POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1usize;
    while j < 8 {
        let mut i = 0usize;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), the check used
/// by the simulated destination-router CRC decoders.
///
/// The kernel is slicing-by-8 over process-wide static tables: eight
/// input bytes per step, no per-instance table construction.
///
/// # Example
///
/// ```
/// use noc_coding::crc::Crc32;
/// let crc = Crc32::new();
/// assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32;

impl Crc32 {
    /// Reflected generator polynomial.
    pub const POLY: u32 = 0xEDB8_8320;

    /// Returns a handle to the process-wide tables (free; kept for API
    /// compatibility with the per-instance-table era).
    pub fn new() -> Self {
        Self
    }

    /// Advances `crc` over eight message bytes packed little-endian in
    /// `w` (slicing-by-8: one step, eight independent table loads).
    #[inline]
    fn step8(crc: u32, w: u64) -> u32 {
        let x = w ^ u64::from(crc);
        let t = &CRC32_TABLES;
        t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize]
    }

    /// Computes the CRC-32 of `data` (init `0xFFFF_FFFF`, final XOR
    /// `0xFFFF_FFFF`, matching zlib's `crc32`).
    pub fn checksum(&self, data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            crc = Self::step8(crc, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Computes the CRC-32 of the four 32-bit words of a 128-bit flit
    /// payload, the granularity at which the simulated CRC encoder runs.
    /// Equivalent to serializing the words little-endian and calling
    /// [`checksum`](Self::checksum), in exactly two slicing steps.
    #[inline]
    pub fn checksum_words(&self, words: &[u64; 2]) -> u32 {
        Self::step8(Self::step8(0xFFFF_FFFF, words[0]), words[1]) ^ 0xFFFF_FFFF
    }

    /// Bit-at-a-time reference implementation (no tables) retained as
    /// the oracle the sliced kernel is property-tested against.
    #[doc(hidden)]
    pub fn checksum_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ Self::POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Returns `true` when `expected` matches the checksum of `data`.
    pub fn verify(&self, data: &[u8], expected: u32) -> bool {
        self.checksum(data) == expected
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECK_INPUT: &[u8] = b"123456789";

    #[test]
    fn crc32_matches_reference_check_value() {
        assert_eq!(Crc32::new().checksum(CHECK_INPUT), 0xCBF4_3926);
    }

    #[test]
    fn crc32_empty_input_is_zero() {
        assert_eq!(Crc32::new().checksum(&[]), 0);
    }

    #[test]
    fn crc32_detects_any_single_bit_flip() {
        let crc = Crc32::new();
        let data = [0xA5u8, 0x5A, 0x33, 0xCC, 0x0F, 0xF0, 0x81, 0x7E];
        let good = crc.checksum(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data;
                bad[byte] ^= 1 << bit;
                assert_ne!(crc.checksum(&bad), good, "flip at {byte}:{bit} escaped");
            }
        }
    }

    #[test]
    fn crc32_word_helper_matches_byte_path() {
        let crc = Crc32::new();
        let words = [0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210u64];
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&words[0].to_le_bytes());
        bytes[8..].copy_from_slice(&words[1].to_le_bytes());
        assert_eq!(crc.checksum_words(&words), crc.checksum(&bytes));
    }

    #[test]
    fn verify_round_trips() {
        let data = b"network-on-chip";
        let c32 = Crc32::new();
        assert!(c32.verify(data, c32.checksum(data)));
        assert!(!c32.verify(data, c32.checksum(data) ^ 1));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn crc32_single_flip_always_detected(data in proptest::collection::vec(any::<u8>(), 1..64),
                                             flip in 0usize..512) {
            let crc = Crc32::new();
            let good = crc.checksum(&data);
            let bit = flip % (data.len() * 8);
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(crc.checksum(&bad), good);
        }

        #[test]
        fn crc32_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let a = Crc32::new().checksum(&data);
            let b = Crc32::new().checksum(&data);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn crc32_sliced_matches_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            prop_assert_eq!(
                Crc32::new().checksum(&data),
                Crc32::checksum_reference(&data)
            );
        }

        #[test]
        fn crc32_burst_shorter_than_width_detected(
            data in proptest::collection::vec(any::<u8>(), 8..32),
            start in 0usize..128,
            pattern in 1u32..u32::MAX,
        ) {
            // Any burst of length <= 32 bits is detected by CRC-32.
            let crc = Crc32::new();
            let good = crc.checksum(&data);
            let total_bits = data.len() * 8;
            let start = start % (total_bits - 32);
            let mut bad = data.clone();
            for i in 0..32 {
                if pattern & (1 << i) != 0 {
                    let bit = start + i;
                    bad[bit / 8] ^= 1 << (bit % 8);
                }
            }
            prop_assert_ne!(crc.checksum(&bad), good);
        }
    }
}
