//! Flits, packets, and payload generation.
//!
//! Data moves through the network as *packets* segmented into fixed-size
//! *flits* (128 bits each in the paper's configuration). The head flit
//! carries routing information; every flit carries its own end-to-end CRC
//! computed by the source router's CRC encoder.

use crate::topology::NodeId;
use noc_coding::crc::Crc32;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Globally unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit; carries the route.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; frees the virtual channel.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// `true` for `Head` and `HeadTail`.
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// `true` for `Tail` and `HeadTail`.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// The semantic class of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketClass {
    /// Ordinary data traffic from the workload.
    Data,
    /// A retransmission request sent from a destination back to the source
    /// after an end-to-end CRC failure (the CRC scheme's NACK-to-source).
    RetransmitRequest {
        /// The data packet that must be re-sent.
        of: PacketId,
    },
}

impl PacketClass {
    /// `true` for control (non-data) packets.
    pub fn is_control(self) -> bool {
        matches!(self, PacketClass::RetransmitRequest { .. })
    }
}

/// One 128-bit flow-control unit.
///
/// Payload corruption is applied *in place* by the fault layer; the
/// separate [`Flit::ground_truth_crc`] lets the destination distinguish
/// genuine corruption from clean delivery without re-deriving the original
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Flit index within the packet (0-based).
    pub index: u8,
    /// End-to-end retransmission attempt (0 = first transmission).
    pub attempt: u8,
    /// Packet class, replicated on every flit for ejection handling.
    pub class: PacketClass,
    /// 128-bit payload as two 64-bit words.
    pub payload: [u64; 2],
    /// CRC-32 computed over the payload by the source CRC encoder.
    pub crc: u32,
    /// Cycle at which the packet was first enqueued at the source NI
    /// (retransmissions keep the original time so end-to-end latency
    /// includes recovery).
    pub injected_at: u64,
}

impl Flit {
    /// Returns `true` when the stored CRC matches the current payload —
    /// the destination router's CRC decoder.
    pub fn crc_ok(&self, crc: &Crc32) -> bool {
        crc.checksum_words(&self.payload) == self.crc
    }

    /// Flips bit `bit` (0..128) of the payload, as a link fault would.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 128`.
    pub fn flip_payload_bit(&mut self, bit: u32) {
        assert!(bit < 128, "payload bit {bit} out of range");
        self.payload[(bit / 64) as usize] ^= 1u64 << (bit % 64);
    }

    /// Flips every listed payload bit in one word-wise pass: the
    /// positions are accumulated into two 64-bit XOR masks applied
    /// once. For distinct positions this equals repeated
    /// [`flip_payload_bit`](Self::flip_payload_bit) calls.
    ///
    /// # Panics
    ///
    /// Panics if any bit is `>= 128`.
    pub fn flip_payload_bits(&mut self, bits: &[u32]) {
        let (mut lo, mut hi) = (0u64, 0u64);
        for &bit in bits {
            assert!(bit < 128, "payload bit {bit} out of range");
            if bit < 64 {
                lo ^= 1u64 << bit;
            } else {
                hi ^= 1u64 << (bit - 64);
            }
        }
        self.payload[0] ^= lo;
        self.payload[1] ^= hi;
    }
}

/// A packet descriptor held by the source protocol state until delivery is
/// confirmed (needed for source retransmission in the CRC scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Number of flits.
    pub num_flits: u8,
    /// Packet class.
    pub class: PacketClass,
    /// Cycle of first injection into the source queue.
    pub injected_at: u64,
    /// Seed from which the deterministic payload is derived.
    pub payload_seed: u64,
}

impl Packet {
    /// Deterministic payload for flit `index` (splitmix64 over the seed).
    pub fn payload_for(&self, index: u8) -> [u64; 2] {
        [
            splitmix64(self.payload_seed ^ (u64::from(index) << 32)),
            splitmix64(
                self.payload_seed
                    .wrapping_add(u64::from(index))
                    .wrapping_mul(0x9E37),
            ),
        ]
    }

    /// Materializes flit `index` (with CRC encoded) for transmission
    /// attempt `attempt`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_flits`.
    pub fn make_flit(&self, index: u8, attempt: u8, crc: &Crc32) -> Flit {
        assert!(index < self.num_flits, "flit index out of range");
        let kind = match (self.num_flits, index) {
            (1, _) => FlitKind::HeadTail,
            (_, 0) => FlitKind::Head,
            (n, i) if i == n - 1 => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        let payload = self.payload_for(index);
        Flit {
            packet: self.id,
            kind,
            src: self.src,
            dst: self.dst,
            index,
            attempt,
            class: self.class,
            payload,
            crc: crc.checksum_words(&payload),
            injected_at: self.injected_at,
        }
    }
}

/// A handle into a [`FlitArena`] slot.
///
/// Four bytes instead of a ~64-byte [`Flit`] body: events, input-VC
/// FIFOs, and reassembly buffers move handles, and the flit body is
/// written once at injection and mutated in place by the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlitRef(u32);

/// Slab allocator for in-flight flit bodies.
///
/// Slots are recycled through a free list, so a steady-state simulation
/// performs no per-flit heap allocation: the slab grows to the peak
/// number of simultaneously in-flight flits and then stays flat.
///
/// # Example
///
/// ```
/// use noc_sim::flit::{FlitArena, Packet, PacketClass, PacketId};
/// use noc_sim::topology::NodeId;
/// use noc_coding::crc::Crc32;
///
/// let mut arena = FlitArena::new();
/// let packet = Packet {
///     id: PacketId(1), src: NodeId(0), dst: NodeId(1), num_flits: 1,
///     class: PacketClass::Data, injected_at: 0, payload_seed: 7,
/// };
/// let r = arena.alloc(packet.make_flit(0, 0, &Crc32::new()));
/// assert_eq!(arena[r].packet, PacketId(1));
/// arena.free(r);
/// assert_eq!(arena.live(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlitArena {
    slots: Vec<Flit>,
    /// Debug-only double-free/use-after-free tripwire (checked via
    /// `debug_assert`; one byte per slot, untouched in release reads).
    occupied: Vec<bool>,
    free: Vec<u32>,
    live: usize,
}

impl FlitArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `flit` in a recycled (or new) slot and returns its handle.
    #[inline]
    pub fn alloc(&mut self, flit: Flit) -> FlitRef {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            debug_assert!(!self.occupied[idx as usize], "free list holds a live slot");
            self.slots[idx as usize] = flit;
            self.occupied[idx as usize] = true;
            FlitRef(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
            self.slots.push(flit);
            self.occupied.push(true);
            FlitRef(idx)
        }
    }

    /// Releases a slot back to the free list.
    #[inline]
    pub fn free(&mut self, r: FlitRef) {
        debug_assert!(self.occupied[r.0 as usize], "double free of flit slot");
        self.occupied[r.0 as usize] = false;
        self.live -= 1;
        self.free.push(r.0);
    }

    /// Number of live (allocated, unfreed) flits.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (the high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl std::ops::Index<FlitRef> for FlitArena {
    type Output = Flit;

    #[inline]
    fn index(&self, r: FlitRef) -> &Flit {
        debug_assert!(self.occupied[r.0 as usize], "read of freed flit slot");
        &self.slots[r.0 as usize]
    }
}

impl std::ops::IndexMut<FlitRef> for FlitArena {
    #[inline]
    fn index_mut(&mut self, r: FlitRef) -> &mut Flit {
        debug_assert!(self.occupied[r.0 as usize], "write to freed flit slot");
        &mut self.slots[r.0 as usize]
    }
}

/// A dense, sliding-window map keyed by monotonically increasing
/// [`PacketId`]s.
///
/// The network hands out packet ids from a counter, so at any instant
/// the live keys occupy a contiguous-ish band `[base, base + len)`.
/// This replaces a `HashMap<PacketId, T>` with a `VecDeque<Option<T>>`
/// indexed by `id - base`: O(1) access with no hashing, and the window
/// front advances as the oldest packets complete. Keys must be inserted
/// in increasing order (the source store's are: one per offer): a key
/// behind the base would cost a vacant slot per id of the gap.
#[derive(Debug, Clone)]
pub struct PacketWindow<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for PacketWindow<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PacketWindow<T> {
    /// Creates an empty window.
    pub fn new() -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts `value` under `id`, returning the previous entry if one
    /// existed.
    ///
    /// # Panics
    ///
    /// Panics if the window is live and `id` is below its base.
    #[inline]
    pub fn insert(&mut self, id: PacketId, value: T) -> Option<T> {
        if self.live == 0 {
            // Empty window: rebase instead of bridging the gap with
            // vacant slots.
            self.base = id.0;
            self.slots.clear();
        }
        assert!(id.0 >= self.base, "{id} inserted behind the window base");
        let idx = (id.0 - self.base) as usize;
        while self.slots.len() <= idx {
            self.slots.push_back(None);
        }
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.live += 1;
        }
        prev
    }

    /// Mutable access to the entry under `id`.
    pub fn get_mut(&mut self, id: PacketId) -> Option<&mut T> {
        if id.0 < self.base {
            return None;
        }
        let idx = (id.0 - self.base) as usize;
        self.slots.get_mut(idx).and_then(Option::as_mut)
    }

    /// Iterates over the live entries (window order, i.e. by id).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Removes and returns the entry under `id`, sliding the window
    /// base past any leading vacancies.
    #[inline]
    pub fn remove(&mut self, id: PacketId) -> Option<T> {
        if id.0 < self.base {
            return None;
        }
        let idx = (id.0 - self.base) as usize;
        let removed = self.slots.get_mut(idx).and_then(Option::take);
        if removed.is_some() {
            self.live -= 1;
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        removed
    }
}

/// The splitmix64 mixing function — used for deterministic payload
/// derivation so retransmitted packets carry identical bits.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet(num_flits: u8) -> Packet {
        Packet {
            id: PacketId(42),
            src: NodeId(0),
            dst: NodeId(63),
            num_flits,
            class: PacketClass::Data,
            injected_at: 100,
            payload_seed: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn flit_kinds_follow_position() {
        let crc = Crc32::new();
        let p = sample_packet(4);
        assert_eq!(p.make_flit(0, 0, &crc).kind, FlitKind::Head);
        assert_eq!(p.make_flit(1, 0, &crc).kind, FlitKind::Body);
        assert_eq!(p.make_flit(2, 0, &crc).kind, FlitKind::Body);
        assert_eq!(p.make_flit(3, 0, &crc).kind, FlitKind::Tail);
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let crc = Crc32::new();
        let p = sample_packet(1);
        let f = p.make_flit(0, 0, &crc);
        assert_eq!(f.kind, FlitKind::HeadTail);
        assert!(f.kind.is_head() && f.kind.is_tail());
    }

    #[test]
    fn fresh_flit_passes_crc() {
        let crc = Crc32::new();
        let p = sample_packet(4);
        for i in 0..4 {
            assert!(p.make_flit(i, 0, &crc).crc_ok(&crc));
        }
    }

    #[test]
    fn corrupted_flit_fails_crc() {
        let crc = Crc32::new();
        let p = sample_packet(4);
        let mut f = p.make_flit(2, 0, &crc);
        f.flip_payload_bit(77);
        assert!(!f.crc_ok(&crc));
    }

    #[test]
    fn payload_is_deterministic_across_attempts() {
        let crc = Crc32::new();
        let p = sample_packet(4);
        let a = p.make_flit(1, 0, &crc);
        let b = p.make_flit(1, 3, &crc);
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.crc, b.crc);
        assert_eq!(b.attempt, 3);
    }

    #[test]
    fn payloads_differ_across_flits() {
        let p = sample_packet(4);
        assert_ne!(p.payload_for(0), p.payload_for(1));
    }

    #[test]
    fn flip_payload_bit_round_trips() {
        let crc = Crc32::new();
        let p = sample_packet(2);
        let mut f = p.make_flit(0, 0, &crc);
        let orig = f.payload;
        f.flip_payload_bit(127);
        assert_ne!(f.payload, orig);
        f.flip_payload_bit(127);
        assert_eq!(f.payload, orig);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_out_of_range_panics() {
        let crc = Crc32::new();
        let mut f = sample_packet(1).make_flit(0, 0, &crc);
        f.flip_payload_bit(128);
    }

    #[test]
    fn batch_flip_equals_sequential_flips() {
        let crc = Crc32::new();
        for bits in [
            &[0u32][..],
            &[63, 64],
            &[0, 1, 127],
            &[5, 70, 100],
            &[127, 64, 63],
            &[],
        ] {
            let mut a = sample_packet(3).make_flit(0, 0, &crc);
            let mut b = a;
            for &bit in bits {
                a.flip_payload_bit(bit);
            }
            b.flip_payload_bits(bits);
            assert_eq!(a, b, "bits {bits:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_flip_out_of_range_panics() {
        let crc = Crc32::new();
        let mut f = sample_packet(1).make_flit(0, 0, &crc);
        f.flip_payload_bits(&[3, 128]);
    }

    #[test]
    #[should_panic(expected = "flit index out of range")]
    fn make_flit_out_of_range_panics() {
        let crc = Crc32::new();
        let _ = sample_packet(2).make_flit(2, 0, &crc);
    }

    #[test]
    fn control_class_is_control() {
        assert!(PacketClass::RetransmitRequest { of: PacketId(1) }.is_control());
        assert!(!PacketClass::Data.is_control());
    }

    #[test]
    fn display_impls() {
        assert_eq!(PacketId(9).to_string(), "p9");
    }

    #[test]
    fn arena_recycles_slots() {
        let crc = Crc32::new();
        let p = sample_packet(4);
        let mut arena = FlitArena::new();
        let a = arena.alloc(p.make_flit(0, 0, &crc));
        let b = arena.alloc(p.make_flit(1, 0, &crc));
        assert_eq!(arena.live(), 2);
        assert_eq!(arena[a].index, 0);
        assert_eq!(arena[b].index, 1);
        arena.free(a);
        assert_eq!(arena.live(), 1);
        // The freed slot is reused: capacity stays flat.
        let c = arena.alloc(p.make_flit(2, 0, &crc));
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena[c].index, 2);
        // In-place mutation is visible through the handle.
        arena[c].flip_payload_bit(5);
        assert!(!arena[c].crc_ok(&crc));
    }

    #[test]
    fn arena_steady_state_allocates_nothing_new() {
        let crc = Crc32::new();
        let p = sample_packet(4);
        let mut arena = FlitArena::new();
        let refs: Vec<_> = (0..4)
            .map(|i| arena.alloc(p.make_flit(i, 0, &crc)))
            .collect();
        for r in refs {
            arena.free(r);
        }
        let peak = arena.capacity();
        for _ in 0..10 {
            let refs: Vec<_> = (0..4)
                .map(|i| arena.alloc(p.make_flit(i, 0, &crc)))
                .collect();
            for r in refs {
                arena.free(r);
            }
        }
        assert_eq!(arena.capacity(), peak, "freelist must recycle all slots");
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn packet_window_basic_map_semantics() {
        let mut w: PacketWindow<&str> = PacketWindow::new();
        assert!(w.is_empty());
        assert_eq!(w.insert(PacketId(0), "a"), None);
        assert_eq!(w.insert(PacketId(2), "c"), None);
        assert_eq!(w.len(), 2);
        assert_eq!(w.get_mut(PacketId(1)), None);
        assert_eq!(w.get_mut(PacketId(2)), Some(&mut "c"));
        assert_eq!(w.insert(PacketId(2), "C"), Some("c"));
        assert_eq!(w.remove(PacketId(0)), Some("a"));
        assert_eq!(w.remove(PacketId(0)), None, "double remove is None");
        assert_eq!(w.remove(PacketId(2)), Some("C"));
        assert!(w.is_empty());
    }

    #[test]
    fn packet_window_slides_past_vacancies() {
        let mut w: PacketWindow<u32> = PacketWindow::new();
        // Ids 1 and 3 are never inserted (e.g. control packets).
        w.insert(PacketId(0), 10);
        w.insert(PacketId(2), 20);
        w.insert(PacketId(4), 40);
        w.remove(PacketId(0));
        // Base slides over the id-1 vacancy straight to 2.
        assert_eq!(w.base, 2);
        w.remove(PacketId(2));
        assert_eq!(w.base, 4);
        assert_eq!(w.remove(PacketId(4)), Some(40));
        assert_eq!(w.slots.len(), 0, "fully drained window holds no slots");
        // Stale keys behind the base answer None, like a HashMap would.
        assert_eq!(w.get_mut(PacketId(1)), None);
        assert_eq!(w.remove(PacketId(3)), None);
    }

    #[test]
    fn packet_window_rebases_when_empty() {
        let mut w: PacketWindow<u32> = PacketWindow::new();
        // An empty window rebases to the inserted id, even a lower one.
        w.insert(PacketId(9), 90);
        w.remove(PacketId(9));
        w.insert(PacketId(3), 30);
        assert_eq!(w.base, 3);
        assert_eq!(w.remove(PacketId(3)), Some(30));
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "behind the window base")]
    fn packet_window_rejects_ids_behind_a_live_base() {
        let mut w: PacketWindow<u32> = PacketWindow::new();
        w.insert(PacketId(3), 30);
        w.insert(PacketId(1), 10);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_single_flip_breaks_crc(seed: u64, bit in 0u32..128) {
            let crc = Crc32::new();
            let p = Packet {
                id: PacketId(1),
                src: NodeId(0),
                dst: NodeId(1),
                num_flits: 1,
                class: PacketClass::Data,
                injected_at: 0,
                payload_seed: seed,
            };
            let mut f = p.make_flit(0, 0, &crc);
            f.flip_payload_bit(bit);
            prop_assert!(!f.crc_ok(&crc));
        }

        #[test]
        fn splitmix_is_injective_on_small_range(a in 0u64..10_000, b in 0u64..10_000) {
            prop_assume!(a != b);
            prop_assert_ne!(splitmix64(a), splitmix64(b));
        }
    }
}
