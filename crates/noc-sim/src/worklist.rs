//! Dense bitset worklists over router/node indices.
//!
//! The per-cycle pipeline phases only have work at routers that hold at
//! least one occupied input VC or a pending priority resend; injection
//! only has work at nodes with an open injection or a queued packet.
//! [`ActiveSet`] tracks those memberships as one bit per index so a
//! cycle's passes visit exactly the live routers in ascending index
//! order — the same order the dense per-router loops used — and idle
//! routers cost zero work rather than a predicted skip branch.
//!
//! Membership is maintained incrementally at the few sites that create
//! work (buffer writes, NACK resend queueing, packet offers) and rebuilt
//! from scratch after hard-fault purges, which rewrite router state
//! wholesale. Retirement happens once per cycle in the sampling pass.
//!
//! Iteration contract: callers scan word snapshots with
//! [`ActiveSet::word`] and clear bits via `word & (word - 1)`, so
//! removing the *current* index mid-scan is always safe, and a stale bit
//! (index retired after the snapshot) merely visits a router whose
//! phases are no-ops.

/// A fixed-capacity bitset over `0..len` used as an ascending-order
/// worklist.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// An empty set with capacity for indices `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
        }
    }

    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Membership test; used by the invariant checker and tests (the
    /// hot path scans word snapshots instead).
    #[cfg_attr(not(any(test, feature = "verify")), allow(dead_code))]
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Sets membership of `i` to `member` (rebuild-by-predicate helper).
    #[inline]
    pub fn set(&mut self, i: usize, member: bool) {
        if member {
            self.insert(i);
        } else {
            self.remove(i);
        }
    }

    /// `true` when no index is a member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of 64-bit words backing the set.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Snapshot of word `wi`. Indices `wi*64 + tz` for each set bit.
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        self.words[wi]
    }
}

/// The set bits of `word` in ascending order — the per-router stage
/// masks are walked with this, which is the old port-major VC order.
#[inline]
pub(crate) fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ActiveSet::new(130);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        s.remove(63);
        assert!(!s.contains(63));
        s.set(5, true);
        s.set(5, false);
        assert!(!s.contains(5));
    }

    #[test]
    fn ascending_iteration_via_word_snapshots() {
        let mut s = ActiveSet::new(200);
        for i in [3usize, 64, 65, 199] {
            s.insert(i);
        }
        let mut seen = Vec::new();
        for wi in 0..s.num_words() {
            let mut word = s.word(wi);
            while word != 0 {
                seen.push((wi << 6) | word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        assert_eq!(seen, vec![3, 64, 65, 199]);
    }

    #[test]
    fn bits_walks_set_bits_ascending() {
        assert_eq!(bits(0).count(), 0);
        let word = 1 | 1 << 5 | 1 << 63;
        assert_eq!(bits(word).collect::<Vec<_>>(), vec![0, 5, 63]);
    }

    #[test]
    fn capacity_rounds_up_to_word() {
        assert_eq!(ActiveSet::new(0).num_words(), 0);
        assert_eq!(ActiveSet::new(1).num_words(), 1);
        assert_eq!(ActiveSet::new(64).num_words(), 1);
        assert_eq!(ActiveSet::new(65).num_words(), 2);
    }
}
