//! Round-robin arbitration.
//!
//! Virtual-channel allocation and switch allocation both resolve
//! multi-requester conflicts with rotating-priority (round-robin)
//! arbiters, the structure used by the canonical 4-stage VC router.

use serde::{Deserialize, Serialize};

/// A rotating-priority arbiter over `n` requesters.
///
/// Fairness property: a requester that keeps requesting is granted within
/// `n` invocations regardless of competing requesters.
///
/// # Example
///
/// ```
/// use noc_sim::arbiter::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(4);
/// assert_eq!(arb.grant(&[true, true, false, false]), Some(0));
/// // Priority rotates past the last winner.
/// assert_eq!(arb.grant(&[true, true, false, false]), Some(1));
/// assert_eq!(arb.grant(&[true, true, false, false]), Some(0));
/// assert_eq!(arb.grant(&[false, false, false, false]), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRobinArbiter {
    /// Requester slots, at most 64 (a router's input VCs fill one `u64`
    /// request word) — a byte, so a router's arbiters share a cache line.
    n: u8,
    /// Index with the highest priority on the next grant.
    next: u8,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        assert!(n <= 64, "arbiter serves at most 64 requesters");
        Self {
            n: n as u8,
            next: 0,
        }
    }

    /// Number of requester slots.
    pub fn len(&self) -> usize {
        usize::from(self.n)
    }

    /// Always `false`; arbiters have at least one slot.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grants one of the asserted requests, rotating priority past the
    /// winner. Returns `None` when no request is asserted.
    ///
    /// The slice form is the reference model's arbiter (`noc-verify`
    /// calls it every cycle); the simulator itself grants through
    /// [`grant_mask`](Self::grant_mask).
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.len(), "request vector size mismatch");
        let mut idx = usize::from(self.next);
        for _ in 0..self.n {
            if requests[idx] {
                self.next = self.after(idx);
                return Some(idx);
            }
            idx = usize::from(self.after(idx));
        }
        None
    }

    /// The slot after `idx`, wrapping — a compare, not a divide: both
    /// grant forms run per router per cycle.
    #[inline]
    fn after(&self, idx: usize) -> u8 {
        if idx + 1 == usize::from(self.n) {
            0
        } else {
            idx as u8 + 1
        }
    }

    /// [`grant`](Self::grant) over a request word: bit `i` set means
    /// requester `i` asserts. Same winner, same pointer update — the
    /// first set bit at or above `next`, else the lowest set bit.
    ///
    /// Requires `self.len() <= 64` and no bit at or above `self.len()`.
    #[inline]
    pub fn grant_mask(&mut self, requests: u64) -> Option<usize> {
        debug_assert!(
            self.n == 64 || requests >> self.n == 0,
            "request bit beyond the arbiter's {} slots",
            self.n
        );
        if requests == 0 {
            return None;
        }
        // `next < n <= 64`, so the shift is in range.
        let next = usize::from(self.next);
        let ahead = requests >> next;
        let idx = if ahead != 0 {
            next + ahead.trailing_zeros() as usize
        } else {
            requests.trailing_zeros() as usize
        };
        self.next = self.after(idx);
        Some(idx)
    }

    /// Resets the priority pointer (used when re-seeding experiments).
    pub fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requester_always_wins() {
        let mut arb = RoundRobinArbiter::new(3);
        for _ in 0..10 {
            assert_eq!(arb.grant(&[false, true, false]), Some(1));
        }
    }

    #[test]
    fn no_request_no_grant() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.grant(&[false, false]), None);
    }

    #[test]
    fn grants_rotate_fairly() {
        let mut arb = RoundRobinArbiter::new(3);
        let all = [true, true, true];
        let seq: Vec<_> = (0..6).map(|_| arb.grant(&all).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn starvation_freedom_within_n_rounds() {
        let mut arb = RoundRobinArbiter::new(4);
        // Requester 3 keeps requesting while everyone else also requests.
        let all = [true; 4];
        let mut granted = false;
        for _ in 0..4 {
            if arb.grant(&all) == Some(3) {
                granted = true;
            }
        }
        assert!(granted, "requester 3 starved");
    }

    #[test]
    fn reset_restores_initial_priority() {
        let mut arb = RoundRobinArbiter::new(2);
        arb.grant(&[true, true]);
        arb.reset();
        assert_eq!(arb.grant(&[true, true]), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_size_panics() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_request_size_panics() {
        let mut arb = RoundRobinArbiter::new(2);
        let _ = arb.grant(&[true]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The grant, when present, is always an asserted request.
        #[test]
        fn grant_is_a_requester(requests in proptest::collection::vec(any::<bool>(), 1..16)) {
            let mut arb = RoundRobinArbiter::new(requests.len());
            match arb.grant(&requests) {
                Some(idx) => prop_assert!(requests[idx]),
                None => prop_assert!(requests.iter().all(|&r| !r)),
            }
        }

        /// Over n consecutive all-request rounds every index is granted
        /// exactly once (perfect fairness).
        #[test]
        fn all_requesters_served_in_n_rounds(n in 1usize..12) {
            let mut arb = RoundRobinArbiter::new(n);
            let all = vec![true; n];
            let mut seen = vec![false; n];
            for _ in 0..n {
                let g = arb.grant(&all).expect("requests asserted");
                prop_assert!(!seen[g], "index granted twice in one rotation");
                seen[g] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        /// The word form is the slice form: same winner and same pointer
        /// afterwards from any pointer position, at every width a router
        /// can have (`ports × VCs ≤ 64`), the empty word included.
        #[test]
        fn grant_mask_matches_grant(
            n in 1usize..65,
            next in 0usize..64,
            words in proptest::collection::vec(any::<u64>(), 1..8),
        ) {
            let mut by_slice = RoundRobinArbiter {
                n: n as u8,
                next: (next % n) as u8,
            };
            let mut by_word = by_slice.clone();
            let keep = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            for word in words.into_iter().chain([0]) {
                let word = word & keep;
                let slice: Vec<bool> = (0..n).map(|i| word >> i & 1 == 1).collect();
                prop_assert_eq!(by_word.grant_mask(word), by_slice.grant(&slice));
                prop_assert_eq!(&by_word, &by_slice);
            }
        }
    }
}
