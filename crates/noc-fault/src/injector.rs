//! Deterministic fault sampling and bit-flip injection.
//!
//! [`FaultInjector`] owns the random stream that converts per-flit error
//! probabilities (from [`TimingErrorModel`])
//! into concrete flipped bit positions. Keeping the stream in one place
//! makes entire experiments reproducible from a single seed.

use crate::timing::TimingErrorModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Maximum bit flips a single fault event can produce (the flip-weight
/// distribution is over 1, 2, or 3 flips).
pub const MAX_FLIPS: usize = 3;

/// A per-flit error probability precompiled into the integer domain of
/// the RNG, so the hot-path Bernoulli draw is one `u64` compare instead
/// of an int→float conversion, multiply, and float compare per flit —
/// the cached `FaultTolerantProtocol` recomputes it once per control
/// epoch. The same type the traffic sources draw injections with.
pub use rand::BernoulliThreshold as ErrorThreshold;

/// Samples fault events and flips payload bits.
///
/// # Example
///
/// ```
/// use noc_fault::injector::FaultInjector;
/// use noc_fault::timing::TimingErrorModel;
///
/// let model = TimingErrorModel::default();
/// let mut injector = FaultInjector::new(7);
/// let mut errors = 0;
/// for _ in 0..10_000 {
///     if injector.sample_flips(&model, 0.01) > 0 {
///         errors += 1;
///     }
/// }
/// // ~1% of transfers err.
/// assert!((50..200).contains(&errors));
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SmallRng,
    faults_injected: u64,
    bits_flipped: u64,
}

impl FaultInjector {
    /// Creates an injector with its own deterministic stream.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            faults_injected: 0,
            bits_flipped: 0,
        }
    }

    /// Draws whether a transfer errs (probability `p_error`) and, if so,
    /// how many bits flip (per the model's flip-weight distribution).
    /// Returns 0 for a clean transfer.
    pub fn sample_flips(&mut self, model: &TimingErrorModel, p_error: f64) -> u8 {
        self.sample_flips_at(model, ErrorThreshold::from_probability(p_error))
    }

    /// Like [`sample_flips`](Self::sample_flips) but with the
    /// probability precompiled into an [`ErrorThreshold`] — the hot
    /// path when the caller caches thresholds per control epoch.
    ///
    /// RNG draw order is identical to `sample_flips`: a zero threshold
    /// consumes no draw (as `p == 0.0` did), any other threshold
    /// consumes exactly one `u64`, and the accept set per draw is
    /// bit-for-bit the same as `gen_bool`'s.
    pub fn sample_flips_at(&mut self, model: &TimingErrorModel, threshold: ErrorThreshold) -> u8 {
        if threshold.is_zero() || !self.rng.gen_bool_at(threshold) {
            return 0;
        }
        let flips = model.flips_for_draw(self.rng.gen_range(0.0..1.0));
        self.faults_injected += 1;
        self.bits_flipped += u64::from(flips);
        flips
    }

    /// Chooses `count` *distinct* bit positions in `[0, width)`.
    ///
    /// # Panics
    ///
    /// Panics if `count as u32 > width`.
    pub fn pick_bits(&mut self, count: u8, width: u32) -> Vec<u32> {
        assert!(u32::from(count) <= width, "more flips than bits");
        let mut bits = Vec::with_capacity(count as usize);
        while bits.len() < count as usize {
            let bit = self.rng.gen_range(0..width);
            if !bits.contains(&bit) {
                bits.push(bit);
            }
        }
        bits
    }

    /// Allocation-free variant of [`pick_bits`](Self::pick_bits) for the
    /// per-flit fault path: returns the chosen positions in a fixed
    /// array plus the count. Uses the same rejection-sampling loop, so
    /// for a given RNG state it draws exactly the same values and
    /// produces the same positions as `pick_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `count > MAX_FLIPS` or `count as u32 > width`.
    pub fn pick_bits_fixed(&mut self, count: u8, width: u32) -> ([u32; MAX_FLIPS], usize) {
        assert!(usize::from(count) <= MAX_FLIPS, "more than MAX_FLIPS flips");
        assert!(u32::from(count) <= width, "more flips than bits");
        let mut bits = [0u32; MAX_FLIPS];
        let mut n = 0usize;
        while n < count as usize {
            let bit = self.rng.gen_range(0..width);
            if !bits[..n].contains(&bit) {
                bits[n] = bit;
                n += 1;
            }
        }
        (bits, n)
    }

    /// Total error events injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Total bits flipped so far.
    pub fn bits_flipped(&self) -> u64 {
        self.bits_flipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_errs() {
        let model = TimingErrorModel::default();
        let mut inj = FaultInjector::new(1);
        for _ in 0..1000 {
            assert_eq!(inj.sample_flips(&model, 0.0), 0);
        }
        assert_eq!(inj.faults_injected(), 0);
        assert_eq!(inj.bits_flipped(), 0);
    }

    #[test]
    fn unit_probability_always_errs() {
        let model = TimingErrorModel::default();
        let mut inj = FaultInjector::new(2);
        for _ in 0..100 {
            assert!(inj.sample_flips(&model, 1.0) >= 1);
        }
        assert_eq!(inj.faults_injected(), 100);
    }

    #[test]
    fn error_rate_statistics() {
        let model = TimingErrorModel::default();
        let mut inj = FaultInjector::new(3);
        let trials = 100_000;
        let mut errors = 0u64;
        for _ in 0..trials {
            if inj.sample_flips(&model, 0.05) > 0 {
                errors += 1;
            }
        }
        let rate = errors as f64 / trials as f64;
        assert!((0.045..0.055).contains(&rate), "rate {rate}");
    }

    #[test]
    fn single_flips_dominate() {
        let model = TimingErrorModel::default();
        let mut inj = FaultInjector::new(4);
        let mut counts = [0u64; 4];
        for _ in 0..10_000 {
            counts[inj.sample_flips(&model, 1.0) as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[3]);
    }

    #[test]
    fn picked_bits_are_distinct_and_in_range() {
        let mut inj = FaultInjector::new(5);
        for _ in 0..100 {
            let bits = inj.pick_bits(3, 72);
            assert_eq!(bits.len(), 3);
            assert!(bits.iter().all(|&b| b < 72));
            let mut sorted = bits.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let model = TimingErrorModel::default();
        let run = |seed| {
            let mut inj = FaultInjector::new(seed);
            (0..100)
                .map(|_| inj.sample_flips(&model, 0.3))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "more flips than bits")]
    fn too_many_flips_panics() {
        let mut inj = FaultInjector::new(0);
        let _ = inj.pick_bits(5, 4);
    }

    /// The integer-threshold fast path must replay `sample_flips`
    /// exactly: same accepts, same flip counts, same stream position.
    #[test]
    fn threshold_path_replays_float_path_exactly() {
        let model = TimingErrorModel::default();
        for p in [0.0, 1e-12, 1e-6, 1e-3, 0.04999, 0.3, 0.5, 0.999, 1.0] {
            let mut a = FaultInjector::new(77);
            let mut b = FaultInjector::new(77);
            let thr = ErrorThreshold::from_probability(p);
            assert_eq!(thr.is_zero(), p == 0.0);
            for i in 0..5_000 {
                assert_eq!(
                    a.sample_flips(&model, p),
                    b.sample_flips_at(&model, thr),
                    "p={p} draw {i} diverged"
                );
            }
            assert_eq!(a.faults_injected(), b.faults_injected());
            assert_eq!(a.bits_flipped(), b.bits_flipped());
            // Streams are still in lockstep after the sweep.
            assert_eq!(a.pick_bits(3, 128), b.pick_bits(3, 128));
        }
    }

    /// The allocation-free pick must draw the identical positions.
    #[test]
    fn pick_bits_fixed_matches_pick_bits() {
        for seed in 0..20u64 {
            let mut a = FaultInjector::new(seed);
            let mut b = FaultInjector::new(seed);
            for count in [1u8, 2, 3, 1, 3, 2] {
                let vec = a.pick_bits(count, 72);
                let (arr, n) = b.pick_bits_fixed(count, 72);
                assert_eq!(vec.as_slice(), &arr[..n]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "MAX_FLIPS")]
    fn pick_bits_fixed_caps_count() {
        let mut inj = FaultInjector::new(0);
        let _ = inj.pick_bits_fixed(4, 128);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn flips_bounded(seed: u64, p in 0.0f64..1.0) {
            let model = TimingErrorModel::default();
            let mut inj = FaultInjector::new(seed);
            let f = inj.sample_flips(&model, p);
            prop_assert!(f <= 3);
        }

        #[test]
        fn bits_unique(seed: u64, count in 1u8..4, width in 4u32..128) {
            let mut inj = FaultInjector::new(seed);
            let bits = inj.pick_bits(count, width);
            let mut sorted = bits.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), bits.len());
        }
    }
}
