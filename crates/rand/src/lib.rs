//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! The container this workspace builds in has no crates.io access, so the
//! real `rand` crate cannot be vendored. This shim provides the exact
//! surface the workspace uses — [`rngs::SmallRng`], [`Rng`],
//! [`SeedableRng`], `gen_range` over integer/float ranges, and
//! `gen_bool` (plus [`BernoulliThreshold`], its precompiled form) —
//! backed by xoshiro256++ seeded via splitmix64 (the same
//! generator family the real `SmallRng` uses on 64-bit targets).
//!
//! Determinism contract: for a fixed seed the emitted stream is stable
//! across runs and platforms. It is **not** bit-identical to upstream
//! `rand`; reproducibility within this repository is the goal.

use std::ops::Range;

/// Derives the seed of sub-stream `index` from `root_seed`.
///
/// This is the workspace-wide convention for splitting one master seed
/// into decorrelated per-task / per-router seeds (campaign tasks, RL
/// agents, traffic sources). It walks the SplitMix64 sequence: the state
/// is advanced `index + 1` gamma steps past `root_seed` and finalized
/// with the SplitMix64 output mix, so
///
/// * the mapping is a pure function of `(root_seed, index)` — stable
///   across runs, platforms, and worker counts, and
/// * distinct indices land in distinct, well-mixed positions of the
///   sequence — unlike ad-hoc `seed ^ (i << k)` arithmetic, which leaves
///   low bits correlated and collides for small roots.
///
/// # Example
///
/// ```
/// use rand::seed_stream;
///
/// let a = seed_stream(2019, 0);
/// let b = seed_stream(2019, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, seed_stream(2019, 0));
/// ```
#[must_use]
pub fn seed_stream(root_seed: u64, index: u64) -> u64 {
    const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    // State after `index + 1` SplitMix64 increments; the +1 keeps
    // `seed_stream(s, 0)` from degenerating to a mix of the raw root.
    let state = root_seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(index.wrapping_add(1)));
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing random-value methods (subset of `rand::Rng`).
pub trait Rng: RngCore + Sized {
    /// Uniform sample from `range` (half-open, as in `rand`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0,1]"
        );
        unit_f64(self.next_u64()) < p
    }

    /// [`gen_bool`](Rng::gen_bool) with the probability precompiled:
    /// the same accept set and the same one `u64` drawn, as one integer
    /// compare.
    #[inline]
    fn gen_bool_at(&mut self, threshold: BernoulliThreshold) -> bool {
        (self.next_u64() >> 11) < threshold.0
    }
}

impl<T: RngCore + Sized> Rng for T {}

/// A Bernoulli probability precompiled into the integer domain of
/// [`Rng::gen_bool`], for callers that draw many times at one
/// probability.
///
/// `gen_bool(p)` accepts a draw when `(bits >> 11) · 2⁻⁵³ < p`. Both
/// sides scale exactly by 2⁵³ (power-of-two scaling of an integer below
/// 2⁵³ is exact in f64), so the accept set is *identical* to comparing
/// the integer `bits >> 11` against `ceil(p · 2⁵³)`:
/// [`Rng::gen_bool_at`] replays `gen_bool` decision for decision without
/// the range assert and the int→float conversion per draw.
///
/// # Example
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::{BernoulliThreshold, Rng, SeedableRng};
///
/// let (mut a, mut b) = (SmallRng::seed_from_u64(1), SmallRng::seed_from_u64(1));
/// let t = BernoulliThreshold::from_probability(0.3);
/// for _ in 0..100 {
///     assert_eq!(a.gen_bool(0.3), b.gen_bool_at(t));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BernoulliThreshold(u64);

impl BernoulliThreshold {
    /// Compiles probability `p` (clamped to `[0, 1]`) into its exact
    /// integer acceptance threshold.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    pub fn from_probability(p: f64) -> Self {
        assert!(!p.is_nan(), "probability is NaN");
        let p = p.clamp(0.0, 1.0);
        Self((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// `true` when no draw can ever be accepted (p == 0).
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Maps 64 random bits onto `[0, 1)` with 53 bits of precision.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A range that can produce uniform samples (subset of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                // Lemire-style multiply-shift keeps bias below 2^-64.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start.wrapping_add(hi as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let u = unit_f64(rng.next_u64());
        let v = self.start + u * (self.end - self.start);
        // Floating rounding can land exactly on `end`; clamp back inside.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange for Range<f32> {
    type Output = f32;
    #[inline]
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f32 {
        let wide = Range {
            start: self.start as f64,
            end: self.end as f64,
        };
        wide.sample_from(rng) as f32
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the small, fast generator behind `rand`'s
    /// `SmallRng` on 64-bit platforms.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Self { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s2n = s2 ^ s0;
            let mut s3n = s3 ^ s1;
            let s1n = s1 ^ s2n;
            let s0n = s0 ^ s3n;
            s2n ^= t;
            s3n = s3n.rotate_left(45);
            self.s = [s0n, s1n, s2n, s3n];
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let draw = |seed| {
            let mut r = SmallRng::seed_from_u64(seed);
            (0..16).map(|_| r.gen_range(0u64..1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = r.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut r = SmallRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[r.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn gen_bool_edge_probabilities() {
        let mut r = SmallRng::seed_from_u64(3);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_roughly_calibrated() {
        let mut r = SmallRng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "p=0.3 gave {hits}/100000");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = SmallRng::seed_from_u64(5);
        let _ = r.gen_range(5u32..5);
    }
}

#[cfg(test)]
mod seed_stream_tests {
    use super::rngs::SmallRng;
    use super::{seed_stream, Rng, SeedableRng};

    #[test]
    fn pure_function_of_root_and_index() {
        assert_eq!(seed_stream(7, 3), seed_stream(7, 3));
        assert_ne!(seed_stream(7, 3), seed_stream(8, 3));
        assert_ne!(seed_stream(7, 3), seed_stream(7, 4));
    }

    #[test]
    fn distinct_indices_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for root in [0u64, 1, 2019, u64::MAX] {
            for index in 0..1024 {
                assert!(
                    seen.insert(seed_stream(root, index)),
                    "collision at root={root} index={index}"
                );
            }
            seen.clear();
        }
    }

    #[test]
    fn adjacent_indices_are_decorrelated() {
        // Adjacent streams must differ in roughly half their bits — the
        // avalanche property ad-hoc `seed ^ (i << k)` seeding lacks.
        let mut total_bits = 0u32;
        const PAIRS: u64 = 256;
        for i in 0..PAIRS {
            total_bits += (seed_stream(42, i) ^ seed_stream(42, i + 1)).count_ones();
        }
        let mean = f64::from(total_bits) / PAIRS as f64;
        assert!(
            (24.0..40.0).contains(&mean),
            "mean hamming distance {mean} not avalanche-like"
        );
    }

    #[test]
    fn streams_seed_decorrelated_generators() {
        // Generators seeded from adjacent streams must not produce
        // correlated bool draws.
        let mut a = SmallRng::seed_from_u64(seed_stream(9, 0));
        let mut b = SmallRng::seed_from_u64(seed_stream(9, 1));
        let agreements = (0..10_000)
            .filter(|_| a.gen_bool(0.5) == b.gen_bool(0.5))
            .count();
        assert!(
            (4_500..5_500).contains(&agreements),
            "streams agree on {agreements}/10000 draws"
        );
    }
}
