//! Synthetic traffic generation.
//!
//! Classic NoC evaluation patterns (uniform random, transpose,
//! bit-complement, tornado, hotspot, nearest-neighbor) plus the
//! [`TrafficSource`] trait that lets any generator — synthetic or
//! trace-driven — drive a [`Network`](crate::network::Network).

use crate::topology::{NodeId, Topo};
use rand::rngs::SmallRng;
use rand::{BernoulliThreshold, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Something that decides, cycle by cycle, which packets enter the
/// network.
pub trait TrafficSource {
    /// Yields the `(src, dst)` pairs of packets offered at `cycle` by
    /// invoking `offer` for each.
    fn generate(&mut self, cycle: u64, offer: &mut dyn FnMut(NodeId, NodeId));

    /// `true` when the source will never offer another packet (finite
    /// traces); synthetic sources run forever and return `false`.
    fn is_exhausted(&self) -> bool {
        false
    }
}

/// The spatial component of a synthetic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Destination drawn uniformly among all other nodes.
    UniformRandom,
    /// Node (x, y) sends to (y, x).
    Transpose,
    /// Node with index `i` sends to `N-1-i` (bit complement on square
    /// power-of-two meshes).
    BitComplement,
    /// Node (x, y) sends to ((x + ⌈W/2⌉) mod W, y) — adversarial for
    /// meshes.
    Tornado,
    /// A fraction `fraction` of traffic targets `hotspot`; the rest is
    /// uniform random.
    Hotspot {
        /// The hot node.
        hotspot: NodeId,
        /// Fraction of packets sent to the hot node (0.0..=1.0).
        fraction: f64,
    },
    /// Each node sends to its east neighbor (wrapping to the row start).
    NearestNeighbor,
}

impl TrafficPattern {
    /// Resolves the destination for a packet from `src`, using `rng` for
    /// the random patterns. Returns `None` when the pattern maps a node
    /// onto itself (such packets are skipped).
    ///
    /// Spatial patterns act on the topology's 2D projection (for a 3D
    /// mesh, the stacked `width × height·depth` plane), so every
    /// pattern is defined on every member of the zoo.
    pub fn destination(
        self,
        mesh: impl Into<Topo>,
        src: NodeId,
        rng: &mut SmallRng,
    ) -> Option<NodeId> {
        let mesh = mesh.into();
        let n = mesh.num_nodes() as u16;
        let c = mesh.coord(src);
        let dst = match self {
            TrafficPattern::UniformRandom => {
                let mut d = NodeId(rng.gen_range(0..n));
                while d == src {
                    d = NodeId(rng.gen_range(0..n));
                }
                d
            }
            TrafficPattern::Transpose => {
                let (w, h) = (mesh.width(), mesh.height());
                // Clamp for non-square meshes.
                mesh.node_at(c.y.min(w - 1), c.x.min(h - 1))
            }
            TrafficPattern::BitComplement => NodeId(n - 1 - src.0),
            TrafficPattern::Tornado => {
                let w = mesh.width();
                mesh.node_at((c.x + w.div_ceil(2)) % w, c.y)
            }
            TrafficPattern::Hotspot { hotspot, fraction } => {
                if rng.gen_bool(fraction.clamp(0.0, 1.0)) && hotspot != src {
                    hotspot
                } else {
                    let mut d = NodeId(rng.gen_range(0..n));
                    while d == src {
                        d = NodeId(rng.gen_range(0..n));
                    }
                    d
                }
            }
            TrafficPattern::NearestNeighbor => {
                let w = mesh.width();
                mesh.node_at((c.x + 1) % w, c.y)
            }
        };
        (dst != src).then_some(dst)
    }
}

/// A Bernoulli-injection synthetic source: each node independently offers
/// a packet with probability `injection_rate` per cycle, with destinations
/// drawn from a [`TrafficPattern`].
///
/// # Example
///
/// ```
/// use noc_sim::topology::Mesh;
/// use noc_sim::traffic::{SyntheticSource, TrafficPattern, TrafficSource};
///
/// let mesh = Mesh::new(8, 8);
/// let mut src = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.02, 7);
/// let mut offered = 0;
/// for cycle in 0..1000 {
///     src.generate(cycle, &mut |_, _| offered += 1);
/// }
/// // ~0.02 × 64 × 1000 = ~1280 packets.
/// assert!((800..1800).contains(&offered));
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    mesh: Topo,
    pattern: TrafficPattern,
    injection_rate: f64,
    /// `injection_rate` precompiled: one integer compare per node draw.
    inject: BernoulliThreshold,
    rng: SmallRng,
}

impl SyntheticSource {
    /// Creates a source with per-node, per-cycle packet-injection
    /// probability `injection_rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= injection_rate <= 1.0`.
    pub fn new(
        mesh: impl Into<Topo>,
        pattern: TrafficPattern,
        injection_rate: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&injection_rate),
            "injection rate must be a probability"
        );
        Self {
            mesh: mesh.into(),
            pattern,
            injection_rate,
            inject: BernoulliThreshold::from_probability(injection_rate),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The spatial pattern in use.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// The per-node injection probability.
    pub fn injection_rate(&self) -> f64 {
        self.injection_rate
    }
}

impl TrafficSource for SyntheticSource {
    fn generate(&mut self, _cycle: u64, offer: &mut dyn FnMut(NodeId, NodeId)) {
        for src in self.mesh.nodes() {
            if self.rng.gen_bool_at(self.inject) {
                if let Some(dst) = self.pattern.destination(self.mesh, src, &mut self.rng) {
                    offer(src, dst);
                }
            }
        }
    }
}

/// A source that offers nothing — useful for drain phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentSource;

impl TrafficSource for SilentSource {
    fn generate(&mut self, _cycle: u64, _offer: &mut dyn FnMut(NodeId, NodeId)) {}

    fn is_exhausted(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn uniform_never_targets_self() {
        let mesh = Mesh::new(8, 8);
        let mut r = rng();
        for src in mesh.nodes() {
            for _ in 0..20 {
                let d = TrafficPattern::UniformRandom
                    .destination(mesh, src, &mut r)
                    .expect("uniform always finds a destination");
                assert_ne!(d, src);
            }
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let mesh = Mesh::new(8, 8);
        let mut r = rng();
        let src = mesh.node_at(2, 5);
        let dst = TrafficPattern::Transpose
            .destination(mesh, src, &mut r)
            .expect("off-diagonal");
        assert_eq!(mesh.coord(dst).x, 5);
        assert_eq!(mesh.coord(dst).y, 2);
        // Diagonal nodes map to themselves and are skipped.
        assert_eq!(
            TrafficPattern::Transpose.destination(mesh, mesh.node_at(3, 3), &mut r),
            None
        );
    }

    #[test]
    fn bit_complement_mirrors_index() {
        let mesh = Mesh::new(8, 8);
        let mut r = rng();
        let d = TrafficPattern::BitComplement
            .destination(mesh, NodeId(0), &mut r)
            .expect("0 != 63");
        assert_eq!(d, NodeId(63));
    }

    #[test]
    fn tornado_shifts_half_width() {
        let mesh = Mesh::new(8, 8);
        let mut r = rng();
        let d = TrafficPattern::Tornado
            .destination(mesh, mesh.node_at(1, 3), &mut r)
            .expect("moves");
        assert_eq!(mesh.coord(d).x, 5);
        assert_eq!(mesh.coord(d).y, 3);
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mesh = Mesh::new(8, 8);
        let hot = mesh.node_at(4, 4);
        let mut r = rng();
        let pattern = TrafficPattern::Hotspot {
            hotspot: hot,
            fraction: 0.8,
        };
        let mut hits = 0;
        let trials = 1000;
        for _ in 0..trials {
            if pattern.destination(mesh, NodeId(0), &mut r) == Some(hot) {
                hits += 1;
            }
        }
        assert!(hits > trials / 2, "hotspot got only {hits}/{trials}");
    }

    #[test]
    fn nearest_neighbor_wraps_row() {
        let mesh = Mesh::new(4, 4);
        let mut r = rng();
        let d = TrafficPattern::NearestNeighbor
            .destination(mesh, mesh.node_at(3, 2), &mut r)
            .expect("wraps");
        assert_eq!(d, mesh.node_at(0, 2));
    }

    #[test]
    fn synthetic_rate_statistics() {
        let mesh = Mesh::new(8, 8);
        let mut src = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.05, 99);
        let mut offered = 0u64;
        for cycle in 0..2000 {
            src.generate(cycle, &mut |_, _| offered += 1);
        }
        let expected = 0.05 * 64.0 * 2000.0;
        let ratio = offered as f64 / expected;
        assert!(
            (0.9..1.1).contains(&ratio),
            "offered {offered}, expected ≈{expected}"
        );
    }

    #[test]
    fn synthetic_is_deterministic_per_seed() {
        let mesh = Mesh::new(4, 4);
        let collect = |seed| {
            let mut src = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, 0.1, seed);
            let mut v = Vec::new();
            for cycle in 0..200 {
                src.generate(cycle, &mut |s, d| v.push((s, d)));
            }
            v
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }

    #[test]
    fn silent_source_offers_nothing() {
        let mut s = SilentSource;
        let mut count = 0;
        s.generate(0, &mut |_, _| count += 1);
        assert_eq!(count, 0);
        assert!(s.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_injection_rate_panics() {
        let _ = SyntheticSource::new(Mesh::new(2, 2), TrafficPattern::UniformRandom, 1.5, 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The precompiled injection draw both traffic sources make is
        /// `gen_bool`: the same decision on every draw and the same
        /// stream position after, at 0 and 1 too (`gen_bool(0.0)` still
        /// consumes a draw, so the threshold path must as well).
        #[test]
        fn threshold_draw_is_gen_bool(seed: u64, pick in 0u8..4, x in 0.0f64..1.0) {
            let p = match pick {
                0 => 0.0,
                1 => 1.0,
                _ => x,
            };
            let threshold = BernoulliThreshold::from_probability(p);
            let mut by_float = SmallRng::seed_from_u64(seed);
            let mut by_int = by_float.clone();
            for _ in 0..64 {
                prop_assert_eq!(by_float.gen_bool(p), by_int.gen_bool_at(threshold));
            }
            prop_assert_eq!(by_float, by_int);
        }
    }
}
