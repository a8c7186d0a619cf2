//! PARSEC-like workload profiles.
//!
//! The paper replays packet traces captured from PARSEC applications on a
//! 64-core CMP. Those traces are not redistributable, so each benchmark
//! is modeled as a *phase-structured synthetic profile* — a repeating
//! schedule of (duration, injection-rate, spatial-pattern) phases whose
//! aggregate intensity, burstiness, and locality match the published
//! qualitative characterization of the application (see DESIGN.md's
//! substitution table). A profile drives the simulator as a phased
//! [`SyntheticSource`].

use noc_sim::topology::{NodeId, Topo};
use noc_sim::traffic::{SyntheticSource, TrafficPattern};

pub use noc_sim::traffic::PhaseSpec;

/// A named, finite workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name (PARSEC application).
    pub name: &'static str,
    /// Phases, cycled until `duration_cycles` elapse.
    pub phases: Vec<PhaseSpec>,
    /// Total cycles over which packets are offered.
    pub duration_cycles: u64,
}

impl WorkloadProfile {
    /// Mean injection rate over one phase cycle (packets/node/cycle).
    pub fn mean_injection_rate(&self) -> f64 {
        let total: u64 = self.phases.iter().map(|p| p.cycles).sum();
        if total == 0 {
            return 0.0;
        }
        self.phases
            .iter()
            .map(|p| p.injection_rate * p.cycles as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Whether every node this workload's traffic patterns reference
    /// exists in `mesh`. Profiles that pin a coordinator node (e.g.
    /// streamcluster's hotspot at (3,3) of the 8×8 mesh) only run on
    /// meshes that contain it.
    pub fn fits_mesh(&self, mesh: impl Into<Topo>) -> bool {
        let mesh = mesh.into();
        self.phases.iter().all(|p| match p.pattern {
            TrafficPattern::Hotspot { hotspot, .. } => hotspot.index() < mesh.num_nodes(),
            _ => true,
        })
    }

    /// All eleven PARSEC profiles, in the figures' order.
    pub fn all() -> Vec<WorkloadProfile> {
        vec![
            Self::blackscholes(),
            Self::bodytrack(),
            Self::canneal(),
            Self::dedup(),
            Self::ferret(),
            Self::fluidanimate(),
            Self::freqmine(),
            Self::streamcluster(),
            Self::swaptions(),
            Self::vips(),
            Self::x264(),
        ]
    }

    /// The profile called `name`, built alone: looking one name up does
    /// not build the other ten.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "blackscholes" => Self::blackscholes(),
            "bodytrack" => Self::bodytrack(),
            "canneal" => Self::canneal(),
            "dedup" => Self::dedup(),
            "ferret" => Self::ferret(),
            "fluidanimate" => Self::fluidanimate(),
            "freqmine" => Self::freqmine(),
            "streamcluster" => Self::streamcluster(),
            "swaptions" => Self::swaptions(),
            "vips" => Self::vips(),
            "x264" => Self::x264(),
            _ => return None,
        })
    }

    /// `blackscholes` — embarrassingly parallel option pricing: light,
    /// steady, uniform traffic.
    pub fn blackscholes() -> Self {
        Self {
            name: "blackscholes",
            phases: vec![PhaseSpec {
                cycles: 1_000,
                injection_rate: 0.006,
                pattern: TrafficPattern::UniformRandom,
            }],
            duration_cycles: 30_000,
        }
    }

    /// `bodytrack` — computer vision with barrier phases: alternating
    /// bursts and lulls.
    pub fn bodytrack() -> Self {
        Self {
            name: "bodytrack",
            phases: vec![
                PhaseSpec {
                    cycles: 600,
                    injection_rate: 0.022,
                    pattern: TrafficPattern::UniformRandom,
                },
                PhaseSpec {
                    cycles: 400,
                    injection_rate: 0.004,
                    pattern: TrafficPattern::UniformRandom,
                },
            ],
            duration_cycles: 30_000,
        }
    }

    /// `canneal` — cache-hostile simulated annealing: sustained heavy
    /// irregular traffic.
    pub fn canneal() -> Self {
        Self {
            name: "canneal",
            phases: vec![
                PhaseSpec {
                    cycles: 800,
                    injection_rate: 0.019,
                    pattern: TrafficPattern::UniformRandom,
                },
                PhaseSpec {
                    cycles: 200,
                    injection_rate: 0.014,
                    pattern: TrafficPattern::BitComplement,
                },
            ],
            duration_cycles: 30_000,
        }
    }

    /// `dedup` — pipelined compression: moderate traffic with a
    /// transpose-like pipeline pattern.
    pub fn dedup() -> Self {
        Self {
            name: "dedup",
            phases: vec![
                PhaseSpec {
                    cycles: 700,
                    injection_rate: 0.017,
                    pattern: TrafficPattern::Transpose,
                },
                PhaseSpec {
                    cycles: 300,
                    injection_rate: 0.012,
                    pattern: TrafficPattern::UniformRandom,
                },
            ],
            duration_cycles: 30_000,
        }
    }

    /// `ferret` — content-based similarity search: a deep pipeline with
    /// moderate-high, stage-to-stage (transpose-like) traffic.
    pub fn ferret() -> Self {
        Self {
            name: "ferret",
            phases: vec![
                PhaseSpec {
                    cycles: 600,
                    injection_rate: 0.016,
                    pattern: TrafficPattern::UniformRandom,
                },
                PhaseSpec {
                    cycles: 400,
                    injection_rate: 0.012,
                    pattern: TrafficPattern::Transpose,
                },
            ],
            duration_cycles: 30_000,
        }
    }

    /// `freqmine` — frequent-itemset mining: bursty tree traversals over
    /// a shared structure.
    pub fn freqmine() -> Self {
        Self {
            name: "freqmine",
            phases: vec![
                PhaseSpec {
                    cycles: 500,
                    injection_rate: 0.024,
                    pattern: TrafficPattern::UniformRandom,
                },
                PhaseSpec {
                    cycles: 500,
                    injection_rate: 0.008,
                    pattern: TrafficPattern::UniformRandom,
                },
            ],
            duration_cycles: 30_000,
        }
    }

    /// `vips` — image-processing pipeline: steady moderate traffic.
    pub fn vips() -> Self {
        Self {
            name: "vips",
            phases: vec![PhaseSpec {
                cycles: 1_000,
                injection_rate: 0.012,
                pattern: TrafficPattern::UniformRandom,
            }],
            duration_cycles: 30_000,
        }
    }

    /// `fluidanimate` — particle simulation with spatial decomposition:
    /// strongly neighbor-local traffic.
    pub fn fluidanimate() -> Self {
        Self {
            name: "fluidanimate",
            phases: vec![
                PhaseSpec {
                    cycles: 800,
                    injection_rate: 0.020,
                    pattern: TrafficPattern::NearestNeighbor,
                },
                PhaseSpec {
                    cycles: 200,
                    injection_rate: 0.012,
                    pattern: TrafficPattern::UniformRandom,
                },
            ],
            duration_cycles: 30_000,
        }
    }

    /// `streamcluster` — online clustering: heavy traffic concentrated on
    /// a coordinator node (hotspot).
    pub fn streamcluster() -> Self {
        Self {
            name: "streamcluster",
            phases: vec![PhaseSpec {
                cycles: 1_000,
                injection_rate: 0.018,
                pattern: TrafficPattern::Hotspot {
                    hotspot: NodeId(27), // (3,3) in the 8×8 mesh
                    // 0.018 × 64 × 0.15 × 4 ≈ 0.69 flits/cycle at the hot
                    // ejection port — heavily loaded but below saturation.
                    fraction: 0.15,
                },
            }],
            duration_cycles: 30_000,
        }
    }

    /// `swaptions` — Monte-Carlo pricing: very light uniform traffic.
    pub fn swaptions() -> Self {
        Self {
            name: "swaptions",
            phases: vec![PhaseSpec {
                cycles: 1_000,
                injection_rate: 0.004,
                pattern: TrafficPattern::UniformRandom,
            }],
            duration_cycles: 30_000,
        }
    }

    /// `x264` — video encoding: heavy bursty traffic with inter-frame
    /// dependencies (tornado-like wavefront).
    pub fn x264() -> Self {
        Self {
            name: "x264",
            phases: vec![
                PhaseSpec {
                    cycles: 500,
                    injection_rate: 0.026,
                    pattern: TrafficPattern::Tornado,
                },
                PhaseSpec {
                    cycles: 500,
                    injection_rate: 0.010,
                    pattern: TrafficPattern::UniformRandom,
                },
            ],
            duration_cycles: 30_000,
        }
    }

    /// Instantiates the replayable traffic source for `mesh`: the
    /// phases cycled for `duration_cycles` from its first call.
    pub fn source(&self, mesh: impl Into<Topo>, seed: u64) -> SyntheticSource {
        SyntheticSource::phased(mesh, &self.phases, Some(self.duration_cycles), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::topology::Mesh;
    use noc_sim::traffic::TrafficSource;

    #[test]
    fn eleven_benchmarks_with_unique_names() {
        let all = WorkloadProfile::all();
        assert_eq!(all.len(), 11);
        let mut names: Vec<&str> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn by_name_finds_exactly_the_listed_profiles() {
        for w in WorkloadProfile::all() {
            assert_eq!(WorkloadProfile::by_name(w.name), Some(w));
        }
        assert_eq!(WorkloadProfile::by_name("no-such-workload"), None);
        assert_eq!(WorkloadProfile::by_name("Canneal"), None);
    }

    #[test]
    fn intensity_ordering_matches_characterization() {
        // swaptions/blackscholes are light; canneal/x264 are heavy.
        let light = WorkloadProfile::swaptions().mean_injection_rate();
        let heavy = WorkloadProfile::canneal().mean_injection_rate();
        assert!(heavy > 3.0 * light);
        assert!(
            WorkloadProfile::blackscholes().mean_injection_rate()
                < WorkloadProfile::x264().mean_injection_rate()
        );
    }

    #[test]
    fn rates_stay_below_mesh_saturation() {
        // 8×8 XY uniform saturates near 0.03 packets/node/cycle for
        // 4-flit packets; profiles must stay tractable on average.
        for w in WorkloadProfile::all() {
            let rate = w.mean_injection_rate();
            assert!(rate > 0.0 && rate < 0.03, "{} rate {rate}", w.name);
        }
    }

    #[test]
    fn source_offers_expected_volume() {
        let mesh = Mesh::new(8, 8);
        let w = WorkloadProfile::bodytrack();
        let mut src = w.source(mesh, 11);
        let mut offered = 0u64;
        for cycle in 0..w.duration_cycles {
            src.generate(cycle, &mut |_, _| offered += 1);
        }
        let expected = w.mean_injection_rate() * 64.0 * w.duration_cycles as f64;
        let ratio = offered as f64 / expected;
        assert!(
            (0.9..1.1).contains(&ratio),
            "offered {offered} vs ≈{expected}"
        );
    }

    #[test]
    fn source_stops_after_duration() {
        let mesh = Mesh::new(8, 8);
        let w = WorkloadProfile::blackscholes();
        let mut src = w.source(mesh, 3);
        for cycle in 0..w.duration_cycles {
            src.generate(cycle, &mut |_, _| {});
        }
        let mut late = 0;
        for cycle in w.duration_cycles..w.duration_cycles + 5_000 {
            src.generate(cycle, &mut |_, _| late += 1);
        }
        assert_eq!(late, 0, "no packets after the duration");
    }

    #[test]
    fn source_start_is_relative_to_first_call() {
        let mesh = Mesh::new(8, 8);
        let w = WorkloadProfile::canneal();
        let mut src = w.source(mesh, 5);
        // First call at cycle 1_000_000 still injects (offsets are
        // relative).
        let mut n = 0;
        for cycle in 1_000_000..1_002_000 {
            src.generate(cycle, &mut |_, _| n += 1);
        }
        assert!(n > 0);
    }

    #[test]
    fn phases_alternate() {
        let mesh = Mesh::new(8, 8);
        let w = WorkloadProfile::bodytrack();
        let mut src = w.source(mesh, 9);
        let mut burst = 0u64;
        let mut lull = 0u64;
        for cycle in 0..1_000 {
            let counter = if cycle % 1_000 < 600 {
                &mut burst
            } else {
                &mut lull
            };
            src.generate(cycle, &mut |_, _| *counter += 1);
        }
        // Burst phase rate is 5.5× the lull rate over 1.5× the cycles.
        assert!(burst > 2 * lull, "burst {burst} vs lull {lull}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mesh = Mesh::new(8, 8);
        let collect = |seed| {
            let mut src = WorkloadProfile::dedup().source(mesh, seed);
            let mut v = Vec::new();
            for cycle in 0..2_000 {
                src.generate(cycle, &mut |s, d| v.push((s, d)));
            }
            v
        };
        assert_eq!(collect(1), collect(1));
        assert_ne!(collect(1), collect(2));
    }

    /// A one-phase profile is the plain synthetic source: the same
    /// `(cycle, src, dst)` stream from the same pattern, rate and seed.
    /// A two-phase profile offers nothing once its duration is over.
    #[test]
    fn profile_source_is_the_synthetic_stream() {
        let mesh = Mesh::new(8, 8);
        let (pattern, rate, seed) = (TrafficPattern::Transpose, 0.02, 0x5EED_0007);
        let one_phase = WorkloadProfile {
            name: "one-phase",
            phases: vec![PhaseSpec {
                cycles: 300,
                injection_rate: rate,
                pattern,
            }],
            duration_cycles: 5_000,
        };
        let collect = |src: &mut dyn TrafficSource, cycles: u64| {
            let mut v = Vec::new();
            for cycle in 0..cycles {
                src.generate(cycle, &mut |s, d| v.push((cycle, s, d)));
            }
            v
        };
        let profiled = collect(&mut one_phase.source(mesh, seed), 2_000);
        let synthetic = collect(&mut SyntheticSource::new(mesh, pattern, rate, seed), 2_000);
        assert!(profiled.len() > 500, "{} offers", profiled.len());
        assert_eq!(profiled, synthetic);

        let two_phase = WorkloadProfile {
            duration_cycles: 1_500,
            ..WorkloadProfile::bodytrack()
        };
        let offers = collect(&mut two_phase.source(mesh, seed), 4_000);
        assert!(offers.iter().any(|&(c, ..)| c >= 1_400));
        assert!(offers.iter().all(|&(c, ..)| c < two_phase.duration_cycles));
    }

    #[test]
    #[should_panic(expected = "needs phases")]
    fn empty_profile_panics() {
        let w = WorkloadProfile {
            name: "empty",
            phases: vec![],
            duration_cycles: 100,
        };
        let _ = w.source(Mesh::new(2, 2), 0);
    }
}
