//! Differential-oracle integration tests.
//!
//! * A smoke batch of generated cases must agree bit-for-bit between the
//!   optimized kernel and the reference model (the CI fuzz job runs the
//!   same oracle at scale).
//! * A deliberately planted bug — [`StaleTemperatureBackend`] drops node
//!   0's temperature updates, the classic stale-cache mistake the
//!   epoch-cached error probabilities could make — must be caught by the
//!   differential driver and survive shrinking to a minimal, replayable,
//!   still-divergent case.

use noc_sim::network::Network;
use rlnoc_core::fuzzcase::FuzzCase;
use rlnoc_core::protocol::FaultTolerantProtocol;
use rlnoc_verify::{run_case, run_case_with, shrink, StaleTemperatureBackend};

const SEED: u64 = 0x5EED_F00D;

type Optimized = Network<FaultTolerantProtocol>;

#[test]
fn optimized_and_reference_agree_on_smoke_batch() {
    for i in 0..6 {
        let case = FuzzCase::generate(SEED, i);
        let out = run_case(&case);
        assert!(
            out.agrees(),
            "case {i} diverged:\n{case}\ndiffs: {:?}",
            out.diffs
        );
    }
}

/// The default `verify_fuzz` stream (seed `0x5EED_F022`, 200 cases)
/// must exercise the hard-fault machinery: pin that it contains both
/// hard-fault and fault-free cases, so nobody can accidentally narrow
/// the generator and silently stop differential-testing faults.
#[test]
fn default_fuzz_stream_contains_hard_fault_and_fault_free_cases() {
    const DEFAULT_SEED: u64 = 0x5EED_F022;
    const DEFAULT_CASES: u64 = 200;
    let faulted = (0..DEFAULT_CASES)
        .filter(|&i| FuzzCase::generate(DEFAULT_SEED, i).hard_faults.is_some())
        .count();
    assert!(
        faulted > 0,
        "the default fuzz stream must contain hard-fault cases"
    );
    assert!(
        faulted < DEFAULT_CASES as usize,
        "the default fuzz stream must also keep fault-free cases"
    );
}

/// The default `verify_fuzz` stream must keep exercising the whole
/// topology zoo: every zoo member (2D mesh, torus, folded torus, 3D
/// mesh) must appear within the default 200 cases, and each of the
/// wrap-link topologies plus the 3D mesh must also appear *hard
/// faulted*, so the differential oracle keeps covering date-line VC
/// routing and up*/down* recovery on non-mesh graphs. Narrowing the
/// generator back to plain meshes fails here, loudly.
#[test]
fn default_fuzz_stream_covers_the_topology_zoo() {
    use noc_sim::topology::Topo;
    const DEFAULT_SEED: u64 = 0x5EED_F022;
    const DEFAULT_CASES: u64 = 200;
    // [mesh, torus, ftorus, 3d] × [fault-free, hard-faulted]
    let mut seen = [[0usize; 2]; 4];
    for i in 0..DEFAULT_CASES {
        let case = FuzzCase::generate(DEFAULT_SEED, i);
        let kind = match case.topo {
            Topo::Mesh(_) => 0,
            Topo::Torus(_) => 1,
            Topo::FoldedTorus(_) => 2,
            Topo::Mesh3d(_) => 3,
        };
        seen[kind][usize::from(case.hard_faults.is_some())] += 1;
    }
    for (kind, name) in ["mesh", "torus", "ftorus", "3d"].iter().enumerate() {
        assert!(
            seen[kind][0] > 0,
            "default stream lost fault-free {name} cases: {seen:?}"
        );
        assert!(
            seen[kind][1] > 0,
            "default stream lost hard-faulted {name} cases: {seen:?}"
        );
    }
}

/// A generated hard-fault case must agree between engines — the quick
/// in-tree version of what the fuzz binary runs at scale.
#[test]
fn optimized_and_reference_agree_on_a_hard_fault_case() {
    let case = (0..64)
        .map(|i| FuzzCase::generate(SEED, i))
        .find(|c| c.hard_faults.is_some())
        .expect("the stream must yield a hard-fault case quickly");
    let out = run_case(&case);
    assert!(
        out.agrees(),
        "hard-fault case diverged:\n{case}\ndiffs: {:?}",
        out.diffs
    );
}

fn mutant_diverges(case: &FuzzCase) -> bool {
    !run_case_with::<Optimized, StaleTemperatureBackend>(case).agrees()
}

#[test]
fn planted_stale_temperature_bug_is_caught_and_shrunk() {
    let case = (0..24)
        .map(|i| FuzzCase::generate(SEED, i))
        .find(mutant_diverges)
        .expect("the planted stale-temperature bug must diverge within 24 generated cases");

    let minimal = shrink(&case, 32, mutant_diverges);
    minimal
        .validate()
        .expect("shrinking preserves well-formedness");
    assert!(
        mutant_diverges(&minimal),
        "shrunken case must still reproduce the divergence"
    );
    // The minimal case replays exactly through the on-disk format the
    // fuzzer writes for CI artifacts.
    let reparsed = FuzzCase::from_text(&minimal.to_text()).expect("case file round-trips");
    assert_eq!(reparsed, minimal);
    assert!(mutant_diverges(&reparsed));
}
