//! Batch-aware invariant coverage with the runtime checkers armed.
//!
//! Compiled only under the `verify` feature. Two angles on the
//! replicate-group sharing machinery under `RLNOC_VERIFY=1`:
//!
//! * a **positive run** — a hard-faulted batched replicate group, with
//!   per-lane flit-arena and credit conservation re-derived from scratch
//!   every simulated cycle inside each lane's `Network`, must still
//!   match its serial lanes bit for bit;
//! * a **corruption injection** — a deliberately wrong table planted in
//!   the shared fault-route cache must be caught by the armed coherence
//!   check (recompute-and-compare on every cache hit), proving the
//!   check has teeth rather than silently steering packets.

#![cfg(feature = "verify")]

use noc_fault::timing::TimingErrorModel;
use noc_fault::variation::VariationMap;
use noc_sim::config::NocConfig;
use noc_sim::network::{HardFaultEvent, HardFaultKind, Network, SharedTables};
use noc_sim::routing::FaultRoutes;
use noc_sim::topology::NodeId;
use rlnoc_core::fuzzcase::FuzzCase;
use rlnoc_core::protocol::FaultTolerantProtocol;
use rlnoc_verify::run_case_batched;

/// Must run before the first `Network::step` of this process caches the
/// arming verdict; every test in this binary arms first thing, so the
/// verdict is `armed` regardless of test order.
fn arm() {
    std::env::set_var("RLNOC_VERIFY", "1");
}

#[test]
fn batched_faulted_lanes_uphold_armed_invariants() {
    arm();
    let case = (0..64)
        .map(|i| FuzzCase::generate(0x5EED_BA7C, i))
        .find(|c| c.hard_faults.is_some())
        .expect("the stream must yield a hard-fault case quickly");
    let out = run_case_batched(&case, 2);
    assert!(
        out.agrees(),
        "armed batched lanes diverged:\n{}\ndiffs: {:?}",
        out.case,
        out.diffs
    );
}

#[test]
#[should_panic(expected = "shared fault-route cache entry")]
fn poisoned_shared_route_cache_is_caught() {
    arm();
    let config = NocConfig::builder().mesh(4, 4).build();
    let mesh = config.mesh;
    let shared = SharedTables::new(mesh);

    // Plant a wrong table under key 1 — the entry consulted after the
    // first (single-event) fault batch applies: routes computed as if
    // node 10 died, while the schedule below actually kills node 5.
    let mut alive = vec![true; mesh.num_nodes()];
    alive[10] = false;
    let wrong = FaultRoutes::compute(mesh, &alive, |u, d| {
        u.index() != 10 && mesh.neighbor(u, d).is_none_or(|v| v.index() != 10)
    });
    shared.fault_routes().poison_for_test(1, wrong);

    let variation = VariationMap::generate(4, 4, 0.0, 0.0, 1);
    let protocol = FaultTolerantProtocol::new(mesh, TimingErrorModel::default(), variation, 2);
    let mut net = Network::with_shared(config, protocol, 3, &shared);
    net.set_hard_faults(vec![HardFaultEvent {
        cycle: 10,
        kind: HardFaultKind::Router { node: NodeId(5) },
    }]);
    // Stepping past cycle 10 applies the fault batch, hits the poisoned
    // entry, and the armed recompute-and-compare must panic.
    for _ in 0..16 {
        net.step();
    }
}
