//! Batch-aware invariant coverage with the runtime checkers armed.
//!
//! Compiled only under the `verify` feature. Two angles on table
//! sharing under `RLNOC_VERIFY=1`:
//!
//! * a **positive run** — a hard-faulted batched replicate group, with
//!   per-lane flit-arena and credit conservation re-derived from scratch
//!   every simulated cycle inside each lane's `Network`, must still
//!   match its serial lanes bit for bit;
//! * a **corruption injection** — a deliberately wrong table planted in
//!   the process-wide reroute cache must be caught by the armed
//!   coherence check (recompute-and-compare on every cache hit),
//!   proving the check has teeth rather than silently steering packets.

#![cfg(feature = "verify")]

use noc_fault::timing::TimingErrorModel;
use noc_fault::variation::VariationMap;
use noc_sim::config::NocConfig;
use noc_sim::network::{poison_route_cache_for_test, HardFaultEvent, HardFaultKind, Network};
use noc_sim::routing::FaultRoutes;
use noc_sim::topology::{NodeId, MAX_PORTS};
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
#[should_panic(expected = "reroute cache entry for Mesh { width: 5, height: 3 } diverges")]
fn poisoned_process_wide_route_cache_is_caught() {
    arm();
    // A 5×3 mesh: no other test in this binary uses the shape, so the
    // process-global poisoned entry cannot trip a neighbour.
    let config = NocConfig::builder().mesh(5, 3).build();
    let mesh = config.mesh;
    let n = mesh.num_nodes();

    // Plant a wrong table under the exact dead set the schedule below
    // produces (router 7 and its links): routes computed as if node 11
    // had died instead.
    let mut alive = vec![true; n];
    alive[11] = false;
    let wrong = FaultRoutes::compute(mesh, &alive, |u, d| {
        u.index() != 11 && mesh.neighbor(u, d).is_none_or(|v| v.index() != 11)
    });
    let mut node_dead = vec![false; n];
    let mut link_dead = vec![[false; MAX_PORTS]; n];
    node_dead[7] = true;
    for &dir in mesh.compass() {
        if let Some(peer) = mesh.neighbor(NodeId(7), dir) {
            link_dead[7][dir.index()] = true;
            link_dead[peer.index()][dir.opposite().index()] = true;
        }
    }
    poison_route_cache_for_test(mesh, &node_dead, &link_dead, &wrong);

    let variation = VariationMap::generate(5, 3, 0.0, 0.0, 1);
    let protocol = FaultTolerantProtocol::new(mesh, TimingErrorModel::default(), variation, 2);
    let mut net = Network::new(config, protocol, 3);
    net.set_hard_faults(vec![HardFaultEvent {
        cycle: 10,
        kind: HardFaultKind::Router { node: NodeId(7) },
    }]);
    // Stepping past cycle 10 applies the fault batch, hits the poisoned
    // entry, and the armed recompute-and-compare must panic.
    for _ in 0..16 {
        net.step();
    }
}
