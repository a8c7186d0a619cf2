//! The process-wide reroute cache's coherence check, armed.
//!
//! Compiled only under the `verify` feature. A deliberately wrong table
//! planted in the cache must be caught by the armed check
//! (recompute-and-compare on every cache hit under `RLNOC_VERIFY=1`),
//! proving the check has teeth rather than silently steering packets.

#![cfg(feature = "verify")]

use noc_fault::timing::TimingErrorModel;
use noc_fault::variation::VariationMap;
use noc_sim::config::NocConfig;
use noc_sim::network::Network;
use noc_sim::routing::{poison_route_cache_for_test, Routes};
use noc_sim::topology::{DeadSet, HardFault, HardFaultEntry};
use rlnoc_core::protocol::FaultTolerantProtocol;

/// Must run before the first `Network::step` of this process caches the
/// arming verdict.
fn arm() {
    std::env::set_var("RLNOC_VERIFY", "1");
}

#[test]
#[should_panic(expected = "reroute cache entry for Mesh { width: 5, height: 3 } diverges")]
fn poisoned_process_wide_route_cache_is_caught() {
    arm();
    // A 5×3 mesh, a shape kept for this test alone: the poisoned entry
    // is process-global.
    let config = NocConfig::builder().mesh(5, 3).build();
    let mesh = config.mesh;
    let n = mesh.num_nodes();

    // Plant a wrong table under the exact dead set the schedule below
    // produces (router 7 and its links): routes computed as if node 11
    // had died instead.
    let mut alive = vec![true; n];
    alive[11] = false;
    let wrong = Routes::up_down(mesh, &alive, |u, d| {
        u.index() != 11 && mesh.neighbor(u, d).is_none_or(|v| v.index() != 11)
    });
    let fault = HardFault::Router { node: 7 };
    let mut dead = DeadSet::new(mesh);
    dead.apply(fault);
    poison_route_cache_for_test(&dead, &wrong);

    let variation = VariationMap::generate(5, 3, 0.0, 0.0, 1);
    let protocol = FaultTolerantProtocol::new(mesh, TimingErrorModel::default(), variation, 2);
    let mut net = Network::new(config, protocol, 3);
    net.set_hard_faults(vec![HardFaultEntry { cycle: 10, fault }]);
    // Stepping past cycle 10 applies the fault batch, hits the poisoned
    // entry, and the armed recompute-and-compare must panic.
    for _ in 0..16 {
        net.step();
    }
}
