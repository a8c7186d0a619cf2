//! Production reroute solver vs the reference model's own.
//!
//! `noc_sim::routing::Routes::up_down` (flat arrays, fused passes)
//! and `rlnoc_verify::refroutes::RefRoutes::up_down` (the
//! closure-based solver it replaced) share no code; they must agree on
//! every all-pairs `next_hop`, `reachable` and on `unreachable_pairs`
//! for arbitrary dead sets on every zoo member — partitions, dead
//! routers and fully isolated nodes included.

use noc_sim::routing::Routes;
use noc_sim::topology::{DeadSet, Direction, HardFault, NodeId, Topo};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rlnoc_verify::refroutes::RefRoutes;

fn kill_link(dead: &mut DeadSet, node: NodeId, dir: Direction) {
    dead.apply(HardFault::Link { node: node.0, dir });
}

fn kill_router(dead: &mut DeadSet, node: NodeId) {
    dead.apply(HardFault::Router { node: node.0 });
}

/// Cuts every link of `node` but leaves the router alive: a singleton
/// component.
fn isolate(dead: &mut DeadSet, node: NodeId) {
    for &dir in dead.topo().compass() {
        kill_link(dead, node, dir);
    }
}

fn assert_solvers_agree(dead: &DeadSet, what: &str) {
    let topo = dead.topo();
    let alive: Vec<bool> = topo.nodes().map(|v| !dead.node_dead(v)).collect();
    let link_alive = |u: NodeId, d: Direction| !dead.link_dead(u, d);
    let fast = Routes::up_down(topo, &alive, link_alive);
    let slow = RefRoutes::up_down(topo, &alive, link_alive);
    let label = topo.encode();
    assert_eq!(
        fast.unreachable_pairs(),
        slow.unreachable_pairs(),
        "{label} {what}: unreachable_pairs"
    );
    for cur in topo.nodes() {
        for dst in topo.nodes() {
            assert_eq!(
                fast.next_hop(cur, dst),
                slow.next_hop(cur, dst),
                "{label} {what}: next_hop {cur}→{dst}"
            );
            assert_eq!(
                fast.reachable(cur, dst),
                slow.reachable(cur, dst),
                "{label} {what}: reachable {cur}→{dst}"
            );
        }
    }
}

fn zoo() -> Vec<Topo> {
    vec![
        Topo::mesh(4, 4),
        Topo::mesh(7, 3),
        Topo::torus(4, 4),
        Topo::torus(5, 3),
        Topo::torus(16, 16),
        Topo::ftorus(4, 6),
        Topo::ftorus(5, 5),
        Topo::mesh3d(3, 3, 3),
        Topo::mesh3d(4, 2, 3),
    ]
}

#[test]
fn production_solver_equals_reference_on_random_dead_sets() {
    let mut rng = SmallRng::seed_from_u64(0x0AC1_E5ED);
    for topo in zoo() {
        let n = topo.num_nodes();
        let compass = topo.compass();
        assert_solvers_agree(&DeadSet::new(topo), "healthy");
        // Big topologies get fewer (and heavier) cases; the reference
        // solver is the slow side.
        let cases = if n > 100 { 6 } else { 40 };
        for case in 0..cases {
            let mut dead = DeadSet::new(topo);
            // Up to a third of the links and a sixth of the routers:
            // sparse sets keep one component, dense ones shatter it.
            for _ in 0..rng.gen_range(0..n * compass.len() / 6 + 1) {
                let node = NodeId(rng.gen_range(0..n) as u16);
                kill_link(&mut dead, node, compass[rng.gen_range(0..compass.len())]);
            }
            for _ in 0..rng.gen_range(0..n / 6 + 1) {
                kill_router(&mut dead, NodeId(rng.gen_range(0..n) as u16));
            }
            if case % 4 == 0 {
                isolate(&mut dead, NodeId(rng.gen_range(0..n) as u16));
            }
            assert_solvers_agree(&dead, &format!("case {case}"));
        }
    }
}

#[test]
fn production_solver_equals_reference_on_partitions_and_isolated_nodes() {
    for topo in zoo() {
        let (w, n) = (topo.width(), topo.num_nodes());
        // A full column cut (plus the wrap column on tori) splits the
        // planar projection in two.
        let mut cut = DeadSet::new(topo);
        for node in topo.nodes() {
            let x = topo.coord(node).x;
            if x == 0 {
                kill_link(&mut cut, node, Direction::East);
                kill_link(&mut cut, node, Direction::West);
            }
        }
        assert_solvers_agree(&cut, "column cut");

        let mut lonely = DeadSet::new(topo);
        isolate(&mut lonely, NodeId(0));
        isolate(&mut lonely, NodeId((n - 1) as u16));
        kill_router(&mut lonely, NodeId(w));
        assert_solvers_agree(&lonely, "isolated corners");

        // Every link dead: n singleton components, n·(n−1) lost pairs.
        let mut dust = DeadSet::new(topo);
        for node in topo.nodes() {
            isolate(&mut dust, node);
        }
        assert_solvers_agree(&dust, "all links dead");

        // Every router dead: an all-unreachable table.
        let mut void = DeadSet::new(topo);
        for node in topo.nodes() {
            kill_router(&mut void, node);
        }
        assert_solvers_agree(&void, "all routers dead");
    }
}
