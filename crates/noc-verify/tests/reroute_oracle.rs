//! Production reroute solver vs the reference model's own.
//!
//! `noc_sim::routing::Routes::up_down` (flat arrays, fused passes)
//! and `rlnoc_verify::refroutes::RefRoutes::up_down` (the
//! closure-based solver it replaced) share no code; they must agree on
//! every all-pairs `next_hop`, `reachable` and on `unreachable_pairs`
//! for arbitrary dead sets on every zoo member — partitions, dead
//! routers and fully isolated nodes included.

use noc_sim::routing::Routes;
use noc_sim::topology::{Direction, NodeId, Topo, MAX_PORTS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rlnoc_verify::refroutes::RefRoutes;

/// Symmetric dead masks; a router death kills every incident link.
struct DeadSet {
    topo: Topo,
    node_dead: Vec<bool>,
    link_dead: Vec<[bool; MAX_PORTS]>,
}

impl DeadSet {
    fn healthy(topo: Topo) -> Self {
        let n = topo.num_nodes();
        Self {
            topo,
            node_dead: vec![false; n],
            link_dead: vec![[false; MAX_PORTS]; n],
        }
    }

    fn kill_link(&mut self, node: NodeId, dir: Direction) {
        if let Some(peer) = self.topo.neighbor(node, dir) {
            self.link_dead[node.index()][dir.index()] = true;
            self.link_dead[peer.index()][dir.opposite().index()] = true;
        }
    }

    fn kill_router(&mut self, node: NodeId) {
        self.node_dead[node.index()] = true;
        for &dir in self.topo.compass() {
            self.kill_link(node, dir);
        }
    }

    /// Cuts every link of `node` but leaves the router alive: a
    /// singleton component.
    fn isolate(&mut self, node: NodeId) {
        for &dir in self.topo.compass() {
            self.kill_link(node, dir);
        }
    }

    fn assert_solvers_agree(&self, what: &str) {
        let alive: Vec<bool> = self.node_dead.iter().map(|&d| !d).collect();
        let link_alive = |u: NodeId, d: Direction| !self.link_dead[u.index()][d.index()];
        let fast = Routes::up_down(self.topo, &alive, link_alive);
        let slow = RefRoutes::up_down(self.topo, &alive, link_alive);
        let label = self.topo.encode();
        assert_eq!(
            fast.unreachable_pairs(),
            slow.unreachable_pairs(),
            "{label} {what}: unreachable_pairs"
        );
        for cur in self.topo.nodes() {
            for dst in self.topo.nodes() {
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
        DeadSet::healthy(topo).assert_solvers_agree("healthy");
        // Big topologies get fewer (and heavier) cases; the reference
        // solver is the slow side.
        let cases = if n > 100 { 6 } else { 40 };
        for case in 0..cases {
            let mut dead = DeadSet::healthy(topo);
            // Up to a third of the links and a sixth of the routers:
            // sparse sets keep one component, dense ones shatter it.
            for _ in 0..rng.gen_range(0..n * compass.len() / 6 + 1) {
                let node = NodeId(rng.gen_range(0..n) as u16);
                dead.kill_link(node, compass[rng.gen_range(0..compass.len())]);
            }
            for _ in 0..rng.gen_range(0..n / 6 + 1) {
                dead.kill_router(NodeId(rng.gen_range(0..n) as u16));
            }
            if case % 4 == 0 {
                dead.isolate(NodeId(rng.gen_range(0..n) as u16));
            }
            dead.assert_solvers_agree(&format!("case {case}"));
        }
    }
}

#[test]
fn production_solver_equals_reference_on_partitions_and_isolated_nodes() {
    for topo in zoo() {
        let (w, n) = (topo.width(), topo.num_nodes());
        // A full column cut (plus the wrap column on tori) splits the
        // planar projection in two.
        let mut cut = DeadSet::healthy(topo);
        for node in topo.nodes() {
            let x = topo.coord(node).x;
            if x == 0 {
                cut.kill_link(node, Direction::East);
                cut.kill_link(node, Direction::West);
            }
        }
        cut.assert_solvers_agree("column cut");

        let mut lonely = DeadSet::healthy(topo);
        lonely.isolate(NodeId(0));
        lonely.isolate(NodeId((n - 1) as u16));
        lonely.kill_router(NodeId(w));
        lonely.assert_solvers_agree("isolated corners");

        // Every link dead: n singleton components, n·(n−1) lost pairs.
        let mut dust = DeadSet::healthy(topo);
        for node in topo.nodes() {
            dust.isolate(node);
        }
        dust.assert_solvers_agree("all links dead");

        // Every router dead: an all-unreachable table.
        let mut void = DeadSet::healthy(topo);
        for node in topo.nodes() {
            void.kill_router(node);
        }
        void.assert_solvers_agree("all routers dead");
    }
}
