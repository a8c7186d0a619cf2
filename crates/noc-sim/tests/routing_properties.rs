//! Property tests for minimal routing, end-to-end delivery, and the
//! fault-adaptive up*/down* reroute layer — on 2D meshes and across
//! the whole topology zoo (torus, folded torus, 3D mesh).
//!
//! Guarantees the hot-path rewrite (precomputed [`Routes`],
//! [`NeighborTable`], flit arena) must not bend:
//!
//! 1. X-Y routing delivers **every** offered packet, on any mesh size.
//! 2. The hop count of an X-Y path equals the Manhattan distance
//!    between the endpoints.
//! 3. No flit is ever steered toward a non-neighbor port: at every
//!    router that is not the destination, the computed output direction
//!    points at an existing neighbor, and the precomputed tables agree
//!    with the reference [`xy_route`] everywhere.
//!
//! And for up*/down* [`Routes`] under **arbitrary** fault sets (including
//! partitioning ones):
//!
//! 4. Every pair of live endpoints in the same live component gets a
//!    route that actually reaches the destination.
//! 5. No table entry ever points across a dead link, into a dead
//!    router, or out of a dead router; separated pairs get no route.
//! 6. The channel-dependency graph induced by every routed path is
//!    acyclic — the up*/down* deadlock-freedom argument, checked
//!    directly.

use noc_sim::config::NocConfig;
use noc_sim::error_control::PerfectLink;
use noc_sim::network::Network;
use noc_sim::routing::{min_route, xy_path, xy_route, Routes};
use noc_sim::topology::{
    DeadSet, Direction, FoldedTorus, HardFault, Mesh, Mesh3d, NeighborTable, NodeId, Topo, Torus,
    VcClass, MAX_PORTS,
};
use noc_testutil::{manhattan, pick_node};
use proptest::prelude::*;

/// One zoo member per `kind`, so every property below can range over
/// the whole topology zoo with a single extra proptest input.
fn zoo_topo(kind: usize, w: u16, h: u16, d: u16) -> Topo {
    match kind % 4 {
        0 => Mesh::new(w, h).into(),
        1 => Torus::new(w, h).into(),
        2 => FoldedTorus::new(w, h).into(),
        _ => Mesh3d::new(w, h, d).into(),
    }
}

/// Independent minimal-distance oracle, computed from raw node indices
/// with none of the topology code's own helpers: plain Manhattan on a
/// mesh, wrap-aware ring distance per dimension on (folded) tori, 3D
/// Manhattan on stacked meshes.
fn oracle_distance(topo: Topo, a: NodeId, b: NodeId) -> u64 {
    let (ai, bi) = (a.index() as u64, b.index() as u64);
    let line = |x: u64, y: u64| x.abs_diff(y);
    let ring = |x: u64, y: u64, n: u64| {
        let d = x.abs_diff(y);
        d.min(n - d)
    };
    match topo {
        Topo::Mesh(m) => {
            let w = u64::from(m.width());
            line(ai % w, bi % w) + line(ai / w, bi / w)
        }
        Topo::Torus(t) => {
            let (w, h) = (u64::from(t.width()), u64::from(t.height()));
            ring(ai % w, bi % w, w) + ring(ai / w, bi / w, h)
        }
        Topo::FoldedTorus(t) => {
            let (w, h) = (u64::from(t.width()), u64::from(t.height()));
            ring(ai % w, bi % w, w) + ring(ai / w, bi / w, h)
        }
        Topo::Mesh3d(m) => {
            let (w, h) = (u64::from(m.width()), u64::from(m.height()));
            line(ai % w, bi % w) + line(ai / w % h, bi / w % h) + line(ai / (w * h), bi / (w * h))
        }
    }
}

proptest! {
    /// Hop count of the X-Y path is exactly the Manhattan distance, the
    /// path is contiguous (each step moves to a real neighbor), and the
    /// walk never routes off the mesh.
    #[test]
    fn xy_path_is_minimal_and_on_mesh(
        w in 1u16..9,
        h in 1u16..9,
        src_raw: u64,
        dst_raw: u64,
    ) {
        let mesh = Mesh::new(w, h);
        let src = pick_node(mesh, src_raw);
        let dst = pick_node(mesh, dst_raw);
        let path = xy_path(mesh, src, dst);

        prop_assert_eq!(path[0], src);
        prop_assert_eq!(*path.last().expect("non-empty"), dst);
        prop_assert_eq!(path.len() as u64 - 1, manhattan(mesh, src, dst));
        prop_assert_eq!(path.len() as u64 - 1, mesh.hop_distance(src, dst) as u64);

        for pair in path.windows(2) {
            let dir = xy_route(mesh, pair[0], dst);
            prop_assert!(dir != Direction::Local, "only dst routes Local");
            // The chosen output port must have a neighbor behind it…
            let next = mesh.neighbor(pair[0], dir);
            prop_assert_eq!(next, Some(pair[1]), "step follows the route");
        }
        prop_assert_eq!(xy_route(mesh, dst, dst), Direction::Local);
    }

    /// The precomputed `Routes`/`NeighborTable` pair agrees with the
    /// reference implementation on **every** (current, dst) pair of the
    /// sampled mesh, and never yields a direction without a neighbor —
    /// i.e. no flit can be enqueued toward a non-neighbor port.
    #[test]
    fn route_table_never_points_at_a_missing_neighbor(w in 1u16..9, h in 1u16..9) {
        let mesh = Mesh::new(w, h);
        let routes = Routes::healthy(mesh);
        let neighbors = NeighborTable::new(mesh);
        for current in mesh.nodes() {
            for dst in mesh.nodes() {
                let (dir, class) = routes.next_hop(current, dst).expect("intact mesh");
                prop_assert_eq!((dir, class), (xy_route(mesh, current, dst), VcClass::Any));
                if current == dst {
                    prop_assert_eq!(dir, Direction::Local);
                } else {
                    let next = neighbors.get(current, dir);
                    prop_assert_eq!(next, mesh.neighbor(current, dir));
                    prop_assert!(next.is_some(), "route at {:?} toward {:?} exits via {:?} which has no neighbor", current, dst, dir);
                }
            }
        }
    }

    /// On a fault-free network, X-Y routing delivers every offered
    /// packet — arbitrary mesh sizes, arbitrary src/dst pairs — and each
    /// delivery takes at least the Manhattan-distance lower bound in
    /// cycles.
    #[test]
    fn every_offered_packet_is_delivered(
        w in 2u16..7,
        h in 2u16..7,
        seed: u64,
        n_packets in 1usize..32,
    ) {
        let config = NocConfig::builder().mesh(w, h).build();
        let mesh = config.mesh;
        let mut net = Network::new(config, PerfectLink::new(), seed);

        // Derive the src/dst list from the seed with the same splitmix
        // family the simulator uses for payloads.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut min_hops = u64::MAX;
        for _ in 0..n_packets {
            let src = pick_node(mesh, next());
            let mut dst = pick_node(mesh, next());
            if src == dst {
                dst = NodeId(((dst.index() + 1) % mesh.num_nodes()) as u16);
            }
            min_hops = min_hops.min(manhattan(mesh, src, dst));
            net.offer(src, dst);
            net.step();
        }
        prop_assert!(net.run_until_quiescent(500_000), "network drains");

        let stats = net.stats();
        prop_assert_eq!(stats.packets_injected, n_packets as u64);
        prop_assert_eq!(stats.packets_delivered, n_packets as u64);
        prop_assert_eq!(stats.latency.count(), n_packets as u64);
        prop_assert_eq!(stats.packets_failed_crc, 0);
        prop_assert_eq!(stats.silent_corruptions, 0);
        prop_assert!(
            stats.latency.min() >= min_hops,
            "a packet cannot beat its Manhattan distance: min latency {} < {}",
            stats.latency.min(),
            min_hops
        );
    }
}

// ---------------------------------------------------------------------------
// The same wall, extended across the topology zoo.

proptest! {
    /// On every zoo member, the minimal path walked by `min_route` has
    /// exactly the minimal length — checked against an *independent*
    /// distance oracle (wrap-aware on tori, 3D Manhattan on stacked
    /// meshes), not the topology's own `hop_distance` — stays on the
    /// topology, and agrees with `hop_distance` everywhere.
    #[test]
    fn zoo_min_path_is_minimal_and_on_topology(
        kind in 0usize..4,
        w in 2u16..7,
        h in 2u16..7,
        d in 2u16..4,
        src_raw: u64,
        dst_raw: u64,
    ) {
        let topo = zoo_topo(kind, w, h, d);
        let src = pick_node(topo, src_raw);
        let dst = pick_node(topo, dst_raw);
        let path = xy_path(topo, src, dst);

        prop_assert_eq!(path[0], src);
        prop_assert_eq!(*path.last().expect("non-empty"), dst);
        prop_assert_eq!(path.len() as u64 - 1, oracle_distance(topo, src, dst));
        prop_assert_eq!(path.len() as u64 - 1, manhattan(topo, src, dst));

        for pair in path.windows(2) {
            let (dir, _class) = min_route(topo, pair[0], dst);
            prop_assert!(dir != Direction::Local, "only dst routes Local");
            prop_assert_eq!(topo.neighbor(pair[0], dir), Some(pair[1]), "step follows the route");
        }
        prop_assert_eq!(min_route(topo, dst, dst).0, Direction::Local);
    }

    /// The precomputed tables agree with `min_route` (direction *and*
    /// VC class) on every (current, dst) pair of every zoo member, and
    /// never yield a direction without a neighbor behind it — wrap
    /// links and vertical links included.
    #[test]
    fn zoo_route_table_never_points_at_a_missing_neighbor(
        kind in 0usize..4,
        w in 2u16..7,
        h in 2u16..7,
        d in 2u16..4,
    ) {
        let topo = zoo_topo(kind, w, h, d);
        let routes = Routes::healthy(topo);
        let neighbors = NeighborTable::new(topo);
        for current in topo.nodes() {
            for dst in topo.nodes() {
                let (dir, class) = routes.next_hop(current, dst).expect("intact topology");
                prop_assert_eq!((dir, class), min_route(topo, current, dst));
                if current == dst {
                    prop_assert_eq!(dir, Direction::Local);
                } else {
                    let next = neighbors.get(current, dir);
                    prop_assert_eq!(next, topo.neighbor(current, dir));
                    prop_assert!(next.is_some(), "route at {:?} toward {:?} exits via {:?} which has no neighbor", current, dst, dir);
                }
            }
        }
    }

    /// Fault-free delivery across the zoo: every offered packet is
    /// delivered on tori, folded tori, and 3D meshes alike, and no
    /// delivery beats the independent minimal-distance lower bound.
    #[test]
    fn zoo_every_offered_packet_is_delivered(
        kind in 1usize..4, // the mesh case is covered above
        w in 2u16..6,
        h in 2u16..6,
        d in 2u16..4,
        seed: u64,
        n_packets in 1usize..24,
    ) {
        let topo = zoo_topo(kind, w, h, d);
        let config = NocConfig::builder().topology(topo).build();
        let mut net = Network::new(config, PerfectLink::new(), seed);

        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut min_hops = u64::MAX;
        for _ in 0..n_packets {
            let src = pick_node(topo, next());
            let mut dst = pick_node(topo, next());
            if src == dst {
                dst = NodeId(((dst.index() + 1) % topo.num_nodes()) as u16);
            }
            min_hops = min_hops.min(oracle_distance(topo, src, dst));
            net.offer(src, dst);
            net.step();
        }
        prop_assert!(net.run_until_quiescent(500_000), "network drains");

        let stats = net.stats();
        prop_assert_eq!(stats.packets_injected, n_packets as u64);
        prop_assert_eq!(stats.packets_delivered, n_packets as u64);
        prop_assert_eq!(stats.packets_failed_crc, 0);
        prop_assert_eq!(stats.silent_corruptions, 0);
        prop_assert!(
            stats.latency.min() >= min_hops,
            "a packet cannot beat its minimal distance: min latency {} < {}",
            stats.latency.min(),
            min_hops
        );
    }

    /// Date-line deadlock freedom, verified rather than assumed: on
    /// (folded) tori and 3D meshes, model one virtual channel per
    /// `(node, out-direction, vc)` at the topology's **minimum** VC
    /// provisioning, expand each hop's [`VcClass`] to its admissible VC
    /// set, and check that the channel-dependency graph induced by all
    /// minimal routes is acyclic. This is exactly the argument that
    /// lets dimension-order routing cross wrap links without deadlock.
    #[test]
    fn zoo_dateline_channel_dependency_graph_is_acyclic(
        kind in 1usize..4,
        w in 2u16..7,
        h in 2u16..7,
        d in 2u16..4,
    ) {
        let topo = zoo_topo(kind, w, h, d);
        let n = topo.num_nodes();
        let vcs = topo.min_vcs();
        let chans = n * MAX_PORTS * vcs as usize;
        let chan = |node: NodeId, dir: Direction, vc: usize| {
            (node.index() * MAX_PORTS + dir.index()) * vcs as usize + vc
        };
        let mut deps = vec![std::collections::BTreeSet::new(); chans];
        for src in topo.nodes() {
            for dst in topo.nodes() {
                if src == dst {
                    continue;
                }
                let mut current = src;
                let mut prev: Option<(Direction, VcClass)> = None;
                while current != dst {
                    let (dir, class) = min_route(topo, current, dst);
                    if let Some((pdir, pclass)) = prev {
                        // The flit holds a VC of the previous hop's
                        // class while requesting one of this hop's.
                        let pnode = topo
                            .neighbor(current, pdir.opposite())
                            .expect("previous hop came from a neighbor");
                        for pvc in pclass.vc_range(vcs) {
                            for nvc in class.vc_range(vcs) {
                                deps[chan(pnode, pdir, pvc)].insert(chan(current, dir, nvc));
                            }
                        }
                    }
                    prev = Some((dir, class));
                    current = topo.neighbor(current, dir).expect("hop stays on topology");
                }
            }
        }
        // Iterative three-color DFS over the dependency graph.
        let mut color = vec![0u8; chans];
        for start in 0..chans {
            if color[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, false)];
            while let Some((c, done)) = stack.pop() {
                if done {
                    color[c] = 2;
                    continue;
                }
                if color[c] == 2 {
                    continue;
                }
                color[c] = 1;
                stack.push((c, true));
                for &next in &deps[c] {
                    prop_assert!(
                        color[next] != 1,
                        "date-line channel-dependency cycle through channel {next}"
                    );
                    if color[next] == 0 {
                        stack.push((next, false));
                    }
                }
            }
        }
    }
}

/// The u16-capacity radix points named by the campaign layer — 32×32
/// flat topologies and the 8×8×4 stack — build full route/neighbor
/// tables and agree with `min_route` on every pair (a 1024²-entry
/// exhaustive sweep per topology, deterministic rather than sampled).
#[test]
fn zoo_route_tables_are_sound_at_32x32_and_8x8x4_radix() {
    let zoo: [Topo; 4] = [
        Mesh::new(32, 32).into(),
        Torus::new(32, 32).into(),
        FoldedTorus::new(32, 32).into(),
        Mesh3d::new(8, 8, 4).into(),
    ];
    for topo in zoo {
        let routes = Routes::healthy(topo);
        let neighbors = NeighborTable::new(topo);
        for current in topo.nodes() {
            for dst in topo.nodes() {
                let (dir, class) = routes.next_hop(current, dst).expect("intact topology");
                assert_eq!((dir, class), min_route(topo, current, dst));
                if current != dst {
                    assert_eq!(neighbors.get(current, dir), topo.neighbor(current, dir));
                    assert!(
                        neighbors.get(current, dir).is_some(),
                        "{topo:?}: route at {current:?} toward {dst:?} exits via {dir:?} \
                         which has no neighbor"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-adaptive routing under arbitrary fault sets.

/// A faulted topology (any zoo member) and its dead set.
struct FaultedTopology {
    topo: Topo,
    dead: DeadSet,
}

impl FaultedTopology {
    fn build(topo: impl Into<Topo>, router_kills: &[u64], link_kills: &[u64]) -> Self {
        let topo = topo.into();
        let n = topo.num_nodes() as u64;
        let mut dead = DeadSet::new(topo);
        let compass = topo.compass();
        for &raw in link_kills {
            let node = (raw % n) as u16;
            let dir = compass[((raw >> 32) % compass.len() as u64) as usize];
            dead.apply(HardFault::Link { node, dir });
        }
        for &raw in router_kills {
            dead.apply(HardFault::Router {
                node: (raw % n) as u16,
            });
        }
        Self { topo, dead }
    }

    fn link_alive(&self, node: NodeId, dir: Direction) -> bool {
        !self.dead.node_dead(node)
            && !self.dead.link_dead(node, dir)
            && self
                .topo
                .neighbor(node, dir)
                .is_some_and(|p| !self.dead.node_dead(p))
    }

    fn routes(&self) -> Routes {
        let alive: Vec<bool> = self.topo.nodes().map(|v| !self.dead.node_dead(v)).collect();
        Routes::up_down(self.topo, &alive, |u, d| self.link_alive(u, d))
    }

    /// Live-component label per node (usize::MAX for dead), by BFS —
    /// the independent reachability oracle the route table is checked
    /// against.
    fn components(&self) -> Vec<usize> {
        let n = self.topo.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for start in self.topo.nodes() {
            if self.dead.node_dead(start) || comp[start.index()] != usize::MAX {
                continue;
            }
            comp[start.index()] = start.index();
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for &dir in self.topo.compass() {
                    if !self.link_alive(u, dir) {
                        continue;
                    }
                    let v = self.topo.neighbor(u, dir).expect("live link has a peer");
                    if comp[v.index()] == usize::MAX {
                        comp[v.index()] = start.index();
                        queue.push_back(v);
                    }
                }
            }
        }
        comp
    }
}

/// Generator bounds shared by the fault-routing properties: zoo
/// members up to 6×6 (×3 deep), a handful of router and link kills —
/// enough to partition the small topologies regularly.
fn router_kills() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..3)
}

fn link_kills() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..10)
}

proptest! {
    /// Reachable endpoints (live, same live component) are exactly the
    /// routed ones, and walking the table from any such source arrives
    /// at the destination: an up-phase hop strictly descends in rank
    /// and a down-phase hop strictly ascends, so `2·n` hops is a safe
    /// loop bound.
    #[test]
    fn fault_routes_deliver_between_reachable_endpoints(
        kind in 0usize..4,
        w in 2u16..7,
        h in 2u16..7,
        d in 2u16..4,
        routers in router_kills(),
        links in link_kills(),
    ) {
        let t = FaultedTopology::build(zoo_topo(kind, w, h, d), &routers, &links);
        let routes = t.routes();
        let comp = t.components();
        let n = t.topo.num_nodes();
        for src in t.topo.nodes() {
            for dst in t.topo.nodes() {
                let connected = comp[src.index()] != usize::MAX
                    && comp[src.index()] == comp[dst.index()];
                prop_assert_eq!(
                    routes.reachable(src, dst),
                    connected,
                    "table reachability must match BFS for {:?}→{:?}",
                    src,
                    dst
                );
                if !connected || src == dst {
                    continue;
                }
                let mut current = src;
                let mut hops = 0;
                while current != dst {
                    let (dir, _) = routes
                        .next_hop(current, dst)
                        .expect("connected pair must have a hop");
                    prop_assert!(dir != Direction::Local, "Local before dst");
                    current = t.topo.neighbor(current, dir).expect("hop stays on the topology");
                    hops += 1;
                    prop_assert!(hops <= 2 * n, "route loops: {:?}→{:?}", src, dst);
                }
            }
        }
    }

    /// No route crosses a dead element: every table entry leaves a live
    /// router over a live link into a live router, and dead endpoints
    /// have no routes at all (in either direction).
    #[test]
    fn fault_routes_never_touch_dead_elements(
        kind in 0usize..4,
        w in 2u16..7,
        h in 2u16..7,
        d in 2u16..4,
        routers in router_kills(),
        links in link_kills(),
    ) {
        let t = FaultedTopology::build(zoo_topo(kind, w, h, d), &routers, &links);
        let routes = t.routes();
        for u in t.topo.nodes() {
            for dst in t.topo.nodes() {
                let Some((dir, _)) = routes.next_hop(u, dst) else { continue };
                prop_assert!(
                    !t.dead.node_dead(u) && !t.dead.node_dead(dst),
                    "dead endpoint routed: {:?}→{:?}",
                    u,
                    dst
                );
                if dir == Direction::Local {
                    prop_assert_eq!(u, dst, "Local only at the destination");
                    continue;
                }
                prop_assert!(
                    t.link_alive(u, dir),
                    "route {:?}→{:?} via {:?} crosses a dead link or router",
                    u,
                    dst,
                    dir
                );
            }
        }
    }

    /// The channel-dependency graph of all routed paths is acyclic —
    /// every walk only ever holds a channel while requesting the next
    /// channel of the same path, so an acyclic CDG rules out routing
    /// deadlock (the up*/down* argument, verified rather than assumed).
    #[test]
    fn fault_routes_channel_dependency_graph_is_acyclic(
        kind in 0usize..4,
        w in 2u16..7,
        h in 2u16..7,
        d in 2u16..4,
        routers in router_kills(),
        links in link_kills(),
    ) {
        let t = FaultedTopology::build(zoo_topo(kind, w, h, d), &routers, &links);
        let routes = t.routes();
        let n = t.topo.num_nodes();
        // Channel id = outgoing (node, dir); dependency c1 → c2 when
        // some routed path traverses c1 and then immediately c2.
        let mut deps = vec![std::collections::BTreeSet::new(); n * MAX_PORTS];
        for src in t.topo.nodes() {
            for dst in t.topo.nodes() {
                if src == dst || !routes.reachable(src, dst) {
                    continue;
                }
                let mut current = src;
                let mut prev_channel: Option<usize> = None;
                while current != dst {
                    let (dir, _) = routes.next_hop(current, dst).expect("reachable pair");
                    let channel = current.index() * MAX_PORTS + dir.index();
                    if let Some(p) = prev_channel {
                        deps[p].insert(channel);
                    }
                    prev_channel = Some(channel);
                    current = t.topo.neighbor(current, dir).expect("hop stays on the topology");
                }
            }
        }
        // Iterative three-color DFS over the dependency graph.
        let mut color = vec![0u8; n * MAX_PORTS]; // 0 white, 1 gray, 2 black
        for start in 0..n * MAX_PORTS {
            if color[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, false)];
            while let Some((c, done)) = stack.pop() {
                if done {
                    color[c] = 2;
                    continue;
                }
                if color[c] == 2 {
                    continue;
                }
                color[c] = 1;
                stack.push((c, true));
                for &next in &deps[c] {
                    prop_assert!(
                        color[next] != 1,
                        "channel-dependency cycle through channel {next}"
                    );
                    if color[next] == 0 {
                        stack.push((next, false));
                    }
                }
            }
        }
    }
}
