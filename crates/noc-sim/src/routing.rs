//! Routing functions and the network's one next-hop table.
//!
//! Every topology in the zoo routes dimension-ordered: X-Y on the 2D
//! mesh (the paper's configuration), wrap-aware X-Y with date-line
//! virtual-channel classes on tori, and X-Y-Z on the 3D mesh. All of
//! them are deterministic and minimal; the per-topology next hop and
//! VC class come from [`Topo::min_route`]. A network answers every
//! routing question from one [`Routes`] table: minimal while intact,
//! up*/down* once hard faults strike, the latter shared process-wide
//! through one content-addressed cache.

use crate::topology::{DeadSet, Direction, Mesh, NodeId, Topo, VcClass};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

/// Computes the X-Y output port at router `current` for a packet headed to
/// `dst` on a 2D mesh.
///
/// Returns [`Direction::Local`] when `current == dst` (eject).
///
/// # Example
///
/// ```
/// use noc_sim::routing::xy_route;
/// use noc_sim::topology::{Direction, Mesh};
///
/// let mesh = Mesh::new(8, 8);
/// let src = mesh.node_at(1, 1);
/// let dst = mesh.node_at(4, 6);
/// // X first…
/// assert_eq!(xy_route(mesh, src, dst), Direction::East);
/// // …then Y once the column matches.
/// let mid = mesh.node_at(4, 1);
/// assert_eq!(xy_route(mesh, mid, dst), Direction::South);
/// assert_eq!(xy_route(mesh, dst, dst), Direction::Local);
/// ```
pub fn xy_route(mesh: Mesh, current: NodeId, dst: NodeId) -> Direction {
    let c = mesh.coord(current);
    let d = mesh.coord(dst);
    if c.x < d.x {
        Direction::East
    } else if c.x > d.x {
        Direction::West
    } else if c.y < d.y {
        Direction::South
    } else if c.y > d.y {
        Direction::North
    } else {
        Direction::Local
    }
}

/// The minimal-route output port and date-line VC class at `current`
/// for a packet headed to `dst`, on any topology.
///
/// Identical to [`xy_route`] (with class [`VcClass::Any`]) on a 2D
/// mesh.
pub fn min_route(topo: impl Into<Topo>, current: NodeId, dst: NodeId) -> (Direction, VcClass) {
    topo.into().min_route(current, dst)
}

/// Enumerates the routers a dimension-order-routed packet visits from
/// `src` to `dst`, inclusive of both endpoints.
///
/// A reference walk for the routing tests; the network's own latency
/// attribution walks its `Routes` table. (The name reflects the 2D
/// mesh's X-Y order; tori and the 3D mesh walk their own dimension
/// order.)
pub fn xy_path(topo: impl Into<Topo>, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let topo = topo.into();
    let mut path = Vec::with_capacity(topo.hop_distance(src, dst) as usize + 1);
    let mut current = src;
    path.push(current);
    while current != dst {
        let (dir, _) = topo.min_route(current, dst);
        current = topo
            .neighbor(current, dir)
            .expect("minimal route never walks off the topology");
        path.push(current);
    }
    path
}

/// Node count up to which a healthy [`Routes`] materializes the full
/// `current × dst` matrix (one byte per pair, so ≤ 1 MiB). Larger
/// intact networks compute the minimal route on demand.
const DENSE_ROUTE_LIMIT: usize = 1024;

/// Bit position of the VC class in a route byte (the low three bits
/// hold the port index 0..=6).
const CLASS_SHIFT: u32 = 3;

/// Route byte for "no live route".
const UNREACHABLE: u8 = 0xFF;

/// "No live neighbor" in the solver's flat adjacency.
const NO_NODE: u16 = u16::MAX;

/// "No legal route" in the solver's distance vectors.
const NO_DIST: u32 = u32::MAX;

/// The network's next-hop table: the one answer to "which output port
/// and VC class does a head flit at `current` take toward `dst`".
///
/// An intact network routes minimally ([`Routes::healthy`]);
/// once hard faults remove links or routers it routes up*/down* over
/// the live sub-topology ([`Routes::up_down`]). Either way a lookup is
/// one index: each dense byte packs `port | class << 3`, with `0xFF`
/// for a pair that has no live route. The healthy table is the
/// zero-fault case — every pair is reachable — and carries the
/// date-line class of each torus hop; up*/down* hops are all class
/// [`VcClass::Any`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routes {
    topo: Topo,
    /// `dense[current * n + dst]` is the route byte. `None` only for a
    /// healthy table above [`DENSE_ROUTE_LIMIT`] nodes, which asks
    /// [`Topo::min_route`] instead.
    dense: Option<Vec<u8>>,
    n: usize,
    unreachable_pairs: u64,
}

impl Routes {
    /// The zero-fault table: [`Topo::min_route`] for every pair.
    /// [`Topo::min_route`] derives endpoint coordinates (divisions) on
    /// every call, while route computation runs once per packet per hop
    /// and the latency-attribution walk once per node of every
    /// delivered packet's path; the table answers with one index.
    pub fn healthy(topo: impl Into<Topo>) -> Self {
        let topo = topo.into();
        let n = topo.num_nodes();
        let dense = (n <= DENSE_ROUTE_LIMIT).then(|| {
            let mut table = vec![0u8; n * n];
            for cur in topo.nodes() {
                for dst in topo.nodes() {
                    let (dir, class) = topo.min_route(cur, dst);
                    table[cur.index() * n + dst.index()] =
                        dir.index() as u8 | (class.index() as u8) << CLASS_SHIFT;
                }
            }
            table
        });
        Self {
            topo,
            dense,
            n,
            unreachable_pairs: 0,
        }
    }

    /// Full-graph up*/down* routes over the live sub-topology.
    ///
    /// Once hard faults remove links or routers, dimension-order routing
    /// is no longer sound (it would walk into dead regions), so the
    /// network switches to classic up*/down* routes. Every live node gets
    /// a rank `(BFS level, node id)` from a breadth-first traversal of its
    /// live connected component (root = smallest live id); every live link
    /// is oriented "up" toward its lower-ranked end. A route first climbs
    /// up-links ("up" phase, rank strictly decreasing) and then descends
    /// down-links ("down" phase, rank strictly increasing) — **all** live
    /// links are usable, not just tree edges, so capacity degrades
    /// gradually with the fault count instead of collapsing to a spanning
    /// tree. Because no route ever turns from a down traversal back onto
    /// an up traversal, the channel-dependency graph is acyclic (the
    /// classic up*/down* argument) and the scheme is deadlock-free without
    /// extra virtual channels, so every hop is class [`VcClass::Any`]; it
    /// doubles as its own escape layer. The argument needs only undirected
    /// adjacency, so it covers every topology in the zoo — wrap-around
    /// links and vertical links are just more edges to orient.
    ///
    /// The table is phase-oblivious (one port per `(current, dst)`), so it
    /// must be *suffix-consistent*: a node with any pure-down route to the
    /// destination always takes its shortest one (every later node then
    /// also has one), and a node without one climbs along the up-link that
    /// minimizes the remaining legal distance. Either phase is strictly
    /// monotone in rank, so routes never loop.
    ///
    /// Construction is fully deterministic so the production and reference
    /// simulators can rebuild identical tables independently: BFS explores
    /// neighbors in port order (N, E, S, W, then Up, Down where present)
    /// and distance ties break toward the smallest port index.
    ///
    /// `node_alive[i]` marks router `i` usable; `link_alive(node, dir)`
    /// marks the channel leaving `node` in `dir` usable and must be
    /// symmetric (`link_alive(u, d) == link_alive(v, d.opposite())` for
    /// neighbors `u`, `v`). Links touching a dead router must also be
    /// reported dead.
    ///
    /// # Panics
    ///
    /// Panics if `node_alive.len() != topo.num_nodes()`.
    pub fn up_down<F>(topo: impl Into<Topo>, node_alive: &[bool], link_alive: F) -> Self
    where
        F: Fn(NodeId, Direction) -> bool,
    {
        let topo = topo.into();
        let compass = topo.compass();
        let (n, k) = (topo.num_nodes(), compass.len());
        assert_eq!(node_alive.len(), n, "liveness vector must cover the mesh");

        // Live adjacency, built once: slot `u * k + s` is the neighbor
        // across compass port `s` when link and both routers are alive.
        let mut adj = vec![NO_NODE; n * k];
        for u in topo.nodes().filter(|u| node_alive[u.index()]) {
            for (s, &dir) in compass.iter().enumerate() {
                if !link_alive(u, dir) {
                    continue;
                }
                if let Some(v) = topo.neighbor(u, dir).filter(|v| node_alive[v.index()]) {
                    adj[u.index() * k + s] = v.0;
                }
            }
        }

        // BFS forest: component label and rank per node. Rank packs
        // `(BFS level, node id)` as `level << 16 | id`; dead nodes keep
        // `u32::MAX`.
        let mut rank = vec![u32::MAX; n];
        let mut comp = vec![NO_NODE; n];
        let mut queue: Vec<u16> = Vec::with_capacity(n);
        let mut same_component_pairs = 0u64;
        for root in 0..n {
            if !node_alive[root] || comp[root] != NO_NODE {
                continue;
            }
            let first = queue.len();
            comp[root] = root as u16;
            rank[root] = root as u32;
            queue.push(root as u16);
            let mut head = first;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &v in &adj[u * k..(u + 1) * k] {
                    if v != NO_NODE && comp[v as usize] == NO_NODE {
                        comp[v as usize] = root as u16;
                        rank[v as usize] = ((rank[u] >> 16) + 1) << 16 | v as u32;
                        queue.push(v);
                    }
                }
            }
            let size = (queue.len() - first) as u64;
            same_component_pairs += size * size;
        }
        // `queue` now holds exactly the live nodes; an ordered live pair
        // has no route iff its ends sit in different components.
        let live = queue.len() as u64;
        let unreachable_pairs = live * live - same_component_pairs;

        // Rank orients every live link: its "up" end is the smaller
        // rank. Up traversals strictly decrease rank, down traversals
        // strictly increase it. Split the adjacency by orientation once
        // (same slots, so port order and port indices are preserved).
        let mut up = adj;
        let mut down = up.clone();
        for u in 0..n {
            for s in u * k..(u + 1) * k {
                let v = up[s];
                if v == NO_NODE {
                    continue;
                }
                if rank[v as usize] < rank[u] {
                    down[s] = NO_NODE;
                } else {
                    up[s] = NO_NODE;
                }
            }
        }
        // Live nodes in increasing rank order, for the up-phase DP.
        let mut by_rank = queue.clone();
        by_rank.sort_unstable_by_key(|&u| rank[u as usize]);

        let mut table = vec![UNREACHABLE; n * n];
        // Distance vectors carry one spare slot that stays `NO_DIST`,
        // so a missing neighbor (`NO_NODE` clamped to `n`) reads as
        // "no route" without a branch.
        let mut dist_down = vec![NO_DIST; n + 1];
        let mut dist_any = vec![NO_DIST; n + 1];
        let slot = |v: u16| (v as usize).min(n);
        for dst in 0..n {
            if !node_alive[dst] {
                continue;
            }
            // Pure-down distance to `dst`: BFS from `dst` across
            // reversed down traversals (a hop u→x with rank(u) <
            // rank(x) may end a pure-down route iff x already can).
            dist_down.fill(NO_DIST);
            dist_down[dst] = 0;
            queue.clear();
            queue.push(dst as u16);
            let mut head = 0;
            while head < queue.len() {
                let x = queue[head] as usize;
                head += 1;
                for &u in &up[x * k..(x + 1) * k] {
                    if u != NO_NODE && dist_down[u as usize] == NO_DIST {
                        dist_down[u as usize] = dist_down[x] + 1;
                        queue.push(u);
                    }
                }
            }
            // Legal (up* then down*) distance: a route either is pure
            // down, or first climbs one up-link. Up-links strictly
            // decrease rank, so increasing-rank order is a valid DP
            // order. Next hops fall out of the same pass: prefer the
            // shortest pure-down continuation (suffix-consistent —
            // every node after it also has one); otherwise climb the
            // up-link on a shortest legal route. Ties break toward the
            // smallest port index.
            dist_any.fill(NO_DIST);
            for &u in &by_rank {
                let u = u as usize;
                if comp[u] != comp[dst] {
                    continue;
                }
                let mut best = dist_down[u];
                for &v in &up[u * k..(u + 1) * k] {
                    best = best.min(dist_any[slot(v)].saturating_add(1));
                }
                dist_any[u] = best;
                if u == dst {
                    continue;
                }
                let (dist, hops, want) = if dist_down[u] != NO_DIST {
                    (&dist_down, &down[u * k..(u + 1) * k], dist_down[u])
                } else {
                    (&dist_any, &up[u * k..(u + 1) * k], best)
                };
                for (s, &v) in hops.iter().enumerate() {
                    if dist[slot(v)].saturating_add(1) == want {
                        table[u * n + dst] = compass[s].index() as u8;
                        break;
                    }
                }
                debug_assert_ne!(
                    table[u * n + dst],
                    UNREACHABLE,
                    "connected pair {u}→{dst} must get a next hop"
                );
            }
            table[dst * n + dst] = Direction::Local.index() as u8;
        }

        Self {
            topo,
            dense: Some(table),
            n,
            unreachable_pairs,
        }
    }

    /// The output port and VC class at `current` for a packet headed to
    /// `dst`, or `None` when no live route exists (dead endpoint or
    /// partitioned component). Returns `Local` when `current == dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the table's topology.
    #[inline]
    pub fn next_hop(&self, current: NodeId, dst: NodeId) -> Option<(Direction, VcClass)> {
        let Some(dense) = &self.dense else {
            return Some(self.topo.min_route(current, dst));
        };
        match dense[current.index() * self.n + dst.index()] {
            UNREACHABLE => None,
            b => Some((
                Direction::from_index((b & 0x07) as usize),
                VcClass::from_index((b >> CLASS_SHIFT) as usize),
            )),
        }
    }

    /// Whether a live route from `a` to `b` exists (`true` for `a == b`
    /// on a live node).
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.next_hop(a, b).is_some()
    }

    /// Number of ordered live node pairs with no route between them
    /// (0 on an intact network).
    pub fn unreachable_pairs(&self) -> u64 {
        self.unreachable_pairs
    }

    /// Run-length packs an up*/down* table for storage in the
    /// process-wide [`RouteCache`].
    fn pack(&self) -> PackedRoutes {
        let table = self.dense.as_deref().expect("up*/down* tables are dense");
        let mut runs = Vec::new();
        for run in table.chunk_by(|a, b| a == b) {
            debug_assert!(run[0] == UNREACHABLE || run[0] >> CLASS_SHIFT == 0);
            for piece in run.chunks(MAX_RUN) {
                // Ports are 0..=6; the sentinel takes the spare code 7.
                runs.push(run[0].min(7) | ((piece.len() - 1) as u8) << 3);
            }
        }
        PackedRoutes {
            runs: runs.into(),
            unreachable_pairs: self.unreachable_pairs,
        }
    }

    /// Test-only corruption hook: overwrite a table entry so the
    /// verify-mode reroute-consistency checker can be proven to fire.
    #[cfg(all(test, feature = "verify"))]
    pub(crate) fn corrupt_entry(&mut self, current: NodeId, dst: NodeId, port: Direction) {
        let dense = self.dense.as_mut().expect("dense table");
        dense[current.index() * self.n + dst.index()] = port.index() as u8;
    }
}

/// Former name of the up*/down* solve, kept only while the benchmark
/// still calls `FaultRoutes::compute`.
#[doc(hidden)]
#[derive(Debug)]
pub enum FaultRoutes {}

impl FaultRoutes {
    /// Forwards to [`Routes::up_down`].
    pub fn compute<F>(topo: impl Into<Topo>, node_alive: &[bool], link_alive: F) -> Routes
    where
        F: Fn(NodeId, Direction) -> bool,
    {
        Routes::up_down(topo, node_alive, link_alive)
    }
}

/// Longest run one packed byte can describe.
const MAX_RUN: usize = 32;

/// An up*/down* [`Routes`] table run-length packed along
/// `table[current * n + dst]`: one byte per run, port code in the low
/// three bits (7 = unreachable) and `length - 1` in the high five. Rows
/// of an up*/down* table are long runs of one port — the 42 tables of
/// the 16×16-torus benchmark schedule are 2 688 KiB dense and 247 KiB
/// packed.
#[derive(Debug)]
struct PackedRoutes {
    runs: Box<[u8]>,
    unreachable_pairs: u64,
}

impl PackedRoutes {
    /// Rebuilds the dense table on `topo`; `unpack(pack(t)) == t`.
    fn unpack(&self, topo: Topo) -> Routes {
        let n = topo.num_nodes();
        let mut table = Vec::with_capacity(n * n);
        for &run in &*self.runs {
            let port = match run & 0x07 {
                7 => UNREACHABLE,
                p => p,
            };
            table.resize(table.len() + (run >> 3) as usize + 1, port);
        }
        debug_assert_eq!(table.len(), n * n);
        Routes {
            topo,
            dense: Some(table),
            n,
            unreachable_pairs: self.unreachable_pairs,
        }
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        self.runs.len()
    }
}

/// Bytes of packed tables and keys [`ROUTE_CACHE`] may hold. One 16×16
/// torus table packs to ≈6 KiB, so this is room for over a thousand
/// distinct dead sets; a process that outgrows it starts over.
const ROUTE_CACHE_CAP: usize = 8 << 20;

/// The process-wide reroute-table cache every
/// [`Network`](crate::network::Network) consults.
pub(crate) static ROUTE_CACHE: LazyLock<RouteCache> =
    LazyLock::new(|| RouteCache::with_cap(ROUTE_CACHE_CAP));

/// Content-addressed memo of up*/down* route tables.
///
/// [`Routes::up_down`] is a pure, deterministic function of
/// `(topology, dead set)` — nothing in it sees packet dynamics — so one
/// table serves every network in the process that reaches the same
/// dead set: replicates, schemes and workloads of a campaign,
/// `RLNOC_JOBS` workers, service campaigns. Values are stored
/// run-length packed ([`PackedRoutes`]) and unpacked into the caller's
/// own dense table on a hit. The footprint is capped: an insert that
/// would overflow drops every entry first, which can only cost a later
/// re-solve. Under the `verify` feature with `RLNOC_VERIFY=1` every hit
/// is re-solved from scratch and compared, so a wrong entry panics
/// instead of silently steering.
#[derive(Debug)]
pub(crate) struct RouteCache {
    cap: usize,
    entries: Mutex<RouteCacheEntries>,
}

/// Keyed by the exact dead set, compared in full on every lookup —
/// never an event count (two schedules can reach one count with
/// different dead sets) and never a digest (a collision would misroute).
#[derive(Debug, Default)]
struct RouteCacheEntries {
    map: HashMap<DeadSet, Arc<PackedRoutes>>,
    /// Packed-table plus key bytes `map` is charged for.
    bytes: usize,
}

impl RouteCache {
    pub(crate) fn with_cap(cap: usize) -> Self {
        Self {
            cap,
            entries: Mutex::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RouteCacheEntries> {
        // No code path panics while holding the guard.
        self.entries.lock().expect("reroute cache lock poisoned")
    }

    /// The up*/down* table for the topology minus `dead`, and whether it
    /// was a hit; a miss solves outside the lock and publishes the
    /// packed result.
    pub(crate) fn up_down(&self, dead: &DeadSet) -> (Routes, bool) {
        let topo = dead.topo();
        let solve = || {
            let node_alive: Vec<bool> = topo.nodes().map(|v| !dead.node_dead(v)).collect();
            Routes::up_down(topo, &node_alive, |n, d| !dead.link_dead(n, d))
        };
        let hit = self.lock().map.get(dead).cloned();
        if let Some(packed) = hit {
            let routes = packed.unpack(topo);
            #[cfg(feature = "verify")]
            if crate::network::invariants::armed() {
                assert!(
                    solve() == routes,
                    "process-wide reroute cache entry for {topo:?} diverges from recomputation"
                );
            }
            return (routes, true);
        }
        let routes = solve();
        self.insert(dead.clone(), routes.pack());
        (routes, false)
    }

    fn insert(&self, key: DeadSet, packed: PackedRoutes) {
        let cost = packed.bytes() + key.heap_bytes();
        let mut entries = self.lock();
        if entries.bytes + cost > self.cap {
            *entries = RouteCacheEntries::default();
        }
        // A racing solver may have published the same (identical) entry
        // already; it is charged once.
        if cost <= self.cap && entries.map.insert(key, Arc::new(packed)).is_none() {
            entries.bytes += cost;
        }
    }

    /// Entries held and the bytes charged for them.
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize) {
        let entries = self.lock();
        (entries.map.len(), entries.bytes)
    }
}

/// Test hook: plants a (presumably wrong) table in the process-wide
/// cache under the exact dead set given, so corruption-injection tests
/// can prove the armed recompute-and-compare check has teeth.
#[cfg(feature = "verify")]
#[doc(hidden)]
pub fn poison_route_cache_for_test(dead: &DeadSet, routes: &Routes) {
    ROUTE_CACHE.insert(dead.clone(), routes.pack());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::HardFault;

    #[test]
    fn route_to_self_is_local() {
        let mesh = Mesh::new(8, 8);
        for node in mesh.nodes() {
            assert_eq!(xy_route(mesh, node, node), Direction::Local);
        }
    }

    #[test]
    fn x_dimension_resolved_first() {
        let mesh = Mesh::new(8, 8);
        let src = mesh.node_at(0, 0);
        let dst = mesh.node_at(7, 7);
        assert_eq!(xy_route(mesh, src, dst), Direction::East);
        let col = mesh.node_at(7, 0);
        assert_eq!(xy_route(mesh, col, dst), Direction::South);
    }

    #[test]
    fn west_and_north_used_when_needed() {
        let mesh = Mesh::new(8, 8);
        assert_eq!(
            xy_route(mesh, mesh.node_at(5, 5), mesh.node_at(2, 5)),
            Direction::West
        );
        assert_eq!(
            xy_route(mesh, mesh.node_at(5, 5), mesh.node_at(5, 2)),
            Direction::North
        );
    }

    #[test]
    fn min_route_matches_xy_route_on_mesh() {
        let mesh = Mesh::new(5, 4);
        for cur in mesh.nodes() {
            for dst in mesh.nodes() {
                assert_eq!(
                    min_route(mesh, cur, dst),
                    (xy_route(mesh, cur, dst), VcClass::Any)
                );
            }
        }
    }

    #[test]
    fn path_endpoints_and_length() {
        let mesh = Mesh::new(8, 8);
        let src = mesh.node_at(1, 2);
        let dst = mesh.node_at(6, 7);
        let path = xy_path(mesh, src, dst);
        assert_eq!(path.first(), Some(&src));
        assert_eq!(path.last(), Some(&dst));
        assert_eq!(path.len(), mesh.hop_distance(src, dst) as usize + 1);
    }

    #[test]
    fn path_to_self_is_singleton() {
        let mesh = Mesh::new(4, 4);
        let n = mesh.node_at(2, 2);
        assert_eq!(xy_path(mesh, n, n), vec![n]);
    }

    #[test]
    fn path_on_torus_takes_the_short_way() {
        let topo = Topo::torus(8, 8);
        let src = topo.node_at(7, 0);
        let dst = topo.node_at(1, 0);
        let path = xy_path(topo, src, dst);
        // 7 → 0 → 1 across the wrap link: 3 nodes, not 7.
        assert_eq!(path.len(), 3);
        assert_eq!(path[1], topo.node_at(0, 0));
    }

    #[test]
    fn healthy_routes_match_xy_route_exhaustively() {
        let mesh = Mesh::new(4, 4);
        let table = Routes::healthy(mesh);
        assert_eq!(table.unreachable_pairs(), 0);
        for cur in mesh.nodes() {
            for dst in mesh.nodes() {
                assert_eq!(
                    table.next_hop(cur, dst),
                    Some((xy_route(mesh, cur, dst), VcClass::Any))
                );
            }
        }
    }

    #[test]
    fn healthy_routes_match_min_route_on_every_topology() {
        for topo in [
            Topo::torus(4, 4),
            Topo::torus(2, 5),
            Topo::ftorus(4, 6),
            Topo::mesh3d(3, 3, 3),
        ] {
            let table = Routes::healthy(topo);
            for cur in topo.nodes() {
                for dst in topo.nodes() {
                    assert_eq!(
                        table.next_hop(cur, dst),
                        Some(topo.min_route(cur, dst)),
                        "{} {cur}→{dst}",
                        topo.encode()
                    );
                }
            }
        }
    }

    #[test]
    fn healthy_routes_fallback_matches_on_large_meshes() {
        for topo in [
            Topo::mesh(64, 33),
            Topo::torus(64, 33),
            Topo::mesh3d(16, 16, 9),
        ] {
            let table = Routes::healthy(topo);
            assert!(
                table.dense.is_none(),
                "{}: large network must use the fallback",
                topo.encode()
            );
            let n = topo.num_nodes() as u16;
            for cur in [0u16, 1, 63, 64, 1000, n - 1] {
                for dst in [0u16, 31, 64, 100, n / 2, n - 1] {
                    let (cur, dst) = (NodeId(cur), NodeId(dst));
                    assert_eq!(table.next_hop(cur, dst), Some(topo.min_route(cur, dst)));
                }
            }
        }
    }

    #[test]
    fn dense_limit_includes_radix_32() {
        // 32×32 = 1024 nodes sits exactly on the dense limit.
        let table = Routes::healthy(Topo::torus(32, 32));
        assert!(table.dense.is_some());
    }

    /// Walks fault routes from `src` to `dst`, panicking on divergence.
    fn walk_fault_route(topo: Topo, routes: &Routes, src: NodeId, dst: NodeId) -> usize {
        let mut current = src;
        let mut hops = 0;
        while current != dst {
            let (dir, class) = routes
                .next_hop(current, dst)
                .expect("reachable pair must have a route");
            assert_eq!(class, VcClass::Any, "up*/down* hops need no VC class");
            assert_ne!(dir, Direction::Local, "Local before reaching dst");
            current = topo.neighbor(current, dir).expect("route stays on mesh");
            hops += 1;
            assert!(hops <= topo.num_nodes(), "route loops");
        }
        hops
    }

    #[test]
    fn fault_routes_deliver_on_healthy_topologies() {
        for topo in [
            Topo::mesh(4, 4),
            Topo::torus(4, 4),
            Topo::ftorus(3, 4),
            Topo::mesh3d(3, 2, 3),
        ] {
            let alive = vec![true; topo.num_nodes()];
            let routes = Routes::up_down(topo, &alive, |_, _| true);
            assert_eq!(routes.unreachable_pairs(), 0, "{}", topo.encode());
            for src in topo.nodes() {
                for dst in topo.nodes() {
                    assert!(routes.reachable(src, dst));
                    walk_fault_route(topo, &routes, src, dst);
                }
            }
            for node in topo.nodes() {
                assert_eq!(
                    routes.next_hop(node, node),
                    Some((Direction::Local, VcClass::Any))
                );
            }
        }
    }

    #[test]
    fn fault_routes_avoid_dead_router() {
        for topo in [Topo::mesh(4, 4), Topo::torus(4, 4), Topo::mesh3d(4, 4, 2)] {
            let dead = topo.node_at(1, 1);
            let mut alive = vec![true; topo.num_nodes()];
            alive[dead.index()] = false;
            let link_ok = |node: NodeId, dir: Direction| {
                topo.neighbor(node, dir)
                    .is_some_and(|n| n != dead && node != dead)
            };
            let routes = Routes::up_down(topo, &alive, link_ok);
            assert_eq!(
                routes.unreachable_pairs(),
                0,
                "{} minus one node stays connected",
                topo.encode()
            );
            for src in topo.nodes().filter(|&n| n != dead) {
                for dst in topo.nodes().filter(|&n| n != dead) {
                    let mut current = src;
                    while current != dst {
                        let (dir, _) = routes.next_hop(current, dst).unwrap();
                        current = topo.neighbor(current, dir).unwrap();
                        assert_ne!(current, dead, "route walked through the dead router");
                    }
                }
                assert!(!routes.reachable(src, dead));
                assert!(!routes.reachable(dead, src));
            }
        }
    }

    #[test]
    fn fault_routes_report_partition() {
        // 1×4 line mesh with the middle link cut: {0,1} | {2,3}.
        let mesh = Mesh::new(4, 1);
        let alive = vec![true; 4];
        let cut = |node: NodeId, dir: Direction| {
            !((node == NodeId(1) && dir == Direction::East)
                || (node == NodeId(2) && dir == Direction::West))
        };
        let routes = Routes::up_down(mesh, &alive, cut);
        // 2 nodes on each side: 2·(2·2) ordered cross pairs.
        assert_eq!(routes.unreachable_pairs(), 8);
        assert!(routes.reachable(NodeId(0), NodeId(1)));
        assert!(!routes.reachable(NodeId(0), NodeId(2)));
        assert!(routes.next_hop(NodeId(1), NodeId(3)).is_none());
        walk_fault_route(Topo::mesh(4, 1), &routes, NodeId(2), NodeId(3));
    }

    /// Dead sets that exercise every packed shape on `topo`: healthy,
    /// one dead router (an all-unreachable row and column), one cut
    /// link, and the dead router plus every link between two column
    /// pairs (a partition on meshes and tori).
    fn packing_cases(topo: Topo) -> Vec<Routes> {
        let dead_node = NodeId((topo.num_nodes() / 2) as u16);
        let w = topo.width();
        let solve = |dead: Option<NodeId>, cut: &dyn Fn(u16, u16) -> bool| {
            let alive: Vec<bool> = topo.nodes().map(|u| Some(u) != dead).collect();
            Routes::up_down(topo, &alive, |u, d| {
                topo.neighbor(u, d).is_some_and(|v| {
                    Some(u) != dead && Some(v) != dead && !cut(u.0.min(v.0), u.0.max(v.0))
                })
            })
        };
        let columns = |lo: u16, hi: u16| {
            let (a, b) = (topo.coord(NodeId(lo)).x, topo.coord(NodeId(hi)).x);
            (a.min(b), a.max(b))
        };
        vec![
            solve(None, &|_, _| false),
            solve(Some(dead_node), &|_, _| false),
            solve(None, &|lo, hi| (lo, hi) == (0, 1)),
            solve(Some(dead_node), &|lo, hi| {
                [(w / 2, w / 2 + 1), (0, w - 1)].contains(&columns(lo, hi))
            }),
        ]
    }

    #[test]
    fn packed_routes_round_trip_on_every_zoo_member() {
        for topo in [
            Topo::mesh(8, 8),
            Topo::torus(16, 16),
            Topo::torus(5, 3),
            Topo::ftorus(4, 6),
            Topo::mesh3d(3, 3, 3),
        ] {
            let n = topo.num_nodes();
            for (case, routes) in packing_cases(topo).into_iter().enumerate() {
                let packed = routes.pack();
                assert_eq!(packed.unpack(topo), routes, "{} case {case}", topo.encode());
                assert!(
                    packed.bytes() < n * n,
                    "{} case {case}: packing must shrink the table",
                    topo.encode()
                );
            }
        }
    }

    #[test]
    fn packed_routes_cover_sentinels_long_runs_and_dead_rows() {
        let topo = Topo::torus(16, 16);
        let n = topo.num_nodes();
        let cases = packing_cases(topo);
        // The dead router's row is n unreachable entries — one run
        // eight times the longest a single byte can describe — and the
        // partitioned case strands whole blocks of pairs.
        let dead_row = &cases[1].dense.as_ref().unwrap()[n / 2 * n..(n / 2 + 1) * n];
        assert!(dead_row.iter().all(|&p| p == UNREACHABLE));
        assert!(n > MAX_RUN);
        assert!(cases[3].unreachable_pairs() > 0);
        for routes in &cases {
            assert_eq!(&routes.pack().unpack(topo), routes);
        }
        // Run boundaries: exactly MAX_RUN, one more, and a lone entry.
        for len in [
            1,
            MAX_RUN - 1,
            MAX_RUN,
            MAX_RUN + 1,
            3 * MAX_RUN,
            3 * MAX_RUN + 1,
        ] {
            let mut table = vec![UNREACHABLE; len];
            table.extend([0, 6, 6, 4]);
            table.resize(256, 2);
            let routes = Routes {
                topo: Topo::mesh(4, 4),
                dense: Some(table),
                n: 16,
                unreachable_pairs: len as u64,
            };
            assert_eq!(
                routes.pack().unpack(routes.topo),
                routes,
                "leading run of {len}"
            );
        }
    }

    #[test]
    fn cache_key_keeps_the_topology() {
        // One dead link at the same bit index on three 16-node
        // topologies: the dead sets are bit-identical, so only the key's
        // topology tells them apart. A key without it would hand the
        // mesh's table to the two tori.
        let cache = RouteCache::with_cap(ROUTE_CACHE_CAP);
        let dead = |topo: Topo| {
            let mut dead = DeadSet::new(topo);
            dead.apply(HardFault::Link {
                node: 0,
                dir: Direction::East,
            });
            dead
        };
        let topos = [Topo::mesh(4, 4), Topo::torus(4, 4), Topo::ftorus(4, 4)];
        let tables: Vec<Routes> = topos
            .iter()
            .map(|&topo| {
                let (routes, hit) = cache.up_down(&dead(topo));
                assert!(!hit, "{}: a cold key must solve", topo.encode());
                routes
            })
            .collect();
        assert_eq!(cache.held().0, 3, "three solves, three entries");
        for (i, a) in tables.iter().enumerate() {
            for b in &tables[i + 1..] {
                assert_ne!(a, b, "{:?} and {:?} share a table", a.topo, b.topo);
            }
        }
        // The folded torus has the torus's graph, so those two differ
        // in the topology they route, not in their entries.
        assert_ne!(tables[0].dense, tables[1].dense);
        let (warm, hit) = cache.up_down(&dead(topos[1]));
        assert!(hit, "a warm key hits");
        assert_eq!(warm, tables[1]);
    }

    #[test]
    fn path_turns_at_most_once() {
        // X-Y routing: the direction sequence changes at most once
        // (E/W segment then N/S segment).
        let mesh = Mesh::new(8, 8);
        let path = xy_path(mesh, mesh.node_at(0, 7), mesh.node_at(7, 0));
        let mut changes = 0;
        let mut prev: Option<Direction> = None;
        for w in path.windows(2) {
            let dir = xy_route(mesh, w[0], w[1]);
            if prev.is_some() && prev != Some(dir) {
                changes += 1;
            }
            prev = Some(dir);
        }
        assert!(changes <= 1, "X-Y path turned {changes} times");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn every_step_decreases_distance(a in 0u16..64, b in 0u16..64) {
            let mesh = Mesh::new(8, 8);
            let (src, dst) = (NodeId(a), NodeId(b));
            let mut current = src;
            let mut steps = 0;
            while current != dst {
                let before = mesh.hop_distance(current, dst);
                let dir = xy_route(mesh, current, dst);
                current = mesh.neighbor(current, dir).expect("route stays on mesh");
                prop_assert_eq!(mesh.hop_distance(current, dst), before - 1);
                steps += 1;
                prop_assert!(steps <= 14, "route did not converge");
            }
        }

        #[test]
        fn path_has_no_repeated_nodes(a in 0u16..64, b in 0u16..64) {
            let mesh = Mesh::new(8, 8);
            let path = xy_path(mesh, NodeId(a), NodeId(b));
            let mut sorted: Vec<_> = path.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), path.len());
        }
    }
}
