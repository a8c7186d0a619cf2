//! Reference routing: the model's one next-hop handle, and the
//! closure-based up*/down* solver behind it.
//!
//! This is the solver the optimized engine shipped before its flat-array
//! rewrite, kept here verbatim as the reference model's own reroute so
//! the differential oracle shares no routing code with production:
//! `VecDeque` BFS, `link_alive`/`neighbor` re-evaluated at every edge
//! visit, three separate per-destination passes, and an n² scan for the
//! partition count. See `noc_sim::routing::Routes::up_down` for the scheme
//! itself (rank orientation, suffix consistency, tie-breaks); the two
//! must agree entry for entry on every dead set.

use noc_sim::routing::min_route;
use noc_sim::topology::{Direction, NodeId, Topo, VcClass};

/// Sentinel port index for "no route" entries.
const UNREACHABLE_PORT: u8 = 0xFF;

/// The reference model's one routing handle: minimal dimension-ordered
/// routes computed on demand while the topology is intact, an up*/down*
/// table once hard faults strike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefRoutes {
    topo: Topo,
    /// `table[current * n + dst]` is the up*/down* output port index, or
    /// [`UNREACHABLE_PORT`] when no live route exists. Empty for minimal
    /// routes.
    table: Vec<u8>,
    unreachable_pairs: u64,
}

impl RefRoutes {
    /// Minimal routes on the intact `topo`.
    pub fn minimal(topo: Topo) -> Self {
        Self {
            topo,
            table: Vec::new(),
            unreachable_pairs: 0,
        }
    }

    /// Builds the up*/down* table over the live sub-topology; same
    /// contract as `noc_sim::routing::Routes::up_down`.
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
        let n = topo.num_nodes();
        assert_eq!(node_alive.len(), n, "liveness vector must cover the mesh");
        // BFS forest: component label and level (root distance) per node.
        let mut level: Vec<u16> = vec![u16::MAX; n];
        let mut comp: Vec<u16> = vec![u16::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for root in topo.nodes() {
            if !node_alive[root.index()] || comp[root.index()] != u16::MAX {
                continue;
            }
            comp[root.index()] = root.0;
            level[root.index()] = 0;
            queue.push_back(root);
            while let Some(u) = queue.pop_front() {
                for &dir in compass {
                    if !link_alive(u, dir) {
                        continue;
                    }
                    let Some(v) = topo.neighbor(u, dir) else {
                        continue;
                    };
                    if node_alive[v.index()] && comp[v.index()] == u16::MAX {
                        comp[v.index()] = root.0;
                        level[v.index()] = level[u.index()] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }

        // Rank orients every live link: its "up" end is the smaller
        // `(level, id)`. Up traversals strictly decrease rank, down
        // traversals strictly increase it.
        let rank = |u: NodeId| (level[u.index()], u.0);
        // Live nodes in increasing rank order, for the up-phase DP.
        let mut by_rank: Vec<NodeId> = topo.nodes().filter(|&u| node_alive[u.index()]).collect();
        by_rank.sort_by_key(|&u| rank(u));

        let mut table = vec![UNREACHABLE_PORT; n * n];
        let mut dist_down: Vec<u32> = Vec::new();
        let mut dist_any: Vec<u32> = Vec::new();
        for dst in topo.nodes() {
            if !node_alive[dst.index()] {
                continue;
            }
            // Pure-down distance to `dst`: BFS from `dst` across
            // reversed down traversals (a hop u→x with rank(u) <
            // rank(x) may end a pure-down route iff x already can).
            dist_down.clear();
            dist_down.resize(n, u32::MAX);
            dist_down[dst.index()] = 0;
            queue.clear();
            queue.push_back(dst);
            while let Some(x) = queue.pop_front() {
                for &dir in compass {
                    if !link_alive(x, dir) {
                        continue;
                    }
                    let Some(u) = topo.neighbor(x, dir) else {
                        continue;
                    };
                    if node_alive[u.index()]
                        && rank(u) < rank(x)
                        && dist_down[u.index()] == u32::MAX
                    {
                        dist_down[u.index()] = dist_down[x.index()] + 1;
                        queue.push_back(u);
                    }
                }
            }
            // Legal (up* then down*) distance: a route either is pure
            // down, or first climbs one up-link. Up-links strictly
            // decrease rank, so increasing-rank order is a valid DP
            // order.
            dist_any.clear();
            dist_any.resize(n, u32::MAX);
            for &u in &by_rank {
                if comp[u.index()] != comp[dst.index()] {
                    continue;
                }
                let mut best = dist_down[u.index()];
                for &dir in compass {
                    if !link_alive(u, dir) {
                        continue;
                    }
                    let Some(v) = topo.neighbor(u, dir) else {
                        continue;
                    };
                    if node_alive[v.index()] && rank(v) < rank(u) && dist_any[v.index()] != u32::MAX
                    {
                        best = best.min(dist_any[v.index()] + 1);
                    }
                }
                dist_any[u.index()] = best;
            }
            // Next hops: prefer the shortest pure-down continuation
            // (suffix-consistent — every node after it also has one);
            // otherwise climb the up-link on a shortest legal route.
            // Ties break toward the smallest port index.
            for &u in &by_rank {
                if u == dst || comp[u.index()] != comp[dst.index()] {
                    continue;
                }
                let downhill = dist_down[u.index()] != u32::MAX;
                for &dir in compass {
                    if !link_alive(u, dir) {
                        continue;
                    }
                    let Some(v) = topo.neighbor(u, dir) else {
                        continue;
                    };
                    if !node_alive[v.index()] {
                        continue;
                    }
                    let good = if downhill {
                        rank(v) > rank(u)
                            && dist_down[v.index()] != u32::MAX
                            && dist_down[v.index()] + 1 == dist_down[u.index()]
                    } else {
                        rank(v) < rank(u)
                            && dist_any[v.index()] != u32::MAX
                            && dist_any[v.index()] + 1 == dist_any[u.index()]
                    };
                    if good {
                        table[u.index() * n + dst.index()] = dir.index() as u8;
                        break;
                    }
                }
                debug_assert_ne!(
                    table[u.index() * n + dst.index()],
                    UNREACHABLE_PORT,
                    "connected pair {u}→{dst} must get a next hop"
                );
            }
            table[dst.index() * n + dst.index()] = Direction::Local.index() as u8;
        }

        let mut unreachable_pairs = 0u64;
        for u in topo.nodes() {
            for v in topo.nodes() {
                if u != v
                    && node_alive[u.index()]
                    && node_alive[v.index()]
                    && comp[u.index()] != comp[v.index()]
                {
                    unreachable_pairs += 1;
                }
            }
        }

        Self {
            topo,
            table,
            unreachable_pairs,
        }
    }

    /// The output port and VC class at `current` for a packet headed to
    /// `dst`, or `None` when no live route exists. Up*/down* routes are
    /// deadlock-free by rank monotonicity alone, so they place no VC
    /// restriction.
    pub fn next_hop(&self, current: NodeId, dst: NodeId) -> Option<(Direction, VcClass)> {
        if self.table.is_empty() {
            return Some(min_route(self.topo, current, dst));
        }
        let p = self.table[current.index() * self.topo.num_nodes() + dst.index()];
        (p != UNREACHABLE_PORT).then(|| (Direction::from_index(p as usize), VcClass::Any))
    }

    /// Whether a live route from `a` to `b` exists.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.next_hop(a, b).is_some()
    }

    /// Number of ordered live node pairs with no route between them.
    pub fn unreachable_pairs(&self) -> u64 {
        self.unreachable_pairs
    }
}
