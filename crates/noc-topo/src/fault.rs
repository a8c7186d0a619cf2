//! Permanent faults and the dead set they leave behind.
//!
//! A [`HardFault`] kills one bidirectional link or one whole router; a
//! [`DeadSet`] is what a sequence of them has killed so far. The rule
//! that turns faults into dead elements lives here and nowhere else: a
//! link death takes both channel directions, and a router death takes
//! the router and every link touching it. The schedule generator, the
//! simulator's fault state, its reroute cache and the controllers'
//! fault-degree feature all read dead elements through a `DeadSet`.

use crate::{Direction, NodeId, Topo, MAX_PORTS};

/// One permanent failure: a single link channel pair or a whole router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HardFault {
    /// The bidirectional link leaving `node` in compass direction
    /// `dir`. Both channel directions die.
    Link {
        /// Row-major node id of one endpoint.
        node: u16,
        /// Compass direction toward the other endpoint.
        dir: Direction,
    },
    /// The whole router: the node and every link touching it.
    Router {
        /// Row-major node id.
        node: u16,
    },
}

impl HardFault {
    /// The router the fault names: the failing router, or the link's
    /// endpoint it is given from.
    pub fn node(self) -> NodeId {
        let (HardFault::Link { node, .. } | HardFault::Router { node }) = self;
        NodeId(node)
    }

    /// The routers the fault touches on `topo`: [`HardFault::node`]
    /// first, then the other endpoint of every link it kills. A router
    /// reaching one neighbour by two links (a 2-wide torus) lists it
    /// twice.
    pub fn touched(self, topo: Topo) -> impl Iterator<Item = NodeId> {
        std::iter::once(self.node()).chain(self.links(topo).map(|(_, peer)| peer))
    }

    /// The links the fault kills on `topo`, each as the direction it
    /// leaves [`HardFault::node`] in and the router at its far end.
    fn links(self, topo: Topo) -> impl Iterator<Item = (Direction, NodeId)> {
        let node = self.node();
        let kills = move |d: &Direction| match self {
            HardFault::Link { dir, .. } => *d == dir,
            HardFault::Router { .. } => true,
        };
        let dirs = topo.compass().iter().copied().filter(kills);
        dirs.filter_map(move |d| Some((d, topo.neighbor(node, d)?)))
    }
}

/// A [`HardFault`] stamped with the cycle at which it takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HardFaultEntry {
    /// Simulation cycle at which the fault becomes permanent.
    pub cycle: u64,
    /// What fails.
    pub fault: HardFault,
}

/// Bit of a router's byte in [`DeadSet`] that marks the router itself
/// dead; bits `0..MAX_PORTS` mark its channels by port index.
const ROUTER_BIT: u8 = 1 << MAX_PORTS;

/// The routers and links of one topology that have permanently died.
///
/// One byte per router: a bit per outgoing channel by port index, and
/// the top bit for the router. So the set is its own exact, compact
/// hash key: two sets compare equal iff they kill the same elements on
/// the same topology.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeadSet {
    topo: Topo,
    marks: Box<[u8]>,
}

impl DeadSet {
    /// The intact topology: nothing dead.
    pub fn new(topo: impl Into<Topo>) -> Self {
        let topo = topo.into();
        Self {
            topo,
            marks: vec![0; topo.num_nodes()].into(),
        }
    }

    /// The topology the set's node ids and directions refer to.
    pub fn topo(&self) -> Topo {
        self.topo
    }

    /// Kills the fault's elements. A link beyond a mesh edge names
    /// nothing and kills nothing.
    pub fn apply(&mut self, fault: HardFault) {
        self.mark(fault, true);
    }

    /// Revives the elements [`DeadSet::apply`] killed for `fault`: the
    /// rollback of a rejected candidate. Only exact when no other
    /// applied fault killed any of them.
    pub fn roll_back(&mut self, fault: HardFault) {
        self.mark(fault, false);
    }

    fn mark(&mut self, fault: HardFault, dead: bool) {
        let node = fault.node();
        if let HardFault::Router { .. } = fault {
            self.set(node, ROUTER_BIT, dead);
        }
        for (dir, peer) in fault.links(self.topo) {
            self.set(node, 1 << dir.index(), dead);
            self.set(peer, 1 << dir.opposite().index(), dead);
        }
    }

    fn set(&mut self, node: NodeId, bit: u8, dead: bool) {
        let marks = &mut self.marks[node.index()];
        *marks = if dead { *marks | bit } else { *marks & !bit };
    }

    /// Whether router `node` has died.
    #[inline]
    pub fn node_dead(&self, node: NodeId) -> bool {
        self.marks[node.index()] & ROUTER_BIT != 0
    }

    /// Whether the channel leaving `node` in `dir` has died (never for
    /// `Local`, nor for a port beyond a mesh edge).
    #[inline]
    pub fn link_dead(&self, node: NodeId, dir: Direction) -> bool {
        self.marks[node.index()] & 1 << dir.index() != 0
    }

    /// The fraction of `node`'s links that have died, `1.0` for a dead
    /// router: the local fault degree the controllers observe.
    pub fn degree(&self, node: NodeId) -> f64 {
        if self.node_dead(node) {
            return 1.0;
        }
        let (mut existing, mut dead) = (0u32, 0u32);
        let router = HardFault::Router { node: node.0 };
        for (dir, _) in router.links(self.topo) {
            existing += 1;
            dead += u32::from(self.link_dead(node, dir));
        }
        if existing == 0 {
            0.0
        } else {
            f64::from(dead) / f64::from(existing)
        }
    }

    /// Whether every live router reaches every other over live links
    /// (vacuously `true` with none left). A whole-graph search.
    pub fn connected(&self) -> bool {
        let mut live = self.topo.nodes().filter(|&v| !self.node_dead(v));
        let Some(start) = live.next() else {
            return true;
        };
        let mut seen = vec![false; self.topo.num_nodes()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        let mut reached = 1;
        while let Some(u) = stack.pop() {
            for &dir in self.topo.compass() {
                let Some(v) = self.topo.neighbor(u, dir) else {
                    continue;
                };
                if self.link_dead(u, dir) || self.node_dead(v) || seen[v.index()] {
                    continue;
                }
                seen[v.index()] = true;
                reached += 1;
                stack.push(v);
            }
        }
        reached == 1 + live.count()
    }

    /// Heap bytes the set holds.
    pub fn heap_bytes(&self) -> usize {
        self.marks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(node: u16, dir: Direction) -> HardFault {
        HardFault::Link { node, dir }
    }

    /// Every router's and channel's liveness, for whole-set comparisons.
    fn snapshot(dead: &DeadSet) -> Vec<bool> {
        let topo = dead.topo();
        topo.nodes()
            .flat_map(|v| {
                let links = Direction::ALL.map(|d| dead.link_dead(v, d));
                std::iter::once(dead.node_dead(v)).chain(links)
            })
            .collect()
    }

    #[test]
    fn apply_and_roll_back_round_trip() {
        let topo = Topo::torus(4, 4);
        let mut dead = DeadSet::new(topo);
        dead.apply(link(0, Direction::West));
        let before = dead.clone();
        for fault in [
            HardFault::Router { node: 10 },
            link(5, Direction::South),
            link(15, Direction::East),
        ] {
            dead.apply(fault);
            assert_ne!(dead, before, "{fault:?} kills something");
            dead.roll_back(fault);
            assert_eq!(dead, before, "{fault:?} rolls back exactly");
            assert_eq!(snapshot(&dead), snapshot(&before));
        }
    }

    #[test]
    fn a_link_death_kills_both_directions() {
        for topo in [Topo::mesh(4, 4), Topo::torus(4, 4), Topo::mesh3d(3, 3, 2)] {
            for node in topo.nodes() {
                for &dir in topo.compass() {
                    let Some(peer) = topo.neighbor(node, dir) else {
                        continue;
                    };
                    let mut dead = DeadSet::new(topo);
                    dead.apply(link(node.0, dir));
                    assert!(dead.link_dead(node, dir) && dead.link_dead(peer, dir.opposite()));
                    assert!(!dead.node_dead(node) && !dead.node_dead(peer));
                    let killed = snapshot(&dead).iter().filter(|&&d| d).count();
                    assert_eq!(killed, 2, "{topo:?} {node}:{dir} kills one channel pair");
                }
            }
        }
    }

    #[test]
    fn a_router_death_kills_every_link_touching_it() {
        let topo = Topo::mesh(4, 4);
        let mut dead = DeadSet::new(topo);
        let node = topo.node_at(1, 1);
        dead.apply(HardFault::Router { node: node.0 });
        assert!(dead.node_dead(node));
        for &dir in topo.compass() {
            let peer = topo.neighbor(node, dir).expect("interior router");
            assert!(dead.link_dead(node, dir) && dead.link_dead(peer, dir.opposite()));
            assert!(!dead.node_dead(peer));
        }
        // A mesh-edge link names nothing.
        let mut edge = DeadSet::new(topo);
        edge.apply(link(0, Direction::North));
        assert_eq!(edge, DeadSet::new(topo));
    }

    #[test]
    fn degree_counts_existing_links_only() {
        // A mesh corner has two links; one dead is half its degree.
        let mesh = Topo::mesh(4, 4);
        let mut dead = DeadSet::new(mesh);
        dead.apply(link(0, Direction::East));
        assert_eq!(dead.degree(NodeId(0)), 0.5);
        assert_eq!(
            dead.degree(NodeId(1)),
            1.0 / 3.0,
            "an edge router has three"
        );
        assert_eq!(dead.degree(NodeId(5)), 0.0);
        dead.apply(HardFault::Router { node: 4 });
        assert_eq!(dead.degree(NodeId(4)), 1.0);
        assert_eq!(dead.degree(NodeId(0)), 1.0, "both corner links gone");

        // Every torus router has four links, corners included.
        let torus = Topo::torus(4, 4);
        let mut dead = DeadSet::new(torus);
        dead.apply(link(0, Direction::West));
        assert_eq!(dead.degree(NodeId(0)), 0.25);
        assert_eq!(dead.degree(NodeId(3)), 0.25, "the wrap link's far end");

        // A 3D-mesh corner has three links, the centre of a 3×3×3 six.
        let cube = Topo::mesh3d(3, 3, 3);
        let centre = NodeId(13);
        let mut dead = DeadSet::new(cube);
        dead.apply(link(0, Direction::Up));
        dead.apply(link(centre.0, Direction::Up));
        assert_eq!(dead.degree(NodeId(0)), 1.0 / 3.0);
        assert_eq!(dead.degree(centre), 1.0 / 6.0);
    }

    #[test]
    fn touched_lists_the_node_then_the_peers_it_cuts_off() {
        let topo = Topo::mesh(4, 4);
        let router: Vec<u16> = HardFault::Router { node: 5 }
            .touched(topo)
            .map(|v| v.0)
            .collect();
        assert_eq!(router, [5, 1, 6, 9, 4]);
        let corner: Vec<u16> = HardFault::Router { node: 0 }
            .touched(topo)
            .map(|v| v.0)
            .collect();
        assert_eq!(corner, [0, 1, 4]);
        let east: Vec<u16> = link(5, Direction::East)
            .touched(topo)
            .map(|v| v.0)
            .collect();
        assert_eq!(east, [5, 6]);
        // A 2-wide torus reaches its one row neighbour both ways.
        let narrow: Vec<u16> = HardFault::Router { node: 0 }
            .touched(Topo::torus(2, 2))
            .map(|v| v.0)
            .collect();
        assert_eq!(narrow, [0, 2, 1, 2, 1]);
    }

    #[test]
    fn connected_sees_cuts() {
        let topo = Topo::mesh(3, 3);
        let mut dead = DeadSet::new(topo);
        assert!(dead.connected());
        dead.apply(link(0, Direction::East));
        assert!(dead.connected());
        dead.apply(link(0, Direction::South));
        assert!(!dead.connected(), "router 0 is cut off");
        dead.apply(HardFault::Router { node: 0 });
        assert!(dead.connected(), "a dead router needs no path");
        for node in 0..9 {
            dead.apply(HardFault::Router { node });
        }
        assert!(dead.connected(), "vacuous with nothing alive");
    }
}
