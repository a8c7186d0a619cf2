//! Topology zoo: node identifiers, coordinates, port directions, link
//! identifiers, the [`Topology`] trait, and its four implementations —
//! 2D mesh, 2D torus, folded torus, and 3D mesh.
//!
//! The paper evaluates an 8×8 2D mesh; the zoo generalizes the same
//! router micro-architecture to wrap-around and stacked networks.
//! Every topology projects its nodes onto a row-major 2D grid
//! (`index = y * width + x`, with a 3D mesh flattening its layers into
//! `height = h × depth` rows), so grid-indexed consumers — thermal and
//! variation maps, synthetic traffic patterns — work unchanged on all
//! of them. Only adjacency, minimal routing, and the port count differ
//! per topology.
//!
//! Deadlock freedom:
//! - the 2D mesh uses X-Y dimension-order routing (no VC restriction
//!   needed);
//! - tori use dimension-order routing plus the classic *date-line*
//!   virtual-channel split ([`VcClass`]): a packet that still has to
//!   cross the wrap-around link of its current ring travels in the low
//!   VC half, and switches to the high half once past the date line, so
//!   no cycle of channel dependencies can close around a ring;
//! - the 3D mesh uses X-Y-Z dimension-order routing.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of ports on a 2D router (N, E, S, W, Local).
///
/// This is also the fixed normalization baseline for per-port
/// utilization statistics across all topologies, so 2D results are
/// unchanged by the topology generalization.
pub const NUM_PORTS: usize = 5;

/// Maximum number of ports on any router in the zoo
/// (N, E, S, W, Local, Up, Down). Fixed-size per-port arrays are sized
/// by this; loops over them must be bounded by the topology's
/// [`Topology::num_ports`].
pub const MAX_PORTS: usize = 7;

/// Identifies one router (equivalently, one core/tile).
///
/// Node indices are row-major over the topology's projection grid:
/// `index = y * width + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An (x, y) position in the projection grid, with the origin at the
/// north-west corner (x grows east, y grows south).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column, 0-based.
    pub x: u16,
    /// Row, 0-based.
    pub y: u16,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A router port direction. `Local` is the injection/ejection port;
/// `Up`/`Down` exist only on 3D topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum Direction {
    /// Towards smaller `y`.
    North = 0,
    /// Towards larger `x`.
    East = 1,
    /// Towards larger `y`.
    South = 2,
    /// Towards smaller `x`.
    West = 3,
    /// The attached processing core.
    Local = 4,
    /// Towards larger `z` (the next stacked layer).
    Up = 5,
    /// Towards smaller `z` (the previous stacked layer).
    Down = 6,
}

impl Direction {
    /// All port directions, in port-index order.
    pub const ALL: [Direction; MAX_PORTS] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::Local,
        Direction::Up,
        Direction::Down,
    ];

    /// The four planar inter-router directions.
    pub const COMPASS: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The six inter-router directions of a 3D mesh, in port-index
    /// order (the deterministic exploration order for BFS-based route
    /// construction).
    pub const COMPASS3D: [Direction; 6] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::Up,
        Direction::Down,
    ];

    /// The port index of this direction (0..=6).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Builds a direction from a port index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_PORTS`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// The direction a flit *arrives from* when sent in this direction
    /// (e.g. a flit sent `East` arrives on the neighbor's `West` port).
    ///
    /// # Panics
    ///
    /// Panics for `Local`, which has no opposite.
    #[inline]
    pub fn opposite(self) -> Self {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
            Direction::Local => panic!("Local port has no opposite direction"),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
            Direction::Local => "L",
            Direction::Up => "U",
            Direction::Down => "D",
        };
        f.write_str(s)
    }
}

/// Identifies one *output link*: the channel leaving router `src` in
/// direction `dir`.
///
/// `dir == Local` identifies the ejection channel into the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId {
    /// The upstream (sending) router.
    pub src: NodeId,
    /// The output direction at `src`.
    pub dir: Direction,
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.src, self.dir)
    }
}

/// Date-line virtual-channel class of a routed hop.
///
/// On wrap-around (torus) topologies each ring is split by a *date
/// line* at its wrap link. A hop whose remaining travel in the current
/// dimension still crosses the date line must use the low half of the
/// VC range; once past it, the high half. Since every packet's class
/// sequence is monotone (`Lo` then `Hi` within a dimension, and
/// dimensions are visited in fixed X-then-Y order), the channel
/// dependency graph is acyclic and dimension-order torus routing is
/// deadlock-free. Mesh topologies and up*/down* fault recovery place
/// no restriction (`Any`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum VcClass {
    /// No restriction: any VC at the downstream input port.
    Any = 0,
    /// Low half of the VC range (`0..v/2`): still has to cross the
    /// date line in the current dimension.
    Lo = 1,
    /// High half of the VC range (`v/2..v`): past the date line.
    Hi = 2,
}

impl VcClass {
    /// Class iteration order for VC allocation: unrestricted
    /// requesters first, then the two date-line halves.
    pub const ALL: [VcClass; 3] = [VcClass::Any, VcClass::Lo, VcClass::Hi];

    /// The class index (0..=2).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Builds a class from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 3`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// The admissible VC indices at a port with `vcs_per_port` VCs.
    ///
    /// `Lo` is `0..v/2`, `Hi` is `v/2..v`, `Any` is the full range.
    /// Both halves are non-empty whenever `v >= 2` (the minimum VC
    /// count a torus topology demands).
    #[inline]
    pub fn vc_range(self, vcs_per_port: u8) -> std::ops::Range<usize> {
        let v = vcs_per_port as usize;
        match self {
            VcClass::Any => 0..v,
            VcClass::Lo => 0..v / 2,
            VcClass::Hi => v / 2..v,
        }
    }

    /// Whether `vc` is admissible for this class.
    #[inline]
    pub fn admits(self, vc: usize, vcs_per_port: u8) -> bool {
        self.vc_range(vcs_per_port).contains(&vc)
    }
}

/// The behavior every network shape must provide: node enumeration,
/// port/neighbor adjacency, minimal routing, and a deterministic text
/// encoding for fingerprints and case files.
///
/// Node indices are row-major over a `proj_width × proj_height`
/// projection grid shared by all implementations, so grid-indexed
/// consumers need no per-topology code.
pub trait Topology {
    /// Total number of routers.
    fn num_nodes(&self) -> usize;

    /// Ports per router, including `Local` (5 planar, 7 stacked).
    fn num_ports(&self) -> usize;

    /// The inter-router directions of this topology, in port-index
    /// order (the deterministic neighbor-exploration order).
    fn compass(&self) -> &'static [Direction];

    /// Width of the row-major projection grid.
    fn proj_width(&self) -> u16;

    /// Height of the row-major projection grid (`h × depth` for a 3D
    /// mesh).
    fn proj_height(&self) -> u16;

    /// The neighbor of `node` in direction `dir`, or `None` at an edge
    /// (or when `dir` is `Local` or not a port of this topology).
    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId>;

    /// Minimal hop count between two nodes (wrap-aware on tori).
    fn hop_distance(&self, a: NodeId, b: NodeId) -> u16;

    /// The minimal-route output port at `current` for a packet headed
    /// to `dst`, with the date-line VC class of the hop. Returns
    /// `(Local, Any)` when `current == dst` (eject).
    fn min_route(&self, current: NodeId, dst: NodeId) -> (Direction, VcClass);

    /// Minimum `vcs_per_port` the topology's deadlock-avoidance scheme
    /// requires (2 on tori, 1 elsewhere).
    fn min_vcs(&self) -> u8 {
        1
    }

    /// Deterministic text encoding (`8x8`, `torus:8x8`, `ftorus:8x8`,
    /// `3d:4x4x2`), parseable by [`Topo::parse`].
    fn encode(&self) -> String;
}

/// One step along a ring of circumference `k`, from coordinate `c`
/// towards `d` (`c != d`): returns `(positive, crosses_dateline)`.
///
/// `positive` picks the direction of the minimal ring distance (ties
/// break towards the positive direction, matching X-Y's East/South
/// preference); `crosses_dateline` is whether the remaining travel
/// still crosses the ring's wrap link (between coordinate `k-1` and
/// `0`), which selects [`VcClass::Lo`].
#[inline]
fn ring_step(c: u16, d: u16, k: u16) -> (bool, bool) {
    debug_assert!(c != d && c < k && d < k);
    let fwd = (d + k - c) % k;
    let bwd = (c + k - d) % k;
    let positive = fwd <= bwd;
    let crosses = if positive { c > d } else { c < d };
    (positive, crosses)
}

/// Minimal ring distance between two coordinates on a ring of
/// circumference `k`.
#[inline]
fn ring_dist(c: u16, d: u16, k: u16) -> u16 {
    let fwd = (d + k - c) % k;
    let bwd = (c + k - d) % k;
    fwd.min(bwd)
}

/// A 2D mesh topology.
///
/// # Example
///
/// ```
/// use noc_topo::{Mesh, Direction, NodeId, Topology};
///
/// let mesh = Mesh::new(8, 8);
/// assert_eq!(mesh.num_nodes(), 64);
/// let origin = mesh.node_at(0, 0);
/// assert_eq!(mesh.neighbor(origin, Direction::East), Some(mesh.node_at(1, 0)));
/// assert_eq!(mesh.neighbor(origin, Direction::North), None); // edge of chip
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the node count exceeds
    /// `u16::MAX`.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32 + 1,
            "mesh too large for u16 node ids"
        );
        Self { width, height }
    }

    /// Mesh width (columns).
    pub fn width(self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total number of routers.
    pub fn num_nodes(self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The node at position `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    pub fn node_at(self, x: u16, y: u16) -> NodeId {
        assert!(x < self.width && y < self.height, "coordinate out of mesh");
        NodeId(y * self.width + x)
    }

    /// The coordinate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    pub fn coord(self, node: NodeId) -> Coord {
        assert!(node.index() < self.num_nodes(), "node out of mesh");
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }

    /// The neighbor of `node` in direction `dir`, or `None` at a mesh
    /// edge (or when `dir` is `Local`).
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let Coord { x, y } = self.coord(node);
        let (nx, ny) = match dir {
            Direction::North => (x, y.checked_sub(1)?),
            Direction::South => (x, y + 1),
            Direction::East => (x + 1, y),
            Direction::West => (x.checked_sub(1)?, y),
            Direction::Local | Direction::Up | Direction::Down => return None,
        };
        if nx < self.width && ny < self.height {
            Some(self.node_at(nx, ny))
        } else {
            None
        }
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(|i| NodeId(i as u16))
    }

    /// Iterates over all inter-router output links (`Local` excluded).
    pub fn links(self) -> impl Iterator<Item = LinkId> {
        self.nodes().flat_map(move |n| {
            Direction::COMPASS
                .into_iter()
                .filter(move |&d| self.neighbor(n, d).is_some())
                .map(move |d| LinkId { src: n, dir: d })
        })
    }

    /// Manhattan distance between two nodes (the X-Y hop count).
    pub fn hop_distance(self, a: NodeId, b: NodeId) -> u16 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)
    }
}

impl Topology for Mesh {
    fn num_nodes(&self) -> usize {
        Mesh::num_nodes(*self)
    }

    fn num_ports(&self) -> usize {
        NUM_PORTS
    }

    fn compass(&self) -> &'static [Direction] {
        &Direction::COMPASS
    }

    fn proj_width(&self) -> u16 {
        self.width
    }

    fn proj_height(&self) -> u16 {
        self.height
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        Mesh::neighbor(*self, node, dir)
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> u16 {
        Mesh::hop_distance(*self, a, b)
    }

    fn min_route(&self, current: NodeId, dst: NodeId) -> (Direction, VcClass) {
        let c = self.coord(current);
        let d = self.coord(dst);
        let dir = if c.x < d.x {
            Direction::East
        } else if c.x > d.x {
            Direction::West
        } else if c.y < d.y {
            Direction::South
        } else if c.y > d.y {
            Direction::North
        } else {
            Direction::Local
        };
        (dir, VcClass::Any)
    }

    fn encode(&self) -> String {
        format!("{}x{}", self.width, self.height)
    }
}

/// A 2D torus: a mesh whose rows and columns wrap around into rings.
///
/// Dimension-order routing takes the shorter way around each ring
/// (ties towards East/South) and stays deadlock-free via the date-line
/// VC split, so a torus network needs `vcs_per_port >= 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Torus {
    width: u16,
    height: u16,
}

impl Torus {
    /// Creates a `width × height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either ring has fewer than 2 nodes (a 1-ring would be
    /// a self-loop link) or the node count exceeds `u16::MAX`.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(
            width >= 2 && height >= 2,
            "torus dimensions must be at least 2"
        );
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32 + 1,
            "torus too large for u16 node ids"
        );
        Self { width, height }
    }

    /// Torus width (ring circumference along x).
    pub fn width(self) -> u16 {
        self.width
    }

    /// Torus height (ring circumference along y).
    pub fn height(self) -> u16 {
        self.height
    }

    fn coord(self, node: NodeId) -> Coord {
        assert!(
            node.index() < Topology::num_nodes(&self),
            "node out of torus"
        );
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }
}

impl Topology for Torus {
    fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    fn num_ports(&self) -> usize {
        NUM_PORTS
    }

    fn compass(&self) -> &'static [Direction] {
        &Direction::COMPASS
    }

    fn proj_width(&self) -> u16 {
        self.width
    }

    fn proj_height(&self) -> u16 {
        self.height
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let Coord { x, y } = self.coord(node);
        let (w, h) = (self.width, self.height);
        let (nx, ny) = match dir {
            Direction::North => (x, (y + h - 1) % h),
            Direction::South => (x, (y + 1) % h),
            Direction::East => ((x + 1) % w, y),
            Direction::West => ((x + w - 1) % w, y),
            Direction::Local | Direction::Up | Direction::Down => return None,
        };
        Some(NodeId(ny * w + nx))
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> u16 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        ring_dist(ca.x, cb.x, self.width) + ring_dist(ca.y, cb.y, self.height)
    }

    fn min_route(&self, current: NodeId, dst: NodeId) -> (Direction, VcClass) {
        let c = self.coord(current);
        let d = self.coord(dst);
        if c.x != d.x {
            let (positive, crosses) = ring_step(c.x, d.x, self.width);
            let dir = if positive {
                Direction::East
            } else {
                Direction::West
            };
            let class = if crosses { VcClass::Lo } else { VcClass::Hi };
            (dir, class)
        } else if c.y != d.y {
            let (positive, crosses) = ring_step(c.y, d.y, self.height);
            let dir = if positive {
                Direction::South
            } else {
                Direction::North
            };
            let class = if crosses { VcClass::Lo } else { VcClass::Hi };
            (dir, class)
        } else {
            (Direction::Local, VcClass::Any)
        }
    }

    fn min_vcs(&self) -> u8 {
        2
    }

    fn encode(&self) -> String {
        format!("torus:{}x{}", self.width, self.height)
    }
}

/// A folded 2D torus.
///
/// A folded torus interleaves each ring's nodes in the physical layout
/// so that every link spans at most two tile pitches instead of the
/// plain torus's full-width wrap link. At this simulator's level of
/// abstraction (uniform per-hop link latency) its *logical* behavior —
/// adjacency, routing, deadlock avoidance — is identical to [`Torus`];
/// it is kept as a distinct topology kind because campaigns, case
/// files, and fingerprints distinguish the physical design point (a
/// folded torus would take different link latency/energy parameters).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FoldedTorus {
    inner: Torus,
}

impl FoldedTorus {
    /// Creates a `width × height` folded torus.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Torus::new`].
    pub fn new(width: u16, height: u16) -> Self {
        Self {
            inner: Torus::new(width, height),
        }
    }

    /// Folded-torus width (ring circumference along x).
    pub fn width(self) -> u16 {
        self.inner.width()
    }

    /// Folded-torus height (ring circumference along y).
    pub fn height(self) -> u16 {
        self.inner.height()
    }
}

impl fmt::Debug for FoldedTorus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldedTorus")
            .field("width", &self.inner.width())
            .field("height", &self.inner.height())
            .finish()
    }
}

impl Topology for FoldedTorus {
    fn num_nodes(&self) -> usize {
        Topology::num_nodes(&self.inner)
    }

    fn num_ports(&self) -> usize {
        NUM_PORTS
    }

    fn compass(&self) -> &'static [Direction] {
        &Direction::COMPASS
    }

    fn proj_width(&self) -> u16 {
        self.inner.width()
    }

    fn proj_height(&self) -> u16 {
        self.inner.height()
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.inner.neighbor(node, dir)
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> u16 {
        self.inner.hop_distance(a, b)
    }

    fn min_route(&self, current: NodeId, dst: NodeId) -> (Direction, VcClass) {
        self.inner.min_route(current, dst)
    }

    fn min_vcs(&self) -> u8 {
        2
    }

    fn encode(&self) -> String {
        format!("ftorus:{}x{}", self.inner.width(), self.inner.height())
    }
}

/// A 3D mesh: `depth` stacked `width × height` layers joined by
/// vertical `Up`/`Down` links, routed X-Y-Z dimension-order.
///
/// Node indices flatten layers row-major:
/// `index = (z * height + y) * width + x`, which makes the projection
/// grid a `width × (height × depth)` rectangle (each layer is a band
/// of `height` consecutive rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mesh3d {
    width: u16,
    height: u16,
    depth: u16,
}

impl Mesh3d {
    /// Creates a `width × height × depth` 3D mesh.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the node count exceeds
    /// `u16::MAX`.
    pub fn new(width: u16, height: u16, depth: u16) -> Self {
        assert!(
            width > 0 && height > 0 && depth > 0,
            "3d mesh dimensions must be positive"
        );
        assert!(
            (width as u64) * (height as u64) * (depth as u64) <= u16::MAX as u64 + 1,
            "3d mesh too large for u16 node ids"
        );
        Self {
            width,
            height,
            depth,
        }
    }

    /// Layer width (columns).
    pub fn width(self) -> u16 {
        self.width
    }

    /// Layer height (rows per layer).
    pub fn height(self) -> u16 {
        self.height
    }

    /// Number of stacked layers.
    pub fn depth(self) -> u16 {
        self.depth
    }

    /// The (x, y, z) position of `node`.
    fn coord3(self, node: NodeId) -> (u16, u16, u16) {
        assert!(
            node.index() < Topology::num_nodes(&self),
            "node out of 3d mesh"
        );
        let layer = self.width * self.height;
        let z = node.0 / layer;
        let rem = node.0 % layer;
        (rem % self.width, rem / self.width, z)
    }
}

impl Topology for Mesh3d {
    fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize * self.depth as usize
    }

    fn num_ports(&self) -> usize {
        MAX_PORTS
    }

    fn compass(&self) -> &'static [Direction] {
        &Direction::COMPASS3D
    }

    fn proj_width(&self) -> u16 {
        self.width
    }

    fn proj_height(&self) -> u16 {
        self.height * self.depth
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (x, y, z) = self.coord3(node);
        let (nx, ny, nz) = match dir {
            Direction::North => (x, y.checked_sub(1)?, z),
            Direction::South => (x, y + 1, z),
            Direction::East => (x + 1, y, z),
            Direction::West => (x.checked_sub(1)?, y, z),
            Direction::Up => (x, y, z + 1),
            Direction::Down => (x, y, z.checked_sub(1)?),
            Direction::Local => return None,
        };
        if nx < self.width && ny < self.height && nz < self.depth {
            Some(NodeId((nz * self.height + ny) * self.width + nx))
        } else {
            None
        }
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> u16 {
        let ca = self.coord3(a);
        let cb = self.coord3(b);
        ca.0.abs_diff(cb.0) + ca.1.abs_diff(cb.1) + ca.2.abs_diff(cb.2)
    }

    fn min_route(&self, current: NodeId, dst: NodeId) -> (Direction, VcClass) {
        let c = self.coord3(current);
        let d = self.coord3(dst);
        let dir = if c.0 < d.0 {
            Direction::East
        } else if c.0 > d.0 {
            Direction::West
        } else if c.1 < d.1 {
            Direction::South
        } else if c.1 > d.1 {
            Direction::North
        } else if c.2 < d.2 {
            Direction::Up
        } else if c.2 > d.2 {
            Direction::Down
        } else {
            Direction::Local
        };
        (dir, VcClass::Any)
    }

    fn encode(&self) -> String {
        format!("3d:{}x{}x{}", self.width, self.height, self.depth)
    }
}

/// The topology zoo, as one copyable value.
///
/// `Topo` is what configurations carry (`NocConfig::mesh` — the field
/// keeps its historical name). It exposes the same inherent accessors
/// the original concrete `Mesh` had (`width`/`height` report the
/// *projection* grid), plus the [`Topology`] trait by delegation.
///
/// Its `Debug` form delegates to the inner type, so a 2D mesh still
/// renders as `Mesh { width: 8, height: 8 }` — campaign fingerprints
/// embed this text and stay byte-identical.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topo {
    /// A 2D mesh.
    Mesh(Mesh),
    /// A 2D torus.
    Torus(Torus),
    /// A folded 2D torus.
    FoldedTorus(FoldedTorus),
    /// A 3D mesh.
    Mesh3d(Mesh3d),
}

impl fmt::Debug for Topo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topo::Mesh(t) => t.fmt(f),
            Topo::Torus(t) => t.fmt(f),
            Topo::FoldedTorus(t) => t.fmt(f),
            Topo::Mesh3d(t) => t.fmt(f),
        }
    }
}

impl From<Mesh> for Topo {
    fn from(t: Mesh) -> Self {
        Topo::Mesh(t)
    }
}

impl From<Torus> for Topo {
    fn from(t: Torus) -> Self {
        Topo::Torus(t)
    }
}

impl From<FoldedTorus> for Topo {
    fn from(t: FoldedTorus) -> Self {
        Topo::FoldedTorus(t)
    }
}

impl From<Mesh3d> for Topo {
    fn from(t: Mesh3d) -> Self {
        Topo::Mesh3d(t)
    }
}

macro_rules! delegate {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            Topo::Mesh($t) => $body,
            Topo::Torus($t) => $body,
            Topo::FoldedTorus($t) => $body,
            Topo::Mesh3d($t) => $body,
        }
    };
}

impl Topo {
    /// A 2D mesh topology.
    pub fn mesh(width: u16, height: u16) -> Self {
        Topo::Mesh(Mesh::new(width, height))
    }

    /// A 2D torus topology.
    pub fn torus(width: u16, height: u16) -> Self {
        Topo::Torus(Torus::new(width, height))
    }

    /// A folded-torus topology.
    pub fn ftorus(width: u16, height: u16) -> Self {
        Topo::FoldedTorus(FoldedTorus::new(width, height))
    }

    /// A 3D mesh topology.
    pub fn mesh3d(width: u16, height: u16, depth: u16) -> Self {
        Topo::Mesh3d(Mesh3d::new(width, height, depth))
    }

    /// Short kind name (`mesh`, `torus`, `ftorus`, `3d`).
    pub fn kind(&self) -> &'static str {
        match self {
            Topo::Mesh(_) => "mesh",
            Topo::Torus(_) => "torus",
            Topo::FoldedTorus(_) => "ftorus",
            Topo::Mesh3d(_) => "3d",
        }
    }

    /// Projection-grid width (columns).
    pub fn width(&self) -> u16 {
        delegate!(self, t => t.proj_width())
    }

    /// Projection-grid height (rows; `h × depth` for a 3D mesh).
    pub fn height(&self) -> u16 {
        delegate!(self, t => t.proj_height())
    }

    /// Total number of routers.
    pub fn num_nodes(&self) -> usize {
        delegate!(self, t => Topology::num_nodes(t))
    }

    /// Ports per router, including `Local`.
    pub fn num_ports(&self) -> usize {
        delegate!(self, t => Topology::num_ports(t))
    }

    /// The inter-router directions, in port-index order.
    pub fn compass(&self) -> &'static [Direction] {
        delegate!(self, t => Topology::compass(t))
    }

    /// The node at projection position `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the projection grid.
    pub fn node_at(&self, x: u16, y: u16) -> NodeId {
        assert!(
            x < self.width() && y < self.height(),
            "coordinate out of mesh"
        );
        NodeId(y * self.width() + x)
    }

    /// The projection coordinate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!(node.index() < self.num_nodes(), "node out of mesh");
        Coord {
            x: node.0 % self.width(),
            y: node.0 / self.width(),
        }
    }

    /// The neighbor of `node` in direction `dir`, or `None` at an edge
    /// (or for `Local` / a port the topology lacks).
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        delegate!(self, t => Topology::neighbor(t, node, dir))
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(|i| NodeId(i as u16))
    }

    /// Iterates over all inter-router output links (`Local` excluded).
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        let topo = *self;
        self.nodes().flat_map(move |n| {
            topo.compass()
                .iter()
                .filter(move |&&d| topo.neighbor(n, d).is_some())
                .map(move |&d| LinkId { src: n, dir: d })
        })
    }

    /// Minimal hop count between two nodes (wrap-aware on tori).
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> u16 {
        delegate!(self, t => Topology::hop_distance(t, a, b))
    }

    /// Minimal-route output port and date-line VC class; see
    /// [`Topology::min_route`].
    pub fn min_route(&self, current: NodeId, dst: NodeId) -> (Direction, VcClass) {
        delegate!(self, t => Topology::min_route(t, current, dst))
    }

    /// Minimum `vcs_per_port` the topology requires.
    pub fn min_vcs(&self) -> u8 {
        delegate!(self, t => Topology::min_vcs(t))
    }

    /// Deterministic text encoding; see [`Topology::encode`].
    pub fn encode(&self) -> String {
        delegate!(self, t => Topology::encode(t))
    }

    /// Parses an [`encode`](Self::encode)d topology string.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn parse(s: &str) -> Result<Self, String> {
        /// A dimension as `encode` writes it: digits, no leading zero.
        fn dim(s: &str) -> Option<u16> {
            let digits = s.bytes().all(|b| b.is_ascii_digit());
            (digits && (s.len() == 1 || !s.starts_with('0'))).then(|| s.parse().ok())?
        }
        fn dims2(s: &str, what: &str) -> Result<(u16, u16), String> {
            let (w, h) = s
                .split_once('x')
                .ok_or_else(|| format!("malformed {what} dimensions: {s:?}"))?;
            let w = dim(w).ok_or_else(|| format!("malformed {what} width: {w:?}"))?;
            let h = dim(h).ok_or_else(|| format!("malformed {what} height: {h:?}"))?;
            Ok((w, h))
        }
        let check = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("out-of-range {what} dimensions: {s:?}"))
            }
        };
        if let Some(rest) = s.strip_prefix("torus:") {
            let (w, h) = dims2(rest, "torus")?;
            check(
                w >= 2 && h >= 2 && (w as u32) * (h as u32) <= u16::MAX as u32 + 1,
                "torus",
            )?;
            Ok(Topo::torus(w, h))
        } else if let Some(rest) = s.strip_prefix("ftorus:") {
            let (w, h) = dims2(rest, "ftorus")?;
            check(
                w >= 2 && h >= 2 && (w as u32) * (h as u32) <= u16::MAX as u32 + 1,
                "ftorus",
            )?;
            Ok(Topo::ftorus(w, h))
        } else if let Some(rest) = s.strip_prefix("3d:") {
            let mut parts = rest.splitn(3, 'x');
            let mut next = |what: &str| -> Result<u16, String> {
                parts
                    .next()
                    .and_then(dim)
                    .ok_or_else(|| format!("malformed 3d {what}: {rest:?}"))
            };
            let (w, h, d) = (next("width")?, next("height")?, next("depth")?);
            check(
                w > 0
                    && h > 0
                    && d > 0
                    && (w as u64) * (h as u64) * (d as u64) <= u16::MAX as u64 + 1,
                "3d mesh",
            )?;
            Ok(Topo::mesh3d(w, h, d))
        } else {
            let (w, h) = dims2(s, "mesh")?;
            check(
                w > 0 && h > 0 && (w as u32) * (h as u32) <= u16::MAX as u32 + 1,
                "mesh",
            )?;
            Ok(Topo::mesh(w, h))
        }
    }
}

impl Topology for Topo {
    fn num_nodes(&self) -> usize {
        Topo::num_nodes(self)
    }

    fn num_ports(&self) -> usize {
        Topo::num_ports(self)
    }

    fn compass(&self) -> &'static [Direction] {
        Topo::compass(self)
    }

    fn proj_width(&self) -> u16 {
        self.width()
    }

    fn proj_height(&self) -> u16 {
        self.height()
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        Topo::neighbor(self, node, dir)
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> u16 {
        Topo::hop_distance(self, a, b)
    }

    fn min_route(&self, current: NodeId, dst: NodeId) -> (Direction, VcClass) {
        Topo::min_route(self, current, dst)
    }

    fn min_vcs(&self) -> u8 {
        Topo::min_vcs(self)
    }

    fn encode(&self) -> String {
        Topo::encode(self)
    }
}

/// Precomputed `node × direction → neighbor` lookup.
///
/// [`Topo::neighbor`] re-derives coordinates (divisions) on every
/// call; the simulator resolves a link endpoint several times per flit
/// per hop, so the network builds this dense table once and indexes it
/// on the hot path. `table[node][port]` equals
/// `topo.neighbor(node, Direction::from_index(port))` for every pair.
#[derive(Debug, Clone)]
pub struct NeighborTable {
    table: Vec<[Option<NodeId>; MAX_PORTS]>,
}

impl NeighborTable {
    /// Builds the table for `topo` (`num_nodes × MAX_PORTS` entries).
    pub fn new(topo: impl Into<Topo>) -> Self {
        let topo = topo.into();
        let table = topo
            .nodes()
            .map(|n| {
                let mut row = [None; MAX_PORTS];
                for dir in Direction::ALL {
                    row[dir.index()] = topo.neighbor(n, dir);
                }
                row
            })
            .collect();
        Self { table }
    }

    /// The neighbor of `node` in direction `dir`; `None` at an edge or
    /// for `Local`. Identical to [`Topo::neighbor`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology the table was built
    /// for.
    #[inline]
    pub fn get(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.table[node.index()][dir.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_round_trip() {
        let mesh = Mesh::new(8, 8);
        for node in mesh.nodes() {
            let c = mesh.coord(node);
            assert_eq!(mesh.node_at(c.x, c.y), node);
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let mesh = Mesh::new(4, 6);
        for node in mesh.nodes() {
            for dir in Direction::COMPASS {
                if let Some(n) = mesh.neighbor(node, dir) {
                    assert_eq!(mesh.neighbor(n, dir.opposite()), Some(node));
                }
            }
        }
    }

    #[test]
    fn corner_nodes_have_two_neighbors() {
        let mesh = Mesh::new(8, 8);
        let corners = [
            mesh.node_at(0, 0),
            mesh.node_at(7, 0),
            mesh.node_at(0, 7),
            mesh.node_at(7, 7),
        ];
        for c in corners {
            let n = Direction::COMPASS
                .into_iter()
                .filter(|&d| mesh.neighbor(c, d).is_some())
                .count();
            assert_eq!(n, 2);
        }
    }

    #[test]
    fn interior_nodes_have_four_neighbors() {
        let mesh = Mesh::new(8, 8);
        let n = mesh.node_at(3, 4);
        let count = Direction::COMPASS
            .into_iter()
            .filter(|&d| mesh.neighbor(n, d).is_some())
            .count();
        assert_eq!(count, 4);
    }

    #[test]
    fn link_count_matches_formula() {
        // Directed inter-router links in a w×h mesh: 2*(w-1)*h + 2*w*(h-1).
        let mesh = Mesh::new(8, 8);
        assert_eq!(mesh.links().count(), 2 * 7 * 8 + 2 * 8 * 7);
    }

    #[test]
    fn hop_distance_is_manhattan() {
        let mesh = Mesh::new(8, 8);
        assert_eq!(
            mesh.hop_distance(mesh.node_at(0, 0), mesh.node_at(7, 7)),
            14
        );
        assert_eq!(mesh.hop_distance(mesh.node_at(3, 3), mesh.node_at(3, 3)), 0);
        assert_eq!(mesh.hop_distance(mesh.node_at(2, 5), mesh.node_at(4, 1)), 6);
    }

    #[test]
    fn direction_index_round_trip() {
        for dir in Direction::ALL {
            assert_eq!(Direction::from_index(dir.index()), dir);
        }
    }

    #[test]
    fn up_down_are_opposites() {
        assert_eq!(Direction::Up.opposite(), Direction::Down);
        assert_eq!(Direction::Down.opposite(), Direction::Up);
        assert_eq!(Direction::Up.to_string(), "U");
        assert_eq!(Direction::Down.to_string(), "D");
    }

    #[test]
    #[should_panic(expected = "no opposite")]
    fn local_opposite_panics() {
        let _ = Direction::Local.opposite();
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_mesh_panics() {
        let _ = Mesh::new(0, 4);
    }

    #[test]
    fn neighbor_local_is_none() {
        let mesh = Mesh::new(2, 2);
        assert_eq!(mesh.neighbor(NodeId(0), Direction::Local), None);
    }

    #[test]
    fn mesh_has_no_vertical_neighbors() {
        let mesh = Mesh::new(4, 4);
        for node in mesh.nodes() {
            assert_eq!(mesh.neighbor(node, Direction::Up), None);
            assert_eq!(mesh.neighbor(node, Direction::Down), None);
        }
    }

    #[test]
    fn neighbor_table_matches_topology() {
        let topos = [
            Topo::mesh(1, 1),
            Topo::mesh(1, 5),
            Topo::mesh(4, 4),
            Topo::mesh(8, 3),
            Topo::torus(4, 4),
            Topo::torus(2, 3),
            Topo::ftorus(5, 4),
            Topo::mesh3d(3, 2, 4),
        ];
        for topo in topos {
            let table = NeighborTable::new(topo);
            for node in topo.nodes() {
                for dir in Direction::ALL {
                    assert_eq!(
                        table.get(node, dir),
                        topo.neighbor(node, dir),
                        "{} {node} {dir}",
                        topo.encode()
                    );
                }
            }
        }
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(Direction::North.to_string(), "N");
        let link = LinkId {
            src: NodeId(1),
            dir: Direction::East,
        };
        assert_eq!(link.to_string(), "n1→E");
        assert_eq!(Coord { x: 1, y: 2 }.to_string(), "(1, 2)");
    }

    // ---- torus ----

    #[test]
    fn torus_every_node_has_four_neighbors() {
        let t = Topo::torus(4, 3);
        for node in t.nodes() {
            for dir in Direction::COMPASS {
                assert!(t.neighbor(node, dir).is_some(), "{node} {dir}");
            }
        }
    }

    #[test]
    fn torus_neighbors_are_symmetric() {
        let t = Topo::torus(5, 4);
        for node in t.nodes() {
            for dir in Direction::COMPASS {
                let n = t.neighbor(node, dir).unwrap();
                assert_eq!(t.neighbor(n, dir.opposite()), Some(node));
            }
        }
    }

    #[test]
    fn torus_wraps_around() {
        let t = Topo::torus(4, 4);
        assert_eq!(
            t.neighbor(t.node_at(3, 0), Direction::East),
            Some(t.node_at(0, 0))
        );
        assert_eq!(
            t.neighbor(t.node_at(0, 0), Direction::West),
            Some(t.node_at(3, 0))
        );
        assert_eq!(
            t.neighbor(t.node_at(0, 0), Direction::North),
            Some(t.node_at(0, 3))
        );
        assert_eq!(
            t.neighbor(t.node_at(0, 3), Direction::South),
            Some(t.node_at(0, 0))
        );
    }

    #[test]
    fn torus_hop_distance_is_wrap_aware() {
        let t = Topo::torus(8, 8);
        // 0→7 along a ring of 8 is 1 hop the short way.
        assert_eq!(t.hop_distance(t.node_at(0, 0), t.node_at(7, 0)), 1);
        assert_eq!(t.hop_distance(t.node_at(0, 0), t.node_at(4, 0)), 4);
        assert_eq!(t.hop_distance(t.node_at(0, 0), t.node_at(7, 7)), 2);
        // Diameter of an 8×8 torus is 8, not 14.
        let max = t
            .nodes()
            .flat_map(|a| t.nodes().map(move |b| (a, b)))
            .map(|(a, b)| t.hop_distance(a, b))
            .max()
            .unwrap();
        assert_eq!(max, 8);
    }

    #[test]
    fn torus_route_crossing_dateline_is_lo_then_hi() {
        let t = Topo::torus(8, 8);
        // 6 → 1 eastbound: crosses the 7→0 wrap link.
        let (dir, class) = t.min_route(t.node_at(6, 0), t.node_at(1, 0));
        assert_eq!((dir, class), (Direction::East, VcClass::Lo));
        // After the wrap (now at x=0) the date line is behind us.
        let (dir, class) = t.min_route(t.node_at(0, 0), t.node_at(1, 0));
        assert_eq!((dir, class), (Direction::East, VcClass::Hi));
        // Non-wrapping route is Hi from the start.
        let (dir, class) = t.min_route(t.node_at(1, 0), t.node_at(3, 0));
        assert_eq!((dir, class), (Direction::East, VcClass::Hi));
        // Westbound wrap: 1 → 6 crosses 0→7.
        let (dir, class) = t.min_route(t.node_at(1, 0), t.node_at(6, 0));
        assert_eq!((dir, class), (Direction::West, VcClass::Lo));
    }

    #[test]
    fn torus_ties_break_east_and_south() {
        let t = Topo::torus(4, 4);
        // Distance 2 both ways on a 4-ring: positive direction wins.
        let (dir, _) = t.min_route(t.node_at(0, 0), t.node_at(2, 0));
        assert_eq!(dir, Direction::East);
        let (dir, _) = t.min_route(t.node_at(0, 0), t.node_at(0, 2));
        assert_eq!(dir, Direction::South);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn one_wide_torus_panics() {
        let _ = Torus::new(1, 4);
    }

    #[test]
    fn folded_torus_matches_torus_logically() {
        let f = Topo::ftorus(4, 6);
        let t = Topo::torus(4, 6);
        for node in f.nodes() {
            for dir in Direction::ALL {
                assert_eq!(f.neighbor(node, dir), t.neighbor(node, dir));
            }
            for dst in f.nodes() {
                assert_eq!(f.min_route(node, dst), t.min_route(node, dst));
                assert_eq!(f.hop_distance(node, dst), t.hop_distance(node, dst));
            }
        }
        assert_ne!(f.encode(), t.encode());
        assert_ne!(f, t);
    }

    // ---- 3D mesh ----

    #[test]
    fn mesh3d_neighbors_are_symmetric() {
        let t = Topo::mesh3d(3, 4, 2);
        for node in t.nodes() {
            for dir in Direction::COMPASS3D {
                if let Some(n) = t.neighbor(node, dir) {
                    assert_eq!(t.neighbor(n, dir.opposite()), Some(node));
                }
            }
        }
    }

    #[test]
    fn mesh3d_vertical_links_jump_one_layer() {
        let t = Topo::mesh3d(4, 4, 3);
        // (1, 2, z) ↔ (1, 2, z+1): indices differ by one layer (16).
        let a = NodeId(1 + 2 * 4);
        let b = t.neighbor(a, Direction::Up).unwrap();
        assert_eq!(b, NodeId(a.0 + 16));
        assert_eq!(t.neighbor(b, Direction::Down), Some(a));
        assert_eq!(t.neighbor(a, Direction::Down), None); // bottom layer
        let top = NodeId(a.0 + 32);
        assert_eq!(t.neighbor(top, Direction::Up), None); // top layer
    }

    #[test]
    fn mesh3d_hop_distance_is_3d_manhattan() {
        let t = Topo::mesh3d(4, 4, 4);
        let a = NodeId(0);
        let b = NodeId((3 * 4 + 3) * 4 + 3); // (3, 3, 3)
        assert_eq!(t.hop_distance(a, b), 9);
    }

    #[test]
    fn mesh3d_routes_x_then_y_then_z() {
        let t = Topo::mesh3d(3, 3, 3);
        let at = |x: u16, y: u16, z: u16| NodeId((z * 3 + y) * 3 + x);
        let dst = at(2, 2, 2);
        assert_eq!(t.min_route(at(0, 0, 0), dst).0, Direction::East);
        assert_eq!(t.min_route(at(2, 0, 0), dst).0, Direction::South);
        assert_eq!(t.min_route(at(2, 2, 0), dst).0, Direction::Up);
        assert_eq!(t.min_route(dst, at(2, 2, 0)).0, Direction::Down);
        assert_eq!(t.min_route(dst, dst).0, Direction::Local);
    }

    #[test]
    fn mesh3d_projection_is_row_major() {
        let t = Topo::mesh3d(3, 2, 4);
        assert_eq!(t.width(), 3);
        assert_eq!(t.height(), 8);
        for node in t.nodes() {
            let c = t.coord(node);
            assert_eq!(t.node_at(c.x, c.y), node);
        }
    }

    // ---- capacity boundaries (u16 node ids) ----

    #[test]
    fn radix_32_and_stacked_configs_fit() {
        assert_eq!(Topo::mesh(16, 16).num_nodes(), 256);
        assert_eq!(Topo::torus(16, 16).num_nodes(), 256);
        assert_eq!(Topo::mesh(32, 32).num_nodes(), 1024);
        assert_eq!(Topo::torus(32, 32).num_nodes(), 1024);
        assert_eq!(Topo::mesh3d(8, 8, 4).num_nodes(), 256);
        assert_eq!(Topo::mesh3d(16, 16, 4).num_nodes(), 1024);
    }

    #[test]
    fn capacity_boundary_is_inclusive() {
        // 65536 nodes still index as 0..=65535 in a u16.
        assert_eq!(Mesh::new(256, 256).num_nodes(), 65536);
        assert_eq!(Mesh3d::new(64, 64, 16).num_nodes(), 65536);
        let big = Topo::mesh(256, 256);
        assert_eq!(big.coord(NodeId(u16::MAX)), Coord { x: 255, y: 255 });
    }

    #[test]
    fn radix_32x32_and_8x8x4_configurations_work() {
        // The radix points the campaign layer targets, exercised
        // end-to-end through the u16 node-id space: indexing round
        // trips, wrap links close the rings, and minimal routes walk
        // to their destination in exactly `hop_distance` hops.
        let zoo = [
            Topo::mesh(32, 32),
            Topo::torus(32, 32),
            Topo::ftorus(32, 32),
            Topo::mesh3d(8, 8, 4),
        ];
        for topo in zoo {
            assert!(topo.num_nodes() <= u16::MAX as usize + 1);
            for node in topo.nodes() {
                let c = topo.coord(node);
                assert_eq!(topo.node_at(c.x, c.y), node, "{}", topo.encode());
            }
            // Walk a few long diagonals: every hop lands on a
            // neighbor and the walk length matches `hop_distance`.
            let n = topo.num_nodes() as u16;
            for (a, b) in [(0, n - 1), (1, n / 2), (n / 3, n - 2)] {
                let (src, dst) = (NodeId(a), NodeId(b));
                let mut cur = src;
                let mut hops = 0u16;
                while cur != dst {
                    let (dir, _) = topo.min_route(cur, dst);
                    cur = topo.neighbor(cur, dir).expect("route follows a live link");
                    hops += 1;
                    assert!(hops <= 2 * n, "runaway route on {}", topo.encode());
                }
                assert_eq!(hops, topo.hop_distance(src, dst), "{}", topo.encode());
            }
        }
        // Wrap links close the 32-rings: the west neighbor of the
        // origin is the east rim, one hop (not 31) away.
        let torus = Topo::torus(32, 32);
        assert_eq!(torus.neighbor(NodeId(0), Direction::West), Some(NodeId(31)));
        assert_eq!(torus.hop_distance(NodeId(0), NodeId(31)), 1);
        // The 8×8×4 vertical stack links layer 0 to layer 3 in 3 hops.
        let m3 = Topo::mesh3d(8, 8, 4);
        assert_eq!(m3.neighbor(NodeId(0), Direction::Up), Some(NodeId(64)));
        assert_eq!(m3.hop_distance(NodeId(0), NodeId(3 * 64)), 3);
    }

    #[test]
    #[should_panic(expected = "too large for u16")]
    fn over_capacity_mesh_panics() {
        let _ = Mesh::new(257, 256);
    }

    #[test]
    #[should_panic(expected = "too large for u16")]
    fn over_capacity_mesh3d_panics() {
        let _ = Mesh3d::new(64, 64, 17);
    }

    // ---- encode / parse ----

    #[test]
    fn encode_parse_round_trip() {
        let topos = [
            Topo::mesh(8, 8),
            Topo::mesh(255, 257),
            Topo::torus(16, 16),
            Topo::ftorus(4, 6),
            Topo::mesh3d(8, 8, 4),
        ];
        for t in topos {
            assert_eq!(Topo::parse(&t.encode()), Ok(t), "{}", t.encode());
        }
        assert_eq!(Topo::mesh(8, 8).encode(), "8x8");
        assert_eq!(Topo::torus(16, 16).encode(), "torus:16x16");
        assert_eq!(Topo::ftorus(4, 6).encode(), "ftorus:4x6");
        assert_eq!(Topo::mesh3d(8, 8, 4).encode(), "3d:8x8x4");
    }

    #[test]
    fn parse_rejects_malformed_strings() {
        for bad in [
            "",
            "8",
            "8x",
            "x8",
            "8x8x8",
            "torus:",
            "torus:8",
            "torus:1x4",
            "3d:4x4",
            "3d:0x4x4",
            "3d:64x64x17",
            "257x256",
            "mesh:8x8",
            "8 x 8",
            "+4x4",
            "08x8",
            "torus:4x04",
            "3d:4x4x+2",
        ] {
            assert!(Topo::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn debug_delegates_to_inner_type() {
        assert_eq!(
            format!("{:?}", Topo::mesh(4, 4)),
            "Mesh { width: 4, height: 4 }"
        );
        assert_eq!(
            format!("{:?}", Topo::torus(4, 4)),
            "Torus { width: 4, height: 4 }"
        );
        assert_eq!(
            format!("{:?}", Topo::ftorus(4, 4)),
            "FoldedTorus { width: 4, height: 4 }"
        );
        assert_eq!(
            format!("{:?}", Topo::mesh3d(4, 4, 2)),
            "Mesh3d { width: 4, height: 4, depth: 2 }"
        );
    }

    #[test]
    fn vc_class_ranges_partition() {
        for v in [2u8, 3, 4, 8] {
            let lo = VcClass::Lo.vc_range(v);
            let hi = VcClass::Hi.vc_range(v);
            assert_eq!(lo.start, 0);
            assert_eq!(lo.end, hi.start);
            assert_eq!(hi.end, v as usize);
            assert!(!lo.is_empty() && !hi.is_empty(), "v={v}");
            for vc in 0..v as usize {
                assert!(VcClass::Any.admits(vc, v));
                assert_eq!(VcClass::Lo.admits(vc, v), !VcClass::Hi.admits(vc, v));
            }
        }
    }

    #[test]
    fn min_vcs_reflects_deadlock_scheme() {
        assert_eq!(Topo::mesh(4, 4).min_vcs(), 1);
        assert_eq!(Topo::torus(4, 4).min_vcs(), 2);
        assert_eq!(Topo::ftorus(4, 4).min_vcs(), 2);
        assert_eq!(Topo::mesh3d(4, 4, 2).min_vcs(), 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    prop_compose! {
        fn arb_topo()(kind in 0u8..4, w in 2u16..9, h in 2u16..9, d in 1u16..5) -> Topo {
            match kind {
                0 => Topo::mesh(w, h),
                1 => Topo::torus(w, h),
                2 => Topo::ftorus(w, h),
                _ => Topo::mesh3d(w.min(5), h.min(5), d),
            }
        }
    }

    proptest! {
        #[test]
        fn any_mesh_round_trips_nodes(w in 1u16..16, h in 1u16..16) {
            let mesh = Mesh::new(w, h);
            for node in mesh.nodes() {
                let c = mesh.coord(node);
                prop_assert_eq!(mesh.node_at(c.x, c.y), node);
            }
        }

        #[test]
        fn hop_distance_symmetric(w in 1u16..12, h in 1u16..12, a in 0u16..144, b in 0u16..144) {
            let mesh = Mesh::new(w, h);
            let n = mesh.num_nodes() as u16;
            let a = NodeId(a % n);
            let b = NodeId(b % n);
            prop_assert_eq!(mesh.hop_distance(a, b), mesh.hop_distance(b, a));
        }

        #[test]
        fn hop_distance_triangle_inequality(a in 0u16..64, b in 0u16..64, c in 0u16..64) {
            let mesh = Mesh::new(8, 8);
            let (a, b, c) = (NodeId(a), NodeId(b), NodeId(c));
            prop_assert!(
                mesh.hop_distance(a, c) <= mesh.hop_distance(a, b) + mesh.hop_distance(b, c)
            );
        }

        /// Any topology: neighbors are symmetric, hop distance is a
        /// metric on samples, and the minimal route steps onto a real
        /// neighbor while strictly decreasing the distance.
        #[test]
        fn zoo_min_route_decreases_distance(topo in arb_topo(), a in 0usize..512, b in 0usize..512) {
            let n = topo.num_nodes();
            let (a, b) = (NodeId((a % n) as u16), NodeId((b % n) as u16));
            prop_assert_eq!(topo.hop_distance(a, b), topo.hop_distance(b, a));
            let mut current = a;
            let mut steps = 0u32;
            while current != b {
                let before = topo.hop_distance(current, b);
                let (dir, _) = topo.min_route(current, b);
                prop_assert_ne!(dir, Direction::Local);
                current = topo.neighbor(current, dir).expect("route stays on topology");
                prop_assert_eq!(topo.hop_distance(current, b), before - 1);
                steps += 1;
                prop_assert!(steps as usize <= n, "route did not converge");
            }
            let (dir, class) = topo.min_route(b, b);
            prop_assert_eq!((dir, class), (Direction::Local, VcClass::Any));
        }

        /// Any topology: every compass neighbor is symmetric and
        /// `NeighborTable` agrees with direct adjacency.
        #[test]
        fn zoo_neighbors_symmetric(topo in arb_topo()) {
            let table = NeighborTable::new(topo);
            for node in topo.nodes() {
                for &dir in topo.compass() {
                    let n = topo.neighbor(node, dir);
                    prop_assert_eq!(table.get(node, dir), n);
                    if let Some(n) = n {
                        prop_assert_eq!(topo.neighbor(n, dir.opposite()), Some(node));
                    }
                }
            }
        }

        /// Encode/parse round-trips for arbitrary zoo members.
        #[test]
        fn zoo_encode_round_trips(topo in arb_topo()) {
            prop_assert_eq!(Topo::parse(&topo.encode()), Ok(topo));
        }
    }
}
