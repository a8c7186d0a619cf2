//! Deterministic permanent-fault schedules (`rlnoc-hardfault v1`).
//!
//! Transient timing errors (the [`timing`](crate::timing) model) corrupt
//! individual flits; *hard* faults remove topology. A
//! [`HardFaultSchedule`] lists links and routers that fail permanently
//! at configured cycles, either as an explicit list or drawn seedably at
//! random under a connectivity filter (the final live graph stays one
//! component, so degradation sweeps measure rerouting pressure rather
//! than partition loss).
//!
//! The schedule is a plain description — `(cycle, node, direction)`
//! triples over a [`Topo`] from the topology zoo — so this crate stays
//! free of any simulator dependency; the simulation layer translates
//! entries into its own event type. Directions use the workspace-wide
//! [`Direction`] compass (N/E/S/W on 2D members, plus U/D on stacked 3D
//! meshes) over row-major node ids.
//!
//! ## Schedule-file format (`rlnoc-hardfault v1`)
//!
//! Plain text, CRC-32 trailer over everything above it (the same
//! corruption armor as `rlnoc-case` files and runner checkpoints):
//!
//! ```text
//! rlnoc-hardfault v1
//! mesh=4x4
//! events=3
//! 20 link 5 E
//! 30 router 10
//! 450 link 0 S
//! crc=9c1a55e2
//! ```
//!
//! The `mesh=` line carries the [`Topo::encode`] string (`4x4`,
//! `torus:8x8`, `ftorus:16x16`, `3d:4x4x2`), so plain-mesh files are
//! byte-identical to the pre-zoo format. Event lines are
//! `<cycle> link <node> <N|E|S|W|U|D>` or `<cycle> router <node>`,
//! sorted by cycle. Parsing is strict — exact field order, a lowercase
//! 8-digit CRC, and a trailing newline — so any truncation or
//! single-bit flip is rejected.

use noc_coding::textfmt::{self, Lines, TextError, Trailer};
use noc_topo::{Direction, NodeId, Topo, MAX_PORTS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const MAGIC: &str = "rlnoc-hardfault v1";

/// The compass direction of a schedule-file letter.
fn letter_dir(s: &str) -> Option<Direction> {
    Some(match s {
        "N" => Direction::North,
        "E" => Direction::East,
        "S" => Direction::South,
        "W" => Direction::West,
        "U" => Direction::Up,
        "D" => Direction::Down,
        _ => return None,
    })
}

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

/// A [`HardFault`] stamped with the cycle at which it takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HardFaultEntry {
    /// Simulation cycle at which the fault becomes permanent.
    pub cycle: u64,
    /// What fails.
    pub fault: HardFault,
}

/// A deterministic schedule of permanent link/router failures on a
/// topology-zoo member, sorted by cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardFaultSchedule {
    /// The topology the node ids and directions refer to.
    pub topo: Topo,
    /// Failures in non-decreasing cycle order.
    pub entries: Vec<HardFaultEntry>,
}

/// A parse/validation failure for a schedule file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScheduleError(pub String);

impl std::fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid hard-fault schedule: {}", self.0)
    }
}

impl std::error::Error for ParseScheduleError {}

impl From<TextError> for ParseScheduleError {
    fn from(e: TextError) -> Self {
        Self(e.to_string())
    }
}

/// Total number of bidirectional links in a `w × h` mesh.
pub fn mesh_links(w: u16, h: u16) -> u64 {
    let (w, h) = (u64::from(w), u64::from(h));
    (w - 1) * h + w * (h - 1)
}

impl HardFaultSchedule {
    /// An empty schedule: the network never loses anything. Translates
    /// to the simulator's no-fault fast path, bit-identical to a run
    /// with no schedule at all.
    pub fn none(topo: impl Into<Topo>) -> Self {
        Self {
            topo: topo.into(),
            entries: Vec::new(),
        }
    }

    /// An explicit schedule. Entries are sorted by cycle (stable, so
    /// same-cycle entries keep their given order).
    ///
    /// # Panics
    ///
    /// Panics if any entry fails [`HardFaultSchedule::validate`] — an
    /// explicit list is programmer input, not untrusted data.
    pub fn explicit(topo: impl Into<Topo>, mut entries: Vec<HardFaultEntry>) -> Self {
        entries.sort_by_key(|e| e.cycle);
        let s = Self {
            topo: topo.into(),
            entries,
        };
        if let Err(e) = s.validate() {
            panic!("{e}");
        }
        s
    }

    /// Draws a random schedule: `link_faults` link failures and
    /// `router_faults` router failures at cycles uniform in `cycles`
    /// (inclusive), deterministically from `seed`, under the
    /// connectivity filter — after *all* entries apply, the surviving
    /// routers still form a single connected component. Candidates that
    /// would partition the network are redrawn; if the quota cannot be
    /// met (small networks saturate quickly), the schedule carries as
    /// many faults as could be placed.
    ///
    /// The filter is checked locally. Invariant: the live graph is
    /// connected before each candidate (it starts whole, and only
    /// candidates that keep it connected stay applied). Deleting an edge
    /// from a connected graph leaves it connected iff the edge's
    /// endpoints stay connected; deleting a vertex does iff its
    /// neighbours stay mutually reachable, because every surviving path
    /// to the vertex ends at one of them. So a candidate costs a
    /// breadth-first search that stops once those nodes are found, not
    /// a sweep of the whole network. Debug builds compare every answer
    /// with the whole-graph search.
    ///
    /// On plain 2D meshes the draw sequence is unchanged from the
    /// pre-zoo generator, so every historical `(mesh, seed)` pair
    /// reproduces its original schedule byte for byte.
    pub fn random(
        topo: impl Into<Topo>,
        link_faults: usize,
        router_faults: usize,
        cycles: (u64, u64),
        seed: u64,
    ) -> Self {
        let topo = topo.into();
        assert!(
            topo.width() >= 2 && topo.height() >= 2,
            "topology must be at least 2x2"
        );
        assert!(cycles.0 <= cycles.1, "cycle window must be ordered");
        let n = topo.num_nodes();
        let compass = topo.compass();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut node_dead = vec![false; n];
        let mut link_dead = vec![[false; MAX_PORTS]; n];
        let mut faults: Vec<HardFault> = Vec::new();
        let mut reach = LocalReach::new(n);
        // Routers first: each removal constrains links far more than the
        // reverse, so placing the big cuts early wastes fewer redraws.
        let quotas = [
            (router_faults, true /* router */),
            (link_faults, false /* link */),
        ];
        for &(quota, is_router) in &quotas {
            let mut placed = 0;
            let mut attempts = 0usize;
            while placed < quota && attempts < 64 * quota.max(1) {
                attempts += 1;
                let node = rng.gen_range(0u16..n as u16);
                let candidate = if is_router {
                    // Skip routers touching any prior casualty so the
                    // reject path can roll back with a plain revert
                    // (resurrecting a link no earlier fault had killed).
                    if node_dead[usize::from(node)]
                        || link_dead[usize::from(node)].iter().any(|&d| d)
                    {
                        continue;
                    }
                    HardFault::Router { node }
                } else {
                    let dir = compass[usize::from(rng.gen_range(0u8..compass.len() as u8))];
                    let Some(peer) = topo.neighbor(NodeId(node), dir) else {
                        continue; // mesh edge: no link to kill
                    };
                    if link_dead[usize::from(node)][dir.index()]
                        || node_dead[usize::from(node)]
                        || node_dead[peer.index()]
                    {
                        continue; // already gone
                    }
                    HardFault::Link { node, dir }
                };
                // Tentatively apply, test connectivity, roll back on cut.
                apply(&candidate, &mut node_dead, &mut link_dead, topo);
                let survives = reach.survives(&candidate, &node_dead, &link_dead, topo);
                debug_assert_eq!(
                    survives,
                    connected(&node_dead, &link_dead, topo),
                    "local connectivity check disagrees with the whole graph on {candidate:?}",
                );
                if survives {
                    faults.push(candidate);
                    placed += 1;
                } else {
                    unapply(&candidate, &mut node_dead, &mut link_dead, topo);
                }
            }
        }
        let mut entries: Vec<HardFaultEntry> = faults
            .into_iter()
            .map(|fault| HardFaultEntry {
                cycle: rng.gen_range(cycles.0..cycles.1 + 1),
                fault,
            })
            .collect();
        entries.sort_by_key(|e| e.cycle);
        Self { topo, entries }
    }

    /// Checks every entry against the topology: nodes in range,
    /// direction on the topology's compass, link entries naming links
    /// that exist, and cycles non-decreasing.
    pub fn validate(&self) -> Result<(), ParseScheduleError> {
        check_topo(self.topo).map_err(ParseScheduleError)?;
        let mut prev_cycle = 0;
        for e in &self.entries {
            check_entry(self.topo, e, prev_cycle).map_err(ParseScheduleError)?;
            prev_cycle = e.cycle;
        }
        Ok(())
    }

    /// Whether the live graph is still one connected component after
    /// every entry has applied (vacuously `true` when everything died).
    #[cfg(test)]
    fn leaves_connected(&self) -> bool {
        let n = self.topo.num_nodes();
        let mut node_dead = vec![false; n];
        let mut link_dead = vec![[false; MAX_PORTS]; n];
        for e in &self.entries {
            apply(&e.fault, &mut node_dead, &mut link_dead, self.topo);
        }
        connected(&node_dead, &link_dead, self.topo)
    }

    /// Serializes the schedule to the `rlnoc-hardfault v1` text format.
    pub fn to_text(&self) -> String {
        let mut text = format!(
            "{MAGIC}\nmesh={}\nevents={}\n",
            self.topo.encode(),
            self.entries.len()
        );
        for e in &self.entries {
            match e.fault {
                HardFault::Link { node, dir } => {
                    writeln!(text, "{} link {} {}", e.cycle, node, dir)
                }
                HardFault::Router { node } => writeln!(text, "{} router {}", e.cycle, node),
            }
            .expect("write to string");
        }
        textfmt::seal(&mut text, Trailer::CrcEq);
        text
    }

    /// Parses and validates an `rlnoc-hardfault v1` file, including its
    /// CRC-32 trailer. Strict by construction (see
    /// [`noc_coding::textfmt`]), so every truncation and every
    /// single-bit flip fails to parse; every error names its line.
    pub fn from_text(text: &str) -> Result<Self, ParseScheduleError> {
        let body = textfmt::unseal(text, Trailer::CrcEq)?;
        let mut lines = Lines::open(body, MAGIC)?;
        let topo = Topo::parse(lines.field("mesh")?).map_err(|e| lines.error(e))?;
        check_topo(topo).map_err(|e| lines.error(e))?;
        // `events=` is outside input: nothing is sized from it, and a
        // count above the lines present fails at the first missing line.
        let count = lines.dec("events")?;
        let mut entries = Vec::new();
        let mut prev_cycle = 0;
        for _ in 0..count {
            let line = lines
                .next_line()
                .ok_or_else(|| lines.error("fewer event lines than `events=`"))?;
            let entry = parse_entry(line)
                .ok_or_else(|| format!("bad event `{line}`"))
                .and_then(|e| check_entry(topo, &e, prev_cycle).map(|()| e))
                .map_err(|e| lines.error(e))?;
            prev_cycle = entry.cycle;
            entries.push(entry);
        }
        lines.finish()?;
        Ok(Self { topo, entries })
    }
}

/// One event line: `<cycle> link <node> <dir>` or `<cycle> router <node>`.
fn parse_entry(line: &str) -> Option<HardFaultEntry> {
    let mut parts = line.split(' ');
    let cycle = textfmt::dec(parts.next()?)?;
    let kind = parts.next()?;
    let node = u16::try_from(textfmt::dec(parts.next()?)?).ok()?;
    let fault = match kind {
        "link" => HardFault::Link {
            node,
            dir: letter_dir(parts.next()?)?,
        },
        "router" => HardFault::Router { node },
        _ => return None,
    };
    parts
        .next()
        .is_none()
        .then_some(HardFaultEntry { cycle, fault })
}

fn check_topo(topo: Topo) -> Result<(), String> {
    if topo.width() < 2 || topo.height() < 2 {
        return Err("topology dimensions must be ≥ 2".into());
    }
    if topo.num_nodes() > usize::from(u16::MAX) {
        return Err("topology larger than u16 node ids".into());
    }
    Ok(())
}

/// Checks one entry against `topo` and the cycle of the entry before it.
fn check_entry(topo: Topo, e: &HardFaultEntry, prev_cycle: u64) -> Result<(), String> {
    if e.cycle < prev_cycle {
        return Err("entries must be sorted by cycle".into());
    }
    let (HardFault::Link { node, .. } | HardFault::Router { node }) = e.fault;
    if usize::from(node) >= topo.num_nodes() {
        return Err(format!("node {node} outside {} topology", topo.encode()));
    }
    if let HardFault::Link { node, dir } = e.fault {
        if !topo.compass().contains(&dir) {
            return Err(format!(
                "direction {dir} not on the {} compass",
                topo.encode()
            ));
        }
        if topo.neighbor(NodeId(node), dir).is_none() {
            return Err(format!("node {node} has no {dir} link (mesh edge)"));
        }
    }
    Ok(())
}

/// Marks the fault's casualties in the dead maps (links symmetric).
fn apply(
    fault: &HardFault,
    node_dead: &mut [bool],
    link_dead: &mut [[bool; MAX_PORTS]],
    topo: Topo,
) {
    match *fault {
        HardFault::Link { node, dir } => {
            link_dead[usize::from(node)][dir.index()] = true;
            if let Some(peer) = topo.neighbor(NodeId(node), dir) {
                link_dead[peer.index()][dir.opposite().index()] = true;
            }
        }
        HardFault::Router { node } => {
            node_dead[usize::from(node)] = true;
            for &dir in topo.compass() {
                if let Some(peer) = topo.neighbor(NodeId(node), dir) {
                    link_dead[usize::from(node)][dir.index()] = true;
                    link_dead[peer.index()][dir.opposite().index()] = true;
                }
            }
        }
    }
}

/// Reverts [`apply`] for a rejected candidate. Precondition: no earlier
/// accepted fault touched any of the candidate's casualties — the
/// generator enforces this by skipping candidates adjacent to prior
/// damage, so a plain revert never resurrects someone else's kill.
fn unapply(
    fault: &HardFault,
    node_dead: &mut [bool],
    link_dead: &mut [[bool; MAX_PORTS]],
    topo: Topo,
) {
    match *fault {
        HardFault::Link { node, dir } => {
            link_dead[usize::from(node)][dir.index()] = false;
            if let Some(peer) = topo.neighbor(NodeId(node), dir) {
                link_dead[peer.index()][dir.opposite().index()] = false;
            }
        }
        HardFault::Router { node } => {
            node_dead[usize::from(node)] = false;
            for &dir in topo.compass() {
                if let Some(peer) = topo.neighbor(NodeId(node), dir) {
                    link_dead[usize::from(node)][dir.index()] = false;
                    link_dead[peer.index()][dir.opposite().index()] = false;
                }
            }
        }
    }
}

/// BFS over the live subgraph: `true` when every live node is reachable
/// from the first live node (vacuously `true` with no live nodes).
fn connected(node_dead: &[bool], link_dead: &[[bool; MAX_PORTS]], topo: Topo) -> bool {
    let n = node_dead.len();
    let Some(start) = (0..n).find(|&i| !node_dead[i]) else {
        return true;
    };
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([start as u16]);
    seen[start] = true;
    let mut reached = 1usize;
    while let Some(u) = queue.pop_front() {
        for &dir in topo.compass() {
            if link_dead[usize::from(u)][dir.index()] {
                continue;
            }
            let Some(v) = topo.neighbor(NodeId(u), dir) else {
                continue;
            };
            if node_dead[v.index()] || seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            reached += 1;
            queue.push_back(v.0);
        }
    }
    reached == node_dead.iter().filter(|&&d| !d).count()
}

/// The local connectivity check of [`HardFaultSchedule::random`]. Its
/// visited array is stamped with a per-search epoch and its queue is
/// cleared, not dropped, so one instance serves every candidate of a
/// draw without allocating.
struct LocalReach {
    /// `seen[v] == epoch` marks `v` as reached by the current search.
    seen: Vec<u32>,
    epoch: u32,
    queue: Vec<u16>,
}

impl LocalReach {
    fn new(n: usize) -> Self {
        Self {
            seen: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
        }
    }

    /// Whether the live graph, connected before the already applied
    /// `fault`, is still connected: a dead link's endpoints, or a dead
    /// router's neighbours, must still reach one another. A router
    /// candidate's neighbours and links are all live (the draw skips
    /// routers touching earlier damage).
    fn survives(
        &mut self,
        fault: &HardFault,
        node_dead: &[bool],
        link_dead: &[[bool; MAX_PORTS]],
        topo: Topo,
    ) -> bool {
        // The nodes that must stay mutually reachable, without repeats
        // (a 2-wide torus reaches one neighbour by two links).
        let mut ends = [0u16; MAX_PORTS];
        let mut k = 0;
        match *fault {
            HardFault::Link { node, dir } => {
                let peer = topo
                    .neighbor(NodeId(node), dir)
                    .expect("candidate link exists");
                ends[..2].copy_from_slice(&[node, peer.0]);
                k = 2;
            }
            HardFault::Router { node } => {
                for &dir in topo.compass() {
                    if let Some(peer) = topo.neighbor(NodeId(node), dir) {
                        if !ends[..k].contains(&peer.0) {
                            ends[k] = peer.0;
                            k += 1;
                        }
                    }
                }
            }
        }
        let [from, ref targets @ ..] = ends[..k] else {
            return true;
        };
        let mut left = targets.len();
        if left == 0 {
            return true;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.seen[usize::from(from)] = self.epoch;
        self.queue.clear();
        self.queue.push(from);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for &dir in topo.compass() {
                if link_dead[usize::from(u)][dir.index()] {
                    continue;
                }
                let Some(v) = topo.neighbor(NodeId(u), dir) else {
                    continue;
                };
                if node_dead[v.index()] || self.seen[v.index()] == self.epoch {
                    continue;
                }
                self.seen[v.index()] = self.epoch;
                if targets.contains(&v.0) {
                    left -= 1;
                    if left == 0 {
                        return true;
                    }
                }
                self.queue.push(v.0);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topo::{FoldedTorus, Mesh, Mesh3d, Torus};

    #[test]
    fn explicit_schedule_sorts_and_validates() {
        let s = HardFaultSchedule::explicit(
            Mesh::new(4, 4),
            vec![
                HardFaultEntry {
                    cycle: 30,
                    fault: HardFault::Router { node: 10 },
                },
                HardFaultEntry {
                    cycle: 20,
                    fault: HardFault::Link {
                        node: 5,
                        dir: Direction::East,
                    },
                },
            ],
        );
        assert_eq!(s.entries[0].cycle, 20);
        assert_eq!(s.entries[1].cycle, 30);
        s.validate().expect("explicit schedule is valid");
    }

    #[test]
    #[should_panic(expected = "mesh edge")]
    fn edge_link_is_rejected() {
        // Node 0 sits in the north-west corner: no north link exists.
        let _ = HardFaultSchedule::explicit(
            Mesh::new(4, 4),
            vec![HardFaultEntry {
                cycle: 1,
                fault: HardFault::Link {
                    node: 0,
                    dir: Direction::North,
                },
            }],
        );
    }

    #[test]
    #[should_panic(expected = "compass")]
    fn vertical_link_on_flat_mesh_is_rejected() {
        let _ = HardFaultSchedule::explicit(
            Mesh::new(4, 4),
            vec![HardFaultEntry {
                cycle: 1,
                fault: HardFault::Link {
                    node: 5,
                    dir: Direction::Up,
                },
            }],
        );
    }

    #[test]
    fn random_schedules_are_deterministic_and_connected() {
        for seed in 0..16 {
            let a = HardFaultSchedule::random(Mesh::new(5, 5), 6, 1, (10, 500), seed);
            let b = HardFaultSchedule::random(Mesh::new(5, 5), 6, 1, (10, 500), seed);
            assert_eq!(a, b, "same seed must yield the same schedule");
            a.validate().expect("random schedules are valid");
            assert!(a.leaves_connected(), "connectivity filter must hold");
            assert!(!a.entries.is_empty());
            assert!(a.entries.windows(2).all(|p| p[0].cycle <= p[1].cycle));
        }
        let other = HardFaultSchedule::random(Mesh::new(5, 5), 6, 1, (10, 500), 999);
        assert_ne!(
            other,
            HardFaultSchedule::random(Mesh::new(5, 5), 6, 1, (10, 500), 0),
            "different seeds must decorrelate"
        );
    }

    #[test]
    fn random_schedules_cover_the_zoo() {
        let topos: [Topo; 4] = [
            Mesh::new(6, 6).into(),
            Torus::new(6, 6).into(),
            FoldedTorus::new(6, 6).into(),
            Mesh3d::new(4, 4, 3).into(),
        ];
        for topo in topos {
            for seed in 0..8 {
                let s = HardFaultSchedule::random(topo, 5, 1, (10, 500), seed);
                assert_eq!(s.topo, topo);
                s.validate().expect("random schedules are valid");
                assert!(s.leaves_connected(), "connectivity filter on {topo:?}");
                assert!(!s.entries.is_empty());
            }
        }
    }

    #[test]
    fn random_on_3d_mesh_kills_vertical_links() {
        // With enough draws some vertical (U/D) link must die on a
        // stacked mesh; this pins that the generator samples the full
        // 3D compass rather than just the in-layer directions.
        let mut saw_vertical = false;
        for seed in 0..32 {
            let s = HardFaultSchedule::random(Mesh3d::new(4, 4, 3), 8, 0, (1, 100), seed);
            saw_vertical |= s.entries.iter().any(|e| {
                matches!(
                    e.fault,
                    HardFault::Link {
                        dir: Direction::Up | Direction::Down,
                        ..
                    }
                )
            });
        }
        assert!(saw_vertical, "3D schedules never touched a vertical link");
    }

    #[test]
    fn random_schedule_bytes_are_pinned() {
        // `crc=` trailers of `to_text()`, recorded from the whole-graph
        // filter: any change to the draw sequence or to an accept/reject
        // decision moves one.
        let cases = [
            // The benchmark's `fault_churn_torus16` draw.
            (
                "torus:16x16",
                40,
                2,
                (600, 6_400),
                2019 ^ 0xFA17,
                "crc=5459e952",
            ),
            // Saturating: far more than a 2x2 mesh can lose.
            ("2x2", 50, 2, (0, 10), 7, "crc=fbf80963"),
            ("3d:4x4x2", 12, 2, (1, 1_000), 11, "crc=f844291b"),
            ("ftorus:8x8", 20, 2, (1, 1_000), 5, "crc=4d8e675b"),
            ("8x8", 200, 20, (1, 1_000), 3, "crc=bf1f30c5"),
            ("32x32", 160, 8, (1, 1_000), 2019, "crc=0ccfdb03"),
        ];
        let got: Vec<String> = cases
            .iter()
            .map(|&(topo, links, routers, window, seed, _)| {
                let topo = Topo::parse(topo).expect("zoo encoding");
                let text = HardFaultSchedule::random(topo, links, routers, window, seed).to_text();
                text.lines().last().expect("trailer line").to_string()
            })
            .collect();
        let want: Vec<&str> = cases.iter().map(|c| c.5).collect();
        assert_eq!(got, want);
    }

    /// Draws on every `topos` member over `seeds` seeds, from a light
    /// quota up to one no network can hold. Debug builds check every
    /// candidate's local answer against the whole-graph search inside
    /// `random`; any build checks the schedule that comes out.
    fn sweep(topos: &[Topo], seeds: u64) {
        for &topo in topos {
            let n = topo.num_nodes();
            for (links, routers) in [(n / 8, n / 64 + 1), (n / 2, n / 16 + 1), (2 * n, n / 4)] {
                for seed in 0..seeds {
                    let s = HardFaultSchedule::random(topo, links, routers, (1, 1_000), seed);
                    s.validate().expect("random schedules are valid");
                    assert!(s.leaves_connected(), "{topo:?} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn random_filter_holds_across_the_zoo() {
        sweep(
            &[
                Mesh::new(2, 2).into(),
                Mesh::new(3, 5).into(),
                Mesh::new(4, 4).into(),
                Mesh::new(8, 8).into(),
                Torus::new(2, 2).into(),
                Torus::new(8, 8).into(),
                Torus::new(16, 16).into(),
                FoldedTorus::new(8, 8).into(),
                Mesh3d::new(4, 4, 2).into(),
            ],
            12,
        );
    }

    #[test]
    #[ignore = "the largest zoo members; a debug build arms the whole-graph oracle"]
    fn random_filter_holds_on_the_largest_zoo_members() {
        sweep(&[Mesh::new(32, 32).into(), Mesh3d::new(8, 8, 4).into()], 8);
    }

    #[test]
    fn random_saturates_gracefully_on_tiny_meshes() {
        // A 2x2 mesh has 4 links and loses connectivity fast; asking for
        // far more faults than fit must terminate with fewer entries.
        let s = HardFaultSchedule::random(Mesh::new(2, 2), 50, 2, (0, 10), 7);
        s.validate().expect("saturated schedule still valid");
        assert!(s.leaves_connected());
        assert!(s.entries.len() < 52);
    }

    #[test]
    fn text_round_trip_is_exact() {
        let topos: [Topo; 4] = [
            Mesh::new(4, 4).into(),
            Torus::new(4, 4).into(),
            FoldedTorus::new(4, 4).into(),
            Mesh3d::new(3, 3, 2).into(),
        ];
        for topo in topos {
            for seed in 0..8 {
                let s = HardFaultSchedule::random(topo, 4, 1, (0, 1000), seed);
                let text = s.to_text();
                let back = HardFaultSchedule::from_text(&text).expect("round trip");
                assert_eq!(s, back);
            }
        }
        let empty = HardFaultSchedule::none(Mesh::new(3, 3));
        assert_eq!(
            HardFaultSchedule::from_text(&empty.to_text()).expect("empty round trip"),
            empty,
        );
    }

    #[test]
    fn plain_mesh_header_matches_the_pre_zoo_format() {
        // Byte-level compatibility pin: a 2D-mesh schedule still writes
        // `mesh=WxH` with no topology prefix.
        let text = HardFaultSchedule::none(Mesh::new(4, 4)).to_text();
        assert!(text.contains("\nmesh=4x4\n"), "got: {text}");
        let torus = HardFaultSchedule::none(Torus::new(4, 4)).to_text();
        assert!(torus.contains("\nmesh=torus:4x4\n"), "got: {torus}");
    }

    #[test]
    fn truncation_at_every_byte_offset_is_rejected() {
        let text = HardFaultSchedule::random(Mesh::new(4, 4), 3, 1, (5, 50), 11).to_text();
        for cut in 0..text.len() {
            assert!(
                HardFaultSchedule::from_text(&text[..cut]).is_err(),
                "truncation to {cut}/{} bytes must not parse",
                text.len(),
            );
        }
    }

    #[test]
    fn a_hostile_event_count_is_an_error_not_an_allocation() {
        // CRC-valid headers whose count would size a `Vec` of 16 B ×
        // 2⁶⁴ (overflow) or of 1.6 TB (abort) before any line is read.
        for count in ["18446744073709551615", "100000000000"] {
            let mut text = format!("{MAGIC}\nmesh=4x4\nevents={count}\n20 link 5 E\n");
            textfmt::seal(&mut text, Trailer::CrcEq);
            let err = HardFaultSchedule::from_text(&text).expect_err(count);
            assert!(err.0.contains("line 5: fewer event lines"), "{err}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let text = HardFaultSchedule::random(Mesh3d::new(3, 3, 2), 3, 1, (5, 50), 13).to_text();
        let clean = text.as_bytes();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.to_vec();
                corrupt[byte] ^= 1 << bit;
                let Ok(corrupt) = String::from_utf8(corrupt) else {
                    continue; // not even text any more
                };
                assert!(
                    HardFaultSchedule::from_text(&corrupt).is_err(),
                    "flipping bit {bit} of byte {byte} must not parse",
                );
            }
        }
    }

    #[test]
    fn mesh_links_counts_the_grid() {
        assert_eq!(mesh_links(2, 2), 4);
        assert_eq!(mesh_links(4, 4), 24);
        assert_eq!(mesh_links(8, 8), 112);
        assert_eq!(mesh_links(3, 2), 7);
    }
}
