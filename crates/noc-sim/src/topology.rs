//! Topology types, re-exported from the `noc-topo` crate.
//!
//! The zoo — [`Mesh`], [`Torus`], [`FoldedTorus`], [`Mesh3d`], unified
//! behind the [`Topology`] trait and the [`Topo`] enum — lives in its
//! own crate so that fault-schedule tooling can speak topologies
//! without depending on the simulator. This module preserves the
//! historical `noc_sim::topology::*` paths.

pub use noc_topo::{
    Coord, DeadSet, Direction, FoldedTorus, HardFault, HardFaultEntry, LinkId, Mesh, Mesh3d,
    NeighborTable, NodeId, Topo, Topology, Torus, VcClass, MAX_PORTS, NUM_PORTS,
};
