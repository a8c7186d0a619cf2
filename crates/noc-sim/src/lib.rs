//! A cycle-accurate Network-on-Chip simulator.
//!
//! `noc-sim` models a 2D-mesh NoC at flit granularity with the canonical
//! 4-stage virtual-channel router pipeline (buffer write, route
//! computation, VC allocation, switch allocation/traversal), credit-based
//! flow control, X-Y routing, and hop-level ARQ machinery. It is the
//! Booksim-equivalent substrate on which the `rlnoc-core` crate builds the
//! paper's fault-tolerant schemes.
//!
//! Everything stochastic takes an explicit seed; two runs with identical
//! inputs are bit-identical.
//!
//! # Architecture
//!
//! * [`topology`] — mesh, node ids, ports, links.
//! * [`config`] — static parameters (defaults = the paper's Table II).
//! * [`flit`] — packets, flits, deterministic payloads.
//! * [`routing`] — X-Y route computation and path enumeration.
//! * [`arbiter`] — round-robin arbiters for VA/SA.
//! * [`router`] — per-router pipeline state.
//! * [`network`] — the simulation engine.
//! * [`error_control`] — the pluggable link-protection trait.
//! * [`traffic`] — spatial patterns and the phased injection source.
//! * [`stats`] — latency, epoch features, and energy event counters.
//!
//! # Example
//!
//! ```
//! use noc_sim::config::NocConfig;
//! use noc_sim::error_control::PerfectLink;
//! use noc_sim::network::Network;
//! use noc_sim::traffic::{SyntheticSource, TrafficPattern, TrafficSource};
//!
//! let config = NocConfig::default(); // 8×8 mesh, Table II parameters
//! let mut net = Network::new(config, PerfectLink::new(), 7);
//! let mut traffic = SyntheticSource::new(
//!     net.mesh(),
//!     TrafficPattern::UniformRandom,
//!     0.01,
//!     7,
//! );
//! for _ in 0..2_000 {
//!     let cycle = net.cycle();
//!     traffic.generate(cycle, &mut |s, d| {
//!         net.offer(s, d);
//!     });
//!     net.step();
//! }
//! assert!(net.stats().packets_delivered > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod arbiter;
pub mod config;
pub mod error_control;
pub mod flit;
pub mod network;
pub mod router;
pub mod routing;
pub mod stats;
pub mod topology;
pub mod traffic;
mod worklist;

pub use config::NocConfig;
pub use error_control::{
    EjectOutcome, ErrorControl, HopOutcome, PerfectLink, ScriptedErrorControl, TransferKind,
};
pub use flit::{Flit, FlitKind, Packet, PacketClass, PacketId};
pub use network::Network;
pub use stats::{EventCounters, LatencyStats, NetworkStats, RouterEpochStats};
pub use topology::{Coord, Direction, LinkId, Mesh, NodeId, NUM_PORTS};
pub use traffic::{SyntheticSource, TrafficPattern, TrafficSource};
