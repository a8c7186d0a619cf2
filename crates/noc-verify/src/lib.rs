//! Verification harness for the RL-NoC simulator stack.
//!
//! The optimized data plane (`noc-sim` + `rlnoc-core`) claims
//! *bit-identical* behavior to its pre-optimization form. This crate
//! makes that claim continuously checkable with three instruments:
//!
//! * **A reference model** — [`refnet::RefNetwork`] over
//!   [`refproto::RefProtocol`] and [`refrouter::RefRouter`]: a
//!   deliberately slow, obviously-correct re-implementation of the cycle
//!   semantics (by-value flits, `HashMap` bookkeeping, bitwise
//!   SECDED/CRC oracles, no caches, no skip counters) that plugs into
//!   the production experiment pipeline through the
//!   [`SimBackend`](rlnoc_core::backend::SimBackend) seam.
//! * **A differential driver** — [`diff`] runs randomly generated
//!   [`FuzzCase`](rlnoc_core::fuzzcase::FuzzCase)s on both engines,
//!   demands bit-identical [`ExperimentReport`](rlnoc_core::ExperimentReport)s,
//!   and greedily shrinks any failure to a minimal replayable case file.
//! * **Runtime invariant checkers** — compiled into `noc-sim`/`noc-rl`
//!   behind their `verify` features (forwarded by this crate's `verify`
//!   feature) and armed at runtime with `RLNOC_VERIFY=1`: flit-arena
//!   conservation, credit conservation, ARQ window sanity, and a
//!   no-progress watchdog.
//!
//! The `verify_fuzz` binary drives all of it, with a `--budget` mode
//! sized for CI. See DESIGN.md §10 for the architecture and README
//! "Correctness" for replay instructions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod diff;
pub mod refnet;
pub mod refproto;
pub mod refrouter;
pub mod refroutes;
pub mod reftree;

pub use backend::{ReferenceBackend, StaleTemperatureBackend};
pub use diff::{
    batch_sample_width, run_case, run_case_batched, run_case_with, shrink, shrink_divergence,
    CaseOutcome,
};
pub use refnet::RefNetwork;
pub use refproto::RefProtocol;
pub use refrouter::RefRouter;
pub use reftree::{RefNode, RefTree};
