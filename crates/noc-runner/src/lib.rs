//! Deterministic parallel execution of RL-NoC evaluation campaigns.
//!
//! A [`Campaign`](rlnoc_core::campaign::Campaign) is an ordered list of
//! independent tasks, each carrying a seed derived from the campaign
//! seed by [`rand::seed_stream`]. This crate executes that list across
//! worker threads and merges results **by task index**, so a parallel
//! run is byte-identical to a serial one — the property `runner_check`
//! enforces in CI.
//!
//! * [`pool`] — the worker pool: a shared injector queue drained by
//!   `std::thread::scope` workers, results ordered by item index.
//! * [`checkpoint`] — one append-only journal per directory holding
//!   every finished task's report, enabling kill/resume with identical
//!   final reports.
//! * [`runner`] — [`RunnerConfig`]: ties the pool and checkpoints
//!   together and reads the `RLNOC_JOBS` / `SNAPSHOT_DIR` / `RESUME`
//!   environment knobs.
//!
//! # Example
//!
//! ```
//! use rlnoc_core::campaign::Campaign;
//! use rlnoc_runner::RunnerConfig;
//!
//! let mut campaign = Campaign::quick();
//! campaign.workloads.truncate(1);
//! campaign.pretrain_cycles = 2_000;
//! campaign.measure_cycles = Some(2_000);
//! let serial = campaign.run();
//! let parallel = RunnerConfig {
//!     jobs: 4,
//!     ..RunnerConfig::serial()
//! }
//! .run_campaign(&campaign);
//! assert_eq!(serial, parallel);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod pool;
pub mod runner;

pub use checkpoint::{
    parse_report, render_report, CheckpointDir, CheckpointError, Journal, Submission, JOURNAL_FILE,
};
pub use pool::{Job, JobSource, ServicePool};
pub use runner::{execute_task, RunnerConfig};
