//! `rlnoc-serve` — an always-on, multi-tenant campaign service for the
//! rlnoc workspace.
//!
//! The service accepts [`rlnoc_core::spec::CampaignSpec`] submissions
//! over a small TCP protocol (`rlnoc-wire v1`, [`wire`]), schedules
//! their tasks across a shared [`rlnoc_runner::ServicePool`] with
//! per-tenant deficit-round-robin fairness ([`sched`]), streams
//! per-epoch telemetry to subscribers as schema-v1 JSONL, and persists
//! every submission and finished task to one append-only journal,
//! `<dir>/journal`, so a `kill -9` + restart resumes all in-flight
//! campaigns and re-serves finished ones from disk ([`server`]).
//!
//! The load-bearing invariant, inherited from the rest of the
//! workspace: a task's report is a pure function of `(campaign, task)`.
//! The service adds *placement* (which worker, when, for whom) but
//! never touches *content*, so every result byte matches a standalone
//! `rlnoc-runner` run — including across crashes, cancellations of
//! other tenants, and attached telemetry watchers.
//!
//! Three binaries ship with the crate:
//!
//! - `rlnoc-serve` — the server (`--addr`, `--jobs`, `--dir`).
//! - `rlnoc-submit` — client CLI: `submit`, `status`, `watch`,
//!   `result`, `cancel`.
//! - `loadtest` — floods an in-process server with thousands of tiny
//!   campaigns across prioritised tenants and checks fair-share order
//!   and served == standalone byte identity as the backlog drains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod sched;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, StatusReply, SubmitAck};
pub use sched::{clamp_priority, FairScheduler, MAX_PRIORITY, MIN_PRIORITY};
pub use server::{
    render_result_text, valid_tenant, wait_for_addr, CampaignState, CampaignStatus, Server,
    ServerConfig, SubmitOutcome, ADDR_FILE,
};
pub use wire::{
    payload_field, read_frame, write_frame, Frame, FrameType, WireError, MAX_PAYLOAD, WIRE_MAGIC,
};
