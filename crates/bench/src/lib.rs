//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every `fig*` / `ablate_*` / `sweep_*` binary runs a
//! [`Campaign`] (or a sweep of
//! experiments) and prints the corresponding table of the paper.
//! Environment variables control cost and observability:
//!
//! * `RLNOC_QUICK=1` — 4×4 mesh, short windows (~seconds); for smoke
//!   tests.
//! * `RLNOC_SEED=<n>` — override the campaign master seed.
//! * `RLNOC_MEASURE=<cycles>` — cap the measured injection window.
//! * `TELEMETRY_OUT=<path>` — enable telemetry and dump the full
//!   per-router per-epoch series plus instruments and run summaries on
//!   exit (`.csv` extension → CSV epoch table, otherwise JSONL).
//! * `TELEMETRY_CAP=<records>` — bound the epoch ring buffer (default
//!   262 144 records; oldest evicted first).
//! * `RLNOC_JOBS=<n|max>` — run campaign tasks / sweep variants on `n`
//!   worker threads (default 1 = serial; results are byte-identical
//!   either way).
//! * `SNAPSHOT_DIR=<dir>` — checkpoint every finished campaign task
//!   (and each RL task's learned policy) under `dir`.
//! * `RESUME=1` — reload valid checkpoints from `SNAPSHOT_DIR` instead
//!   of re-running their tasks.
//!
//! Passing `--quick` as the first CLI argument is equivalent to
//! `RLNOC_QUICK=1`.
//!
//! Figure binaries print to stdout **and** drop the same table under
//! `out/` (git-ignored) via [`write_output`].

use rlnoc_core::campaign::{Campaign, CampaignResult};
use rlnoc_runner::RunnerConfig;
use rlnoc_telemetry::Telemetry;

/// Builds the campaign configuration for a figure binary, honoring the
/// `RLNOC_*` / `TELEMETRY_*` environment variables and the `--quick`
/// flag.
pub fn campaign_from_env() -> Campaign {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("RLNOC_QUICK").is_ok_and(|v| v == "1");
    let mut campaign = if quick {
        Campaign::quick()
    } else {
        Campaign::paper_default()
    };
    if let Ok(seed) = std::env::var("RLNOC_SEED") {
        if let Ok(seed) = seed.parse() {
            campaign.seed = seed;
        }
    }
    if let Ok(cap) = std::env::var("RLNOC_MEASURE") {
        if let Ok(cap) = cap.parse() {
            campaign.measure_cycles = Some(cap);
        }
    }
    campaign.telemetry = telemetry_from_env();
    campaign
}

/// Runs a campaign through the parallel runner, honoring `RLNOC_JOBS`,
/// `SNAPSHOT_DIR`, and `RESUME`. With none of them set this is exactly
/// [`Campaign::run`]; with any worker count the merged result is
/// byte-identical to the serial run. The runner shares the campaign's
/// telemetry handle, so queue-depth / per-worker instruments land in the
/// same `TELEMETRY_OUT` export as the simulation series.
pub fn run_campaign(campaign: &Campaign) -> CampaignResult {
    RunnerConfig::from_env()
        .with_telemetry(campaign.telemetry.clone())
        .run_campaign(campaign)
}

/// The `RLNOC_JOBS` worker count (1 when unset).
pub fn jobs_from_env() -> usize {
    RunnerConfig::from_env().jobs
}

/// Runs independent sweep/ablation variants on the `RLNOC_JOBS` worker
/// pool, returning results in variant order — so sweep binaries print
/// the same table whatever the worker count.
pub fn run_variants<T, R>(variants: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    rlnoc_runner::pool::run_indexed(variants, jobs_from_env(), &Telemetry::disabled(), |_, v| {
        f(v)
    })
}

/// Writes a result artifact to `out/<name>` (creating `out/`, which is
/// git-ignored) and notes the path on stderr. Failures are reported, not
/// fatal — the artifact is a convenience copy of what stdout already
/// shows.
pub fn write_output(name: &str, contents: &str) {
    let dir = std::path::Path::new("out");
    let path = dir.join(name);
    let result = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents));
    match result {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// An enabled [`Telemetry`] handle when `TELEMETRY_OUT` is set (with an
/// optional `TELEMETRY_CAP` ring-buffer bound), disabled otherwise.
pub fn telemetry_from_env() -> Telemetry {
    if std::env::var_os("TELEMETRY_OUT").is_none() {
        return Telemetry::disabled();
    }
    match std::env::var("TELEMETRY_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(cap) => Telemetry::with_epoch_capacity(cap),
        None => Telemetry::enabled(),
    }
}

/// Exports `telemetry` to the `TELEMETRY_OUT` path (no-op when the
/// variable is unset or the handle is disabled) and prints per-run
/// wall-clock / throughput summaries to stderr.
pub fn export_telemetry(telemetry: &Telemetry) {
    if !telemetry.is_enabled() {
        return;
    }
    for run in telemetry.run_summaries() {
        eprintln!(
            "telemetry: run {} — {:.2}s wall, {} cycles, {:.0} cycles/s",
            run.label, run.wall_seconds, run.cycles, run.cycles_per_sec
        );
    }
    let Some(path) = std::env::var_os("TELEMETRY_OUT") else {
        return;
    };
    match rlnoc_telemetry::export::export_to_path(telemetry, &path) {
        Ok(()) => eprintln!(
            "telemetry: wrote {} epoch records to {}",
            telemetry.epoch_len(),
            path.to_string_lossy()
        ),
        Err(e) => eprintln!("telemetry: failed to write {}: {e}", path.to_string_lossy()),
    }
}

/// Prints the standard banner: what is being regenerated and what the
/// paper reports for it.
pub fn banner(figure: &str, paper_claim: &str) {
    println!("=== {figure} ===");
    println!("paper: {paper_claim}");
    println!(
        "(values are normalized to the CRC baseline; shape — ordering and \
         rough factors — is the reproduction target, not absolute numbers)"
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_to_paper_campaign() {
        // No env vars set in the test harness by default.
        let c = campaign_from_env();
        assert!(!c.schemes.is_empty());
        assert!(!c.workloads.is_empty());
    }
}
