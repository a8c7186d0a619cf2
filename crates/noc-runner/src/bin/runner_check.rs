//! CI determinism check for the parallel campaign runner.
//!
//! Runs a reduced campaign three ways and demands identical results:
//!
//! 1. serially through `Campaign::run`,
//! 2. in parallel through the runner (`RLNOC_JOBS` workers, default 2,
//!    honoring `RLNOC_BATCH`),
//! 3. batched into replicate groups of 8 lanes run one after another
//!    over shared route tables,
//! 4. resumed from a half-populated checkpoint directory (simulating a
//!    campaign killed midway).
//!
//! Exits non-zero on any mismatch, so CI fails when a change breaks the
//! byte-identical parallel/serial contract or checkpoint round-tripping.

use rlnoc_core::campaign::Campaign;
use rlnoc_core::WorkloadProfile;
use rlnoc_runner::{CheckpointDir, RunnerConfig};
use rlnoc_telemetry::Telemetry;
use std::path::PathBuf;
use std::process::ExitCode;

fn check_campaign() -> Campaign {
    let mut campaign = Campaign::quick();
    campaign.workloads = vec![WorkloadProfile::blackscholes(), WorkloadProfile::canneal()];
    campaign.pretrain_cycles = 4_000;
    campaign.measure_cycles = Some(4_000);
    campaign
}

fn main() -> ExitCode {
    let campaign = check_campaign();
    let env = RunnerConfig::from_env();
    let jobs = env.jobs.max(2);
    let batch = env.batch;
    println!(
        "runner_check: {} tasks, {} workers, batch {}",
        campaign.tasks().len(),
        jobs,
        batch
    );

    let serial = campaign.run();

    let telemetry = Telemetry::enabled();
    let parallel = RunnerConfig {
        jobs,
        snapshot_dir: None,
        resume: false,
        batch,
        telemetry: telemetry.clone(),
    }
    .run_campaign(&campaign);
    if parallel != serial {
        eprintln!("FAIL: parallel ({jobs} workers, batch {batch}) result differs from serial run");
        return ExitCode::FAILURE;
    }
    println!(
        "parallel == serial ({} tasks completed)",
        telemetry.counter("runner.tasks_completed").get()
    );

    // Batched leg: replicate groups share their route tables, whatever
    // the environment asked for.
    let batched = RunnerConfig {
        jobs,
        batch: 8,
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    if batched != serial {
        eprintln!("FAIL: batched (8-lane) result differs from serial run");
        return ExitCode::FAILURE;
    }
    println!("batched == serial (8-lane shared-table groups)");

    // Kill/resume: pre-populate half the checkpoints from the serial
    // run, then resume — only the other half may execute, and the merged
    // result must still match.
    let dir: PathBuf =
        std::env::temp_dir().join(format!("rlnoc-runner-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let total = serial.reports.len();
    let ckpt = match CheckpointDir::open(&dir, campaign.fingerprint(), total) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("FAIL: cannot open checkpoint dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (index, report) in serial.reports.iter().enumerate().take(total / 2) {
        if let Err(e) = ckpt.store(index, report) {
            eprintln!("FAIL: cannot store checkpoint {index}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let resume_telemetry = Telemetry::enabled();
    let resumed = RunnerConfig {
        jobs,
        snapshot_dir: Some(dir.clone()),
        resume: true,
        batch,
        telemetry: resume_telemetry.clone(),
    }
    .run_campaign(&campaign);
    let _ = std::fs::remove_dir_all(&dir);
    if resumed != serial {
        eprintln!("FAIL: resumed result differs from uninterrupted serial run");
        return ExitCode::FAILURE;
    }
    let restored = resume_telemetry.counter("runner.tasks_resumed").get();
    let executed = resume_telemetry.counter("runner.tasks_completed").get();
    if restored != (total / 2) as u64 || executed != (total - total / 2) as u64 {
        eprintln!(
            "FAIL: resume accounting off: {restored} restored, {executed} executed, {total} total"
        );
        return ExitCode::FAILURE;
    }
    println!("resume == serial ({restored} restored, {executed} executed)");
    println!("runner_check: OK");
    ExitCode::SUCCESS
}
