//! The campaign runner: deterministic parallel execution with optional
//! checkpoint/resume and policy snapshots.
//!
//! [`RunnerConfig::run_campaign`] executes the exact task list that
//! [`Campaign::run`] would run serially, across `jobs` worker threads,
//! and merges the reports by task index — so the returned
//! [`CampaignResult`] is byte-identical whatever the worker count.
//!
//! With a snapshot directory configured, every finished task is
//! checkpointed ([`crate::checkpoint`]) and every finished RL task's
//! learned policy is saved as a versioned, checksummed
//! [`PolicySnapshot`] (`task-NNNN.policy`) for later train-once /
//! eval-many runs. With `resume` also set, valid checkpoints from a
//! previous (possibly killed) run are loaded instead of re-run.

use crate::checkpoint::{CheckpointDir, CheckpointError};
use crate::pool;
use rlnoc_core::campaign::{Campaign, CampaignResult, CampaignTask};
use rlnoc_core::experiment::ExperimentReport;
use rlnoc_telemetry::Telemetry;
use std::path::PathBuf;
use std::sync::Arc;

/// How a campaign should be executed.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads (1 = serial; 0 is treated as 1).
    pub jobs: usize,
    /// Directory for checkpoints and policy snapshots (`None` = keep
    /// everything in memory).
    pub snapshot_dir: Option<PathBuf>,
    /// Reload valid checkpoints from `snapshot_dir` instead of
    /// re-running their tasks. Ignored without a snapshot directory.
    pub resume: bool,
    /// Replicate-group width: replicates of one (workload, scheme)
    /// cell run as a single task of up to this many lanes, one after
    /// another over shared route tables (1 = scalar execution). Purely an
    /// execution strategy — results, checkpoints, and fingerprints are
    /// byte-identical for every width.
    pub batch: usize,
    /// Runner-level telemetry (queue depth, per-worker task counts, one
    /// run summary per campaign). Independent of the campaign's own
    /// handle, which instruments the simulations themselves.
    pub telemetry: Telemetry,
}

impl RunnerConfig {
    /// Serial execution, no persistence — the drop-in equivalent of
    /// calling [`Campaign::run`] directly.
    pub fn serial() -> Self {
        Self {
            jobs: 1,
            snapshot_dir: None,
            resume: false,
            batch: 1,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Reads the standard environment knobs:
    ///
    /// * `RLNOC_JOBS` — worker threads; `0` or unset = serial, `max` =
    ///   all available cores.
    /// * `RLNOC_BATCH` — replicate-group width; `0`/`1` or unset =
    ///   scalar execution.
    /// * `SNAPSHOT_DIR` — checkpoint/policy-snapshot directory.
    /// * `RESUME` — `1`/`true` to reload checkpoints from
    ///   `SNAPSHOT_DIR`.
    pub fn from_env() -> Self {
        let jobs = match std::env::var("RLNOC_JOBS") {
            Ok(v) if v.trim() == "max" => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Ok(v) => v.trim().parse().unwrap_or(1).max(1),
            Err(_) => 1,
        };
        let snapshot_dir = std::env::var("SNAPSHOT_DIR")
            .ok()
            .filter(|v| !v.trim().is_empty())
            .map(PathBuf::from);
        let resume = std::env::var("RESUME")
            .map(|v| matches!(v.trim(), "1" | "true" | "yes"))
            .unwrap_or(false);
        let batch = std::env::var("RLNOC_BATCH")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(1)
            .max(1);
        Self {
            jobs,
            snapshot_dir,
            resume,
            batch,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle for the runner's own instruments.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Executes `campaign` under this configuration.
    ///
    /// The result is identical — report for report — to
    /// [`Campaign::run`], for any `jobs` value and whether or not tasks
    /// were restored from checkpoints.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot directory cannot be opened (wrong
    /// campaign, I/O failure) or a simulation task panics.
    pub fn run_campaign(&self, campaign: &Campaign) -> CampaignResult {
        self.run_campaign_with(campaign, &|_, _| {})
    }

    /// Like [`run_campaign`](Self::run_campaign), invoking `on_task`
    /// once per task as its report becomes available — immediately for
    /// checkpoints restored via `resume`, and on the completing worker
    /// thread for freshly-run tasks (so the hook must be `Sync`; it
    /// runs concurrently under `jobs > 1`).
    ///
    /// The hook is observation-only: it receives shared references and
    /// cannot perturb results, so the returned [`CampaignResult`] is
    /// still byte-identical to [`Campaign::run`]. `rlnoc-serve` uses it
    /// to stream per-task progress to watch subscribers.
    ///
    /// # Panics
    ///
    /// As [`run_campaign`](Self::run_campaign).
    pub fn run_campaign_with(
        &self,
        campaign: &Campaign,
        on_task: &(dyn Fn(&CampaignTask, &ExperimentReport) + Sync),
    ) -> CampaignResult {
        let tasks = campaign.tasks();
        let total = tasks.len();
        let run_id =
            self.telemetry
                .begin_run(&format!("runner/jobs{}/tasks{}", self.jobs.max(1), total));

        let ckpt = self.snapshot_dir.as_ref().map(|dir| {
            Arc::new(
                CheckpointDir::open(dir, campaign.fingerprint(), total)
                    .expect("snapshot directory must be usable"),
            )
        });

        // Restore finished tasks, run the rest.
        let mut slots: Vec<Option<ExperimentReport>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        let mut pending: Vec<CampaignTask> = Vec::new();
        for task in tasks {
            let restored = match (&ckpt, self.resume) {
                (Some(c), true) => c.load(task.index),
                _ => None,
            };
            match restored {
                Some(report) => {
                    on_task(&task, &report);
                    slots[task.index] = Some(report);
                }
                None => pending.push(task),
            }
        }
        self.telemetry
            .counter("runner.tasks_resumed")
            .add((total - pending.len()) as u64);

        // Learning schemes carry a pre-training phase and run several
        // times longer than the static baselines; starting them first
        // keeps the workers balanced at the tail of the queue.
        pending.sort_by_key(|t| (std::cmp::Reverse(t.scheme.is_learning()), t.index));

        // Replicates of one (workload, scheme) cell batch into
        // shared-table groups of up to `batch` lanes; ragged tails become
        // smaller groups and singletons fall back to the scalar path.
        let groups = batch_groups(pending, self.batch);
        let completed = self.telemetry.counter("runner.tasks_completed");
        let fresh = pool::run_indexed(groups, self.jobs, &self.telemetry, |_, group| {
            let reports = execute_batch(campaign, &group, ckpt.as_deref(), on_task);
            // The pool counts one completion per queue item (= group);
            // top up so the counter stays per-task.
            if group.len() > 1 {
                completed.add((group.len() - 1) as u64);
            }
            group
                .iter()
                .map(|task| task.index)
                .zip(reports)
                .collect::<Vec<_>>()
        });
        for (index, report) in fresh.into_iter().flatten() {
            slots[index] = Some(report);
        }
        self.telemetry.finish_run(run_id, 0);
        CampaignResult {
            reports: slots
                .into_iter()
                .map(|s| s.expect("every task ran or was restored"))
                .collect(),
        }
    }
}

/// Executes one campaign task and, when a checkpoint directory is
/// given, persists its report (and any learned policy snapshot as
/// `task-NNNN.policy`).
///
/// This is the single-task unit [`RunnerConfig::run_campaign`] is built
/// from, exported so external schedulers — `rlnoc-serve`'s fair-share
/// worker pool — can run tasks one at a time with the exact same
/// execution + persistence semantics and stay byte-identical to a
/// runner invocation.
///
/// # Errors
///
/// The checkpoint or policy snapshot could not be written. The task's
/// journal record is appended last, so after an error the journal does
/// not claim the task finished.
pub fn execute_task(
    campaign: &Campaign,
    task: &CampaignTask,
    ckpt: Option<&CheckpointDir>,
) -> Result<ExperimentReport, CheckpointError> {
    let (report, artifacts) = campaign.experiment(task).run_inspect();
    persist_task(task, &report, &artifacts, ckpt)?;
    Ok(report)
}

/// Checkpoints one finished task's report and any learned policy. The
/// policy is written first: a task record in the journal then implies
/// its policy file exists.
fn persist_task(
    task: &CampaignTask,
    report: &ExperimentReport,
    artifacts: &rlnoc_core::experiment::RunArtifacts,
    ckpt: Option<&CheckpointDir>,
) -> Result<(), CheckpointError> {
    let Some(ckpt) = ckpt else { return Ok(()) };
    if let Some(policy) = artifacts.controllers.policy_snapshot() {
        std::fs::create_dir_all(ckpt.path())?;
        policy.save_to_path(ckpt.path().join(format!("task-{:04}.policy", task.index)))?;
    }
    ckpt.store(task.index, report)
}

/// Executes a group of replicate lanes from one campaign cell over one
/// set of shared route tables, one lane after another, with the exact
/// persistence semantics of [`execute_task`] applied — and `on_task`
/// fired — as each lane finishes, so a killed group keeps every lane it
/// completed. Singleton groups take the scalar path — the ragged-tail
/// fallback.
///
/// # Panics
///
/// Panics when a checkpoint or policy snapshot cannot be written.
pub fn execute_batch(
    campaign: &Campaign,
    group: &[CampaignTask],
    ckpt: Option<&CheckpointDir>,
    on_task: &(dyn Fn(&CampaignTask, &ExperimentReport) + Sync),
) -> Vec<ExperimentReport> {
    const PERSIST: &str = "checkpoint write must succeed";
    if let [task] = group {
        let report = execute_task(campaign, task, ckpt).expect(PERSIST);
        on_task(task, &report);
        return vec![report];
    }
    let lanes = group.iter().map(|task| campaign.experiment(task)).collect();
    rlnoc_core::Experiment::run_batch_inspect(lanes)
        .zip(group)
        .map(|((report, artifacts), task)| {
            persist_task(task, &report, &artifacts, ckpt).expect(PERSIST);
            on_task(task, &report);
            report
        })
        .collect()
}

/// Partitions scheduled tasks into replicate groups: replicates of one
/// (workload, scheme) cell — which differ only by derived seed — are
/// the lanes eligible to share one set of route tables. Cells appear in the
/// scheduling order of their first task, so the learning-first ordering
/// of the input survives grouping.
fn batch_groups(pending: Vec<CampaignTask>, batch: usize) -> Vec<Vec<CampaignTask>> {
    if batch <= 1 {
        return pending.into_iter().map(|task| vec![task]).collect();
    }
    let mut cells: Vec<((usize, rlnoc_core::ErrorControlScheme), Vec<CampaignTask>)> = Vec::new();
    for task in pending {
        let key = (task.workload, task.scheme);
        match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, lanes)) => lanes.push(task),
            None => cells.push((key, vec![task])),
        }
    }
    cells
        .into_iter()
        .flat_map(|(_, lanes)| {
            lanes
                .chunks(batch)
                .map(<[CampaignTask]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlnoc_core::WorkloadProfile;

    fn tiny_campaign() -> Campaign {
        let mut c = Campaign::quick();
        c.workloads = vec![WorkloadProfile::blackscholes()];
        c.pretrain_cycles = 4_000;
        c.measure_cycles = Some(4_000);
        c
    }

    #[test]
    fn from_env_defaults_are_serial_and_ephemeral() {
        // Note: assumes the test environment does not set the knobs.
        if std::env::var_os("RLNOC_JOBS").is_none() {
            let cfg = RunnerConfig::from_env();
            assert_eq!(cfg.jobs, 1);
        }
    }

    #[test]
    fn runner_serial_matches_campaign_run() {
        let campaign = tiny_campaign();
        let direct = campaign.run();
        let via_runner = RunnerConfig::serial().run_campaign(&campaign);
        assert_eq!(direct, via_runner);
    }

    #[test]
    fn learning_tasks_are_scheduled_first() {
        let campaign = Campaign::quick();
        let mut pending = campaign.tasks();
        pending.sort_by_key(|t| (std::cmp::Reverse(t.scheme.is_learning()), t.index));
        let first_static = pending
            .iter()
            .position(|t| !t.scheme.is_learning())
            .expect("grid has static schemes");
        assert!(
            pending[..first_static]
                .iter()
                .all(|t| t.scheme.is_learning()),
            "all learning tasks precede the first static task"
        );
    }
}
