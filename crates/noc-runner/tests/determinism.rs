//! Tier-1 guarantees of the parallel runner: worker count and
//! checkpoint/resume must never change campaign results.

use noc_testutil::{temp_dir, tiny_campaign};
use rlnoc_runner::{CheckpointDir, RunnerConfig, JOURNAL_FILE};
use rlnoc_telemetry::Telemetry;

#[test]
fn one_worker_and_four_workers_agree_exactly() {
    let campaign = tiny_campaign();
    let one = RunnerConfig {
        jobs: 1,
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    let four = RunnerConfig {
        jobs: 4,
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(
        one, four,
        "parallel campaign must be byte-identical to serial"
    );
    // And both must match the campaign's own serial entry point.
    assert_eq!(one, campaign.run());
}

#[test]
fn resume_from_partial_checkpoints_matches_uninterrupted_run() {
    let campaign = tiny_campaign();
    let uninterrupted = campaign.run();
    let total = uninterrupted.reports.len();

    // Simulate a campaign killed after finishing half its tasks: only
    // those checkpoints exist on disk.
    let dir = temp_dir("resume");
    let ckpt = CheckpointDir::open(&dir, campaign.fingerprint(), total).expect("open");
    for (index, report) in uninterrupted.reports.iter().enumerate().take(total / 2) {
        ckpt.store(index, report).expect("store");
    }

    let telemetry = Telemetry::enabled();
    let resumed = RunnerConfig {
        jobs: 2,
        snapshot_dir: Some(dir.clone()),
        resume: true,
        telemetry: telemetry.clone(),
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(resumed, uninterrupted, "resume changes nothing");
    assert_eq!(
        telemetry.counter("runner.tasks_resumed").get(),
        (total / 2) as u64,
        "exactly the stored half was restored"
    );
    assert_eq!(
        telemetry.counter("runner.tasks_completed").get(),
        (total - total / 2) as u64,
        "only the missing half executed"
    );

    // A second resume restores everything and runs nothing.
    let telemetry2 = Telemetry::enabled();
    let again = RunnerConfig {
        jobs: 2,
        snapshot_dir: Some(dir.clone()),
        resume: true,
        telemetry: telemetry2.clone(),
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(again, uninterrupted);
    assert_eq!(
        telemetry2.counter("runner.tasks_resumed").get(),
        total as u64
    );
    assert_eq!(telemetry2.counter("runner.tasks_completed").get(), 0);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A campaign whose runs take hard faults mid-flight: a corner cut at
/// cycle 1 guarantees every report carries the unreachable-pairs gauge
/// (so checkpoints exercise the optional hard-fault block), and a
/// random tail of failures lands inside the simulated windows.
fn faulted_campaign() -> rlnoc_core::campaign::Campaign {
    use noc_fault::hardfault::{HardFault, HardFaultEntry, HardFaultSchedule};
    use noc_fault::topo::{Direction, Mesh};
    let mut campaign = tiny_campaign();
    let mut entries = vec![
        HardFaultEntry {
            cycle: 1,
            fault: HardFault::Link {
                node: 0,
                dir: Direction::East,
            },
        },
        HardFaultEntry {
            cycle: 1,
            fault: HardFault::Link {
                node: 0,
                dir: Direction::South,
            },
        },
    ];
    entries.extend(HardFaultSchedule::random(Mesh::new(4, 4), 2, 1, (500, 6_000), 23).entries);
    campaign.hard_faults = Some(std::sync::Arc::new(HardFaultSchedule::explicit(
        Mesh::new(4, 4),
        entries,
    )));
    campaign
}

#[test]
fn faulted_campaign_is_identical_across_worker_counts_and_resume() {
    let campaign = faulted_campaign();
    let uninterrupted = campaign.run();
    assert!(
        uninterrupted
            .reports
            .iter()
            .all(|r| r.unreachable_pairs > 0),
        "the corner cut must show in every report"
    );
    assert!(
        uninterrupted
            .reports
            .iter()
            .any(|r| r.hard_fault_events > 0),
        "some scheme must take fault events inside its measured window"
    );

    for jobs in [1, 4, 8] {
        let parallel = RunnerConfig {
            jobs,
            ..RunnerConfig::serial()
        }
        .run_campaign(&campaign);
        assert_eq!(
            parallel, uninterrupted,
            "{jobs}-worker faulted campaign must match the serial run"
        );
    }

    // Kill-and-resume: half the checkpoints exist, the rest re-run; the
    // stored half round-trips the optional hard-fault report block.
    let dir = temp_dir("faulted-resume");
    let total = uninterrupted.reports.len();
    let ckpt = CheckpointDir::open(&dir, campaign.fingerprint(), total).expect("open");
    for (index, report) in uninterrupted.reports.iter().enumerate().take(total / 2) {
        ckpt.store(index, report).expect("store");
    }
    for jobs in [1, 4, 8] {
        let resumed = RunnerConfig {
            jobs,
            snapshot_dir: Some(dir.clone()),
            resume: true,
            telemetry: Telemetry::disabled(),
            ..RunnerConfig::serial()
        }
        .run_campaign(&campaign);
        assert_eq!(
            resumed, uninterrupted,
            "{jobs}-worker resume of the faulted campaign changes nothing"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The topology-zoo acceptance gate at radix: a 16×16 torus campaign
/// whose links and routers die mid-run must be byte-identical across
/// serial execution (cold and again with every reroute a cache hit), a
/// 4-worker pool (`RLNOC_JOBS=4`), shared-table replicate groups
/// (`RLNOC_BATCH=8`), and a kill-and-resume from partial checkpoints —
/// wrap links, date-line VCs, and up*/down* recovery included.
#[test]
fn faulted_16x16_torus_campaign_is_deterministic_across_execution_modes() {
    use noc_fault::hardfault::HardFaultSchedule;
    use noc_fault::topo::Torus;
    use noc_sim::config::NocConfig;
    use rlnoc_core::ErrorControlScheme;

    let mut campaign = tiny_campaign();
    campaign.noc = NocConfig::builder().topology(Torus::new(16, 16)).build();
    campaign.schemes = vec![
        ErrorControlScheme::StaticCrc,
        ErrorControlScheme::ProposedRl,
    ];
    campaign.replicates = 2;
    campaign.pretrain_cycles = 2_000;
    campaign.measure_cycles = Some(2_000);
    campaign.hard_faults = Some(std::sync::Arc::new(HardFaultSchedule::random(
        Torus::new(16, 16),
        6,
        2,
        (500, 4_000),
        67,
    )));

    // Cold, then warm: this schedule's dead sets are solved for the
    // first time in this process by the first run; the second is served
    // entirely from the process-wide reroute cache. Reports and every
    // checkpoint byte must not be able to tell. A record's bytes are a
    // pure function of its task but the journal's record order follows
    // completion order, so the journal is compared as a set of records,
    // beside the policy files.
    let snapshot_run = |tag: &str| {
        let dir = temp_dir(tag);
        let result = RunnerConfig {
            snapshot_dir: Some(dir.clone()),
            ..RunnerConfig::serial()
        }
        .run_campaign(&campaign);
        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal");
        let mut records: Vec<String> =
            journal
                .split_inclusive('\n')
                .fold(Vec::new(), |mut records: Vec<String>, line| {
                    match records.last_mut() {
                        Some(record) if !line.starts_with("rlnoc-journal v1 ") => {
                            record.push_str(line)
                        }
                        _ => records.push(line.to_string()),
                    }
                    records
                });
        records.sort();
        let namespace = dir.join(CheckpointDir::namespace(campaign.fingerprint()));
        let mut policies: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(&namespace)
            .expect("policy directory")
            .map(|entry| {
                let entry = entry.expect("dir entry");
                let bytes = std::fs::read(entry.path()).expect("policy file");
                (entry.file_name(), bytes)
            })
            .collect();
        policies.sort();
        std::fs::remove_dir_all(&dir).expect("cleanup");
        (result, records, policies)
    };
    let (cold, cold_records, cold_policies) = snapshot_run("torus-16x16-cold");
    let (warm, warm_records, warm_policies) = snapshot_run("torus-16x16-warm");
    assert_eq!(warm, cold, "an all-hits rerun must match the cold run");
    assert_eq!(
        cold_records.len(),
        cold.reports.len() + 1,
        "one campaign record and one record per task"
    );
    assert!(!cold_policies.is_empty(), "RL tasks saved their policies");
    assert_eq!(
        (warm_records, warm_policies),
        (cold_records, cold_policies),
        "and write the same checkpoint bytes"
    );

    let serial = campaign.run();
    assert_eq!(serial, cold, "the cold run is the serial run");
    assert!(
        serial.reports.iter().any(|r| r.hard_fault_events > 0),
        "faults must strike inside some measured window"
    );

    let four_workers = RunnerConfig {
        jobs: 4,
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(
        four_workers, serial,
        "RLNOC_JOBS=4 must match the serial torus campaign"
    );

    let batched = RunnerConfig {
        jobs: 4,
        batch: 8,
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(
        batched, serial,
        "RLNOC_BATCH=8 must match the serial torus campaign"
    );

    // Kill-and-resume: half the checkpoints exist, the rest re-runs
    // through the batched engine.
    let dir = temp_dir("torus-16x16-resume");
    let total = serial.reports.len();
    let ckpt = CheckpointDir::open(&dir, campaign.fingerprint(), total).expect("open");
    for (index, report) in serial.reports.iter().enumerate().take(total / 2) {
        ckpt.store(index, report).expect("store");
    }
    let resumed = RunnerConfig {
        jobs: 4,
        batch: 8,
        snapshot_dir: Some(dir.clone()),
        resume: true,
        telemetry: Telemetry::disabled(),
    }
    .run_campaign(&campaign);
    assert_eq!(
        resumed, serial,
        "checkpoint-resume of the torus campaign changes nothing"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The degradation sweep's campaign shape — hard faults striking
/// mid-flight, replicated cells — through replicate groups: lanes
/// served from the reroute cache must stay byte-identical to the
/// serial run, and a batched resume from partial checkpoints must
/// change nothing.
#[test]
fn faulted_replicated_campaign_matches_serial_under_batching_and_resume() {
    use rlnoc_core::ErrorControlScheme;
    let mut campaign = faulted_campaign();
    campaign.replicates = 2;
    campaign.schemes.retain(|s| {
        matches!(
            s,
            ErrorControlScheme::StaticCrc | ErrorControlScheme::ProposedRl
        )
    });
    let serial = campaign.run();
    assert!(
        serial.reports.iter().any(|r| r.hard_fault_events > 0),
        "some lane must take fault events inside its measured window"
    );

    let batched = RunnerConfig {
        jobs: 4,
        batch: 8,
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(
        batched, serial,
        "batched faulted replicate groups must match the serial run"
    );

    // Kill-and-resume with batching still on: stored lanes restore,
    // the remainder re-runs through the batched engine.
    let dir = temp_dir("faulted-batched-resume");
    let total = serial.reports.len();
    let ckpt = CheckpointDir::open(&dir, campaign.fingerprint(), total).expect("open");
    for (index, report) in serial.reports.iter().enumerate().take(total / 2) {
        ckpt.store(index, report).expect("store");
    }
    let resumed = RunnerConfig {
        jobs: 4,
        batch: 8,
        snapshot_dir: Some(dir.clone()),
        resume: true,
        telemetry: Telemetry::disabled(),
    }
    .run_campaign(&campaign);
    assert_eq!(
        resumed, serial,
        "batched resume of the faulted campaign changes nothing"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The replicate-group contract end to end: replicate lanes grouped
/// over shared tables (ragged tails included) produce byte-identical
/// campaign results, write the same per-lane checkpoints and policy
/// snapshots as scalar execution, and stay per-task in the telemetry
/// accounting.
#[test]
fn batched_replicate_groups_match_serial_and_checkpoint_per_lane() {
    use rlnoc_core::ErrorControlScheme;
    let mut campaign = tiny_campaign();
    campaign.replicates = 3;
    campaign.schemes.retain(|s| {
        matches!(
            s,
            ErrorControlScheme::StaticCrc | ErrorControlScheme::ProposedRl
        )
    });
    let serial = campaign.run();
    let total = serial.reports.len();
    assert_eq!(total, 6, "2 schemes x 1 workload x 3 replicates");

    // Width 2 over 3 replicates: one full group plus a ragged singleton
    // per cell, across worker threads.
    let ragged = RunnerConfig {
        jobs: 2,
        batch: 2,
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(ragged, serial, "ragged batches must match the serial run");

    // Width 8 swallows each cell whole and persists per lane.
    let dir = temp_dir("batched-ckpt");
    let telemetry = Telemetry::enabled();
    let batched = RunnerConfig {
        jobs: 2,
        batch: 8,
        snapshot_dir: Some(dir.clone()),
        resume: false,
        telemetry: telemetry.clone(),
    }
    .run_campaign(&campaign);
    assert_eq!(batched, serial, "full-width batches must match serial");
    assert_eq!(
        telemetry.counter("runner.tasks_completed").get(),
        total as u64,
        "completion accounting stays per-lane under batching"
    );
    let namespace = dir.join(CheckpointDir::namespace(campaign.fingerprint()));
    for task in campaign.tasks() {
        if matches!(task.scheme, ErrorControlScheme::ProposedRl) {
            let policy = namespace.join(format!("task-{:04}.policy", task.index));
            assert!(
                policy.exists(),
                "every batched RL lane leaves its own policy snapshot"
            );
        }
    }

    // A scalar resume restores every batched checkpoint untouched.
    let telemetry2 = Telemetry::enabled();
    let resumed = RunnerConfig {
        jobs: 1,
        snapshot_dir: Some(dir.clone()),
        resume: true,
        telemetry: telemetry2.clone(),
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(resumed, serial, "resume from batched checkpoints");
    assert_eq!(
        telemetry2.counter("runner.tasks_resumed").get(),
        total as u64
    );
    assert_eq!(telemetry2.counter("runner.tasks_completed").get(), 0);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A killed K-lane group must keep every lane it finished: each lane's
/// checkpoint is on disk — and `on_task` has fired — before the next
/// lane of the group starts.
#[test]
fn batched_group_persists_and_notifies_each_lane_as_it_finishes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let mut campaign = tiny_campaign();
    campaign.replicates = 4;
    campaign
        .schemes
        .retain(|s| matches!(s, rlnoc_core::ErrorControlScheme::StaticCrc));
    let total = campaign.tasks().len();
    assert_eq!(total, 4, "one cell, four replicate lanes, one group");

    let dir = temp_dir("batched-per-lane");
    // A second handle on the directory shares the runner's journal, so
    // it sees each record the moment it is appended.
    let probe = CheckpointDir::open(&dir, campaign.fingerprint(), total).expect("open");
    let stored = |index: usize| probe.load(index).is_some();
    let notified = AtomicUsize::new(0);
    RunnerConfig {
        batch: 4,
        snapshot_dir: Some(dir.clone()),
        ..RunnerConfig::serial()
    }
    .run_campaign_with(&campaign, &|task, _| {
        notified.fetch_add(1, Ordering::Relaxed);
        assert!(
            stored(task.index),
            "lane {} is notified only after its checkpoint is durable",
            task.index
        );
        if task.index + 1 < total {
            assert!(
                !stored(task.index + 1),
                "lane {} has not run yet when lane {} reports",
                task.index + 1,
                task.index
            );
        }
    });
    assert_eq!(notified.load(Ordering::Relaxed), total);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn rl_policy_snapshots_are_saved_and_reloadable() {
    let mut campaign = tiny_campaign();
    // Keep only the RL scheme: one task, one policy file.
    campaign
        .schemes
        .retain(|s| matches!(s, rlnoc_core::ErrorControlScheme::ProposedRl));
    let dir = temp_dir("policy");
    let result = RunnerConfig {
        jobs: 1,
        snapshot_dir: Some(dir.clone()),
        resume: false,
        telemetry: Telemetry::disabled(),
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(result.reports.len(), 1);

    let policy = noc_rl::PolicySnapshot::load_from_path(
        dir.join(CheckpointDir::namespace(campaign.fingerprint()))
            .join("task-0000.policy"),
    )
    .expect("valid");
    assert_eq!(policy.num_agents(), 16, "one agent per 4x4 mesh router");

    // The saved policy drives an inference-only re-run of the same cell.
    let task = &campaign.tasks()[0];
    let report = rlnoc_core::Experiment::builder()
        .scheme(rlnoc_core::ErrorControlScheme::ProposedRl)
        .workload(campaign.workloads[0].clone())
        .noc(campaign.noc)
        .seed(task.seed)
        .pretrain_cycles(campaign.pretrain_cycles)
        .warmup_cycles(campaign.warmup_cycles)
        .measure_cycles(campaign.measure_cycles.expect("quick campaign caps"))
        .drain_limit(campaign.drain_limit)
        .rl_policy(std::sync::Arc::new(policy))
        .build()
        .expect("valid inference configuration")
        .run();
    assert!(report.packets_delivered > 0);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn foreign_campaign_in_the_same_directory_no_longer_conflicts() {
    // Campaigns sharing one directory are keyed apart by fingerprint in
    // its journal and never see each other's records.
    let campaign = tiny_campaign();
    let dir = temp_dir("mismatch");
    let foreign =
        CheckpointDir::open(&dir, campaign.fingerprint() ^ 1, 4).expect("claim with other fp");
    let expected = campaign.run();
    // A report this campaign never produces: restoring it would show.
    let mut foreign_report = expected.reports[0].clone();
    foreign_report.seed += 1;
    foreign.store(0, &foreign_report).expect("store");
    let result = RunnerConfig {
        jobs: 1,
        snapshot_dir: Some(dir.clone()),
        resume: true,
        telemetry: Telemetry::disabled(),
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(result, expected, "foreign records are not restored");
    assert_eq!(
        foreign.load(0),
        Some(foreign_report),
        "the other campaign's record survives"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
