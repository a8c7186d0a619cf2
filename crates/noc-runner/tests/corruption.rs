//! Corruption edge cases for the checkpoint journal and policy-snapshot
//! files.
//!
//! A killed or bit-rotted snapshot directory must never panic the
//! runner or poison a resume: every damaged journal record is treated
//! as absent (its task silently re-runs) and costs no other record, and
//! every damaged `task-NNNN.policy` is a clean parse error, never a
//! wrong bank. Truncation is exercised at **every byte offset** and bit
//! flips at **every bit position** — the CRC-32 framing makes both
//! exhaustive sweeps tractable guarantees rather than spot checks.

use noc_rl::qtable::QTable;
use noc_rl::snapshot::PolicySnapshot;
use noc_testutil::{temp_dir, tiny_campaign};
use rlnoc_core::experiment::{ErrorControlScheme, ExperimentReport};
use rlnoc_runner::{CheckpointDir, RunnerConfig, JOURNAL_FILE};
use std::fs;
use std::path::Path;

fn sample_report(seed: u64) -> ExperimentReport {
    ExperimentReport {
        scheme: ErrorControlScheme::ProposedRl,
        workload: "blackscholes".to_string(),
        seed,
        frequency_hz: 1.6e9,
        packets_injected: 1000,
        packets_delivered: 998,
        flits_delivered: 7984,
        avg_latency_cycles: 37.25,
        p99_latency_cycles: 143,
        execution_cycles: 60_000,
        drained: true,
        packet_retransmissions: 3,
        flit_retransmissions: 41,
        retransmitted_packets_equiv: 8.125,
        hop_nacks: 44,
        ecc_corrections: 12,
        crc_failures: 2,
        control_packets: 3,
        pre_retransmit_hits: 1,
        silent_corruptions: 0,
        dynamic_energy_j: 1.2345678901234e-3,
        static_energy_j: 4.4e-4,
        control_energy_j: 1.0000000000000002e-7,
        mode_histogram: [10, 20, 30, 40],
        mean_temperature_c: 67.33333333333333,
        max_temperature_c: 81.0,
        hard_fault_events: 0,
        reroute_events: 0,
        packets_lost_hard_fault: 0,
        packets_refused_unreachable: 0,
        unreachable_pairs: 0,
    }
}

/// `(start, end, task index)` of every record of an intact journal, in
/// file order; the index is `None` for records that are not `task`
/// records.
fn records(journal: &[u8]) -> Vec<(usize, usize, Option<usize>)> {
    let text = std::str::from_utf8(journal).expect("an intact journal is text");
    let starts: Vec<usize> = text
        .match_indices("rlnoc-journal v1 ")
        .map(|(i, _)| i)
        .collect();
    starts
        .iter()
        .enumerate()
        .map(|(k, &start)| {
            let end = starts.get(k + 1).copied().unwrap_or(text.len());
            let task = text[start..end]
                .lines()
                .find_map(|l| l.strip_prefix("task "))
                .map(|v| v.parse().expect("task index"));
            (start, end, task)
        })
        .collect()
}

const FP: u64 = 0xFEED;

/// Writes a journal holding one campaign record and three task records
/// under `dir`; returns the reports and the journal's bytes.
fn three_task_journal(dir: &Path) -> (Vec<ExperimentReport>, Vec<u8>) {
    let reports: Vec<ExperimentReport> = (0..3).map(|i| sample_report(10 + i)).collect();
    let ckpt = CheckpointDir::open(dir, FP, 3).expect("open");
    for (index, report) in reports.iter().enumerate() {
        ckpt.store(index, report).expect("store");
    }
    drop(ckpt);
    let bytes = fs::read(dir.join(JOURNAL_FILE)).expect("read journal");
    (reports, bytes)
}

#[test]
fn journal_cut_at_every_byte_offset_keeps_exactly_the_whole_records() {
    let dir = temp_dir("journal-truncate");
    let (reports, intact) = three_task_journal(&dir);
    let spans = records(&intact);
    assert_eq!(spans.len(), 4, "one campaign record, three task records");
    let path = dir.join(JOURNAL_FILE);
    // Record bytes are a pure function of the record, so what a reopen
    // and a re-store append is known exactly.
    let campaign_record = &intact[spans[0].0..spans[0].1];
    let (start, end, _) = spans[3];
    let task2_record = &intact[start..end];

    for cut in 0..=intact.len() {
        fs::write(&path, &intact[..cut]).expect("write truncated");
        let ckpt = CheckpointDir::open(&dir, FP, 3).expect("reopen");
        for &(_, end, task) in &spans {
            let Some(index) = task else { continue };
            let expected = (end <= cut).then(|| reports[index].clone());
            assert_eq!(
                ckpt.load(index),
                expected,
                "task {index} after a cut at {cut}/{} bytes",
                intact.len()
            );
        }
        // The torn tail is cut away before the next append lands, so a
        // re-run's record is readable now and after another reopen.
        ckpt.store(2, &reports[2]).expect("store after the cut");
        assert_eq!(ckpt.load(2), Some(reports[2].clone()));
        drop(ckpt);
        let kept = spans
            .iter()
            .map(|&(_, end, _)| end)
            .filter(|&end| end <= cut)
            .max()
            .unwrap_or(0);
        let mut expected = intact[..kept].to_vec();
        if kept == 0 {
            expected.extend_from_slice(campaign_record);
        }
        expected.extend_from_slice(task2_record);
        assert_eq!(
            fs::read(&path).expect("read journal"),
            expected,
            "a cut at {cut} leaves no torn bytes behind"
        );
        let reopened = CheckpointDir::open(&dir, FP, 3).expect("reopen after store");
        assert_eq!(reopened.load(2), Some(reports[2].clone()), "cut at {cut}");
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn any_single_bit_flip_costs_at_most_the_record_it_lands_in() {
    let dir = temp_dir("journal-bitflip");
    let (reports, intact) = three_task_journal(&dir);
    let spans = records(&intact);
    let path = dir.join(JOURNAL_FILE);

    for byte in 0..intact.len() {
        for bit in 0..8 {
            let mut flipped = intact.clone();
            flipped[byte] ^= 1 << bit;
            fs::write(&path, &flipped).expect("write flipped");
            let ckpt = CheckpointDir::open(&dir, FP, 3).expect("reopen");
            for &(start, end, task) in &spans {
                let Some(index) = task else { continue };
                // Every flip is detected: the record it lands in is
                // absent, and every other record loads unchanged.
                let hit = (start..end).contains(&byte);
                assert_eq!(
                    ckpt.load(index),
                    (!hit).then(|| reports[index].clone()),
                    "bit {bit} of byte {byte} flipped: task {index} (bytes {start}..{end})"
                );
            }
        }
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

fn sample_policy() -> PolicySnapshot {
    let tables = (0..3)
        .map(|i| {
            let mut q = QTable::new(40);
            q.update(i % 40, i % 4, 1.0 + i as f64, (i + 1) % 40, 0.5, 0.5);
            q.update(7, 2, -0.125, 3, 0.25, 0.5);
            q
        })
        .collect();
    PolicySnapshot::new(tables)
}

#[test]
fn policy_truncated_at_every_byte_offset_never_parses() {
    let snap = sample_policy();
    let mut intact = Vec::new();
    snap.write(&mut intact).expect("write");

    for offset in 0..intact.len() {
        assert!(
            PolicySnapshot::read(&intact[..offset]).is_err(),
            "policy truncated to {offset}/{} bytes must not parse",
            intact.len()
        );
    }
    assert_eq!(PolicySnapshot::read(&intact[..]).expect("full file"), snap);

    // Same through the file-based API the runner uses.
    let dir = temp_dir("policy-truncate");
    fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("task-0000.policy");
    snap.save_to_path(&path).expect("save");
    fs::write(&path, &intact[..intact.len() / 2]).expect("truncate");
    assert!(PolicySnapshot::load_from_path(&path).is_err());
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn policy_with_any_single_bit_flip_never_parses() {
    let snap = sample_policy();
    let mut intact = Vec::new();
    snap.write(&mut intact).expect("write");

    for byte in 0..intact.len() {
        for bit in 0..8 {
            let mut flipped = intact.clone();
            flipped[byte] ^= 1 << bit;
            assert!(
                PolicySnapshot::read(&flipped[..]).is_err(),
                "bit {bit} of byte {byte} flipped: the bank must not parse"
            );
        }
    }
}

/// End-to-end: a resume over a snapshot directory whose journal was
/// bit-flipped, overwritten with garbage mid-file and torn at the tail,
/// and whose policy file was truncated, produces a campaign result
/// identical to the uninterrupted run — exactly the damaged tasks
/// re-run, the healthy records are reused, and the corrupted policy
/// snapshot is rewritten by the re-run.
#[test]
fn resume_with_corrupted_snapshot_dir_matches_uninterrupted_run() {
    let campaign = tiny_campaign();

    let dir = temp_dir("corruption-resume");
    let populate = RunnerConfig {
        jobs: 2,
        snapshot_dir: Some(dir.clone()),
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    let total = populate.reports.len();
    assert!(total >= 3, "campaign grid is large enough to corrupt");

    // Pick an RL task so the corruption also covers its policy file.
    let rl_index = populate
        .reports
        .iter()
        .position(|r| r.scheme == ErrorControlScheme::ProposedRl)
        .expect("campaign includes the RL scheme");
    let ns = dir.join(CheckpointDir::namespace(campaign.fingerprint()));
    let rl_policy = ns.join(format!("task-{rl_index:04}.policy"));
    assert!(rl_policy.exists(), "RL task persisted a policy snapshot");

    let path = dir.join(JOURNAL_FILE);
    let mut bytes = fs::read(&path).expect("read journal");
    let spans = records(&bytes);
    let span_of = |index: usize| {
        spans
            .iter()
            .find(|(_, _, task)| *task == Some(index))
            .map(|&(start, end, _)| (start, end))
            .expect("every task has a record")
    };

    // Flip a bit in the middle of the RL task's record, and truncate
    // its policy…
    let (start, end) = span_of(rl_index);
    bytes[(start + end) / 2] ^= 0x10;
    let policy_bytes = fs::read(&rl_policy).expect("read policy");
    fs::write(&rl_policy, &policy_bytes[..policy_bytes.len() / 3]).expect("truncate policy");

    // …tear the last record as a kill mid-append would, and overwrite a
    // third task's record with garbage in place.
    let (last_start, last_end, last) = *spans.last().expect("records");
    let last = last.expect("the last record is a task");
    let other = (0..total)
        .find(|&i| i != rl_index && i != last)
        .expect("a third task");
    let (start, end) = span_of(other);
    bytes[start..end].fill(b'x');
    bytes.truncate((last_start + last_end) / 2);
    fs::write(&path, &bytes).expect("write damaged journal");
    let damaged = if last == rl_index { 2 } else { 3 };

    let telemetry = rlnoc_telemetry::Telemetry::enabled();
    let resumed = RunnerConfig {
        jobs: 2,
        snapshot_dir: Some(dir.clone()),
        resume: true,
        telemetry: telemetry.clone(),
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    assert_eq!(
        resumed, populate,
        "damaged records re-run without changing the campaign result"
    );
    assert_eq!(
        telemetry.counter("runner.tasks_completed").get(),
        damaged,
        "exactly the damaged tasks re-ran"
    );

    // The re-run appended valid records and rewrote the policy.
    let ckpt = CheckpointDir::open(&dir, campaign.fingerprint(), total).expect("reopen");
    for (index, report) in populate.reports.iter().enumerate() {
        assert_eq!(ckpt.load(index).as_ref(), Some(report));
    }
    PolicySnapshot::load_from_path(&rl_policy).expect("re-run rewrote a valid policy snapshot");

    fs::remove_dir_all(&dir).expect("cleanup");
}
