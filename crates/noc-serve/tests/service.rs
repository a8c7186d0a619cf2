//! End-to-end tests of the campaign service over real TCP
//! connections: submit/status/watch/result/cancel, deduplication,
//! fair-share scheduling, warm-restart recovery, and byte-identity of
//! served results against standalone `Campaign::run` output.
//!
//! Tests that depend on queue order start the server paused
//! (`ServerConfig::start_paused`) so the whole backlog is staged before
//! a single task runs — execution order is then exactly the DRR order
//! the scheduler unit tests pin down, with no submission race.

use rlnoc_core::experiment::ErrorControlScheme;
use rlnoc_core::spec::CampaignSpec;
use rlnoc_runner::{Journal, JOURNAL_FILE};
use rlnoc_serve::{render_result_text, Client, Server, ServerConfig, ADDR_FILE};
use rlnoc_telemetry::Telemetry;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rlnoc-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str, jobs: usize, start_paused: bool) -> (Server, String, std::path::PathBuf) {
    let dir = temp_dir(tag);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        dir: dir.clone(),
        telemetry: Telemetry::enabled(),
        start_paused,
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    (server, addr, dir)
}

/// A 2×2-mesh spec with `2 × replicates` tasks (CRC and ARQ+ECC), fast
/// enough to run many of in one test.
fn multi_task_spec(seed: u64, replicates: usize) -> CampaignSpec {
    let mut campaign = CampaignSpec::tiny(seed).to_campaign().expect("valid");
    campaign.schemes = vec![
        ErrorControlScheme::StaticCrc,
        ErrorControlScheme::StaticArqEcc,
    ];
    campaign.replicates = replicates;
    CampaignSpec::from_campaign(&campaign).expect("serializable")
}

fn wait_done(client: &mut Client, tenant: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.status(tenant, id).expect("status");
        if status.state == "done" {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} stuck in state {}",
            status.state
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn submit_status_result_round_trip_is_byte_identical_to_standalone() {
    let (server, addr, dir) = start("e2e", 2, false);
    let mut client = Client::connect(&addr).expect("connect");
    let spec = CampaignSpec::tiny(41);
    let id = spec.campaign_id().expect("id");

    let ack = client.submit("alice", 3, &spec.to_text()).expect("submit");
    assert_eq!(ack.campaign, id);
    assert_eq!(ack.tasks, 1);
    assert_eq!(ack.completed, 0);

    wait_done(&mut client, "alice", &id);
    let served = client.result("alice", &id).expect("result");
    let standalone = spec.to_campaign().expect("valid").run();
    assert_eq!(
        served,
        render_result_text(&standalone.reports),
        "served result must be byte-identical to a standalone run"
    );

    // Resubmission deduplicates onto the finished campaign.
    let again = client
        .submit("alice", 3, &spec.to_text())
        .expect("resubmit");
    assert_eq!(again.campaign, id);
    assert_eq!(again.completed, again.tasks);
    assert_eq!(again.state, "done");

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unknown_campaigns_and_bad_submissions_answer_error_frames() {
    let (server, addr, dir) = start("errors", 1, false);
    let mut client = Client::connect(&addr).expect("connect");

    let err = client.status("alice", "c-0000000000000000").unwrap_err();
    assert!(err.to_string().contains("unknown campaign"), "{err}");

    // Path-escaping tenant names are rejected before touching disk.
    let err = client
        .submit("../escape", 1, &CampaignSpec::tiny(1).to_text())
        .unwrap_err();
    assert!(err.to_string().contains("invalid tenant"), "{err}");

    // A corrupted spec body (flipped digit breaks its CRC trailer).
    let mut text = CampaignSpec::tiny(1).to_text();
    let pos = text.find("seed=").expect("seed line") + 6;
    let original = text.as_bytes()[pos];
    let flipped = if original == b'0' { '1' } else { '0' };
    text.replace_range(pos..pos + 1, &flipped.to_string());
    let err = client.submit("alice", 1, &text).unwrap_err();
    assert!(err.to_string().contains("invalid submission"), "{err}");

    // The connection survives request-level errors.
    let ack = client
        .submit("alice", 1, &CampaignSpec::tiny(1).to_text())
        .expect("good submission still works");
    assert_eq!(ack.tasks, 1);

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_spec_whose_task_count_overflows_is_refused_with_nothing_journaled() {
    let (server, addr, dir) = start("overflow", 1, false);
    let mut client = Client::connect(&addr).expect("connect");
    // CRC-valid, but 2^63 replicates × 2 schemes wraps a usize task
    // count to 0.
    let mut spec = CampaignSpec::tiny(5);
    spec.schemes = vec![
        ErrorControlScheme::StaticCrc,
        ErrorControlScheme::StaticArqEcc,
    ];
    spec.replicates = 1 << 63;
    let journal_len = || std::fs::metadata(dir.join(JOURNAL_FILE)).map_or(0, |m| m.len());
    let before = journal_len();
    let err = client.submit("alice", 1, &spec.to_text()).unwrap_err();
    assert!(err.to_string().contains("invalid submission"), "{err}");
    assert_eq!(journal_len(), before, "a refused spec journals nothing");

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn watch_streams_telemetry_and_ends_with_done() {
    // Staged paused: the watcher attaches before any task can run, so
    // it observes the whole campaign stream.
    let (server, addr, dir) = start("watch", 1, true);
    let mut submit_client = Client::connect(&addr).expect("connect");
    let spec = multi_task_spec(52, 2); // 4 tasks
    let id = spec.campaign_id().expect("id");
    submit_client
        .submit("alice", 1, &spec.to_text())
        .expect("submit");

    let watch_id = id.clone();
    let watch_addr = addr.clone();
    let watcher = std::thread::spawn(move || {
        let mut events = Vec::new();
        let mut client = Client::connect(&watch_addr).expect("connect");
        let state = client
            .watch("alice", &watch_id, &mut |line| {
                events.push(line.to_string())
            })
            .expect("watch");
        (state, events)
    });
    // Give the watcher time to register its subscription, then open
    // the gate.
    std::thread::sleep(Duration::from_millis(200));
    server.resume();
    let (state, events) = watcher.join().expect("watcher thread");
    assert_eq!(state, "done");

    let task_lines: Vec<&String> = events
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"task\""))
        .collect();
    assert!(
        !task_lines.is_empty(),
        "watcher must see task progress lines (got {} events)",
        events.len()
    );
    assert!(
        task_lines
            .iter()
            .all(|l| l.contains(&format!("\"campaign\":\"{id}\""))),
        "progress lines carry the campaign id"
    );
    assert!(
        events
            .iter()
            .any(|l| l.starts_with("{\"type\":\"run\"") || l.starts_with("{\"type\":\"epoch\"")),
        "watcher must see exporter telemetry lines"
    );
    assert!(
        events.iter().all(|l| l.ends_with('}')),
        "events are single JSON objects"
    );

    // Watching a finished campaign returns immediately with no events.
    let mut late = Vec::new();
    let mut late_client = Client::connect(&addr).expect("connect");
    let state = late_client
        .watch("alice", &id, &mut |line| late.push(line.to_string()))
        .expect("late watch");
    assert_eq!((state.as_str(), late.len()), ("done", 0));

    // And the watcher must not have perturbed a single result byte.
    wait_done(&mut submit_client, "alice", &id);
    let served = submit_client.result("alice", &id).expect("result");
    let standalone = spec.to_campaign().expect("valid").run();
    assert_eq!(served, render_result_text(&standalone.reports));

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cancellation_drops_queued_tasks_and_blocks_result() {
    let (server, addr, dir) = start("cancel", 1, true);
    let mut client = Client::connect(&addr).expect("connect");
    let survivor = multi_task_spec(61, 1);
    let victim = multi_task_spec(62, 2);
    let survivor_id = survivor.campaign_id().expect("id");
    let victim_id = victim.campaign_id().expect("id");
    client
        .submit("alice", 1, &survivor.to_text())
        .expect("submit");
    client
        .submit("bravo", 1, &victim.to_text())
        .expect("submit");

    // Cancel while everything is still staged: deterministic zero
    // progress for the victim.
    assert_eq!(
        client.cancel("bravo", &victim_id).expect("cancel"),
        "cancelled"
    );
    let status = client.status("bravo", &victim_id).expect("status");
    assert_eq!((status.state.as_str(), status.completed), ("cancelled", 0));
    let err = client.result("bravo", &victim_id).unwrap_err();
    assert!(err.to_string().contains("cancelled"), "{err}");
    // Cancelling twice is a no-op, and never resurrects tasks.
    assert_eq!(
        client.cancel("bravo", &victim_id).expect("cancel"),
        "cancelled"
    );

    server.resume();
    // The other tenant's campaign is unaffected — and still exact.
    wait_done(&mut client, "alice", &survivor_id);
    let served = client.result("alice", &survivor_id).expect("result");
    let standalone = survivor.to_campaign().expect("valid").run();
    assert_eq!(served, render_result_text(&standalone.reports));
    let victim_status = client.status("bravo", &victim_id).expect("status");
    assert_eq!(
        victim_status.completed, 0,
        "cancelled campaign must never have executed"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fair_share_follows_exact_drr_order_under_contention() {
    let (server, addr, dir) = start("fair", 1, true);
    let mut client = Client::connect(&addr).expect("connect");
    let per_tenant = 12u64;
    let mut ids = Vec::new();
    for (tenant, priority) in [("low", 1u32), ("mid", 2), ("high", 4)] {
        for n in 0..per_tenant {
            let spec = CampaignSpec::tiny(9_000 + u64::from(priority) * 100 + n);
            let id = spec.campaign_id().expect("id");
            client
                .submit(tenant, priority, &spec.to_text())
                .expect("submit");
            ids.push((tenant, id));
        }
    }
    server.resume();
    for (tenant, id) in &ids {
        wait_done(&mut client, tenant, id);
    }

    // The whole backlog was staged before the single worker started,
    // so completions are exactly the DRR pop order: each cycle is
    // 1×low, 2×mid, 4×high until `high` runs dry after three cycles.
    let log = server.completion_log();
    assert_eq!(log.len(), ids.len());
    let count = |t: &str, window: usize| {
        log.iter()
            .take(window)
            .filter(|(tenant, _)| tenant == t)
            .count()
    };
    assert_eq!(
        (count("low", 21), count("mid", 21), count("high", 21)),
        (3, 6, 12),
        "first three DRR cycles must split 1:2:4 (log: {log:?})"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn warm_restart_reserves_done_campaigns_from_disk() {
    let (server, addr, dir) = start("restart", 2, false);
    let mut client = Client::connect(&addr).expect("connect");
    let spec = multi_task_spec(71, 2);
    let id = spec.campaign_id().expect("id");
    client.submit("alice", 2, &spec.to_text()).expect("submit");
    wait_done(&mut client, "alice", &id);
    let first = client.result("alice", &id).expect("result");
    server.stop();

    // A new server over the same directory recovers the campaign as
    // done — without re-running anything — and serves the same bytes.
    let telemetry = Telemetry::enabled();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        dir: dir.clone(),
        telemetry: telemetry.clone(),
        start_paused: false,
    })
    .expect("restart");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let status = client.status("alice", &id).expect("status");
    assert_eq!(
        (status.state.as_str(), status.completed),
        ("done", status.total)
    );
    let second = client.result("alice", &id).expect("result");
    assert_eq!(first, second, "recovered result must be byte-identical");
    assert_eq!(
        telemetry.counter("runner.tasks_completed").get(),
        0,
        "recovery must not re-execute completed tasks"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn same_spec_under_different_tenants_runs_independently() {
    let (server, addr, dir) = start("tenants", 2, false);
    let mut client = Client::connect(&addr).expect("connect");
    let spec = CampaignSpec::tiny(81);
    let id = spec.campaign_id().expect("id");
    client.submit("alice", 1, &spec.to_text()).expect("submit");
    client.submit("bravo", 1, &spec.to_text()).expect("submit");
    wait_done(&mut client, "alice", &id);
    wait_done(&mut client, "bravo", &id);
    let a = client.result("alice", &id).expect("result");
    let b = client.result("bravo", &id).expect("result");
    assert_eq!(a, b, "same campaign, same bytes, per-tenant storage");

    // Each tenant's task record is its own, keyed by tenant scope. A
    // handle opened in this process shares the server's journal, and a
    // campaign it already holds is opened without appending anything.
    let journal = Journal::open(&dir).expect("journal");
    let fingerprint = spec.to_campaign().expect("valid").fingerprint();
    let alice = journal.campaign("alice", fingerprint, 1).expect("alice");
    let bravo = journal.campaign("bravo", fingerprint, 1).expect("bravo");
    let carol = journal.campaign("carol", fingerprint, 1).expect("carol");
    assert!(alice.load(0).is_some());
    assert_eq!(alice.load(0), bravo.load(0));
    assert_eq!(carol.load(0), None, "no record under a third tenant");

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_data_dir_holds_two_files_whatever_the_campaign_count() {
    let (server, addr, dir) = start("two-files", 1, true);
    let mut clients = [
        Client::connect(&addr).expect("connect"),
        Client::connect(&addr).expect("connect"),
    ];
    for n in 0..200u64 {
        let (tenant, client) = if n % 2 == 0 {
            ("alice", &mut clients[0])
        } else {
            ("bravo", &mut clients[1])
        };
        client
            .submit(tenant, 1, &CampaignSpec::tiny(20_000 + n).to_text())
            .expect("submit");
    }
    server.resume();
    let deadline = Instant::now() + Duration::from_secs(120);
    while !server.all_final() {
        assert!(Instant::now() < deadline, "backlog did not drain");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server
        .statuses()
        .iter()
        .all(|s| s.state == rlnoc_serve::CampaignState::Done));

    let mut entries: Vec<String> = std::fs::read_dir(&dir)
        .expect("list data dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    assert_eq!(entries, [JOURNAL_FILE, ADDR_FILE]);

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_task_that_cannot_be_persisted_fails_its_campaign_and_nothing_else() {
    // One worker: if a failing task took its worker down, nothing would
    // ever run again.
    let (server, addr, dir) = start("task-failure", 1, true);
    let mut client = Client::connect(&addr).expect("connect");

    // An RL task saves its policy under `<dir>/alice/<id>/`; a file where
    // that directory must go makes the task's persistence fail.
    std::fs::write(dir.join("alice"), b"in the way").expect("plant a file");
    let mut campaign = CampaignSpec::tiny(90).to_campaign().expect("valid");
    campaign.schemes = vec![ErrorControlScheme::ProposedRl];
    campaign.pretrain_cycles = 300;
    let doomed = CampaignSpec::from_campaign(&campaign).expect("serializable");
    let doomed_id = doomed.campaign_id().expect("id");
    let healthy = CampaignSpec::tiny(91);
    let healthy_id = healthy.campaign_id().expect("id");
    client
        .submit("alice", 1, &doomed.to_text())
        .expect("submit");
    client
        .submit("alice", 1, &healthy.to_text())
        .expect("submit");
    server.resume();

    wait_done(&mut client, "alice", &healthy_id);
    let status = client.status("alice", &doomed_id).expect("status");
    assert_eq!((status.state.as_str(), status.completed), ("failed", 0));
    let err = client.result("alice", &doomed_id).unwrap_err().to_string();
    assert!(
        err.contains("failed") && err.contains("task 0"),
        "the error names the cause: {err}"
    );
    let served = client.result("alice", &healthy_id).expect("result");
    let standalone = healthy.to_campaign().expect("valid").run();
    assert_eq!(served, render_result_text(&standalone.reports));

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_journal_that_cannot_be_written_refuses_submissions_with_an_error_frame() {
    // `/dev/full` opens fine and fails every write with ENOSPC.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let dir = temp_dir("enospc");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::os::unix::fs::symlink("/dev/full", dir.join(JOURNAL_FILE)).expect("symlink");
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        dir: dir.clone(),
        telemetry: Telemetry::enabled(),
        start_paused: false,
    })
    .expect("an empty journal starts");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let err = client
        .submit("alice", 1, &CampaignSpec::tiny(5).to_text())
        .unwrap_err()
        .to_string();
    assert!(err.contains("campaign storage"), "{err}");
    let err = client
        .status("alice", &CampaignSpec::tiny(5).campaign_id().expect("id"))
        .unwrap_err();
    assert!(err.to_string().contains("unknown campaign"), "{err}");
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_cancel_survives_a_restart() {
    let (server, addr, dir) = start("cancel-restart", 1, true);
    let mut client = Client::connect(&addr).expect("connect");
    let kept = multi_task_spec(63, 1);
    let victim = multi_task_spec(64, 2);
    let kept_id = kept.campaign_id().expect("id");
    let victim_id = victim.campaign_id().expect("id");
    client.submit("alice", 1, &kept.to_text()).expect("submit");
    client
        .submit("alice", 1, &victim.to_text())
        .expect("submit");
    assert_eq!(
        client.cancel("alice", &victim_id).expect("cancel"),
        "cancelled"
    );
    drop(client);
    server.stop();

    // Same directory, paused again: recovery must bring the victim back
    // cancelled, not queued.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        dir: dir.clone(),
        telemetry: Telemetry::enabled(),
        start_paused: true,
    })
    .expect("restart");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    let status = client.status("alice", &victim_id).expect("status");
    assert_eq!((status.state.as_str(), status.completed), ("cancelled", 0));
    server.resume();
    wait_done(&mut client, "alice", &kept_id);
    let status = client.status("alice", &victim_id).expect("status");
    assert_eq!((status.state.as_str(), status.completed), ("cancelled", 0));
    let served = client.result("alice", &kept_id).expect("result");
    let standalone = kept.to_campaign().expect("valid").run();
    assert_eq!(served, render_result_text(&standalone.reports));

    // No task of the cancelled campaign ever ran.
    let journal = Journal::open(&dir).expect("journal");
    let fingerprint = victim.fingerprint().expect("valid");
    let view = journal.campaign("alice", fingerprint, 4).expect("view");
    assert!((0..4).all(|index| view.load(index).is_none()));

    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}
