//! Crash-safety acceptance: a real `rlnoc-serve` process is SIGKILLed
//! mid-campaign and restarted over the same data directory. Every
//! campaign must finish, completed work must be restored from disk
//! (not re-run), and every final result must be byte-identical to a
//! standalone `Campaign::run`.

use rlnoc_core::experiment::ErrorControlScheme;
use rlnoc_core::spec::CampaignSpec;
use rlnoc_serve::{render_result_text, wait_for_addr, Client};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the child on drop so failed assertions never leak processes.
struct ServerProc(Child);

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlnoc-kill-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// ~8 tasks of a few tens of milliseconds each: slow enough that a
/// burst of campaigns is reliably still in flight when the kill lands.
fn slow_spec(seed: u64) -> CampaignSpec {
    let mut campaign = CampaignSpec::tiny(seed).to_campaign().expect("valid");
    campaign.schemes = vec![
        ErrorControlScheme::StaticCrc,
        ErrorControlScheme::StaticArqEcc,
    ];
    campaign.replicates = 4;
    campaign.measure_cycles = Some(20_000);
    campaign.drain_limit = 200_000;
    CampaignSpec::from_campaign(&campaign).expect("serializable")
}

fn spawn_server(dir: &Path) -> ServerProc {
    // Remove any stale address file so `wait_for_addr` can only see
    // the new process's binding.
    let _ = std::fs::remove_file(dir.join(rlnoc_serve::ADDR_FILE));
    let child = Command::new(env!("CARGO_BIN_EXE_rlnoc-serve"))
        .args(["--addr", "127.0.0.1:0", "--jobs", "2"])
        .arg("--dir")
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rlnoc-serve");
    ServerProc(child)
}

#[test]
fn sigkill_mid_flight_then_restart_yields_byte_identical_results() {
    let dir = temp_dir("midflight");
    let mut server = spawn_server(&dir);
    let addr = wait_for_addr(&dir, Duration::from_secs(20)).expect("server address");
    let mut client = Client::connect(&addr).expect("connect");

    let specs: Vec<CampaignSpec> = (0..5).map(|n| slow_spec(400 + n)).collect();
    let tenant_of = |n: usize| {
        if n.is_multiple_of(2) {
            "alice"
        } else {
            "bravo"
        }
    };
    let mut ids = Vec::new();
    let mut total_tasks = 0usize;
    for (n, spec) in specs.iter().enumerate() {
        let ack = client
            .submit(tenant_of(n), 1 + (n as u32 % 3), &spec.to_text())
            .expect("submit");
        total_tasks += ack.tasks;
        ids.push(ack.campaign);
    }

    // Let the service make some — but not all — progress, then murder
    // it without ceremony.
    let progress = |client: &mut Client| -> usize {
        ids.iter()
            .enumerate()
            .map(|(n, id)| client.status(tenant_of(n), id).expect("status").completed)
            .sum()
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let killed_at = loop {
        let done = progress(&mut client);
        if done >= 2 {
            break done;
        }
        assert!(Instant::now() < deadline, "service made no progress");
        std::thread::sleep(Duration::from_millis(5));
    };
    server.0.kill().expect("SIGKILL");
    let _ = server.0.wait();
    drop(server);
    assert!(
        killed_at < total_tasks,
        "kill landed after completion; make slow_spec slower"
    );

    // Restart over the same directory: recovery must restore at least
    // the progress we observed (checkpoints persist before the
    // completion counter advances), then finish everything.
    let server = spawn_server(&dir);
    let addr = wait_for_addr(&dir, Duration::from_secs(20)).expect("restarted address");
    let mut client = Client::connect(&addr).expect("reconnect");
    assert!(
        progress(&mut client) >= killed_at,
        "restart lost checkpointed work"
    );

    let deadline = Instant::now() + Duration::from_secs(120);
    for (n, id) in ids.iter().enumerate() {
        loop {
            let status = client.status(tenant_of(n), id).expect("status");
            if status.state == "done" {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "campaign {id} stuck at {}/{} after restart",
                status.completed,
                status.total
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // The acceptance bar: byte-identical to standalone runs despite
    // the kill, the restart, and two different worker interleavings.
    for (n, (spec, id)) in specs.iter().zip(&ids).enumerate() {
        let served = client.result(tenant_of(n), id).expect("result");
        let standalone = spec.to_campaign().expect("valid").run();
        assert_eq!(
            served,
            render_result_text(&standalone.reports),
            "campaign {id} deviates after kill/restart"
        );
    }

    drop(server);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn restart_with_no_prior_state_is_a_clean_boot() {
    // Recovery over an empty/missing directory must not invent state.
    let dir = temp_dir("clean");
    let server = spawn_server(&dir);
    let addr = wait_for_addr(&dir, Duration::from_secs(20)).expect("server address");
    let mut client = Client::connect(&addr).expect("connect");
    let err = client.status("alice", "c-0000000000000000").unwrap_err();
    assert!(err.to_string().contains("unknown campaign"), "{err}");
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
}
