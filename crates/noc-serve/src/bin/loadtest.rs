//! Service load test: floods an in-process server with thousands of
//! tiny queued campaigns across prioritised tenants, waits for the
//! backlog to drain, and checks fair-share scheduling and served ==
//! standalone byte identity. It prints how long the staged backlog
//! took to drain; that is queueing behind thousands of earlier
//! campaigns, not submit-to-result latency (the benchmark's
//! `serve_mixed` workload measures that).
//!
//! ```text
//! loadtest [--campaigns N] [--jobs N] [--verify N] [--dir PATH]
//! ```
//!
//! Defaults: 1000 campaigns over three tenants (`alpha` priority 1,
//! `bravo` priority 2, `charlie` priority 4), worker count from
//! available parallelism, 12 campaigns spot-checked byte-for-byte
//! against standalone [`Campaign::run`] results. Submissions go
//! through real TCP connections — the wire path is part of what is
//! exercised.
//!
//! The tool exits non-zero if any campaign fails to finish, any
//! sampled result deviates by a byte, fair-share scheduling is
//! violated (a backlogged high-priority tenant finishing *less* work
//! than a lower-priority one over the contended window), or the data
//! directory holds anything but the journal and the address file.

use rlnoc_core::spec::CampaignSpec;
use rlnoc_runner::JOURNAL_FILE;
use rlnoc_serve::{render_result_text, CampaignState, Client, Server, ServerConfig, ADDR_FILE};
use rlnoc_telemetry::Telemetry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const TENANTS: [(&str, u32); 3] = [("alpha", 1), ("bravo", 2), ("charlie", 4)];

struct Options {
    campaigns: usize,
    jobs: usize,
    verify: usize,
    dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!("usage: loadtest [--campaigns N] [--jobs N] [--verify N] [--dir PATH]");
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opts = Options {
        campaigns: 1000,
        jobs: std::thread::available_parallelism().map_or(4, |n| n.get()),
        verify: 12,
        dir: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--campaigns" => opts.campaigns = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--jobs" => opts.jobs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--verify" => opts.verify = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--dir" => opts.dir = Some(PathBuf::from(value(&mut i))),
            _ => usage(),
        }
        i += 1;
    }
    if opts.campaigns == 0 || opts.jobs == 0 {
        usage();
    }
    opts
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn main() -> ExitCode {
    let opts = parse_options();
    let dir = opts.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("rlnoc-loadtest-{}", std::process::id()))
    });

    println!(
        "loadtest: {} campaigns, {} workers, data dir {}",
        opts.campaigns,
        opts.jobs,
        dir.display()
    );
    let server = match Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: opts.jobs,
        dir: dir.clone(),
        telemetry: Telemetry::enabled(),
        // Stage the whole flood before running a single task: the
        // point of the exercise is a deep multi-tenant queue draining
        // under fair-share scheduling, not a server that keeps pace
        // with a slow submitter.
        start_paused: true,
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadtest: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr().to_string();

    // Submit every campaign up front so the queue is deep and all three
    // tenants stay backlogged through the contended window. One
    // connection per tenant, pipmode: strict request/reply.
    let submit_start = Instant::now();
    let mut specs: Vec<(usize, &str, CampaignSpec)> = Vec::with_capacity(opts.campaigns);
    for n in 0..opts.campaigns {
        let (tenant, _) = TENANTS[n % TENANTS.len()];
        // Distinct seeds give distinct fingerprints, so every
        // submission is a distinct campaign (no dedup).
        specs.push((n, tenant, CampaignSpec::tiny(1_000 + n as u64)));
    }
    // Round-robin the submissions across one persistent connection per
    // tenant so every tenant's backlog grows together and the DRR
    // contention window is meaningful from the start.
    let mut total_tasks = 0usize;
    let mut clients: Vec<(&str, u32, Client)> = Vec::new();
    for (tenant, priority) in TENANTS {
        match Client::connect(&addr) {
            Ok(c) => clients.push((tenant, priority, c)),
            Err(e) => {
                eprintln!("loadtest: connect failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (n, tenant, spec) in &specs {
        let (t, priority, client) = &mut clients[n % TENANTS.len()];
        debug_assert_eq!(t, tenant);
        match client.submit(tenant, *priority, &spec.to_text()) {
            Ok(ack) => total_tasks += ack.tasks,
            Err(e) => {
                eprintln!("loadtest: submit failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "loadtest: staged {} campaigns ({} tasks) in {:.2}s",
        opts.campaigns,
        total_tasks,
        submit_start.elapsed().as_secs_f64()
    );

    // Open the gate and drain the backlog.
    server.resume();
    let drain_start = Instant::now();
    while !server.all_final() {
        std::thread::sleep(Duration::from_millis(25));
    }
    let wall = drain_start.elapsed();

    // Percentiles of the server's own submit→finish clocks: with the
    // whole flood staged first, each is that campaign's wait behind the
    // backlog ahead of it.
    let statuses = server.statuses();
    if let Some(s) = statuses.iter().find(|s| s.state != CampaignState::Done) {
        eprintln!("loadtest: campaign {} ended {}", s.id, s.state.as_str());
        return ExitCode::FAILURE;
    }
    let mut latencies_ms: Vec<f64> = statuses
        .iter()
        .filter_map(|s| s.latency)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    if latencies_ms.len() != opts.campaigns {
        eprintln!(
            "loadtest: {} campaigns registered, expected {}",
            latencies_ms.len(),
            opts.campaigns
        );
        return ExitCode::FAILURE;
    }
    let p50 = percentile(&latencies_ms, 50.0);
    let p95 = percentile(&latencies_ms, 95.0);
    let p99 = percentile(&latencies_ms, 99.0);
    let tasks_per_sec = total_tasks as f64 / wall.as_secs_f64();
    println!(
        "loadtest: drained in {:.2}s — {:.1} tasks/s, staged-backlog drain time p50 {:.1} ms, \
         p95 {:.1} ms, p99 {:.1} ms",
        wall.as_secs_f64(),
        tasks_per_sec,
        p50,
        p95,
        p99
    );

    // Fair share: over a window where every tenant still has queued
    // campaigns (skip the submission ramp, stop at half the total so
    // nobody has run dry), completions must not invert priority order.
    let log = server.completion_log();
    let ramp = opts.campaigns / 10;
    let contended = opts.campaigns / 2;
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for (tenant, _) in log.iter().skip(ramp).take(contended.saturating_sub(ramp)) {
        let slot = match tenant.as_str() {
            "alpha" => "alpha",
            "bravo" => "bravo",
            _ => "charlie",
        };
        *counts.entry(slot).or_insert(0) += 1;
    }
    let share = |t: &str| counts.get(t).copied().unwrap_or(0);
    println!(
        "loadtest: contended-window completions alpha(p1)={} bravo(p2)={} charlie(p4)={}",
        share("alpha"),
        share("bravo"),
        share("charlie")
    );
    if contended > 4 && !(share("alpha") <= share("bravo") && share("bravo") <= share("charlie")) {
        eprintln!("loadtest: fair-share violation: completions invert priority order");
        return ExitCode::FAILURE;
    }

    // Byte-identity spot check against standalone runs.
    let step = (opts.campaigns / opts.verify.max(1)).max(1);
    let mut verified = 0usize;
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadtest: connect failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (_, tenant, spec) in specs.iter().step_by(step).take(opts.verify) {
        let id = spec.campaign_id().expect("valid spec");
        let served = match client.result(tenant, &id) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("loadtest: result {id} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let standalone = spec.to_campaign().expect("valid spec").run();
        if served != render_result_text(&standalone.reports) {
            eprintln!("loadtest: result {id} deviates from standalone run");
            return ExitCode::FAILURE;
        }
        verified += 1;
    }
    println!("loadtest: {verified} campaign results byte-identical to standalone runs");

    // Persistence is O(1) files whatever the campaign count: the
    // journal and the address file, nothing per campaign.
    let mut entries: Vec<String> = match std::fs::read_dir(&dir) {
        Ok(list) => list
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect(),
        Err(e) => {
            eprintln!("loadtest: cannot list {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    entries.sort();
    let expected = [JOURNAL_FILE, ADDR_FILE];
    if entries != expected {
        eprintln!("loadtest: data dir holds {entries:?}, expected exactly {expected:?}");
        return ExitCode::FAILURE;
    }
    println!("loadtest: data dir holds {expected:?} only");

    server.stop();
    if opts.dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    ExitCode::SUCCESS
}
