//! `serve_mixed`: the campaign service, where simulation is a minority
//! of the cost.
//!
//! Phase A is latency at low load: the user flow `submit → status until
//! done → result` of a two-task 4×4 campaign, sent on an **open**
//! schedule of 16 ops/s over two connections, timed from the moment each
//! op was *due* (R3: a queue makes the tail a property of the program,
//! so this is the one workload whose p90 means something).
//!
//! The flow waits by polling `status`, not by `watch`. `watch` was
//! tried first and its latency is bimodal — 3–5 ms or 45–50 ms per call,
//! by whether the client's kernel delays the ACK the server's next small
//! write is waiting for — with the fast share anywhere from 5 % to 60 %
//! of a run, on long-lived and on fresh connections, at 4 to 32 ops/s.
//! A median over that flips between the modes from run to run. A traced
//! run still makes a batch of `watch` flows and reports their wait and
//! how many stalled, as per-layer metrics.
//!
//! Phase B is capacity: stage 6 000 tiny campaigns on a paused server
//! in a fresh directory, open the gate, time the drain. A watch-driven
//! closed loop was tried and gave 295–542 campaigns/s across four runs,
//! so capacity is the median of identical stage-and-drain rounds.

use crate::catalog::Measured;
use crate::check::Checker;
use crate::ladder;
use crate::openloop::{due_offset, lane_indices, ops_due_within, wait_until, Timing};
use crate::scratch::Scratch;
use crate::sim::{peak_rss_mib, SimTotals, SETUP_REPS};
use crate::spans::SpanLog;
use crate::stats::{describe, highest_supported_tail, iqr_pct, median, percentile};
use crate::Harness;
use noc_topo::Mesh;
use rlnoc_core::spec::CampaignSpec;
use rlnoc_core::ErrorControlScheme;
use rlnoc_runner::{parse_report, render_report};
use rlnoc_serve::{render_result_text, CampaignState, Client, Server, ServerConfig};
use rlnoc_telemetry::Telemetry;
use std::time::{Duration, Instant};

/// Load connections (= load threads); at most `nproc`, which is 2 on
/// the sandbox the sizes were measured on.
const CONNECTIONS: usize = 2;
const TENANTS: [&str; CONNECTIONS] = ["alpha", "bravo"];

/// Phase A offered load.
const RATE_PER_S: u32 = 16;
/// Phase A takes this share of `--seconds`; phase B the rest.
const PHASE_A_SHARE: f64 = 2.0 / 3.0;
/// Latency limit on the phase-A p90.
const LIMIT: Duration = Duration::from_millis(25);
/// A phase-A op slower than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(1);
/// Pause between two `status` polls of a flow.
const POLL: Duration = Duration::from_micros(500);
/// `watch` flows a traced run makes after phase A, one after another.
const WATCH_PROBES: usize = 32;
/// A `watch` call that takes longer than this has stalled on the
/// delayed ACK; the fast mode is under 10 ms, the slow one over 40.
const WATCH_STALL: Duration = Duration::from_millis(20);

/// Phase B: campaigns per round, and how many rounds at most.
const ROUND_CAMPAIGNS: usize = 6_000;
const MAX_ROUNDS: usize = 9;

/// Served results compared byte-for-byte with standalone runs, per
/// phase.
const SAMPLES_PER_PHASE: usize = 12;

/// The phase-A campaign: CRC and ARQ+ECC on a 4×4 mesh, 500 + 3 000
/// cycles. Distinct seeds make distinct campaigns (no dedup).
fn flow_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        schemes: vec![
            ErrorControlScheme::StaticCrc,
            ErrorControlScheme::StaticArqEcc,
        ],
        workloads: vec!["blackscholes".to_string()],
        topo: Mesh::new(4, 4).into(),
        seed,
        replicates: 1,
        pretrain_cycles: 0,
        warmup_cycles: 500,
        measure_cycles: Some(3_000),
        drain_limit: 60_000,
    }
}

/// The inputs of a run, generated from the seed.
struct Inputs {
    /// One spec per flow: index 0 is the warm-up op, then phase A's
    /// ops, then the traced run's `watch` probes.
    flows: Vec<(CampaignSpec, String)>,
    /// Phase B, one round's submissions; every round replays them into
    /// a fresh directory.
    tiny: Vec<(CampaignSpec, String)>,
}

fn generate(seed: u64, flow_ops: usize) -> Inputs {
    let with_text = |spec: CampaignSpec| {
        let text = spec.to_text();
        (spec, text)
    };
    Inputs {
        flows: (0..=(flow_ops + WATCH_PROBES) as u64)
            .map(|i| with_text(flow_spec(rand::seed_stream(seed, i))))
            .collect(),
        tiny: (0..ROUND_CAMPAIGNS as u64)
            .map(|i| with_text(CampaignSpec::tiny(rand::seed_stream(seed ^ 0xB, i))))
            .collect(),
    }
}

/// A server on a fresh scratch directory plus one client per
/// connection. Stopping the server and removing its directory happen
/// on drop, whatever ended the run.
struct Service {
    server: Option<Server>,
    clients: Vec<Client>,
    dir: crate::scratch::SubDir,
}

impl Service {
    fn start(scratch: &Scratch, paused: bool, telemetry: &Telemetry) -> Self {
        let dir = scratch.fresh("server");
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            dir: dir.path().to_path_buf(),
            telemetry: telemetry.clone(),
            start_paused: paused,
        })
        .expect("server starts on a loopback port and a scratch directory");
        let addr = server.addr().to_string();
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(&addr).expect("loopback connect"))
            .collect();
        Self {
            server: Some(server),
            clients,
            dir,
        }
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// Checks a served result text: the expected number of task blocks,
/// each a report that parses, renders back to the same bytes and
/// delivered no more than it injected.
fn result_violation(text: &str, tasks: usize) -> Option<String> {
    let blocks: Vec<&str> = text.split("end\n").filter(|b| !b.is_empty()).collect();
    if blocks.len() != tasks {
        return Some(format!("{} task blocks, expected {tasks}", blocks.len()));
    }
    for (i, block) in blocks.iter().enumerate() {
        let Some(body) = block.strip_prefix(&format!("task {i}\n")) else {
            return Some(format!("block {i} does not open with `task {i}`"));
        };
        match parse_report(&format!("{body}end\n")) {
            Ok(r) if r.packets_delivered > r.packets_injected => {
                return Some(format!("task {i}: delivered more than injected"));
            }
            Ok(r) if render_report(&r) != body => {
                return Some(format!("task {i}: does not survive parse/render"));
            }
            Ok(_) => {}
            Err(e) => return Some(format!("task {i}: {e}")),
        }
    }
    None
}

/// How a flow waits for its campaign to finish.
#[derive(Clone, Copy, PartialEq)]
enum Wait {
    /// Poll `status` every [`POLL`] until `done`.
    Status,
    /// Block in `watch` until the server hangs up the stream.
    Watch,
}

/// One user flow on one connection. Returns the served result text.
#[allow(clippy::too_many_arguments)]
fn flow(
    client: &mut Client,
    tenant: &str,
    spec: &CampaignSpec,
    spec_text: &str,
    wait: Wait,
    spans: &mut SpanLog,
    op: u32,
    parent: Option<u32>,
) -> Result<String, String> {
    let ack = spans
        .span("rlnoc-serve.Client::submit", parent, Some(op), || {
            client.submit(tenant, 1, spec_text)
        })
        .map_err(|e| format!("submit: {e}"))?;
    let tasks = spec.schemes.len() * spec.workloads.len() * spec.replicates;
    if ack.tasks != tasks {
        return Err(format!("ack names {} tasks, expected {tasks}", ack.tasks));
    }
    let state = match wait {
        Wait::Watch => spans
            .span("rlnoc-serve.Client::watch", parent, Some(op), || {
                client.watch(tenant, &ack.campaign, &mut |_| {})
            })
            .map_err(|e| format!("watch: {e}"))?,
        Wait::Status => spans.span("rlnoc-serve.wait_done", parent, Some(op), || {
            let deadline = Instant::now() + TIMEOUT;
            loop {
                let reply = client
                    .status(tenant, &ack.campaign)
                    .map_err(|e| format!("status: {e}"))?;
                if reply.state != "queued" && reply.state != "running" {
                    return Ok(reply.state);
                }
                if Instant::now() >= deadline {
                    return Err(format!("still {} after {TIMEOUT:?}", reply.state));
                }
                std::thread::sleep(POLL);
            }
        })?,
    };
    if state != "done" {
        return Err(format!("campaign ended in state `{state}`"));
    }
    spans
        .span("rlnoc-serve.Client::result", parent, Some(op), || {
            client.result(tenant, &ack.campaign)
        })
        .map_err(|e| format!("result: {e}"))
}

/// In a traced run every other op of a connection records client-side
/// spans; the rest are the untraced reference they are compared with.
fn records_spans(op_index: usize) -> bool {
    (op_index / CONNECTIONS).is_multiple_of(2)
}

/// One phase-A op: its index, its timestamps, and the served result
/// text or what went wrong.
type FlowOp = (usize, Timing, Result<String, String>);

/// A sampled result: the served text must equal the standalone run's,
/// byte for byte, and its digest is recorded under `key`. The standalone
/// reports feed the simulated statistics.
fn check_sample(
    checker: &mut Checker,
    key: &str,
    spec: &CampaignSpec,
    served: &str,
    totals: &mut SimTotals,
) {
    let standalone = spec.to_campaign().expect("generated spec is valid").run();
    let same = served == render_result_text(&standalone.reports);
    let repeats = checker.check_text(key, served);
    let verdict = match (same, repeats) {
        (false, _) => Some("served result differs from standalone run".to_string()),
        (true, false) => Some("served result differs between repetitions".to_string()),
        (true, true) => None,
    };
    checker.op(key, verdict);
    standalone.reports.iter().for_each(|r| totals.add(r));
}

/// Phase A: open loop. Each connection sends the ops of its lane at
/// their due times and never skips one. Returns the ops in index order.
fn phase_a(
    service: &mut Service,
    flows: &[(CampaignSpec, String)],
    flow_ops: usize,
    spans: &mut SpanLog,
    parent: Option<u32>,
) -> Vec<FlowOp> {
    let phase = spans.open("phase_a", parent, None);
    let start = Instant::now();
    let (origin, traced) = (spans.origin(), spans.enabled());
    let lanes: Vec<(SpanLog, Vec<FlowOp>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = service
            .clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let parent = phase.id();
                scope.spawn(move || {
                    let mut log = SpanLog::new(traced, origin, (lane as u32 + 1) << 24);
                    let mut quiet = SpanLog::new(false, origin, 0);
                    let mut ops = Vec::new();
                    for i in lane_indices(lane, CONNECTIONS, flow_ops) {
                        let (spec, text) = &flows[i + 1];
                        let due = due_offset(i, RATE_PER_S);
                        wait_until(start, due);
                        let sent = start.elapsed();
                        let op = 1_000 + i as u32;
                        let log = if records_spans(i) {
                            &mut log
                        } else {
                            &mut quiet
                        };
                        let span = log.open("op", parent, Some(op));
                        let served = flow(
                            client,
                            TENANTS[lane],
                            spec,
                            text,
                            Wait::Status,
                            log,
                            op,
                            span.id(),
                        );
                        let done = start.elapsed();
                        log.close(span);
                        let served = served.and_then(|t| match result_violation(&t, 2) {
                            None => Ok(t),
                            Some(why) => Err(why),
                        });
                        ops.push((i, Timing { due, sent, done }, served));
                    }
                    (log, ops)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    spans.close(phase);
    let mut ops = Vec::with_capacity(flow_ops);
    for (log, lane_ops) in lanes {
        spans.absorb(log);
        ops.extend(lane_ops);
    }
    ops.sort_by_key(|(i, _, _)| *i);
    ops
}

/// What one phase-B round measured.
struct Round {
    stage_s: f64,
    drain_s: f64,
    /// Submissions refused or campaigns that did not reach `done`.
    lost: usize,
    /// Files and bytes under the server directory when the round ended.
    written: (u64, u64),
    /// Sampled served results (asked for on the first round only).
    sampled: Vec<Result<String, String>>,
}

/// One stage-and-drain round on a fresh server and directory.
fn round(
    scratch: &Scratch,
    telemetry: &Telemetry,
    tiny: &[(CampaignSpec, String)],
    sample: &[usize],
    spans: &mut SpanLog,
    parent: Option<u32>,
    op: u32,
) -> Round {
    let round_span = spans.open("op.round", parent, Some(op));
    let mut service = Service::start(scratch, true, telemetry);

    let stage = spans.open("rlnoc-serve.stage", round_span.id(), Some(op));
    let t0 = Instant::now();
    let refused: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = service
            .clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    lane_indices(lane, CONNECTIONS, tiny.len())
                        .filter(|&i| client.submit(TENANTS[lane], 1, &tiny[i].1).is_err())
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .sum()
    });
    let stage_s = t0.elapsed().as_secs_f64();
    spans.close(stage);

    let drain = spans.open("rlnoc-serve.drain", round_span.id(), Some(op));
    let t0 = Instant::now();
    service.server().resume();
    while !service.server().all_final() {
        std::thread::sleep(Duration::from_millis(2));
    }
    let drain_s = t0.elapsed().as_secs_f64();
    spans.close(drain);

    let done = service
        .server()
        .statuses()
        .iter()
        .filter(|s| s.state == CampaignState::Done && s.completed == s.total)
        .count();
    let sampled = sample
        .iter()
        .map(|&i| {
            let lane = i % CONNECTIONS;
            let id = tiny[i].0.campaign_id().expect("generated spec is valid");
            service.clients[lane]
                .result(TENANTS[lane], &id)
                .map_err(|e| e.to_string())
        })
        .collect();
    let written = service.dir.files_and_bytes();
    drop(service);
    spans.close(round_span);
    Round {
        stage_s,
        drain_s,
        lost: refused.max(tiny.len().saturating_sub(done)),
        written,
        sampled,
    }
}

/// Runs `serve_mixed` and returns what it measured.
pub fn run(h: &mut Harness) -> Measured {
    let Harness {
        args,
        scratch,
        spans,
        checker,
    } = h;
    let seed = args.seed;
    let mut m = Measured::default();
    let root = spans.open("run", None, None);
    let flow_ops = ops_due_within(args.seconds * PHASE_A_SHARE, RATE_PER_S).max(SAMPLES_PER_PHASE);
    let telemetry = if args.trace {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    // R4: set-up, 21 times over — generate both phases' inputs, make a
    // scratch directory, start a server, connect. The last one is kept.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let inputs = generate(seed, flow_ops);
        let service = Service::start(scratch, false, &telemetry);
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((inputs, service));
    }
    let (inputs, mut service) = kept.expect("at least one set-up repetition");
    m.set("setup_s", median(&setup_s));

    if args.trace {
        let ladder = spans.open("harness.ladder", root.id(), None);
        m.extend(ladder::serve_mixed(seed));
        spans.close(ladder);
    }

    // One untimed warm-up flow.
    let (spec, text) = &inputs.flows[0];
    let op = spans.open("op.warmup", root.id(), Some(0));
    let served = flow(
        &mut service.clients[0],
        TENANTS[0],
        spec,
        text,
        Wait::Status,
        spans,
        0,
        op.id(),
    );
    spans.close(op);
    checker.op(
        "warm-up flow",
        served.map_or_else(Some, |t| result_violation(&t, 2)),
    );

    // Phase A. In a traced run every other op records client-side
    // spans; the rest are the untraced reference.
    let flows_done = phase_a(&mut service, &inputs.flows, flow_ops, spans, root.id());
    let mut latency_ms = Vec::with_capacity(flows_done.len());
    let mut lag_ms = Vec::with_capacity(flows_done.len());
    let (mut traced_ms, mut quiet_ms) = (Vec::new(), Vec::new());
    let mut over_limit = 0usize;
    for (i, timing, served) in &flows_done {
        let latency = timing.latency();
        checker.op(
            &format!("flow {i}"),
            match served {
                Err(why) => Some(why.clone()),
                Ok(_) if latency > TIMEOUT => Some(format!("took {latency:?}")),
                Ok(_) => None,
            },
        );
        // A failed or refused op misses any latency limit.
        if served.is_err() || latency > LIMIT {
            over_limit += 1;
        }
        let ms = latency.as_secs_f64() * 1e3;
        latency_ms.push(ms);
        lag_ms.push(timing.lateness().as_secs_f64() * 1e3);
        if records_spans(*i) {
            traced_ms.push(ms);
        } else {
            quiet_ms.push(ms);
        }
    }
    // A traced run also makes a batch of `watch` flows, one after
    // another on one connection, to put numbers on the call phase A
    // does not use.
    if args.trace {
        let batch = spans.open("watch_probes", root.id(), None);
        for (k, (spec, text)) in inputs.flows[flow_ops + 1..].iter().enumerate() {
            let index = 5_000 + k as u32;
            let op = spans.open("op.watch", batch.id(), Some(index));
            let served = flow(
                &mut service.clients[0],
                TENANTS[0],
                spec,
                text,
                Wait::Watch,
                spans,
                index,
                op.id(),
            );
            spans.close(op);
            checker.op(
                &format!("watch flow {k}"),
                served.map_or_else(Some, |t| result_violation(&t, 2)),
            );
        }
        spans.close(batch);
        let waits = spans.durations_ns("rlnoc-serve.Client::watch");
        let stalled = waits
            .iter()
            .filter(|&&ns| ns > WATCH_STALL.as_nanos() as f64)
            .count();
        m.set("rlnoc-serve.watch_wait_ms", median(&waits) / 1e6);
        m.set(
            "rlnoc-serve.watch_stall_share",
            stalled as f64 / waits.len().max(1) as f64,
        );
    }
    let server_latency_ms: Vec<f64> = service
        .server()
        .statuses()
        .iter()
        .filter_map(|s| s.latency)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    drop(service);

    // Sampled phase-A results against standalone runs: the first
    // twelve ops, so the sample does not depend on the run length.
    let mut totals = SimTotals::default();
    for (n, (i, _, served)) in flows_done.iter().take(SAMPLES_PER_PHASE).enumerate() {
        if let Ok(served) = served {
            let key = format!("phase_a.sample{n:02}");
            check_sample(checker, &key, &inputs.flows[i + 1].0, served, &mut totals);
        }
    }

    // Phase B: identical rounds until the rest of the budget is used.
    // The first round supplies the sampled results, the exact count of
    // what a round writes, and the memory high-water mark: one server
    // lifetime holding a full backlog. Later rounds only add what the
    // allocator keeps when servers are re-created in one process, which
    // no user does.
    let rounds_budget = args.seconds * (1.0 - PHASE_A_SHARE);
    let sample: Vec<usize> = (0..ROUND_CAMPAIGNS)
        .step_by(ROUND_CAMPAIGNS / SAMPLES_PER_PHASE)
        .take(SAMPLES_PER_PHASE)
        .collect();
    let phase = spans.open("phase_b", root.id(), None);
    let phase_start = Instant::now();
    let (mut stage_s, mut drain_s) = (Vec::new(), Vec::new());
    loop {
        let n = stage_s.len();
        let wanted: &[usize] = if n == 0 { &sample } else { &[] };
        let r = round(
            scratch,
            &telemetry,
            &inputs.tiny,
            wanted,
            spans,
            phase.id(),
            10_000 + n as u32,
        );
        stage_s.push(r.stage_s);
        drain_s.push(r.drain_s);
        // Every campaign of the round is an op: it must have finished.
        checker.ops(
            &format!("round {n}"),
            ROUND_CAMPAIGNS as u64,
            (r.lost > 0).then(|| (r.lost as u64, "campaigns refused or not done".to_string())),
        );
        if n == 0 {
            m.set("peak_rss_mb", peak_rss_mib());
            m.set("rlnoc-runner.checkpoint_files_per_op", r.written.0 as f64);
            m.set("rlnoc-runner.checkpoint_bytes_per_op", r.written.1 as f64);
            for (k, (&i, served)) in sample.iter().zip(&r.sampled).enumerate() {
                let key = format!("phase_b.sample{k:02}");
                match served {
                    Ok(text) => check_sample(checker, &key, &inputs.tiny[i].0, text, &mut totals),
                    Err(why) => checker.op(&key, Some(why.clone())),
                }
            }
        }
        let spent = phase_start.elapsed().as_secs_f64();
        let fits = spent + spent / stage_s.len() as f64 <= rounds_budget;
        if stage_s.len() >= MAX_ROUNDS || (stage_s.len() >= 3 && !fits) {
            break;
        }
    }
    spans.close(phase);

    // What one round simulates, counted on standalone runs of its
    // campaigns.
    let counting = Telemetry::with_epoch_capacity(1);
    let mut round_totals = SimTotals::default();
    for (spec, _) in &inputs.tiny {
        let mut campaign = spec.to_campaign().expect("generated spec is valid");
        campaign.telemetry = counting.clone();
        campaign
            .run()
            .reports
            .iter()
            .for_each(|r| round_totals.add(r));
    }
    let cycles_per_round = counting.counter("sim.cycles").get() as f64;
    spans.close(root);

    println!("phase A latency ms: {}", describe(&latency_ms));
    println!("phase B stage seconds: {}", describe(&stage_s));
    println!("phase B drain seconds: {}", describe(&drain_s));
    let round_p50 = median(&drain_s);
    m.set("op_p50_ms", median(&latency_ms));
    m.set("op_p90_ms", percentile(&latency_ms, 90.0));
    m.set("sim_cycles_per_s", cycles_per_round / round_p50);
    // Simulated statistics: the sampled campaigns plus one round's,
    // all from standalone runs.
    round_totals.per_op_counts(&mut m);
    totals.absorb(&round_totals);
    totals.end_to_end(&mut m);
    if let Some(tail) = highest_supported_tail(latency_ms.len()) {
        println!(
            "phase A: {} samples; highest tail with at least ten beyond it: p{tail} = {} ms",
            latency_ms.len(),
            percentile(&latency_ms, tail)
        );
    }

    m.set("harness.ops_timed", flows_done.len() as f64);
    m.set("harness.op_iqr_pct", iqr_pct(&latency_ms));
    m.set("harness.op_p90_ms", percentile(&latency_ms, 90.0));
    m.set("harness.gen_lag_p90_ms", percentile(&lag_ms, 90.0));
    m.set(
        "rlnoc-serve.over_limit_share",
        over_limit as f64 / flows_done.len().max(1) as f64,
    );
    m.set(
        "rlnoc-serve.server_latency_p50_ms",
        median(&server_latency_ms),
    );
    let campaigns = ROUND_CAMPAIGNS as f64;
    m.set("rlnoc-serve.admit_us", median(&stage_s) / campaigns * 1e6);
    m.set("rlnoc-serve.drain_task_us", round_p50 / campaigns * 1e6);
    m.set("rlnoc-serve.capacity_cps", campaigns / round_p50);
    m.set("noc-sim.cycles_per_op", cycles_per_round);
    if args.trace {
        m.set(
            "rlnoc-serve.submit_rtt_us",
            spans.median_ns("rlnoc-serve.Client::submit") / 1e3,
        );
        m.set(
            "rlnoc-serve.done_wait_ms",
            spans.median_ns("rlnoc-serve.wait_done") / 1e6,
        );
        m.set(
            "rlnoc-serve.result_rtt_us",
            spans.median_ns("rlnoc-serve.Client::result") / 1e3,
        );
        m.set(
            "harness.trace_overhead_pct",
            (median(&traced_ms) / median(&quiet_ms) - 1.0) * 100.0,
        );
    }
    m
}
