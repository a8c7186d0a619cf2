//! The three simulator workloads: a closed loop of one identical,
//! deterministic call on one thread.
//!
//! Because every timed op is the same call on the same inputs (R1),
//! the spread of op times is host noise only, every timing metric is a
//! median (or a percentile of the same samples), and throughput is
//! derived from the median op time, never from a total (R2).

use crate::catalog::Measured;
use crate::ladder;
use crate::scratch::{Scratch, SubDir};
use crate::spans::SpanLog;
use crate::stats::{describe, iqr_pct, median, percentile, shares};
use crate::{Harness, Workload};
use noc_fault::hardfault::HardFaultSchedule;
use noc_sim::config::NocConfig;
use noc_sim::traffic::TrafficPattern;
use noc_topo::Torus;
use rlnoc_core::benchmarks::PhaseSpec;
use rlnoc_core::experiment::ExperimentBuilder;
use rlnoc_core::{Campaign, ErrorControlScheme, Experiment, ExperimentReport, WorkloadProfile};
use rlnoc_runner::RunnerConfig;
use rlnoc_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of the set-up phase; `setup_s` is their median (R4).
pub const SETUP_REPS: usize = 21;

/// Set-ups timed together as one `setup_s` sample on the simulator
/// workloads, where a single one is too short to time steadily.
const SETUP_BATCH: usize = 32;

/// Untraced reference ops a traced run times to state its own overhead.
const REFERENCE_OPS: usize = 3;

/// `fault_churn_torus16`: warm-up, then a 6 000-cycle measurement
/// window over which the 42 deaths are spread.
const CHURN_WARMUP: u64 = 500;
const CHURN_WINDOW: u64 = 6_000;

/// Everything one op needs, built from the seed by one set-up
/// repetition.
enum Job {
    /// `Experiment::run`.
    Single(Box<Experiment>),
    /// One campaign through the runner, checkpoints on.
    Campaign {
        campaign: Campaign,
        schedule: Arc<HardFaultSchedule>,
    },
}

/// The experiment of `hot_static_8x8` or `cool_adaptive_8x8`, before
/// `build()`: paper defaults apart from scheme and workload.
fn single(workload: Workload, seed: u64, telemetry: &Telemetry) -> ExperimentBuilder {
    let (scheme, profile) = match workload {
        Workload::HotStatic => (ErrorControlScheme::StaticArqEcc, WorkloadProfile::canneal()),
        _ => (
            ErrorControlScheme::ProposedRl,
            WorkloadProfile::blackscholes(),
        ),
    };
    Experiment::builder()
        .scheme(scheme)
        .workload(profile)
        .noc(NocConfig::default())
        .seed(seed)
        .telemetry(telemetry.clone())
}

/// One set-up repetition: generate the inputs from the seed and build
/// what the op runs.
fn prepare(workload: Workload, seed: u64, telemetry: &Telemetry) -> Job {
    match workload {
        Workload::HotStatic | Workload::CoolAdaptive => Job::Single(Box::new(
            single(workload, seed, telemetry)
                .build()
                .expect("paper-default experiment is valid"),
        )),
        Workload::FaultChurn => {
            let topo = Torus::new(16, 16);
            let schedule = Arc::new(HardFaultSchedule::random(
                topo,
                40,
                2,
                (CHURN_WARMUP + 100, CHURN_WARMUP + CHURN_WINDOW - 100),
                seed ^ 0xFA17,
            ));
            let campaign = Campaign {
                schemes: vec![
                    ErrorControlScheme::StaticCrc,
                    ErrorControlScheme::StaticArqEcc,
                ],
                workloads: vec![WorkloadProfile {
                    name: "uniform-churn",
                    phases: vec![PhaseSpec {
                        cycles: CHURN_WINDOW,
                        injection_rate: 0.004,
                        pattern: TrafficPattern::UniformRandom,
                    }],
                    duration_cycles: CHURN_WINDOW,
                }],
                noc: NocConfig::builder().topology(topo).build(),
                seed,
                replicates: 4,
                pretrain_cycles: 0,
                warmup_cycles: CHURN_WARMUP,
                measure_cycles: Some(CHURN_WINDOW),
                hard_faults: Some(schedule.clone()),
                telemetry: telemetry.clone(),
                ..Campaign::paper_default()
            };
            Job::Campaign { campaign, schedule }
        }
        Workload::ServeMixed => unreachable!("serve_mixed has its own driver"),
    }
}

/// What one op wrote to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Written {
    files: u64,
    bytes: u64,
}

impl Job {
    /// Routers in the simulated network.
    fn routers(&self) -> usize {
        match self {
            Job::Single(_) => NocConfig::default().mesh.num_nodes(),
            Job::Campaign { campaign, .. } => campaign.noc.mesh.num_nodes(),
        }
    }

    /// Runs one op and returns its wall time in seconds, its task
    /// reports, and what it left on disk (counted, then removed,
    /// outside the timed call).
    fn run_op(
        &self,
        scratch: &Scratch,
        spans: &mut SpanLog,
        op: u32,
        parent: Option<u32>,
    ) -> (f64, Vec<ExperimentReport>, Written) {
        match self {
            Job::Single(experiment) => {
                let staged = Experiment::clone(experiment);
                let call = spans.open("rlnoc-core.Experiment::run", parent, Some(op));
                let t0 = Instant::now();
                let report = staged.run();
                let secs = t0.elapsed().as_secs_f64();
                spans.close(call);
                (secs, vec![report], Written::default())
            }
            Job::Campaign { campaign, .. } => {
                let dir: SubDir = scratch.fresh("runner-op");
                let runner = RunnerConfig {
                    jobs: 1,
                    batch: 1,
                    snapshot_dir: Some(dir.path().to_path_buf()),
                    ..RunnerConfig::serial()
                };
                let call = spans.open("rlnoc-runner.RunnerConfig::run_campaign", parent, Some(op));
                let t0 = Instant::now();
                let result = runner.run_campaign(campaign);
                let secs = t0.elapsed().as_secs_f64();
                spans.close(call);
                let (files, bytes) = dir.files_and_bytes();
                (secs, result.reports, Written { files, bytes })
            }
        }
    }
}

/// Sums over the task reports of one op, in simulated units.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimTotals {
    tasks: u64,
    injected: u64,
    delivered: u64,
    flits: u64,
    latency_sum: f64,
    exec_cycles: u64,
    energy_j: f64,
    retx_equiv: f64,
    ecc_corrections: u64,
    crc_failures: u64,
    hop_nacks: u64,
    reroutes: u64,
    lost: u64,
    modes: [u64; 4],
}

impl SimTotals {
    /// Adds one task report.
    pub fn add(&mut self, r: &ExperimentReport) {
        self.tasks += 1;
        self.injected += r.packets_injected;
        self.delivered += r.packets_delivered;
        self.flits += r.flits_delivered;
        self.latency_sum += r.avg_latency_cycles * r.packets_delivered as f64;
        self.exec_cycles += r.execution_cycles;
        self.energy_j += r.total_energy_j();
        self.retx_equiv += r.retransmitted_packets_equiv;
        self.ecc_corrections += r.ecc_corrections;
        self.crc_failures += r.crc_failures;
        self.hop_nacks += r.hop_nacks;
        self.reroutes += r.reroute_events;
        self.lost += r.packets_lost_hard_fault;
        for (sum, n) in self.modes.iter_mut().zip(r.mode_histogram) {
            *sum += n;
        }
    }

    /// Sums `reports`.
    pub fn of(reports: &[ExperimentReport]) -> Self {
        let mut t = Self::default();
        reports.iter().for_each(|r| t.add(r));
        t
    }

    /// The five simulated end-to-end metrics. They are in *simulated*
    /// time: identical between any two runs of one commit at one seed.
    pub fn end_to_end(&self, m: &mut Measured) {
        let delivered = self.delivered.max(1) as f64;
        m.set(
            "delivered_share",
            self.delivered as f64 / self.injected.max(1) as f64,
        );
        m.set("packet_latency_cyc", self.latency_sum / delivered);
        m.set(
            "exec_cycles",
            self.exec_cycles as f64 / self.tasks.max(1) as f64,
        );
        m.set(
            "energy_per_flit_pj",
            self.energy_j * 1e12 / self.flits.max(1) as f64,
        );
        m.set(
            "goodput_share",
            self.delivered as f64 / (self.delivered as f64 + self.retx_equiv).max(1.0),
        );
    }

    /// Adds another sum to this one.
    pub fn absorb(&mut self, other: &SimTotals) {
        self.tasks += other.tasks;
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.flits += other.flits;
        self.latency_sum += other.latency_sum;
        self.exec_cycles += other.exec_cycles;
        self.energy_j += other.energy_j;
        self.retx_equiv += other.retx_equiv;
        self.ecc_corrections += other.ecc_corrections;
        self.crc_failures += other.crc_failures;
        self.hop_nacks += other.hop_nacks;
        self.reroutes += other.reroutes;
        self.lost += other.lost;
        for (sum, n) in self.modes.iter_mut().zip(other.modes) {
            *sum += n;
        }
    }

    /// The exact per-op counts that come from reports, when these are
    /// the sums of one op.
    pub fn per_op_counts(&self, m: &mut Measured) {
        m.set("noc-sim.flits_delivered_per_op", self.flits as f64);
        m.set("noc-sim.reroutes_per_op", self.reroutes as f64);
        m.set("noc-sim.packets_lost_per_op", self.lost as f64);
        m.set(
            "noc-coding.ecc_corrections_per_op",
            self.ecc_corrections as f64,
        );
        m.set("noc-coding.crc_failures_per_op", self.crc_failures as f64);
        m.set("noc-coding.hop_nacks_per_op", self.hop_nacks as f64);
        m.set(
            "noc-coding.retx_per_kpkt",
            self.retx_equiv / self.delivered.max(1) as f64 * 1000.0,
        );
        let decisions: u64 = self.modes.iter().sum();
        m.set(
            "noc-rl.mode0_share",
            self.modes[0] as f64 / decisions.max(1) as f64,
        );
    }

    /// Flits delivered.
    pub fn flits(&self) -> u64 {
        self.flits
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The public timers whose sums are share columns of the op wall.
const SHARE_TIMERS: [(&str, &str); 9] = [
    ("noc-sim.phase_events_share", "sim.phase.process_events"),
    ("noc-sim.phase_inject_share", "sim.phase.inject"),
    ("noc-sim.phase_sa_st_share", "sim.phase.sa_st"),
    ("noc-sim.phase_va_share", "sim.phase.va"),
    ("noc-sim.phase_rc_share", "sim.phase.rc"),
    ("noc-sim.phase_sample_share", "sim.phase.sample"),
    ("noc-sim.hardfault_apply_share", "sim.hardfault.apply"),
    ("noc-rl.td_update_share", "rl.td_update"),
    ("noc-fault.thermal_update_share", "thermal.update"),
];

/// What only a traced run measures before its timed loop: the ladder,
/// the untraced reference op time, and the two cuts of the op that need
/// extra runs. Returns the reference op time in seconds.
fn traced_extras(
    h: &mut Harness,
    plain: &Job,
    first: &[ExperimentReport],
    root: Option<u32>,
    m: &mut Measured,
) -> f64 {
    let (workload, seed) = (h.args.workload, h.args.seed);
    let Harness {
        scratch,
        spans,
        checker,
        ..
    } = h;
    let ladder = spans.open("harness.ladder", root, None);
    m.extend(match plain {
        Job::Single(_) if workload == Workload::HotStatic => ladder::hot_static(seed),
        Job::Single(_) => ladder::cool_adaptive(seed),
        Job::Campaign { schedule, .. } => ladder::fault_churn(seed, schedule, &first[0], scratch),
    });
    spans.close(ladder);

    // The same op with no telemetry attached: what a traced op is
    // compared with to state the tracing overhead.
    let mut untraced = Vec::with_capacity(REFERENCE_OPS);
    for i in 1..=REFERENCE_OPS as u32 {
        let op = spans.open("op.untraced", root, Some(i));
        let (secs, reports, _) = plain.run_op(scratch, spans, i, op.id());
        spans.close(op);
        checker.check_reports("op", &reports);
        untraced.push(secs);
    }
    let reference = median(&untraced);

    // Share of the op that is pre-training: the op again with
    // pre-training off. Static schemes never pre-train.
    let pretrain_share = if workload == Workload::CoolAdaptive {
        let times: Vec<f64> = (0..REFERENCE_OPS)
            .map(|_| {
                let e = single(workload, seed, &Telemetry::disabled())
                    .pretrain_cycles(0)
                    .build()
                    .expect("paper-default experiment is valid");
                let t0 = Instant::now();
                std::hint::black_box(e.run());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        1.0 - median(&times) / reference
    } else {
        0.0
    };
    m.set("rlnoc-core.pretrain_share", pretrain_share);

    // What the runner adds to its tasks: the campaign op less the same
    // tasks run standalone.
    let runner_overhead = match plain {
        Job::Campaign { campaign, .. } => {
            let t0 = Instant::now();
            for task in campaign.tasks() {
                std::hint::black_box(campaign.run_task(&task));
            }
            1.0 - t0.elapsed().as_secs_f64() / reference
        }
        Job::Single(_) => 0.0,
    };
    m.set("rlnoc-runner.overhead_share", runner_overhead);
    reference
}

/// Runs a simulator workload and returns what it measured.
pub fn run(h: &mut Harness) -> Measured {
    let (args, scratch) = (h.args, h.scratch);
    let (workload, seed) = (args.workload, args.seed);
    let mut m = Measured::default();
    let root = h.spans.open("run", None, None);

    // R4: set-up, 21 samples — generate the inputs from the seed and
    // build the job. (The runner makes its own directory inside the op;
    // the experiments need none.) One set-up takes from 0.1 to 330 µs,
    // too short to time steadily, so a sample is the mean of a batch.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut job = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            job = Some(std::hint::black_box(prepare(
                workload,
                seed,
                &Telemetry::disabled(),
            )));
        }
        setup_s.push(t0.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    let plain = job.expect("at least one set-up repetition");
    m.set("setup_s", median(&setup_s));

    // One untimed warm-up op. It carries a telemetry handle so that it
    // also yields the exact cycle counts of an op; its report must
    // still equal every timed op's, byte for byte.
    let counting = Telemetry::with_epoch_capacity(1);
    let (_, first, _) =
        prepare(workload, seed, &counting).run_op(scratch, &mut h.spans, 0, root.id());
    h.checker.check_reports("op", &first);
    let totals = SimTotals::of(&first);
    let cycles_per_op = counting.counter("sim.cycles").get() as f64;

    // Traced extras come out of the run's time budget.
    let extras_start = Instant::now();
    let reference_s = args
        .trace
        .then(|| traced_extras(h, &plain, &first, root.id(), &mut m));
    let budget = (args.seconds - extras_start.elapsed().as_secs_f64()).max(0.0);

    // The timed loop: the same call until the next one would not fit.
    let telemetry = if args.trace {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let timed_job = if args.trace {
        prepare(workload, seed, &telemetry)
    } else {
        plain
    };
    let mut op_s: Vec<f64> = Vec::new();
    let loop_start = Instant::now();
    let written = loop {
        let index = 100 + op_s.len() as u32;
        let op = h.spans.open("op", root.id(), Some(index));
        let (secs, reports, wrote) = timed_job.run_op(scratch, &mut h.spans, index, op.id());
        let check = h.spans.open("harness.check", op.id(), Some(index));
        h.checker.check_reports("op", &reports);
        h.spans.close(check);
        h.spans.close(op);
        op_s.push(secs);
        let fits = loop_start.elapsed().as_secs_f64() + median(&op_s) <= budget;
        if op_s.len() >= 3 && !fits {
            break wrote;
        }
    };
    h.spans.close(root);

    println!("op seconds: {}", describe(&op_s));
    println!(
        "op_p90_ms repeats op_p50_ms on a closed loop (R3); the measured p90 is harness.op_p90_ms"
    );
    let op_p50 = median(&op_s);
    m.set("op_p50_ms", op_p50 * 1e3);
    // R3: a closed loop of identical calls has no queue, so its tail is
    // host noise, not a property of the program. The end-to-end slot
    // repeats the median; the measured p90 is `harness.op_p90_ms`.
    m.set("op_p90_ms", op_p50 * 1e3);
    m.set("sim_cycles_per_s", cycles_per_op / op_p50);
    m.set("peak_rss_mb", peak_rss_mib());
    totals.end_to_end(&mut m);

    m.set("harness.ops_timed", op_s.len() as f64);
    m.set("harness.op_iqr_pct", iqr_pct(&op_s));
    m.set("harness.op_p90_ms", percentile(&op_s, 90.0) * 1e3);
    m.set("noc-sim.cycles_per_op", cycles_per_op);
    m.set(
        "noc-sim.active_router_share",
        counting.counter("sim.worklist.active_router_cycles").get() as f64
            / (cycles_per_op * timed_job.routers() as f64),
    );
    m.set(
        "noc-rl.td_updates_per_op",
        counting.timer("rl.td_update").snapshot().count as f64,
    );
    totals.per_op_counts(&mut m);
    m.set(
        "noc-sim.ns_per_delivered_flit",
        op_p50 * 1e9 / totals.flits().max(1) as f64,
    );
    m.set("rlnoc-runner.checkpoint_files_per_op", written.files as f64);
    m.set("rlnoc-runner.checkpoint_bytes_per_op", written.bytes as f64);

    if let Some(reference) = reference_s {
        m.set(
            "harness.trace_overhead_pct",
            (op_p50 / reference - 1.0) * 100.0,
        );
        let wall_ns: f64 = op_s.iter().sum::<f64>() * 1e9;
        let sums: Vec<f64> = SHARE_TIMERS
            .iter()
            .map(|(_, timer)| telemetry.timer(timer).snapshot().sum as f64)
            .collect();
        let (cols, unattributed) = shares(&sums, wall_ns);
        for ((name, _), share) in SHARE_TIMERS.iter().zip(cols) {
            m.set(name, share);
        }
        m.set("rlnoc-core.unattributed_share", unattributed);
    }
    m
}
