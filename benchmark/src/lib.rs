//! The repo's benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a separate traced run, and a
//! correctness check on every operation. Everything is measured from
//! outside, through the public API of each crate; see `README.md` for
//! the metric dictionary and the rules R1–R5 behind the design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod check;
pub mod ladder;
pub mod openloop;
pub mod output;
pub mod scratch;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;

use output::RunResult;
use std::time::Instant;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense, hot, error-stressed 8×8 under static ARQ+ECC.
    HotStatic,
    /// The paper's flow: RL agents over sparse traffic, 8×8.
    CoolAdaptive,
    /// A checkpointed campaign on a 16×16 torus that keeps losing
    /// links and routers.
    FaultChurn,
    /// The campaign service: latency at low load, then capacity.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HotStatic,
        Workload::CoolAdaptive,
        Workload::FaultChurn,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotStatic => "hot_static_8x8",
            Workload::CoolAdaptive => "cool_adaptive_8x8",
            Workload::FaultChurn => "fault_churn_torus16",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Rewrite this workload's golden digests instead of checking them.
    pub regen_golden: bool,
}

/// What a workload driver works with: the request, the run's scratch
/// space, the span log and the checker.
#[derive(Debug)]
pub struct Harness<'a> {
    /// What the command line asked for.
    pub args: &'a Args,
    /// Scratch space of this run.
    pub scratch: &'a scratch::Scratch,
    /// Benchmark-side spans (records nothing in an untraced run).
    pub spans: spans::SpanLog,
    /// Counts and checks every operation.
    pub checker: check::Checker,
}

/// Runs one workload: prints the run header, measures, checks, writes
/// `spans.jsonl` for a traced run, and returns the result to print.
///
/// # Errors
///
/// Fails when no scratch directory can be made or the span log cannot
/// be written.
pub fn run(args: &Args) -> std::io::Result<RunResult> {
    let scratch = scratch::Scratch::create()?;
    println!(
        "rlnoc-benchmark: workload={} seed={} seconds={} trace={} cores={} scratch={} ({})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        scratch.root().display(),
        scratch.fs_type(),
    );
    let mut harness = Harness {
        args,
        scratch: &scratch,
        spans: spans::SpanLog::new(args.trace, Instant::now(), 0),
        checker: check::Checker::new(args.workload.name(), args.seed),
    };
    let mut measured = match args.workload {
        Workload::ServeMixed => serve::run(&mut harness),
        _ => sim::run(&mut harness),
    };
    let Harness { spans, checker, .. } = harness;

    let verdict = checker.finish(args.regen_golden);
    for v in &verdict.violations {
        eprintln!("check failed: {v}");
    }
    let (attempted, failed) = (verdict.attempted, verdict.failed);
    let failed_share = failed as f64 / attempted.max(1) as f64;
    measured.set("ok_share", 1.0 - failed_share);
    println!("failed_share = {failed_share} ({failed} of {attempted} ops)");

    let metrics = if args.trace {
        let dir = scratch::out_dir().join(args.workload.name());
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("spans.jsonl");
        spans.write_jsonl(std::io::BufWriter::new(std::fs::File::create(&path)?))?;
        println!(
            "{} spans written to {}",
            spans.spans().len(),
            path.display()
        );
        let named = measured.measured_per_layer();
        println!(
            "per-layer metrics measured on this workload: {}",
            named.join(" ")
        );
        measured.per_layer()
    } else {
        measured.end_to_end()
    };
    Ok(RunResult {
        correct: verdict.violations.is_empty(),
        attempted,
        failed,
        metrics,
    })
}
