//! Deterministic differential fuzzer.
//!
//! Generates `FuzzCase`s from a SplitMix64 case stream, runs each on the
//! optimized kernel and the reference model in parallel, and fails loudly
//! on the first report divergence — after shrinking it to a minimal
//! replayable case file.
//!
//! ```text
//! verify_fuzz [--seed N] [--cases N] [--budget 60s] [--jobs N]
//!             [--out DIR] [--replay FILE]
//! ```
//!
//! * `--cases N`   run exactly N cases (default 200).
//! * `--budget T`  time-budget mode for CI: run batches until `T`
//!   elapses (suffix `s`/`m`; plain number = seconds). Overrides
//!   `--cases` as the stopping rule but still runs at least one batch.
//! * `--replay F`  run a single saved case file and report its diffs.
//! * `--out DIR`   where to write `divergence.case` on failure
//!   (default `.`).
//!
//! Exit status: 0 = all cases agree; 1 = divergence (case file written);
//! 2 = usage or I/O error.

use rlnoc_core::fuzzcase::FuzzCase;
use rlnoc_telemetry::Telemetry;
use rlnoc_verify::diff::{run_case, shrink_divergence};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Options {
    seed: u64,
    cases: u64,
    budget: Option<Duration>,
    jobs: usize,
    out: PathBuf,
    replay: Option<PathBuf>,
}

fn parse_budget(text: &str) -> Result<Duration, String> {
    let (num, mult) = if let Some(rest) = text.strip_suffix('m') {
        (rest, 60.0)
    } else if let Some(rest) = text.strip_suffix('s') {
        (rest, 1.0)
    } else {
        (text, 1.0)
    };
    num.parse::<f64>()
        .map(|v| Duration::from_secs_f64(v * mult))
        .map_err(|_| format!("bad duration `{text}` (try `60s` or `2m`)"))
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 0x5EED_F022,
        cases: 200,
        budget: None,
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        out: PathBuf::from("."),
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--cases" => opts.cases = value("--cases")?.parse().map_err(|e| format!("{e}"))?,
            "--budget" => opts.budget = Some(parse_budget(&value("--budget")?)?),
            "--jobs" => opts.jobs = value("--jobs")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--replay" => opts.replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => {
                println!(
                    "verify_fuzz [--seed N] [--cases N] [--budget 60s] [--jobs N] \
                     [--out DIR] [--replay FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Runs one batch of case indices in parallel; returns the first
/// divergent outcome by case index, if any.
fn run_cases(
    seed: u64,
    range: std::ops::Range<u64>,
    jobs: usize,
) -> Option<rlnoc_verify::CaseOutcome> {
    let telemetry = Telemetry::disabled();
    let indices: Vec<u64> = range.collect();
    let outcomes = rlnoc_runner::pool::run_indexed(indices, jobs, &telemetry, |_, i| {
        run_case(&FuzzCase::generate(seed, i))
    });
    outcomes.into_iter().find(|o| !o.agrees())
}

fn report_divergence(outcome: &rlnoc_verify::CaseOutcome, out_dir: &Path) -> i32 {
    eprintln!("DIVERGENCE on case: {}", outcome.case);
    for d in &outcome.diffs {
        eprintln!("  {d}");
    }
    eprintln!("shrinking…");
    let minimal = shrink_divergence(&outcome.case, 64);
    let path = out_dir.join("divergence.case");
    match std::fs::write(&path, minimal.to_text()) {
        Ok(()) => {
            eprintln!("minimal case: {minimal}");
            eprintln!(
                "written to {} — replay with `verify_fuzz --replay {0}`",
                path.display()
            );
            1
        }
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            2
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("verify_fuzz: {e}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &opts.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        let case = match FuzzCase::from_text(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        println!("replaying: {case}");
        let outcome = run_case(&case);
        if outcome.agrees() {
            println!("backends agree: reports are bit-identical");
            return;
        }
        eprintln!("backends diverge:");
        for d in &outcome.diffs {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }

    let start = Instant::now();
    // Batch size balances pool utilization against budget granularity.
    let batch = (opts.jobs as u64 * 8).max(32);
    let mut done = 0u64;
    loop {
        let n = match opts.budget {
            Some(_) => batch,
            None => batch.min(opts.cases - done),
        };
        if n == 0 {
            break;
        }
        if let Some(bad) = run_cases(opts.seed, done..done + n, opts.jobs) {
            std::process::exit(report_divergence(&bad, &opts.out));
        }
        done += n;
        println!(
            "{done} cases agree ({:.1}s elapsed)",
            start.elapsed().as_secs_f64()
        );
        match opts.budget {
            Some(budget) => {
                if start.elapsed() >= budget {
                    break;
                }
            }
            None => {
                if done >= opts.cases {
                    break;
                }
            }
        }
    }
    println!(
        "OK: {done} differential cases, zero divergence, {:.1}s",
        start.elapsed().as_secs_f64()
    );
}
