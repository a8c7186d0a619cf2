//! `rlnoc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run header, every metric by name with its unit, and as the
//! last line one JSON object. Exits non-zero on any failed check.

use rlnoc_benchmark::{Args, Workload};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: rlnoc-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--regen-golden]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::HotStatic,
        seed: 2019,
        seconds: 30.0,
        trace: false,
        regen_golden: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&argv.next()?)?),
            "--seed" => args.seed = argv.next()?.parse().ok()?,
            "--seconds" => {
                args.seconds = argv
                    .next()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)?;
            }
            "--trace" => {
                args.trace = match argv.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--regen-golden" => args.regen_golden = true,
            _ => return None,
        }
    }
    args.workload = workload?;
    Some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    match rlnoc_benchmark::run(&args) {
        Ok(result) => {
            print!("{}", result.table());
            println!("{}", result.to_json());
            if result.correct && result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rlnoc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
