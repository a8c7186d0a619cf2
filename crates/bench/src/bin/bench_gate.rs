//! CI performance gate over the committed benchmark baseline.
//!
//! Compares a freshly measured `BENCH_ci.json` (produced by running the
//! Criterion harness with `CRITERION_JSON=BENCH_ci.json`, typically in
//! `CRITERION_QUICK=1` mode) against the committed `BENCH_baseline.json`
//! reference and exits non-zero when any benchmark median regressed by
//! more than its class tolerance:
//!
//! * **macro** (`network_cycle*` whole-network cycles and
//!   `campaign_batched*` shared-table replicate groups): default 20%,
//!   override with `BENCH_GATE_TOLERANCE=0.30` etc.
//! * **micro** (everything else — nanosecond kernels like
//!   `crc32_flit_checksum` or `secded64_encode`): default 30% to
//!   tolerate nanosecond-scale jitter across runner hardware, override
//!   with `BENCH_GATE_MICRO_TOLERANCE=0.50` etc.
//!
//! Micro kernels used to be print-only, which let a real
//! `crc32_flit_checksum` regression ride through CI; both classes are
//! gated now, just with different headroom.
//!
//! Usage: `bench_gate [<baseline.json> [<current.json>]]`
//! (defaults: `BENCH_baseline.json`, `BENCH_ci.json`).

use std::process::ExitCode;

/// Prefixes selecting the macro-class benchmarks: whole-network cycle
/// loops and shared-table replicate groups.
const MACRO_PREFIXES: [&str; 2] = ["network_cycle", "campaign_batched"];

/// Parses the flat `{"name": median_ns, ...}` object the in-tree
/// Criterion shim writes for `CRITERION_JSON`. Hand-rolled (the
/// workspace's serde is an API shim without a JSON backend) but
/// whitespace-agnostic: entries are scanned as `"key"` / `:` / number
/// regardless of line structure, so compact one-line JSON parses too.
fn parse_flat_json(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else {
            break;
        };
        let name = &after[..close];
        let tail = after[close + 1..].trim_start();
        let Some(tail) = tail.strip_prefix(':') else {
            rest = &after[close + 1..];
            continue;
        };
        let tail = tail.trim_start();
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
            .unwrap_or(tail.len());
        if let Ok(v) = tail[..end].parse::<f64>() {
            out.push((name.to_string(), v));
        }
        rest = &tail[end..];
    }
    out
}

fn env_tolerance(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().unwrap_or_else(|| "BENCH_baseline.json".into());
    let current_path = args.next().unwrap_or_else(|| "BENCH_ci.json".into());
    let macro_tolerance = env_tolerance("BENCH_GATE_TOLERANCE", 0.20);
    let micro_tolerance = env_tolerance("BENCH_GATE_MICRO_TOLERANCE", 0.30);

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => parse_flat_json(&text),
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let baseline = read(&baseline_path);
    let current = read(&current_path);
    let lookup =
        |set: &[(String, f64)], name: &str| set.iter().find(|(n, _)| n == name).map(|&(_, v)| v);

    println!(
        "bench gate: {current_path} vs {baseline_path} \
         (macro {:+.0}%, micro {:+.0}%)",
        macro_tolerance * 100.0,
        micro_tolerance * 100.0
    );
    let mut failed = false;
    for (name, base) in &baseline {
        let (class, tolerance) = if MACRO_PREFIXES.iter().any(|p| name.starts_with(p)) {
            ("macro", macro_tolerance)
        } else {
            ("micro", micro_tolerance)
        };
        match lookup(&current, name) {
            Some(now) => {
                let ratio = now / base;
                let verdict = if ratio > 1.0 + tolerance {
                    failed = true;
                    "FAIL"
                } else {
                    "ok"
                };
                println!(
                    "  [{verdict:4}] ({class}) {name}: {base:.1} ns -> {now:.1} ns ({ratio:.2}x)"
                );
            }
            None => {
                failed = true;
                println!("  [FAIL] ({class}) {name}: missing from {current_path}");
            }
        }
    }

    if failed {
        eprintln!("bench_gate: benchmark regressed beyond tolerance");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: all gated benchmarks within tolerance");
        ExitCode::SUCCESS
    }
}
