#!/usr/bin/env bash
# A/A check: two full sets of runs of the working tree must agree.
#
# Builds the benchmark once, then runs every workload RUNS times for
# set A and RUNS times for set B, untraced, at one seed. The sets are
# interleaved run by run and walk the workloads in opposite orders, so
# drift of the host hits both alike. Fails if, on any workload row,
#   * a timing metric's two medians differ by more than its bound in
#     BENCHMARK.json, or
#   * a simulated metric (or ok_share) differs at all between any two
#     runs: those are in simulated time and repeat to the last digit.
# Prints each side's median and quartiles per workload row.
#
#   benchmark/aa_check.sh                 # 5 runs a side, seed 2019
#   RUNS=10 SEED=7 SECONDS_PER_RUN=30 benchmark/aa_check.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${RUNS:-5}"
seed="${SEED:-2019}"
seconds="${SECONDS_PER_RUN:-30}"
target="${CARGO_TARGET_DIR:-$here/target}"
workloads=(hot_static_8x8 cool_adaptive_8x8 fault_churn_torus16 serve_mixed)

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$target/release/rlnoc-benchmark"

mkdir -p "$here/out"
out="$(mktemp -d "$here/out/aa.XXXXXX")"
trap 'rm -rf "$out"' EXIT

run_set() { # <side> <workload...>
    local side="$1"
    shift
    for w in "$@"; do
        # The result is the last line of standard output.
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
            tail -n 1 >>"$out/$side.$w.jsonl"
    done
}

reversed=()
for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do reversed+=("${workloads[i]}"); done

for ((r = 1; r <= runs; r++)); do
    echo "aa_check: run $r of $runs" >&2
    run_set a "${workloads[@]}"
    run_set b "${reversed[@]}"
done

python3 - "$here/../BENCHMARK.json" "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

manifest, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
spec = json.load(open(manifest))["end_to_end"]
EXACT = {"ok_share", "delivered_share", "packet_latency_cyc", "exec_cycles",
         "energy_per_flit_pj", "retx_per_kpkt"}

def load(side, workload):
    rows = [json.loads(line) for line in open(f"{out}/{side}.{workload}.jsonl")]
    bad = [r for r in rows if not r["correct"] or r["failed"]]
    return rows, bad

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

failures = []
print(f"{'workload':<20} {'metric':<20} {'A q1':>13} {'A median':>13} {'A q3':>13}"
      f" {'B q1':>13} {'B median':>13} {'B q3':>13} {'B vs A':>9} {'bound':>7}")
for w in workloads:
    (a, bad_a), (b, bad_b) = load("a", w), load("b", w)
    if bad_a or bad_b:
        failures.append(f"{w}: {len(bad_a) + len(bad_b)} runs failed a check")
    for m in spec:
        name, bound = m["name"], m["bound"]
        va = [r["metrics"][name]["value"] for r in a]
        vb = [r["metrics"][name]["value"] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        (a1, a3), (b1, b3) = quartiles(va), quartiles(vb)
        rel = (mb - ma) / ma if ma else 0.0
        print(f"{w:<20} {name:<20} {a1:>13.6g} {ma:>13.6g} {a3:>13.6g}"
              f" {b1:>13.6g} {mb:>13.6g} {b3:>13.6g} {rel:>+9.2%} {bound:>7.0%}")
        if name in EXACT:
            if len(set(va + vb)) != 1:
                failures.append(f"{w} {name}: simulated value differs between runs "
                                f"({sorted(set(va + vb))})")
        elif abs(rel) > bound:
            failures.append(f"{w} {name}: medians {ma:.6g} and {mb:.6g} differ by "
                            f"{rel:+.2%}, bound {bound:.0%}")

if failures:
    print("\naa_check: FAILED")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("\naa_check: OK — both sets agree within the benchmark's own bounds on every row")
EOF
