#!/usr/bin/env bash
# Paired A/B check of the benchmark: a git revision against the working tree.
#
# Builds the benchmark package twice — from a clean export of <rev> (side
# A) and from the working tree (side B) — into two directories under the
# same binary name, since the file name alone moves peak_rss_mb. Then, per
# workload, runs PAIRS untraced pairs at one seed, alternating which side
# goes first, and TRACED_PAIRS traced pairs for the exact per-op counts.
#
# Per metric it prints each side's quartiles and median, how many pairs B
# won, the ratio of medians (B / A) and a verdict:
#   same        exact metric, identical in every run of both sides;
#   DIFFERS     exact metric that is not (the script then exits 1);
#   over bound  B's median is worse than A's by more than the metric's
#               bound in BENCHMARK.json, which the script only reads;
#   better / worse
#               at least 10 pairs, B won (lost) at least 9 in 10 of them,
#               and the medians are further apart than A's interquartile
#               range;
#   unresolved  anything else: A's own spread covers the gap.
# Exits 1 if any run fails its checks or any exact metric differs.
#
#   scripts/ab_check.sh <rev> [workload...]      # default: every workload
#   PAIRS=10 SECONDS_PER_RUN=30 SEED=2019 TRACED_PAIRS=1 scripts/ab_check.sh HEAD~1
set -euo pipefail

if [[ $# -lt 1 || $1 == -h || $1 == --help ]]; then
    sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
rev="$1"
shift
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pairs="${PAIRS:-10}"
traced="${TRACED_PAIRS:-1}"
seed="${SEED:-2019}"
seconds="${SECONDS_PER_RUN:-30}"
manifest="$repo/BENCHMARK.json"
if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$manifest")
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/ab_check.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/a/src" "$work/runs"
git -C "$repo" archive --format=tar "$rev" | tar -x -C "$work/a/src"

build() { # <side> <checkout>
    echo "ab_check: building side $1 from $2" >&2
    CARGO_TARGET_DIR="$work/$1/target" cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml"
}
build a "$work/a/src"
build b "$repo"

run() { # <side> <workload> <trace>
    # The result is the last line of standard output.
    "$work/$1/target/release/rlnoc-benchmark" --workload "$2" --seed "$seed" \
        --seconds "$seconds" --trace "$3" | tail -n 1 >>"$work/runs/$1.$2.$3.jsonl"
}

for w in "${workloads[@]}"; do
    for trace in 0 1; do
        n=$pairs
        [[ $trace == 1 ]] && n=$traced
        for ((p = 1; p <= n; p++)); do
            echo "ab_check: $w trace=$trace pair $p of $n" >&2
            if ((p % 2)); then run a "$w" "$trace"; run b "$w" "$trace"
            else run b "$w" "$trace"; run a "$w" "$trace"; fi
        done
    done
done

python3 - "$manifest" "$work/runs" "$rev" "${workloads[@]}" <<'EOF'
import json, math, os, statistics, sys

manifest, runs, rev, workloads = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
e2e = json.load(open(manifest))["end_to_end"]
better = {m["name"]: m["better"] for m in e2e}
bound = {m["name"]: m["bound"] for m in e2e}
# Simulated-time results: they repeat to the last digit, run after run.
EXACT = {"ok_share", "delivered_share", "packet_latency_cyc", "exec_cycles",
         "energy_per_flit_pj", "goodput_share"}
# Exact per-op counts that only a traced run reports: pure functions of
# the reports or of counting telemetry.
TRACED = ["rlnoc-runner.checkpoint_bytes_per_op", "rlnoc-runner.checkpoint_files_per_op",
          "noc-sim.cycles_per_op", "noc-sim.flits_delivered_per_op",
          "noc-sim.reroutes_per_op", "noc-sim.packets_lost_per_op",
          "noc-sim.active_router_share", "noc-rl.td_updates_per_op",
          "noc-rl.mode0_share", "noc-coding.ecc_corrections_per_op",
          "noc-coding.crc_failures_per_op", "noc-coding.hop_nacks_per_op",
          "noc-coding.retx_per_kpkt"]

def load(side, w, trace):
    path = f"{runs}/{side}.{w}.{trace}.jsonl"
    return [json.loads(l) for l in open(path)] if os.path.exists(path) else []

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

failures = []
print(f"\nA = {rev}, B = working tree; wins = pairs B won")
print(f"{'workload':<20} {'metric':<37} {'A q1':>11} {'A med':>11} {'A q3':>11}"
      f" {'B q1':>11} {'B med':>11} {'B q3':>11} {'wins':>6} {'B/A':>7}  verdict")
for w in workloads:
    for trace, names in ((0, [m["name"] for m in e2e]), (1, TRACED)):
        a, b = load("a", w, trace), load("b", w, trace)
        bad = sum(not r["correct"] or r["failed"] > 0 for r in a + b)
        if bad:
            failures.append(f"{w} trace={trace}: {bad} runs failed a check")
        for name in names:
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            (a1, a3), (b1, b3) = quartiles(va), quartiles(vb)
            sign = 1 if better.get(name, "lower") == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(va, vb))
            losses = sum(sign * (y - x) < 0 for x, y in zip(va, vb))
            ratio = mb / ma if ma else (1.0 if mb == 0 else float("inf"))
            worse = -sign * (mb - ma) / abs(ma) if ma else 0.0
            apart = len(va) >= 10 and abs(mb - ma) > a3 - a1
            need = math.ceil(0.9 * len(va))
            if name in EXACT or trace == 1:
                verdict = "same" if len(set(va + vb)) == 1 else "DIFFERS"
                if verdict == "DIFFERS":
                    failures.append(f"{w} {name}: {sorted(set(va + vb))}")
            elif worse > bound[name]:
                verdict = f"over bound ({worse:+.1%} > {bound[name]:.0%})"
            elif apart and wins >= need:
                verdict = "better"
            elif apart and losses >= need:
                verdict = "worse"
            else:
                verdict = "unresolved"
            print(f"{w:<20} {name:<37} {a1:>11.5g} {ma:>11.5g} {a3:>11.5g}"
                  f" {b1:>11.5g} {mb:>11.5g} {b3:>11.5g} {wins:>3}/{len(va):<2}"
                  f" {ratio:>7.4f}  {verdict}")

if failures:
    print("\nab_check: FAILED")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("\nab_check: OK — every run passed its checks and every exact metric is identical")
EOF
