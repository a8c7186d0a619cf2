//! Graceful-degradation figure: saturation throughput and
//! delivered-packet fraction vs. % permanently failed links, for the RL
//! controller vs. the decision tree vs. the static CRC baseline.
//!
//! The sweep draws **one** master fault sequence (connectivity-filtered,
//! so the mesh never partitions) and takes prefixes of its placement
//! order: fault sets are *nested*, so each sampled fraction degrades a
//! strict superset of the previous one's topology. Every fault fires at
//! cycle 1 — learning schemes pre-train on the same network instance and
//! therefore reach their measurement window at different absolute
//! cycles, so an early fault is the only placement that gives every
//! scheme the same dying topology for its whole measured run.
//!
//! Each fraction runs as a full
//! [`Campaign`](rlnoc_core::campaign::Campaign) through `rlnoc-runner`
//! (`RLNOC_JOBS` workers, `SNAPSHOT_DIR`/`RESUME` checkpointing); the
//! schedule folds into the campaign fingerprint, so checkpoints from
//! different fractions never collide and a resumed sweep is
//! byte-identical to a fresh serial one.

use noc_fault::hardfault::{mesh_links, HardFaultSchedule};
use noc_sim::topology::Mesh;
use noc_sim::traffic::TrafficPattern;
use rlnoc_bench::{banner, campaign_from_env, export_telemetry, run_campaign, write_output};
use rlnoc_core::benchmarks::{PhaseSpec, WorkloadProfile};
use rlnoc_core::experiment::{ErrorControlScheme, ExperimentReport};
use std::fmt::Write as _;
use std::sync::Arc;

/// Failed-link fractions sampled, percent of total mesh links. Coarse
/// steps keep the per-step capacity loss well above the (averaged)
/// escape-tree reshaping noise.
const FRACTIONS_PCT: [u64; 5] = [0, 10, 20, 30, 40];

/// Independent master fault draws averaged per fraction.
const DRAWS: u64 = 5;

/// Schemes compared (the figure contrasts control policies, so the
/// always-on ARQ+ECC scheme is omitted).
const SCHEMES: [ErrorControlScheme; 3] = [
    ErrorControlScheme::StaticCrc,
    ErrorControlScheme::DecisionTree,
    ErrorControlScheme::ProposedRl,
];

/// Near-saturation uniform traffic: the figure measures *capacity*
/// (saturation throughput), so the offered load must exceed what the
/// degraded topologies can carry — PARSEC-profile rates leave the mesh
/// so far below saturation that dead links cost nothing measurable.
fn saturation_workload(duration: u64) -> WorkloadProfile {
    WorkloadProfile {
        name: "saturation",
        phases: vec![PhaseSpec {
            cycles: duration,
            injection_rate: 0.10,
            pattern: TrafficPattern::UniformRandom,
        }],
        duration_cycles: duration,
    }
}

/// Delivered data flits per cycle of measured makespan.
fn throughput(r: &ExperimentReport) -> f64 {
    if r.execution_cycles == 0 {
        return 0.0;
    }
    r.flits_delivered as f64 / r.execution_cycles as f64
}

/// Delivered fraction of *offered* packets — refused-unreachable offers
/// count against it, so a partitioning schedule (not produced by this
/// sweep's connectivity-filtered draw) would show up honestly.
fn delivered_fraction(r: &ExperimentReport) -> f64 {
    let offered = r.packets_injected + r.packets_refused_unreachable;
    if offered == 0 {
        return 0.0;
    }
    r.packets_delivered as f64 / offered as f64
}

fn main() {
    banner(
        "Fig. D — graceful degradation under permanent link failures",
        "self-healing reroute keeps all schemes delivering; RL holds its \
         throughput edge over the static baseline as links die",
    );
    let mut base = campaign_from_env();
    base.schemes = SCHEMES.to_vec();
    let duration = base.measure_cycles.unwrap_or(20_000);
    base.workloads = vec![saturation_workload(duration)];

    let (w, h) = (base.noc.mesh.width(), base.noc.mesh.height());
    let total_links = mesh_links(w, h);
    // Master draws: enough placements for the largest fraction, all at
    // cycle 1. Prefixes of each placement order are themselves valid
    // connected schedules (connectivity was checked incrementally), so
    // each draw contributes a *nested* family of fault sets; averaging
    // across independent draws smooths out the luck of any single
    // up*/down* tree reshaping.
    let max_pct = *FRACTIONS_PCT.iter().max().expect("fractions nonempty");
    let want = (total_links * max_pct / 100) as usize;
    let masters: Vec<HardFaultSchedule> = (0..DRAWS)
        .map(|d| {
            HardFaultSchedule::random(
                Mesh::new(w, h),
                want,
                0,
                (1, 1),
                base.seed ^ 0x5EED_000D ^ d,
            )
        })
        .collect();
    for master in &masters {
        if master.entries.len() < want {
            eprintln!(
                "note: a draw saturated at {} of {} requested link faults; \
                 its top fractions share that topology",
                master.entries.len(),
                want
            );
        }
    }

    let mut rows = Vec::new();
    for pct in FRACTIONS_PCT {
        // 0% is fault-free and so draw-independent: run it once.
        let draws = if pct == 0 {
            &masters[..1]
        } else {
            &masters[..]
        };
        let mut sums = vec![(0.0f64, 0.0f64); SCHEMES.len()];
        let mut k_shown = 0;
        for master in draws {
            let k = ((total_links * pct / 100) as usize).min(master.entries.len());
            k_shown = k;
            let mut campaign = base.clone();
            if k > 0 {
                campaign.hard_faults = Some(Arc::new(HardFaultSchedule::explicit(
                    Mesh::new(w, h),
                    master.entries[..k].to_vec(),
                )));
            }
            let result = run_campaign(&campaign);
            for (i, &scheme) in SCHEMES.iter().enumerate() {
                let reports: Vec<&ExperimentReport> = result
                    .reports
                    .iter()
                    .filter(|r| r.scheme == scheme)
                    .collect();
                assert!(!reports.is_empty(), "campaign ran every scheme");
                let n = reports.len() as f64;
                sums[i].0 += reports.iter().map(|r| throughput(r)).sum::<f64>() / n;
                sums[i].1 += reports.iter().map(|r| delivered_fraction(r)).sum::<f64>() / n;
            }
        }
        let n = draws.len() as f64;
        let cells: Vec<(f64, f64)> = sums.iter().map(|&(t, f)| (t / n, f / n)).collect();
        rows.push((pct, k_shown, cells));
    }

    let mut table = String::new();
    writeln!(
        table,
        "# graceful degradation (uniform near-saturation load, nested fault sets)"
    )
    .unwrap();
    writeln!(
        table,
        "# throughput = delivered flits / makespan cycle; frac = delivered / offered packets"
    )
    .unwrap();
    write!(table, "{:>8}{:>8}", "%links", "faults").unwrap();
    for scheme in SCHEMES {
        write!(table, "{:>12}{:>10}", format!("{scheme} thr"), "frac").unwrap();
    }
    writeln!(table).unwrap();
    for (pct, k, cells) in &rows {
        write!(table, "{pct:>8}{k:>8}").unwrap();
        for (thr, frac) in cells {
            write!(table, "{thr:>12.4}{frac:>10.4}").unwrap();
        }
        writeln!(table).unwrap();
    }
    print!("{table}");
    write_output("fig_degradation.txt", &table);
    export_telemetry(&base.telemetry);
}
