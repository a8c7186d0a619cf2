//! Regenerates every number EXPERIMENTS.md quotes: the evaluation
//! figures (Figs. 6–10) from one campaign, the adaptive schemes'
//! mode-0 share behind the crossover, and the §VI-B area, energy and
//! computation overheads. Its stdout at the default campaign is
//! committed as `crates/bench/figures.txt`, and CI diffs a fresh run
//! against it.
//!
//! ```text
//! cargo run --release -p rlnoc-bench --bin figures > crates/bench/figures.txt
//! cargo run --release -p rlnoc-bench --bin figures -- --quick # smoke run
//! RLNOC_JOBS=8 SNAPSHOT_DIR=out/snap cargo run --release -p rlnoc-bench --bin figures
//! ```

use noc_power::area::{AreaModel, RouterVariant};
use noc_power::params::PowerParams;
use noc_sim::config::NocConfig;
use rlnoc_bench::{banner, campaign_from_env, export_telemetry, run_campaign};
use rlnoc_core::campaign::CampaignResult;
use rlnoc_core::experiment::{ErrorControlScheme, ExperimentReport};

/// The paper's 1 K-cycle control epoch, which is also
/// `Experiment::builder()`'s default `epoch_cycles`.
const EPOCH_CYCLES: u64 = 1_000;
/// §VI-B: worst-case latency of one RL step in the synthesised router.
const PAPER_STEP_NS: f64 = 150.0;

/// One evaluation figure: its banner, what the paper reports, the
/// table's title and the per-report metric it normalizes to CRC.
type Figure = (
    &'static str,
    &'static str,
    &'static str,
    fn(&ExperimentReport) -> f64,
);

/// Figs. 6–10, in the paper's order.
const FIGURES: [Figure; 5] = [
    (
        "Fig. 6 — retransmitted packets",
        "RL −48% vs CRC on average; ARQ+ECC −33%; RL 15% below ARQ+ECC",
        "retransmission traffic (packet equivalents)",
        |r| r.retransmitted_packets_equiv.max(0.5),
    ),
    (
        "Fig. 7 — execution-time speed-up",
        "RL 1.25× over CRC on average",
        "speed-up = CRC makespan / scheme makespan",
        |r| 1.0 / r.execution_cycles.max(1) as f64,
    ),
    (
        "Fig. 8 — average end-to-end latency",
        "RL −55% vs CRC; ARQ+ECC −30%; RL 10% below DT",
        "mean end-to-end packet latency",
        |r| r.avg_latency_cycles,
    ),
    (
        "Fig. 9 — energy efficiency (flits/energy)",
        "RL +64% vs CRC; RL 15% above DT",
        "energy efficiency",
        ExperimentReport::energy_efficiency,
    ),
    (
        "Fig. 10 — dynamic power",
        "RL −46% vs CRC; RL 17% below DT",
        "mean dynamic power",
        ExperimentReport::dynamic_power_w,
    ),
];

fn main() {
    let campaign = campaign_from_env();
    let t0 = std::time::Instant::now();
    let result = run_campaign(&campaign);
    eprintln!("campaign completed in {:?}", t0.elapsed());

    for (figure, paper_claim, title, metric) in FIGURES {
        banner(figure, paper_claim);
        println!("{}", result.figure_table(title, metric));
    }
    print_mode0_shares(&result);
    print_overheads();
    export_telemetry(&campaign.telemetry);
}

/// The share of a report's measured router-epochs spent in mode 0
/// (ECC off).
fn mode0_share(r: &ExperimentReport) -> f64 {
    let epochs: u64 = r.mode_histogram.iter().sum();
    r.mode_histogram[0] as f64 / epochs.max(1) as f64
}

/// The crossover's evidence: how often each adaptive scheme gates ECC
/// off, per workload. Raw shares, not normalized to CRC.
fn print_mode0_shares(result: &CampaignResult) {
    const ADAPTIVE: [ErrorControlScheme; 2] = [
        ErrorControlScheme::DecisionTree,
        ErrorControlScheme::ProposedRl,
    ];
    println!("=== Mode 0 (ECC off) — share of router-epochs ===");
    println!("paper: adaptive schemes gate ECC off where errors are rare (§III)");
    println!();
    println!("# router-epochs in mode 0 / all router-epochs (not normalized)");
    print!("{:<16}", "benchmark");
    for s in ADAPTIVE {
        print!("{:>10}", s.to_string());
    }
    println!();
    for w in result.workloads() {
        print!("{w:<16}");
        for s in ADAPTIVE {
            match result.report(s, &w) {
                Some(r) => print!("{:>10.3}", mode0_share(r)),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    println!();
}

/// §VI-B: the area, energy, and computation overhead analysis of the
/// proposed RL router.
fn print_overheads() {
    // --- Area (Synopsys DC proxy) ---------------------------------------
    println!("=== §VI-B Area Overhead (32 nm) ===");
    println!("paper: +2360 µm² vs CRC router; 5.5% / 4.8% / 4.5% vs CRC / ARQ+ECC / DT");
    println!();
    let area = AreaModel::default();
    println!(
        "{:<14}{:>14}{:>18}",
        "router", "area (µm²)", "RL overhead (%)"
    );
    for variant in RouterVariant::ALL {
        println!(
            "{:<14}{:>14.0}{:>18.2}",
            variant.to_string(),
            area.router_area(variant),
            100.0 * area.rl_overhead_fraction(variant)
        );
    }
    println!(
        "\nRL adds {:.0} µm² over the CRC router",
        area.rl_overhead_um2(RouterVariant::Crc)
    );

    // --- Energy ----------------------------------------------------------
    println!("\n=== §VI-B Energy Overhead ===");
    println!("paper: 0.16 pJ per flit over a 13.33 pJ baseline = 1.2%");
    println!();
    let p = PowerParams::default();
    println!(
        "baseline flit-hop energy (model): {:.2} pJ",
        p.flit_hop_energy() * 1e12
    );
    println!(
        "RL control overhead per flit:     {:.2} pJ ({:.1}%)",
        PowerParams::RL_FLIT_OVERHEAD * 1e12,
        100.0 * PowerParams::RL_FLIT_OVERHEAD / PowerParams::BASELINE_FLIT_ENERGY
    );

    // --- Computation -------------------------------------------------------
    println!("\n=== §VI-B Computation Overhead ===");
    println!("paper: worst-case 150 ns per RL step, hidden by the 1K-cycle epoch");
    println!();
    let noc = NocConfig::default();
    let budget_ns = EPOCH_CYCLES as f64 * noc.clock_period() * 1e9;
    println!(
        "epoch budget: {EPOCH_CYCLES} cycles at {:.1} GHz = {budget_ns:.0} ns",
        noc.frequency / 1e9
    );
    println!(
        "paper's hardware bound: {PAPER_STEP_NS:.0} ns = {:.0}% of the budget → overhead hidden",
        100.0 * PAPER_STEP_NS / budget_ns
    );
    println!(
        "measured software step (TD update + ε-greedy select on a hashed state): \
         per-layer metric noc-rl.agent_step_ns of\n  \
         cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
         --workload cool_adaptive_8x8 --seed 2019 --trace 1"
    );
}
