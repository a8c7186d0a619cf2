//! Regenerates §VI-B: the area, energy, and computation overhead
//! analysis of the proposed RL router.

use noc_power::area::{AreaModel, RouterVariant};
use noc_power::params::PowerParams;
use noc_sim::config::NocConfig;

/// The paper's 1 K-cycle control epoch, which is also
/// `Experiment::builder()`'s default `epoch_cycles`.
const EPOCH_CYCLES: u64 = 1_000;
/// §VI-B: worst-case latency of one RL step in the synthesised router.
const PAPER_STEP_NS: f64 = 150.0;

fn main() {
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
