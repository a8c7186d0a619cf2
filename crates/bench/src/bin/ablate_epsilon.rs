//! Ablation: exploration probability ε.
//!
//! The paper fixes ε = 0.1. This sweep shows the trade-off: ε = 0 cannot
//! track regime changes after pre-training, large ε pays a growing
//! exploration tax (random bad modes during measurement). Each row holds
//! its ε through pre-training and measurement alike.

use noc_rl::agent::AgentConfig;
use noc_rl::schedule::Schedule;
use rlnoc_bench::{export_telemetry, telemetry_from_env};
use rlnoc_core::benchmarks::WorkloadProfile;
use rlnoc_core::experiment::{ErrorControlScheme, Experiment, ExperimentBuilder};
use rlnoc_telemetry::Telemetry;

/// The experiment of the row for `epsilon`, before its phase lengths
/// are set.
fn variant(epsilon: f64, telemetry: &Telemetry) -> ExperimentBuilder {
    Experiment::builder()
        .scheme(ErrorControlScheme::ProposedRl)
        .workload(WorkloadProfile::canneal())
        .seed(2019)
        .telemetry(telemetry.clone())
        .rl_config(AgentConfig {
            epsilon: Schedule::Constant(epsilon),
            alpha: Schedule::Exponential {
                from: 0.4,
                decay: 0.997,
                floor: 0.1,
            },
            ..AgentConfig::paper_default()
        })
        .measurement_epsilon(epsilon)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let telemetry = telemetry_from_env();
    println!("=== Ablation: exploration probability ε (canneal, RL scheme) ===\n");
    println!(
        "{:>6}{:>12}{:>14}{:>14}{:>16}",
        "ε", "latency", "retx (pkts)", "exec cycles", "eff (flits/J)"
    );
    let reports = rlnoc_bench::run_variants(vec![0.0, 0.05, 0.1, 0.2, 0.4], |epsilon| {
        let mut builder = variant(epsilon, &telemetry);
        if quick {
            builder = builder
                .noc(noc_sim::config::NocConfig::builder().mesh(4, 4).build())
                .pretrain_cycles(20_000)
                .measure_cycles(8_000);
        } else {
            builder = builder.measure_cycles(20_000);
        }
        (
            epsilon,
            builder.build().expect("valid ablation config").run(),
        )
    });
    for (epsilon, report) in reports {
        println!(
            "{:>6.2}{:>12.2}{:>14.1}{:>14}{:>16.3e}",
            epsilon,
            report.avg_latency_cycles,
            report.retransmitted_packets_equiv,
            report.execution_cycles,
            report.energy_efficiency()
        );
    }
    export_telemetry(&telemetry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_row_epsilon_holds_through_measurement() {
        let (_, artifacts) = variant(0.4, &Telemetry::disabled())
            .noc(noc_sim::config::NocConfig::builder().mesh(4, 4).build())
            .pretrain_cycles(2_000)
            .warmup_cycles(500)
            .measure_cycles(1_000)
            .build()
            .expect("valid ablation config")
            .run_inspect();
        let (agents, _) = artifacts.controllers.rl_agents().expect("RL scheme");
        assert!(!agents.is_empty());
        for agent in agents {
            assert_eq!(agent.current_epsilon(), 0.4);
        }
    }
}
