//! Define a custom phase-structured workload and run it under two
//! schemes.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use rlnoc::core::benchmarks::{PhaseSpec, WorkloadProfile};
use rlnoc::core::experiment::{ErrorControlScheme, Experiment};
use rlnoc::sim::topology::NodeId;
use rlnoc::sim::traffic::TrafficPattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A bursty workload with a hotspot phase — e.g. a MapReduce-style
    // shuffle alternating with local computation.
    let workload = WorkloadProfile {
        name: "shuffle",
        phases: vec![
            PhaseSpec {
                cycles: 400,
                injection_rate: 0.025,
                pattern: TrafficPattern::Hotspot {
                    hotspot: NodeId(36),
                    fraction: 0.4,
                },
            },
            PhaseSpec {
                cycles: 600,
                injection_rate: 0.008,
                pattern: TrafficPattern::NearestNeighbor,
            },
        ],
        duration_cycles: 25_000,
    };

    for scheme in [
        ErrorControlScheme::StaticCrc,
        ErrorControlScheme::ProposedRl,
    ] {
        let report = Experiment::builder()
            .scheme(scheme)
            .workload(workload.clone())
            .seed(9)
            .pretrain_cycles(150_000)
            .build()?
            .run();
        println!(
            "{:<8} latency {:>7.1} cycles, retx {:>8.1} pkts, efficiency {:.3e} flits/J",
            scheme.to_string(),
            report.avg_latency_cycles,
            report.retransmitted_packets_equiv,
            report.energy_efficiency()
        );
    }
    Ok(())
}
