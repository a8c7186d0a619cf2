//! Diagnostic: inspect what the RL agents learned on one workload.
use noc_rl::NUM_ACTIONS;
use rlnoc_bench::{export_telemetry, telemetry_from_env};
use rlnoc_core::benchmarks::WorkloadProfile;
use rlnoc_core::experiment::{ErrorControlScheme, Experiment};

fn main() {
    let telemetry = telemetry_from_env();
    let (report, artifacts) = Experiment::builder()
        .scheme(ErrorControlScheme::ProposedRl)
        .workload(WorkloadProfile::dedup())
        .seed(2019)
        .measure_cycles(20_000)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid")
        .run_inspect();
    println!(
        "lat={:.1} retx_eq={:.0} modes={:?}",
        report.avg_latency_cycles, report.retransmitted_packets_equiv, report.mode_histogram
    );
    let (agents, _space) = artifacts.controllers.rl_agents().expect("rl bank");
    for ri in [0usize, 9, 18, 27] {
        let q = agents[ri].q_table();
        let visited = q.visited_states();
        println!(
            "router {ri}: {} distinct states ({} of {} held in memory), T={:.1}C",
            visited.len(),
            q.touched_states(),
            q.num_states(),
            artifacts.temperatures[ri]
        );
        for &(s, total) in visited.iter().take(6) {
            let row = q.row(s);
            let visits: Vec<u32> = (0..NUM_ACTIONS).map(|a| q.visit_count(s, a)).collect();
            // decode state index: bins are 5,5,5,4,4,5 (buffer, in-util, out-util, nack-in, nack-out, temp)
            let mut idx = s;
            let mut bins = [0usize; 6];
            for (slot, &count) in [5usize, 4, 4, 5, 5, 5].iter().enumerate() {
                bins[5 - slot] = idx % count;
                idx /= count;
            }
            println!(
                "  state {s} [buf={} inU={} outU={} nackI={} nackO={} T={}] visits={total} per-a={visits:?} Q={row:.3?} best={}",
                bins[0], bins[1], bins[2], bins[3], bins[4], bins[5], q.best_action(s)
            );
        }
    }
    export_telemetry(&telemetry);
}
