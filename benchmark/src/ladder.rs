//! The layer ladder: fixed-iteration micro-timings of one public call
//! per layer, median of 11 batches, emitted in the traced run of the
//! workload that leans on that layer.
//!
//! Inputs vary with the iteration counter and results pass through
//! `black_box`, so the compiler can neither hoist the call out of the
//! loop nor delete it.

use crate::output::Metric;
use crate::scratch::Scratch;
use crate::stats::median;
use noc_coding::crc::Crc32;
use noc_coding::hamming::Secded64;
use noc_fault::hardfault::HardFaultSchedule;
use noc_fault::injector::{ErrorThreshold, FaultInjector};
use noc_fault::thermal::{ThermalModel, ThermalParams};
use noc_fault::timing::TimingErrorModel;
use noc_fault::variation::VariationMap;
use noc_power::energy::EnergyModel;
use noc_rl::agent::{AgentConfig, QLearningAgent};
use noc_rl::decision_tree::{DecisionTree, TreeParams};
use noc_rl::snapshot::PolicySnapshot;
use noc_rl::state::StateSpace;
use noc_sim::config::NocConfig;
use noc_sim::error_control::{ErrorControl, PerfectLink};
use noc_sim::network::{Network, SharedTables};
use noc_sim::routing::FaultRoutes;
use noc_sim::traffic::{SyntheticSource, TrafficPattern, TrafficSource};
use noc_topo::{Direction, NodeId, Topo, Torus};
use rlnoc_core::modes::OperationMode;
use rlnoc_core::protocol::FaultTolerantProtocol;
use rlnoc_core::spec::CampaignSpec;
use rlnoc_core::{ErrorControlScheme, Experiment, ExperimentReport, WorkloadProfile};
use rlnoc_runner::CheckpointDir;
use rlnoc_serve::{read_frame, write_frame, FairScheduler, Frame, FrameType};
use rlnoc_telemetry::Telemetry;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 11;

/// Median over [`BATCHES`] batches of the mean time of one of `iters`
/// calls, in nanoseconds. `f` receives a counter that never repeats.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    let mut n = 0u64;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..iters {
            f(n);
            n += 1;
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&per_call)
}

fn metric(name: &'static str, ns: f64, unit: &'static str) -> Metric {
    let scale = match unit {
        "ns" => 1.0,
        "us" => 1e-3,
        "ms" => 1e-6,
        other => unreachable!("ladder unit {other}"),
    };
    Metric {
        name,
        value: ns * scale,
        unit,
    }
}

fn step_with_traffic<E: ErrorControl>(net: &mut Network<E>, traffic: &mut SyntheticSource) {
    let cycle = net.cycle();
    let mut offers = Vec::new();
    traffic.generate(cycle, &mut |s, d| offers.push((s, d)));
    for (s, d) in offers {
        net.offer(s, d);
    }
    net.step();
}

/// `hot_static_8x8`: coding kernels, the error draw, a loaded network
/// cycle under the full protocol, packet admission, the energy sum.
pub fn hot_static(seed: u64) -> Vec<Metric> {
    let word = |n: u64| n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
    let mut out = Vec::new();

    out.push(metric(
        "noc-coding.secded64_encode_ns",
        ns_per_call(200_000, |n| {
            black_box(Secded64::encode(black_box(word(n))));
        }),
        "ns",
    ));
    let clean: Vec<Secded64> = (0..256).map(|n| Secded64::encode(word(n))).collect();
    out.push(metric(
        "noc-coding.secded64_decode_clean_ns",
        ns_per_call(200_000, |n| {
            black_box(black_box(clean[(n % 256) as usize]).decode());
        }),
        "ns",
    ));
    let flipped: Vec<Secded64> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| c.with_bit_flipped(i as u32 % 64))
        .collect();
    out.push(metric(
        "noc-coding.secded64_decode_correct_ns",
        ns_per_call(200_000, |n| {
            black_box(black_box(flipped[(n % 256) as usize]).decode());
        }),
        "ns",
    ));
    let crc = Crc32::new();
    out.push(metric(
        "noc-coding.crc32_words_ns",
        ns_per_call(200_000, |n| {
            black_box(crc.checksum_words(black_box(&[word(n), !word(n)])));
        }),
        "ns",
    ));

    let model = TimingErrorModel::default();
    let threshold = ErrorThreshold::from_probability(0.01);
    let mut injector = FaultInjector::new(seed);
    out.push(metric(
        "noc-fault.error_draw_ns",
        ns_per_call(400_000, |_| {
            black_box(injector.sample_flips_at(&model, black_box(threshold)));
        }),
        "ns",
    ));

    // A hot, ECC-on 8×8 network at canneal's mean load: the busy-router
    // side of the cycle kernel with real coding and fault draws.
    let config = NocConfig::default();
    let mut protocol = FaultTolerantProtocol::new(
        config.mesh,
        TimingErrorModel::default(),
        VariationMap::uniform(8, 8),
        seed,
    );
    protocol.set_all_modes(OperationMode::Mode1);
    protocol.set_temperatures(&[85.0; 64]);
    let mut net = Network::new(config, protocol, seed);
    let rate = WorkloadProfile::canneal().mean_injection_rate();
    let mut traffic = SyntheticSource::new(net.mesh(), TrafficPattern::UniformRandom, rate, seed);
    for _ in 0..2_000 {
        step_with_traffic(&mut net, &mut traffic);
    }
    out.push(metric(
        "noc-sim.step_loaded_us",
        ns_per_call(1_000, |_| step_with_traffic(&mut net, &mut traffic)),
        "us",
    ));
    let counters = net.counters().to_vec();
    let energy = EnergyModel::default();
    out.push(metric(
        "noc-power.dynamic_energy_ns",
        ns_per_call(200_000, |n| {
            black_box(energy.dynamic_energy(black_box(&counters[(n % 64) as usize])));
        }),
        "ns",
    ));

    // Admission alone: offers into an idle perfect-link network, drained
    // between batches so source queues stay short.
    let mut idle = Network::new(config, PerfectLink::new(), seed);
    let mut per_call = Vec::with_capacity(BATCHES);
    let mut n = 0u16;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..2_000 {
            let src = NodeId(n % 64);
            let dst = NodeId((n / 64 + 1 + n % 64) % 64);
            black_box(idle.offer(src, dst));
            n = (n + 1) % 4_032;
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / 2_000.0);
        idle.run_until_quiescent(1_000_000);
    }
    out.push(metric("noc-sim.offer_ns", median(&per_call), "ns"));
    out
}

/// `cool_adaptive_8x8`: the agent step, the decision tree, a policy
/// snapshot, the thermal update, an idle network cycle, building an
/// experiment, and a telemetry timer that is switched off.
pub fn cool_adaptive(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let space = StateSpace::paper_default();
    let states = space.num_states() as u64;
    let mut agent = QLearningAgent::new(space.num_states(), AgentConfig::paper_default(), seed);
    out.push(metric(
        "noc-rl.agent_step_ns",
        ns_per_call(200_000, |n| {
            let state = (n.wrapping_mul(2_654_435_761) % states) as usize;
            black_box(agent.observe_and_act(black_box(state), 1.0 + (n % 7) as f64 * 0.1));
        }),
        "ns",
    ));

    let xs: Vec<Vec<f64>> = (0..512u64)
        .map(|i| {
            let i = i.wrapping_add(seed % 97);
            vec![
                (i % 20) as f64,
                (i % 7) as f64 / 20.0,
                (i % 11) as f64 / 30.0,
                (i % 5) as f64 / 1000.0,
                (i % 3) as f64 / 1000.0,
                50.0 + (i % 50) as f64,
            ]
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 1e-3 * ((x[5] - 50.0) * 0.078).exp())
        .collect();
    out.push(metric(
        "noc-rl.dt_fit_ms",
        ns_per_call(4, |_| {
            black_box(DecisionTree::fit(
                black_box(&xs),
                &ys,
                TreeParams::default(),
            ));
        }),
        "ms",
    ));
    let tree = DecisionTree::fit(&xs, &ys, TreeParams::default());
    out.push(metric(
        "noc-rl.dt_predict_ns",
        ns_per_call(400_000, |n| {
            black_box(tree.predict(black_box(&xs[(n % 512) as usize])));
        }),
        "ns",
    ));

    // One agent's table captured and serialised; the 8×8 bank is 64 of
    // these.
    let table = agent.q_table().clone();
    let mut buf = Vec::new();
    out.push(metric(
        "noc-rl.policy_snapshot_us",
        ns_per_call(1, |_| {
            buf.clear();
            PolicySnapshot::new(vec![black_box(&table).clone()])
                .write(&mut buf)
                .expect("write to memory");
            black_box(buf.len());
        }),
        "us",
    ));

    let mut thermal = ThermalModel::new(8, 8, ThermalParams::default());
    let powers: Vec<f64> = (0..64).map(|i| 0.05 + (i % 8) as f64 * 0.01).collect();
    out.push(metric(
        "noc-fault.thermal_update_us",
        ns_per_call(20_000, |_| thermal.update(black_box(&powers), 1e-6)),
        "us",
    ));

    let mut idle = Network::new(NocConfig::default(), PerfectLink::new(), seed);
    out.push(metric(
        "noc-sim.step_idle_ns",
        ns_per_call(400_000, |_| idle.step()),
        "ns",
    ));

    out.push(metric(
        "rlnoc-core.experiment_build_us",
        ns_per_call(20_000, |n| {
            black_box(
                Experiment::builder()
                    .scheme(ErrorControlScheme::ProposedRl)
                    .workload(WorkloadProfile::blackscholes())
                    .seed(black_box(seed ^ n))
                    .build()
                    .expect("valid experiment"),
            );
        }),
        "us",
    ));

    let timer = Telemetry::disabled().timer("ladder");
    out.push(metric(
        "rlnoc-telemetry.disabled_timer_ns",
        ns_per_call(2_000_000, |_| drop(black_box(&timer).start())),
        "ns",
    ));
    out
}

/// `fault_churn_torus16`: the reroute solver, drawing a schedule, the
/// healthy tables, a minimal-route lookup, and a checkpoint's store
/// and load.
pub fn fault_churn(
    seed: u64,
    schedule: &HardFaultSchedule,
    report: &ExperimentReport,
    scratch: &Scratch,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let topo: Topo = Torus::new(16, 16).into();

    // The solver's input after the whole schedule has applied: what the
    // last reroute of a task computes.
    let mut node_alive = vec![true; topo.num_nodes()];
    let mut link_dead = vec![[false; 8]; topo.num_nodes()];
    for entry in &schedule.entries {
        match entry.fault {
            noc_fault::hardfault::HardFault::Router { node } => {
                node_alive[usize::from(node)] = false;
            }
            noc_fault::hardfault::HardFault::Link { node, dir } => {
                link_dead[usize::from(node)][dir.index()] = true;
                if let Some(peer) = topo.neighbor(NodeId(node), dir) {
                    link_dead[peer.index()][dir.opposite().index()] = true;
                }
            }
        }
    }
    let link_alive = |node: NodeId, dir: Direction| {
        node_alive[node.index()]
            && !link_dead[node.index()][dir.index()]
            && topo
                .neighbor(node, dir)
                .is_some_and(|peer| node_alive[peer.index()])
    };
    out.push(metric(
        "noc-sim.fault_routes_compute_ms",
        ns_per_call(8, |_| {
            black_box(FaultRoutes::compute(
                topo,
                black_box(&node_alive),
                link_alive,
            ));
        }),
        "ms",
    ));
    out.push(metric(
        "noc-fault.schedule_random_ms",
        ns_per_call(4, |n| {
            black_box(HardFaultSchedule::random(
                topo,
                40,
                2,
                (600, 6_400),
                black_box(seed ^ n),
            ));
        }),
        "ms",
    ));
    out.push(metric(
        "noc-topo.tables_build_us",
        ns_per_call(20, |_| {
            black_box(SharedTables::new(black_box(topo)));
        }),
        "us",
    ));
    out.push(metric(
        "noc-topo.min_route_ns",
        ns_per_call(400_000, |n| {
            let cur = NodeId((n % 256) as u16);
            let dst = NodeId((n.wrapping_mul(167) % 256) as u16);
            black_box(topo.min_route(black_box(cur), black_box(dst)));
        }),
        "ns",
    ));

    let dir = scratch.fresh("ladder-ckpt");
    let ckpt = CheckpointDir::open(dir.path(), seed, 64).expect("scratch is writable");
    out.push(metric(
        "rlnoc-runner.checkpoint_store_us",
        ns_per_call(500, |n| {
            ckpt.store((n % 64) as usize, black_box(report))
                .expect("scratch is writable");
        }),
        "us",
    ));
    out.push(metric(
        "rlnoc-runner.checkpoint_load_us",
        ns_per_call(500, |n| {
            black_box(ckpt.load((n % 64) as usize).expect("stored above"));
        }),
        "us",
    ));
    out
}

/// `serve_mixed`: one wire frame out and back, one scheduler
/// enqueue-and-pop, one spec through its text form.
pub fn serve_mixed(seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let spec_text = CampaignSpec::tiny(seed).to_text();
    let payload = format!("tenant=alpha\npriority=1\nspec\n{spec_text}");
    let mut wire = Vec::new();
    out.push(metric(
        "rlnoc-serve.frame_roundtrip_ns",
        ns_per_call(100_000, |_| {
            wire.clear();
            write_frame(
                &mut wire,
                &Frame::text(FrameType::Submit, black_box(&payload)),
            )
            .expect("write to memory");
            black_box(read_frame(&mut wire.as_slice()).expect("frame just written"));
        }),
        "ns",
    ));
    let sched: FairScheduler<u64> = FairScheduler::new();
    out.push(metric(
        "rlnoc-serve.sched_enqueue_pop_ns",
        ns_per_call(200_000, |n| {
            sched.enqueue(if n % 2 == 0 { "alpha" } else { "bravo" }, 1, [n]);
            black_box(sched.pop());
        }),
        "ns",
    ));
    out.push(metric(
        "rlnoc-core.spec_roundtrip_us",
        ns_per_call(20_000, |n| {
            let text = CampaignSpec::tiny(black_box(seed ^ n)).to_text();
            black_box(CampaignSpec::from_text(&text).expect("spec just rendered"));
        }),
        "us",
    ));
    out
}
