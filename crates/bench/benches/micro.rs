//! Micro-benchmarks of the hot primitives.
//!
//! `rl_step` quantifies the paper's §VI-B computation-overhead claim
//! (worst-case 150 ns per RL step in hardware; the software step should
//! be of comparable magnitude). The coding benches justify running real
//! SECDED/CRC in the simulator's hot loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use noc_coding::crc::Crc32;
use noc_coding::hamming::{Secded32, Secded64};
use noc_rl::agent::{AgentConfig, QLearningAgent};
use noc_rl::decision_tree::{DecisionTree, TreeParams};
use noc_rl::state::{RouterFeatures, StateSpace};
use noc_sim::arbiter::RoundRobinArbiter;

fn bench_crc(c: &mut Criterion) {
    let crc = Crc32::new();
    let payload = [0x0123_4567_89AB_CDEFu64, 0xFEDC_BA98_7654_3210u64];
    c.bench_function("crc32_flit_checksum", |b| {
        b.iter(|| crc.checksum_words(black_box(&payload)))
    });
    // Longer payload exercising the slicing-by-8 loop plus remainder.
    let buf: Vec<u8> = (0..67u32)
        .map(|i| (i.wrapping_mul(97) >> 3) as u8)
        .collect();
    c.bench_function("crc32_checksum_67B", |b| {
        b.iter(|| crc.checksum(black_box(&buf)))
    });
}

fn bench_secded(c: &mut Criterion) {
    c.bench_function("secded64_encode", |b| {
        b.iter(|| Secded64::encode(black_box(0xA5A5_5A5A_0FF0_F00F)))
    });
    let clean = Secded64::encode(0xA5A5_5A5A_0FF0_F00F);
    c.bench_function("secded64_decode_clean", |b| {
        b.iter(|| black_box(clean).decode())
    });
    let flipped = clean.with_bit_flipped(17);
    c.bench_function("secded64_decode_corrects", |b| {
        b.iter(|| black_box(flipped).decode())
    });
    c.bench_function("secded32_encode", |b| {
        b.iter(|| Secded32::encode(black_box(0xC0DE_F00D)))
    });
    let clean32 = Secded32::encode(0xC0DE_F00D);
    c.bench_function("secded32_decode_clean", |b| {
        b.iter(|| black_box(clean32).decode())
    });
}

fn bench_fault_draw(c: &mut Criterion) {
    use noc_fault::injector::{ErrorThreshold, FaultInjector};
    use noc_fault::timing::TimingErrorModel;
    let model = TimingErrorModel::default();
    let threshold = ErrorThreshold::from_probability(0.01);
    let mut scalar = FaultInjector::new(7);
    c.bench_function("fault_draw_threshold", |b| {
        b.iter(|| scalar.sample_flips_at(&model, black_box(threshold)))
    });
}

fn bench_rl_step(c: &mut Criterion) {
    let space = StateSpace::paper_default();
    let mut agent = QLearningAgent::new(space.num_states(), AgentConfig::paper_default(), 1);
    let features = RouterFeatures {
        buffer_occupancy: 3.0,
        input_utilization: 0.1,
        output_utilization: 0.12,
        input_nack_rate: 1e-3,
        output_nack_rate: 2e-3,
        temperature_c: 75.0,
        ..Default::default()
    };
    agent.observe_and_act(0, 0.0);
    c.bench_function("rl_step_discretize_update_select", |b| {
        b.iter(|| {
            let state = space.discretize(black_box(&features));
            agent.observe_and_act(state, black_box(1.1))
        })
    });
}

fn bench_dt_predict(c: &mut Criterion) {
    let xs: Vec<Vec<f64>> = (0..512)
        .map(|i| {
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
    let tree = DecisionTree::fit(&xs, &ys, TreeParams::default());
    let probe = vec![3.0, 0.1, 0.12, 1e-3, 2e-3, 80.0];
    c.bench_function("dt_predict", |b| b.iter(|| tree.predict(black_box(&probe))));
}

fn bench_arbiter(c: &mut Criterion) {
    let mut arb = RoundRobinArbiter::new(20);
    let mut requests = [false; 20];
    for i in (0..20).step_by(3) {
        requests[i] = true;
    }
    c.bench_function("round_robin_grant_20", |b| {
        b.iter(|| arb.grant(black_box(&requests)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets =
    bench_crc,
    bench_secded,
    bench_fault_draw,
    bench_rl_step,
    bench_dt_predict,
    bench_arbiter
}
criterion_main!(benches);
