//! Differential coverage for the decision-tree *training* path.
//!
//! The reference network model cross-checks the data plane, but both
//! backends share `DecisionTree::fit` — so a training bug would sail
//! through the fuzz oracle undetected. These tests close the gap:
//!
//! * the production trainer is diffed bit-for-bit against the
//!   independent naive trainer in `rlnoc_verify::reftree` over fuzzed
//!   sample sets (including production-shaped Table-I feature vectors);
//! * the default `verify_fuzz` case stream is proven to contain
//!   DT-with-pretraining cases, so the end-to-end oracle really does
//!   execute training;
//! * one explicit DT-with-pretraining case runs through both backends
//!   and must agree bit-for-bit.

use noc_rl::decision_tree::{DecisionTree, TreeParams};
use noc_sim::flit::splitmix64;
use rlnoc_core::experiment::ErrorControlScheme;
use rlnoc_core::fuzzcase::FuzzCase;
use rlnoc_verify::{run_case, RefTree};

/// The default seed of the `verify_fuzz` binary's case stream — keep in
/// sync with `src/bin/verify_fuzz.rs`.
const VERIFY_FUZZ_DEFAULT_SEED: u64 = 0x5EED_F022;

/// Deterministic value stream for building fuzzed training sets.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform-ish f64 in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A fuzzed regression dataset. Features are a mix of continuous and
/// coarsely quantized columns (the quantization forces the duplicate
/// values whose tie handling is the subtlest part of split search).
fn fuzz_dataset(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut s = Stream(seed);
    let n = 1 + (s.next() % 96) as usize;
    let dim = 1 + (s.next() % 6) as usize;
    let quantized: Vec<bool> = (0..dim).map(|_| s.next().is_multiple_of(2)).collect();
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = quantized
            .iter()
            .map(|&q| {
                if q {
                    (s.next() % 5) as f64 / 4.0
                } else {
                    s.unit() * 100.0 - 50.0
                }
            })
            .collect();
        // A weak signal plus deterministic noise keeps trees non-trivial.
        let y = row.iter().sum::<f64>() * 0.1 + s.unit();
        xs.push(row);
        ys.push(y);
    }
    (xs, ys)
}

fn assert_trees_agree(xs: &[Vec<f64>], ys: &[f64], params: TreeParams, label: &str) {
    let production = DecisionTree::fit(xs, ys, params);
    let reference = RefTree::fit(xs, ys, params);
    assert_eq!(
        production.num_nodes(),
        reference.num_nodes(),
        "{label}: node counts differ"
    );
    // Bit-exact predictions on every training row…
    for (i, x) in xs.iter().enumerate() {
        assert_eq!(
            production.predict(x).to_bits(),
            reference.predict(x).to_bits(),
            "{label}: training row {i} predicts differently"
        );
    }
    // …and on off-sample probes straddling the split boundaries.
    let dim = xs[0].len();
    let mut s = Stream(0xABCD ^ xs.len() as u64);
    for probe in 0..64 {
        let x: Vec<f64> = (0..dim).map(|_| s.unit() * 120.0 - 60.0).collect();
        assert_eq!(
            production.predict(&x).to_bits(),
            reference.predict(&x).to_bits(),
            "{label}: probe {probe} predicts differently"
        );
    }
}

#[test]
fn production_fit_matches_reference_on_fuzzed_datasets() {
    for case in 0..120u64 {
        let (xs, ys) = fuzz_dataset(0xD7_0001 + case);
        assert_trees_agree(&xs, &ys, TreeParams::default(), &format!("case {case}"));
    }
}

#[test]
fn production_fit_matches_reference_across_params() {
    let variants = [
        TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        },
        TreeParams {
            max_depth: 2,
            min_samples_split: 2,
            min_variance: 0.0,
        },
        TreeParams {
            max_depth: 12,
            min_samples_split: 2,
            min_variance: 0.0,
        },
        TreeParams {
            max_depth: 6,
            min_samples_split: 40,
            min_variance: 1e-3,
        },
    ];
    for (v, params) in variants.into_iter().enumerate() {
        for case in 0..24u64 {
            let (xs, ys) = fuzz_dataset(0xD7_1000 + case);
            assert_trees_agree(&xs, &ys, params, &format!("variant {v} case {case}"));
        }
    }
}

#[test]
fn production_fit_matches_reference_on_table_i_shaped_samples() {
    // The production training set: six Table-I router features per
    // sample, error-rate labels in [0, 1] — including long stretches of
    // (near-)identical rows, which is what an idle router produces.
    let mut s = Stream(0xD7_2000);
    for case in 0..40 {
        let n = 8 + (s.next() % 200) as usize;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let idle = s.next().is_multiple_of(3);
            let row = if idle {
                vec![0.0, 0.0, 0.0, 0.0, 0.0, 45.0]
            } else {
                vec![
                    s.unit(),               // buffer occupancy
                    s.unit(),               // input utilization
                    s.unit(),               // output utilization
                    s.unit() * 0.2,         // input NACK rate
                    s.unit() * 0.2,         // output NACK rate
                    40.0 + s.unit() * 60.0, // temperature °C
                ]
            };
            let y = if idle { 1e-9 } else { s.unit() * 0.05 };
            xs.push(row);
            ys.push(y);
        }
        assert_trees_agree(
            &xs,
            &ys,
            TreeParams::default(),
            &format!("table-i case {case}"),
        );
    }
}

#[test]
fn default_fuzz_stream_covers_dt_training() {
    // The end-to-end oracle only exercises training if the case stream
    // actually draws DT cases with a pre-training budget. Pin that
    // coverage for the default stream (and its first CI-sized batch).
    let dt_pretrained = (0..200)
        .map(|i| FuzzCase::generate(VERIFY_FUZZ_DEFAULT_SEED, i))
        .filter(|c| c.scheme == ErrorControlScheme::DecisionTree && c.pretrain_cycles > 0)
        .count();
    assert!(
        dt_pretrained >= 10,
        "default fuzz stream exercises DT training only {dt_pretrained}/200 times"
    );
}

#[test]
fn dt_case_with_pretraining_agrees_end_to_end() {
    // One explicit DT case whose pre-training window is guaranteed to
    // collect samples and fit a tree, run on both backends.
    let case = (0..)
        .map(|i| FuzzCase::generate(VERIFY_FUZZ_DEFAULT_SEED, i))
        .find(|c| c.scheme == ErrorControlScheme::DecisionTree && c.pretrain_cycles > 0)
        .expect("stream contains DT training cases");
    let out = run_case(&case);
    assert!(
        out.agrees(),
        "DT training case diverged:\ndiffs: {:?}",
        out.diffs
    );
}
