//! Reference CART trainer: an independent, naive implementation of the
//! decision-tree *training* algorithm, for differential testing against
//! the production `noc_rl::decision_tree::DecisionTree::fit`.
//!
//! The reference network model (`refnet`/`refproto`) re-implements the
//! data plane, but both backends share the controller layer — including
//! DT training — so the differential oracle alone never cross-checks
//! `fit`. This module closes that gap: a boxed-node recursive trainer
//! with per-node rescans (no shared prefix-sum state, no index
//! indirection, no reserved-slot vector) that must nevertheless produce
//! bit-identical predictions.
//!
//! # The floating-point contract
//!
//! Bit-identity over `f64` requires both trainers to *associate*
//! reductions identically; where the naive choice would differ, the
//! production association is part of the algorithm's contract and is
//! deliberately mirrored here:
//!
//! * node mean and variance accumulate in sample order, left to right;
//! * candidate values sort by `f64::total_cmp` with a stable sort, so
//!   ties keep sample order;
//! * left-side sums accumulate sequentially over the sorted prefix, and
//!   the right side is `total − left` (a subtraction, not a rescan —
//!   the one place the production prefix-sum layout shows through);
//! * split quality is `(ql − sl²/nl) + (qr − sr²/nr)`, thresholds are
//!   midpoints of adjacent distinct values, and the first strictly
//!   smaller SSE wins (feature-major, then split-position order).
//!
//! Everything else — the recursion shape, the node storage, the
//! partition mechanics — is implemented differently on purpose, which
//! is what gives the differential test its teeth.

use noc_rl::decision_tree::TreeParams;

/// A node of the reference tree: a plain boxed binary tree, unlike the
/// production flat `Vec<Node>` arena.
#[derive(Debug, Clone, PartialEq)]
pub enum RefNode {
    /// Mean of the samples that reached this node.
    Leaf(f64),
    /// A binary split on one feature.
    Split {
        /// Feature column index.
        feature: usize,
        /// Decision boundary; `x[feature] <= threshold` goes left.
        threshold: f64,
        /// Subtree for samples at or below the threshold.
        left: Box<RefNode>,
        /// Subtree for samples above the threshold.
        right: Box<RefNode>,
    },
}

/// A regression tree grown by the reference trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct RefTree {
    root: RefNode,
}

impl RefTree {
    /// Fits a reference tree to `(features, targets)`.
    ///
    /// # Panics
    ///
    /// Panics on empty input or mismatched lengths, like the production
    /// trainer.
    pub fn fit(features: &[Vec<f64>], targets: &[f64], params: TreeParams) -> Self {
        assert!(!features.is_empty(), "training set must be non-empty");
        assert_eq!(
            features.len(),
            targets.len(),
            "features/targets length mismatch"
        );
        let samples: Vec<(&[f64], f64)> = features
            .iter()
            .map(Vec::as_slice)
            .zip(targets.iter().copied())
            .collect();
        Self {
            root: grow(&samples, 0, &params),
        }
    }

    /// Predicts the target for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                RefNode::Leaf(value) => return *value,
                RefNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Total node count (splits + leaves).
    pub fn num_nodes(&self) -> usize {
        fn walk(node: &RefNode) -> usize {
            match node {
                RefNode::Leaf(_) => 1,
                RefNode::Split { left, right, .. } => 1 + walk(left) + walk(right),
            }
        }
        walk(&self.root)
    }
}

fn grow(samples: &[(&[f64], f64)], depth: usize, params: &TreeParams) -> RefNode {
    let mean = samples.iter().map(|&(_, y)| y).sum::<f64>() / samples.len() as f64;
    let variance = samples
        .iter()
        .map(|&(_, y)| (y - mean).powi(2))
        .sum::<f64>()
        / samples.len() as f64;
    if depth >= params.max_depth
        || samples.len() < params.min_samples_split
        || variance <= params.min_variance
    {
        return RefNode::Leaf(mean);
    }
    let Some((feature, threshold)) = best_split(samples) else {
        return RefNode::Leaf(mean);
    };
    let left: Vec<(&[f64], f64)> = samples
        .iter()
        .filter(|(x, _)| x[feature] <= threshold)
        .copied()
        .collect();
    let right: Vec<(&[f64], f64)> = samples
        .iter()
        .filter(|(x, _)| x[feature] > threshold)
        .copied()
        .collect();
    if left.is_empty() || right.is_empty() {
        return RefNode::Leaf(mean);
    }
    RefNode::Split {
        feature,
        threshold,
        left: Box::new(grow(&left, depth + 1, params)),
        right: Box::new(grow(&right, depth + 1, params)),
    }
}

/// Naive split search: for every feature and every valid boundary,
/// rescan the sorted prefix to accumulate the left-side sums (the
/// production code keeps prefix-sum arrays instead).
fn best_split(samples: &[(&[f64], f64)]) -> Option<(usize, f64)> {
    let dim = samples[0].0.len();
    let mut best: Option<(usize, f64, f64)> = None;
    for feature in 0..dim {
        let mut values: Vec<(f64, f64)> = samples.iter().map(|&(x, y)| (x[feature], y)).collect();
        values.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = values.len();
        // Whole-node totals, accumulated in sorted order (matches the
        // production prefix_sum[n]/prefix_sq[n]).
        let mut total_sum = 0.0;
        let mut total_sq = 0.0;
        for &(_, y) in &values {
            total_sum += y;
            total_sq += y * y;
        }
        for split in 1..n {
            if values[split - 1].0 == values[split].0 {
                continue;
            }
            // Rescan the prefix sequentially — same association as the
            // production prefix sums, recomputed from scratch.
            let mut sl = 0.0;
            let mut ql = 0.0;
            for &(_, y) in &values[..split] {
                sl += y;
                ql += y * y;
            }
            let (nl, nr) = (split as f64, (n - split) as f64);
            let (sr, qr) = (total_sum - sl, total_sq - ql);
            let sse = (ql - sl * sl / nl) + (qr - sr * sr / nr);
            let threshold = (values[split - 1].0 + values[split].0) / 2.0;
            if best.is_none_or(|(_, _, b)| sse < b) {
                best = Some((feature, threshold, sse));
            }
        }
    }
    best.map(|(f, t, _)| (f, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_targets_collapse_to_one_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let tree = RefTree::fit(&xs, &[2.5; 20], TreeParams::default());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&[7.0]), 2.5);
    }

    #[test]
    fn identical_feature_rows_cannot_split() {
        let xs = vec![vec![1.0, 2.0]; 16];
        let ys: Vec<f64> = (0..16).map(f64::from).collect();
        let tree = RefTree::fit(&xs, &ys, TreeParams::default());
        assert_eq!(tree.num_nodes(), 1, "no valid threshold exists");
    }

    #[test]
    fn learns_a_step() {
        let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..64).map(|i| if i < 32 { 0.0 } else { 1.0 }).collect();
        let tree = RefTree::fit(&xs, &ys, TreeParams::default());
        assert_eq!(tree.predict(&[3.0]), 0.0);
        assert_eq!(tree.predict(&[60.0]), 1.0);
    }
}
