//! A CART regression tree: the supervised-learning baseline.
//!
//! The paper compares against DiTomaso et al. (MICRO 2016), which trains
//! decision trees offline to *predict the per-link timing-error rate*
//! from router metrics, then selects mitigation modes from the predicted
//! rate. This module provides the tree learner; the mode-selection
//! thresholds live with the controller in `rlnoc-core`.
//!
//! Training uses standard variance-reduction splitting with depth and
//! minimum-samples stopping rules. Inference is a root-to-leaf walk —
//! the cheap, fixed-latency comparator cascade that makes DT attractive
//! in hardware.

use serde::{Deserialize, Serialize};

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes with fewer samples.
    pub min_samples_split: usize,
    /// Do not split nodes whose target variance is already below this.
    pub min_variance: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_samples_split: 8,
            min_variance: 1e-12,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A trained regression tree.
///
/// # Example
///
/// ```
/// use noc_rl::decision_tree::{DecisionTree, TreeParams};
///
/// // y = 1.0 when x0 > 0.5, else 0.0.
/// let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| if x[0] > 0.5 { 1.0 } else { 0.0 }).collect();
/// let tree = DecisionTree::fit(&xs, &ys, TreeParams::default());
/// assert!(tree.predict(&[0.9]) > 0.9);
/// assert!(tree.predict(&[0.1]) < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Fits a tree to `(features, targets)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the inputs are empty, lengths mismatch, or feature rows
    /// have inconsistent dimensionality.
    pub fn fit(features: &[Vec<f64>], targets: &[f64], params: TreeParams) -> Self {
        assert!(!features.is_empty(), "training set must be non-empty");
        assert_eq!(
            features.len(),
            targets.len(),
            "features/targets length mismatch"
        );
        let dim = features[0].len();
        assert!(
            features.iter().all(|f| f.len() == dim),
            "inconsistent feature dimensionality"
        );
        let mut tree = Self { nodes: Vec::new() };
        let indices: Vec<usize> = (0..features.len()).collect();
        tree.grow(features, targets, &indices, 0, &params);
        tree
    }

    /// Number of nodes (splits + leaves) — the hardware comparator budget.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than a split feature index encountered on
    /// the walk.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Grows a subtree over `indices`; returns its root node index.
    fn grow(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        indices: &[usize],
        depth: usize,
        params: &TreeParams,
    ) -> usize {
        let mean = indices.iter().map(|&i| ys[i]).sum::<f64>() / indices.len() as f64;
        let variance =
            indices.iter().map(|&i| (ys[i] - mean).powi(2)).sum::<f64>() / indices.len() as f64;
        let stop = depth >= params.max_depth
            || indices.len() < params.min_samples_split
            || variance <= params.min_variance;
        if stop {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        let Some((feature, threshold)) = best_split(xs, ys, indices) else {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| xs[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            self.nodes.push(Node::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        // Reserve this node's slot before growing children.
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        let left = self.grow(xs, ys, &left_idx, depth + 1, params);
        let right = self.grow(xs, ys, &right_idx, depth + 1, params);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }
}

/// Finds the (feature, threshold) minimizing the post-split weighted SSE.
fn best_split(xs: &[Vec<f64>], ys: &[f64], indices: &[usize]) -> Option<(usize, f64)> {
    let dim = xs[indices[0]].len();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
                                                    // `feature` selects a column across every sample row, so there is no
                                                    // single container to enumerate here.
    #[allow(clippy::needless_range_loop)]
    for feature in 0..dim {
        let mut values: Vec<(f64, f64)> =
            indices.iter().map(|&i| (xs[i][feature], ys[i])).collect();
        values.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Prefix sums for O(n) SSE evaluation per feature.
        let n = values.len();
        let mut prefix_sum = vec![0.0; n + 1];
        let mut prefix_sq = vec![0.0; n + 1];
        for (i, &(_, y)) in values.iter().enumerate() {
            prefix_sum[i + 1] = prefix_sum[i] + y;
            prefix_sq[i + 1] = prefix_sq[i] + y * y;
        }
        for split in 1..n {
            if values[split - 1].0 == values[split].0 {
                continue; // not a valid threshold between equal values
            }
            let (nl, nr) = (split as f64, (n - split) as f64);
            let (sl, sr) = (prefix_sum[split], prefix_sum[n] - prefix_sum[split]);
            let (ql, qr) = (prefix_sq[split], prefix_sq[n] - prefix_sq[split]);
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
    fn constant_target_yields_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![3.5; 20];
        let tree = DecisionTree::fit(&xs, &ys, TreeParams::default());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&[100.0]), 3.5);
    }

    #[test]
    fn learns_step_function() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 1.0 }).collect();
        let tree = DecisionTree::fit(&xs, &ys, TreeParams::default());
        assert_eq!(tree.predict(&[10.0]), 0.0);
        assert_eq!(tree.predict(&[90.0]), 1.0);
    }

    #[test]
    fn learns_two_feature_interaction() {
        // y = 1 iff x0 > 0.5 AND x1 > 0.5.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (a, b) = (i as f64 / 20.0, j as f64 / 20.0);
                xs.push(vec![a, b]);
                ys.push(if a > 0.5 && b > 0.5 { 1.0 } else { 0.0 });
            }
        }
        let tree = DecisionTree::fit(&xs, &ys, TreeParams::default());
        assert!(tree.predict(&[0.9, 0.9]) > 0.8);
        assert!(tree.predict(&[0.9, 0.1]) < 0.2);
        assert!(tree.predict(&[0.1, 0.9]) < 0.2);
    }

    #[test]
    fn depth_limit_bounds_tree_size() {
        let xs: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..256).map(|i| (i % 7) as f64).collect();
        let shallow = DecisionTree::fit(
            &xs,
            &ys,
            TreeParams {
                max_depth: 2,
                ..TreeParams::default()
            },
        );
        // Depth-2 binary tree has at most 7 nodes (so at most 4 leaves).
        assert!(shallow.num_nodes() <= 7);
    }

    #[test]
    fn prediction_is_mean_of_leaf_region() {
        let xs: Vec<Vec<f64>> = vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]];
        let ys = vec![1.0, 3.0, 10.0, 12.0];
        let tree = DecisionTree::fit(
            &xs,
            &ys,
            TreeParams {
                max_depth: 1,
                min_samples_split: 2,
                min_variance: 0.0,
            },
        );
        assert_eq!(tree.predict(&[0.05]), 2.0);
        assert_eq!(tree.predict(&[0.95]), 11.0);
    }

    #[test]
    fn regression_accuracy_on_noisy_linear_data() {
        // Deterministic pseudo-noise; tree should capture the trend.
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 200.0]).collect();
        let ys: Vec<f64> = (0..200)
            .map(|i| {
                let x = i as f64 / 200.0;
                2.0 * x + 0.05 * ((i * 2654435761u64 % 100) as f64 / 100.0 - 0.5)
            })
            .collect();
        let tree = DecisionTree::fit(&xs, &ys, TreeParams::default());
        let mse: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, &y)| (tree.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_panics() {
        let _ = DecisionTree::fit(&[], &[], TreeParams::default());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = DecisionTree::fit(&[vec![1.0]], &[1.0, 2.0], TreeParams::default());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Predictions always lie within the target range.
        #[test]
        fn predictions_within_target_range(
            ys in proptest::collection::vec(-100.0f64..100.0, 4..64),
            probe in -200.0f64..200.0,
        ) {
            let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let tree = DecisionTree::fit(&xs, &ys, TreeParams::default());
            let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let p = tree.predict(&[probe]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }

        /// Fitting is deterministic.
        #[test]
        fn fit_deterministic(ys in proptest::collection::vec(0.0f64..10.0, 4..32)) {
            let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let a = DecisionTree::fit(&xs, &ys, TreeParams::default());
            let b = DecisionTree::fit(&xs, &ys, TreeParams::default());
            prop_assert_eq!(a, b);
        }
    }
}
