//! CART regression tree with MSE splitting.
//!
//! Matches the paper's scikit-learn configuration (§V-C): "minimal
//! constraints on the creation of new leaves — there are no maximum
//! numbers of leaves, a single sample can be considered as a new leaf, and
//! there is no maximum depth to the tree. The criterion to measure the
//! quality of each split is based on the mean squared error, with the
//! split at each node chosen to be the best found."

use crate::matrix::Matrix;
use crate::Regressor;

/// Hyper-parameters. The defaults reproduce the paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Maximum depth (`None` = unbounded, the paper's choice).
    pub max_depth: Option<u32>,
    /// Minimum samples to attempt a split (paper: 2).
    pub min_samples_split: usize,
    /// Minimum samples in a leaf (paper: 1).
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
        }
    }
}

/// A tree node.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Terminal node predicting the mean of its training targets.
    Leaf { value: f64, n: u32 },
    /// Internal split: rows with `x[feature] <= threshold` go left.
    Split {
        feature: u16,
        threshold: f64,
        left: u32,
        right: u32,
    },
}

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeRegressor {
    nodes: Vec<Node>,
    n_features: usize,
}

impl DecisionTreeRegressor {
    /// Fit with the paper's default configuration.
    pub fn fit(x: &Matrix, y: &[f64]) -> DecisionTreeRegressor {
        DecisionTreeRegressor::fit_with(x, y, TreeParams::default(), None)
    }

    /// Fit with explicit hyper-parameters. `feature_mask`, when given,
    /// restricts the features considered at every split (used by the
    /// random forest).
    pub(crate) fn fit_with(
        x: &Matrix,
        y: &[f64],
        params: TreeParams,
        feature_mask: Option<&[usize]>,
    ) -> DecisionTreeRegressor {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let all_features: Vec<usize> = (0..x.cols()).collect();
        let features = feature_mask.unwrap_or(&all_features);

        let mut builder = Builder {
            x,
            y,
            params,
            features,
            nodes: Vec::new(),
            scratch: Vec::new(),
        };
        let mut indices: Vec<u32> = (0..x.rows() as u32).collect();
        let root = builder.alloc_node();
        builder.build(root, &mut indices, 0);
        DecisionTreeRegressor {
            nodes: builder.nodes,
            n_features: x.cols(),
        }
    }

    /// Number of nodes.
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    #[cfg(test)]
    fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum depth of the fitted tree.
    #[cfg(test)]
    fn depth(&self) -> u32 {
        fn d(nodes: &[Node], i: u32) -> u32 {
            match nodes[i as usize] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(nodes, left).max(d(nodes, right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            d(&self.nodes, 0)
        }
    }

    /// Node accessor for the explanation module.
    pub(crate) fn node(&self, i: u32) -> crate::explain::ExplainNode {
        match &self.nodes[i as usize] {
            Node::Leaf { value, .. } => crate::explain::ExplainNode::Leaf { value: *value },
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => crate::explain::ExplainNode::Split {
                feature: *feature as usize,
                threshold: *threshold,
                left: *left,
                right: *right,
            },
        }
    }
}

impl Regressor for DecisionTreeRegressor {
    fn predict_one(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut i = 0u32;
        loop {
            match self.nodes[i as usize] {
                Node::Leaf { value, .. } => return value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[feature as usize] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// Internal fitting state.
struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    params: TreeParams,
    features: &'a [usize],
    nodes: Vec<Node>,
    /// Reused (value, target) buffer for per-feature sorting.
    scratch: Vec<(f64, f64)>,
}

/// Result of the best-split search at one node.
struct BestSplit {
    feature: usize,
    threshold: f64,
    /// Sum of squared errors after the split (left + right).
    sse: f64,
}

impl<'a> Builder<'a> {
    fn alloc_node(&mut self) -> u32 {
        self.nodes.push(Node::Leaf { value: 0.0, n: 0 });
        (self.nodes.len() - 1) as u32
    }

    fn build(&mut self, slot: u32, idx: &mut [u32], depth: u32) {
        let n = idx.len();
        let (sum, sumsq) = idx.iter().fold((0.0, 0.0), |(s, q), &i| {
            let v = self.y[i as usize];
            (s + v, q + v * v)
        });
        let mean = sum / n as f64;
        let node_sse = sumsq - sum * sum / n as f64;

        let depth_ok = self.params.max_depth.is_none_or(|d| depth < d);
        let splittable = n >= self.params.min_samples_split && depth_ok && node_sse > 1e-12;

        let best = if splittable {
            self.best_split(idx, sum)
        } else {
            None
        };
        match best {
            None => {
                self.nodes[slot as usize] = Node::Leaf {
                    value: mean,
                    n: n as u32,
                };
            }
            Some(b) => {
                // Partition in place: left = x[feature] <= threshold.
                let mut l = 0;
                let mut r = n;
                while l < r {
                    if self.x.get(idx[l] as usize, b.feature) <= b.threshold {
                        l += 1;
                    } else {
                        r -= 1;
                        idx.swap(l, r);
                    }
                }
                debug_assert!(l > 0 && l < n, "degenerate partition");
                let left = self.alloc_node();
                let right = self.alloc_node();
                self.nodes[slot as usize] = Node::Split {
                    feature: b.feature as u16,
                    threshold: b.threshold,
                    left,
                    right,
                };
                let (li, ri) = idx.split_at_mut(l);
                self.build(left, li, depth + 1);
                self.build(right, ri, depth + 1);
            }
        }
    }

    /// Exhaustive best split by MSE (equivalently, minimal post-split SSE).
    fn best_split(&mut self, idx: &[u32], total_sum: f64) -> Option<BestSplit> {
        let n = idx.len();
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<BestSplit> = None;

        for &f in self.features {
            self.scratch.clear();
            self.scratch.extend(
                idx.iter()
                    .map(|&i| (self.x.get(i as usize, f), self.y[i as usize])),
            );
            // total_cmp: feature values are finite by construction.
            self.scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let total_sq: f64 = self.scratch.iter().map(|&(_, y)| y * y).sum();
            for k in 0..n - 1 {
                let (v, yv) = self.scratch[k];
                left_sum += yv;
                left_sq += yv * yv;
                let next_v = self.scratch[k + 1].0;
                if v == next_v {
                    continue; // cannot split between equal values
                }
                let nl = k + 1;
                let nr = n - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse = (left_sq - left_sum * left_sum / nl as f64)
                    + (right_sq - right_sum * right_sum / nr as f64);
                if best.as_ref().is_none_or(|b| sse < b.sse) {
                    best = Some(BestSplit {
                        feature: f,
                        threshold: 0.5 * (v + next_v),
                        sse,
                    });
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn xy(points: &[(f64, f64)]) -> (Matrix, Vec<f64>) {
        let x = Matrix::from_rows(&points.iter().map(|&(a, _)| vec![a]).collect::<Vec<_>>());
        let y = points.iter().map(|&(_, b)| b).collect();
        (x, y)
    }

    #[test]
    fn perfectly_memorises_training_data_with_unit_leaves() {
        let (x, y) = xy(&[(1.0, 10.0), (2.0, 20.0), (3.0, 15.0), (4.0, 40.0)]);
        let t = DecisionTreeRegressor::fit(&x, &y);
        for (i, &target) in y.iter().enumerate() {
            assert_eq!(t.predict_one(x.row(i)), target);
        }
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let (x, y) = xy(&[(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]);
        let t = DecisionTreeRegressor::fit(&x, &y);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_one(&[99.0]), 5.0);
    }

    #[test]
    fn step_function_learned_exactly() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64, if i < 10 { 1.0 } else { 9.0 }))
            .collect();
        let (x, y) = xy(&pts);
        let t = DecisionTreeRegressor::fit(&x, &y);
        assert_eq!(t.leaf_count(), 2);
        assert_eq!(t.predict_one(&[3.0]), 1.0);
        assert_eq!(t.predict_one(&[15.0]), 9.0);
        // Threshold placed between the two plateaus.
        assert_eq!(t.predict_one(&[9.4]), 1.0);
        assert_eq!(t.predict_one(&[9.6]), 9.0);
    }

    #[test]
    fn duplicate_feature_values_never_split_apart() {
        // Two samples with identical x but different y cannot be separated.
        let (x, y) = xy(&[(1.0, 0.0), (1.0, 10.0)]);
        let t = DecisionTreeRegressor::fit(&x, &y);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_one(&[1.0]), 5.0);
    }

    #[test]
    fn max_depth_limits_tree() {
        let pts: Vec<(f64, f64)> = (0..32).map(|i| (i as f64, i as f64)).collect();
        let (x, y) = xy(&pts);
        let t = DecisionTreeRegressor::fit_with(
            &x,
            &y,
            TreeParams {
                max_depth: Some(2),
                ..Default::default()
            },
            None,
        );
        assert!(t.depth() <= 2);
        assert!(t.leaf_count() <= 4);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let pts: Vec<(f64, f64)> = (0..16).map(|i| (i as f64, (i * i) as f64)).collect();
        let (x, y) = xy(&pts);
        let t = DecisionTreeRegressor::fit_with(
            &x,
            &y,
            TreeParams {
                min_samples_leaf: 4,
                ..Default::default()
            },
            None,
        );
        fn check(nodes_n: &DecisionTreeRegressor) -> bool {
            // All leaves carry n >= 4; with 16 points that bounds the
            // leaf count at 4.
            nodes_n.leaf_count() <= 4
        }
        assert!(check(&t));
    }

    #[test]
    fn predictions_within_training_target_hull() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| ((i % 7) as f64, ((i * 13) % 41) as f64))
            .collect();
        let (x, y) = xy(&pts);
        let t = DecisionTreeRegressor::fit(&x, &y);
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for q in 0..100 {
            let p = t.predict_one(&[q as f64 / 10.0]);
            assert!(
                (lo..=hi).contains(&p),
                "prediction {p} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn multifeature_split_picks_informative_feature() {
        // Feature 0 is noise; feature 1 determines y.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 3) as f64, (i % 2) as f64])
            .collect();
        let y: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 0.0 } else { 100.0 })
            .collect();
        let x = Matrix::from_rows(&rows);
        let t = DecisionTreeRegressor::fit(&x, &y);
        assert_eq!(t.predict_one(&[0.0, 0.0]), 0.0);
        assert_eq!(t.predict_one(&[2.0, 1.0]), 100.0);
        // A perfect split on feature 1 needs exactly 3 nodes.
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn feature_mask_restricts_splits() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 2) as f64]).collect();
        let y: Vec<f64> = (0..20)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let x = Matrix::from_rows(&rows);
        // Restricted to the uninformative-but-splittable feature 0, the
        // tree must work much harder (more nodes) than with feature 1.
        let t0 = DecisionTreeRegressor::fit_with(&x, &y, TreeParams::default(), Some(&[1]));
        assert_eq!(t0.node_count(), 3);
    }
}
