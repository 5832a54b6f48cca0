//! CART regression tree with MSE splitting.
//!
//! Matches the paper's scikit-learn configuration (§V-C): "minimal
//! constraints on the creation of new leaves — there are no maximum
//! numbers of leaves, a single sample can be considered as a new leaf, and
//! there is no maximum depth to the tree. The criterion to measure the
//! quality of each split is based on the mean squared error, with the
//! split at each node chosen to be the best found."
//!
//! A fit sorts each feature once, at the root, into a list of `(value,
//! target, row)` sorted stably (ties stay in row order). Each node owns the
//! same `[lo, hi)` range of every list and scans each linearly; a split
//! partitions every list stably by a per-row side mark. The trees equal a
//! per-node sort's whenever the partial sums are exact in f64 (integer
//! targets, Σy² < 2⁵³): only the order tied targets are summed in differs.

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
        feature: u32,
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
        let rows: Vec<usize> = (0..x.rows()).collect();
        DecisionTreeRegressor::fit_with(x, y, &rows, TreeParams::default(), None)
    }

    /// Fit with explicit hyper-parameters on `rows` of `(x, y)` (repeats
    /// allowed: the forest's bootstrap). `feature_mask`, when given,
    /// restricts the features considered at every split.
    pub(crate) fn fit_with(
        x: &Matrix,
        y: &[f64],
        rows: &[usize],
        params: TreeParams,
        feature_mask: Option<&[usize]>,
    ) -> DecisionTreeRegressor {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        assert!(!rows.is_empty(), "cannot fit on an empty dataset");
        let all_features: Vec<usize> = (0..x.cols()).collect();
        let features = feature_mask.unwrap_or(&all_features);
        assert!(x.rows() <= u32::MAX as usize, "row index exceeds u32");
        let n = rows.len();
        // An empty mask still gets one list, of zeros: it carries the targets.
        let mut lists = Vec::with_capacity(features.len().max(1) * n);
        for j in 0..features.len().max(1) {
            let f = features.get(j);
            let start = lists.len();
            lists.extend(
                rows.iter()
                    .map(|&r| (f.map_or(0.0, |&f| x.get(r, f)), y[r], r as u32)),
            );
            // total_cmp: feature values are finite by construction.
            lists[start..].sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let mut builder = Builder {
            params,
            features,
            nodes: Vec::new(),
            lists,
            n,
            left: vec![false; x.rows()],
            scratch: Vec::with_capacity(n),
        };
        let root = builder.alloc_node();
        builder.build(root, 0, n, 0);
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
    params: TreeParams,
    features: &'a [usize],
    nodes: Vec<Node>,
    /// `(value, target, row)` lists, `n` entries each: list `j` is
    /// `lists[j * n..][..n]`, each node's range sorted by `features[j]`.
    lists: Vec<(f64, f64, u32)>,
    n: usize,
    /// Side of each `x` row at the split being applied (`true` = left).
    left: Vec<bool>,
    /// Reused buffer for a stable partition.
    scratch: Vec<(f64, f64, u32)>,
}

/// Result of the best-split search at one node.
struct BestSplit {
    /// Index into `features` (and the lists).
    list: usize,
    threshold: f64,
    /// Sum of squared errors after the split (left + right).
    sse: f64,
}

impl<'a> Builder<'a> {
    fn alloc_node(&mut self) -> u32 {
        self.nodes.push(Node::Leaf { value: 0.0, n: 0 });
        (self.nodes.len() - 1) as u32
    }

    /// Grow the subtree at `slot` over the entries `[lo, hi)` of every list.
    fn build(&mut self, slot: u32, lo: usize, hi: usize, depth: u32) {
        let n = hi - lo;
        let first = self.lists[lo].1;
        let (sum, sumsq, pure) = self.lists[lo..hi]
            .iter()
            .fold((0.0, 0.0, true), |(s, q, p), e| {
                (s + e.1, q + e.1 * e.1, p && e.1 == first)
            });
        let mean = sum / n as f64;
        let node_sse = sumsq - sum * sum / n as f64;

        let depth_ok = self.params.max_depth.is_none_or(|d| depth < d);
        // `pure`: at large magnitudes equal targets' SSE is rounding noise.
        let splittable =
            n >= self.params.min_samples_split && depth_ok && !pure && node_sse > 1e-12;

        let best = if splittable {
            self.best_split(lo, hi, sum, sumsq)
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
                let l = self.partition(lo, hi, &b);
                debug_assert!(l > 0 && l < n, "degenerate partition");
                let left = self.alloc_node();
                let right = self.alloc_node();
                self.nodes[slot as usize] = Node::Split {
                    feature: u32::try_from(self.features[b.list]).expect("feature index fits u32"),
                    threshold: b.threshold,
                    left,
                    right,
                };
                self.build(left, lo, lo + l, depth + 1);
                self.build(right, lo + l, hi, depth + 1);
            }
        }
    }

    /// Exhaustive best split by MSE (equivalently, minimal post-split SSE).
    fn best_split(&self, lo: usize, hi: usize, total_sum: f64, total_sq: f64) -> Option<BestSplit> {
        let n = hi - lo;
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<BestSplit> = None;

        for j in 0..self.features.len() {
            let list = &self.lists[j * self.n + lo..j * self.n + hi];
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for k in 0..n - 1 {
                let (v, yv, _) = list[k];
                left_sum += yv;
                left_sq += yv * yv;
                let next_v = list[k + 1].0;
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
                        list: j,
                        threshold: 0.5 * (v + next_v),
                        sse,
                    });
                }
            }
        }
        best
    }

    /// Apply split `b` to `[lo, hi)` of every list; returns the left size.
    fn partition(&mut self, lo: usize, hi: usize, b: &BestSplit) -> usize {
        let n = self.n;
        // Sorted, so the rows `predict_one` sends left are a prefix.
        let split = &self.lists[b.list * n + lo..b.list * n + hi];
        let l = split.partition_point(|e| e.0 <= b.threshold);
        for (k, e) in split.iter().enumerate() {
            self.left[e.2 as usize] = k < l;
        }
        for j in (0..self.lists.len() / n).filter(|&j| j != b.list) {
            let list = &mut self.lists[j * n + lo..j * n + hi];
            // Left entries move up in place; right ones wait in `scratch`.
            self.scratch.clear();
            let mut w = 0;
            for k in 0..list.len() {
                let e = list[k];
                if self.left[e.2 as usize] {
                    list[w] = e;
                    w += 1;
                } else {
                    self.scratch.push(e);
                }
            }
            list[w..].copy_from_slice(&self.scratch);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use armdse_rng::{Rng, SeedableRng, SliceRandom, Xoshiro256pp};

    /// The sort-per-node builder the presorted one replaced, kept verbatim
    /// as the reference the differential tests compare against.
    mod reference {
        use super::super::{DecisionTreeRegressor, Node, TreeParams};
        use crate::matrix::Matrix;

        pub(super) fn fit(
            x: &Matrix,
            y: &[f64],
            params: TreeParams,
            feature_mask: Option<&[usize]>,
        ) -> DecisionTreeRegressor {
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

        struct Builder<'a> {
            x: &'a Matrix,
            y: &'a [f64],
            params: TreeParams,
            features: &'a [usize],
            nodes: Vec<Node>,
            scratch: Vec<(f64, f64)>,
        }

        struct BestSplit {
            feature: usize,
            threshold: f64,
            sse: f64,
        }

        impl Builder<'_> {
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
                        let left = self.alloc_node();
                        let right = self.alloc_node();
                        self.nodes[slot as usize] = Node::Split {
                            feature: b.feature as u32,
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
                            continue;
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
    }

    /// A design-space-like dataset: every feature takes one of a few
    /// levels (so ties abound) and the target is an integer, so every
    /// partial sum either builder forms is exact.
    fn tied_integer_data(rng: &mut Xoshiro256pp, rows: usize, cols: usize) -> (Matrix, Vec<f64>) {
        let levels: Vec<usize> = (0..cols).map(|_| rng.gen_range(2..6)).collect();
        let rows: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                levels
                    .iter()
                    .map(|&l| (1u64 << rng.gen_range(0..l)) as f64)
                    .collect()
            })
            .collect();
        let y = rows
            .iter()
            .map(|r| (r[0] * 1000.0 + r[cols - 1] * 37.0) + rng.gen_range(0..500u32) as f64)
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    /// Fit both builders on a bootstrap of seeded data under every
    /// `min_samples_leaf ∈ {1, 3}` × `max_depth ∈ {None, Some(4)}`, with
    /// a random feature mask, and require `==` trees.
    fn assert_matches_reference(seed: u64, rows: usize, cols: usize) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let (x, y) = tied_integer_data(&mut rng, rows, cols);
        let boot: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..rows)).collect();
        let (bx, by) = (
            x.select_rows(&boot),
            boot.iter().map(|&r| y[r]).collect::<Vec<_>>(),
        );
        let mut feats: Vec<usize> = (0..cols).collect();
        feats.shuffle(&mut rng);
        feats.truncate(rng.gen_range(1..cols + 1));
        feats.sort_unstable();
        for min_samples_leaf in [1, 3] {
            for max_depth in [None, Some(4)] {
                let p = TreeParams {
                    max_depth,
                    min_samples_leaf,
                    ..Default::default()
                };
                for mask in [None, Some(&feats[..])] {
                    let want = reference::fit(&bx, &by, p, mask);
                    let got = DecisionTreeRegressor::fit_with(&x, &y, &boot, p, mask);
                    assert!(want.node_count() > 1, "seed {seed}: degenerate data");
                    assert_eq!(got, want, "seed {seed}, {p:?}, mask {mask:?}");
                }
            }
        }
    }

    #[test]
    fn presorted_builder_matches_sort_per_node_reference() {
        for seed in 0..12 {
            assert_matches_reference(seed, 80, 6);
        }
    }

    #[test]
    #[ignore = "large differential; ci.sh runs it with --ignored"]
    fn presorted_builder_matches_reference_at_design_space_size() {
        for seed in 0..100 {
            assert_matches_reference(1000 + seed, 600, 30);
        }
    }

    #[test]
    fn row_permutation_fits_the_same_tree() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let (x, y) = tied_integer_data(&mut rng, 120, 8);
        let mut perm: Vec<usize> = (0..120).collect();
        perm.shuffle(&mut rng);
        let (px, py) = (
            x.select_rows(&perm),
            perm.iter().map(|&r| y[r]).collect::<Vec<_>>(),
        );
        let a = DecisionTreeRegressor::fit(&x, &y);
        let b = DecisionTreeRegressor::fit(&px, &py);
        for r in 0..x.rows() {
            assert_eq!(a.predict_one(x.row(r)), b.predict_one(x.row(r)));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn constant_large_target_yields_single_leaf() {
        for c in [123_456_789.0, 12_345.678] {
            let pts: Vec<(f64, f64)> = (0..7).map(|i| (i as f64, c)).collect();
            let (x, y) = xy(&pts);
            let t = DecisionTreeRegressor::fit(&x, &y);
            assert_eq!(t.node_count(), 1, "constant target {c}");
            assert!((t.predict_one(&[3.0]) - c).abs() <= 1e-9 * c);
        }
    }

    #[test]
    fn split_feature_beyond_u16_range_is_kept() {
        let cols = (1 << 16) + 4;
        let informative = (1 << 16) + 1;
        let mut rows = vec![vec![0.0; cols]; 2];
        rows[1][informative] = 1.0;
        let x = Matrix::from_rows(&rows);
        let t = DecisionTreeRegressor::fit(&x, &[0.0, 10.0]);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.predict_one(x.row(0)), 0.0);
        assert_eq!(t.predict_one(x.row(1)), 10.0);
    }

    #[test]
    fn node_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 24);
    }

    fn all_rows(x: &Matrix) -> Vec<usize> {
        (0..x.rows()).collect()
    }

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
            &all_rows(&x),
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
            &all_rows(&x),
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
        let t0 = DecisionTreeRegressor::fit_with(
            &x,
            &y,
            &all_rows(&x),
            TreeParams::default(),
            Some(&[1]),
        );
        assert_eq!(t0.node_count(), 3);
    }
}
