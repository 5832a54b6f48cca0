//! CART regression tree with MSE splitting.
//!
//! Matches the paper's scikit-learn configuration (§V-C): "minimal
//! constraints on the creation of new leaves — there are no maximum
//! numbers of leaves, a single sample can be considered as a new leaf, and
//! there is no maximum depth to the tree. The criterion to measure the
//! quality of each split is based on the mean squared error, with the
//! split at each node chosen to be the best found."
//!
//! A fit starts from [`Ranks`], each feature's dense `total_cmp` rank
//! and `==` class of every row of `x`, built once per forest refit and
//! shared. A stable counting sort of the fit's rows by rank gives each
//! feature the list of 8-byte `(class, row)` entries a stable comparison
//! sort would, ties in draw order, with no sort per tree. Each node owns
//! the same `[lo, hi)` range of every list and scans each linearly,
//! reading targets as `y[row]` and comparing classes, so `-0.0` and
//! `+0.0` tie; `x` is read only for an improving candidate's threshold:
//! the midpoint of `v < next_v`, or `v` where the midpoint is not below
//! `next_v` (an infinity, adjacent doubles), scikit-learn's rule. NaN is
//! refused. A split partitions every list stably by a per-row side mark.
//! The trees equal a per-node sort's whenever the partial sums are exact
//! in f64 (integer targets, Σy² < 2⁵³): only the order tied targets are
//! summed in differs.
//!
//! A fitted tree is one flat array of 16-byte nodes `{ t, feature, left }`.
//! A leaf has `feature == LEAF` and predicts `t`. A split sends a row with
//! `row[feature] <= t` to `left` and any other row (NaN too) to `left + 1`:
//! a split allocates its two children back to back.

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

/// A tree node: a split of `feature` at threshold `t` with children
/// `left` and `left + 1`, or a leaf (`feature == LEAF`) predicting `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    t: f64,
    feature: u32,
    left: u32,
}

/// The `feature` of a leaf node.
const LEAF: u32 = u32::MAX;

impl Node {
    fn leaf(value: f64) -> Node {
        Node {
            t: value,
            feature: LEAF,
            left: 0,
        }
    }

    fn is_leaf(self) -> bool {
        self.feature == LEAF
    }

    /// The child a split sends `row` to (NaN fails `<=`: `left + 1`).
    #[inline]
    fn child(self, row: &[f64]) -> u32 {
        self.left + 1 - u32::from(row[self.feature as usize] <= self.t)
    }
}

/// Each feature's dense rank of every row of a matrix under
/// `f64::total_cmp` (`-0.0` below `+0.0`: the lists' order) and under
/// `==` (its class: the zeros tie). Read-only once built, so a forest's
/// trees share one.
pub(crate) struct Ranks {
    /// `rank[f * rows + r]`: row `r`'s `(rank, class)` in feature `f`.
    rank: Vec<(u32, u32)>,
    rows: usize,
}

impl Ranks {
    pub(crate) fn new(x: &Matrix) -> Ranks {
        let rows = x.rows();
        assert!(rows <= u32::MAX as usize, "row index exceeds u32");
        let mut rank = vec![(0, 0); x.cols() * rows];
        let mut column: Vec<(f64, u32)> = Vec::with_capacity(rows);
        for f in 0..x.cols() {
            column.clear();
            column.extend((0..rows).map(|r| (x.get(r, f), r as u32)));
            if let Some(&(_, r)) = column.iter().find(|e| e.0.is_nan()) {
                panic!("NaN feature at row {r}, column {f}: a tree cannot split on NaN");
            }
            column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let (mut level, mut class) = (0, 0);
            for k in 0..rows {
                if k > 0 {
                    let (prev, v) = (column[k - 1].0, column[k].0);
                    level += u32::from(prev.total_cmp(&v).is_ne());
                    class += u32::from(prev != v);
                }
                rank[f * rows + column[k].1 as usize] = (level, class);
            }
        }
        Ranks { rank, rows }
    }
}

/// A row of `x` in a feature's sorted list, with its class there.
#[derive(Debug, Clone, Copy)]
struct Entry {
    class: u32,
    row: u32,
}

/// The threshold between sorted values `v < next_v`: their midpoint
/// unless it is not below `next_v` (rounded up, overflowed, or NaN).
fn threshold(v: f64, next_v: f64) -> f64 {
    Some(0.5 * (v + next_v))
        .filter(|&mid| mid < next_v)
        .unwrap_or(v)
}

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeRegressor {
    nodes: Vec<Node>,
    n_features: usize,
}

impl DecisionTreeRegressor {
    /// Fit with the paper's default configuration. Panics on a NaN in
    /// `x`, naming its row and column; infinities are ordinary values.
    pub fn fit(x: &Matrix, y: &[f64]) -> DecisionTreeRegressor {
        let rows: Vec<usize> = (0..x.rows()).collect();
        DecisionTreeRegressor::fit_with(x, &Ranks::new(x), y, &rows, TreeParams::default(), None)
    }

    /// Fit with explicit hyper-parameters on `rows` of `(x, y)` (repeats
    /// allowed: the forest's bootstrap); `ranks` is `Ranks::new(x)`.
    /// `feature_mask`, when given, restricts the features considered at
    /// every split.
    pub(crate) fn fit_with(
        x: &Matrix,
        ranks: &Ranks,
        y: &[f64],
        rows: &[usize],
        params: TreeParams,
        feature_mask: Option<&[usize]>,
    ) -> DecisionTreeRegressor {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        assert!(!rows.is_empty(), "cannot fit on an empty dataset");
        assert!(x.cols() < LEAF as usize, "feature index exceeds u32");
        let all_features: Vec<usize> = (0..x.cols()).collect();
        let features = feature_mask.unwrap_or(&all_features);
        let shape = (ranks.rows, ranks.rank.len());
        assert_eq!(shape, (x.rows(), x.rows() * x.cols()), "ranks of another x");
        let n = rows.len();
        let mut builder = Builder {
            x,
            y,
            params,
            features,
            nodes: vec![Node::leaf(0.0)],
            lists: sorted_lists(ranks, rows, features),
            n,
            left: vec![false; x.rows()],
            scratch: vec![Entry { class: 0, row: 0 }; n],
        };
        builder.build(0, 0, n, 0);
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
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Maximum depth of the fitted tree.
    #[cfg(test)]
    fn depth(&self) -> u32 {
        fn d(nodes: &[Node], i: u32) -> u32 {
            let n = nodes[i as usize];
            if n.is_leaf() {
                0
            } else {
                1 + d(nodes, n.left).max(d(nodes, n.left + 1))
            }
        }
        d(&self.nodes, 0)
    }

    /// Node accessor for the explanation module.
    pub(crate) fn node(&self, i: u32) -> crate::explain::ExplainNode {
        let n = self.nodes[i as usize];
        if n.is_leaf() {
            crate::explain::ExplainNode::Leaf { value: n.t }
        } else {
            crate::explain::ExplainNode::Split {
                feature: n.feature as usize,
                threshold: n.t,
                left: n.left,
                right: n.left + 1,
            }
        }
    }

    /// [`Regressor::predict_one`] of each of `rows`, in order. Rows walk
    /// the tree eight at a time, interleaved, so eight node loads are in
    /// flight at once instead of one.
    pub(crate) fn predict_many(&self, rows: &[&[f64]]) -> Vec<f64> {
        let mut out = Vec::with_capacity(rows.len());
        let mut blocks = rows.chunks_exact(8);
        for block in &mut blocks {
            let mut at = [self.nodes[0]; 8];
            let mut walking = true;
            while walking {
                walking = false;
                for (node, row) in at.iter_mut().zip(block) {
                    if !node.is_leaf() {
                        *node = self.nodes[node.child(row) as usize];
                        walking = true;
                    }
                }
            }
            out.extend(at.iter().map(|n| n.t));
        }
        out.extend(blocks.remainder().iter().map(|row| self.predict_one(row)));
        out
    }
}

impl Regressor for DecisionTreeRegressor {
    fn predict_one(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        let mut node = self.nodes[0];
        while !node.is_leaf() {
            node = self.nodes[node.child(row) as usize];
        }
        node.t
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        self.predict_many(&(0..x.rows()).map(|r| x.row(r)).collect::<Vec<_>>())
    }
}

/// The `(class, row)` list of each of `features` over `rows`, sorted
/// stably by value (ties in `rows` order) and laid end to end, by a
/// counting sort on `ranks`. An empty `features` still gets one list, of
/// class 0: it carries the rows.
fn sorted_lists(ranks: &Ranks, rows: &[usize], features: &[usize]) -> Vec<Entry> {
    let entry = |class, r: usize| Entry {
        class,
        row: r as u32,
    };
    if features.is_empty() {
        return rows.iter().map(|&r| entry(0, r)).collect();
    }
    let mut lists = vec![entry(0, 0); features.len() * rows.len()];
    let mut next = vec![0; ranks.rows + 1];
    for (list, &f) in lists.chunks_exact_mut(rows.len()).zip(features) {
        let rank = &ranks.rank[f * ranks.rows..][..ranks.rows];
        // next[v]: the slot the next row of rank v goes to.
        next.fill(0);
        for &r in rows {
            next[rank[r].0 as usize + 1] += 1;
        }
        for v in 1..next.len() {
            next[v] += next[v - 1];
        }
        for &r in rows {
            let (level, class) = rank[r];
            let slot = &mut next[level as usize];
            list[*slot] = entry(class, r);
            *slot += 1;
        }
    }
    lists
}

/// Internal fitting state.
struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    params: TreeParams,
    features: &'a [usize],
    nodes: Vec<Node>,
    /// `(class, row)` lists, `n` entries each: list `j` is
    /// `lists[j * n..][..n]`, each node's range sorted by `features[j]`.
    lists: Vec<Entry>,
    n: usize,
    /// Side of each `x` row at the split being applied (`true` = left).
    left: Vec<bool>,
    /// A partition's right side, `n` entries.
    scratch: Vec<Entry>,
}

/// Result of the best-split search at one node.
struct BestSplit {
    /// Index into `features` (and the lists).
    list: usize,
    threshold: f64,
    /// Entries of the node's range that go left: a prefix of list `list`.
    left: usize,
    /// Sum of squared errors after the split (left + right).
    sse: f64,
}

impl<'a> Builder<'a> {
    /// Grow the subtree at `slot` over the entries `[lo, hi)` of every list.
    fn build(&mut self, slot: u32, lo: usize, hi: usize, depth: u32) {
        let n = hi - lo;
        let y = |e: &Entry| self.y[e.row as usize];
        let first = y(&self.lists[lo]);
        let (sum, sumsq, pure) = self.lists[lo..hi]
            .iter()
            .map(y)
            .fold((0.0, 0.0, true), |(s, q, p), v| {
                (s + v, q + v * v, p && v == first)
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
            None => self.nodes[slot as usize] = Node::leaf(mean),
            Some(b) => {
                let l = self.partition(lo, hi, &b);
                debug_assert!(l > 0 && l < n, "degenerate partition");
                // Siblings back to back: the right child is `left + 1`.
                let left = self.nodes.len() as u32;
                self.nodes.extend([Node::leaf(0.0); 2]);
                self.nodes[slot as usize] = Node {
                    t: b.threshold,
                    feature: self.features[b.list] as u32,
                    left,
                };
                self.build(left, lo, lo + l, depth + 1);
                self.build(left + 1, lo + l, hi, depth + 1);
            }
        }
    }

    /// Exhaustive best split by MSE (equivalently, minimal post-split SSE).
    fn best_split(&self, lo: usize, hi: usize, total_sum: f64, total_sq: f64) -> Option<BestSplit> {
        let n = hi - lo;
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<BestSplit> = None;

        for (j, &f) in self.features.iter().enumerate() {
            let list = &self.lists[j * self.n + lo..j * self.n + hi];
            if list[0].class == list[n - 1].class {
                continue; // constant over the node: no split candidate
            }
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for k in 0..n - 1 {
                let (e, next) = (list[k], list[k + 1]);
                let yv = self.y[e.row as usize];
                left_sum += yv;
                left_sq += yv * yv;
                if e.class == next.class {
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
                    let x = |e: Entry| self.x.get(e.row as usize, f);
                    best = Some(BestSplit {
                        list: j,
                        threshold: threshold(x(e), x(next)),
                        left: nl,
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
        let l = b.left;
        for (k, e) in split.iter().enumerate() {
            self.left[e.row as usize] = k < l;
        }
        for j in (0..self.lists.len() / n).filter(|&j| j != b.list) {
            let list = &mut self.lists[j * n + lo..j * n + hi];
            // Branchless: each entry is written to both sides (left ones
            // move up in place, right ones wait in `scratch`) and only its
            // own side's cursor advances.
            let (mut w, mut s) = (0, 0);
            for k in 0..list.len() {
                let e = list[k];
                let left = self.left[e.row as usize];
                list[w] = e;
                self.scratch[s] = e;
                w += usize::from(left);
                s += usize::from(!left);
            }
            debug_assert_eq!(w, l);
            list[w..].copy_from_slice(&self.scratch[..s]);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use armdse_rng::{Rng, SeedableRng, SliceRandom, Xoshiro256pp};

    /// The sort-per-node builder the presorted one replaced, kept (but
    /// for the flat node layout) as the reference the differential tests
    /// compare against.
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
                self.nodes.push(Node::leaf(0.0));
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
                    None => self.nodes[slot as usize] = Node::leaf(mean),
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
                        self.nodes[slot as usize] = Node {
                            t: b.threshold,
                            feature: b.feature as u32,
                            left,
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
                                threshold: super::super::threshold(v, next_v),
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
        let ranks = Ranks::new(&x);
        for min_samples_leaf in [1, 3] {
            for max_depth in [None, Some(4)] {
                let p = TreeParams {
                    max_depth,
                    min_samples_leaf,
                    ..Default::default()
                };
                for mask in [None, Some(&feats[..])] {
                    let want = reference::fit(&bx, &by, p, mask);
                    let got = DecisionTreeRegressor::fit_with(&x, &ranks, &y, &boot, p, mask);
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

    /// Grow seeded 600 × 30 data by 25 rows a round, as the Explorer
    /// grows its dataset, and refit a forest on it for 24 rounds at 1 and
    /// 2 threads: each tree a refit replaces must be `==` to the reference
    /// builder's fit on the same bootstrap and feature subsample.
    fn assert_refits_match_reference(seed: u64) {
        use crate::forest::{refit_rng, ForestParams, RandomForest};
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let (x, y) = tied_integer_data(&mut rng, 600, 30);
        let params = ForestParams::default();
        let mut forests = [1, 2].map(|threads| (threads, RandomForest::warm_start(params, seed)));
        for round in 0..24u64 {
            let m = 25 * (round as usize + 1);
            let (xs, ys) = (x.select_rows(&all_rows(&x)[..m]), &y[..m]);
            let mut windows = forests
                .iter_mut()
                .map(|(threads, f)| f.partial_refit_with(&xs, ys, round, *threads));
            let window = windows.next().expect("two forests");
            assert!(
                windows.all(|w| w == window),
                "round {round}: windows differ"
            );
            for &t in &window {
                // The forest's draws from the tree's stream: a bootstrap,
                // then a shuffle of every feature (all are kept).
                let mut rng = refit_rng(seed, round, t);
                let boot: Vec<usize> = (0..m).map(|_| rng.gen_range(0..m)).collect();
                (0..30).collect::<Vec<usize>>().shuffle(&mut rng);
                let by: Vec<f64> = boot.iter().map(|&r| ys[r]).collect();
                let want = reference::fit(&xs.select_rows(&boot), &by, params.tree, None);
                for (threads, f) in &forests {
                    assert_eq!(
                        f.trees()[t],
                        want,
                        "round {round}, tree {t}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    #[ignore = "large differential; ci.sh runs it with --include-ignored"]
    fn presorted_builder_matches_reference_at_design_space_size() {
        for seed in 0..100 {
            assert_matches_reference(1000 + seed, 600, 30);
        }
        assert_refits_match_reference(2024);
    }

    /// The stable comparison sort the rank counting sort replaced, kept as
    /// the reference for `sorted_lists`.
    fn lists_by_sort(
        x: &Matrix,
        y: &[f64],
        rows: &[usize],
        features: &[usize],
    ) -> Vec<(f64, f64, u32)> {
        let mut lists = Vec::new();
        for j in 0..features.len().max(1) {
            let f = features.get(j);
            let start = lists.len();
            lists.extend(
                rows.iter()
                    .map(|&r| (f.map_or(0.0, |&f| x.get(r, f)), y[r], r as u32)),
            );
            lists[start..].sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        lists
    }

    /// The `(value, target, row)` lists `sorted_lists`'s `(class, row)`
    /// lists stand for, read back through `x` and `y`, as bits. Also
    /// checks the classes: adjacent entries share one exactly when their
    /// values are `==`.
    fn expanded_bits(
        lists: &[Entry],
        x: &Matrix,
        y: &[f64],
        n: usize,
        features: &[usize],
    ) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::with_capacity(lists.len());
        for (j, list) in lists.chunks_exact(n.max(1)).enumerate() {
            let value = |e: &Entry| features.get(j).map_or(0.0, |&f| x.get(e.row as usize, f));
            for pair in list.windows(2) {
                let same = value(&pair[0]) == value(&pair[1]);
                assert_eq!(pair[0].class == pair[1].class, same, "{pair:?}");
            }
            out.extend(list.iter().map(|e| {
                let v = value(e).to_bits();
                (v, y[e.row as usize].to_bits(), e.row)
            }));
        }
        out
    }

    #[test]
    fn rank_counting_sort_lists_equal_the_stable_comparison_sort() {
        let bits = |lists: Vec<(f64, f64, u32)>| -> Vec<(u64, u64, u32)> {
            lists
                .into_iter()
                .map(|(v, y, r)| (v.to_bits(), y.to_bits(), r))
                .collect()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let (tied, tied_y) = tied_integer_data(&mut rng, 90, 7);
        let zeros = Matrix::from_rows(
            &(0..40)
                .map(|i| {
                    vec![
                        [-0.0, 0.0, 1.0, -2.5][i % 4],
                        [0.0, -0.0][i % 3 % 2],
                        i as f64,
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let zeros_y: Vec<f64> = (0..40).map(|i| (i % 5) as f64).collect();
        // Signed zeros rank apart, -0.0 below +0.0, but share a class.
        let ranks = Ranks::new(&zeros);
        assert_eq!(&ranks.rank[..4], &[(1, 1), (2, 1), (3, 2), (0, 0)]);
        for (x, y) in [(&tied, &tied_y), (&zeros, &zeros_y)] {
            let ranks = Ranks::new(x);
            let m = x.rows();
            let all = all_rows(x);
            let boot: Vec<usize> = (0..m).map(|_| rng.gen_range(0..m)).collect();
            // A subset of x's rows, with repeats.
            let subset: Vec<usize> = (0..m / 3).map(|_| rng.gen_range(m / 2..m)).collect();
            let features: Vec<usize> = (0..x.cols()).collect();
            for rows in [&all, &boot, &subset] {
                for feats in [&features[..], &features[1..2], &[]] {
                    let lists = sorted_lists(&ranks, rows, feats);
                    assert_eq!(
                        expanded_bits(&lists, x, y, rows.len(), feats),
                        bits(lists_by_sort(x, y, rows, feats)),
                        "{} rows, features {feats:?}",
                        rows.len()
                    );
                }
            }
            let sub_y: Vec<f64> = subset.iter().map(|&r| y[r]).collect();
            let p = TreeParams::default();
            assert_eq!(
                DecisionTreeRegressor::fit_with(x, &ranks, y, &subset, p, None),
                reference::fit(&x.select_rows(&subset), &sub_y, p, None)
            );
        }
    }

    #[test]
    fn predict_many_walks_each_row_as_predict_one_does() {
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let (x, y) = tied_integer_data(&mut rng, 120, 6);
        let tree = DecisionTreeRegressor::fit(&x, &y);
        let single = DecisionTreeRegressor::fit(&x, &[3.0; 120]);
        assert_eq!(single.node_count(), 1);
        let mut rows: Vec<Vec<f64>> = (0..17).map(|r| x.row(r * 7).to_vec()).collect();
        for (k, row) in rows.iter_mut().enumerate().step_by(3) {
            row[k % 6] = f64::NAN;
        }
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        for t in [&tree, &single] {
            for len in 0..=17 {
                let want: Vec<u64> = rows[..len]
                    .iter()
                    .map(|r| t.predict_one(r).to_bits())
                    .collect();
                let got: Vec<u64> = t
                    .predict_many(&rows[..len])
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                assert_eq!(got, want, "{len} rows");
            }
        }
        let want: Vec<f64> = (0..x.rows()).map(|r| tree.predict_one(x.row(r))).collect();
        assert_eq!(tree.predict(&x), want);
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
    fn node_stays_16_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
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
        // NaN fails `<=`, so it goes right.
        assert_eq!(t.predict_one(&[f64::NAN]), 9.0);
    }

    #[test]
    fn signed_zeros_are_one_value_to_a_split() {
        let (x, y) = xy(&[(-0.0, 0.0), (0.0, 50.0), (1.0, 50.0)]);
        let t = DecisionTreeRegressor::fit(&x, &y);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.predict_one(&[-0.0]), 25.0);
        assert_eq!(t, reference::fit(&x, &y, TreeParams::default(), None));
    }

    #[test]
    fn an_infinite_feature_still_splits() {
        let (x, y) = xy(&[(1.0, 0.0), (2.0, 0.0), (f64::INFINITY, 100.0)]);
        let t = DecisionTreeRegressor::fit(&x, &y);
        assert_eq!(t.node_count(), 3);
        for (r, &want) in y.iter().enumerate() {
            assert_eq!(t.predict_one(x.row(r)), want, "row {r}");
        }
        assert_eq!(t, reference::fit(&x, &y, TreeParams::default(), None));
        // Both infinities in one feature: their midpoint is NaN.
        let (x, y) = xy(&[(f64::NEG_INFINITY, 0.0), (f64::INFINITY, 100.0)]);
        let t = DecisionTreeRegressor::fit(&x, &y);
        assert_eq!(
            (t.predict_one(x.row(0)), t.predict_one(x.row(1))),
            (0.0, 100.0)
        );
    }

    #[test]
    fn a_midpoint_that_rounds_up_takes_the_lower_value() {
        let (lo, hi) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(0.5 * (lo + hi), hi, "the midpoint rounds up");
        let (x, y) = xy(&[(1.0, 0.0), (lo, 0.0), (hi, 100.0)]);
        let t = DecisionTreeRegressor::fit(&x, &y);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.predict_one(&[lo]), 0.0);
        assert_eq!(t.predict_one(&[hi]), 100.0);
        assert_eq!(t, reference::fit(&x, &y, TreeParams::default(), None));
    }

    #[test]
    #[should_panic(expected = "NaN feature at row 2, column 1")]
    fn a_nan_feature_is_refused_by_row_and_column() {
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, f64::NAN]]);
        DecisionTreeRegressor::fit(&x, &[0.0, 0.0, 100.0]);
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
            &Ranks::new(&x),
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
            &Ranks::new(&x),
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
            &Ranks::new(&x),
            &y,
            &all_rows(&x),
            TreeParams::default(),
            Some(&[1]),
        );
        assert_eq!(t0.node_count(), 3);
    }
}
