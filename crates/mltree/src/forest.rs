//! Bagged random-forest regression.
//!
//! The paper's conclusion names "a more complex surrogate model" as future
//! work; the forest is that extension, to set against the paper's
//! single decision tree (variance reduction versus
//! interpretability — the single tree remains the paper's choice because
//! its structure and importances are directly inspectable).
//!
//! ## Incremental refits and ensemble variance
//!
//! The adaptive explorer retrains its surrogate after every simulated
//! batch, so the forest supports a warm-start protocol:
//! [`RandomForest::warm_start`] builds an empty ensemble and
//! [`RandomForest::partial_refit`] refits a rotating half of the trees
//! on a bootstrap of the rows accumulated so far. Each (round, tree)
//! pair derives its own RNG stream from the forest seed, so the fitted
//! ensemble after any sequence of refits is a pure function of
//! `(seed, params, per-round datasets)` — which is what lets a resumed
//! exploration replay its model history byte-identically. Acquisition
//! uses [`RandomForest::predict_variance`], the population variance of
//! the member trees' predictions (the bagging disagreement signal).
//!
//! ## Threads
//!
//! A refit and a pool-wide prediction are both a set of independent
//! per-tree jobs: fitting tree `t` at round `r` reads only `(seed, r, t,
//! x, y)` and the refit's table of each row's rank and `==` class per
//! feature of `x`, built once and shared read-only; walking rows through
//! a tree reads only that tree (eight rows at a time). So
//! [`RandomForest::partial_refit_with`] and [`PoolPredictions::refresh`]
//! take a thread count, hand the jobs to scoped workers racing on an
//! atomic counter, and put the results back in tree order before
//! anything reads them. Which worker ran which tree never reaches a
//! value: every float is produced by the same sequential arithmetic at
//! any thread count, and the ensemble mean and variance are always
//! summed in tree order (`ensemble_mean` / `ensemble_mean_var`, the one
//! spelling the row-wise methods and the table share). One thread is the
//! same code with no worker spawned.

use crate::matrix::Matrix;
use crate::tree::{DecisionTreeRegressor, Ranks, TreeParams};
use crate::Regressor;
use armdse_rng::{Rng, SeedableRng, SliceRandom, Xoshiro256pp};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Features considered per tree (`None` = all features, matching
    /// scikit-learn's regression-forest default; variance reduction then
    /// comes from bagging alone).
    pub max_features: Option<usize>,
    /// Per-tree parameters.
    pub tree: TreeParams,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 32,
            max_features: None,
            tree: TreeParams::default(),
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTreeRegressor>,
    params: ForestParams,
    seed: u64,
}

impl RandomForest {
    /// Fit with defaults and a seed.
    pub fn fit(x: &Matrix, y: &[f64], seed: u64) -> RandomForest {
        RandomForest::fit_with(x, y, ForestParams::default(), seed)
    }

    /// Fit with explicit hyper-parameters. Like every fit, panics on a
    /// NaN in `x`, naming its row and column.
    pub fn fit_with(x: &Matrix, y: &[f64], params: ForestParams, seed: u64) -> RandomForest {
        assert_eq!(x.rows(), y.len());
        assert!(x.rows() > 0 && params.n_trees > 0);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let ranks = Ranks::new(x);
        let trees = (0..params.n_trees)
            .map(|_| fit_tree(x, &ranks, y, params, &mut rng))
            .collect();
        RandomForest {
            trees,
            params,
            seed,
        }
    }

    /// An empty warm-start ensemble: no trees yet (so no predictions),
    /// ready to grow through [`RandomForest::partial_refit`].
    pub fn warm_start(params: ForestParams, seed: u64) -> RandomForest {
        assert!(params.n_trees > 0);
        RandomForest {
            trees: Vec::new(),
            params,
            seed,
        }
    }

    /// Incrementally refit on the rows accumulated so far.
    ///
    /// The first call fits every tree; later calls refit a rotating
    /// window of `⌈n_trees / 2⌉` trees on fresh bootstraps of `(x, y)`
    /// and keep the rest warm (they stay fitted to the earlier, smaller
    /// dataset until their window comes round). Two consecutive calls on
    /// the same data therefore refresh the whole ensemble, which is what
    /// bounds the divergence from a from-scratch fit (pinned by
    /// `tests/incremental.rs`).
    ///
    /// Determinism: tree `t` refit at round `r` always draws from the
    /// RNG stream seeded by `(forest seed, r, t)` — never from shared
    /// mutable RNG state — so the ensemble after any refit history is a
    /// pure function of the per-round datasets. Callers replaying a
    /// checkpointed exploration rely on this.
    ///
    /// This is [`RandomForest::partial_refit_with`] on one thread.
    pub fn partial_refit(&mut self, x: &Matrix, y: &[f64], round: u64) {
        self.partial_refit_with(x, y, round, 1);
    }

    /// [`RandomForest::partial_refit`] with the window's trees fitted on
    /// up to `threads` workers (clamped to `[1, trees in the window]`);
    /// the fitted forest is `==` at every thread count (module docs,
    /// *Threads*). Returns the indices of the trees it replaced, for
    /// [`PoolPredictions::mark_stale`].
    pub fn partial_refit_with(
        &mut self,
        x: &Matrix,
        y: &[f64],
        round: u64,
        threads: usize,
    ) -> Vec<usize> {
        assert_eq!(x.rows(), y.len());
        assert!(x.rows() > 0, "cannot refit on an empty dataset");
        let n_trees = self.params.n_trees;
        let window: Vec<usize> = if self.trees.is_empty() {
            (0..n_trees).collect()
        } else {
            // Reduced before multiplying: `round` is a public u64 and
            // `round * refresh` would overflow long before u64::MAX.
            let refresh = n_trees.div_ceil(2);
            let first = (round % n_trees as u64) as usize * refresh;
            (0..refresh).map(|k| (first + k) % n_trees).collect()
        };
        let (seed, params) = (self.seed, self.params);
        let ranks = Ranks::new(x);
        let fitted = run_indexed(window.len(), threads, |k| {
            fit_tree(x, &ranks, y, params, &mut refit_rng(seed, round, window[k]))
        });
        if self.trees.is_empty() {
            self.trees = fitted;
        } else {
            for (&t, tree) in window.iter().zip(fitted) {
                self.trees[t] = tree;
            }
        }
        window
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted member trees; the forest's prediction is their mean.
    pub fn trees(&self) -> &[DecisionTreeRegressor] {
        &self.trees
    }

    /// Population variance of the member trees' predictions at `row` —
    /// the ensemble-disagreement signal acquisition functions use as
    /// epistemic uncertainty. Computed with the two-pass (mean, then
    /// squared-deviation) formula: the one-pass `E[x²] − E[x]²` form
    /// loses to catastrophic cancellation at cycle-count magnitudes
    /// (~1e7² summed across trees) and can return small negative values.
    /// Guaranteed non-negative and finite for finite predictions.
    pub fn predict_variance(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "variance of an unfitted forest");
        let per_tree: Vec<f64> = self.trees.iter().map(|t| t.predict_one(row)).collect();
        ensemble_mean_var(per_tree.iter().copied()).1
    }
}

/// Ensemble mean of one row's per-tree predictions: summed in the
/// iterator's (tree) order, ÷ n. With [`ensemble_mean_var`] the only
/// place the ensemble arithmetic is written, so [`RandomForest`]'s
/// row-wise methods and [`PoolPredictions`] agree to the bit.
fn ensemble_mean(per_tree: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = per_tree.len() as f64;
    per_tree.sum::<f64>() / n
}

/// [`ensemble_mean`] and the population variance around it, by the
/// two-pass formula (it walks `per_tree` twice: pass stored predictions).
fn ensemble_mean_var(per_tree: impl ExactSizeIterator<Item = f64> + Clone) -> (f64, f64) {
    let n = per_tree.len() as f64;
    let mean = ensemble_mean(per_tree.clone());
    let var = per_tree
        .map(|p| {
            let d = p - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    // The two-pass sum of squares is non-negative by construction;
    // max(0) documents the invariant against future refactors.
    (mean, var.max(0.0))
}

/// `f(0), …, f(n − 1)` computed on up to `threads` threads (clamped to
/// `[1, n]`) and returned in index order. The calling thread is one of
/// the workers, so one thread spawns nothing; the others are scoped and
/// joined before this returns. Workers race on a ticket counter — which
/// one computes which index is not observable in the result.
fn run_indexed<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let work = || {
        let mut local = Vec::new();
        loop {
            // Relaxed: the ticket publishes no data; results travel
            // through the mutex and the scope's join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        done.lock()
            .expect("a forest worker panicked")
            .append(&mut local);
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(work);
        }
        work();
    });
    let mut done = done.into_inner().expect("a forest worker panicked");
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, v)| v).collect()
}

/// Per-tree predictions of a fixed pool of candidate rows, kept across
/// refits: a `[tree][candidate]` table from which the ensemble mean and
/// standard deviation of any candidate are read without walking a tree.
///
/// A surrogate-guided search scores its whole pool after every
/// [`RandomForest::partial_refit`], but a refit replaces only half the
/// trees; the other half's predictions cannot have changed. The owner
/// tells the table which trees were replaced ([`Self::mark_stale`]),
/// and [`Self::refresh`] walks each stale tree once per candidate still
/// of interest. [`Self::mean_std`] is then bit-identical to
/// [`Regressor::predict_one`] and `predict_variance(..).sqrt()`.
#[derive(Debug)]
pub struct PoolPredictions {
    /// `per_tree[t][c]`: tree `t`'s prediction for pool row `c` (NaN
    /// until first refreshed, so an unfilled cell cannot pass for a
    /// prediction).
    per_tree: Vec<Vec<f64>>,
    stale: Vec<bool>,
}

impl PoolPredictions {
    /// A table for `n_trees` trees over `pool` candidate rows, every
    /// tree stale.
    pub fn new(n_trees: usize, pool: usize) -> PoolPredictions {
        PoolPredictions {
            per_tree: vec![vec![f64::NAN; pool]; n_trees],
            stale: vec![true; n_trees],
        }
    }

    /// Record that `trees` were replaced (the return value of
    /// [`RandomForest::partial_refit_with`]).
    pub fn mark_stale(&mut self, trees: &[usize]) {
        for &t in trees {
            self.stale[t] = true;
        }
    }

    /// Bring every stale tree up to date with `forest` for the pool rows
    /// `candidates` (indices into `pool`), one tree per worker on up to
    /// `threads` threads. Rows outside `candidates` keep whatever they
    /// held: a caller that only ever narrows `candidates` (a search that
    /// retires candidates) may keep reading the ones it still passes.
    pub fn refresh<R: AsRef<[f64]> + Sync>(
        &mut self,
        forest: &RandomForest,
        pool: &[R],
        candidates: &[usize],
        threads: usize,
    ) {
        assert_eq!(
            forest.n_trees(),
            self.per_tree.len(),
            "table sized for another forest"
        );
        let stale: Vec<usize> = (0..self.stale.len()).filter(|&t| self.stale[t]).collect();
        let rows: Vec<&[f64]> = candidates.iter().map(|&c| pool[c].as_ref()).collect();
        let walked = run_indexed(stale.len(), threads, |k| {
            forest.trees[stale[k]].predict_many(&rows)
        });
        for (&t, preds) in stale.iter().zip(walked) {
            for (&c, p) in candidates.iter().zip(preds) {
                self.per_tree[t][c] = p;
            }
            self.stale[t] = false;
        }
    }

    /// Ensemble mean and standard deviation for pool row `candidate`,
    /// as of the last [`Self::refresh`] that covered it.
    pub fn mean_std(&self, candidate: usize) -> (f64, f64) {
        assert!(!self.stale.contains(&true), "read of an unrefreshed table");
        let (mean, var) = ensemble_mean_var(self.per_tree.iter().map(|t| t[candidate]));
        (mean, var.sqrt())
    }
}

/// The RNG stream of tree `t` refit at `round`: distinct odd multipliers
/// (SplitMix64-style Weyl constants) decorrelate the (round, tree) streams.
pub(crate) fn refit_rng(seed: u64, round: u64, t: usize) -> Xoshiro256pp {
    let stream = seed
        .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    Xoshiro256pp::seed_from_u64(stream)
}

/// Fit one bootstrap tree, drawing the bootstrap rows and the feature
/// subsample from `rng` (shared by [`RandomForest::fit_with`]'s
/// sequential stream and [`RandomForest::partial_refit`]'s per-(round,
/// tree) streams); `ranks` is `Ranks::new(x)`.
fn fit_tree(
    x: &Matrix,
    ranks: &Ranks,
    y: &[f64],
    params: ForestParams,
    rng: &mut Xoshiro256pp,
) -> DecisionTreeRegressor {
    let n = x.rows();
    let n_feat = x.cols();
    let m_feat = params.max_features.unwrap_or(n_feat).min(n_feat);
    // Bootstrap sample (with replacement), fitted in place.
    let boot: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
    // Feature subsample per tree.
    let mut feats: Vec<usize> = (0..n_feat).collect();
    feats.shuffle(rng);
    feats.truncate(m_feat);
    feats.sort_unstable();
    DecisionTreeRegressor::fit_with(x, ranks, y, &boot, params.tree, Some(&feats))
}

impl Regressor for RandomForest {
    fn predict_one(&self, row: &[f64]) -> f64 {
        ensemble_mean(self.trees.iter().map(|t| t.predict_one(row)))
    }

    /// Each tree walks all the rows eight at a time; each row then sums
    /// its trees' predictions in tree order, as `predict_one` does.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let rows: Vec<&[f64]> = (0..x.rows()).map(|r| x.row(r)).collect();
        let per_tree: Vec<Vec<f64>> = self.trees.iter().map(|t| t.predict_many(&rows)).collect();
        (0..rows.len())
            .map(|r| ensemble_mean(per_tree.iter().map(|p| p[r])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mae;

    fn noisy_quadratic() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 40) as f64]).collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| r[0] * r[0] + ((i * 31) % 11) as f64)
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_nonlinear_signal() {
        let (x, y) = noisy_quadratic();
        let f = RandomForest::fit(&x, &y, 42);
        let preds = f.predict(&x);
        // Noise amplitude is ~11; forest should be within it on average.
        assert!(mae(&preds, &y) < 11.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = noisy_quadratic();
        let a = RandomForest::fit(&x, &y, 7);
        let b = RandomForest::fit(&x, &y, 7);
        assert_eq!(a.predict_one(&[13.0]), b.predict_one(&[13.0]));
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = noisy_quadratic();
        let a = RandomForest::fit(&x, &y, 1);
        let b = RandomForest::fit(&x, &y, 2);
        assert_ne!(a.predict_one(&[13.5]), b.predict_one(&[13.5]));
    }

    #[test]
    fn n_trees_respected() {
        let (x, y) = noisy_quadratic();
        let p = ForestParams {
            n_trees: 5,
            ..Default::default()
        };
        assert_eq!(RandomForest::fit_with(&x, &y, p, 0).n_trees(), 5);
    }

    #[test]
    fn warm_start_first_refit_fits_every_tree() {
        let (x, y) = noisy_quadratic();
        let mut f = RandomForest::warm_start(ForestParams::default(), 9);
        assert_eq!(f.n_trees(), 0);
        f.partial_refit(&x, &y, 0);
        assert_eq!(f.n_trees(), ForestParams::default().n_trees);
        let preds = f.predict(&x);
        assert!(crate::metrics::mae(&preds, &y) < 11.0);
    }

    #[test]
    fn partial_refit_is_deterministic_and_round_sensitive() {
        let (x, y) = noisy_quadratic();
        let mut a = RandomForest::warm_start(ForestParams::default(), 3);
        let mut b = RandomForest::warm_start(ForestParams::default(), 3);
        a.partial_refit(&x, &y, 0);
        b.partial_refit(&x, &y, 0);
        assert_eq!(a, b);
        a.partial_refit(&x, &y, 1);
        assert_ne!(a, b, "round 1 must refresh a window of trees");
        b.partial_refit(&x, &y, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn partial_refit_refreshes_a_rotating_half() {
        let (x, y) = noisy_quadratic();
        // Even: rounds alternate halves. Odd: the window wraps.
        for (n_trees, round, window) in [
            (8, 1u64, vec![4, 5, 6, 7]),
            (8, 2, vec![0, 1, 2, 3]),
            (5, 3, vec![4, 0, 1]),
        ] {
            let p = ForestParams {
                n_trees,
                ..Default::default()
            };
            let mut f = RandomForest::warm_start(p, 5);
            let all = f.partial_refit_with(&x, &y, 0, 1);
            assert_eq!(all, (0..n_trees).collect::<Vec<_>>());
            let before = f.clone();
            let replaced = f.partial_refit_with(&x, &y, round, 2);
            assert_eq!(replaced, window, "{n_trees} trees, round {round}");
            let changed: Vec<usize> = (0..n_trees)
                .filter(|&t| before.trees()[t] != f.trees()[t])
                .collect();
            let mut replaced = replaced;
            replaced.sort_unstable();
            assert_eq!(changed, replaced, "reported trees are the changed trees");
        }
    }

    #[test]
    fn refit_window_does_not_overflow_at_the_largest_round() {
        let (x, y) = noisy_quadratic();
        for n_trees in [8usize, 7] {
            let p = ForestParams {
                n_trees,
                ..Default::default()
            };
            let mut f = RandomForest::warm_start(p, 5);
            f.partial_refit(&x, &y, 0);
            let refresh = n_trees.div_ceil(2);
            let window: Vec<usize> = (0..refresh)
                .map(|k| {
                    ((u64::MAX as u128 * refresh as u128 + k as u128) % n_trees as u128) as usize
                })
                .collect();
            assert_eq!(f.partial_refit_with(&x, &y, u64::MAX, 1), window);
        }
    }

    #[test]
    fn batch_predict_is_row_wise_predict_one() {
        let (x, y) = noisy_quadratic();
        let f = RandomForest::fit(&x, &y, 5);
        let want: Vec<u64> = (0..x.rows())
            .map(|r| f.predict_one(x.row(r)).to_bits())
            .collect();
        let got: Vec<u64> = f.predict(&x).iter().map(|p| p.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn variance_is_zero_on_constant_targets() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y = vec![7.5; 30];
        let f = RandomForest::fit(&Matrix::from_rows(&rows), &y, 11);
        // Every bootstrap sees only 7.5: all trees agree everywhere.
        assert_eq!(f.predict_variance(&[4.2]), 0.0);
    }

    #[test]
    fn prediction_is_ensemble_mean_within_hull() {
        let (x, y) = noisy_quadratic();
        let f = RandomForest::fit(&x, &y, 3);
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for q in 0..40 {
            let p = f.predict_one(&[q as f64]);
            assert!((lo..=hi).contains(&p));
        }
    }
}
