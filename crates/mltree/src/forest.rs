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

use crate::matrix::Matrix;
use crate::tree::{DecisionTreeRegressor, TreeParams};
use crate::Regressor;
use armdse_rng::{Rng, SeedableRng, SliceRandom, Xoshiro256pp};

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

    /// Fit with explicit hyper-parameters.
    pub fn fit_with(x: &Matrix, y: &[f64], params: ForestParams, seed: u64) -> RandomForest {
        assert_eq!(x.rows(), y.len());
        assert!(x.rows() > 0 && params.n_trees > 0);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let trees = (0..params.n_trees)
            .map(|_| fit_tree(x, y, params, &mut rng))
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
    pub fn partial_refit(&mut self, x: &Matrix, y: &[f64], round: u64) {
        assert_eq!(x.rows(), y.len());
        assert!(x.rows() > 0, "cannot refit on an empty dataset");
        let n_trees = self.params.n_trees;
        let refit_one = |t: usize| {
            // Decorrelate the (round, tree) streams with distinct odd
            // multipliers (SplitMix64-style Weyl constants).
            let stream = self
                .seed
                .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            let mut rng = Xoshiro256pp::seed_from_u64(stream);
            fit_tree(x, y, self.params, &mut rng)
        };
        if self.trees.is_empty() {
            self.trees = (0..n_trees).map(refit_one).collect();
            return;
        }
        let refresh = n_trees.div_ceil(2);
        for k in 0..refresh {
            let t = (round as usize * refresh + k) % n_trees;
            self.trees[t] = refit_one(t);
        }
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
        let n = self.trees.len() as f64;
        let mean = self.trees.iter().map(|t| t.predict_one(row)).sum::<f64>() / n;
        let var = self
            .trees
            .iter()
            .map(|t| {
                let d = t.predict_one(row) - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        // The two-pass sum of squares is non-negative by construction;
        // max(0) documents the invariant against future refactors.
        var.max(0.0)
    }
}

/// Fit one bootstrap tree, drawing the bootstrap rows and the feature
/// subsample from `rng` (shared by [`RandomForest::fit_with`]'s
/// sequential stream and [`RandomForest::partial_refit`]'s per-(round,
/// tree) streams).
fn fit_tree(
    x: &Matrix,
    y: &[f64],
    params: ForestParams,
    rng: &mut Xoshiro256pp,
) -> DecisionTreeRegressor {
    let n = x.rows();
    let n_feat = x.cols();
    let m_feat = params.max_features.unwrap_or(n_feat).min(n_feat);
    // Bootstrap sample (with replacement).
    let boot_x_rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
    let bx = x.select_rows(&boot_x_rows);
    let by: Vec<f64> = boot_x_rows.iter().map(|&i| y[i]).collect();
    // Feature subsample per tree.
    let mut feats: Vec<usize> = (0..n_feat).collect();
    feats.shuffle(rng);
    feats.truncate(m_feat);
    feats.sort_unstable();
    DecisionTreeRegressor::fit_with(&bx, &by, params.tree, Some(&feats))
}

impl Regressor for RandomForest {
    fn predict_one(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict_one(row)).sum::<f64>() / self.trees.len() as f64
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
        let p = ForestParams {
            n_trees: 8,
            ..Default::default()
        };
        let (x, y) = noisy_quadratic();
        let mut f = RandomForest::warm_start(p, 5);
        f.partial_refit(&x, &y, 0);
        let before = f.clone();
        f.partial_refit(&x, &y, 1);
        let changed = before
            .trees()
            .iter()
            .zip(f.trees())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(changed, 4, "round 1 refreshes trees 4..8");
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
