//! Permutation feature importance (paper §VI-B).
//!
//! "This method randomly shuffles the values of each feature before
//! predicting our output variable and scoring the model with the mean
//! absolute error criterion. This method is repeated 10 times, taking the
//! mean error as the permutation feature importance. Finally, we
//! contextualise this data by expressing the importance as the percentage
//! of the summed error increase across all features."

use crate::matrix::Matrix;
use crate::metrics::mae;
use crate::Regressor;
use armdse_rng::{SeedableRng, SliceRandom, Xoshiro256pp};

/// Importance result for one feature.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureImportance {
    /// Feature name.
    pub name: String,
    /// Mean MAE increase over the repeats (raw importance).
    pub mean_error_increase: f64,
    /// Importance as a percentage of the summed error increase across all
    /// features (the paper's reported metric; may be slightly negative
    /// for genuinely irrelevant features due to shuffle noise).
    pub percent: f64,
}

/// Importance report for a model over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceReport {
    /// Per-feature importances, in feature order.
    pub features: Vec<FeatureImportance>,
    /// Baseline (unshuffled) MAE.
    pub baseline_mae: f64,
}

impl ImportanceReport {
    /// Features sorted by descending percentage.
    pub fn ranked(&self) -> Vec<&FeatureImportance> {
        let mut v: Vec<&FeatureImportance> = self.features.iter().collect();
        v.sort_by(|a, b| b.percent.total_cmp(&a.percent));
        v
    }

    /// Importance percentage of a named feature.
    pub fn percent_of(&self, name: &str) -> Option<f64> {
        self.features
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.percent)
    }

    /// The top-`k` features by percentage.
    pub fn top(&self, k: usize) -> Vec<&FeatureImportance> {
        self.ranked().into_iter().take(k).collect()
    }
}

/// Compute permutation feature importance of `model` on (`x`, `y`).
pub fn permutation_importance(
    model: &dyn Regressor,
    x: &Matrix,
    y: &[f64],
    feature_names: &[String],
    repeats: usize,
    seed: u64,
) -> ImportanceReport {
    assert_eq!(x.rows(), y.len());
    assert_eq!(x.cols(), feature_names.len());
    assert!(repeats >= 1);
    let baseline = mae(&model.predict(x), y);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);

    let mut raw = vec![0.0f64; x.cols()];
    let mut shuffled = x.clone();
    for (f, slot) in raw.iter_mut().enumerate() {
        let original = x.col(f);
        let mut acc = 0.0;
        for _ in 0..repeats {
            let mut perm = original.clone();
            perm.shuffle(&mut rng);
            for (r, v) in perm.iter().enumerate() {
                shuffled.set(r, f, *v);
            }
            acc += mae(&model.predict(&shuffled), y);
        }
        // Restore the column before moving on.
        for (r, v) in original.iter().enumerate() {
            shuffled.set(r, f, *v);
        }
        *slot = acc / repeats as f64 - baseline;
    }

    let total: f64 = raw.iter().map(|v| v.max(0.0)).sum();
    let features = raw
        .iter()
        .zip(feature_names)
        .map(|(&inc, name)| FeatureImportance {
            name: name.clone(),
            mean_error_increase: inc,
            percent: if total > 0.0 {
                100.0 * inc / total
            } else {
                0.0
            },
        })
        .collect();
    ImportanceReport {
        features,
        baseline_mae: baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTreeRegressor;

    /// y depends strongly on feature 0, weakly on feature 1, not at all
    /// on feature 2.
    fn synthetic() -> (Matrix, Vec<f64>, Vec<String>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300u64 {
            // Deterministic pseudo-random features.
            let a = ((i * 2654435761) % 97) as f64;
            let b = ((i * 40503) % 89) as f64;
            let c = ((i * 9176) % 83) as f64;
            rows.push(vec![a, b, c]);
            y.push(10.0 * a + 1.0 * b);
        }
        (
            Matrix::from_rows(&rows),
            y,
            vec!["strong".into(), "weak".into(), "noise".into()],
        )
    }

    #[test]
    fn ranks_features_by_true_influence() {
        let (x, y, names) = synthetic();
        let t = DecisionTreeRegressor::fit(&x, &y);
        let rep = permutation_importance(&t, &x, &y, &names, 10, 42);
        let ranked = rep.ranked();
        assert_eq!(ranked[0].name, "strong");
        assert_eq!(ranked[1].name, "weak");
        assert!(rep.percent_of("strong").unwrap() > 60.0);
        assert!(rep.percent_of("noise").unwrap() < 10.0);
    }

    #[test]
    fn percentages_sum_to_about_100() {
        let (x, y, names) = synthetic();
        let t = DecisionTreeRegressor::fit(&x, &y);
        let rep = permutation_importance(&t, &x, &y, &names, 5, 0);
        let sum: f64 = rep.features.iter().map(|f| f.percent.max(0.0)).sum();
        assert!((sum - 100.0).abs() < 1.0, "sum {sum}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y, names) = synthetic();
        let t = DecisionTreeRegressor::fit(&x, &y);
        let a = permutation_importance(&t, &x, &y, &names, 3, 9);
        let b = permutation_importance(&t, &x, &y, &names, 3, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_mae_zero_for_memorising_tree() {
        let (x, y, names) = synthetic();
        let t = DecisionTreeRegressor::fit(&x, &y);
        let rep = permutation_importance(&t, &x, &y, &names, 2, 1);
        assert!(rep.baseline_mae < 1e-9);
    }

    #[test]
    fn top_k_truncates() {
        let (x, y, names) = synthetic();
        let t = DecisionTreeRegressor::fit(&x, &y);
        let rep = permutation_importance(&t, &x, &y, &names, 2, 1);
        assert_eq!(rep.top(2).len(), 2);
        assert_eq!(rep.top(10).len(), 3);
    }
}
