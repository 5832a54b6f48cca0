//! # armdse-mltree — from-scratch machine learning for surrogate modelling
//!
//! Implements the paper's modelling stack without external ML
//! dependencies:
//!
//! * `tree` — CART decision-tree regression with the exact
//!   configuration the paper uses (§V-C): mean-squared-error split
//!   criterion, best-split (not random) at every node, no maximum depth,
//!   no maximum leaf count, and single-sample leaves permitted.
//! * `forest` — a bagged random-forest regressor (the paper's
//!   "more complex surrogate model" future-work direction; the
//!   Explorer's surrogate) and the per-tree pool-prediction table the
//!   Explorer scores its candidates from.
//! * `linear` — ordinary least squares via normal equations (the
//!   baseline of the related work the paper modernises, P.J. Joseph et
//!   al.'s linear processor-performance models).
//! * `importance` — permutation feature importance exactly as §VI-B:
//!   shuffle one feature column, score with mean absolute error, repeat
//!   10 times, average, and normalise to a percentage of the summed error
//!   increase across features.
//! * `explain` — decision-path tracing (the interpretability that
//!   motivates the paper's model choice).
//! * `partial` — partial-dependence curves: the surrogate's cheap
//!   answer to the simulated parameter sweeps of Figs. 6–8.
//! * `metrics` — MAE/R², tolerance curves (Fig. 2's
//!   "% of predictions within X% of the true value"), and the mean
//!   relative accuracy headline (the paper's 93.38%).
//! * `split` — seeded randomised train/test splitting (the paper's
//!   80/20 split).

#![warn(missing_docs)]

mod explain;
mod forest;
mod importance;
mod linear;
mod matrix;
mod metrics;
mod partial;
mod split;
mod tree;

pub use forest::{ForestParams, PoolPredictions, RandomForest};
pub use importance::{permutation_importance, FeatureImportance, ImportanceReport};
pub use linear::LinearRegression;
pub use matrix::{Dataset, Matrix};
pub use metrics::{mae, mean_relative_accuracy, r2, within_tolerance};
pub use partial::partial_dependence_speedup;
pub use split::train_test_split;
pub use tree::{DecisionTreeRegressor, TreeParams};

/// A fitted regression model that predicts a scalar target from a feature
/// row.
pub trait Regressor {
    /// Predict one row.
    fn predict_one(&self, row: &[f64]) -> f64;

    /// Predict every row of a matrix.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.predict_one(x.row(r))).collect()
    }
}
