//! Per-application surrogate training and introspection — the paper's
//! contribution C2 (the `analysis.py` stage of artifact A₂).
//!
//! One decision-tree regressor is trained per application ("We train a
//! separate model per application to allow for a more flexible approach"),
//! on an 80/20 randomised split, and introspected with permutation
//! feature importance.

use crate::config::FEATURE_NAMES;
use crate::dataset::DseDataset;
use armdse_kernels::App;
use armdse_mltree::{
    mae, mean_relative_accuracy, permutation_importance, r2, train_test_split, within_tolerance,
    DecisionTreeRegressor, ImportanceReport, Regressor,
};

/// Confidence intervals of the paper's Fig. 2 (relative tolerance).
pub const TOLERANCES: [f64; 7] = [0.005, 0.01, 0.02, 0.05, 0.10, 0.25, 0.50];

/// Accuracy metrics for one app's model on its held-out test split.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMetrics {
    /// (tolerance, fraction of predictions within tolerance) — Fig. 2.
    pub tolerance_curve: Vec<(f64, f64)>,
    /// Mean relative accuracy percent (paper headline: 93.38% average).
    pub accuracy_pct: f64,
    /// Mean absolute error in cycles.
    pub mae: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Training-set size.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
}

/// A trained, evaluated, and introspected per-app surrogate.
#[derive(Debug, Clone)]
pub struct AppModel {
    /// Application this model predicts.
    pub app: App,
    /// The fitted decision tree.
    pub tree: DecisionTreeRegressor,
    /// Held-out accuracy metrics.
    pub metrics: ModelMetrics,
    /// Permutation feature importance on the test split (10 repeats,
    /// MAE scoring, percent-normalised — §VI-B).
    pub importance: ImportanceReport,
}

/// The full per-application model suite.
#[derive(Debug, Clone)]
pub struct SurrogateSuite {
    /// One model per application present in the dataset.
    pub models: Vec<AppModel>,
}

impl SurrogateSuite {
    /// Train one tree per app found in `data` with a randomised
    /// `test_frac` hold-out (the paper: 0.2) and seeded determinism.
    pub fn train(data: &DseDataset, test_frac: f64, seed: u64) -> SurrogateSuite {
        let models = App::ALL
            .iter()
            .filter(|&&app| !data.for_app(app).is_empty())
            .map(|&app| train_app(data, app, test_frac, seed))
            .collect();
        SurrogateSuite { models }
    }

    /// Model for one app.
    pub fn model(&self, app: App) -> Option<&AppModel> {
        self.models.iter().find(|m| m.app == app)
    }

    /// Mean accuracy across apps (the paper's aggregate 93.38% number).
    pub fn mean_accuracy_pct(&self) -> f64 {
        assert!(!self.models.is_empty());
        self.models
            .iter()
            .map(|m| m.metrics.accuracy_pct)
            .sum::<f64>()
            / self.models.len() as f64
    }

    /// Mean importance percentage of a feature across apps — the basis of
    /// the paper's "vector length … 25.91% of our performance weighting".
    pub fn mean_importance_pct(&self, feature: &str) -> f64 {
        assert!(!self.models.is_empty());
        self.models
            .iter()
            .map(|m| m.importance.percent_of(feature).unwrap_or(0.0))
            .sum::<f64>()
            / self.models.len() as f64
    }
}

fn train_app(data: &DseDataset, app: App, test_frac: f64, seed: u64) -> AppModel {
    let ml = data.ml_dataset(app);
    let (train, test) = train_test_split(&ml, test_frac, seed);
    let tree = DecisionTreeRegressor::fit(&train.x, &train.y);
    let pred = tree.predict(&test.x);

    let metrics = ModelMetrics {
        tolerance_curve: TOLERANCES
            .iter()
            .map(|&t| (t, within_tolerance(&pred, &test.y, t)))
            .collect(),
        accuracy_pct: mean_relative_accuracy(&pred, &test.y),
        mae: mae(&pred, &test.y),
        r2: r2(&pred, &test.y),
        n_train: train.len(),
        n_test: test.len(),
    };

    let names: Vec<String> = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    let importance = permutation_importance(&tree, &test.x, &test.y, &names, 10, seed ^ 0xABCD);

    AppModel {
        app,
        tree,
        metrics,
        importance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::jobstore::JobSpec;
    use crate::space::ParamSpace;
    use armdse_kernels::WorkloadScale;

    fn small_dataset() -> DseDataset {
        let opts = JobSpec {
            configs: 60,
            scale: WorkloadScale::Tiny,
            seed: 4242,
            threads: 2,
            apps: vec![App::Stream, App::MiniBude],
            ..JobSpec::default()
        };
        let plan = opts.plan(&ParamSpace::paper()).unwrap();
        let mut data = DseDataset::default();
        Engine::idealized().run(&plan, &mut data).unwrap();
        data
    }

    #[test]
    fn trains_one_model_per_app_present() {
        let suite = SurrogateSuite::train(&small_dataset(), 0.2, 1);
        assert_eq!(suite.models.len(), 2);
        assert!(suite.model(App::Stream).is_some());
        assert!(suite.model(App::TeaLeaf).is_none());
    }

    #[test]
    fn tolerance_curve_is_monotone_nondecreasing() {
        let suite = SurrogateSuite::train(&small_dataset(), 0.2, 1);
        for m in &suite.models {
            let c = &m.metrics.tolerance_curve;
            for w in c.windows(2) {
                assert!(w[1].1 >= w[0].1, "{:?}", c);
            }
            assert_eq!(c.len(), TOLERANCES.len());
        }
    }

    #[test]
    fn accuracy_in_percent_range() {
        let suite = SurrogateSuite::train(&small_dataset(), 0.2, 1);
        let acc = suite.mean_accuracy_pct();
        assert!((0.0..=100.0).contains(&acc), "{acc}");
    }

    #[test]
    fn importance_report_covers_thirty_features() {
        let suite = SurrogateSuite::train(&small_dataset(), 0.2, 1);
        for m in &suite.models {
            assert_eq!(m.importance.features.len(), 30);
        }
        // Mean importance query works for a known feature.
        let _ = suite.mean_importance_pct("Vector-Length");
    }

    #[test]
    fn deterministic_training() {
        let d = small_dataset();
        let a = SurrogateSuite::train(&d, 0.2, 5);
        let b = SurrogateSuite::train(&d, 0.2, 5);
        assert_eq!(a.models[0].metrics, b.models[0].metrics);
    }
}
