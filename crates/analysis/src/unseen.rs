//! Extension experiment: unseen-code prediction (the paper's stated
//! limitation, §VII).
//!
//! "This approach is still limited to applications the model has been
//! trained on, and cannot yet adapt to unseen codes as the model must
//! learn the characteristics of each code to accurately predict
//! otherwise."
//!
//! Protocol: each application's tree is trained on its own rows (80/20
//! split, exactly as the paper does), then asked to predict every *other*
//! application's cycles for the same configurations. Because the feature
//! vector carries no program information, the model can only reproduce
//! the cycle landscape of the code it was trained on; transfer accuracy
//! collapses, confirming the limitation and motivating the paper's
//! future-work direction of program-aware surrogates (Dubach et al.'s
//! architecture-centric models).

use crate::report;
use armdse_core::DseDataset;
use armdse_mltree::{mean_relative_accuracy, train_test_split, DecisionTreeRegressor, Regressor};

/// One source-model row of the transfer matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TransferRow {
    /// App the model was trained on.
    pub trained_on: String,
    /// Accuracy (%) on the training app's held-out test split.
    pub in_distribution_pct: f64,
    /// Accuracy (%) per target app (training app included, full rows).
    pub per_target_pct: Vec<(String, f64)>,
}

/// The cross-application transfer matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct UnseenFig {
    /// One row per source model.
    pub(crate) rows: Vec<TransferRow>,
}

/// Run the cross-application transfer experiment over every
/// application present in `data` (a dataset generated over the
/// extended kernel set — SpMV, GEMM, Graph — widens the matrix
/// automatically).
pub fn run(data: &DseDataset, seed: u64) -> UnseenFig {
    let apps = data.apps();
    let rows = apps
        .iter()
        .map(|&source| {
            let ml = data.ml_dataset(source);
            let (train, test) = train_test_split(&ml, 0.2, seed);
            let tree = DecisionTreeRegressor::fit(&train.x, &train.y);
            let in_distribution_pct = mean_relative_accuracy(&tree.predict(&test.x), &test.y);

            let per_target_pct = apps
                .iter()
                .map(|&target| {
                    let t = data.ml_dataset(target);
                    (
                        target.name().to_string(),
                        mean_relative_accuracy(&tree.predict(&t.x), &t.y),
                    )
                })
                .collect();

            TransferRow {
                trained_on: source.name().to_string(),
                in_distribution_pct,
                per_target_pct,
            }
        })
        .collect();
    UnseenFig { rows }
}

impl UnseenFig {
    /// Transfer accuracy from a model trained on `source` to `target`.
    #[cfg(test)]
    fn transfer(&self, source: armdse_kernels::App, target: armdse_kernels::App) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.trained_on == source.name())?
            .per_target_pct
            .iter()
            .find(|(t, _)| t == target.name())
            .map(|(_, p)| *p)
    }

    /// The paper's limitation is confirmed when, for most models, every
    /// cross-application prediction is materially worse than the model's
    /// own in-distribution accuracy.
    #[cfg(test)]
    fn limitation_confirmed(&self) -> bool {
        let confirmed = self
            .rows
            .iter()
            .filter(|r| {
                let worst_transfer = r
                    .per_target_pct
                    .iter()
                    .filter(|(t, _)| *t != r.trained_on)
                    .map(|(_, p)| *p)
                    .fold(f64::MAX, f64::min);
                worst_transfer + 10.0 < r.in_distribution_pct
            })
            .count();
        confirmed * 2 > self.rows.len()
    }

    /// The structured transfer matrix (rows = source, cols = target).
    pub fn table(&self) -> report::Table {
        let mut headers = vec!["Trained on".to_string(), "In-dist.".to_string()];
        let targets = self
            .rows
            .first()
            .map(|r| r.per_target_pct.as_slice())
            .unwrap_or_default();
        headers.extend(targets.iter().map(|(t, _)| format!("→ {t}")));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut row = vec![r.trained_on.clone(), report::pct(r.in_distribution_pct)];
                row.extend(r.per_target_pct.iter().map(|(_, p)| report::pct(*p)));
                row
            })
            .collect();
        report::Table::new(
            "Extension: cross-application transfer accuracy (paper §VII limitation)",
            &headers_ref,
            rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{dataset, quick};
    use armdse_core::JobSpec;
    use armdse_kernels::App;

    #[test]
    fn transfer_collapses_across_applications() {
        let data = dataset(&quick(80));
        let f = run(&data, 3);
        assert_eq!(f.rows.len(), 4);
        assert!(
            f.limitation_confirmed(),
            "cross-app prediction should be clearly worse: {f:#?}"
        );
        // A model asked about its own training app (full rows, including
        // rows it memorised) does far better than on a foreign app.
        let self_acc = f.transfer(App::Stream, App::Stream).unwrap();
        let cross_acc = f.transfer(App::Stream, App::MiniSweep).unwrap();
        assert!(self_acc > cross_acc, "{self_acc} !> {cross_acc}");
        let t = f.table().to_text();
        assert!(t.contains("Trained on"));
    }

    #[test]
    fn extended_kernels_widen_the_matrix() {
        // A dataset generated over the extended app set folds the new
        // kernels into the transfer matrix without any code changes.
        let data = dataset(&JobSpec {
            apps: App::EXTENDED.to_vec(),
            ..quick(30)
        });
        let f = run(&data, 3);
        assert_eq!(f.rows.len(), App::EXTENDED.len());
        assert!(f.transfer(App::Spmv, App::Gemm).is_some());
        let t = f.table().to_text();
        for app in App::EXTENDED {
            assert!(t.contains(app.name()), "missing {}", app.name());
        }
    }
}
