//! Extension experiment: surrogate vs simulator on a parameter sweep.
//!
//! The paper's core value proposition is that the surrogate "permits us
//! to more accurately extrapolate across the large search space, allowing
//! us to model the space with a fraction of the data requirements". This
//! experiment validates that claim head-on: the ROB-size sweep of Fig. 7
//! is produced twice — once by fresh simulation (minutes) and once as the
//! trained tree's partial-dependence curve over the dataset
//! (microseconds) — and the two speedup curves are compared point by
//! point.

use crate::report;
use crate::sweeps::{SweepFig, ROB_POINTS};
use armdse_core::config::FEATURE_NAMES;
use armdse_core::{DseDataset, SurrogateSuite};
use armdse_kernels::App;
use armdse_mltree::partial_dependence_speedup;

/// Comparison of one app's simulated vs surrogate speedup curves.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CurveComparison {
    /// Application name.
    pub app: String,
    /// (swept value, simulated speedup, surrogate-predicted speedup).
    pub points: Vec<(u32, f64, f64)>,
    /// Mean absolute difference between the two speedup curves.
    pub mean_abs_diff: f64,
}

/// The full cross-validation result.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossVal {
    /// One comparison per application.
    pub(crate) comparisons: Vec<CurveComparison>,
}

/// Compare the simulated Fig. 7 against the ROB partial-dependence
/// speedup of `suite`, the surrogates trained on `data`.
pub fn run(data: &DseDataset, suite: &SurrogateSuite, fig7: &SweepFig) -> CrossVal {
    let rob_feature = FEATURE_NAMES
        .iter()
        .position(|&n| n == "ROB-Size")
        .expect("ROB-Size feature exists");
    let grid: Vec<f64> = ROB_POINTS.iter().map(|&v| f64::from(v)).collect();

    let comparisons = App::ALL
        .iter()
        .filter_map(|&app| {
            let model = suite.model(app)?;
            let ml = data.ml_dataset(app);
            let pd = partial_dependence_speedup(&model.tree, &ml.x, rob_feature, &grid);
            let points: Vec<(u32, f64, f64)> = ROB_POINTS
                .iter()
                .zip(&pd)
                .filter_map(|(&v, &(_, surrogate))| {
                    fig7.speedup(app, v).map(|sim| (v, sim, surrogate))
                })
                .collect();
            let mean_abs_diff = points
                .iter()
                .map(|(_, sim, sur)| (sim - sur).abs())
                .sum::<f64>()
                / points.len().max(1) as f64;
            Some(CurveComparison {
                app: app.name().to_string(),
                points,
                mean_abs_diff,
            })
        })
        .collect();
    CrossVal { comparisons }
}

impl CrossVal {
    /// The structured artifacts, one table per application.
    pub fn tables(&self) -> Vec<report::Table> {
        self.comparisons
            .iter()
            .map(|c| {
                let rows: Vec<Vec<String>> = c
                    .points
                    .iter()
                    .map(|(v, sim, sur)| {
                        vec![v.to_string(), format!("{sim:.2}x"), format!("{sur:.2}x")]
                    })
                    .collect();
                report::Table::new(
                    &format!(
                        "Extension: surrogate vs simulator ROB sweep — {} (mean |Δ| {:.2})",
                        c.app, c.mean_abs_diff
                    ),
                    &["ROB-Size", "Simulated", "Surrogate PD"],
                    rows,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::fig7;
    use crate::test_support::{dataset, quick};
    use armdse_core::engine::Engine;
    use armdse_core::JobSpec;

    #[test]
    fn surrogate_curve_has_correct_direction() {
        // 300 configs (up from 150): with fewer samples the tree sees
        // too few high-ROB points and its partial dependence at the
        // largest ROB can dip below 1.0 for one app — a data-sparsity
        // artefact, not a direction error.
        let data = dataset(&quick(300));
        let engine = Engine::idealized();
        let sweep = JobSpec {
            seed: 5,
            ..quick(3)
        };
        let f7 = fig7(&engine, &sweep).unwrap();
        let cv = run(&data, &SurrogateSuite::train(&data, 0.2, 5), &f7);
        assert_eq!(cv.comparisons.len(), 4);
        for c in &cv.comparisons {
            // Surrogate speedup at the largest ROB must exceed 1 (the
            // direction of the simulated effect), even with a small
            // training set.
            let last = c.points.last().unwrap();
            assert!(
                last.2 > 1.0,
                "{}: surrogate missed the ROB direction: {:?}",
                c.app,
                c.points
            );
        }
        let t: String = cv.tables().iter().map(report::Table::to_text).collect();
        assert!(t.contains("Surrogate PD"));
    }
}
