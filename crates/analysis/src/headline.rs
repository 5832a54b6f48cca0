//! §VI headline numbers: the paper's four quotable results.
//!
//! 1. Mean prediction accuracy 93.38% across applications.
//! 2. Vector length carries the largest performance weighting
//!    (25.91% of the summed importance).
//! 3. ROB sizes beyond ~152 yield minimal further improvement.
//! 4. FP/SVE register counts below ~144 bottleneck register rename.

use crate::report;
use crate::sweeps::SweepFig;
use armdse_core::SurrogateSuite;
use armdse_kernels::App;

/// The reproduced headline numbers beside the paper's.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Mean accuracy across per-app models (paper: 93.38%).
    pub mean_accuracy_pct: f64,
    /// Mean importance % of vector length across apps (paper: 25.91%).
    pub vl_importance_pct: f64,
    /// Rank of vector length among the 30 features by mean importance
    /// (paper: 1st).
    pub vl_rank: usize,
    /// ROB knee: smallest ROB reaching 90% of peak speedup, worst app
    /// (paper: 152).
    pub rob_knee: u32,
    /// FP/SVE register knee at 90% of peak speedup, worst app
    /// (paper: 144).
    pub fp_knee: u32,
}

/// The headline numbers from the trained suite and the Fig. 7/8 sweeps.
pub fn from_parts(suite: &SurrogateSuite, fig7: &SweepFig, fig8: &SweepFig) -> Headline {
    let vl = suite.mean_importance_pct("Vector-Length");
    // Rank vector length among all features by mean importance.
    let mut means: Vec<(String, f64)> = armdse_core::config::FEATURE_NAMES
        .iter()
        .map(|&n| (n.to_string(), suite.mean_importance_pct(n)))
        .collect();
    means.sort_by(|a, b| b.1.total_cmp(&a.1));
    let vl_rank = means
        .iter()
        .position(|(n, _)| n == "Vector-Length")
        .expect("vector length present")
        + 1;

    let worst_knee = |fig: &SweepFig| {
        App::ALL
            .iter()
            .filter_map(|&a| fig.knee(a, 0.9))
            .max()
            .expect("knee for some app")
    };

    Headline {
        mean_accuracy_pct: suite.mean_accuracy_pct(),
        vl_importance_pct: vl,
        vl_rank,
        rob_knee: worst_knee(fig7),
        fp_knee: worst_knee(fig8),
    }
}

impl Headline {
    /// The structured paper-vs-measured artifact.
    pub fn table(&self) -> report::Table {
        let rows = vec![
            vec![
                "Mean prediction accuracy".to_string(),
                "93.38%".to_string(),
                report::pct(self.mean_accuracy_pct),
            ],
            vec![
                "Vector-length importance share".to_string(),
                "25.91%".to_string(),
                report::pct(self.vl_importance_pct),
            ],
            vec![
                "Vector-length importance rank".to_string(),
                "1".to_string(),
                self.vl_rank.to_string(),
            ],
            vec![
                "ROB saturation knee".to_string(),
                "152".to_string(),
                self.rob_knee.to_string(),
            ],
            vec![
                "FP/SVE register knee".to_string(),
                "144".to_string(),
                self.fp_knee.to_string(),
            ],
        ];
        report::Table::new(
            "Headline results (paper vs this reproduction)",
            &["Quantity", "Paper", "Measured"],
            rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::{fig7, fig8};
    use crate::test_support::{dataset, quick};
    use armdse_core::engine::Engine;
    use armdse_core::space::ParamSpace;
    use armdse_core::JobSpec;

    #[test]
    fn headline_computes_and_renders() {
        let engine = Engine::idealized();
        let data = dataset(&quick(40));
        let sweep = JobSpec {
            seed: 13,
            ..quick(3)
        };
        let suite = SurrogateSuite::train(&data, 0.2, 3);
        let space = ParamSpace::paper();
        let h = from_parts(
            &suite,
            &fig7(&engine, &space, &sweep).unwrap(),
            &fig8(&engine, &space, &sweep).unwrap(),
        );
        assert!(h.mean_accuracy_pct > 0.0);
        assert!((1..=30).contains(&h.vl_rank));
        assert!(h.rob_knee >= 8 && h.rob_knee <= 512);
        assert!(h.fp_knee >= 38 && h.fp_knee <= 512);
        let t = h.table().to_text();
        assert!(t.contains("93.38%") && t.contains("25.91%"));
    }
}
