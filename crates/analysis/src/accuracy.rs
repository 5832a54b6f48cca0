//! Fig. 2 — percentage of cycle predictions within specified confidence
//! intervals of the true simulated value, per application, on the unseen
//! 20% test split.

use crate::report;
use armdse_core::surrogate::TOLERANCES;
use armdse_core::SurrogateSuite;

/// The reproduced Fig. 2 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// (app, [(tolerance, fraction within)]).
    pub curves: Vec<(String, Vec<(f64, f64)>)>,
    /// Mean relative accuracy across apps (paper: 93.38%).
    pub mean_accuracy_pct: f64,
}

/// Fig. 2 from the trained per-app surrogates' tolerance curves.
pub fn from_suite(suite: &SurrogateSuite) -> Fig2 {
    Fig2 {
        curves: suite
            .models
            .iter()
            .map(|m| (m.app.name().to_string(), m.metrics.tolerance_curve.clone()))
            .collect(),
        mean_accuracy_pct: suite.mean_accuracy_pct(),
    }
}

impl Fig2 {
    /// The structured artifact (rows = apps, columns = intervals).
    pub fn table(&self) -> report::Table {
        let mut headers = vec!["App".to_string()];
        headers.extend(TOLERANCES.iter().map(|t| format!("≤{}%", t * 100.0)));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .curves
            .iter()
            .map(|(app, curve)| {
                let mut r = vec![app.clone()];
                r.extend(curve.iter().map(|(_, frac)| report::pct(100.0 * frac)));
                r
            })
            .collect();
        report::Table::new(
            "Fig. 2: % of predictions within confidence interval of true cycles",
            &headers_ref,
            rows,
        )
        .note(format!(
            "Mean accuracy across applications: {} (paper: 93.38%)",
            report::pct(self.mean_accuracy_pct)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{dataset, quick};

    #[test]
    fn curves_cover_all_sampled_apps_and_are_monotone() {
        let f = from_suite(&SurrogateSuite::train(&dataset(&quick(40)), 0.2, 3));
        assert_eq!(f.curves.len(), 4);
        for (_, curve) in &f.curves {
            for w in curve.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
        }
        assert!(f.mean_accuracy_pct > 0.0);
        let t = f.table().to_text();
        assert!(t.contains("STREAM") && t.contains("93.38%"));
    }
}
