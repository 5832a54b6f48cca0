//! Figs. 3, 4, 5 — permutation feature importance percentages.
//!
//! * Fig. 3: importances on the full design space.
//! * Fig. 4: importances with vector length constrained to 128 bits.
//! * Fig. 5: importances with vector length constrained to 2048 bits.
//!
//! The constrained variants answer the paper's question: "to ensure a
//! fair comparison of other features we also analyse the importance of
//! all other features when vector length is constrained."

use crate::report;
use armdse_core::engine::Engine;
use armdse_core::space::ParamSpace;
use armdse_core::{ArmdseError, DseDataset, JobSpec, SurrogateSuite};
use armdse_kernels::App;

/// Number of features shown per app (the paper plots the top ten).
pub(crate) const TOP_K: usize = 10;

/// Importance percentages for every app.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceFig {
    /// Figure label ("Fig. 3" / "Fig. 4" / "Fig. 5").
    pub label: String,
    /// (app, [(feature, importance %)]) — full set, descending by mean.
    pub per_app: Vec<(String, Vec<(String, f64)>)>,
}

/// Figs. 4/5: run `spec` with vector length pinned to `vl` (128 for
/// Fig. 4, 2048 for Fig. 5), then train with the spec's seed and rank.
pub fn fig45(
    engine: &Engine,
    space: &ParamSpace,
    spec: &JobSpec,
    vl: u32,
) -> Result<ImportanceFig, ArmdseError> {
    let pinned = JobSpec {
        pins: vec![("Vector-Length".into(), f64::from(vl))],
        ..spec.clone()
    };
    let mut data = DseDataset::default();
    engine.run(&pinned.plan(space)?, &mut data)?;
    let suite = SurrogateSuite::train(&data, 0.2, spec.seed);
    let label = if vl == 128 {
        "Fig. 4 (VL=128)"
    } else {
        "Fig. 5 (VL=2048)"
    };
    Ok(from_suite(&suite, label))
}

/// Build the figure from a trained suite (Fig. 3: the suite trained on
/// the full-space dataset).
pub fn from_suite(suite: &SurrogateSuite, label: &str) -> ImportanceFig {
    ImportanceFig {
        label: label.to_string(),
        per_app: suite
            .models
            .iter()
            .map(|m| {
                (
                    m.app.name().to_string(),
                    m.importance
                        .ranked()
                        .iter()
                        .map(|f| (f.name.clone(), f.percent))
                        .collect(),
                )
            })
            .collect(),
    }
}

impl ImportanceFig {
    /// Importance % of `feature` for `app`.
    pub(crate) fn percent_of(&self, app: App, feature: &str) -> Option<f64> {
        self.per_app
            .iter()
            .find(|(a, _)| a == app.name())?
            .1
            .iter()
            .find(|(f, _)| f == feature)
            .map(|(_, p)| *p)
    }

    /// Mean importance % of `feature` across apps (0 when absent).
    pub(crate) fn mean_percent_of(&self, feature: &str) -> f64 {
        let vals: Vec<f64> = self
            .per_app
            .iter()
            .map(|(_, fs)| {
                fs.iter()
                    .find(|(f, _)| f == feature)
                    .map_or(0.0, |(_, p)| *p)
            })
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }

    /// Features ranked by mean importance across apps.
    pub(crate) fn ranked_by_mean(&self) -> Vec<(String, f64)> {
        let names: Vec<String> = self
            .per_app
            .first()
            .map(|(_, fs)| fs.iter().map(|(f, _)| f.clone()).collect())
            .unwrap_or_default();
        let mut v: Vec<(String, f64)> = names
            .iter()
            .map(|n| (n.clone(), self.mean_percent_of(n)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// The structured artifact: rows = features (ordered by mean),
    /// columns = apps.
    pub fn table(&self) -> report::Table {
        let apps: Vec<&str> = self.per_app.iter().map(|(a, _)| a.as_str()).collect();
        let mut headers = vec!["Feature"];
        headers.extend(apps.iter());
        let ranked = self.ranked_by_mean();
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .take(TOP_K)
            .map(|(feat, _)| {
                let mut r = vec![feat.clone()];
                for (_, fs) in &self.per_app {
                    let p = fs.iter().find(|(f, _)| f == feat).map_or(0.0, |(_, p)| *p);
                    r.push(report::pct(p));
                }
                r
            })
            .collect();
        report::Table::new(
            &format!(
                "{}: top-{TOP_K} permutation feature importances",
                self.label
            ),
            &headers,
            rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{dataset, quick};

    #[test]
    fn fig3_reports_and_renders() {
        let suite = SurrogateSuite::train(&dataset(&quick(40)), 0.2, 11);
        let f = from_suite(&suite, "Fig. 3");
        assert_eq!(f.per_app.len(), 4);
        let t = f.table().to_text();
        assert!(t.contains("Fig. 3"));
        // Mean ranking produces 30 entries.
        assert_eq!(f.ranked_by_mean().len(), 30);
    }

    #[test]
    fn fig45_pins_vector_length_through_the_engine_plan() {
        let f = fig45(&Engine::idealized(), &ParamSpace::paper(), &quick(12), 128).unwrap();
        assert!(f.label.contains("VL=128"));
        // With VL pinned, its importance collapses to (near) zero.
        for app in App::ALL {
            let p = f.percent_of(app, "Vector-Length").unwrap_or(0.0);
            assert!(p.abs() < 1e-9, "{app:?}: pinned VL importance {p}");
        }
    }

    #[test]
    fn mean_percent_is_mean() {
        let f = ImportanceFig {
            label: "t".into(),
            per_app: vec![
                ("A".into(), vec![("X".into(), 10.0)]),
                ("B".into(), vec![("X".into(), 30.0)]),
            ],
        };
        assert!((f.mean_percent_of("X") - 20.0).abs() < 1e-12);
        assert_eq!(f.mean_percent_of("missing"), 0.0);
    }
}
