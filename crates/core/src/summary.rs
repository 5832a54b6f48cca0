//! Dataset summary statistics — quick sanity analysis of a generated
//! dataset before model training (the paper's dataset was sanity-checked
//! the same way before `analysis.py` ran).

use crate::dataset::DseDataset;
use armdse_kernels::App;

/// Distribution summary of one app's cycle counts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AppSummary {
    /// Application name.
    pub app: String,
    /// Row count.
    pub rows: usize,
    /// Minimum cycles.
    pub min: u64,
    /// Median cycles.
    pub median: u64,
    /// Arithmetic mean cycles.
    pub mean: f64,
    /// Maximum cycles.
    pub max: u64,
    /// Mean SVE fraction across rows.
    pub mean_sve: f64,
}

/// Whole-dataset summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// One summary per application present.
    pub(crate) apps: Vec<AppSummary>,
}

impl DseDataset {
    /// Compute each application's cycle distribution.
    pub fn summary(&self) -> DatasetSummary {
        let apps = App::ALL
            .iter()
            .filter_map(|&app| {
                let mut cycles: Vec<u64> = self.for_app(app).iter().map(|r| r.cycles).collect();
                if cycles.is_empty() {
                    return None;
                }
                cycles.sort_unstable();
                let n = cycles.len();
                let sve: f64 = self
                    .for_app(app)
                    .iter()
                    .map(|r| r.sve_fraction)
                    .sum::<f64>()
                    / n as f64;
                Some(AppSummary {
                    app: app.name().to_string(),
                    rows: n,
                    min: cycles[0],
                    median: cycles[n / 2],
                    mean: cycles.iter().sum::<u64>() as f64 / n as f64,
                    max: cycles[n - 1],
                    mean_sve: sve,
                })
            })
            .collect();
        DatasetSummary { apps }
    }
}

impl DatasetSummary {
    /// Render as a text report.
    pub fn to_table(&self) -> String {
        let mut out = String::from("Dataset summary\n");
        out.push_str(&format!(
            "{:>10} {:>7} {:>10} {:>10} {:>12} {:>10} {:>7}\n",
            "App", "rows", "min", "median", "mean", "max", "SVE%"
        ));
        for a in &self.apps {
            out.push_str(&format!(
                "{:>10} {:>7} {:>10} {:>10} {:>12.0} {:>10} {:>6.1}%\n",
                a.app,
                a.rows,
                a.min,
                a.median,
                a.mean,
                a.max,
                100.0 * a.mean_sve
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Row;
    use crate::DesignConfig;

    fn data() -> DseDataset {
        let f = DesignConfig::thunderx2().to_features();
        DseDataset {
            rows: vec![
                Row {
                    app: App::Stream,
                    features: f,
                    cycles: 100,
                    sve_fraction: 0.5,
                },
                Row {
                    app: App::Stream,
                    features: f,
                    cycles: 300,
                    sve_fraction: 0.6,
                },
                Row {
                    app: App::Stream,
                    features: f,
                    cycles: 200,
                    sve_fraction: 0.4,
                },
            ],
            discarded: Vec::new(),
        }
    }

    #[test]
    fn summary_statistics() {
        let s = data().summary();
        assert_eq!(s.apps.len(), 1);
        let a = &s.apps[0];
        assert_eq!((a.min, a.median, a.max), (100, 200, 300));
        assert!((a.mean - 200.0).abs() < 1e-9);
        assert!((a.mean_sve - 0.5).abs() < 1e-9);
    }

    #[test]
    fn table_renders() {
        let t = data().summary().to_table();
        assert!(t.contains("STREAM"));
        assert!(t.contains("median"));
    }
}
