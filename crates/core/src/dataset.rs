//! The simulated dataset: rows of (app, features, cycles) with CSV
//! persistence — the stand-in for the paper's `collect_data.py` database.

use crate::config::{DesignConfig, FEATURE_NAMES};
use armdse_kernels::App;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// One simulated data point.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Application simulated.
    pub app: App,
    /// The 30 design-space features.
    pub features: [f64; 30],
    /// Simulated execution cycles (the target variable).
    pub cycles: u64,
    /// SVE fraction of retired instructions (Fig. 1 bookkeeping).
    pub sve_fraction: f64,
}

/// A run that was discarded because its simulation failed validation
/// (wedged against the cycle limit, or retired counts diverging from the
/// analytic summary). The paper silently keeps only validation-passing
/// runs; we record what was dropped so a mis-modelled design point is
/// visible instead of shrinking the dataset without a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscardedRun {
    /// Application simulated.
    pub app: App,
    /// Index of the sampled configuration (re-derivable from the seed).
    pub config_index: usize,
    /// Cycles consumed before the run was abandoned.
    pub cycles: u64,
    /// Whether the run was abandoned at the safety cycle limit (as
    /// opposed to failing operation-count validation).
    pub hit_cycle_limit: bool,
}

/// A dataset of simulated runs across apps and configurations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DseDataset {
    /// All rows (only validated simulations are recorded).
    pub rows: Vec<Row>,
    /// Runs dropped by validation (not persisted to CSV; empty after
    /// [`DseDataset::load_csv`]).
    pub discarded: Vec<DiscardedRun>,
}

impl DseDataset {
    /// Rows for one application.
    pub fn for_app(&self, app: App) -> Vec<&Row> {
        self.rows.iter().filter(|r| r.app == app).collect()
    }

    /// The applications present in the dataset, in [`App::EXTENDED`]
    /// order. Experiments that fan out per app (e.g. the unseen-code
    /// transfer matrix) iterate this instead of hard-coding
    /// [`App::ALL`], so a dataset generated over the extended kernel
    /// set folds the extra kernels in automatically.
    pub fn apps(&self) -> Vec<App> {
        App::EXTENDED
            .iter()
            .copied()
            .filter(|&a| self.rows.iter().any(|r| r.app == a))
            .collect()
    }

    /// Convert one app's rows into an ML dataset (features → cycles).
    pub fn ml_dataset(&self, app: App) -> armdse_mltree::Dataset {
        let rows = self.for_app(app);
        assert!(!rows.is_empty(), "no rows for {app:?}");
        let mut x = armdse_mltree::Matrix::new(30);
        let mut y = Vec::with_capacity(rows.len());
        for r in rows {
            x.push_row(&r.features);
            y.push(r.cycles as f64);
        }
        armdse_mltree::Dataset::new(x, y, FEATURE_NAMES.iter().map(|s| s.to_string()).collect())
    }

    /// Reconstruct the design config of a row.
    pub fn config_of(row: &Row) -> DesignConfig {
        DesignConfig::from_features(&row.features)
    }

    /// Write as CSV: `app,<30 features>,cycles,sve_fraction`.
    pub fn save_csv(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        write_csv_header(&mut w)?;
        for r in &self.rows {
            write_csv_row(&mut w, r)?;
        }
        w.flush()
    }

    /// Load a CSV produced by [`DseDataset::save_csv`].
    pub fn load_csv(path: &Path) -> io::Result<DseDataset> {
        let f = std::fs::File::open(path)?;
        let mut lines = io::BufReader::new(f).lines();
        let header = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty csv"))??;
        let expect_cols = 1 + 30 + 2;
        if header.split(',').count() != expect_cols {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad header"));
        }
        let mut rows = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split(',');
            let app_name = it.next().unwrap();
            let app = App::parse(app_name).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad app {app_name}"))
            })?;
            let mut features = [0.0f64; 30];
            for f in features.iter_mut() {
                *f = parse_f64(it.next())?;
            }
            let cycles = parse_f64(it.next())? as u64;
            let sve_fraction = parse_f64(it.next())?;
            rows.push(Row {
                app,
                features,
                cycles,
                sve_fraction,
            });
        }
        Ok(DseDataset {
            rows,
            discarded: Vec::new(),
        })
    }
}

/// Write the dataset CSV header line. Shared by [`DseDataset::save_csv`]
/// and the engine's streaming `CsvSink` so both emit identical bytes.
pub(crate) fn write_csv_header(w: &mut impl Write) -> io::Result<()> {
    write!(w, "app")?;
    for n in FEATURE_NAMES {
        write!(w, ",{n}")?;
    }
    writeln!(w, ",cycles,sve_fraction")
}

/// Write one dataset CSV row (same byte format as [`DseDataset::save_csv`]).
pub fn write_csv_row(w: &mut impl Write, r: &Row) -> io::Result<()> {
    write!(w, "{}", r.app.name())?;
    for f in r.features {
        write!(w, ",{f}")?;
    }
    writeln!(w, ",{},{}", r.cycles, r.sve_fraction)
}

fn parse_f64(s: Option<&str>) -> io::Result<f64> {
    s.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short row"))?
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad number: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DseDataset {
        let cfg = DesignConfig::thunderx2();
        DseDataset {
            rows: vec![
                Row {
                    app: App::Stream,
                    features: cfg.to_features(),
                    cycles: 12345,
                    sve_fraction: 0.55,
                },
                Row {
                    app: App::TeaLeaf,
                    features: cfg.to_features(),
                    cycles: 999,
                    sve_fraction: 0.02,
                },
            ],
            discarded: Vec::new(),
        }
    }

    #[test]
    fn per_app_selection() {
        let d = sample();
        assert_eq!(d.for_app(App::Stream).len(), 1);
        assert_eq!(d.for_app(App::MiniBude).len(), 0);
    }

    #[test]
    fn ml_dataset_shape() {
        let d = sample();
        let ml = d.ml_dataset(App::Stream);
        assert_eq!(ml.len(), 1);
        assert_eq!(ml.x.cols(), 30);
        assert_eq!(ml.y[0], 12345.0);
    }

    #[test]
    fn csv_roundtrip() {
        let d = sample();
        let path = std::env::temp_dir().join("armdse_dataset_test.csv");
        d.save_csv(&path).unwrap();
        let back = DseDataset::load_csv(&path).unwrap();
        assert_eq!(d, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_roundtrips_through_row() {
        let d = sample();
        let cfg = DseDataset::config_of(&d.rows[0]);
        assert_eq!(cfg, DesignConfig::thunderx2());
    }
}
