//! Counter-derived bottleneck labels cross-tabulated against surrogate
//! feature importances.
//!
//! The paper reads its decision trees *statistically*: permutation
//! importance says which design-space feature the surrogate leans on.
//! The observability layer gives an independent, *mechanistic* answer:
//! the exclusive cycle-attribution buckets (`stall_*` columns of the
//! metrics CSV, see `docs/METRICS.md`) say where cycles actually went.
//! This module joins the two. For every application it derives a
//! bottleneck label (the dominant stall bucket over all campaign jobs),
//! maps that bucket to the design-space features that govern it
//! (`bucket_features`), and checks whether the surrogate's top
//! importances agree — a disagreement flags either a surrogate
//! artefact or a mis-modelled mechanism, which is exactly what the
//! paper's validation section is after.
//!
//! Everything here is driven by the CSV *header*, not fixed column
//! offsets, so the analysis keeps working on metrics files written by
//! older campaigns (or after a checkpoint resume) as long as the
//! column names are present.

use crate::importance::ImportanceFig;
use crate::report::{self, Table};
use armdse_core::ArmdseError;
use armdse_kernels::App;
use std::path::Path;

/// A loaded metrics CSV: header-indexed numeric columns plus the app
/// and validated identity columns.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsTable {
    /// Column names, in file order.
    pub columns: Vec<String>,
    /// Per-row application (the `app` column).
    pub apps: Vec<App>,
    /// Per-row validation flag (the `validated` column).
    pub validated: Vec<bool>,
    /// Numeric cells, `values[row][col]` (the `app` column parses as 0).
    pub values: Vec<Vec<u64>>,
}

impl MetricsTable {
    /// Load a metrics CSV written by `armdse_core::metrics`.
    ///
    /// Multicore campaigns interleave per-core detail rows (non-empty
    /// `core` cell) with the per-job aggregates; only the aggregates are
    /// loaded here — the analysis attributes cycles per *job*, and
    /// keeping the detail rows would double-count every counter. Files
    /// without a `core` column (pre-multicore campaigns) load as before.
    pub fn load_csv(path: &Path) -> Result<MetricsTable, ArmdseError> {
        let body = std::fs::read_to_string(path)?;
        let mut lines = body.lines();
        let header = lines
            .next()
            .ok_or_else(|| bad(path, "empty metrics file"))?;
        let columns: Vec<String> = header.split(',').map(str::to_string).collect();
        let app_col = columns
            .iter()
            .position(|c| c == "app")
            .ok_or_else(|| bad(path, "missing 'app' column"))?;
        let core_col = columns.iter().position(|c| c == "core");
        let val_col = columns
            .iter()
            .position(|c| c == "validated")
            .ok_or_else(|| bad(path, "missing 'validated' column"))?;
        let mut t = MetricsTable {
            columns,
            apps: Vec::new(),
            validated: Vec::new(),
            values: Vec::new(),
        };
        for (lineno, line) in lines.enumerate() {
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != t.columns.len() {
                return Err(bad(
                    path,
                    &format!(
                        "row {}: {} cells, expected {}",
                        lineno + 2,
                        cells.len(),
                        t.columns.len()
                    ),
                ));
            }
            let app = App::parse(cells[app_col])
                .ok_or_else(|| bad(path, &format!("unknown app '{}'", cells[app_col])))?;
            if core_col.is_some_and(|c| !cells[c].is_empty()) {
                continue; // per-core detail row: aggregates only
            }
            let mut row = Vec::with_capacity(cells.len());
            for (i, cell) in cells.iter().enumerate() {
                if i == app_col || Some(i) == core_col {
                    row.push(0);
                } else {
                    row.push(cell.parse::<u64>().map_err(|_| {
                        bad(
                            path,
                            &format!(
                                "row {}: unparsable '{}' in {}",
                                lineno + 2,
                                cell,
                                t.columns[i]
                            ),
                        )
                    })?);
                }
            }
            t.apps.push(app);
            t.validated.push(row[val_col] != 0);
            t.values.push(row);
        }
        Ok(t)
    }

    /// Index of a named column.
    pub(crate) fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Indices of the exclusive stall-attribution columns, in bucket
    /// (i.e. file) order.
    pub(crate) fn stall_cols(&self) -> Vec<usize> {
        (0..self.columns.len())
            .filter(|&i| self.columns[i].starts_with("stall_"))
            .collect()
    }

    /// Number of rows (jobs).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of column `col` over all rows of `app`.
    fn app_sum(&self, app: App, col: usize) -> u64 {
        self.values
            .iter()
            .zip(&self.apps)
            .filter(|(_, a)| **a == app)
            .map(|(row, _)| row[col])
            .sum()
    }

    /// Per-app dominant stall bucket over summed cycles: the bottleneck
    /// label. Ties break toward the earlier (front-of-pipe) bucket,
    /// matching `Counters::dominant_stall`. `None` if the app has no
    /// rows or never stalled.
    pub(crate) fn bottleneck_of(&self, app: App) -> Option<(String, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for c in self.stall_cols() {
            let s = self.app_sum(app, c);
            if s > 0 && best.is_none_or(|(_, b)| s > b) {
                best = Some((c, s));
            }
        }
        best.map(|(c, s)| (self.columns[c].clone(), s))
    }

    /// Applications present in the table, in [`App::EXTENDED`] order
    /// (the paper's four first, then the extension kernels).
    pub(crate) fn apps_present(&self) -> Vec<App> {
        App::EXTENDED
            .into_iter()
            .filter(|a| self.apps.contains(a))
            .collect()
    }
}

fn bad(path: &Path, what: &str) -> ArmdseError {
    ArmdseError::InvalidPlan(format!("{}: {what}", path.display()))
}

/// Design-space features that govern a stall bucket: the mechanistic
/// side of the cross-tabulation. An empty slice means the bucket has no
/// single governing feature (e.g. `stall_dependency` is a program
/// property, not a design-space knob).
pub(crate) fn bucket_features(bucket: &str) -> &'static [&'static str] {
    match bucket {
        "stall_fetch_starved" | "stall_frontend_latency" => {
            &["Fetch-Block-Size", "Loop-Buffer-Size", "Frontend-Width"]
        }
        "stall_rename_free_list" => &[
            "GP-Registers",
            "FP-SVE-Registers",
            "Predicate-Registers",
            "Conditional-Registers",
        ],
        "stall_rob_full" => &["ROB-Size", "Commit-Width"],
        "stall_rs_full" => &["Frontend-Width", "Commit-Width"],
        "stall_lq_full" => &["Load-Queue-Size"],
        "stall_sq_full" => &["Store-Queue-Size"],
        "stall_issue_bandwidth" => &["Frontend-Width", "Commit-Width"],
        "stall_exec_latency" => &["Vector-Length"],
        "stall_mem_request_cap" => &[
            "Mem-Requests-Per-Cycle",
            "Loads-Per-Cycle",
            "Stores-Per-Cycle",
            "Load-Bandwidth",
            "Store-Bandwidth",
        ],
        "stall_mem_store_hazard" => &["Store-Queue-Size", "L1-Latency"],
        "stall_mem_data" => &[
            "L1-Latency",
            "L1-Size",
            "L1-Clock",
            "L2-Latency",
            "L2-Size",
            "L2-Clock",
            "RAM-Latency",
            "RAM-Clock",
            "Cache-Line-Width",
            "Prefetch-Depth",
        ],
        "stall_lsq_completion" => &["LSQ-Completion-Width"],
        "stall_drain" => &["Store-Bandwidth"],
        _ => &[],
    }
}

/// The bottleneck report: cycle-accounting shares and the
/// importance cross-tabulation.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    accounting: Table,
    cross: Table,
}

impl BottleneckReport {
    /// Both artifacts, accounting first.
    pub fn tables(&self) -> Vec<Table> {
        vec![self.accounting.clone(), self.cross.clone()]
    }
}

/// Build the report from a loaded metrics table and the surrogate's
/// permutation importances (same dataset, same campaign).
pub fn run(metrics: &MetricsTable, fig: &ImportanceFig) -> BottleneckReport {
    BottleneckReport {
        accounting: accounting_table(metrics),
        cross: cross_table(metrics, fig),
    }
}

/// Per-application cycle-accounting shares: how the campaign's cycles
/// split between retirement and the top stall buckets.
pub(crate) fn accounting_table(metrics: &MetricsTable) -> Table {
    let cycles_col = metrics.col("cycles");
    let stall_cols = metrics.stall_cols();
    let retire_cols: Vec<usize> = (0..metrics.columns.len())
        .filter(|&i| metrics.columns[i].starts_with("retire_"))
        .collect();
    let mut rows = Vec::new();
    for app in metrics.apps_present() {
        let jobs = metrics.apps.iter().filter(|a| **a == app).count();
        let cycles: u64 = cycles_col.map_or(0, |c| metrics.app_sum(app, c));
        let retire: u64 = retire_cols.iter().map(|&c| metrics.app_sum(app, c)).sum();
        // Top two stall buckets by summed cycles.
        let mut stalls: Vec<(usize, u64)> = stall_cols
            .iter()
            .map(|&c| (c, metrics.app_sum(app, c)))
            .filter(|(_, s)| *s > 0)
            .collect();
        stalls.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let share = |n: u64| {
            if cycles == 0 {
                "-".to_string()
            } else {
                report::pct(100.0 * n as f64 / cycles as f64)
            }
        };
        let top = |i: usize| {
            stalls.get(i).map_or("-".to_string(), |(c, s)| {
                format!("{} ({})", metrics.columns[*c], share(*s))
            })
        };
        rows.push(vec![
            app.name().to_string(),
            jobs.to_string(),
            cycles.to_string(),
            share(retire),
            top(0),
            top(1),
        ]);
    }
    Table::new(
        "Cycle accounting per application (summed over campaign jobs)",
        &[
            "App",
            "Jobs",
            "Cycles",
            "Retiring",
            "Top stall",
            "2nd stall",
        ],
        rows,
    )
    .note("Shares are of total attributed cycles; buckets are exclusive (docs/METRICS.md).")
}

/// Per-application cross-tabulation: counter-derived bottleneck vs the
/// surrogate's top permutation importances.
pub(crate) fn cross_table(metrics: &MetricsTable, fig: &ImportanceFig) -> Table {
    let cycles_col = metrics.col("cycles");
    let mut rows = Vec::new();
    let mut agreements = 0usize;
    let mut labelled = 0usize;
    for app in metrics.apps_present() {
        let (bucket, stall_cycles) = match metrics.bottleneck_of(app) {
            Some(b) => b,
            None => continue,
        };
        let cycles: u64 = cycles_col.map_or(0, |c| metrics.app_sum(app, c));
        let share = if cycles == 0 {
            "-".to_string()
        } else {
            report::pct(100.0 * stall_cycles as f64 / cycles as f64)
        };
        let candidates = bucket_features(&bucket);
        // The surrogate's top-3 features for this app.
        let top3: Vec<String> = fig
            .per_app
            .iter()
            .find(|(a, _)| a == app.name())
            .map(|(_, fs)| fs.iter().take(3).map(|(f, _)| f.clone()).collect())
            .unwrap_or_default();
        // Best-ranked candidate feature and its importance.
        let best_candidate = candidates
            .iter()
            .filter_map(|f| fig.percent_of(app, f).map(|p| (*f, p)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let agree = !candidates.is_empty() && top3.iter().any(|t| candidates.contains(&t.as_str()));
        labelled += 1;
        if agree {
            agreements += 1;
        }
        rows.push(vec![
            app.name().to_string(),
            bucket,
            share,
            best_candidate.map_or("-".to_string(), |(f, p)| {
                format!("{f} ({})", report::pct(p))
            }),
            top3.first().cloned().unwrap_or_else(|| "-".to_string()),
            if candidates.is_empty() {
                "n/a".to_string()
            } else if agree {
                "yes".to_string()
            } else {
                "no".to_string()
            },
        ]);
    }
    Table::new(
        "Bottleneck label vs surrogate importance",
        &[
            "App",
            "Dominant stall",
            "Share",
            "Best governed feature",
            "Top importance",
            "Agree",
        ],
        rows,
    )
    .note(format!(
        "{agreements}/{labelled} apps: a feature governing the dominant stall ranks in the \
         surrogate's top-3 importances."
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_csv() -> std::path::PathBuf {
        let path = std::env::temp_dir().join("armdse_bottleneck_toy.csv");
        std::fs::write(
            &path,
            "job,config_index,app,validated,cycles,retire_scalar,stall_rob_full,stall_mem_data\n\
             0,0,STREAM,1,100,40,10,50\n\
             1,0,TeaLeaf,1,80,60,15,5\n\
             2,1,STREAM,0,120,30,20,70\n",
        )
        .unwrap();
        path
    }

    fn toy_fig() -> ImportanceFig {
        ImportanceFig {
            label: "t".into(),
            per_app: vec![
                (
                    "STREAM".into(),
                    vec![
                        ("RAM-Latency".into(), 40.0),
                        ("Vector-Length".into(), 30.0),
                        ("ROB-Size".into(), 5.0),
                    ],
                ),
                (
                    "TeaLeaf".into(),
                    vec![
                        ("Vector-Length".into(), 50.0),
                        ("L1-Size".into(), 10.0),
                        ("GP-Registers".into(), 8.0),
                    ],
                ),
            ],
        }
    }

    #[test]
    fn load_is_header_driven_and_typed() {
        let path = toy_csv();
        let t = MetricsTable::load_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t.len(), 3);
        assert_eq!(t.apps, [App::Stream, App::TeaLeaf, App::Stream]);
        assert_eq!(t.validated, [true, true, false]);
        assert_eq!(t.stall_cols().len(), 2);
        let c = t.col("stall_mem_data").unwrap();
        assert_eq!(t.values[0][c], 50);
    }

    #[test]
    fn bottleneck_is_the_summed_argmax() {
        let path = toy_csv();
        let t = MetricsTable::load_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // STREAM: rob_full 10+20=30, mem_data 50+70=120.
        assert_eq!(
            t.bottleneck_of(App::Stream),
            Some(("stall_mem_data".to_string(), 120))
        );
        // TeaLeaf: rob_full 15 beats mem_data 5.
        assert_eq!(
            t.bottleneck_of(App::TeaLeaf),
            Some(("stall_rob_full".to_string(), 15))
        );
        assert_eq!(t.bottleneck_of(App::MiniSweep), None);
    }

    #[test]
    fn every_stall_bucket_maps_to_known_features() {
        use armdse_core::space::FEATURE_NAMES;
        use armdse_simcore::CycleBucket;
        for b in CycleBucket::ALL {
            if b.is_retire() {
                continue;
            }
            for f in bucket_features(b.name()) {
                assert!(
                    FEATURE_NAMES.contains(f),
                    "{}: unknown feature {f}",
                    b.name()
                );
            }
        }
        // The program-property bucket intentionally maps to nothing.
        assert!(bucket_features("stall_dependency").is_empty());
        assert!(bucket_features("no_such_bucket").is_empty());
    }

    #[test]
    fn cross_tab_reports_agreement() {
        let path = toy_csv();
        let t = MetricsTable::load_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let r = run(&t, &toy_fig());
        let tables = r.tables();
        assert_eq!(tables.len(), 2);
        let cross = &tables[1];
        // STREAM is mem_data-bound and RAM-Latency tops its importances.
        let stream = cross.rows.iter().find(|r| r[0] == "STREAM").unwrap();
        assert_eq!(stream[1], "stall_mem_data");
        assert_eq!(stream[5], "yes");
        // TeaLeaf is rob_full-bound but ROB-Size is nowhere in its top-3.
        let tea = cross.rows.iter().find(|r| r[0] == "TeaLeaf").unwrap();
        assert_eq!(tea[5], "no");
        assert!(cross.notes[0].contains("1/2"));
    }

    #[test]
    fn accounting_table_shares_are_of_cycles() {
        let path = toy_csv();
        let t = MetricsTable::load_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let table = accounting_table(&t);
        let stream = table.rows.iter().find(|r| r[0] == "STREAM").unwrap();
        assert_eq!(stream[1], "2"); // jobs
        assert_eq!(stream[2], "220"); // cycles
        assert!(stream[4].starts_with("stall_mem_data"));
    }

    #[test]
    fn per_core_detail_rows_are_skipped() {
        // A multicore metrics file interleaves the aggregate (empty
        // `core` cell) with per-core detail; only aggregates load.
        let path = std::env::temp_dir().join("armdse_bottleneck_multicore.csv");
        std::fs::write(
            &path,
            "job,config_index,app,core,validated,cycles,stall_mem_data\n\
             0,0,STREAM,,1,100,60\n\
             0,0,STREAM,0,1,90,30\n\
             0,0,STREAM,1,1,100,30\n\
             1,0,SpMV,,1,50,20\n",
        )
        .unwrap();
        let t = MetricsTable::load_csv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t.len(), 2, "aggregate rows only");
        assert_eq!(t.apps, [App::Stream, App::Spmv]);
        // Counters come from the aggregate, not a double-counted sum.
        assert_eq!(
            t.bottleneck_of(App::Stream),
            Some(("stall_mem_data".to_string(), 60))
        );
        assert_eq!(t.apps_present(), [App::Stream, App::Spmv]);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        let path = std::env::temp_dir().join("armdse_bottleneck_bad.csv");
        std::fs::write(&path, "job,app,validated\n1,STREAM\n").unwrap();
        assert!(MetricsTable::load_csv(&path).is_err());
        std::fs::write(&path, "job,app,validated\nx,STREAM,1\n").unwrap();
        assert!(MetricsTable::load_csv(&path).is_err());
        std::fs::write(&path, "job,app,validated\n1,NOPE,1\n").unwrap();
        assert!(MetricsTable::load_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
