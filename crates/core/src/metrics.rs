//! The per-job metrics schema.
//!
//! When a campaign's sink [`wants_metrics`](crate::engine::RowSink::wants_metrics),
//! the engine executes every job in [`armdse_simcore::RunMode::Metrics`]
//! and streams one [`MetricsRow`] per job — *including*
//! validation-discarded jobs, flagged via [`MetricsRow::validated`] —
//! into the same [`crate::engine::RowSink`] as the dataset rows, in job
//! order. Because exactly one row is emitted per job, the metrics stream
//! shares the dataset stream's determinism guarantee: byte-identical at
//! any thread count, and checkpoint/resume-safe at chunk granularity.
//!
//! The CSV schema (one row per job) is documented column-by-column in
//! `docs/METRICS.md`; `metrics_csv_columns` is the single source of
//! truth for the header.

use armdse_kernels::App;
use armdse_memsim::MemStats;
use armdse_simcore::{Counters, StallStats};
use std::io::Write;

/// Per-event stall-counter column names (the `ev_` CSV segment).
///
/// These are the pipeline's *event* counters ([`StallStats`]): a stage
/// may record several per cycle, so unlike the exclusive `stall_*`
/// cycle-attribution buckets they do not sum to the cycle count. The
/// loop-buffer counter is omitted here because it already rides in the
/// [`Counters`] segment as `loop_buffer_cycles`.
pub(crate) const EVENT_COLUMNS: [&str; 9] = [
    "ev_rename_gp",
    "ev_rename_fp",
    "ev_rename_pred",
    "ev_rename_cond",
    "ev_rob_full",
    "ev_rs_full",
    "ev_lq_full",
    "ev_sq_full",
    "ev_fetch_starved",
];

/// [`StallStats`] values in `EVENT_COLUMNS` order.
pub fn event_values(s: &StallStats) -> [u64; 9] {
    [
        s.rename_gp,
        s.rename_fp,
        s.rename_pred,
        s.rename_cond,
        s.rob_full,
        s.rs_full,
        s.lq_full,
        s.sq_full,
        s.fetch_starved,
    ]
}

/// One job's worth of observability counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRow {
    /// Global job index (`config_index × apps + app slot`).
    pub job: usize,
    /// Design-point index within the campaign (seed offset).
    pub config_index: usize,
    /// Application simulated.
    pub app: App,
    /// Which core the row describes on a multicore backend: `None` is
    /// the per-job aggregate (always emitted, and the only row kind on
    /// single-core backends); `Some(i)` is the per-core detail row for
    /// core `i`, emitted after the aggregate when the backend runs more
    /// than one core. The CSV cell is empty for aggregate rows.
    pub core: Option<u32>,
    /// Whether the run passed output validation (discarded jobs still
    /// emit a metrics row, with this flag false).
    pub validated: bool,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Exclusive cycle-attribution buckets and occupancy histograms.
    pub counters: Counters,
    /// Non-exclusive per-stage stall event counters.
    pub stalls: StallStats,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
}

/// The full metrics CSV header, in emission order: job identity, then
/// the [`Counters`] segment, then the `ev_` event segment, then the
/// [`MemStats`] segment.
pub(crate) fn metrics_csv_columns() -> Vec<String> {
    let mut cols: Vec<String> = [
        "job",
        "config_index",
        "app",
        "core",
        "validated",
        "cycles",
        "retired",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    cols.extend(Counters::column_names());
    cols.extend(EVENT_COLUMNS.iter().map(|s| s.to_string()));
    cols.extend(MemStats::column_names().iter().map(|s| s.to_string()));
    cols
}

/// Write the metrics CSV header line.
pub fn write_metrics_header(w: &mut impl Write) -> std::io::Result<()> {
    writeln!(w, "{}", metrics_csv_columns().join(","))
}

/// Write one metrics CSV row (column order pinned by
/// `metrics_csv_columns`).
pub fn write_metrics_row(w: &mut impl Write, r: &MetricsRow) -> std::io::Result<()> {
    let core = r.core.map_or(String::new(), |c| c.to_string());
    write!(
        w,
        "{},{},{},{},{},{},{}",
        r.job,
        r.config_index,
        r.app.name(),
        core,
        u8::from(r.validated),
        r.cycles,
        r.retired
    )?;
    for v in r.counters.values() {
        write!(w, ",{v}")?;
    }
    for v in event_values(&r.stalls) {
        write!(w, ",{v}")?;
    }
    for v in r.mem.values() {
        write!(w, ",{v}")?;
    }
    writeln!(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CsvSink, RowSink};
    use crate::DseDataset;
    use armdse_simcore::CoreParams;

    fn sample_row() -> MetricsRow {
        MetricsRow {
            job: 3,
            config_index: 1,
            app: App::Stream,
            core: None,
            validated: true,
            cycles: 100,
            retired: 250,
            counters: Counters::new(&CoreParams::thunderx2()),
            stalls: StallStats::default(),
            mem: MemStats::default(),
        }
    }

    #[test]
    fn header_and_row_have_the_same_arity() {
        let mut header = Vec::new();
        let mut row = Vec::new();
        write_metrics_header(&mut header).unwrap();
        write_metrics_row(&mut row, &sample_row()).unwrap();
        let h = String::from_utf8(header).unwrap();
        let r = String::from_utf8(row).unwrap();
        assert_eq!(
            h.trim_end().split(',').count(),
            r.trim_end().split(',').count()
        );
    }

    #[test]
    fn identity_columns_lead_the_header() {
        let cols = metrics_csv_columns();
        assert_eq!(
            &cols[..7],
            &[
                "job",
                "config_index",
                "app",
                "core",
                "validated",
                "cycles",
                "retired"
            ]
        );
        assert!(cols.iter().any(|c| c == "stall_rob_full"));
        assert!(cols.iter().any(|c| c == "ev_rob_full"));
        assert!(cols.iter().any(|c| c == "dram_queue_wait_cycles"));
        let unique: std::collections::BTreeSet<&String> = cols.iter().collect();
        assert_eq!(unique.len(), cols.len(), "duplicate column name");
    }

    #[test]
    fn event_columns_align_with_values() {
        let s = StallStats {
            rob_full: 7,
            fetch_starved: 2,
            ..Default::default()
        };
        let vals = event_values(&s);
        assert_eq!(vals.len(), EVENT_COLUMNS.len());
        let at = |name: &str| vals[EVENT_COLUMNS.iter().position(|c| *c == name).unwrap()];
        assert_eq!(at("ev_rob_full"), 7);
        assert_eq!(at("ev_fetch_starved"), 2);
    }

    #[test]
    fn vec_sink_collects_rows() {
        let mut sink = (DseDataset::default(), Vec::new());
        assert!(sink.wants_metrics());
        sink.metrics(&sample_row()).unwrap();
        sink.chunk_end().unwrap();
        assert_eq!(sink.1.len(), 1);
        assert_eq!(sink.1[0].job, 3);
        assert!(sink.0.rows.is_empty(), "metrics rows are not dataset rows");
    }

    #[test]
    fn csv_sink_create_then_append_is_one_stream() {
        let dir = std::env::temp_dir().join("armdse_metrics_sink_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let (csv, path) = (dir.join("dataset.csv"), dir.join("metrics.csv"));
        let mut r = sample_row();
        {
            let s = CsvSink::create(&csv).unwrap();
            assert!(
                !s.wants_metrics(),
                "dataset-only until a metrics file is attached"
            );
            let mut s = s.with_metrics(&path, false).unwrap();
            s.metrics(&r).unwrap();
            s.chunk_end().unwrap();
        }
        {
            r.job = 4;
            let mut s = CsvSink::append(&csv)
                .unwrap()
                .with_metrics(&path, true)
                .unwrap();
            s.metrics(&r).unwrap();
            s.chunk_end().unwrap();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 3, "header + two rows");
        assert!(body.lines().nth(1).unwrap().starts_with("3,1,STREAM,,1,"));
        assert!(body.lines().nth(2).unwrap().starts_with("4,1,STREAM,,1,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_core_rows_carry_the_core_index() {
        let mut out = Vec::new();
        let mut r = sample_row();
        r.core = Some(1);
        write_metrics_row(&mut out, &r).unwrap();
        let line = String::from_utf8(out).unwrap();
        assert!(line.starts_with("3,1,STREAM,1,1,"), "{line}");
        // Arity is unchanged between aggregate and per-core rows.
        assert_eq!(
            line.trim_end().split(',').count(),
            metrics_csv_columns().len()
        );
    }
}
