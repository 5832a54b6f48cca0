//! Result-emission: structured tables with text, CSV, and JSON
//! rendering, shared by all experiments.
//!
//! Everything here is hand-rolled on `std` (no serde): experiment
//! results are plain (title, headers, rows) tables plus optional note
//! lines, and the three renderers keep `repro` artifacts diffable
//! (text), machine-readable (CSV), and self-describing (JSON).

use armdse_core::json::{self, Layout, ToJson};

/// A rendered experiment artifact: one titled table plus free-form
/// notes (footer lines such as headline summaries).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Table title (one line).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
    /// Footer notes appended after the table in text output and kept
    /// as a JSON array in structured output.
    pub notes: Vec<String>,
}

impl Table {
    /// Build a table from borrowed parts.
    pub fn new(title: &str, headers: &[&str], rows: Vec<Vec<String>>) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
            notes: Vec::new(),
        }
    }

    /// Append a footer note line.
    pub fn note(mut self, line: impl Into<String>) -> Table {
        self.notes.push(line.into());
        self
    }

    /// Render as an aligned text table (plus notes).
    pub fn to_text(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(|s| s.as_str()).collect();
        let mut out = format_table(&self.title, &headers, &self.rows);
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    /// Render the data rows as CSV with a header line.
    pub fn to_csv(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(|s| s.as_str()).collect();
        format_csv(&headers, &self.rows)
    }

    /// Render as a JSON object:
    /// `{"title": ..., "headers": [...], "rows": [[...]], "notes": [...]}`.
    pub fn to_json(&self) -> String {
        self.json().render()
    }

    /// The compact JSON object [`Table::to_json`] renders.
    fn json(&self) -> impl ToJson + '_ {
        let rows = self.rows.iter().map(|r| json::array(Layout::Compact, r));
        json::object(Layout::Compact, move |o| {
            o.field("title", &self.title);
            o.field("headers", json::array(Layout::Compact, &self.headers));
            o.field("rows", json::array(Layout::Compact, rows.clone()));
            o.field("notes", json::array(Layout::Compact, &self.notes));
        })
    }
}

/// The discarded-runs section of a report: which (config, app) runs a
/// campaign dropped at validation and why. The paper silently keeps
/// only validation-passing runs; surfacing the discards makes a
/// mis-modelled design point visible instead of shrinking the dataset
/// without a trace. Always renders — an explicit "none discarded" note
/// when the list is empty.
pub fn discarded_table(discarded: &[armdse_core::dataset::DiscardedRun]) -> Table {
    let rows: Vec<Vec<String>> = discarded
        .iter()
        .map(|d| {
            vec![
                d.config_index.to_string(),
                d.app.name().to_string(),
                d.cycles.to_string(),
                if d.hit_cycle_limit {
                    "cycle limit"
                } else {
                    "op-count mismatch"
                }
                .to_string(),
            ]
        })
        .collect();
    let t = Table::new(
        "Discarded runs (failed validation; excluded from the dataset)",
        &["Config", "App", "Cycles", "Reason"],
        rows,
    );
    if discarded.is_empty() {
        t.note("No runs were discarded: every simulation passed validation.")
    } else {
        t.note(format!("{} run(s) discarded.", discarded.len()))
    }
}

/// Render several tables as one JSON array.
pub fn tables_to_json(tables: &[Table]) -> String {
    json::array(Layout::Compact, tables.iter().map(Table::json)).render()
}

/// Render an aligned text table.
pub(crate) fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{c:>w$}", w = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Render rows as CSV with a header. Cells containing commas, quotes,
/// or newlines are quoted per RFC 4180.
pub(crate) fn format_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cell = |s: &str| {
        if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = headers
        .iter()
        .map(|h| cell(h))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Format a percentage.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.2}%", v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = format_table(
            "T",
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "20000".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[1].contains("long-header"));
        // All data lines have equal width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_shape() {
        let c = format_csv(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "x,y\n1,2\n");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let c = format_csv(&["x"], &[vec!["a,b".into()], vec!["say \"hi\"".into()]]);
        assert_eq!(c, "x\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn csv_quotes_bare_carriage_returns() {
        // RFC 4180: any field containing CR must be quoted, even with no LF.
        let c = format_csv(&["x"], &[vec!["a\rb".into()]]);
        assert_eq!(c, "x\n\"a\rb\"\n");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(pct(25.913), "25.91%");
    }

    #[test]
    fn structured_table_renders_all_three_formats() {
        let t = Table::new(
            "Demo",
            &["k", "v"],
            vec![vec!["a".into(), "1".into()], vec!["b".into(), "2".into()]],
        )
        .note("footer line");
        let text = t.to_text();
        assert!(text.starts_with("Demo\n"));
        assert!(text.ends_with("footer line\n"));
        assert_eq!(t.to_csv(), "k,v\na,1\nb,2\n");
        assert_eq!(
            t.to_json(),
            r#"{"title":"Demo","headers":["k","v"],"rows":[["a","1"],["b","2"]],"notes":["footer line"]}"#
        );
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        let t = Table::new("q\"t\n", &["h"], vec![vec!["\t\\".into()]]);
        let j = t.to_json();
        assert!(j.contains(r#""q\"t\n""#));
        assert!(j.contains(r#""\t\\""#));
        // Valid JSON shape: balanced braces/brackets at the ends.
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn discarded_section_renders_reasons_and_empty_note() {
        use armdse_core::dataset::DiscardedRun;
        use armdse_kernels::App;
        let empty = discarded_table(&[]);
        assert!(empty.to_text().contains("No runs were discarded"));
        let some = discarded_table(&[
            DiscardedRun {
                app: App::Stream,
                config_index: 3,
                cycles: 9,
                hit_cycle_limit: true,
            },
            DiscardedRun {
                app: App::TeaLeaf,
                config_index: 5,
                cycles: 2,
                hit_cycle_limit: false,
            },
        ]);
        let text = some.to_text();
        assert!(text.contains("cycle limit"));
        assert!(text.contains("op-count mismatch"));
        assert!(text.contains("2 run(s) discarded"));
    }

    #[test]
    fn tables_to_json_is_an_array() {
        let a = Table::new("A", &["h"], vec![]);
        let b = Table::new("B", &["h"], vec![]);
        let j = tables_to_json(&[a, b]);
        assert!(j.starts_with("[{") && j.ends_with("}]"));
        assert!(j.contains(r#""title":"A""#) && j.contains(r#""title":"B""#));
    }
}
