//! The docs cite one benchmark system. Every backticked token shaped
//! like a per-layer metric (`simcore.x`, `memsim.x`, `mltree.x`,
//! `kernels.x`, `server.x`, `trace.x`, `core.layer.x`) in README.md,
//! DESIGN.md, EXPERIMENTS.md and docs/*.md must be declared in
//! `BENCHMARK.json` (only read here), so a number in the docs can be
//! re-measured by name; none of them may name the deleted bench
//! crate's snapshots, package, binary or env var; every `crates/…`,
//! `tests/…` or `examples/…` path they name must exist; and every
//! number EXPERIMENTS.md quotes from `results/*.txt` must be that
//! file's cell.

use armdse::core::json::parse_json;
use std::fs;
use std::path::Path;

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(path, text)` of every checked document.
fn docs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .map(|f| root.join(f))
        .to_vec();
    let extra = fs::read_dir(root.join("docs")).expect("docs/ exists");
    paths.extend(extra.map(|e| e.expect("docs/ entry").path()));
    paths.retain(|p| p.extension().is_some_and(|x| x == "md"));
    let doc = |p: &std::path::PathBuf| (p.display().to_string(), read(p));
    paths.iter().map(doc).collect()
}

/// A layer prefix, then only name characters and the `{a,b}` / `*`
/// shorthands. `core` metrics carry one more segment, so `core.rs` is
/// no citation.
fn is_citation(token: &str) -> bool {
    let mut segments = token.split('.');
    let min_depth = match segments.next() {
        Some("simcore" | "memsim" | "mltree" | "kernels" | "server" | "trace") => 1,
        Some("core") => 2,
        _ => return false,
    };
    let name_char = |c: char| c.is_ascii_alphanumeric() || "_.{},*".contains(c);
    segments.count() >= min_depth && token.chars().all(name_char)
}

#[test]
fn docs_cite_only_declared_benchmark_metrics() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCHMARK.json");
    let manifest = parse_json(&read(&manifest)).expect("BENCHMARK.json parses");
    let per_layer = manifest.as_object().unwrap()["per_layer"].as_array();
    let declared: Vec<&str> = (per_layer.unwrap().iter())
        .map(|m| m.as_object().unwrap()["name"].as_str().unwrap())
        .collect();
    let (mut cited, mut undeclared) = (0, Vec::new());
    for (path, text) in docs() {
        // Odd pieces of a split on '`' are the backticked spans (a
        // fence's six backticks keep the parity).
        let spans = text.split('`').skip(1).step_by(2);
        for token in spans.flat_map(str::split_whitespace) {
            let token = token.trim_end_matches([',', ';', ':', ')']);
            if !is_citation(token) {
                continue;
            }
            // Expand the one `{a,b}` group a citation may carry; a
            // trailing `*` cites every metric under the stem.
            let (head, rest) = token.split_once('{').unwrap_or((token, "}"));
            let (alts, tail) = rest.split_once('}').expect("closed brace");
            for name in alts.split(',').map(|alt| format!("{head}{alt}{tail}")) {
                cited += 1;
                let found = match name.strip_suffix('*') {
                    Some(stem) => declared.iter().any(|d| d.starts_with(stem)),
                    None => declared.contains(&name.as_str()),
                };
                if !found {
                    undeclared.push(format!("{path}: `{name}`"));
                }
            }
        }
    }
    let undeclared = undeclared.join("\n");
    assert!(
        undeclared.is_empty(),
        "not in BENCHMARK.json:\n{undeclared}"
    );
    // DESIGN.md §11's id table alone cites twenty: an extraction bug must
    // not pass vacuously.
    assert!(cited >= 20, "only {cited} metric citations found");
}

#[test]
fn docs_do_not_name_the_deleted_bench_system() {
    // Spelled in pieces: this file must not be a hit for the repo-wide
    // grep that checks the names are gone. The surviving
    // `armdse-benchmark` shares a stem with the deleted package.
    let gone = [
        "BENCH|_",
        "armdse|-bench",
        "bench|-trend",
        "ARMDSE|_BENCH_JSON",
    ];
    for (path, text) in docs() {
        let text = text.replace("armdse-benchmark", "");
        for name in gone.map(|n| n.replace('|', "")) {
            assert!(!text.contains(&name), "{path} still names {name}");
        }
    }
}

#[test]
fn docs_name_only_existing_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let (mut named, mut missing) = (0, Vec::new());
    for (path, text) in docs() {
        for (at, _) in text.match_indices(['c', 't', 'e']) {
            let rest = &text[at..];
            let starts = ["crates/", "tests/", "examples/"];
            let boundary = !text[..at].ends_with(path_char);
            if !boundary || !starts.iter().any(|s| rest.starts_with(s)) {
                continue;
            }
            let end = rest.find(|c| !path_char(c)).unwrap_or(rest.len());
            let name = rest[..end].trim_end_matches('.');
            named += 1;
            if !root.join(name).exists() {
                missing.push(format!("{path}: {name}"));
            }
        }
    }
    let missing = missing.join("\n");
    assert!(missing.is_empty(), "named but missing:\n{missing}");
    // The docs name dozens of test files and modules: an extraction bug
    // must not pass vacuously.
    assert!(named >= 50, "only {named} paths found");
}

/// One `results/*.txt` table: its header cells and its rows' cells.
struct ResultTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// A text line's cells: the report writer right-aligns every cell and
/// joins them with two spaces, so two spaces are a column gap and one
/// space belongs to a cell ("Surrogate PD").
fn text_cells(line: &str) -> Vec<String> {
    let cells = line.split("  ").map(str::trim).filter(|c| !c.is_empty());
    cells.map(String::from).collect()
}

/// Every table of an artifact: blocks split on blank lines, each a
/// title line, a header line and rows (a `---` rule is skipped; the
/// notes under a table and the ASCII charts are rows no excerpt names).
fn result_tables(text: &str) -> Vec<ResultTable> {
    let blocks = text.split("\n\n").filter(|b| b.lines().count() >= 2);
    let table = |block: &str| {
        let mut lines = block
            .lines()
            .skip(1)
            .filter(|l| !l.trim_start().starts_with("---"));
        let header = text_cells(lines.next().unwrap_or(""));
        ResultTable {
            header,
            rows: lines.map(text_cells).collect(),
        }
    };
    blocks.map(table).collect()
}

/// A markdown table row's cells, `**bold**` unmarked.
fn md_cells(line: &str) -> Vec<String> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner
        .split('|')
        .map(|c| c.trim().replace("**", ""))
        .collect()
}

/// `(caption, header, rows)` of every markdown table in `text`; the
/// caption is the last non-blank line above the table.
fn md_tables(text: &str) -> Vec<(String, Vec<String>, Vec<Vec<String>>)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut tables = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let is_row = |l: &str| l.trim_start().starts_with('|');
        if !is_row(lines[i]) {
            i += 1;
            continue;
        }
        let caption = lines[..i].iter().rev().find(|l| !l.trim().is_empty());
        let start = i;
        while i < lines.len() && is_row(lines[i]) {
            i += 1;
        }
        let rows = lines[start + 2..i].iter().map(|l| md_cells(l)).collect();
        let caption = caption.map_or(String::new(), |c| c.to_string());
        tables.push((caption, md_cells(lines[start]), rows));
    }
    tables
}

/// The artifact a caption names in backticks, as `` `results/fig7.txt` ``.
fn quoted_artifact(caption: &str) -> Option<&str> {
    let (_, rest) = caption.split_once("`results/")?;
    let (name, _) = rest.split_once(".txt`")?;
    name.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_')
        .then_some(name)
}

/// EXPERIMENTS.md quotes the artifacts HEAD writes: a table whose
/// caption names `` `results/X.txt` `` quotes that file's table with the
/// same first header. Each of its rows is a file row (same label), and
/// each column the file also has holds that row's cell verbatim; other
/// columns (the paper's number, a verdict) are the document's own. The
/// headline and every figure and table of the evaluation must be quoted
/// this way, the headline in full, and the scaling table's 8,000 row
/// must read Fig. 2's mean accuracy. ci.sh's paper lane in turn requires
/// `results/` to be what the documented command writes.
#[test]
fn experiments_quote_the_results_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = read(&root.join("EXPERIMENTS.md"));
    let artifact = |name: &str| read(&root.join("results").join(format!("{name}.txt")));
    let (mut quoted, mut compared, mut wrong) = (Vec::new(), 0, Vec::new());
    for (caption, header, rows) in md_tables(&doc) {
        let Some(name) = quoted_artifact(&caption) else {
            continue;
        };
        let tables = result_tables(&artifact(name));
        let file = tables
            .iter()
            .find(|t| t.header.first() == header.first())
            .unwrap_or_else(|| panic!("results/{name}.txt has no table headed {:?}", header[0]));
        let columns: Vec<(usize, usize)> = (1..header.len())
            .filter_map(|j| Some((j, file.header.iter().position(|h| *h == header[j])?)))
            .collect();
        assert!(
            !columns.is_empty(),
            "{name}: no column of {header:?} is in the file"
        );
        for row in &rows {
            let Some(file_row) = file.rows.iter().find(|r| r.first() == row.first()) else {
                wrong.push(format!("{name}: no row {:?}", row[0]));
                continue;
            };
            for &(j, k) in &columns {
                compared += 1;
                if row.get(j) != file_row.get(k) {
                    let (got, want) = (&row[j], &file_row[k]);
                    wrong.push(format!(
                        "{name} [{}, {}]: doc {got}, file {want}",
                        row[0], header[j]
                    ));
                }
            }
        }
        if name == "headline" {
            assert_eq!(
                rows.len(),
                file.rows.len(),
                "the headline table quotes every row"
            );
        }
        quoted.push(name.to_string());
    }
    let wrong = wrong.join("\n");
    assert!(
        wrong.is_empty(),
        "EXPERIMENTS.md differs from results/:\n{wrong}"
    );
    for name in [
        "headline", "fig1", "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    ] {
        assert!(
            quoted.iter().any(|q| q == name),
            "no excerpt quotes results/{name}.txt"
        );
    }
    assert!(compared >= 60, "only {compared} cells compared");

    // The scaling table's 8,000 row is Fig. 2's mean over the apps.
    let fig2 = artifact("fig2");
    let (_, mean) = fig2
        .split_once("Mean accuracy across applications: ")
        .expect("fig2.txt states its mean accuracy");
    let mean = mean.split_whitespace().next().unwrap();
    let (_, header, rows) = md_tables(&doc)
        .into_iter()
        .find(|(_, h, _)| h[0] == "configs/app")
        .expect("EXPERIMENTS.md has the scaling table");
    let col = header
        .iter()
        .position(|h| h == "mean accuracy")
        .expect("a mean accuracy column");
    let row = rows.iter().find(|r| r[0] == "8,000").expect("an 8,000 row");
    assert_eq!(
        row[col], mean,
        "the scaling table's 8,000 row against fig2.txt"
    );
}
