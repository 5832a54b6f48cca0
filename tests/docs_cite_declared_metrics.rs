//! The docs cite one benchmark system. Every backticked token shaped
//! like a per-layer metric (`simcore.x`, `memsim.x`, `mltree.x`,
//! `kernels.x`, `server.x`, `trace.x`, `core.layer.x`) in README.md,
//! DESIGN.md, EXPERIMENTS.md and docs/*.md must be declared in
//! `BENCHMARK.json` (only read here), so a number in the docs can be
//! re-measured by name; none of them may name the deleted bench
//! crate's snapshots, package, binary or env var; every `crates/…`,
//! `tests/…` or `examples/…` path and every backticked `path::Item`
//! they name must exist; every `§` reference in them, the code and
//! ci.sh must name a heading; DESIGN.md must fit in 40 000 bytes; and
//! every number EXPERIMENTS.md quotes from `results/*.txt` must be that
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

/// DESIGN.md says what exists, once: a byte cap keeps history and
/// second copies of module docs from growing back into it.
#[test]
fn design_md_fits_in_40_kb() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bytes = read(&root.join("DESIGN.md")).len();
    assert!(
        bytes <= 40_000,
        "DESIGN.md is {bytes} bytes, past 40 000: link to the module doc \
         or docs/*.md that already says it, and delete history"
    );
    assert!(bytes >= 10_000, "DESIGN.md is only {bytes} bytes");
}

/// The section numbers of a markdown document's numbered headings:
/// `## 10. Run path` is "10", `### 3.1 When …` is "3.1".
fn section_numbers(text: &str) -> Vec<String> {
    let numbered = |line: &str| {
        let title = line.strip_prefix('#')?.trim_start_matches('#').trim();
        let number = title.split_whitespace().next()?.trim_end_matches('.');
        let digit_led = number.starts_with(|c: char| c.is_ascii_digit());
        let numeric = number.chars().all(|c| c.is_ascii_digit() || c == '.');
        (digit_led && numeric).then(|| number.to_string())
    };
    text.lines().filter_map(numbered).collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The last word of `text`, trailing backticks dropped.
fn last_word(text: &str) -> &str {
    let text = text.trim_end().trim_end_matches('`');
    let start = text.rfind(|c: char| c.is_whitespace() || "(`".contains(c));
    start.map_or(text, |i| &text[i + 1..])
}

/// Every `§N[.M]` the code, ci.sh and the docs cite names a heading:
/// `DESIGN(.md) §N` one of DESIGN.md's, `docs/X.md §N` one of X's, and
/// a bare `§N` in a document one of that document's own. A `§` that
/// continues a list (`§6.1, §6.3`, `§1–§15`) takes the previous
/// reference's document; the paper's `§VII` and `RFC 9112 §6.1` are
/// not this repository's sections and are skipped.
#[test]
fn section_references_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let headings = |doc: &str| section_numbers(&read(&root.join(doc)));
    let mut sources: Vec<(String, String, bool)> = docs()
        .into_iter()
        .map(|(path, text)| (path, text, true))
        .collect();
    let mut code = vec![root.join("ci.sh")];
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut code);
    }
    sources.extend(
        code.iter()
            .map(|p| (p.display().to_string(), read(p), false)),
    );

    let (mut resolved, mut broken) = (0, Vec::new());
    for (path, text, is_doc) in &sources {
        let own = path.strip_prefix(&format!("{}/", root.display()));
        let own = own.unwrap_or(path).to_string();
        let (mut previous, mut previous_end): (Option<String>, usize) = (None, 0);
        for (at, _) in text.match_indices('§') {
            let rest = &text[at + '§'.len_utf8()..];
            let len = rest
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(rest.len());
            let number = rest[..len].trim_end_matches('.');
            if !number.starts_with(|c: char| c.is_ascii_digit()) {
                previous = None;
                continue;
            }
            let between = text[previous_end.min(at)..at].trim();
            let continues = previous_end > 0
                && at - previous_end <= 6
                && between.chars().all(|c| ",–-/& ".contains(c));
            let word = last_word(&text[..at]);
            let doc = if continues {
                previous.clone()
            } else if word == "DESIGN" || word.ends_with("DESIGN.md") {
                Some("DESIGN.md".to_string())
            } else if let Some(i) = word.find("docs/") {
                Some(word[i..].to_string())
            } else if word.ends_with(".md") || text[..at].trim_end().ends_with(char::is_numeric) {
                None // another repository's document, or an RFC
            } else if *is_doc {
                Some(own.clone())
            } else {
                None // code cites the paper's sections bare
            };
            previous_end = at + '§'.len_utf8() + len;
            previous = doc.clone();
            let Some(doc) = doc else { continue };
            resolved += 1;
            if !root.join(&doc).exists() {
                broken.push(format!("{own}: §{number} of missing {doc}"));
            } else if !headings(&doc).iter().any(|h| h == number) {
                broken.push(format!("{own}: {doc} has no §{number}"));
            }
        }
    }
    let broken = broken.join("\n");
    assert!(
        broken.is_empty(),
        "section references that name no heading:\n{broken}"
    );
    // The code alone cites DESIGN.md's sections a dozen times: an
    // extraction bug must not pass vacuously.
    assert!(resolved >= 30, "only {resolved} section references found");
    let design = headings("DESIGN.md");
    for n in 1..=15 {
        assert!(design.contains(&n.to_string()), "DESIGN.md lost §{n}");
    }
}

/// Each name a Rust source file defines: functions, types, traits,
/// constants, statics, modules, macros, struct fields and enum
/// variants (the first identifier of a line followed by `:`, `,`, `(`,
/// `{` or `=`, or standing alone).
fn defined_names(source: &str, names: &mut std::collections::HashSet<String>) {
    for line in source.lines() {
        let mut line = line.trim();
        for prefix in [
            "pub(crate) ",
            "pub(super) ",
            "pub ",
            "const ",
            "unsafe ",
            "async ",
        ] {
            line = line.strip_prefix(prefix).unwrap_or(line);
        }
        let keywords = [
            "fn ",
            "struct ",
            "enum ",
            "trait ",
            "const ",
            "static ",
            "type ",
            "mod ",
            "macro_rules! ",
        ];
        if let Some(k) = keywords.iter().find(|k| line.starts_with(**k)) {
            names.insert(ident(&line[k.len()..]).to_string());
            continue;
        }
        let name = ident(line);
        let after = line[name.len()..].trim_start();
        let member = after.is_empty()
            || (after.starts_with(':') && !after.starts_with("::"))
            || after.starts_with([',', '(', '{', '=']);
        if !name.is_empty() && member {
            names.insert(name.to_string());
        }
    }
}

/// The identifier `s` starts with (empty if none).
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(s.len());
    &s[..end]
}

/// Every `a::b[::c]` path in a backticked span of `text`, with one
/// level of `{x, y}` groups expanded: `memsim::{Hierarchy, Backside}`
/// is two paths.
fn backticked_paths(text: &str) -> Vec<Vec<String>> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut paths = Vec::new();
    for span in text.split('`').skip(1).step_by(2) {
        let mut at = 0;
        while let Some(start) = span[at..].find(|c: char| c.is_ascii_alphabetic() || c == '_') {
            let start = at + start;
            let glued = span[..start].ends_with(|c: char| is_ident(c) || c == ':' || c == '.');
            let end = span[start..]
                .find(|c: char| !is_ident(c))
                .map_or(span.len(), |e| start + e);
            let mut path = vec![span[start..end].to_string()];
            let mut cursor = end;
            let mut group = Vec::new();
            while let Some(tail) = span[cursor..].strip_prefix("::") {
                if let Some(inner) = tail.strip_prefix('{') {
                    let close = inner.find('}').unwrap_or(inner.len());
                    group = inner[..close].split(',').map(str::trim).collect();
                    cursor += 3 + close;
                    break;
                }
                let len = tail.find(|c: char| !is_ident(c)).unwrap_or(tail.len());
                if len == 0 {
                    break;
                }
                path.push(tail[..len].to_string());
                cursor += 2 + len;
            }
            at = cursor.max(end).min(span.len());
            if glued {
                continue;
            }
            if group.is_empty() {
                paths.push(path);
                continue;
            }
            for item in group {
                let mut full = path.clone();
                full.extend(item.split("::").map(String::from));
                paths.push(full);
            }
        }
    }
    paths.retain(|p| p.len() >= 2 && p.iter().all(|s| !s.is_empty()));
    paths
}

/// Every backticked path the docs name into the workspace still
/// exists: a path led by a workspace crate (`core::engine::RunPlan`,
/// `armdse_memsim::Backside`, `armdse::core::JobSpec`) or by a type the
/// workspace defines (`RunPlan::listed`, `JobState::Failed`) ends in a
/// name that crate, or the crate defining that type, defines. `std::`
/// paths and DESIGN.md's "Deleted on evidence" appendix, which names
/// deleted items on purpose, are skipped.
#[test]
fn docs_name_only_existing_items() {
    use std::collections::{HashMap, HashSet};
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // crate name -> names its sources define; type name -> its crates.
    let mut crates: HashMap<String, HashSet<String>> = HashMap::new();
    let mut types: HashMap<String, Vec<String>> = HashMap::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let dir = entry.expect("crates/ entry").path();
        let name = dir.file_name().unwrap().to_string_lossy().to_string();
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        let mut names = HashSet::new();
        for file in &files {
            let source = read(file);
            defined_names(&source, &mut names);
            for line in source.lines() {
                let line = line.trim().trim_start_matches("pub(crate) ");
                let line = line.trim_start_matches("pub ");
                for kind in ["struct ", "enum ", "trait ", "type "] {
                    if let Some(rest) = line.strip_prefix(kind) {
                        let owners = types.entry(ident(rest).to_string()).or_default();
                        owners.push(name.clone());
                    }
                }
            }
        }
        crates.insert(name, names);
    }

    let (mut checked, mut missing) = (0, Vec::new());
    for (path, text) in docs() {
        let text = match text.split_once("## Appendix: Deleted on evidence") {
            Some((kept, _)) => kept.to_string(),
            None => text,
        };
        for mut item in backticked_paths(&text) {
            if item[0] == "armdse" && item.len() > 2 && crates.contains_key(&item[1]) {
                item.remove(0);
            }
            if let Some(name) = item[0].strip_prefix("armdse_") {
                item[0] = name.to_string();
            }
            let last = item.last().unwrap();
            if last == "*" || last == "self" {
                continue;
            }
            let owners: Vec<&String> = if crates.contains_key(&item[0]) {
                vec![&item[0]]
            } else if let Some(owners) = types.get(&item[0]) {
                owners.iter().collect()
            } else {
                continue; // std::, another crate's type, a shell word
            };
            checked += 1;
            if !owners.iter().any(|c| crates[*c].contains(last)) {
                missing.push(format!("{path}: `{}`", item.join("::")));
            }
        }
    }
    missing.sort();
    missing.dedup();
    let missing = missing.join("\n");
    assert!(missing.is_empty(), "named but not defined:\n{missing}");
    // The docs name a hundred-odd items: an extraction bug must not
    // pass vacuously.
    assert!(checked >= 100, "only {checked} item paths found");
}
