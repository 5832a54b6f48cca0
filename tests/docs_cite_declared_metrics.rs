//! The docs cite one benchmark system. Every backticked token shaped
//! like a per-layer metric (`simcore.x`, `memsim.x`, `mltree.x`,
//! `kernels.x`, `server.x`, `trace.x`, `core.layer.x`) in README.md,
//! DESIGN.md, EXPERIMENTS.md and docs/*.md must be declared in
//! `BENCHMARK.json` (only read here), so a number in the docs can be
//! re-measured by name; none of them may name the deleted bench
//! crate's snapshots, package, binary or env var; and every
//! `crates/…`, `tests/…` or `examples/…` path they name must exist.

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
