//! Runs the whole benchmark at `--smoke` scale (same code paths, ~50x
//! smaller plans, one repetition) and holds `BENCHMARK.json` and what the
//! run prints to the catalogue the binary is built from.
//!
//! Run with `cargo test --manifest-path benchmark/Cargo.toml`.

#[path = "../src/e2e/catalog.rs"]
mod catalog;

use armdse_core::json::{parse_json, Json};
use catalog::{MetricDecl, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_armdse-benchmark");

fn member<'a>(value: &'a Json, key: &str) -> &'a Json {
    value
        .as_object()
        .and_then(|m| m.get(key))
        .unwrap_or_else(|| panic!("member '{key}' exists"))
}

/// The entries of list `key`, each as its `(member, text)` pairs with
/// numbers printed the way Rust prints an `f64`.
fn entries(manifest: &Json, key: &str) -> Vec<Vec<(String, String)>> {
    let list = member(manifest, key).as_array().expect("a list");
    list.iter()
        .map(|entry| {
            let fields = entry.as_object().expect("an object").iter();
            fields
                .map(|(k, v)| {
                    let text = match v {
                        Json::Str(s) => s.clone(),
                        Json::Num(n) => n.to_string(),
                        other => panic!("unexpected value {other:?}"),
                    };
                    (k.clone(), text)
                })
                .collect()
        })
        .collect()
}

fn pairs(fields: &[(&str, String)]) -> Vec<(String, String)> {
    let mut v: Vec<_> = fields
        .iter()
        .map(|(k, t)| (k.to_string(), t.clone()))
        .collect();
    v.sort();
    v
}

fn declared(m: &MetricDecl, with_bound: bool) -> Vec<(String, String)> {
    let better = if m.higher { "higher" } else { "lower" };
    let mut fields = vec![
        ("name", m.name.to_string()),
        ("unit", m.unit.to_string()),
        ("better", better.to_string()),
    ];
    if with_bound {
        fields.push(("bound", m.bound.to_string()));
    }
    pairs(&fields)
}

#[test]
fn manifest_declares_exactly_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is committed");
    let manifest = parse_json(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = manifest
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        member(&manifest, "run_seconds").as_f64(),
        Some(f64::from(RUN_SECONDS))
    );
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .map(|w| pairs(&[("name", w.name.to_string()), ("why", w.why.to_string())]))
        .collect();
    assert_eq!(entries(&manifest, "workloads"), workloads);
    let end_to_end: Vec<_> = END_TO_END.iter().map(|m| declared(m, true)).collect();
    assert_eq!(entries(&manifest, "end_to_end"), end_to_end);
    let per_layer: Vec<_> = PER_LAYER.iter().map(|m| declared(m, false)).collect();
    assert_eq!(entries(&manifest, "per_layer"), per_layer);

    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
    {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "name '{name}' must match [A-Za-z0-9_.-]+"
        );
    }
}

#[test]
fn smoke_run_prints_exactly_the_declared_names_and_passes_every_check() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark_smoke");
    std::fs::remove_dir_all(&out_dir).ok();
    let run = Command::new(EXE)
        .args(["--smoke", "--seed", "2024", "--out"])
        .arg(&out_dir)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(run.stdout).expect("utf-8");
    assert!(
        run.status.success(),
        "a correctness check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(!stdout.contains(" FAIL "), "{stdout}");

    // `metric <workload> <name> <value> <unit>`
    let printed: BTreeSet<(&str, &str)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut words = l.split(' ');
            (
                words.next().expect("a workload"),
                words.next().expect("a name"),
            )
        })
        .collect();
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let ran: BTreeSet<&str> = printed.iter().map(|(w, _)| *w).collect();
    assert_eq!(ran, workloads, "exactly the declared workloads ran");
    // Every workload reports every end-to-end metric; a per-layer metric
    // is printed by the workloads that exercise it, and by at least one.
    for w in &workloads {
        for m in &END_TO_END {
            assert!(printed.contains(&(w, m.name)), "{w} prints {}", m.name);
        }
    }
    let metrics: BTreeSet<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    let seen: BTreeSet<&str> = printed.iter().map(|(_, m)| *m).collect();
    assert_eq!(seen, metrics, "printed metric names == declared names");

    assert!(out_dir.join("results.json").exists());
    assert!(out_dir.join("trace.jsonl").exists());
}

#[test]
fn one_workload_ends_with_the_drivers_result_line() {
    let run = Command::new(EXE)
        .args(["--workload", "explore_campaign", "--smoke", "--trace", "1"])
        .output()
        .expect("runs");
    assert!(run.status.success());
    let stdout = String::from_utf8(run.stdout).expect("utf-8");
    let result = parse_json(stdout.lines().last().expect("a last line")).expect("JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(member(&result, "correct").as_bool(), Some(true));
    assert!(member(&result, "attempted").as_u64() >= Some(1));
    assert_eq!(member(&result, "failed").as_u64(), Some(0));
    // The driver wants every per-layer metric on every workload.
    let reported: BTreeSet<&str> = member(&result, "metrics")
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(reported, PER_LAYER.iter().map(|m| m.name).collect());
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let run = Command::new(EXE)
        .args(["--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("runs");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
}
