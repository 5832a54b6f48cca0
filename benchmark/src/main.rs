//! `armdse-benchmark`: the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! armdse-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one mode
//! armdse-benchmark --seed N --out DIR                              every workload, both modes
//! armdse-benchmark --compare A/results.json B/results.json
//! armdse-benchmark --aa --seed N --out DIR                         run twice, compare to itself
//! ```
//!
//! See BENCHMARK.md beside this package for what is measured and why.

mod e2e;

use e2e::api::{json_num, parse_json, Json};
use e2e::catalog::{self, MetricDecl, END_TO_END, PER_LAYER, WORKLOADS};
use e2e::compare;
use e2e::{Ctx, Outcome};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: armdse-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out DIR] | --compare A.json B.json | --aa";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 2024,
        seconds: f64::from(catalog::RUN_SECONDS),
        traced: false,
        smoke: false,
        out: None,
        compare: None,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--aa" => a.aa = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

/// The run's result object. `complete` is the driver's form: every
/// declared metric, reading 0 where the workload does not exercise it
/// (the contract wants them all). Otherwise only the metrics the workload
/// set appear, each with the repetitions behind its median.
fn result_json(out: &Outcome, decls: &[MetricDecl], complete: bool) -> String {
    let mut metrics = Vec::new();
    for d in decls {
        let Some(value) = out.metrics.get(d.name).copied().or(complete.then_some(0.0)) else {
            continue;
        };
        let mut m = format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            d.name,
            json_num(value),
            d.unit
        );
        if let (false, Some(samples)) = (complete, out.samples.get(d.name)) {
            let list: Vec<String> = samples.iter().map(|v| json_num(*v)).collect();
            write!(m, ", \"samples\": [{}]", list.join(", ")).expect("String write");
        }
        metrics.push(m + "}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Scratch space beside the executable, i.e. inside the build directory
/// of whichever checkout is being measured.
fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    exe.parent()
        .expect("an executable lives in a directory")
        .join("armdse-benchmark-scratch")
        .join(std::process::id().to_string())
}

fn run_workload(name: &str, a: &Args) -> Result<ExitCode, String> {
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
        scratch: scratch_root(),
    };
    let out = match name {
        "paper_grid" => e2e::run::<e2e::sweep::PaperGrid>(&ctx, a.traced),
        "mc2_sweep" => e2e::run::<e2e::sweep::Mc2Sweep>(&ctx, a.traced),
        "reuse_sweep" => e2e::run::<e2e::sweep::ReuseSweep>(&ctx, a.traced),
        "explore_campaign" => e2e::run::<e2e::explore::ExploreCampaign>(&ctx, a.traced),
        "served_jobs" => e2e::run::<e2e::served::ServedJobs>(&ctx, a.traced),
        other => return Err(format!("unknown workload '{other}'")),
    };
    std::fs::remove_dir_all(&ctx.scratch).ok();

    let decls: &[MetricDecl] = if a.traced { &PER_LAYER } else { &END_TO_END };
    for d in decls {
        if let Some(value) = out.metrics.get(d.name) {
            println!("metric {name} {} {value} {}", d.name, d.unit);
        }
    }
    for (what, ok) in &out.checks {
        if !ok {
            println!("check {name} FAIL {what}");
        }
    }
    let passed = out.checks.iter().filter(|(_, ok)| *ok).count();
    println!(
        "checks {name} {passed}/{} passed; {} operations attempted, {} failed",
        out.checks.len(),
        out.attempted,
        out.failed
    );
    if let Some(dir) = &a.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mode = u8::from(a.traced);
        std::fs::write(
            dir.join(format!("{name}.trace{mode}.json")),
            result_json(&out, decls, false),
        )
        .map_err(|e| format!("write result: {e}"))?;
        let mut spans = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("trace.jsonl"))
            .map_err(|e| format!("open trace.jsonl: {e}"))?;
        for tr in &out.tracers {
            tr.write_jsonl(name, &mut spans)
                .map_err(|e| format!("write trace.jsonl: {e}"))?;
        }
    }
    println!("{}", result_json(&out, decls, true));
    std::io::stdout().flush().ok();
    Ok(if out.correct() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run every workload untraced and traced, each in a fresh child of this
/// executable (so `peak_rss_mb` is per workload), and merge the
/// children's results into `<out>/results.json`.
fn run_all(a: &Args, out_dir: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    std::fs::remove_file(out_dir.join("trace.jsonl")).ok();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut body = String::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        println!("workload {}: {}", w.name, w.why);
        let mut sections = Vec::new();
        for (mode, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", mode])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .arg("--out")
                .arg(out_dir);
            if a.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
            all_ok &= status.success();
            // The child's result object goes in whole.
            let path = out_dir.join(format!("{}.trace{mode}.json", w.name));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            sections.push(format!("\"{key}\": {}", text.trim_end()));
            std::fs::remove_file(&path).ok();
        }
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(body, "    \"{}\": {{{}}}{sep}", w.name, sections.join(", "))
            .expect("String write");
    }
    let results = format!(
        "{{\n  \"schema\": \"armdse-benchmark-v1\",\n  \"seed\": {},\n  \"smoke\": {},\n  \
         \"threads\": {},\n  \"host_parallelism\": {},\n  \"workloads\": {{\n{body}  }}\n}}\n",
        a.seed,
        a.smoke,
        e2e::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    parse_json(&results).map_err(|e| format!("results.json does not parse: {e}"))?;
    std::fs::write(out_dir.join("results.json"), results).map_err(|e| e.to_string())?;
    println!("wrote {}", out_dir.join("results.json").display());
    Ok(all_ok)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<ExitCode, String> {
    let a = parse_args()?;
    let code = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    if let Some((old, new)) = &a.compare {
        return Ok(code(!compare::compare(&load(old)?, &load(new)?)));
    }
    if let Some(name) = &a.workload {
        return run_workload(name, &a);
    }
    let out_dir = a
        .out
        .clone()
        .ok_or("running every workload needs --out DIR")?;
    if a.aa {
        let (first, second) = (out_dir.join("a"), out_dir.join("b"));
        let ok = run_all(&a, &first)? & run_all(&a, &second)?;
        let worse = compare::compare(
            &load(&first.join("results.json"))?,
            &load(&second.join("results.json"))?,
        );
        return Ok(code(ok && !worse));
    }
    Ok(code(run_all(&a, &out_dir)?))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("armdse-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
