//! The end-to-end + per-layer benchmark: five workloads, each measured
//! from outside by timing calls into the product's public functions.
//!
//! An untraced run repeats a workload's timed body and reports medians;
//! a traced run re-executes the same generated plan job by job through
//! the layers' public calls, one span per call (see BENCHMARK.md).

pub mod api;
pub mod catalog;
pub mod compare;
pub mod explore;
pub mod replay;
pub mod served;
pub mod sweep;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Busy threads the load generator may use: the sandbox has 2 cores.
pub const THREADS: usize = 2;

/// One invocation's settings.
pub struct Ctx {
    /// Master seed: every plan and spec seed derives from it.
    pub seed: u64,
    /// How long the untraced run keeps repeating the timed body.
    pub seconds: f64,
    /// Same code paths on ~50x smaller plans, one repetition.
    pub smoke: bool,
    /// Scratch directory of this invocation (removed on exit).
    pub scratch: PathBuf,
}

impl Ctx {
    /// `full` at benchmark scale, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// A sub-seed for one named use, decorrelated from its neighbours.
    pub fn sub_seed(&self, lane: u64) -> u64 {
        // Plan seeds index consecutive design points (`seed + i`), so
        // keep them far apart and well below u64::MAX.
        api::SplitMix64::new(self.seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64() >> 16
    }

    /// A fresh empty directory under the scratch root.
    pub fn dir(&self, name: &str) -> PathBuf {
        let d = self.scratch.join(name);
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).expect("scratch directory is writable");
        d
    }
}

/// One timed repetition of a workload's body.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    pub wall_s: f64,
    /// Operations attempted: simulation jobs, plus HTTP requests.
    pub attempted: u64,
    /// Discarded or erroring jobs, non-2xx or refused requests, served
    /// jobs that did not finish `done`.
    pub failed: u64,
    /// Digest over every artifact the body wrote.
    pub artifact: u64,
}

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-repetition values behind a median (for `--compare`).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub checks: Vec<(String, bool)>,
    pub tracers: Vec<Tracer>,
}

impl Outcome {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Record a reading. One that is not a number (a ratio over nothing)
    /// is a failed measurement, not a value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name, value);
        } else {
            self.check(format!("{name} is a finite number"), false);
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Account one repetition; a failed check already counts through
    /// `correct`, failed operations through `failed`.
    pub fn count(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
    }
}

/// A workload: set-up, an untraced timed body, and a traced replay.
pub trait Workload: Sized {
    /// Build engines/servers, run reference passes, create scratch dirs.
    fn setup(ctx: &Ctx) -> Self;
    /// Simulation jobs (config x app) one repetition completes.
    fn jobs(&self) -> u64;
    /// One untraced repetition with `threads` busy threads.
    fn rep(&mut self, threads: usize, out: &mut Outcome) -> Rep;
    /// The traced `threads=1` replay and side probes. `base` is the
    /// untraced `threads=1` repetition, `par` the `threads=2` one.
    fn traced(&mut self, ctx: &Ctx, base: &Rep, par: &Rep, out: &mut Outcome);
}

/// Run one workload untraced (end-to-end metrics) or traced (per-layer).
pub fn run<W: Workload>(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set-up runs several times so its median is steady; the last
    // instance is the one measured.
    let setups = if traced || ctx.smoke { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..setups {
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(ctx));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");

    if traced {
        // The parallel repetition goes first so the single-threaded one
        // the traced replay is compared with runs as warm as the replay.
        let par = w.rep(THREADS, &mut out);
        let base = w.rep(1, &mut out);
        out.count(&par);
        out.count(&base);
        out.check(
            "threads=1 artifacts == threads=2 artifacts",
            base.artifact == par.artifact,
        );
        w.traced(ctx, &base, &par, &mut out);
        out.set(
            "core.scheduler.parallel_eff",
            base.wall_s / (THREADS as f64 * par.wall_s),
        );
        out.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    // The first repetition of a process runs 8-15 % slow on this host
    // (fresh heap pages fault in one by one under the hypervisor), so a
    // full run warms up with one repetition whose time is not reported;
    // its output is still checked and its operations counted.
    let warm_up = if ctx.smoke {
        None
    } else {
        let rep = w.rep(THREADS, &mut out);
        out.count(&rep);
        Some(rep.artifact)
    };
    let min_reps = if ctx.smoke { 1 } else { 3 };
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut cpu_s = Vec::new();
    while reps.len() < min_reps || (!ctx.smoke && started.elapsed().as_secs_f64() < ctx.seconds) {
        let cpu_before = cpu_seconds();
        let rep = w.rep(THREADS, &mut out);
        cpu_s.push(cpu_seconds() - cpu_before);
        out.count(&rep);
        reps.push(rep);
    }
    out.check(
        "all repetitions emit byte-identical artifacts",
        reps.iter()
            .all(|r| r.artifact == warm_up.unwrap_or(reps[0].artifact)),
    );
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let jobs = w.jobs() as f64;
    out.samples
        .insert("jobs_per_s", walls.iter().map(|s| jobs / s).collect());
    out.samples.insert("wall_s", walls);
    out.samples.insert("cpu_s", cpu_s);
    out.samples.insert("setup_s", setup_s);
    for (name, values) in &out.samples {
        out.metrics.insert(name, median(values));
    }
    out
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// Nearest-rank percentile of a non-empty sample.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let v = sorted(values);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_INIT`]), so
/// a stream hashed chunk by chunk digests like the file it was read from.
/// (The product's own FNV copies are private.)
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of one artifact file (length folded in).
pub fn file_digest(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    fnv(fnv(FNV_INIT, &bytes), &(bytes.len() as u64).to_le_bytes())
}

/// CPU seconds (user + system, every thread) this process has used.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command name
    // (which may itself hold spaces), in clock ticks of 1/100 s.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
