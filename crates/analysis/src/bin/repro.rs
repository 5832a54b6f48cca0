//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--configs N] [--scale tiny|small|standard]
//!                    [--seed N] [--sweep-configs N] [--threads N]
//!                    [--out DIR] [--resume] [--max-chunks N]
//!                    [--metrics DIR] [--explore N] [--explore-pareto]
//!                    [--cores N] [--banks N] [--apps base|extended]
//! repro --serve ADDR [--out DIR] [--runners N]
//!
//! experiments:
//!   fig1      SVE fraction of retired instructions per vector length
//!   table1    simulated vs hardware-proxy cycles on the ThunderX2 baseline
//!   dataset   generate and save the design-space dataset (CSV)
//!   fig2      prediction-accuracy tolerance curves
//!   fig3      permutation feature importances (full space)
//!   fig4      importances with vector length fixed at 128 (a campaign of
//!             its own at half --configs)
//!   fig5      importances with vector length fixed at 2048 (likewise)
//!   fig6      speedup vs vector length (STREAM, miniBUDE)
//!   fig7      speedup vs ROB size
//!   fig8      speedup vs FP/SVE register count
//!   headline  paper-vs-measured headline numbers
//!   unseen    extension: leave-one-app-out transfer accuracy
//!   multicore extension: slowdown under shared-L2/DRAM contention on the
//!             1/2/4/8/16-core machine
//!   crossval  extension: surrogate partial dependence vs fresh simulation
//!   summary   per-app cycle distribution of the cached dataset
//!   explore   surrogate-guided adaptive exploration (budget via --explore)
//!   all       fig1 table1 fig2 ... crossval: everything above but dataset,
//!             summary and explore, in the paper's order
//! ```
//!
//! Dataset generation streams rows straight to `<out>/dataset.csv` and
//! checkpoints its position in `<out>/dataset.ckpt` after every chunk.
//! An interrupted campaign continues with `--resume` — the resumed CSV
//! is byte-identical to an uninterrupted run at any `--threads` count.
//! `--max-chunks N` pauses generation after N chunks (leaving the
//! checkpoint in place), giving scripts a deterministic interruption
//! point; ci.sh uses it to smoke-test the resume path.
//!
//! The `explore` experiment replaces the fixed sweep with the adaptive
//! [`Explorer`] loop: `--explore N` sets the simulation budget (default
//! a tenth of `--configs`), `--explore-pareto` switches acquisition to
//! two-objective mode (predicted cycles vs structure cost). Artifacts
//! (`explore_dataset.csv`, `explore_curve.{csv,json}`, `explore.ckpt`,
//! and `explore_pareto.csv` in Pareto mode) land under `--out`; the
//! same `--resume` / `--max-chunks` semantics apply, and the finished
//! artifacts are byte-identical at any `--threads` count.
//!
//! `--cores N` runs every experiment on the real multicore machine
//! ([`armdse_simcore::MultiCore`]): N pipelines, each executing its own
//! instance of the workload, contending over the shared banked L2 and
//! DRAM. `--banks N` sets the shared-L2 bank count (default 8). Dataset
//! campaigns on a multicore machine record the machine shape in their
//! checkpoint (`mc.cores` / `mc.banks`) and refuse to resume under a
//! different shape; with `--metrics` the metrics CSV carries one
//! aggregate row per job plus one detail row per core (see
//! docs/METRICS.md and docs/MULTICORE.md).
//!
//! `--apps extended` widens dataset-driven experiments from the paper's
//! four applications to the extended kernel set (adds SpMV, GEMM, and
//! the pointer-chasing Graph kernel); the unseen-code transfer matrix
//! folds the extra kernels in automatically.
//!
//! `--metrics DIR` additionally runs every dataset job with cycle
//! accounting enabled, streaming one counter row per job to
//! `DIR/metrics.csv` (schema: docs/METRICS.md) alongside the dataset
//! rows, with the same determinism and checkpoint/resume guarantees.
//! After a completed campaign the bottleneck analysis
//! (cycle-accounting shares + the bottleneck-vs-importance cross-tab)
//! is emitted into the same directory.
//! All experiments in one invocation share one dataset, one trained
//! surrogate suite, one Fig. 7/8 sweep and the session's [`Engine`]
//! (Table I's proxy column and `multicore` run on machines of their
//! own), so `all` and an experiment's own run write the same bytes.

use armdse_analysis::report::{discarded_table, tables_to_json, Table};
use armdse_analysis::sweeps::SweepFig;
use armdse_analysis::{
    accuracy, bottleneck, crossval, fig1, headline, importance, multicore, sweeps, table1, unseen,
};
use armdse_core::engine::{Engine, Progress};
use armdse_core::explorer::{ExploreControl, ExploreOptions, ExploreProgress, Explorer};
use armdse_core::space::ParamSpace;
use armdse_core::{ArmdseError, CampaignFiles, DseDataset, JobSpec, SurrogateSuite};
use armdse_kernels::{App, WorkloadScale};
use armdse_server::{Server, ServerConfig};
use armdse_simcore::MultiCore;
use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What `all` runs, in emission order.
const ALL: &str =
    "fig1 table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 headline unseen multicore crossval";

/// The experiments `all` leaves out: the campaign itself, its summary,
/// and the adaptive loop.
const ALONE: &str = "dataset summary explore";

struct Cli {
    experiment: String,
    /// The campaign under the job server's names: `--configs`,
    /// `--scale`, `--seed`, `--threads`, `--apps`, and the machine
    /// (`--cores`, `--banks`).
    spec: JobSpec,
    /// The sweeps' campaign: `--sweep-configs` paired base design points
    /// (each re-simulated at every swept value) from their own seed.
    sweep: JobSpec,
    out: PathBuf,
    resume: bool,
    max_chunks: Option<usize>,
    metrics: Option<PathBuf>,
    explore_budget: Option<usize>,
    explore_pareto: bool,
}

/// A flag's numeric value, or an error naming the flag and the value.
fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: \"{value}\" is not a number"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let experiment = args.next().ok_or("missing experiment name")?;
    let known = ALL
        .split(' ')
        .chain(ALONE.split(' '))
        .any(|e| e == experiment);
    if experiment != "all" && !known {
        return Err(format!("unknown experiment {experiment}"));
    }
    let mut spec = JobSpec {
        configs: 400,
        seed: 20240931, // arbitrary fixed seed for reproducibility
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..JobSpec::default()
    };
    let mut sweep_configs = 12;
    let mut out = PathBuf::from("results");
    let mut resume = false;
    let mut max_chunks = None;
    let mut metrics = None;
    let mut explore_budget = None;
    let mut explore_pareto = false;
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--configs" => spec.configs = num(&flag, &val()?)?,
            "--seed" => spec.seed = num(&flag, &val()?)?,
            "--threads" => spec.threads = num(&flag, &val()?)?,
            "--sweep-configs" => sweep_configs = num(&flag, &val()?)?,
            "--scale" => {
                let s = val()?;
                spec.scale = WorkloadScale::parse(&s).ok_or(format!("unknown scale {s}"))?;
            }
            "--out" => out = PathBuf::from(val()?),
            "--resume" => resume = true,
            "--max-chunks" => max_chunks = Some(num(&flag, &val()?)?),
            "--metrics" => metrics = Some(PathBuf::from(val()?)),
            "--explore" => explore_budget = Some(num(&flag, &val()?)?),
            "--explore-pareto" => explore_pareto = true,
            "--cores" => spec.cores = num(&flag, &val()?)?,
            "--banks" => spec.banks = num(&flag, &val()?)?,
            "--apps" => {
                spec.apps = match val()?.as_str() {
                    "base" => App::ALL.to_vec(),
                    "extended" => App::EXTENDED.to_vec(),
                    s => return Err(format!("unknown app set {s} (base|extended)")),
                }
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    spec.check_machine().map_err(|e| e.to_string())?;
    let sweep = JobSpec {
        configs: sweep_configs,
        seed: spec.seed ^ 0x5EED_CAFE,
        ..spec.clone()
    };
    Ok(Cli {
        experiment,
        spec,
        sweep,
        out,
        resume,
        max_chunks,
        metrics,
        explore_budget,
        explore_pareto,
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--serve") {
        match serve(&std::env::args().skip(2).collect::<Vec<_>>()) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("error: {e}\n\nusage: repro --serve ADDR [--out DIR] [--runners N]");
                std::process::exit(2);
            }
        }
    }
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\nusage: repro <experiment> [--configs N] [--scale tiny|small|standard] [--seed N] [--sweep-configs N] [--threads N] [--out DIR] [--resume] [--max-chunks N] [--metrics DIR] [--explore N] [--explore-pareto] [--cores N] [--banks N] [--apps base|extended]");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&cli.out).expect("create output directory");
    let t0 = Instant::now();
    let session = Session::new(cli);
    session.run();
    let experiment = &session.cli.experiment;
    eprintln!("[repro] {experiment} finished in {:?}", t0.elapsed());
}

/// Report an engine error and exit (plan/checkpoint problems are user
/// errors, not bugs — no backtrace).
fn fail(e: ArmdseError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

/// A result's value, or its error through [`fail`].
fn ok<T, E: Into<ArmdseError>>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| fail(e.into()))
}

/// `repro --serve ADDR [--out DIR] [--runners N]` — run the DSE job
/// server until a `POST /shutdown` arrives. The job store lives under
/// `<out>/jobs` (campaigns interrupted by a shutdown reopen as paused
/// and resume byte-identically), and the resolved bind address —
/// meaningful with an ephemeral `127.0.0.1:0` — is written to
/// `<out>/server.addr` for scripts to pick up.
fn serve(args: &[String]) -> Result<(), String> {
    let mut args = args.iter();
    let addr = args
        .next()
        .ok_or("missing bind address (try 127.0.0.1:0)")?
        .clone();
    let mut out = PathBuf::from("results");
    let mut runners = 2usize;
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--out" => out = PathBuf::from(val()?),
            "--runners" => runners = num(flag, val()?)?,
            f => return Err(format!("unknown flag {f}")),
        }
    }
    let config = ServerConfig {
        addr,
        jobs_dir: out.join("jobs"),
        runners: runners.max(1),
    };
    std::fs::create_dir_all(&out).expect("create output directory");
    let server = ok(Server::bind(&config));
    let local = server.local_addr();
    ok(std::fs::write(
        out.join("server.addr"),
        format!("{local}\n"),
    ));
    eprintln!(
        "[repro] serving jobs on {local} ({} runner threads; job store {})",
        config.runners,
        config.jobs_dir.display()
    );
    ok(server.serve());
    eprintln!(
        "[repro] server shut down; job state saved under {}",
        config.jobs_dir.display()
    );
    Ok(())
}

/// One `repro` invocation: the command line, the machine, and the inputs
/// experiments share (the dataset, the surrogates trained on it, Figs. 7
/// and 8), each built on first use and at most once. An artifact so has
/// the same bytes whether `all` or its own experiment wrote it.
struct Session {
    cli: Cli,
    space: ParamSpace,
    engine: Engine,
    data: OnceCell<DseDataset>,
    suite: OnceCell<SurrogateSuite>,
    fig7: OnceCell<SweepFig>,
    fig8: OnceCell<SweepFig>,
}

impl Session {
    fn new(cli: Cli) -> Session {
        Session {
            engine: cli.spec.engine(),
            space: ParamSpace::paper(),
            cli,
            data: OnceCell::new(),
            suite: OnceCell::new(),
            fig7: OnceCell::new(),
            fig8: OnceCell::new(),
        }
    }

    /// Run the command line's experiment; `all` runs [`ALL`] in order.
    fn run(&self) {
        let topology = self.cli.spec.topology();
        if topology != MultiCore::IDEALIZED {
            eprintln!(
                "[repro] multicore machine: {} core(s), {} shared-L2 bank(s)",
                topology.cores, topology.banks
            );
        }
        match self.cli.experiment.as_str() {
            "all" => ALL.split(' ').for_each(|name| self.experiment(name)),
            name => self.experiment(name),
        }
    }

    /// Build one experiment's artifact and emit it under `--out`.
    fn experiment(&self, name: &str) {
        let (engine, spec) = (&self.engine, &self.cli.spec);
        let charted = |fig: &SweepFig| (vec![fig.table()], Some(fig.to_chart()));
        let (tables, chart) = match name {
            "fig1" => (vec![ok(fig1::run(engine, spec)).table()], None),
            "table1" => (vec![ok(table1::run(engine, spec)).table()], None),
            "dataset" | "summary" => {
                let summary = self.dataset().summary().to_table();
                return emit_text(&self.cli.out, "dataset_summary", &summary);
            }
            "fig2" => (vec![accuracy::from_suite(self.suite()).table()], None),
            "fig3" => (
                vec![importance::from_suite(self.suite(), "Fig. 3").table()],
                None,
            ),
            "fig4" | "fig5" => {
                // Campaigns of their own with the vector length pinned,
                // at half `--configs`.
                let pinned = JobSpec {
                    configs: (spec.configs / 2).clamp(20, 1500),
                    ..spec.clone()
                };
                let vl = if name == "fig4" { 128 } else { 2048 };
                let fig = importance::fig45(engine, &self.space, &pinned, vl);
                (vec![ok(fig).table()], None)
            }
            "fig6" => charted(&ok(sweeps::fig6(engine, &self.space, &self.cli.sweep))),
            "fig7" => charted(self.fig7()),
            "fig8" => charted(self.fig8()),
            "headline" => {
                let fig = headline::from_parts(self.suite(), self.fig7(), self.fig8());
                (vec![fig.table()], None)
            }
            "unseen" => (vec![unseen::run(self.dataset(), spec.seed).table()], None),
            "multicore" => (vec![ok(multicore::run(spec)).table()], None),
            "crossval" => {
                let fig = crossval::run(self.dataset(), self.suite(), self.fig7());
                (fig.tables(), None)
            }
            "explore" => return self.explore(),
            _ => unreachable!("parse_args admits only known experiments"),
        };
        emit(&self.cli.out, name, &tables, chart.as_deref());
    }

    /// The campaign's dataset, loaded or generated on first use. A
    /// campaign generated here under `--metrics` also gets its bottleneck
    /// report, emitted once the cell is set: the report reads the suite,
    /// and the suite reads the dataset.
    fn dataset(&self) -> &DseDataset {
        if let Some(data) = self.data.get() {
            return data;
        }
        let (data, generated) = self.load_or_generate();
        let data = self.data.get_or_init(|| data);
        if let Some(dir) = self.cli.metrics.as_ref().filter(|_| generated) {
            self.emit_bottleneck(dir);
        }
        data
    }

    /// The per-app surrogates trained on the dataset.
    fn suite(&self) -> &SurrogateSuite {
        // Outside the cell's initialiser: building the dataset may emit
        // the bottleneck report, which reads this suite.
        let data = self.dataset();
        self.suite
            .get_or_init(|| SurrogateSuite::train(data, 0.2, self.cli.spec.seed))
    }

    fn fig7(&self) -> &SweepFig {
        self.fig7
            .get_or_init(|| ok(sweeps::fig7(&self.engine, &self.space, &self.cli.sweep)))
    }

    fn fig8(&self) -> &SweepFig {
        self.fig8
            .get_or_init(|| ok(sweeps::fig8(&self.engine, &self.space, &self.cli.sweep)))
    }

    /// Run the surrogate-guided adaptive exploration loop (the `explore`
    /// experiment). The candidate pool is `--configs` seeded STREAM
    /// design points; the simulation budget defaults to a tenth of the
    /// pool. The explorer streams its artifacts under `--out` itself;
    /// this adds the per-chunk progress log, `--max-chunks` pause
    /// semantics, and a final accuracy-vs-samples summary table.
    fn explore(&self) {
        let cli = &self.cli;
        let eopts = ExploreOptions {
            scale: cli.spec.scale,
            seed: cli.spec.seed,
            threads: cli.spec.threads,
            pareto: cli.explore_pareto,
            ..explore_sizes(cli.spec.configs, cli.explore_budget)
        };
        let pool = eopts.pool;
        eprintln!(
            "[repro] {} exploration: pool {}, budget {} in {} round(s){} ...",
            if cli.resume { "resuming" } else { "running" },
            eopts.pool,
            eopts.budget,
            eopts.rounds(),
            if eopts.pareto { ", Pareto mode" } else { "" }
        );
        let mut chunks = 0usize;
        let max_chunks = cli.max_chunks;
        let mut observer = |p: &ExploreProgress| {
            eprintln!(
                "[repro]   round {}/{}: {}/{} jobs, {}/{} samples",
                p.round + 1,
                p.rounds,
                p.jobs_done,
                p.round_jobs,
                p.samples,
                p.budget
            );
            chunks += 1;
            max_chunks.is_none_or(|max| chunks < max)
        };
        let explorer = ok(Explorer::new(&self.engine, &self.space, eopts, &cli.out));
        let report = ok(explorer.run(ExploreControl {
            resume: cli.resume,
            observer: Some(&mut observer),
        }));
        if !report.completed {
            eprintln!(
                "[repro] explore paused after {} round(s) with {} sample(s) (--max-chunks); \
                 continue with --resume",
                report.rounds_done, report.samples
            );
            std::process::exit(0);
        }
        let rows: Vec<Vec<String>> = report
            .curve
            .iter()
            .map(|p| {
                vec![
                    p.round.to_string(),
                    p.samples.to_string(),
                    format!("{:.3}", p.epsilon),
                    format!("{:.4}", p.r2),
                    format!("{:.0}", p.mae),
                ]
            })
            .collect();
        let table = Table::new(
            "Adaptive exploration: surrogate accuracy vs samples",
            &["round", "samples", "epsilon", "holdout R2", "holdout MAE"],
            rows,
        )
        .note(format!(
            "{} simulations selected from a {}-candidate pool; final holdout R2 {:.4}",
            report.samples,
            pool,
            report.final_r2()
        ));
        emit(&cli.out, "explore_summary", &[table], None);
    }

    /// Load the dataset CSV if present and complete, else generate it by
    /// streaming rows to `<out>/dataset.csv` with a checkpoint after each
    /// chunk; `true` beside the dataset says it was generated. With
    /// `--resume` an interrupted campaign continues from its checkpoint;
    /// the finished file is byte-identical to an uninterrupted run. The
    /// `dataset` experiment regenerates a complete dataset — unless
    /// `--resume` says to keep what is there.
    fn load_or_generate(&self) -> (DseDataset, bool) {
        let cli = &self.cli;
        let force_regen = cli.experiment == "dataset";
        let files = dataset_files(cli);
        let path = &files.csv;

        // A CSV with a checkpoint beside it is a campaign in flight, not
        // a dataset: this function removes the checkpoint on completion.
        if !files.checkpoint.exists() {
            if cli.resume || !force_regen {
                if let Ok(d) = DseDataset::load_csv(path) {
                    if cli.resume {
                        eprintln!(
                            "[repro] nothing to resume: {} is complete ({} rows)",
                            path.display(),
                            d.rows.len()
                        );
                    } else {
                        eprintln!(
                            "[repro] loaded {} rows from {}",
                            d.rows.len(),
                            path.display()
                        );
                    }
                    return (d, false);
                }
            }
        } else if !force_regen && !cli.resume {
            eprintln!(
                "[repro] {} is incomplete (checkpoint present) — regenerating from scratch; \
                 pass --resume to continue it instead",
                path.display()
            );
        }

        let plan = ok(cli.spec.plan(&self.space));
        if let Some(dir) = &cli.metrics {
            std::fs::create_dir_all(dir).expect("create metrics directory");
        }
        let mut campaign = ok(files.open(!cli.resume));
        eprintln!(
            "[repro] {} dataset: {} configs x {} apps = {} jobs ...",
            if campaign.position.is_some() {
                "resuming"
            } else {
                "generating"
            },
            plan.configs(),
            plan.apps().len(),
            plan.jobs()
        );
        let mut chunks = 0usize;
        let max_chunks = cli.max_chunks;
        let mut observer = |p: &Progress| {
            eprintln!(
                "[repro]   {}/{} jobs ({:.0}%), {} rows, {} discarded",
                p.jobs_done,
                p.total_jobs,
                100.0 * p.fraction(),
                p.rows,
                p.discarded
            );
            chunks += 1;
            max_chunks.is_none_or(|max| chunks < max)
        };
        let summary = ok(campaign.run(&self.engine, &plan, Some(&mut observer)));
        if !summary.completed {
            eprintln!(
                "[repro] paused after {} chunk(s) at job {}/{} (--max-chunks); continue with --resume",
                cli.max_chunks.unwrap_or(0),
                summary.jobs_done,
                summary.jobs
            );
            std::process::exit(0);
        }
        // Campaign complete: the checkpoint has served its purpose.
        std::fs::remove_file(&files.checkpoint).ok();
        let discarded = discarded_table(&campaign.sink.discarded);
        emit(&cli.out, "discarded", &[discarded], None);
        if summary.resumed_from > 0 {
            eprintln!("[repro] resumed from job {}", summary.resumed_from);
        }
        eprintln!("[repro] saved {} rows to {}", summary.rows, path.display());
        let data = DseDataset::load_csv(path).expect("reload the dataset just written");
        (data, true)
    }

    /// Load the streamed metrics CSV back, derive per-app bottleneck
    /// labels, and cross-tabulate them against the suite's permutation
    /// importances. Artifacts land in the metrics directory (not
    /// `--out`): `bottleneck.{txt,csv,json}` next to `metrics.csv`.
    fn emit_bottleneck(&self, dir: &Path) {
        let mpath = dir.join("metrics.csv");
        let metrics = match bottleneck::MetricsTable::load_csv(&mpath) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("[repro] metrics analysis skipped: {e}");
                return;
            }
        };
        eprintln!(
            "[repro] {} metrics rows in {}",
            metrics.len(),
            mpath.display()
        );
        let report = bottleneck::run(&metrics, &importance::from_suite(self.suite(), "Fig. 3"));
        emit(dir, "bottleneck", &report.tables(), None);
    }
}

/// The `explore` experiment's sizes: `--configs` is the candidate pool
/// (at least 20), `--explore` the budget (default a tenth of the pool,
/// at most the pool), run in about six rounds of at least two
/// simulations, the batch never above the budget (nor 0: `--explore 0`
/// must reach the Explorer's validation, not divide by it).
fn explore_sizes(configs: usize, budget: Option<usize>) -> ExploreOptions {
    let pool = configs.max(20);
    let budget = budget.unwrap_or_else(|| (pool / 10).max(8)).min(pool);
    ExploreOptions {
        pool,
        budget,
        batch: budget.div_ceil(6).max(2).min(budget.max(1)),
        holdout: (pool / 6).clamp(10, 200),
        ..ExploreOptions::for_app(App::Stream)
    }
}

/// Where the `dataset` campaign lives: `dataset.{csv,ckpt}` under
/// `--out`, `metrics.csv` under `--metrics`.
fn dataset_files(cli: &Cli) -> CampaignFiles {
    CampaignFiles {
        csv: cli.out.join("dataset.csv"),
        checkpoint: cli.out.join("dataset.ckpt"),
        metrics: cli.metrics.as_ref().map(|dir| dir.join("metrics.csv")),
    }
}

/// Print an artifact's tables and persist them under `dir` as
/// `<name>.{txt,csv,json}`: aligned text (diffable against
/// EXPERIMENTS.md, `chart` appended), CSV, and JSON.
fn emit(dir: &Path, name: &str, tables: &[Table], chart: Option<&str>) {
    let mut text = String::new();
    for t in tables {
        text.push_str(&t.to_text());
        if tables.len() > 1 {
            text.push('\n');
        }
    }
    if let Some(c) = chart {
        text.push('\n');
        text.push_str(c);
    }
    println!("{text}");
    let write = |ext: &str, body: &str| {
        std::fs::write(dir.join(format!("{name}.{ext}")), body).expect("write result file");
    };
    write("txt", &text);
    let csv: Vec<String> = tables.iter().map(|t| t.to_csv()).collect();
    write("csv", &csv.join("\n"));
    write("json", &tables_to_json(tables));
}

/// Print and persist a preformatted text artifact (`.txt` only).
fn emit_text(dir: &Path, name: &str, text: &str) {
    println!("{text}");
    std::fs::write(dir.join(format!("{name}.txt")), text).expect("write result file");
}

#[cfg(test)]
mod tests {
    fn parse(args: &[&str]) -> Result<super::Cli, String> {
        super::parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flag_errors_name_the_flag_and_the_value() {
        let err = |args: &[&str]| parse(args).err().expect("refused");
        assert_eq!(
            err(&["dataset", "--configs", "abc"]),
            "--configs: \"abc\" is not a number"
        );
        assert_eq!(
            err(&["dataset", "--cores", "-1"]),
            "--cores: \"-1\" is not a number"
        );
        assert_eq!(err(&["dataset", "--scale", "huge"]), "unknown scale huge");
        assert_eq!(
            err(&["dataset", "--frobnicate"]),
            "unknown flag --frobnicate"
        );
        assert_eq!(err(&["dataset", "--seed"]), "--seed needs a value");
        assert_eq!(err(&[]), "missing experiment name");
        let cli = parse(&["fig2", "--configs", "12", "--scale", "tiny", "--resume"]).unwrap();
        assert_eq!((cli.spec.configs, cli.resume), (12, true));
        let cli = parse(&["fig2"]).unwrap();
        assert_eq!((cli.spec.configs, cli.spec.seed), (400, 20240931));
    }

    /// The `--flag`s, each with the word after it, that the `repro`
    /// command lines in `doc` name: the words after each `repro` (a
    /// `\`-continued line counts as one line), up to a comment, a shell
    /// operator or the end of an inline code span. `repro --serve`
    /// takes the server's own flags and is skipped.
    fn documented_flags(doc: &str) -> Vec<(String, Option<String>)> {
        let mut flags = Vec::new();
        for line in doc.replace("\\\n", " ").lines() {
            for command in line.split("repro ").skip(1) {
                let words: Vec<&str> = command
                    .split('`')
                    .next()
                    .unwrap_or_default()
                    .split_whitespace()
                    .take_while(|w| !matches!(*w, "#" | "|" | "&" | "&&" | ">" | "2>" | ";"))
                    .map(|w| w.trim_matches(['[', ']']))
                    .filter(|w| *w != "--")
                    .collect();
                if words.first() == Some(&"--serve") {
                    continue;
                }
                for (i, word) in words.iter().enumerate() {
                    if word.starts_with("--") {
                        let value = words.get(i + 1).filter(|v| !v.starts_with("--"));
                        flags.push((word.to_string(), value.map(|v| v.to_string())));
                    }
                }
            }
        }
        flags
    }

    /// Every flag the user-facing docs put on a `repro` command line is
    /// one `parse_args` knows: a doc naming a deleted flag fails here.
    #[test]
    fn every_flag_the_docs_name_on_a_repro_command_line_parses() {
        let docs = [
            ("README.md", include_str!("../../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../../EXPERIMENTS.md")),
            (
                "docs/METRICS.md",
                include_str!("../../../../docs/METRICS.md"),
            ),
            (
                "docs/MULTICORE.md",
                include_str!("../../../../docs/MULTICORE.md"),
            ),
            ("docs/SERVER.md", include_str!("../../../../docs/SERVER.md")),
        ];
        // The scan catches a retired flag on a continued command line.
        let retired = "cargo run --bin repro -- dataset \\\n    --fidelity memoized\n";
        assert_eq!(
            documented_flags(retired),
            [("--fidelity".to_string(), Some("memoized".to_string()))]
        );
        assert_eq!(
            parse(&["dataset", "--fidelity", "memoized"])
                .err()
                .as_deref(),
            Some("unknown flag --fidelity")
        );
        let mut checked = 0;
        for (name, doc) in docs {
            for (flag, value) in documented_flags(doc) {
                let mut args = vec!["dataset", flag.as_str()];
                args.extend(value.as_deref());
                if let Err(e) = parse(&args) {
                    assert_ne!(e, format!("unknown flag {flag}"), "{name} names it");
                }
                checked += 1;
            }
        }
        assert!(checked > 20, "only {checked} documented flags found");
    }

    #[test]
    fn resuming_a_checkpoint_whose_dataset_is_gone_is_refused() {
        let dir = std::env::temp_dir().join("armdse_repro_csv_gone");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.to_str().unwrap();
        let cli = parse(&["dataset", "--out", out, "--resume"]).unwrap();
        let files = super::dataset_files(&cli);
        std::fs::write(&files.checkpoint, "armdse-checkpoint v1\n").unwrap();
        let msg = files.open(!cli.resume).err().expect("refused").to_string();
        assert!(msg.starts_with("checkpoint error: "), "{msg}");
        assert!(
            msg.contains("dataset.ckpt") && msg.contains("dataset.csv"),
            "{msg}"
        );
        // Without --resume the same directory starts over.
        assert!(files.open(true).unwrap().position.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resuming_a_finished_campaign_keeps_its_dataset() {
        let dir = std::env::temp_dir().join("armdse_repro_resume_finished");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.to_str().unwrap();
        let run = |extra: &[&str]| {
            let args = ["dataset", "--configs", "3", "--scale", "tiny", "--out", out];
            let cli = parse(&[&args[..], extra].concat()).unwrap();
            super::Session::new(cli).dataset().clone()
        };
        let first = run(&[]);
        let csv = dir.join("dataset.csv");
        assert!(
            !dir.join("dataset.ckpt").exists(),
            "finished: no checkpoint"
        );
        // Mark one cycles cell: a regenerated file would not carry it.
        let text = std::fs::read_to_string(&csv).unwrap();
        let marked = text.replacen(&format!(",{},", first.rows[0].cycles), ",123456789,", 1);
        assert_ne!(marked, text);
        std::fs::write(&csv, &marked).unwrap();
        let again = run(&["--resume"]);
        assert_eq!(again.rows[0].cycles, 123456789);
        assert_eq!(std::fs::read_to_string(&csv).unwrap(), marked);
        // Without --resume the `dataset` experiment regenerates it.
        assert_eq!(run(&[]).rows, first.rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Standalone `fig4` writes the bytes `all` writes: both run the
    /// VL-pinned campaign at half `--configs`.
    #[test]
    fn standalone_fig4_writes_what_all_writes() {
        let dir = std::env::temp_dir().join("armdse_repro_fig4_rule");
        let _ = std::fs::remove_dir_all(&dir);
        let run = |experiment: &str| {
            let out = dir.join(experiment);
            std::fs::create_dir_all(&out).unwrap();
            let args = ["--configs", "40", "--scale", "tiny", "--sweep-configs", "2"];
            let out_arg = ["--threads", "2", "--out", out.to_str().unwrap()];
            let cli = parse(&[&[experiment][..], &args, &out_arg].concat()).unwrap();
            super::Session::new(cli).run();
            out
        };
        let (all, alone) = (run("all"), run("fig4"));
        for file in ["fig4.txt", "fig4.csv", "fig4.json"] {
            let read = |dir: &std::path::Path| std::fs::read(dir.join(file)).unwrap();
            assert!(read(&all) == read(&alone), "{file} differs");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// DESIGN §4's experiment index regenerates with experiments `repro`
    /// accepts, lists every one of them but `all`, and names only
    /// `analysis` modules that exist.
    #[test]
    fn design_experiment_index_matches_repro_and_the_analysis_modules() {
        let design = include_str!("../../../../DESIGN.md");
        let index = design
            .split("\n## 4. ")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("DESIGN.md has a section 4");
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut regenerated = Vec::new();
        for row in index.lines().filter(|l| l.starts_with('|')) {
            let cells: Vec<&str> = row.split('|').collect();
            let column = cells[cells.len().saturating_sub(2)];
            for command in column.split("`repro ").skip(1) {
                let name = command.split(['`', ' ']).next().unwrap_or_default();
                if !name.starts_with("--") {
                    assert!(parse(&[name]).is_ok(), "DESIGN §4: `repro {name}`");
                    regenerated.push(name);
                }
            }
            for path in row.split("`analysis::").skip(1) {
                let module: String = path
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                assert!(
                    src.join(format!("{module}.rs")).exists(),
                    "DESIGN §4 names `analysis::{module}`"
                );
            }
        }
        for name in super::ALL.split(' ').chain(super::ALONE.split(' ')) {
            assert!(
                regenerated.contains(&name),
                "DESIGN §4 lacks `repro {name}`"
            );
        }
    }

    #[test]
    fn explore_sizes_fit_every_budget() {
        let sizes = |configs, budget| {
            let o = super::explore_sizes(configs, budget);
            (o.pool, o.budget, o.batch, o.holdout)
        };
        // `--explore 1` used to derive batch 2: "batch exceeds the budget".
        assert_eq!(sizes(60, Some(1)), (60, 1, 1, 10));
        assert_eq!(sizes(60, Some(2)), (60, 2, 2, 10));
        assert_eq!(sizes(60, Some(7)), (60, 7, 2, 10));
        assert_eq!(sizes(60, Some(80)), (60, 60, 10, 10));
        assert_eq!(sizes(2000, None), (2000, 200, 34, 200));
    }
}
