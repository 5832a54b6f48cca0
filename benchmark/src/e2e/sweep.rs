//! The three fixed-sweep workloads: `paper_grid`, `mc2_sweep`,
//! `reuse_sweep`. All drive `Engine::run_controlled` into a `CsvSink`
//! with a checkpoint, as `repro dataset` does.

use super::api::*;
use super::replay::{self, Counts, Durable};
use super::trace::Tracer;
use super::{file_digest, fnv, Ctx, Outcome, Rep, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shared L2 banks of the 2-core machine.
const MC_BANKS: u32 = 8;

/// What one `run_controlled` call into a durable CSV produced.
pub struct RunOut {
    pub completed: bool,
    pub rows: usize,
    pub discarded: usize,
    /// Interval-cache `(hits, misses, evictions)` at the last chunk.
    pub reuse: Option<(u64, u64, u64)>,
}

/// Run `plan` into `csv` with a checkpoint beside it.
pub fn run_to_csv(
    engine: &Engine,
    plan: &RunPlan,
    csv: &Path,
    ckpt: &Path,
    reuse: ReuseMode,
) -> RunOut {
    std::fs::remove_file(ckpt).ok();
    let mut sink = CsvSink::create(csv).expect("scratch CSV is writable");
    let mut last = None;
    let mut observer = |p: &Progress| {
        last = p.reuse.map(|r| (r.hits, r.misses, r.evictions));
        true
    };
    let summary = engine
        .run_controlled(
            plan,
            &mut sink,
            RunControl {
                checkpoint: Some(ckpt),
                observer: Some(&mut observer),
                reuse,
                ..RunControl::default()
            },
        )
        .expect("generated campaigns run");
    RunOut {
        completed: summary.completed,
        rows: summary.rows,
        discarded: summary.discarded,
        reuse: last,
    }
}

/// Run the plan's first design points once, so the timed repetitions
/// start with the workload cache filled and the run path paged in. Part
/// of set-up.
pub fn warm_up(engine: &Engine, space: &ParamSpace, desc: &PlanDesc, points: usize, dir: &Path) {
    let head = PlanDesc::sweep(desc.configs.min(points), desc.scale, desc.seed, &desc.apps);
    run_to_csv(
        engine,
        &head.run_plan(space, super::THREADS),
        &dir.join("warm_up.csv"),
        &dir.join("warm_up.ckpt"),
        ReuseMode::Inherit,
    );
}

/// Wall seconds of running the first `jobs` jobs of `desc` one by one
/// through `simulate`, and the core cycles they simulated.
fn probe(
    space: &ParamSpace,
    desc: &PlanDesc,
    jobs: usize,
    mut simulate: impl FnMut(App, &DesignConfig) -> u64,
) -> (f64, u64) {
    let jobs = jobs.min(desc.jobs());
    let cfgs: Vec<_> = (0..jobs)
        .map(|job| {
            let slot = job / desc.apps.len();
            (
                desc.apps[job % desc.apps.len()],
                space.sample_seeded(desc.seed + desc.offset(slot)),
            )
        })
        .collect();
    let t = Instant::now();
    let cycles = cfgs.iter().map(|(app, cfg)| simulate(*app, cfg)).sum();
    (t.elapsed().as_secs_f64(), cycles)
}

/// A plain sweep on a `CORES`-core machine: `paper_grid` on one core
/// (followed by the paper's analysis), `mc2_sweep` on two.
pub struct Sweep<const CORES: u64> {
    space: ParamSpace,
    engine: Engine,
    desc: PlanDesc,
    dir: PathBuf,
    /// Jobs in the side probes that run one sample two ways.
    probe_jobs: usize,
    split_seed: u64,
}

/// `paper_grid`: the paper's pipeline on the idealized engine.
pub type PaperGrid = Sweep<1>;
/// `mc2_sweep`: the same sink path through the 2-core machine.
pub type Mc2Sweep = Sweep<2>;

impl<const CORES: u64> Sweep<CORES> {
    /// Load the CSV and fit the per-app surrogates after the sweep.
    const ANALYSIS: bool = CORES == 1;

    fn engine() -> Engine {
        if CORES == 1 {
            Engine::idealized()
        } else {
            Engine::multicore(CORES as u32, MC_BANKS)
        }
    }

    /// Time the two `mltree` calls `SurrogateSuite::train` spends its
    /// time in, on the same per-app splits.
    fn mltree_probe(&self, data: &DseDataset, suite: &SurrogateSuite, out: &mut Outcome) {
        let names: Vec<String> = FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
        let (mut fit_s, mut importance_s, mut same) = (0.0, 0.0, true);
        for model in &suite.models {
            let (train, test) = train_test_split(&data.ml_dataset(model.app), 0.2, self.split_seed);
            let t = Instant::now();
            let tree = DecisionTreeRegressor::fit(&train.x, &train.y);
            fit_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let report = permutation_importance(
                &tree,
                &test.x,
                &test.y,
                &names,
                10,
                self.split_seed ^ 0xABCD,
            );
            importance_s += t.elapsed().as_secs_f64();
            same &= report.baseline_mae == model.importance.baseline_mae;
        }
        out.set("mltree.tree_fit_s", fit_s);
        out.set("mltree.importance_s", importance_s);
        out.check("mltree probe refits the suite's own trees", same);
    }
}

impl<const CORES: u64> Workload for Sweep<CORES> {
    fn setup(ctx: &Ctx) -> Self {
        let (name, configs) = if CORES == 1 {
            ("paper_grid", ctx.size(1000, 8))
        } else {
            ("mc2_sweep", ctx.size(500, 4))
        };
        let space = ParamSpace::paper();
        let engine = Self::engine();
        let desc = PlanDesc::sweep(configs, WorkloadScale::Small, ctx.sub_seed(1), &App::ALL);
        let dir = ctx.dir(name);
        warm_up(&engine, &space, &desc, 64, &dir);
        Sweep {
            space,
            engine,
            desc,
            dir,
            probe_jobs: ctx.size(64, 8),
            split_seed: ctx.sub_seed(2),
        }
    }

    fn jobs(&self) -> u64 {
        self.desc.jobs() as u64
    }

    fn rep(&mut self, threads: usize, out: &mut Outcome) -> Rep {
        let csv = self.dir.join("dataset.csv");
        let plan = self.desc.run_plan(&self.space, threads);
        let t = Instant::now();
        let run = run_to_csv(
            &self.engine,
            &plan,
            &csv,
            &self.dir.join("run.ckpt"),
            ReuseMode::Inherit,
        );
        let acc = Self::ANALYSIS.then(|| {
            let data = DseDataset::load_csv(&csv).expect("the sweep's own CSV loads");
            SurrogateSuite::train(&data, 0.2, self.split_seed).mean_accuracy_pct()
        });
        let wall_s = t.elapsed().as_secs_f64();
        out.check("sweep ran to completion", run.completed);
        out.check(
            "rows + discarded == jobs",
            run.rows + run.discarded == self.desc.jobs(),
        );
        let mut artifact = file_digest(&csv);
        if let Some(acc) = acc {
            artifact = fnv(artifact, &acc.to_bits().to_le_bytes());
        }
        Rep {
            wall_s,
            attempted: self.desc.jobs() as u64,
            failed: run.discarded as u64,
            artifact,
        }
    }

    fn traced(&mut self, _ctx: &Ctx, base: &Rep, par: &Rep, out: &mut Outcome) {
        let engine = Self::engine();
        let csv = self.dir.join("traced.csv");
        let ckpt = self.dir.join("traced.ckpt");
        let mut tr = Tracer::new();
        let mut counts = Counts::default();
        let root = tr.begin("bench", "traced_run", 0);
        let mut sink = tr
            .call("core.engine", "sink", 0, || CsvSink::create(&csv))
            .expect("scratch CSV is writable");
        replay::replay(
            &mut tr,
            &mut counts,
            &engine,
            0,
            &self.space,
            &self.desc,
            Some(Durable {
                sink: &mut sink,
                checkpoint: &ckpt,
            }),
            None,
        );
        drop(sink);
        let mut acc = None;
        if Self::ANALYSIS {
            let data = tr
                .call("core.dataset", "load", 0, || DseDataset::load_csv(&csv))
                .expect("the traced CSV loads");
            let suite = tr.call("core.surrogate", "train", 0, || {
                SurrogateSuite::train(&data, 0.2, self.split_seed)
            });
            acc = Some(suite.mean_accuracy_pct());
            tr.end(root);
            self.mltree_probe(&data, &suite, out);
        } else {
            tr.end(root);
        }

        let mut artifact = file_digest(&csv);
        if let Some(acc) = acc {
            artifact = fnv(artifact, &acc.to_bits().to_le_bytes());
            out.set("core.surrogate.acc_pct", acc);
        }
        out.check(
            "traced threads=1 bytes == untraced threads=2 bytes",
            artifact == par.artifact,
        );
        out.check(
            "traced rows + discarded == jobs",
            counts.rows + counts.discarded == self.desc.jobs() as u64,
        );
        let times = tr.self_times();
        replay::report(&times, &counts, CORES, out);
        let between_layers_s = replay::report_trace(&times, tr.seconds(root), base.wall_s, out);
        out.set("core.scheduler.self_s", between_layers_s);
        if Self::ANALYSIS {
            let load_s = times.get("core.dataset.load");
            let train_s = times.get("core.surrogate.train");
            out.set("core.dataset.load_s", load_s);
            out.set("core.surrogate.train_s", train_s);
            out.set("core.surrogate.analysis_s", load_s + train_s);
        }

        // What cycle accounting costs on top of a plain simulation.
        let scale = self.desc.scale;
        let (plain_s, _) = probe(&self.space, &self.desc, self.probe_jobs, |app, cfg| {
            engine.simulate_config(app, scale, cfg).cycles
        });
        let (metrics_s, _) = probe(&self.space, &self.desc, self.probe_jobs, |app, cfg| {
            engine.simulate_config_metrics(app, scale, cfg).0.cycles
        });
        out.set("simcore.metrics_tax", metrics_s / plain_s);

        if CORES > 1 {
            let one = Engine::multicore(1, MC_BANKS);
            let (n1_s, _) = probe(&self.space, &self.desc, self.probe_jobs, |app, cfg| {
                one.simulate_config(app, scale, cfg).cycles
            });
            let (n2_s, cycles) = probe(&self.space, &self.desc, self.probe_jobs, |app, cfg| {
                engine.simulate_config(app, scale, cfg).cycles
            });
            out.set("simcore.mc.n2_over_n1", n2_s / n1_s);
            out.set(
                "simcore.mc.ns_per_core_cycle",
                n2_s * 1e9 / (cycles * CORES) as f64,
            );
        }
        out.tracers.push(tr);
    }
}

/// `reuse_sweep`: a cold memoized pass and an identical re-run, both of
/// which must write the bytes of a `Full` pass.
pub struct ReuseSweep {
    space: ParamSpace,
    engine: Engine,
    desc: PlanDesc,
    dir: PathBuf,
    /// Digest of the `Full` reference pass run in set-up.
    reference: u64,
    /// Wall seconds of the last repetition's cold and re-run passes.
    pass_s: (f64, f64),
    /// Interval-cache counters after those two passes.
    reuse: Option<Counters>,
}

/// `(hits, misses, evictions)` after the cold pass and after the re-run.
type Counters = ((u64, u64, u64), (u64, u64, u64));

impl ReuseSweep {
    /// One pass into `<name>.csv`; returns its wall seconds and output.
    fn pass(&self, engine: &Engine, name: &str, threads: usize, mode: ReuseMode) -> (f64, RunOut) {
        let plan = self.desc.run_plan(&self.space, threads);
        let t = Instant::now();
        let run = run_to_csv(
            engine,
            &plan,
            &self.dir.join(format!("{name}.csv")),
            &self.dir.join(format!("{name}.ckpt")),
            mode,
        );
        (t.elapsed().as_secs_f64(), run)
    }

    fn check_pass(&self, name: &str, run: &RunOut, out: &mut Outcome) -> u64 {
        let digest = file_digest(&self.dir.join(format!("{name}.csv")));
        out.check(
            format!("{name} pass ran to completion with rows + discarded == jobs"),
            run.completed && run.rows + run.discarded == self.desc.jobs(),
        );
        out.check(
            format!("{name} CSV == the Full reference"),
            digest == self.reference,
        );
        digest
    }
}

impl Workload for ReuseSweep {
    fn setup(ctx: &Ctx) -> ReuseSweep {
        let space = ParamSpace::paper();
        let desc = PlanDesc::sweep(
            ctx.size(250, 6),
            WorkloadScale::Small,
            ctx.sub_seed(1),
            &App::ALL,
        );
        let engine = Engine::memoized(DEFAULT_INTERVAL_LEN);
        let mut w = ReuseSweep {
            space,
            engine,
            desc,
            dir: ctx.dir("reuse_sweep"),
            reference: 0,
            pass_s: (0.0, 0.0),
            reuse: None,
        };
        w.pass(
            &Engine::idealized(),
            "full",
            super::THREADS,
            ReuseMode::Inherit,
        );
        w.reference = file_digest(&w.dir.join("full.csv"));
        w
    }

    fn jobs(&self) -> u64 {
        2 * self.desc.jobs() as u64
    }

    fn rep(&mut self, threads: usize, out: &mut Outcome) -> Rep {
        let t = Instant::now();
        let (cold_s, cold) = self.pass(&self.engine, "cold", threads, ReuseMode::ColdStart);
        let (rerun_s, rerun) = self.pass(&self.engine, "rerun", threads, ReuseMode::Inherit);
        let wall_s = t.elapsed().as_secs_f64();
        self.pass_s = (cold_s, rerun_s);
        self.reuse = cold.reuse.zip(rerun.reuse);
        let artifact = fnv(
            self.check_pass("cold", &cold, out),
            &self.check_pass("rerun", &rerun, out).to_le_bytes(),
        );
        Rep {
            wall_s,
            attempted: self.jobs(),
            failed: (cold.discarded + rerun.discarded) as u64,
            artifact,
        }
    }

    fn traced(&mut self, _ctx: &Ctx, base: &Rep, par: &Rep, out: &mut Outcome) {
        // `base` ran last: its threads=1 passes against a Full pass, and
        // the interval cache's own counters for the re-run.
        let (full_s, _) = self.pass(&Engine::idealized(), "full", 1, ReuseMode::Inherit);
        out.set("simcore.reuse.cold_over_full", self.pass_s.0 / full_s);
        out.set("simcore.reuse.rerun_over_full", self.pass_s.1 / full_s);
        if let Some((c, r)) = self.reuse {
            let (hits, misses) = (r.0 - c.0, r.1 - c.1);
            out.set("simcore.reuse.cold_hits", c.0 as f64);
            out.set("simcore.reuse.hits", hits as f64);
            out.set("simcore.reuse.misses", misses as f64);
            out.set("simcore.reuse.evictions", r.2 as f64);
            out.set(
                "simcore.reuse.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
        }

        // The traced passes run on the measured engine; a one-job
        // `ColdStart` run empties its interval cache first.
        let one_job = PlanDesc::sweep(1, self.desc.scale, self.desc.seed, &self.desc.apps[..1]);
        run_to_csv(
            &self.engine,
            &one_job.run_plan(&self.space, 1),
            &self.dir.join("clear.csv"),
            &self.dir.join("clear.ckpt"),
            ReuseMode::ColdStart,
        );
        let engine = &self.engine;
        let mut tr = Tracer::new();
        let mut counts = Counts::default();
        let root = tr.begin("bench", "traced_run", 0);
        let mut digests = Vec::new();
        for name in ["traced_cold", "traced_rerun"] {
            let csv = self.dir.join(format!("{name}.csv"));
            let mut sink = tr
                .call("core.engine", "sink", 0, || CsvSink::create(&csv))
                .expect("scratch CSV is writable");
            replay::replay(
                &mut tr,
                &mut counts,
                engine,
                0,
                &self.space,
                &self.desc,
                Some(Durable {
                    sink: &mut sink,
                    checkpoint: &self.dir.join(format!("{name}.ckpt")),
                }),
                None,
            );
            drop(sink);
            digests.push(file_digest(&csv));
        }
        tr.end(root);
        out.check(
            "traced threads=1 bytes == untraced threads=2 bytes",
            fnv(digests[0], &digests[1].to_le_bytes()) == par.artifact,
        );
        out.check(
            "traced rows + discarded == jobs",
            counts.rows + counts.discarded == self.jobs(),
        );
        let times = tr.self_times();
        replay::report(&times, &counts, 1, out);
        replay::report_trace(&times, tr.seconds(root), base.wall_s, out);
        out.tracers.push(tr);
    }
}
