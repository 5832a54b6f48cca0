//! `explore_campaign`: one adaptive `Explorer` campaign on STREAM, where
//! forest refits and pool-wide variance predictions — not simulate —
//! take most of the wall.

use super::api::*;
use super::replay::{self, Counts, Durable};
use super::sweep::warm_up;
use super::trace::Tracer;
use super::{file_digest, fnv, Ctx, Outcome, Rep, Workload};
use std::path::PathBuf;
use std::time::Instant;

pub struct ExploreCampaign {
    space: ParamSpace,
    engine: Engine,
    opts: ExploreOptions,
    dir: PathBuf,
    /// The last repetition's report: the traced run replays its picks.
    report: Option<ExploreReport>,
}

impl ExploreCampaign {
    /// The plan simulating candidates `indices` of the pool.
    fn batch(&self, indices: Vec<u64>) -> PlanDesc {
        PlanDesc {
            configs: indices.len(),
            scale: self.opts.scale,
            seed: self.opts.seed,
            apps: vec![self.opts.app],
            chunk_jobs: self.opts.chunk_jobs,
            indices: Some(indices),
        }
    }

    fn holdout(&self) -> PlanDesc {
        let (pool, holdout) = (self.opts.pool as u64, self.opts.holdout as u64);
        self.batch((pool..pool + holdout).collect())
    }

    fn artifact(&self, report: &ExploreReport) -> u64 {
        let mut h = fnv(super::FNV_INIT, &report.final_r2().to_bits().to_le_bytes());
        for name in [
            "explore_dataset.csv",
            "explore_curve.csv",
            "explore_curve.json",
        ] {
            h = fnv(h, &file_digest(&self.dir.join(name)).to_le_bytes());
        }
        h
    }
}

impl Workload for ExploreCampaign {
    fn setup(ctx: &Ctx) -> ExploreCampaign {
        let opts = ExploreOptions {
            scale: WorkloadScale::Small,
            seed: ctx.sub_seed(1),
            pool: ctx.size(4000, 80),
            budget: ctx.size(600, 12),
            batch: ctx.size(25, 4),
            holdout: ctx.size(200, 10),
            forest: ForestParams {
                n_trees: 32,
                ..ForestParams::default()
            },
            ..ExploreOptions::for_app(App::Stream)
        };
        let w = ExploreCampaign {
            space: ParamSpace::paper(),
            engine: Engine::idealized(),
            opts,
            dir: ctx.dir("explore_campaign"),
            report: None,
        };
        warm_up(&w.engine, &w.space, &w.holdout(), w.opts.holdout, &w.dir);
        w
    }

    fn jobs(&self) -> u64 {
        (self.opts.holdout + self.opts.budget) as u64
    }

    fn rep(&mut self, threads: usize, out: &mut Outcome) -> Rep {
        let opts = ExploreOptions {
            threads,
            ..self.opts.clone()
        };
        let t = Instant::now();
        let report = Explorer::new(&self.engine, &self.space, opts, &self.dir)
            .expect("generated explore options validate")
            .run(ExploreControl::default())
            .expect("generated exploration runs");
        let wall_s = t.elapsed().as_secs_f64();
        out.check("exploration ran to completion", report.completed);
        out.check(
            "every budgeted candidate was selected once",
            report.selected.len() == self.opts.budget,
        );
        let failed = (self.opts.budget - report.samples.min(self.opts.budget)) as u64;
        let artifact = self.artifact(&report);
        self.report = Some(report);
        Rep {
            wall_s,
            attempted: self.jobs(),
            failed,
            artifact,
        }
    }

    fn traced(&mut self, _ctx: &Ctx, base: &Rep, par: &Rep, out: &mut Outcome) {
        let report = self.report.take().expect("a repetition ran first");
        let untraced_dataset = file_digest(&self.dir.join("explore_dataset.csv"));
        let o = &self.opts;
        let engine = Engine::idealized();
        let dataset = self.dir.join("traced_dataset.csv");
        let ckpt = self.dir.join("traced.ckpt");
        let mut tr = Tracer::new();
        let mut counts = Counts::default();
        let mut predictions = 0u64;
        let mut greedy_matches = true;

        let root = tr.begin("bench", "traced_run", 0);
        let features: Vec<[f64; 30]> = (0..o.pool as u64)
            .map(|i| {
                tr.call("core.space", "sample", i, || {
                    self.space.sample_seeded(o.seed + i).to_features()
                })
            })
            .collect();
        let mut held = Vec::new();
        replay::replay(
            &mut tr,
            &mut counts,
            &engine,
            0,
            &self.space,
            &self.holdout(),
            None,
            Some(&mut held),
        );
        let mut hx = Matrix::new(30);
        for r in &held {
            hx.push_row(&r.features);
        }
        let hy: Vec<f64> = held.iter().map(|r| r.cycles as f64).collect();

        drop(CsvSink::create(&dataset).expect("scratch CSV is writable"));
        let mut forest = RandomForest::warm_start(o.forest, o.seed);
        let mut taken = vec![false; o.pool];
        let mut rows: Vec<Row> = Vec::new();
        let mut final_r2 = f64::NAN;
        let rounds: Vec<&[u64]> = report.selected.chunks(o.batch).collect();
        for (round, picks) in rounds.iter().enumerate() {
            let op = round as u64;
            if round > 0 {
                let remaining: Vec<u64> =
                    (0..o.pool as u64).filter(|&i| !taken[i as usize]).collect();
                let (preds, stds) = tr.call("mltree", "predict", op, || {
                    let preds: Vec<f64> = remaining
                        .iter()
                        .map(|&i| forest.predict_one(&features[i as usize]))
                        .collect();
                    let stds: Vec<f64> = remaining
                        .iter()
                        .map(|&i| forest.predict_variance(&features[i as usize]).sqrt())
                        .collect();
                    (preds, stds)
                });
                predictions += 2 * remaining.len() as u64;
                // The Explorer's ε schedule and forced-random share, so
                // the greedy prefix of its recorded picks is checkable.
                let eps = (o.eps0 * o.eps_decay.powi(round as i32)).max(o.eps_min);
                let n_rand = (((eps * picks.len() as f64) / 2.0).floor() as usize)
                    .min(picks.len().saturating_sub(1));
                let n_greedy = picks.len() - n_rand;
                let greedy = tr.call("core.explorer", "acquire", op, || {
                    let scores = acquisition_scores(&preds, &stds, eps);
                    select_top_k(&remaining, &scores, n_greedy)
                });
                greedy_matches &= greedy == picks[..n_greedy];
            }
            for &i in picks.iter() {
                taken[i as usize] = true;
            }
            let plan = self.batch(picks.to_vec());
            let before = Checkpoint {
                fingerprint: plan.run_plan(&self.space, 1).fingerprint(),
                jobs_done: 0,
                rows: rows.len(),
                discarded: 0,
                extra: Vec::new(),
            };
            tr.call("core.engine", "checkpoint", op, || before.save(&ckpt))
                .expect("scratch checkpoint is writable");
            counts.checkpoints += 1;
            let mut sink = tr
                .call("core.engine", "sink", op, || CsvSink::append(&dataset))
                .expect("scratch CSV is appendable");
            replay::replay(
                &mut tr,
                &mut counts,
                &engine,
                0,
                &self.space,
                &plan,
                Some(Durable {
                    sink: &mut sink,
                    checkpoint: &ckpt,
                }),
                Some(&mut rows),
            );
            drop(sink);

            let mut x = Matrix::new(30);
            for r in &rows {
                x.push_row(&r.features);
            }
            let y: Vec<f64> = rows.iter().map(|r| r.cycles as f64).collect();
            tr.call("mltree", "refit", op, || {
                forest.partial_refit(&x, &y, op);
                if round + 1 == rounds.len() {
                    forest.partial_refit(&x, &y, op + 1);
                }
            });
            let preds = tr.call("mltree", "predict", op, || forest.predict(&hx));
            predictions += hx.rows() as u64;
            final_r2 = r2(&preds, &hy);
        }
        tr.end(root);

        out.check(
            "traced threads=1 bytes == untraced threads=2 bytes",
            file_digest(&dataset) == untraced_dataset && base.artifact == par.artifact,
        );
        out.check(
            "replayed acquisition picks the Explorer's own greedy batch",
            greedy_matches,
        );
        out.check(
            "replayed forest reaches the Explorer's held-out R2 exactly",
            final_r2.to_bits() == report.final_r2().to_bits(),
        );
        let times = tr.self_times();
        replay::report(&times, &counts, 1, out);
        let between_layers_s = replay::report_trace(&times, tr.seconds(root), base.wall_s, out);
        out.set("core.explorer.self_s", between_layers_s);
        out.set("mltree.refit_s", times.get("mltree.refit"));
        out.set("mltree.predict_s", times.get("mltree.predict"));
        out.set("mltree.predictions", predictions as f64);
        out.set(
            "core.explorer.acquire_s",
            times.get("core.explorer.acquire"),
        );
        out.set("core.explorer.rounds", report.rounds_done as f64);
        out.set("core.explorer.holdout_r2", report.final_r2());
        out.tracers.push(tr);
    }
}
