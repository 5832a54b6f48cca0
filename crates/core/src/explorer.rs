//! Surrogate-guided adaptive exploration atop the [`Engine`].
//!
//! The paper's workflow simulates a *fixed* random sweep (T2) and only
//! then trains its surrogate (T3). The [`Explorer`] closes that loop:
//! it alternates small simulation batches with incremental surrogate
//! refits, and lets the surrogate's own uncertainty decide which design
//! points are worth the next batch of simulator time. The payoff is
//! sample efficiency — `tests/explorer_efficiency.rs` pins that a
//! budget of N/10 adaptive simulations reaches ≥0.95× the held-out R²
//! of the full N-point sweep.
//!
//! ## The acquire → simulate → retrain loop
//!
//! A candidate pool of `pool` design points is fixed up front: the
//! Explorer's campaign fields are one [`JobSpec`], every plan it runs is
//! that spec's, and candidate `i` is the plan's candidate `i` — the
//! config a full sweep of the same spec simulates at index `i` — so
//! adaptive and fixed campaigns draw from the same population. Each
//! round:
//!
//! 1. **Acquire** — score every not-yet-simulated candidate and select
//!    the next batch (see *Acquisition* below).
//! 2. **Simulate** — the batch's config indices are appended to the
//!    campaign's plan ([`RunPlan::with_config_indices`] is how a resume
//!    rebuilds it) and run through the engine, streaming rows into
//!    `explore_dataset.csv`.
//! 3. **Retrain** — [`RandomForest::partial_refit_with`] on all rows so
//!    far, then evaluate the refreshed surrogate on a held-out set
//!    (candidates `pool..pool + holdout`, simulated once up front) and
//!    append one point to the accuracy-vs-samples curve
//!    (`explore_curve.csv`, plus `explore_curve.json` on completion).
//!
//! ## Acquisition
//!
//! With predictions `p_i` and ensemble standard deviations `s_i` — the
//! values of [`Regressor::predict_one`] and
//! [`RandomForest::predict_variance`]`.sqrt()`, read from a
//! [`PoolPredictions`] table that walks a (tree, candidate) pair only
//! when the last refit replaced the tree:
//!
//! ```text
//! exploit_i = (max_j p_j − p_i) / (max_j p_j − min_j p_j)   // fast is good
//! explore_i = s_i / max_j s_j                               // uncertain is good
//! score_i   = (1 − ε) · exploit_i + ε · explore_i
//! ```
//!
//! with ε following the schedule `ε(r) = max(ε_min, ε₀ · d^r)`. Both
//! terms are defined as 0 when their denominator is 0 (all predictions
//! equal / all trees agree), so scores are always finite. The batch is
//! the top-k by `(score desc, candidate id asc)` — a total order, so
//! selection is invariant under any permutation of the candidate pool —
//! plus `⌊ε · batch / 2⌋` uniform-random picks from the remainder (the
//! schedule's exploration floor never goes fully greedy). In Pareto
//! mode the exploit term is replaced by non-dominated rank over
//! (predicted cycles, [`structure_cost`]), steering the batch toward
//! the predicted throughput/area frontier instead of raw speed.
//!
//! ## Determinism and resume
//!
//! Everything downstream of the seed is deterministic: engine rows are
//! byte-identical at any thread count, the forest draws per-(round,
//! tree) RNG streams, the acquisition RNG's 256-bit state is
//! checkpointed, and selection breaks ties by candidate id.
//! [`ExploreOptions::threads`] runs both halves of a round: the
//! simulations, and then, inside [`RowSink::next_batch`] while the
//! campaign's workers are parked, the refit and the [`PoolPredictions`]
//! walks. A tree is fitted from `(seed, round, tree, rows)` alone into
//! its own slot, and ensemble means and variances are summed in tree
//! order by the one function in `mltree::forest` that the row-wise
//! methods use too, so neither can move a bit.
//!
//! The exploration is *one* campaign whose [`RowSink`] is its rounds
//! (DESIGN.md §12): the curve is one more stream, durable with the
//! dataset at every chunk boundary, and the checkpoint's extra section
//! is the four `explore.*` keys (DESIGN.md §10 has the format and the
//! write order). On resume the sink cuts the dataset and the curve back
//! to the checkpoint and replays the refit history against the recorded
//! model hashes; a mismatch is an [`ArmdseError::Explore`], not a
//! silently different model. `tests/explorer_resume.rs` pins this at 1
//! and 8 threads.

use crate::dataset::{DseDataset, Row};
use crate::durable::{Campaign, CampaignFiles, CsvFile};
use crate::engine::{
    Checkpoint, CsvSink, Engine, Progress, RowSink, RunControl, RunPlan, DEFAULT_CHUNK_JOBS,
};
use crate::error::ArmdseError;
use crate::jobstore::JobSpec;
use crate::json::{self, Layout, ToJson};
use crate::space::ParamSpace;
use armdse_kernels::{App, WorkloadScale};
use armdse_memsim::fasthash::Fnv1a;
use armdse_mltree::{mae, r2, ForestParams, Matrix, PoolPredictions, RandomForest, Regressor};
use armdse_rng::{Rng, SeedableRng, Xoshiro256pp};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Feature indices summed by [`structure_cost`]: the sized hardware
/// structures of the paper's design space (loop buffer, issue-queue and
/// register-file group, commit/frontend/LSQ widths, ROB, LQ, SQ) —
/// everything whose growth costs area and power, excluding latencies
/// and cache geometry.
const COST_FEATURES: std::ops::RangeInclusive<usize> = 2..=12;

/// A proxy for the hardware cost of a design point: the sum of its
/// sized-structure features (`COST_FEATURES`). Monotone in every
/// structure size, which is all Pareto ranking needs.
pub fn structure_cost(features: &[f64; 30]) -> f64 {
    features[COST_FEATURES].iter().sum()
}

/// Mix exploitation and exploration into one acquisition score per
/// candidate. `preds` are predicted cycle counts (lower is better),
/// `stds` the matching ensemble standard deviations, `eps ∈ [0, 1]` the
/// exploration weight. Degenerate denominators (all predictions equal,
/// all trees in agreement) contribute 0, so every score is finite.
pub fn acquisition_scores(preds: &[f64], stds: &[f64], eps: f64) -> Vec<f64> {
    assert_eq!(preds.len(), stds.len());
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &p in preds {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    let span = hi - lo;
    let exploit = preds
        .iter()
        .map(|&p| if span > 0.0 { (hi - p) / span } else { 0.0 });
    mix(exploit, stds, eps)
}

/// `(1 − ε) · exploit + ε · explore` per candidate, where `explore` is
/// the candidate's std over the largest (0 when every std is 0).
fn mix(exploit: impl Iterator<Item = f64>, stds: &[f64], eps: f64) -> Vec<f64> {
    let max_std = stds.iter().cloned().fold(0.0f64, f64::max);
    exploit
        .zip(stds)
        .map(|(exploit, &s)| {
            let explore = if max_std > 0.0 { s / max_std } else { 0.0 };
            (1.0 - eps) * exploit + eps * explore
        })
        .collect()
}

/// Top-`k` candidate ids by `(score desc, id asc)`. The tiebreak makes
/// the order total, so the result is invariant under any permutation of
/// the `(id, score)` pairs (pinned by `tests/explorer_acquisition.rs`).
pub fn select_top_k(ids: &[u64], scores: &[f64], k: usize) -> Vec<u64> {
    assert_eq!(ids.len(), scores.len());
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("acquisition scores are finite")
            .then(ids[a].cmp(&ids[b]))
    });
    order.into_iter().take(k).map(|i| ids[i]).collect()
}

/// Non-dominated sorting rank (both objectives minimised): rank 0 is
/// the Pareto frontier, rank 1 the frontier after removing rank 0, and
/// so on. Quadratic per rank — pools are thousands of points, not
/// millions.
pub fn pareto_ranks(objectives: &[(f64, f64)]) -> Vec<usize> {
    let n = objectives.len();
    let mut rank = vec![usize::MAX; n];
    let mut assigned = 0usize;
    let mut current = 0usize;
    while assigned < n {
        let mut frontier = Vec::new();
        'outer: for i in 0..n {
            if rank[i] != usize::MAX {
                continue;
            }
            let (ai, bi) = objectives[i];
            for j in 0..n {
                if i == j || rank[j] != usize::MAX {
                    continue;
                }
                let (aj, bj) = objectives[j];
                // j dominates i: no worse in both, strictly better in one.
                if aj <= ai && bj <= bi && (aj < ai || bj < bi) {
                    continue 'outer;
                }
            }
            frontier.push(i);
        }
        assert!(!frontier.is_empty(), "non-dominated front cannot be empty");
        for i in frontier {
            rank[i] = current;
            assigned += 1;
        }
        current += 1;
    }
    rank
}

/// Exploration-weight schedule: `max(eps_min, eps0 · decay^round)`.
fn epsilon(opts: &ExploreOptions, round: usize) -> f64 {
    (opts.eps0 * opts.eps_decay.powi(round as i32)).max(opts.eps_min)
}

/// Adaptive-exploration configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOptions {
    /// Application whose surrogate guides the search.
    pub app: App,
    /// Workload input scale.
    pub scale: WorkloadScale,
    /// Base seed: candidate `i` is the one a sweep with this seed (and
    /// these pins) samples at index `i`.
    pub seed: u64,
    /// Candidate pool size (the "full sweep" population).
    pub pool: usize,
    /// Total simulation budget (candidates actually simulated).
    pub budget: usize,
    /// Simulations per acquire→simulate→retrain round.
    pub batch: usize,
    /// Held-out evaluation points (candidates `pool..pool + holdout`).
    pub holdout: usize,
    /// Worker threads, for the round's simulations and then for its
    /// forest refit and pool predictions (0 behaves as 1). Never changes
    /// the output: every job, tree and prediction is computed by the
    /// same sequential code whichever worker takes it, and results are
    /// put back in job / tree order before anything reads them.
    pub threads: usize,
    /// Two-objective mode: steer acquisition toward the predicted
    /// (cycles, structure-cost) Pareto frontier.
    pub pareto: bool,
    /// Features pinned to fixed values by name (the paper's Figs. 4/5
    /// pin Vector-Length): candidates vary only in the unpinned
    /// dimensions, which is also how a study makes a small budget
    /// saturate the surrogate.
    pub pins: Vec<(String, f64)>,
    /// Surrogate hyper-parameters.
    pub forest: ForestParams,
    /// Initial exploration weight ε₀.
    pub eps0: f64,
    /// Exploration floor ε_min.
    pub eps_min: f64,
    /// Per-round decay of ε.
    pub eps_decay: f64,
    /// Engine jobs per checkpointable chunk.
    pub chunk_jobs: usize,
}

impl ExploreOptions {
    /// Defaults sized for a quick adaptive run on one app.
    pub fn for_app(app: App) -> ExploreOptions {
        ExploreOptions {
            app,
            scale: WorkloadScale::Tiny,
            seed: 42,
            pool: 240,
            budget: 48,
            batch: 12,
            holdout: 40,
            threads: 1,
            pareto: false,
            pins: Vec::new(),
            forest: ForestParams::default(),
            eps0: 0.5,
            eps_min: 0.05,
            eps_decay: 0.7,
            chunk_jobs: DEFAULT_CHUNK_JOBS,
        }
    }

    fn validate(&self) -> Result<(), ArmdseError> {
        let bad = |m: &str| Err(ArmdseError::InvalidPlan(m.into()));
        if self.pool == 0 || self.budget == 0 || self.batch == 0 || self.holdout == 0 {
            return bad("pool, budget, batch, and holdout must all be > 0");
        }
        if self.budget > self.pool {
            return bad("budget exceeds the candidate pool");
        }
        if self.batch > self.budget {
            return bad("batch exceeds the budget");
        }
        if !(0.0..=1.0).contains(&self.eps0) || !(0.0..=1.0).contains(&self.eps_min) {
            return bad("eps0 and eps_min must be in [0, 1]");
        }
        if !(self.eps_decay > 0.0 && self.eps_decay <= 1.0) {
            return bad("eps_decay must be in (0, 1]");
        }
        Ok(())
    }

    /// Rounds in the schedule (the last may be smaller than `batch`).
    pub fn rounds(&self) -> usize {
        self.budget.div_ceil(self.batch)
    }

    /// Batch size of round `r`.
    fn round_size(&self, r: usize) -> usize {
        self.batch.min(self.budget - r * self.batch)
    }
}

/// Progress snapshot handed to the explorer's observer after every
/// engine chunk. Returning `false` from the observer pauses the run at
/// that chunk boundary; `--resume` picks up from the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreProgress {
    /// Current round (0-based).
    pub round: usize,
    /// Total rounds in the schedule.
    pub rounds: usize,
    /// Validated rows accumulated across all rounds so far.
    pub samples: usize,
    /// Total simulation budget.
    pub budget: usize,
    /// Jobs done within the current round's engine run.
    pub jobs_done: usize,
    /// Jobs in the current round.
    pub round_jobs: usize,
}

/// Per-run control for [`Explorer::run`].
#[derive(Default)]
pub struct ExploreControl<'a> {
    /// Continue from `explore.ckpt` in the output directory.
    pub resume: bool,
    /// Called after each engine chunk; `false` pauses the exploration.
    pub observer: Option<&'a mut dyn FnMut(&ExploreProgress) -> bool>,
}

/// One accuracy-vs-samples curve point (a row of `explore_curve.csv`).
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Round index.
    pub round: usize,
    /// Rows accumulated when the round's refit ran.
    pub samples: usize,
    /// Exploration weight used by the round's selection.
    pub epsilon: f64,
    /// Held-out R² of the refreshed surrogate.
    pub r2: f64,
    /// Held-out mean absolute error (cycles).
    pub mae: f64,
    /// FNV-1a over the surrogate's held-out prediction bits — the
    /// replay-verification fingerprint of the model after this round.
    pub model_hash: u64,
}

/// Outcome of an exploration (possibly paused).
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Whether every round ran to completion.
    pub completed: bool,
    /// Rounds fully finished (simulated + refit + curve point).
    pub rounds_done: usize,
    /// Validated rows accumulated.
    pub samples: usize,
    /// All selected candidate indices, in selection order.
    pub selected: Vec<u64>,
    /// The accuracy-vs-samples curve so far.
    pub curve: Vec<CurvePoint>,
}

impl ExploreReport {
    /// Held-out R² after the last completed round.
    pub fn final_r2(&self) -> f64 {
        self.curve.last().map_or(f64::NAN, |p| p.r2)
    }
}

/// Checkpoint `extra` keys owned by the explorer (its sink's
/// [`RowSink::state`]).
mod keys {
    pub(crate) const PLAN: &str = "explore.plan";
    pub(crate) const RNG: &str = "explore.rng";
    pub(crate) const SELECTED: &str = "explore.selected";
    pub(crate) const HASHES: &str = "explore.hashes";
}

const CURVE_HEADER: &str = "round,samples,epsilon,r2,mae,model_hash";

/// The adaptive explorer: owns the acquisition policy, the artifacts,
/// and the checkpointed exploration state; borrows an [`Engine`] for
/// the simulations and rides its run loop as the campaign's sink.
pub struct Explorer<'e> {
    engine: &'e Engine,
    opts: ExploreOptions,
    /// The campaign fields of `opts`: every plan the exploration runs.
    spec: JobSpec,
    out_dir: PathBuf,
}

/// What the rounds accumulate, shared between the fresh and resumed
/// paths. `curve.len()` rounds are finished (simulated, refit, scored);
/// `selected` already holds the batch of the round being simulated.
struct LoopState {
    rows: Vec<Row>,
    selected: Vec<u64>,
    /// `taken[i]`: candidate `i` is in `selected`. Derived, so rebuilt
    /// on resume rather than checkpointed.
    taken: Vec<bool>,
    curve: Vec<CurvePoint>,
    rng: Xoshiro256pp,
    forest: RandomForest,
    /// Per-tree predictions of the pool, kept across rounds so a round
    /// walks only the trees its refit replaced. A cache of `forest`:
    /// never checkpointed, all-stale after a resume.
    table: PoolPredictions,
}

impl LoopState {
    /// The state after selecting `selected` (none on a fresh start, the
    /// checkpoint's list on a resume) with no round finished yet.
    fn new(
        opts: &ExploreOptions,
        selected: Vec<u64>,
        rng: Xoshiro256pp,
    ) -> Result<LoopState, ArmdseError> {
        let mut taken = vec![false; opts.pool];
        for &i in &selected {
            let slot = usize::try_from(i).ok().and_then(|i| taken.get_mut(i));
            *slot.ok_or_else(|| {
                ArmdseError::Explore(format!(
                    "explore.selected names candidate {i} outside the pool of {}",
                    opts.pool
                ))
            })? = true;
        }
        Ok(LoopState {
            rows: Vec::new(),
            selected,
            taken,
            curve: Vec::new(),
            rng,
            forest: RandomForest::warm_start(opts.forest, opts.seed),
            table: PoolPredictions::new(opts.forest.n_trees, opts.pool),
        })
    }
}

/// The exploration as the campaign's sink: the loop state, the two
/// streams (dataset and curve), and what a round boundary reads.
struct Rounds<'a, 'e> {
    explorer: &'a Explorer<'e>,
    holdout: &'a (Matrix, Vec<f64>),
    features: &'a [[f64; 30]],
    state: LoopState,
    /// `explore_dataset.csv`, as [`CampaignFiles::open`] opened it.
    sink: CsvSink,
    /// `explore_curve.csv`: one row per finished round.
    curve: CsvFile,
}

impl RowSink for Rounds<'_, '_> {
    fn row(&mut self, row: &Row) -> Result<(), ArmdseError> {
        self.state.rows.push(row.clone());
        self.sink.row(row)
    }

    /// A round's jobs are done: retrain on everything so far, append
    /// the curve point, and pick the next round's batch.
    fn next_batch(&mut self) -> Result<Vec<u64>, ArmdseError> {
        let point = self
            .explorer
            .refit_and_score(&mut self.state, self.holdout)?;
        // Full-precision Display: f64 round-trips exactly, so a resumed
        // run's parsed curve is bit-identical to the fresh run's floats.
        writeln!(
            self.curve,
            "{},{},{},{},{},{:016x}",
            point.round, point.samples, point.epsilon, point.r2, point.mae, point.model_hash
        )?;
        self.state.curve.push(point);
        let round = self.state.curve.len();
        if round == self.explorer.opts.rounds() {
            return Ok(Vec::new());
        }
        Ok(self
            .explorer
            .select_round(round, &mut self.state, self.features))
    }

    fn chunk_end(&mut self) -> Result<(), ArmdseError> {
        self.sink.chunk_end()?;
        self.curve.sync()
    }

    fn state(&self) -> Vec<(String, String)> {
        fn hex(words: impl Iterator<Item = u64>) -> String {
            let words: Vec<String> = words.map(|w| format!("{w:016x}")).collect();
            words.join(",")
        }
        let selected: Vec<String> = self.state.selected.iter().map(u64::to_string).collect();
        vec![
            (keys::PLAN.into(), self.explorer.options_fingerprint()),
            (keys::RNG.into(), hex(self.state.rng.state().into_iter())),
            (keys::SELECTED.into(), selected.join(",")),
            (
                keys::HASHES.into(),
                hex(self.state.curve.iter().map(|p| p.model_hash)),
            ),
        ]
    }

    /// Cut the dataset and the curve back to what the checkpoint covers
    /// (a crash can leave more; fewer is an error), reload the rows, and
    /// replay the refit history against the recorded model hashes.
    fn resume_at(&mut self, at: &Checkpoint) -> Result<(), ArmdseError> {
        let hashes = parse_u64_list(extra(at, keys::HASHES)?, 16)?;
        self.sink.resume_at(at)?;
        // One curve row per recorded model hash; a row past them is a
        // round whose checkpoint never landed.
        let cut = self.curve.cut_lines(hashes.len(), "curve row(s)");
        cut.map_err(|e| match e {
            ArmdseError::Checkpoint(m) => ArmdseError::Explore(m),
            e => e,
        })?;
        let explorer = self.explorer;
        let data =
            DseDataset::load_csv(&explorer.path("explore_dataset.csv")).map_err(ArmdseError::Io)?;
        let curve = parse_curve(&explorer.path("explore_curve.csv"))?;
        if curve.iter().map(|p| p.model_hash).ne(hashes) {
            return Err(ArmdseError::Explore(
                "curve model hashes disagree with the checkpoint's".into(),
            ));
        }
        let state = &mut self.state;
        for point in curve {
            let (round, seen) = (point.round, state.rows.len());
            if !(seen..=data.rows.len()).contains(&point.samples) {
                return Err(ArmdseError::Explore(format!(
                    "curve round {round} trained on {} rows but {} are on disk",
                    point.samples,
                    data.rows.len()
                )));
            }
            state
                .rows
                .extend_from_slice(&data.rows[seen..point.samples]);
            let replayed = explorer.refit_and_score(state, self.holdout)?.model_hash;
            if replayed != point.model_hash {
                return Err(ArmdseError::Explore(format!(
                    "replayed model hash {replayed:016x} != recorded {:016x} at round {round} — \
                     artifacts do not match this exploration",
                    point.model_hash
                )));
            }
            state.curve.push(point);
        }
        state.rows = data.rows;
        Ok(())
    }
}

impl<'e> Explorer<'e> {
    /// Validate `opts` into an explorer writing artifacts under
    /// `out_dir` (which must already exist). The space argument is
    /// unread: there is one design space, and it stays because
    /// `benchmark/src/e2e/explore.rs` calls `Explorer::new(engine,
    /// space, opts, dir)`.
    pub fn new(
        engine: &'e Engine,
        _space: &ParamSpace,
        opts: ExploreOptions,
        out_dir: &Path,
    ) -> Result<Explorer<'e>, ArmdseError> {
        opts.validate()?;
        let spec = JobSpec {
            configs: opts.pool,
            scale: opts.scale,
            seed: opts.seed,
            threads: opts.threads,
            apps: vec![opts.app],
            pins: opts.pins.clone(),
            chunk_jobs: opts.chunk_jobs,
            ..JobSpec::default()
        };
        Ok(Explorer {
            engine,
            opts,
            spec,
            out_dir: out_dir.to_path_buf(),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }

    /// Identity of this exploration: the paper's space plus every
    /// option that affects results. Threads and chunk size are excluded
    /// for the same reason [`RunPlan::fingerprint`] excludes them — they
    /// must never change the artifacts, so either may differ between a
    /// run and its resume. Sixteen hex digits, as `explore.plan` records it.
    fn options_fingerprint(&self) -> String {
        let o = &self.opts;
        let encoded = format!(
            "{:?}|{:?}|{:?}|{}|{}|{}|{}|{}|{}|{:?}|{:?}|{}|{}|{}",
            ParamSpace::paper(),
            o.app,
            o.scale,
            o.seed,
            o.pool,
            o.budget,
            o.batch,
            o.holdout,
            o.pareto,
            o.pins,
            o.forest,
            o.eps0,
            o.eps_min,
            o.eps_decay
        );
        format!("{:016x}", Fnv1a::new().bytes(encoded.as_bytes()).finish())
    }

    /// Feature vectors of the candidate pool, by candidate id: the
    /// plan's own candidates, so surrogate features match the simulated
    /// rows bit-for-bit. Unvalidated: a pin that invalidates a candidate
    /// fails the run only if the candidate is selected.
    fn candidate_features(&self) -> Result<Vec<[f64; 30]>, ArmdseError> {
        let plan = self.spec.plan()?;
        let pool = 0..self.opts.pool as u64;
        Ok(pool.map(|k| plan.candidate(k).to_features()).collect())
    }

    /// Simulate the held-out evaluation set (candidates `pool..pool +
    /// holdout`). Deterministic, so resume recomputes it instead of
    /// persisting it.
    fn simulate_holdout(&self) -> Result<(Matrix, Vec<f64>), ArmdseError> {
        let indices: Vec<u64> =
            (self.opts.pool as u64..(self.opts.pool + self.opts.holdout) as u64).collect();
        let plan = self.plan_for(&indices)?;
        let mut data = DseDataset::default();
        self.engine.run(&plan, &mut data)?;
        if data.rows.is_empty() {
            return Err(ArmdseError::Explore(
                "every held-out candidate failed validation".into(),
            ));
        }
        Ok(training_set(&data.rows))
    }

    fn plan_for(&self, indices: &[u64]) -> Result<RunPlan, ArmdseError> {
        let plan = self.spec.plan()?;
        plan.with_config_indices(indices.to_vec())
    }

    /// Select round `round`'s batch from the not-yet-simulated pool and
    /// record it in `state.selected`. Round 0 has no model, so it
    /// samples uniformly; later rounds take the acquisition top-k plus
    /// an ε-scheduled random remainder.
    fn select_round(
        &self,
        round: usize,
        state: &mut LoopState,
        features: &[[f64; 30]],
    ) -> Vec<u64> {
        let size = self.opts.round_size(round);
        // Ascending, and kept so below: the forced-random draws index it.
        let mut remaining: Vec<u64> = (0..self.opts.pool as u64)
            .filter(|&i| !state.taken[i as usize])
            .collect();
        let mut picks = Vec::new();
        if round > 0 {
            let eps = epsilon(&self.opts, round);
            // Only the trees the last refit replaced are walked, once
            // per remaining candidate; the table's mean and std are
            // `predict_one` and `predict_variance(..).sqrt()` to the bit.
            let rows: Vec<usize> = remaining.iter().map(|&i| i as usize).collect();
            state
                .table
                .refresh(&state.forest, features, &rows, self.opts.threads);
            let (preds, stds): (Vec<f64>, Vec<f64>) =
                rows.iter().map(|&i| state.table.mean_std(i)).unzip();
            let scores = if self.opts.pareto {
                // Rank-based exploit: prefer points predicted to sit on
                // the (cycles, structure-cost) frontier.
                let objs: Vec<(f64, f64)> = remaining
                    .iter()
                    .zip(&preds)
                    .map(|(&i, &p)| (p, structure_cost(&features[i as usize])))
                    .collect();
                let ranks = pareto_ranks(&objs);
                let max_rank = ranks.iter().copied().max().unwrap_or(0).max(1) as f64;
                let exploit = ranks.iter().map(|&rk| 1.0 - rk as f64 / max_rank);
                mix(exploit, &stds, eps)
            } else {
                acquisition_scores(&preds, &stds, eps)
            };
            let n_rand = (((eps * size as f64) / 2.0).floor() as usize).min(size.saturating_sub(1));
            let n_greedy = size - n_rand;
            picks = select_top_k(&remaining, &scores, n_greedy);
            for &i in &picks {
                state.taken[i as usize] = true;
            }
            remaining.retain(|&i| !state.taken[i as usize]);
        }
        while picks.len() < size {
            let j = state.rng.gen_range(0..remaining.len());
            let i = remaining.swap_remove(j);
            state.taken[i as usize] = true;
            picks.push(i);
        }
        state.selected.extend(&picks);
        picks
    }

    /// Refit on everything simulated so far, as the round after the
    /// `state.curve.len()` finished ones, and score the refreshed model.
    fn refit_and_score(
        &self,
        state: &mut LoopState,
        holdout: &(Matrix, Vec<f64>),
    ) -> Result<CurvePoint, ArmdseError> {
        if state.rows.is_empty() {
            return Err(ArmdseError::Explore(
                "round produced no validated rows to train on".into(),
            ));
        }
        let (x, y) = training_set(&state.rows);
        let round = state.curve.len();
        let threads = self.opts.threads;
        let mut replaced = state
            .forest
            .partial_refit_with(&x, &y, round as u64, threads);
        if round + 1 == self.opts.rounds() {
            // Finalize: a second consecutive half-refresh on the same
            // data covers the remaining rotating window, so the final
            // surrogate is entirely trained on the complete adaptive
            // dataset (no stale trees in the reported model).
            replaced.extend(
                state
                    .forest
                    .partial_refit_with(&x, &y, round as u64 + 1, threads),
            );
        }
        state.table.mark_stale(&replaced);
        let preds = state.forest.predict(&holdout.0);
        Ok(CurvePoint {
            round,
            samples: state.rows.len(),
            epsilon: if round == 0 {
                1.0
            } else {
                epsilon(&self.opts, round)
            },
            r2: r2(&preds, &holdout.1),
            mae: mae(&preds, &holdout.1),
            model_hash: model_hash(&preds),
        })
    }

    /// Run (or resume) the exploration to completion or observer pause:
    /// one campaign on the engine's run loop, steered round by round.
    pub fn run(&self, mut ctl: ExploreControl<'_>) -> Result<ExploreReport, ArmdseError> {
        let files = CampaignFiles {
            csv: self.path("explore_dataset.csv"),
            checkpoint: self.path("explore.ckpt"),
            metrics: None,
        };
        let curve_path = self.path("explore_curve.csv");

        let holdout = self.simulate_holdout()?;
        let features = self.candidate_features()?;

        // A fresh start over an old exploration drops its checkpoint
        // before any artifact is truncated: a crash in between must not
        // leave a position beside files that are behind it.
        if !ctl.resume {
            std::fs::remove_file(&files.checkpoint).ok();
        }
        let Campaign { sink, position, .. } = files.open(!ctl.resume)?;
        let (state, curve) = match &position {
            Some(ckpt) => (self.restore(ckpt)?, CsvFile::append(&curve_path)?),
            None => {
                // Fresh start: truncate every artifact. Round 0's batch
                // needs no model, so it is the plan the campaign starts on.
                let curve = CsvFile::create(&curve_path, |w| writeln!(w, "{CURVE_HEADER}"))?;
                let rng = Xoshiro256pp::seed_from_u64(self.opts.seed ^ ACQ_SEED_SALT);
                let mut state = LoopState::new(&self.opts, Vec::new(), rng)?;
                self.select_round(0, &mut state, &features);
                (state, curve)
            }
        };

        let plan = self.plan_for(&state.selected)?;
        let mut rounds = Rounds {
            explorer: self,
            holdout: &holdout,
            features: &features,
            state,
            sink,
            curve,
        };
        // One app, so jobs are candidates and a chunk never straddles a
        // round: the round is a function of the cumulative position.
        let mut engine_obs = |p: &Progress| -> bool {
            let round = (p.jobs_done - 1) / self.opts.batch;
            let ep = ExploreProgress {
                round,
                rounds: self.opts.rounds(),
                samples: p.rows,
                budget: self.opts.budget,
                jobs_done: p.jobs_done - round * self.opts.batch,
                round_jobs: self.opts.round_size(round),
            };
            ctl.observer.as_deref_mut().is_none_or(|f| f(&ep))
        };
        let run = RunControl {
            checkpoint: Some(&files.checkpoint),
            position,
            observer: Some(&mut engine_obs),
            ..RunControl::default()
        };
        let summary = self.engine.run_controlled(&plan, &mut rounds, run)?;
        let state = rounds.state;
        if summary.completed {
            self.write_curve_json(&state)?;
            if self.opts.pareto {
                self.write_pareto_csv(&state, &features)?;
            }
        }
        Ok(ExploreReport {
            completed: summary.completed,
            rounds_done: state.curve.len(),
            samples: state.rows.len(),
            selected: state.selected,
            curve: state.curve,
        })
    }

    /// What a resume needs before the run: refuse a foreign exploration
    /// and restore the selection and the RNG, from which the plan is
    /// rebuilt. The run loop then checks that plan against the
    /// checkpoint's fingerprint before [`Rounds`] restores the rest
    /// ([`RowSink::resume_at`]).
    fn restore(&self, ckpt: &Checkpoint) -> Result<LoopState, ArmdseError> {
        let (found, want) = (extra(ckpt, keys::PLAN)?, self.options_fingerprint());
        if found != want {
            return Err(ArmdseError::Explore(format!(
                "checkpoint belongs to a different exploration \
                 ({found} != {want}) — refusing to resume"
            )));
        }
        let selected = parse_u64_list(extra(ckpt, keys::SELECTED)?, 10)?;
        let rng_words: [u64; 4] = parse_u64_list(extra(ckpt, keys::RNG)?, 16)?
            .try_into()
            .map_err(|_| ArmdseError::Explore("unparsable explore.rng".into()))?;
        LoopState::new(&self.opts, selected, Xoshiro256pp::from_state(rng_words))
    }

    fn write_curve_json(&self, state: &LoopState) -> Result<(), ArmdseError> {
        fn point(p: &CurvePoint) -> impl ToJson + '_ {
            json::object(Layout::Spaced, move |o| {
                o.field("round", p.round);
                o.field("samples", p.samples);
                o.field("epsilon", p.epsilon);
                o.field("r2", p.r2);
                o.field("mae", p.mae);
                o.field("model_hash", format!("{:016x}", p.model_hash));
            })
        }
        let (o, points) = (&self.opts, state.curve.iter().map(point));
        let doc = json::object(Layout::Block, |d| {
            d.field("app", o.app.name());
            d.field("scale", format!("{:?}", o.scale));
            d.field("seed", o.seed);
            d.field("pool", o.pool);
            d.field("budget", o.budget);
            d.field("batch", o.batch);
            d.field("holdout", o.holdout);
            d.field("pareto", o.pareto);
            d.field("points", json::array(Layout::Block, points.clone()));
        });
        let path = self.path("explore_curve.json");
        std::fs::write(path, doc.render() + "\n").map_err(ArmdseError::from)
    }

    /// Pareto-mode completion artifact: the whole pool scored by the
    /// final surrogate, with non-dominated rank over (predicted cycles,
    /// structure cost) and a flag for the candidates actually simulated.
    fn write_pareto_csv(
        &self,
        state: &LoopState,
        features: &[[f64; 30]],
    ) -> Result<(), ArmdseError> {
        let objs: Vec<(f64, f64)> = features
            .iter()
            .map(|f| (state.forest.predict_one(f), structure_cost(f)))
            .collect();
        let ranks = pareto_ranks(&objs);
        let mut s = String::from("candidate,pred_cycles,structure_cost,rank,selected\n");
        for (i, ((pred, cost), rank)) in objs.iter().zip(&ranks).enumerate() {
            s.push_str(&format!(
                "{i},{pred:.3},{cost},{rank},{}\n",
                u8::from(state.taken[i])
            ));
        }
        std::fs::write(self.path("explore_pareto.csv"), s).map_err(ArmdseError::from)
    }
}

/// Rows as the surrogate's training matrix and cycle targets.
fn training_set(rows: &[Row]) -> (Matrix, Vec<f64>) {
    let mut x = Matrix::new(30);
    for r in rows {
        x.push_row(&r.features);
    }
    (x, rows.iter().map(|r| r.cycles as f64).collect())
}

/// FNV-1a over the bit patterns of the surrogate's held-out
/// predictions: cheap, deterministic, and sensitive to any change in
/// the fitted ensemble.
fn model_hash(preds: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    for p in preds {
        h.bytes(&p.to_bits().to_be_bytes());
    }
    h.finish()
}

/// Parse the curve CSV at `path` (already cut back to its checkpoint).
fn parse_curve(path: &Path) -> Result<Vec<CurvePoint>, ArmdseError> {
    let body = std::fs::read_to_string(path)?;
    let mut lines = body.lines();
    if lines.next() != Some(CURVE_HEADER) {
        return Err(ArmdseError::Explore(format!(
            "{}: malformed curve header",
            path.display()
        )));
    }
    let mut curve = Vec::new();
    for line in lines {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 6 {
            return Err(ArmdseError::Explore(format!(
                "{}: malformed curve row '{line}'",
                path.display()
            )));
        }
        let bad = |what: &str| ArmdseError::Explore(format!("unparsable curve {what}: '{line}'"));
        curve.push(CurvePoint {
            round: f[0].parse().map_err(|_| bad("round"))?,
            samples: f[1].parse().map_err(|_| bad("samples"))?,
            epsilon: f[2].parse().map_err(|_| bad("epsilon"))?,
            r2: f[3].parse().map_err(|_| bad("r2"))?,
            mae: f[4].parse().map_err(|_| bad("mae"))?,
            model_hash: u64::from_str_radix(f[5], 16).map_err(|_| bad("model_hash"))?,
        });
    }
    Ok(curve)
}

/// The checkpoint's value for exploration key `key`.
fn extra<'c>(ckpt: &'c Checkpoint, key: &str) -> Result<&'c str, ArmdseError> {
    ckpt.extra_get(key)
        .ok_or_else(|| ArmdseError::Explore(format!("checkpoint is missing exploration key {key}")))
}

fn parse_u64_list(s: &str, radix: u32) -> Result<Vec<u64>, ArmdseError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| {
            u64::from_str_radix(p, radix)
                .map_err(|_| ArmdseError::Explore(format!("unparsable list entry '{p}'")))
        })
        .collect()
}

/// Salt decorrelating the acquisition RNG stream from the sampling
/// seed (candidate `i` already consumes `seed + i`).
const ACQ_SEED_SALT: u64 = 0xE0E0_5EED_ACC1_0A17;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resuming_a_checkpoint_whose_dataset_is_gone_names_both_files() {
        let dir = std::env::temp_dir().join("armdse_explorer_csv_gone");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ExploreOptions {
            pool: 12,
            budget: 4,
            batch: 2,
            holdout: 3,
            ..ExploreOptions::for_app(App::Stream)
        };
        let engine = Engine::idealized();
        let explorer = Explorer::new(&engine, &ParamSpace::paper(), opts, &dir).unwrap();
        let mut pause = |_: &ExploreProgress| false;
        let paused = explorer
            .run(ExploreControl {
                resume: false,
                observer: Some(&mut pause),
            })
            .unwrap();
        assert!(!paused.completed);
        std::fs::remove_file(dir.join("explore_dataset.csv")).unwrap();
        let resume = ExploreControl {
            resume: true,
            observer: None,
        };
        let err = explorer.run(resume).unwrap_err();
        assert!(matches!(err, ArmdseError::Checkpoint(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("explore.ckpt") && msg.contains("explore_dataset.csv"),
            "{msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One held-out point has no variance, so its R² is -inf: the JSON
    /// curve writes it as `null` and still parses, while the CSV keeps
    /// `-inf` and reads back.
    #[test]
    fn a_non_finite_r2_is_null_in_the_json_curve() {
        let dir = std::env::temp_dir().join("armdse_explorer_curve_inf");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ExploreOptions {
            pool: 30,
            budget: 8,
            batch: 4,
            holdout: 1,
            ..ExploreOptions::for_app(App::Stream)
        };
        let engine = Engine::idealized();
        let explorer = Explorer::new(&engine, &ParamSpace::paper(), opts, &dir).unwrap();
        let report = explorer.run(ExploreControl::default()).unwrap();
        assert!(report.completed);
        assert!(report.curve.iter().all(|p| p.r2 == f64::NEG_INFINITY));
        let body = std::fs::read_to_string(dir.join("explore_curve.json")).unwrap();
        let json = crate::json::parse_json(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
        let points = json.as_object().unwrap()["points"].as_array().unwrap();
        assert_eq!(points.len(), 2);
        for p in points {
            assert_eq!(p.as_object().unwrap()["r2"], crate::json::Json::Null);
        }
        assert!(body.contains("\"epsilon\": 1,"), "{body}");
        assert_eq!(
            parse_curve(&dir.join("explore_curve.csv")).unwrap(),
            report.curve
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
