//! The campaign engine: one resumable run path for every consumer.
//!
//! [`Engine`] is the one substrate of the paper's workflow (T1 sample →
//! T2 simulate → T3 train): it owns a pluggable [`SimBackend`], a shared
//! [`WorkloadCache`] keyed by `(app, scale, vector length)`, and a
//! chunked deterministic job loop that streams rows into a [`RowSink`]
//! instead of accumulating them in memory.
//!
//! ## Determinism and resume
//!
//! Jobs are numbered `0..configs × apps.len()`; job `j` simulates app
//! `apps[j % apps.len()]` on config slot `j / apps.len()` (sampled with
//! `seed +` the slot, or listed). Within a chunk, worker threads race on
//! an atomic counter, but results are reordered by job index before they
//! reach the sink, and a chunk boundary is a plan property, so a run
//! checkpointed after chunk `k` and resumed writes *exactly* the bytes
//! of an uninterrupted run at any thread count (`tests/engine_resume.rs`).
//! The checkpoint format, the resume checks and the per-chunk write
//! order are DESIGN.md §10's; [`Checkpoint::load`] hands the extra
//! section back uninterpreted.

use crate::config::{self, DesignConfig};
use crate::dataset::{write_csv_header, write_csv_row, DiscardedRun, DseDataset, Row};
use crate::durable::{self, CsvFile};
use crate::error::ArmdseError;
use crate::metrics::{write_metrics_header, write_metrics_row, MetricsRow};
use crate::space::ParamSpace;
use armdse_kernels::{App, Workload, WorkloadCache, WorkloadScale};
use armdse_memsim::fasthash::Fnv1a;
use armdse_simcore::{Counters, Memoized, MultiCore, ReuseStats, RunMode, SimBackend, SimStats};
use std::path::Path;
use std::sync::Arc;

/// Default jobs per chunk: small enough that checkpoints land every few
/// seconds at Standard scale, large enough to amortise the thread scope.
pub(crate) const DEFAULT_CHUNK_JOBS: usize = 128;

/// A validated campaign plan: sampled ([`crate::JobSpec::plan`]) or an
/// explicit list of design points ([`RunPlan::listed`]).
///
/// Construction refuses `configs == 0` or an empty app list as
/// [`ArmdseError::InvalidPlan`], deduplicates apps (order-preserving)
/// instead of silently double-counting jobs, and checks pinned feature
/// names and values, or every listed point, before any simulation.
#[derive(Debug, Clone)]
pub struct RunPlan {
    candidates: Candidates,
    configs: usize,
    scale: WorkloadScale,
    threads: usize,
    apps: Vec<App>,
    chunk_jobs: usize,
    /// Explicit config indices: when set, config slot `i` is candidate
    /// `indices[i]` instead of candidate `i`, so a plan can target any
    /// subset of a candidate pool (the adaptive explorer's batches) with
    /// every design point identical to a full sweep's at that index.
    indices: Option<Vec<u64>>,
}

/// The design points a plan draws from.
#[derive(Debug, Clone)]
enum Candidates {
    /// Candidate `k` is the paper's space sampled with `seed + k`, pins
    /// applied.
    Sampled { seed: u64, pins: Vec<(String, f64)> },
    /// Candidate `k` is `list[k]`.
    Listed(Vec<DesignConfig>),
}

impl RunPlan {
    /// Validate `o` into a plan: the benchmark's constructor; the
    /// product builds sampled plans with [`crate::JobSpec::plan`]. The
    /// space argument is unread: there is one design space, and it
    /// stays because `benchmark/src/e2e/api.rs` calls
    /// `RunPlan::new(space, &opts)`.
    pub fn new(
        _space: &ParamSpace,
        o: &crate::orchestrator::GenOptions,
    ) -> Result<RunPlan, ArmdseError> {
        RunPlan::sampled(o.seed, &[], o.configs, &o.apps, o.scale, o.threads)
    }

    /// [`crate::JobSpec::plan`]: candidate `k` is the paper's space
    /// sampled with `seed + k`, features pinned by name (Figs. 4/5 pin
    /// Vector-Length).
    /// A pin outside its feature's `[lo, hi]`, or fractional for an
    /// integer feature, is refused naming the feature and its range.
    pub(crate) fn sampled(
        seed: u64,
        pins: &[(String, f64)],
        configs: usize,
        apps: &[App],
        scale: WorkloadScale,
        threads: usize,
    ) -> Result<RunPlan, ArmdseError> {
        for (name, value) in pins {
            config::check_pin(name, *value).map_err(ArmdseError::InvalidPlan)?;
        }
        let pins = pins.to_vec();
        let sampled = Candidates::Sampled { seed, pins };
        let plan = RunPlan::over(sampled, configs, apps, scale, threads)?;
        // Pin values are outside input: a value no sample can rescue is
        // refused here, on the first design point, not at the first job.
        plan.design_point(0)?;
        Ok(plan)
    }

    /// A plan over an explicit, non-empty list of design points: config
    /// slot `i` is `points[i]`, simulated for every app in `apps`. An
    /// invalid point is refused here, naming its slot, not by a backend.
    pub fn listed(
        points: Vec<DesignConfig>,
        apps: &[App],
        scale: WorkloadScale,
        threads: usize,
    ) -> Result<RunPlan, ArmdseError> {
        for (slot, cfg) in points.iter().enumerate() {
            let invalid = |why| ArmdseError::InvalidPlan(format!("list slot {slot}: {why}"));
            cfg.validate().map_err(invalid)?;
        }
        let configs = points.len();
        RunPlan::over(Candidates::Listed(points), configs, apps, scale, threads)
    }

    /// The plan's shared shape; a repeated app would double-count jobs.
    fn over(
        candidates: Candidates,
        configs: usize,
        apps: &[App],
        scale: WorkloadScale,
        threads: usize,
    ) -> Result<RunPlan, ArmdseError> {
        if configs == 0 {
            return Err(ArmdseError::InvalidPlan("configs == 0".into()));
        }
        let mut unique = Vec::with_capacity(apps.len());
        for &a in apps {
            if !unique.contains(&a) {
                unique.push(a);
            }
        }
        if unique.is_empty() {
            return Err(ArmdseError::InvalidPlan("no applications selected".into()));
        }
        Ok(RunPlan {
            candidates,
            configs,
            scale,
            threads: threads.max(1),
            apps: unique,
            chunk_jobs: DEFAULT_CHUNK_JOBS,
            indices: None,
        })
    }

    /// Restrict the plan to explicit config indices into its
    /// candidates: config slot `i` is candidate `indices[i]`, and
    /// `configs` becomes `indices.len()`. An empty index list is
    /// rejected for the same reason `configs == 0` is.
    pub fn with_config_indices(mut self, indices: Vec<u64>) -> Result<RunPlan, ArmdseError> {
        if indices.is_empty() {
            return Err(ArmdseError::InvalidPlan("empty config index list".into()));
        }
        self.configs = indices.len();
        self.indices = Some(indices);
        Ok(self)
    }

    /// Append `more` config indices to the plan (a sink's
    /// [`RowSink::next_batch`]). A plain sweep becomes the explicit-index
    /// plan over the slots it already had, so a resume that passes the
    /// grown index list back through [`RunPlan::with_config_indices`] has
    /// the same fingerprint.
    pub(crate) fn extend_config_indices(&mut self, more: Vec<u64>) {
        let indices = self
            .indices
            .get_or_insert_with(|| (0..self.configs as u64).collect());
        indices.extend(more);
        self.configs = indices.len();
    }

    /// Override the chunk size (jobs per checkpointable unit). Values
    /// below 1 are clamped to 1. Chunking never changes the emitted
    /// rows — only where a run may pause and resume.
    pub fn with_chunk_jobs(mut self, chunk_jobs: usize) -> RunPlan {
        self.chunk_jobs = chunk_jobs.max(1);
        self
    }

    /// Total jobs: one per (configuration, application) pair.
    pub fn jobs(&self) -> usize {
        self.configs * self.apps.len()
    }

    /// Design points sampled.
    pub fn configs(&self) -> usize {
        self.configs
    }

    /// Workload input scale.
    pub(crate) fn scale(&self) -> WorkloadScale {
        self.scale
    }

    /// Worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Applications simulated per configuration (deduplicated).
    pub fn apps(&self) -> &[App] {
        &self.apps
    }

    /// Jobs per chunk.
    pub(crate) fn chunk_jobs(&self) -> usize {
        self.chunk_jobs
    }

    /// Stable plan identity for checkpoint validation. Threads and
    /// chunk size are excluded: neither may change the output, so
    /// either may legitimately differ between a run and its resume.
    pub fn fingerprint(&self) -> u64 {
        let (configs, scale, apps, indices) = (self.configs, self.scale, &self.apps, &self.indices);
        let encoded = match &self.candidates {
            Candidates::Sampled { seed, pins } => {
                let space = ParamSpace::paper();
                format!("{space:?}|{configs}|{seed}|{scale:?}|{apps:?}|{pins:?}|{indices:?}")
            }
            Candidates::Listed(list) => format!("{list:?}|{scale:?}|{apps:?}|{indices:?}"),
        };
        Fnv1a::new().bytes(encoded.as_bytes()).finish()
    }

    /// The design points of config slots `0..configs`, validated.
    pub fn design_points(&self) -> Result<Vec<DesignConfig>, ArmdseError> {
        (0..self.configs).map(|i| self.design_point(i)).collect()
    }

    /// The design point of config slot `cfg_idx`: candidate
    /// `indices[cfg_idx]` when [`RunPlan::with_config_indices`] set them
    /// (candidate `cfg_idx` otherwise). A sampled one is validated with its pins
    /// applied — a pin can push a sample out of the simulable space,
    /// which must end the campaign as an error before a backend sees it.
    pub(crate) fn design_point(&self, cfg_idx: usize) -> Result<DesignConfig, ArmdseError> {
        let k = self
            .indices
            .as_ref()
            .map_or(cfg_idx as u64, |indices| indices[cfg_idx]);
        let pins = match &self.candidates {
            Candidates::Sampled { pins, .. } => pins,
            Candidates::Listed(list) => {
                let missing = || ArmdseError::InvalidPlan(format!("no list slot {k}"));
                return list.get(k as usize).copied().ok_or_else(missing);
            }
        };
        let cfg = self.candidate(k);
        match cfg.validate() {
            Ok(()) => Ok(cfg),
            Err(why) => Err(ArmdseError::InvalidPlan(format!(
                "config index {cfg_idx} is not a valid design point under pins {pins:?}: {why}"
            ))),
        }
    }

    /// Candidate `k`, unvalidated: the one place a sampled plan's seed,
    /// wrapping past `u64::MAX`, and its pins make a design point (a
    /// listed plan's is `list[k]`, which panics past the list).
    pub(crate) fn candidate(&self, k: u64) -> DesignConfig {
        match &self.candidates {
            Candidates::Sampled { seed, pins } => {
                ParamSpace::paper().sample_seeded_pinned(seed.wrapping_add(k), pins)
            }
            Candidates::Listed(list) => list[k as usize],
        }
    }
}

/// Receives the deterministic streams of a campaign, in job order: the
/// dataset rows and, when the sink [`wants_metrics`](RowSink::wants_metrics),
/// one or more [`MetricsRow`]s per job (including discarded jobs).
///
/// `next_batch` makes a sink the adaptive half of the paper's sample →
/// simulate → train loop: when every planned job has run, the loop
/// appends its answer to the plan, so a round boundary is a chunk
/// boundary (a fixed sweep's sink answers empty). At every chunk
/// boundary the loop calls `next_batch` (when the plan has run out),
/// then `chunk_end` — so a durable sink (e.g. [`CsvSink`]) can flush
/// and guarantee its bytes are never behind the checkpoint — then
/// `state` for the checkpoint it saves.
pub trait RowSink {
    /// Receive one validated row.
    fn row(&mut self, row: &Row) -> Result<(), ArmdseError>;

    /// Receive one validation-failed run (default: ignore).
    fn discarded(&mut self, _d: &DiscardedRun) -> Result<(), ArmdseError> {
        Ok(())
    }

    /// Receive one metrics row (default: ignore). Called only when
    /// [`RowSink::wants_metrics`] is true.
    fn metrics(&mut self, _m: &MetricsRow) -> Result<(), ArmdseError> {
        Ok(())
    }

    /// Whether every job should run with cycle accounting enabled and
    /// stream its [`MetricsRow`]s here (default: false). Metrics
    /// collection never changes the dataset rows — the backend contract
    /// ([`RunMode`]) guarantees identical [`SimStats`]; without it no
    /// counter is allocated and the run path is the plain one.
    fn wants_metrics(&self) -> bool {
        false
    }

    /// Every planned job has run and its rows are here: the config
    /// indices to simulate next. An empty answer (the default) ends the
    /// campaign.
    fn next_batch(&mut self) -> Result<Vec<u64>, ArmdseError> {
        Ok(Vec::new())
    }

    /// Chunk boundary: make buffered output durable (default: no-op).
    fn chunk_end(&mut self) -> Result<(), ArmdseError> {
        Ok(())
    }

    /// What a fresh sink needs to continue from here, persisted as the
    /// caller section of every checkpoint (see [`Checkpoint::extra`];
    /// default: nothing, which keeps a fixed sweep's checkpoint bytes).
    fn state(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Resume is about to append after the checkpointed position `at`:
    /// drop whatever a crash left past it (a chunk flushed before the
    /// checkpoint write, or a buffer spill ending in a torn line) —
    /// dataset rows past `at.rows`, metrics rows of jobs past
    /// `at.jobs_done`; holding fewer is an error. Called once, after
    /// the loop has checked `at` against the plan. Default (in-memory
    /// sinks): no-op.
    fn resume_at(&mut self, _at: &Checkpoint) -> Result<(), ArmdseError> {
        Ok(())
    }
}

/// The in-memory sink: collects rows and discards into a [`DseDataset`].
impl RowSink for DseDataset {
    fn row(&mut self, row: &Row) -> Result<(), ArmdseError> {
        self.rows.push(row.clone());
        Ok(())
    }

    fn discarded(&mut self, d: &DiscardedRun) -> Result<(), ArmdseError> {
        self.discarded.push(d.clone());
        Ok(())
    }
}

/// The in-memory sink that keeps both streams of one run: rows,
/// discards and the durability calls go to `S`, metrics rows to the
/// `Vec`.
impl<S: RowSink> RowSink for (S, Vec<MetricsRow>) {
    fn row(&mut self, row: &Row) -> Result<(), ArmdseError> {
        self.0.row(row)
    }

    fn discarded(&mut self, d: &DiscardedRun) -> Result<(), ArmdseError> {
        self.0.discarded(d)
    }

    fn metrics(&mut self, m: &MetricsRow) -> Result<(), ArmdseError> {
        self.1.push(m.clone());
        Ok(())
    }

    fn wants_metrics(&self) -> bool {
        true
    }

    fn chunk_end(&mut self) -> Result<(), ArmdseError> {
        self.0.chunk_end()
    }

    fn resume_at(&mut self, at: &Checkpoint) -> Result<(), ArmdseError> {
        self.0.resume_at(at)
    }
}

/// Streams rows straight to a dataset CSV file (constant memory), in
/// the exact byte format of [`DseDataset::save_csv`], and — when the
/// campaign has one ([`crate::CampaignFiles::metrics`]) — the metrics
/// rows to a metrics CSV beside it (schema in `docs/METRICS.md`).
/// Discarded runs are kept in memory (`discarded`) for reporting — they
/// are not part of the CSV contract.
pub struct CsvSink {
    file: CsvFile,
    metrics: Option<CsvFile>,
    /// Validation-failed runs observed by this sink (not persisted).
    pub discarded: Vec<DiscardedRun>,
}

impl CsvSink {
    /// Create (truncate) `path` and write the CSV header.
    pub fn create(path: &Path) -> Result<CsvSink, ArmdseError> {
        Ok(CsvSink::over(CsvFile::create(path, write_csv_header)?))
    }

    /// Open `path` for appending (resume: header already present).
    pub fn append(path: &Path) -> Result<CsvSink, ArmdseError> {
        Ok(CsvSink::over(CsvFile::append(path)?))
    }

    fn over(file: CsvFile) -> CsvSink {
        CsvSink {
            file,
            metrics: None,
            discarded: Vec::new(),
        }
    }

    /// Also stream metrics rows to `path`: opened at its end when
    /// `resume` and it exists, else created with its header — so a
    /// metrics file that vanished is re-created empty, which
    /// `resume_at` then reports as behind its checkpoint.
    pub(crate) fn with_metrics(
        mut self,
        path: &Path,
        resume: bool,
    ) -> Result<CsvSink, ArmdseError> {
        self.metrics = Some(if resume && path.exists() {
            CsvFile::append(path)?
        } else {
            CsvFile::create(path, write_metrics_header)?
        });
        Ok(self)
    }
}

impl RowSink for CsvSink {
    fn row(&mut self, row: &Row) -> Result<(), ArmdseError> {
        write_csv_row(&mut self.file, row)?;
        Ok(())
    }

    fn discarded(&mut self, d: &DiscardedRun) -> Result<(), ArmdseError> {
        self.discarded.push(d.clone());
        Ok(())
    }

    fn metrics(&mut self, m: &MetricsRow) -> Result<(), ArmdseError> {
        if let Some(file) = &mut self.metrics {
            write_metrics_row(file, m)?;
        }
        Ok(())
    }

    fn wants_metrics(&self) -> bool {
        self.metrics.is_some()
    }

    fn chunk_end(&mut self) -> Result<(), ArmdseError> {
        self.file.sync()?;
        match &mut self.metrics {
            Some(file) => file.sync(),
            None => Ok(()),
        }
    }

    fn resume_at(&mut self, at: &Checkpoint) -> Result<(), ArmdseError> {
        self.file.cut_lines(at.rows, "row(s)")?;
        let Some(file) = &mut self.metrics else {
            return Ok(());
        };
        // Metrics rows are in job order and every job emits at least one.
        let jobs_done = at.jobs_done;
        file.cut_tail(jobs_done, "job(s)", |line| {
            let job = std::str::from_utf8(line).ok()?.split(',').next()?;
            let job: usize = job.parse().ok()?;
            (job < jobs_done).then_some(job + 1)
        })
    }
}

/// Persistent campaign position (see the module docs for the format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Plan fingerprint the position belongs to.
    pub fingerprint: u64,
    /// Jobs completed (always a chunk boundary).
    pub jobs_done: usize,
    /// Validated rows streamed so far.
    pub rows: usize,
    /// Discarded runs so far.
    pub discarded: usize,
    /// The `key=value` section after the fixed fields: the engine's
    /// machine-shape keys, then the campaign sink's [`RowSink::state`]
    /// (empty for plain campaigns). Keys must not contain `=` or
    /// newlines and must not collide with the fixed field names; values
    /// must not contain newlines.
    pub extra: Vec<(String, String)>,
}

const CHECKPOINT_MAGIC: &str = "armdse-checkpoint v1";
const FIXED_FIELDS: [&str; 4] = ["fingerprint", "jobs_done", "rows", "discarded"];

impl Checkpoint {
    /// Atomically persist to `path` (temp file + rename), with the
    /// `extra` section appended after the fixed fields.
    pub fn save(&self, path: &Path) -> Result<(), ArmdseError> {
        let mut body = format!(
            "{CHECKPOINT_MAGIC}\nfingerprint={:016x}\njobs_done={}\nrows={}\ndiscarded={}\n",
            self.fingerprint, self.jobs_done, self.rows, self.discarded
        );
        for (k, v) in &self.extra {
            debug_assert!(
                !k.contains(['=', '\n'])
                    && !v.contains('\n')
                    && !FIXED_FIELDS.contains(&k.as_str()),
                "invalid checkpoint extra key/value: {k}={v}"
            );
            body.push_str(k);
            body.push('=');
            body.push_str(v);
            body.push('\n');
        }
        durable::replace(path, &body).map_err(ArmdseError::from)
    }

    /// Load and parse a checkpoint file.
    ///
    /// Every parse error names the offending file and 1-based line
    /// number (`<path>:<line>: <reason>`) — a multi-job store holds
    /// many checkpoints, and "unparsable field" without a location is
    /// useless there.
    pub fn load(path: &Path) -> Result<Checkpoint, ArmdseError> {
        let body = std::fs::read_to_string(path)?;
        let err = |line_no: usize, msg: String| {
            ArmdseError::Checkpoint(format!("{}:{line_no}: {msg}", path.display()))
        };
        let mut lines = body.lines();
        let magic = lines.next().unwrap_or_default();
        if magic != CHECKPOINT_MAGIC {
            let why = format!("not an armdse v1 checkpoint (got '{magic}')");
            return Err(err(1, why));
        }
        // The fixed fields sit at fixed lines: magic is line 1, then one
        // field per line in FIXED_FIELDS order, the fingerprint in hex.
        let mut fixed = [0u64; 4];
        for (i, key) in FIXED_FIELDS.iter().enumerate() {
            let line = lines
                .next()
                .ok_or_else(|| err(i + 2, format!("missing field {key}")))?;
            let text = line
                .strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| err(i + 2, format!("expected '{key}=<value>', got '{line}'")))?;
            let (radix, want) = if i == 0 {
                (16, " (want 16 hex digits)")
            } else {
                (10, "")
            };
            fixed[i] = u64::from_str_radix(text, radix)
                .map_err(|_| err(i + 2, format!("unparsable {key} '{text}'{want}")))?;
        }
        let mut extra = Vec::new();
        for (i, line) in lines.enumerate() {
            let (k, v) = line.split_once('=').ok_or_else(|| {
                err(
                    6 + i,
                    format!("malformed extra line '{line}' (want key=value)"),
                )
            })?;
            extra.push((k.to_string(), v.to_string()));
        }
        Ok(Checkpoint {
            fingerprint: fixed[0],
            jobs_done: fixed[1] as usize,
            rows: fixed[2] as usize,
            discarded: fixed[3] as usize,
            extra,
        })
    }

    /// Look up a key in the extra section.
    pub fn extra_get(&self, key: &str) -> Option<&str> {
        self.extra
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Progress snapshot handed to the observer after each chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Jobs completed so far (a chunk boundary).
    pub jobs_done: usize,
    /// Total jobs in the plan.
    pub total_jobs: usize,
    /// Validated rows streamed so far.
    pub rows: usize,
    /// Discarded runs so far.
    pub discarded: usize,
    /// Run-memo counters of the engine's backend at this chunk
    /// boundary (`None` for backends without reuse state). Cumulative
    /// over the backend's lifetime, not per-chunk.
    pub reuse: Option<ReuseStats>,
}

impl Progress {
    /// Fraction of the campaign completed, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.jobs_done as f64 / self.total_jobs.max(1) as f64
    }
}

/// Per-run control: checkpointing, resume, and the observer hook.
#[derive(Default)]
pub struct RunControl<'a> {
    /// Where to persist the campaign position after each chunk.
    pub checkpoint: Option<&'a Path>,
    /// The loaded checkpoint to continue from (requires `checkpoint`);
    /// `None` starts the campaign fresh.
    pub position: Option<Checkpoint>,
    /// Called after each chunk; returning `false` pauses the run (the
    /// checkpoint, if any, is already saved — resume picks up there).
    pub observer: Option<&'a mut dyn FnMut(&Progress) -> bool>,
    /// What to do with the backend's run memo at run start.
    pub reuse: ReuseMode,
}

/// Run-memo policy for one [`Engine::run_controlled`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReuseMode {
    /// Keep whatever the backend has memoized (the default): repeats of
    /// runs from earlier campaigns on the same engine are reused.
    #[default]
    Inherit,
    /// Clear the run memo before the first chunk so the run measures
    /// (and behaves like) a cold start. No-op on backends without reuse
    /// state.
    ColdStart,
}

/// Outcome of [`Engine::run_controlled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Total jobs in the plan.
    pub jobs: usize,
    /// Jobs completed when the run returned.
    pub jobs_done: usize,
    /// Validated rows streamed *by this call* (excludes pre-resume rows).
    pub rows: usize,
    /// Discarded runs observed by this call (excludes pre-resume runs).
    pub discarded: usize,
    /// Job index this call resumed from (0 for a fresh run).
    pub resumed_from: usize,
    /// Whether the campaign ran to completion (false: observer paused).
    pub completed: bool,
}

/// The unified run path: a pluggable backend plus the shared workload
/// cache, executing validated plans into row sinks.
pub struct Engine {
    backend: Box<dyn SimBackend>,
    cache: WorkloadCache,
}

impl Engine {
    /// An engine over an arbitrary backend.
    pub fn new(backend: Box<dyn SimBackend>) -> Engine {
        Engine {
            backend,
            cache: WorkloadCache::new(),
        }
    }

    /// An engine over the paper's machine, [`MultiCore::IDEALIZED`].
    pub fn idealized() -> Engine {
        Engine::new(Box::new(MultiCore::IDEALIZED))
    }

    /// An engine over the exact run-memoizing wrapper around the paper's
    /// machine: a repeated run is answered from the memo (see
    /// `armdse_simcore::reuse`). The argument is unread: it
    /// stays because `benchmark/src/e2e/sweep.rs` calls
    /// `Engine::memoized(DEFAULT_INTERVAL_LEN)`, and the next
    /// `benchmark` PR drops both.
    pub fn memoized(_interval_len: u64) -> Engine {
        Engine::new(Box::new(Memoized::new(MultiCore::IDEALIZED)))
    }

    /// An engine over the [`MultiCore`] machine layer: `cores` replicas
    /// of the workload stepped in lockstep slices over one shared banked
    /// L2+DRAM with `banks` interleaved banks (contention is the design
    /// axis). `Engine::multicore(1, armdse_memsim::DEFAULT_BANKS)` is
    /// the single-core finite-banked machine, Table I's hardware proxy.
    pub fn multicore(cores: u32, banks: u32) -> Engine {
        Engine::new(Box::new(MultiCore::new(cores, banks)))
    }

    /// The engine's default backend.
    pub fn backend(&self) -> &dyn SimBackend {
        self.backend.as_ref()
    }

    /// The cached workload for `(app, scale, vl_bits)`.
    pub fn workload(&self, app: App, scale: WorkloadScale, vl_bits: u32) -> Arc<Workload> {
        self.cache.get(app, scale, vl_bits)
    }

    /// Simulate one `(app, config)` pair on the engine's backend,
    /// reusing the shared workload cache.
    pub fn simulate_config(&self, app: App, scale: WorkloadScale, cfg: &DesignConfig) -> SimStats {
        let w = self.cache.get(app, scale, cfg.core.vector_length);
        self.backend
            .run(&w.program, &cfg.core, &cfg.mem, RunMode::Plain)
            .stats
    }

    /// Simulate one `(app, config)` pair with cycle accounting enabled,
    /// returning the per-cycle attribution counters alongside the
    /// statistics. The statistics are guaranteed identical to
    /// [`Engine::simulate_config`] (metrics transparency).
    pub fn simulate_config_metrics(
        &self,
        app: App,
        scale: WorkloadScale,
        cfg: &DesignConfig,
    ) -> (SimStats, Counters) {
        let w = self.cache.get(app, scale, cfg.core.vector_length);
        self.backend
            .run(&w.program, &cfg.core, &cfg.mem, RunMode::Metrics)
            .into_metrics()
    }

    /// Run a full campaign, streaming rows into `sink` in job order.
    pub fn run(&self, plan: &RunPlan, sink: &mut dyn RowSink) -> Result<RunSummary, ArmdseError> {
        self.run_controlled(plan, sink, RunControl::default())
    }

    /// Run with checkpointing, resume, and/or a progress observer.
    ///
    /// A thin wrapper over the [`crate::scheduler`] run loop, so
    /// single-plan consumers and the multi-job
    /// [`crate::scheduler::JobScheduler`] execute the exact same code
    /// path.
    pub fn run_controlled(
        &self,
        plan: &RunPlan,
        sink: &mut dyn RowSink,
        ctl: RunControl<'_>,
    ) -> Result<RunSummary, ArmdseError> {
        crate::scheduler::run_job_loop(self, plan, sink, ctl)
    }

    /// Build the dataset-facing outcome from one job's statistics.
    fn job_outcome(
        app: App,
        config_index: usize,
        cfg: &DesignConfig,
        stats: &SimStats,
    ) -> Result<Row, DiscardedRun> {
        if stats.validated {
            Ok(Row {
                app,
                features: cfg.to_features(),
                cycles: stats.cycles,
                sve_fraction: stats.sve_fraction(),
            })
        } else {
            Err(DiscardedRun {
                app,
                config_index,
                cycles: stats.cycles,
                hit_cycle_limit: stats.hit_cycle_limit,
            })
        }
    }

    /// Run one simulation in `mode`, producing the dataset-facing
    /// outcome — `Err` reports a run that failed validation (the paper
    /// discards such runs; we record what was dropped) — and, under
    /// [`RunMode::Metrics`], the job's metrics rows: the aggregate row
    /// first (`core: None`), then one detail row per core when the
    /// backend runs more than one core (single-core backends emit only
    /// the aggregate, keeping the historical one-row-per-job stream).
    /// [`RunMode::Plain`] returns no metrics rows.
    pub(crate) fn run_job(
        &self,
        app: App,
        job: usize,
        config_index: usize,
        scale: WorkloadScale,
        cfg: &DesignConfig,
        mode: RunMode,
    ) -> (Result<Row, DiscardedRun>, Vec<MetricsRow>) {
        let w = self.cache.get(app, scale, cfg.core.vector_length);
        let out = self.backend.run(&w.program, &cfg.core, &cfg.mem, mode);
        let outcome = Engine::job_outcome(app, config_index, cfg, &out.stats);
        let row = |core: Option<u32>, stats: &SimStats, counters: Counters| MetricsRow {
            job,
            config_index,
            app,
            core,
            validated: stats.validated,
            cycles: stats.cycles,
            retired: stats.retired,
            counters,
            stalls: stats.stalls,
            mem: stats.mem,
        };
        let mut rows = Vec::new();
        if let Some(counters) = out.counters {
            rows.reserve_exact(1 + out.per_core.len());
            rows.push(row(None, &out.stats, counters));
            for pc in out.per_core {
                rows.push(row(Some(pc.core), &pc.stats, pc.counters));
            }
        }
        (outcome, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobstore::JobSpec;

    fn opts(configs: usize, threads: usize) -> JobSpec {
        JobSpec {
            configs,
            scale: WorkloadScale::Tiny,
            seed: 99,
            threads,
            apps: vec![App::Stream, App::TeaLeaf],
            ..JobSpec::default()
        }
    }

    fn plan(configs: usize, threads: usize) -> RunPlan {
        opts(configs, threads).plan().unwrap()
    }

    /// `opts(configs, 1)`'s plan with one feature pinned.
    fn pinned(configs: usize, name: &str, value: f64) -> Result<RunPlan, ArmdseError> {
        let o = opts(configs, 1);
        let pins = [(name.to_string(), value)];
        RunPlan::sampled(o.seed, &pins, configs, &o.apps, o.scale, 1)
    }

    #[test]
    fn zero_configs_is_an_invalid_plan_not_a_panic() {
        let err = opts(0, 1).plan().unwrap_err();
        assert!(matches!(err, ArmdseError::InvalidPlan(_)), "{err}");
    }

    #[test]
    fn empty_apps_is_an_invalid_plan() {
        let mut o = opts(4, 1);
        o.apps.clear();
        assert!(matches!(o.plan(), Err(ArmdseError::InvalidPlan(_))));
    }

    #[test]
    fn duplicate_apps_are_deduplicated_order_preserving() {
        let mut o = opts(3, 1);
        o.apps = vec![App::TeaLeaf, App::Stream, App::TeaLeaf, App::Stream];
        let p = o.plan().unwrap();
        assert_eq!(p.apps(), &[App::TeaLeaf, App::Stream]);
        assert_eq!(p.jobs(), 6);
        // And the engine produces exactly one row per (config, app).
        let mut data = DseDataset::default();
        Engine::idealized().run(&p, &mut data).unwrap();
        assert_eq!(data.rows.len(), 6);
        assert_eq!(data.for_app(App::TeaLeaf).len(), 3);
    }

    #[test]
    fn unknown_pin_is_an_invalid_plan_not_a_panic() {
        let err = pinned(2, "No-Such-Feature", 1.0).unwrap_err();
        assert!(err.to_string().contains("No-Such-Feature"));
    }

    fn dataset(o: &JobSpec) -> DseDataset {
        let mut data = DseDataset::default();
        let p = o.plan().unwrap();
        Engine::idealized().run(&p, &mut data).unwrap();
        data
    }

    #[test]
    fn rows_cover_each_app_and_config_in_job_order() {
        let d = dataset(&opts(3, 3));
        // All runs on sane sampled configs should validate.
        assert!(d.discarded.is_empty(), "discards: {:?}", d.discarded);
        assert_eq!(d.for_app(App::Stream).len(), 3);
        assert_eq!(d.for_app(App::TeaLeaf).len(), 3);
        // Interleaved app order per config: Stream, TeaLeaf, ...
        let apps: Vec<App> = d.rows.iter().map(|r| r.app).collect();
        assert_eq!(apps, [App::Stream, App::TeaLeaf].repeat(3));
    }

    #[test]
    fn thread_count_does_not_change_results_and_seed_does() {
        assert_eq!(dataset(&opts(5, 1)), dataset(&opts(5, 4)));
        let mut other_seed = opts(5, 4);
        other_seed.seed = 1;
        assert_ne!(dataset(&opts(5, 4)), dataset(&other_seed));
    }

    #[test]
    fn chunking_does_not_change_the_row_stream() {
        let mut one_chunk = DseDataset::default();
        let mut many_chunks = DseDataset::default();
        let e = Engine::idealized();
        e.run(&plan(6, 2), &mut one_chunk).unwrap();
        e.run(&plan(6, 2).with_chunk_jobs(3), &mut many_chunks)
            .unwrap();
        assert_eq!(one_chunk, many_chunks);
    }

    #[test]
    fn summary_counts_match_sink_contents() {
        let mut data = DseDataset::default();
        let s = Engine::idealized().run(&plan(5, 3), &mut data).unwrap();
        assert!(s.completed);
        assert_eq!(s.jobs, 10);
        assert_eq!(s.jobs_done, 10);
        assert_eq!(s.rows, data.rows.len());
        assert_eq!(s.discarded, data.discarded.len());
        assert_eq!(s.resumed_from, 0);
    }

    #[test]
    fn observer_sees_monotone_progress_and_can_pause() {
        let e = Engine::idealized();
        let p = plan(8, 2).with_chunk_jobs(4); // 16 jobs -> 4 chunks
        let mut seen = Vec::new();
        let mut observer = |pr: &Progress| {
            seen.push(pr.jobs_done);
            pr.jobs_done < 8 // pause after the second chunk
        };
        let mut data = DseDataset::default();
        let s = e
            .run_controlled(
                &p,
                &mut data,
                RunControl {
                    observer: Some(&mut observer),
                    ..RunControl::default()
                },
            )
            .unwrap();
        assert_eq!(seen, vec![4, 8]);
        assert!(!s.completed);
        assert_eq!(s.jobs_done, 8);
        assert_eq!(data.rows.len() + data.discarded.len(), 8);
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let c = Checkpoint {
            fingerprint: 0xDEAD_BEEF,
            jobs_done: 42,
            rows: 40,
            discarded: 2,
            extra: Vec::new(),
        };
        let path = std::env::temp_dir().join("armdse_engine_ckpt_roundtrip.ckpt");
        c.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), c);
        // The fixed fields, and nothing after them.
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("armdse-checkpoint v1\n"));
        assert_eq!(body.lines().count(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_v2_extra_section_roundtrips() {
        let c = Checkpoint {
            fingerprint: 0xF00D,
            jobs_done: 8,
            rows: 8,
            discarded: 0,
            extra: vec![
                ("explore.rng".into(), "3".into()),
                ("explore.selected".into(), "4,17,102".into()),
            ],
        };
        let path = std::env::temp_dir().join("armdse_engine_ckpt_v2_roundtrip.ckpt");
        c.save(&path).unwrap();
        // One format is written: the extra section rides under v1.
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("armdse-checkpoint v1\n"));
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, c);
        assert_eq!(loaded.extra_get("explore.rng"), Some("3"));
        assert_eq!(loaded.extra_get("no.such.key"), None);
        // The v2 header earlier binaries wrote is refused.
        std::fs::write(&path, body.replace(" v1\n", " v2\n")).unwrap();
        let err = Checkpoint::load(&path).unwrap_err().to_string();
        assert!(err.contains("not an armdse v1 checkpoint"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_load_errors_name_path_and_line() {
        let dir = std::env::temp_dir();
        let case = |name: &str, body: &str, line: usize, needle: &str| {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            let msg = Checkpoint::load(&path).unwrap_err().to_string();
            assert!(
                msg.contains(&format!("{}:{line}:", path.display())),
                "{name}: wanted '{}:{line}:' in '{msg}'",
                path.display()
            );
            assert!(msg.contains(needle), "{name}: wanted '{needle}' in '{msg}'");
            std::fs::remove_file(&path).ok();
        };
        case(
            "armdse_ckpt_err_magic.ckpt",
            "not a checkpoint\n",
            1,
            "not an armdse",
        );
        case(
            "armdse_ckpt_err_fp.ckpt",
            "armdse-checkpoint v1\nfingerprint=XYZ\njobs_done=1\nrows=1\ndiscarded=0\n",
            2,
            "unparsable fingerprint 'XYZ'",
        );
        case(
            "armdse_ckpt_err_jobs.ckpt",
            "armdse-checkpoint v1\nfingerprint=0000000000000001\njobs_done=lots\nrows=1\ndiscarded=0\n",
            3,
            "unparsable jobs_done 'lots'",
        );
        case(
            "armdse_ckpt_err_missing.ckpt",
            "armdse-checkpoint v1\nfingerprint=0000000000000001\njobs_done=1\n",
            4,
            "missing field rows",
        );
        case(
            "armdse_ckpt_err_swapped.ckpt",
            "armdse-checkpoint v1\nfingerprint=0000000000000001\nrows=1\njobs_done=1\ndiscarded=0\n",
            3,
            "expected 'jobs_done=<value>'",
        );
        case(
            "armdse_ckpt_err_extra.ckpt",
            "armdse-checkpoint v1\nfingerprint=0000000000000001\njobs_done=1\nrows=1\ndiscarded=0\nok=1\nbroken\n",
            7,
            "malformed extra line 'broken'",
        );
    }

    #[test]
    fn resume_rejects_a_foreign_checkpoint() {
        let path = std::env::temp_dir().join("armdse_engine_ckpt_foreign.ckpt");
        Checkpoint {
            fingerprint: 1,
            jobs_done: 2,
            rows: 2,
            discarded: 0,
            extra: Vec::new(),
        }
        .save(&path)
        .unwrap();
        let e = Engine::idealized();
        let mut data = DseDataset::default();
        let err = e
            .run_controlled(
                &plan(2, 1),
                &mut data,
                RunControl {
                    checkpoint: Some(&path),
                    position: Some(Checkpoint::load(&path).unwrap()),
                    ..RunControl::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, ArmdseError::Checkpoint(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paused_run_resumes_to_the_uninterrupted_dataset() {
        let e = Engine::idealized();
        let p = plan(6, 2).with_chunk_jobs(5); // 12 jobs -> chunks of 5,5,2
        let ckpt = std::env::temp_dir().join("armdse_engine_resume_unit.ckpt");
        std::fs::remove_file(&ckpt).ok();

        let mut fresh = DseDataset::default();
        e.run(&p, &mut fresh).unwrap();

        let mut pieces = DseDataset::default();
        let mut stop_after_first = |pr: &Progress| pr.jobs_done >= 10;
        let s1 = e
            .run_controlled(
                &p,
                &mut pieces,
                RunControl {
                    checkpoint: Some(&ckpt),
                    observer: Some(&mut |pr: &Progress| {
                        let _ = &mut stop_after_first;
                        pr.jobs_done < 5
                    }),
                    ..RunControl::default()
                },
            )
            .unwrap();
        assert!(!s1.completed);
        assert_eq!(s1.jobs_done, 5);

        let s2 = e
            .run_controlled(
                &p,
                &mut pieces,
                RunControl {
                    checkpoint: Some(&ckpt),
                    position: Some(Checkpoint::load(&ckpt).unwrap()),
                    ..RunControl::default()
                },
            )
            .unwrap();
        assert!(s2.completed);
        assert_eq!(s2.resumed_from, 5);
        assert_eq!(
            pieces, fresh,
            "paused+resumed dataset must equal the fresh one"
        );

        // Resuming a completed run is a no-op.
        let mut extra = DseDataset::default();
        let s3 = e
            .run_controlled(
                &p,
                &mut extra,
                RunControl {
                    checkpoint: Some(&ckpt),
                    position: Some(Checkpoint::load(&ckpt).unwrap()),
                    ..RunControl::default()
                },
            )
            .unwrap();
        assert!(s3.completed);
        assert_eq!(s3.rows, 0);
        assert!(extra.rows.is_empty());
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn wedged_run_surfaces_as_a_discarded_run() {
        // A pathological L1 latency pushes CPI past the safety guard; the
        // run must surface as a DiscardedRun, not vanish.
        let mut cfg = DesignConfig::thunderx2();
        cfg.mem.l1_latency = 100_000;
        cfg.mem.l2_latency = 200_000;
        let e = Engine::idealized();
        let d = e
            .run_job(App::Stream, 0, 7, WorkloadScale::Tiny, &cfg, RunMode::Plain)
            .0
            .unwrap_err();
        assert!(d.hit_cycle_limit);
        assert_eq!(d.config_index, 7);
        assert_eq!(d.app, App::Stream);
        assert!(d.cycles > 0);
    }

    #[test]
    fn workload_cache_is_shared_across_runs() {
        let e = Engine::idealized();
        let p = plan(3, 1);
        let mut a = DseDataset::default();
        e.run(&p, &mut a).unwrap();
        let after_first = e.cache.len();
        assert!(after_first > 0);
        let mut b = DseDataset::default();
        e.run(&p, &mut b).unwrap();
        assert_eq!(e.cache.len(), after_first, "second run must hit the cache");
        assert_eq!(a, b);
    }

    #[test]
    fn metrics_stream_has_one_row_per_job_in_order() {
        let e = Engine::idealized();
        let p = plan(4, 3).with_chunk_jobs(3); // 8 jobs -> chunks of 3,3,2
        let mut sink = (DseDataset::default(), Vec::new());
        let s = e.run(&p, &mut sink).unwrap();
        assert!(s.completed);
        let (data, metrics) = sink;
        assert_eq!(metrics.len(), p.jobs(), "one metrics row per job");
        for (i, m) in metrics.iter().enumerate() {
            assert_eq!(m.job, i, "metrics rows must arrive in job order");
            assert_eq!(m.config_index, i / p.apps().len());
            assert_eq!(m.app, p.apps()[i % p.apps().len()]);
            assert_eq!(m.counters.cycles, m.cycles);
            assert!(m.counters.conserves(), "job {i} leaked a cycle");
        }
        let validated = metrics.iter().filter(|m| m.validated).count();
        assert_eq!(validated, data.rows.len());
        assert_eq!(metrics.len() - validated, data.discarded.len());
    }

    #[test]
    fn metrics_collection_does_not_change_the_dataset() {
        let e = Engine::idealized();
        let p = plan(5, 2);
        let mut plain = DseDataset::default();
        e.run(&p, &mut plain).unwrap();
        let mut observed = (DseDataset::default(), Vec::new());
        e.run(&p, &mut observed).unwrap();
        assert_eq!(observed.1.len(), p.jobs());
        assert_eq!(plain, observed.0, "metrics must be transparent");
    }

    #[test]
    fn explicit_indices_reproduce_the_full_sweep_rows() {
        // A plan restricted to indices {1, 3} must emit exactly the rows
        // the full sweep produced for configs 1 and 3, in that order.
        let e = Engine::idealized();
        let mut full = DseDataset::default();
        e.run(&plan(4, 2), &mut full).unwrap();
        let sub = plan(4, 2).with_config_indices(vec![1, 3]).unwrap();
        assert_eq!(sub.configs(), 2);
        let mut picked = DseDataset::default();
        e.run(&sub, &mut picked).unwrap();
        let apps = 2; // Stream + TeaLeaf
        let expect: Vec<_> = [1usize, 3]
            .iter()
            .flat_map(|&c| full.rows[c * apps..(c + 1) * apps].to_vec())
            .collect();
        assert_eq!(picked.rows, expect);
        // And the subset plan has its own checkpoint identity.
        assert_ne!(sub.fingerprint(), plan(2, 2).fingerprint());
    }

    #[test]
    fn a_listed_plan_of_the_sampled_points_emits_the_sampled_rows() {
        let e = Engine::idealized();
        let sampled = plan(3, 2);
        let points: Vec<DesignConfig> = (0..3).map(|i| sampled.design_point(i).unwrap()).collect();
        let listed = |points: &[DesignConfig], threads| {
            let apps = [App::Stream, App::TeaLeaf];
            RunPlan::listed(points.to_vec(), &apps, WorkloadScale::Tiny, threads).unwrap()
        };
        let (mut want, mut got) = (DseDataset::default(), DseDataset::default());
        e.run(&sampled, &mut want).unwrap();
        e.run(&listed(&points, 1).with_chunk_jobs(4), &mut got)
            .unwrap();
        assert_eq!(got, want);
        // Fingerprinted by the list, not by threads or chunking.
        let fp = listed(&points, 1).fingerprint();
        assert_eq!(fp, listed(&points, 3).with_chunk_jobs(2).fingerprint());
        assert_ne!(fp, listed(&points[..2], 1).fingerprint());
        assert_ne!(fp, sampled.fingerprint());
    }

    #[test]
    fn a_listed_plan_refuses_bad_points_up_front_and_indexes_its_slots() {
        let invalid = |r: Result<RunPlan, ArmdseError>| match r {
            Err(ArmdseError::InvalidPlan(m)) => m,
            other => panic!("expected an invalid plan, got {other:?}"),
        };
        let listed = |points: Vec<DesignConfig>, apps: &[App]| {
            RunPlan::listed(points, apps, WorkloadScale::Tiny, 1)
        };
        let good = DesignConfig::thunderx2();
        let mut bad = good;
        bad.core.vector_length = 96;
        assert!(invalid(listed(Vec::new(), &App::ALL)).contains("configs == 0"));
        assert!(invalid(listed(vec![good, bad], &App::ALL)).contains("list slot 1"));
        assert!(invalid(listed(vec![good], &[])).contains("no applications"));
        // Indices select list slots; one past the list ends the run.
        let mut other = good;
        other.core.rob_size = 64;
        let plan = listed(vec![good, other], &App::ALL).unwrap();
        let picked = plan.clone().with_config_indices(vec![1, 0]).unwrap();
        assert_eq!(picked.design_point(0).unwrap(), other);
        assert_ne!(picked.fingerprint(), plan.fingerprint());
        let past = plan.with_config_indices(vec![2]).unwrap();
        let mut data = DseDataset::default();
        let err = Engine::idealized().run(&past, &mut data).unwrap_err();
        assert!(err.to_string().contains("no list slot 2"), "{err}");
    }

    #[test]
    fn sampled_candidates_wrap_past_the_largest_seed() {
        let space = ParamSpace::paper();
        let p = (JobSpec {
            seed: u64::MAX,
            ..opts(2, 1)
        })
        .plan()
        .unwrap();
        let points = [p.design_point(0).unwrap(), p.design_point(1).unwrap()];
        assert_eq!(
            points,
            [space.sample_seeded(u64::MAX), space.sample_seeded(0)]
        );
    }

    #[test]
    fn empty_index_list_is_an_invalid_plan() {
        assert!(matches!(
            plan(4, 1).with_config_indices(Vec::new()),
            Err(ArmdseError::InvalidPlan(_))
        ));
    }

    #[test]
    fn fingerprint_tracks_plan_identity() {
        let base = plan(4, 1);
        assert_eq!(base.fingerprint(), plan(4, 1).fingerprint());
        // Threads and chunking don't change identity...
        assert_eq!(
            base.fingerprint(),
            plan(4, 9).with_chunk_jobs(7).fingerprint()
        );
        // ...but seed, configs, and pins do.
        assert_ne!(base.fingerprint(), plan(5, 1).fingerprint());
        let pinned = pinned(4, "Vector-Length", 128.0).unwrap();
        assert_ne!(base.fingerprint(), pinned.fingerprint());
    }

    #[test]
    fn memoized_engine_produces_identical_datasets_cold_and_warm() {
        let p = plan(4, 2);
        let mut want = DseDataset::default();
        Engine::idealized().run(&p, &mut want).unwrap();
        let e = Engine::memoized(256);
        let mut cold = DseDataset::default();
        e.run(&p, &mut cold).unwrap();
        assert_eq!(cold, want);
        let mut warm = DseDataset::default();
        e.run(&p, &mut warm).unwrap();
        assert_eq!(warm, want);
        let rs = e.backend().reuse_stats().expect("memoized reports stats");
        assert_eq!(
            (rs.hits, rs.misses),
            (p.jobs() as u64, p.jobs() as u64),
            "the warm campaign is one hit per job"
        );
    }

    #[test]
    fn progress_carries_reuse_stats_and_cold_start_clears_them() {
        let p = plan(3, 1).with_chunk_jobs(6);
        let e = Engine::memoized(256);
        e.run(&p, &mut DseDataset::default()).unwrap(); // warm the cache
        let mut last = None;
        let mut observer = |pr: &Progress| {
            last = pr.reuse;
            true
        };
        e.run_controlled(
            &p,
            &mut DseDataset::default(),
            RunControl {
                observer: Some(&mut observer),
                reuse: ReuseMode::ColdStart,
                ..RunControl::default()
            },
        )
        .unwrap();
        let rs = last.expect("memoized backend reports reuse stats");
        assert_eq!(rs.hits, 0, "cold start must not hit");
        assert!(rs.misses > 0);
        // The idealized engine reports no reuse state either way.
        let mut last = None;
        let mut observer = |pr: &Progress| {
            last = pr.reuse;
            true
        };
        Engine::idealized()
            .run_controlled(
                &p,
                &mut DseDataset::default(),
                RunControl {
                    observer: Some(&mut observer),
                    ..RunControl::default()
                },
            )
            .unwrap();
        assert!(last.is_none());
    }

    /// What earlier binaries left behind: a checkpoint naming its
    /// fidelity tier (`reuse.fidelity`) is refused on any engine, and
    /// the sink is left as the pause left it.
    #[test]
    fn a_checkpoint_naming_any_fidelity_tier_is_refused() {
        let path = std::env::temp_dir().join("armdse_engine_ckpt_tier.ckpt");
        std::fs::remove_file(&path).ok();
        let p = plan(4, 1).with_chunk_jobs(2); // 8 jobs -> 4 chunks
        let mut pieces = DseDataset::default();
        let mut pause = |pr: &Progress| pr.jobs_done < 4;
        let s = Engine::idealized()
            .run_controlled(
                &p,
                &mut pieces,
                RunControl {
                    checkpoint: Some(&path),
                    observer: Some(&mut pause),
                    ..RunControl::default()
                },
            )
            .unwrap();
        assert!(!s.completed);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(!body.contains("fidelity"), "{body}");
        for tier in ["memoized", "sampled"] {
            std::fs::write(&path, format!("{body}reuse.fidelity={tier}\n")).unwrap();
            for engine in [Engine::memoized(0), Engine::idealized()] {
                let mut sink = pieces.clone();
                let msg = engine
                    .run_controlled(
                        &p,
                        &mut sink,
                        RunControl {
                            checkpoint: Some(&path),
                            position: Some(Checkpoint::load(&path).unwrap()),
                            ..RunControl::default()
                        },
                    )
                    .unwrap_err()
                    .to_string();
                assert!(
                    msg.contains("reuse.fidelity") && msg.contains("refusing to mix"),
                    "{tier}: {msg}"
                );
                assert_eq!(sink, pieces, "{tier}: nothing spliced");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
