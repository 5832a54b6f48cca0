//! The session layer: named, isolated, restartable campaign jobs.
//!
//! A [`Job`] is one submitted campaign — its [`JobSpec`], the
//! [`CampaignFiles`] it streams into, and its state — owned by a
//! [`JobStore`] that gives it an id, a directory slot, and a state
//! machine. The execution side (the priority queue and runner threads)
//! lives in [`crate::scheduler::JobScheduler`].
//!
//! ## Per-job isolation
//!
//! A job holds its spec, its file paths and its counters, nothing else.
//! The plan, the [`Engine`] (workload cache and backend) and the open
//! sinks are locals of one run session: a runner builds them when it
//! claims the job and drops them when the session stops. Jobs therefore
//! share no cache, a terminal job keeps no lowered workload alive
//! (`tests/server_memory.rs`), and a job's bytes depend only on its spec
//! (`tests/server_jobs.rs`). A job resumed in the same process re-lowers
//! its workloads, as after a restart.
//!
//! ## On-disk layout
//!
//! Inside the store directory every job `N` owns:
//!
//! ```text
//! job-N.spec.json    # the submitted spec (wire format, re-parseable)
//! job-N.csv          # the streamed dataset rows (CsvSink bytes)
//! job-N.ckpt         # its checkpoint, atomically replaced
//! job-N.metrics.csv  # per-job metrics stream (only when requested)
//! job-N.state        # terminal marker: done / cancelled / failed <msg>
//! ```
//!
//! [`JobStore::open`] rescans this layout; docs/SERVER.md ("Lifecycle,
//! restarts, resume") states what each job reopens as. No background
//! work survives the process; recovery is purely file-driven.

use crate::durable::{self, CampaignFiles};
use crate::engine::{Checkpoint, Engine, RunPlan, DEFAULT_CHUNK_JOBS};
use crate::error::ArmdseError;
use crate::json::{self, parse_json, Decimal, Json, Layout, ToJson, Writer};
use crate::space::ParamSpace;
use armdse_kernels::{App, WorkloadScale};
use armdse_memsim::DEFAULT_BANKS;
use armdse_simcore::MultiCore;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Identifier of one submitted job (assigned by the store, ascending
/// in submission order).
pub type JobId = u64;

/// Lifecycle of a job. `Queued → Running → {Done, Failed}` is the happy
/// path; `Paused` is re-enterable (`resume` re-queues), and `Done`,
/// `Failed`, `Cancelled` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the scheduler's priority queue, waiting for a runner.
    Queued,
    /// A runner thread is executing the campaign.
    Running,
    /// Stopped at a chunk boundary with a checkpoint on disk; resume
    /// continues to byte-identical output.
    Paused,
    /// Completed every job in the plan.
    Done,
    /// Aborted with an error (recorded in the status snapshot).
    Failed,
    /// Cancelled by request; the last checkpoint remains loadable.
    Cancelled,
}

impl JobState {
    /// Stable lowercase tag (wire format and state-marker files).
    pub(crate) fn tag(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse a state tag.
    pub(crate) fn parse(s: &str) -> Option<JobState> {
        use JobState::*;
        [Queued, Running, Paused, Done, Failed, Cancelled]
            .into_iter()
            .find(|state| state.tag() == s)
    }

    /// Whether the state is final (no further transitions).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A submitted campaign description: the wire-format form of a
/// [`RunPlan`] plus scheduling and sink options. This is exactly what
/// `POST /jobs` accepts as a JSON body (see docs/SERVER.md).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Design points to sample (required; `0` fails validation).
    pub configs: usize,
    /// Workload input scale.
    pub scale: WorkloadScale,
    /// Base campaign seed (config `i` samples with `seed + i`).
    pub seed: u64,
    /// Worker threads the job's config range fans out over.
    pub threads: usize,
    /// Applications simulated per configuration.
    pub apps: Vec<App>,
    /// Features pinned to fixed values by name.
    pub pins: Vec<(String, f64)>,
    /// Jobs per chunk (checkpoint cadence; never changes output bytes).
    pub chunk_jobs: usize,
    /// Scheduling priority: higher runs first; ties run in submission
    /// order (job-id ascending) — deterministic, pinned by test.
    pub priority: i64,
    /// Also stream a per-job metrics CSV (cycle accounting per job).
    pub metrics: bool,
    /// Cores of the simulated machine: 1 (the default) runs the
    /// single-core path; larger values run the [`MultiCore`] layer, one
    /// workload replica per core over a shared L2+DRAM.
    pub cores: u32,
    /// Interleaved banks of the shared L2 (the shared-bandwidth design
    /// axis); the default is the single-core hierarchy's bank count.
    pub banks: u32,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            configs: 0,
            scale: WorkloadScale::Standard,
            seed: 0x5EED,
            threads: 1,
            apps: App::ALL.to_vec(),
            pins: Vec::new(),
            chunk_jobs: DEFAULT_CHUNK_JOBS,
            priority: 0,
            metrics: false,
            cores: 1,
            banks: DEFAULT_BANKS,
        }
    }
}

impl JobSpec {
    /// Validate into a [`RunPlan`] over `space`.
    pub fn plan(&self, space: &ParamSpace) -> Result<RunPlan, ArmdseError> {
        let (seed, pins, configs, apps) = (self.seed, &self.pins, self.configs, &self.apps);
        let plan = RunPlan::sampled(space, seed, pins, configs, apps, self.scale, self.threads)?;
        Ok(plan.with_chunk_jobs(self.chunk_jobs))
    }

    /// The machine shape the spec requests (values clamped to 1). The
    /// default shape, one core over [`DEFAULT_BANKS`], is the paper's
    /// machine, [`MultiCore::IDEALIZED`]: this is the one place the
    /// wire's default maps to it.
    pub fn topology(&self) -> MultiCore {
        match (self.cores.max(1), self.banks.max(1)) {
            (1, DEFAULT_BANKS) => MultiCore::IDEALIZED,
            (cores, banks) => MultiCore { cores, banks },
        }
    }

    /// The machine rule, spelled once for the wire parser and the
    /// `repro` command line: every key that sizes threads, buffers or
    /// the machine is at least 1 and at most its bound. 8192 `threads`
    /// is Linux's largest CPU count, so any host's
    /// `available_parallelism()` passes; `chunk_jobs` sizes a chunk's
    /// design-point buffer; `cores` and `banks` sit well past the
    /// contention study's 16 cores and 8 banks.
    pub fn check_machine(&self) -> Result<(), ArmdseError> {
        let bounds = [
            ("threads", self.threads as u64, 8192),
            ("chunk_jobs", self.chunk_jobs as u64, 65536),
            ("cores", self.cores.into(), 64),
            ("banks", self.banks.into(), 1024),
        ];
        for (key, value, max) in bounds {
            if !(1..=max).contains(&value) {
                return Err(ArmdseError::InvalidPlan(format!(
                    "\"{key}\" must be in 1..={max}, not {value}"
                )));
            }
        }
        Ok(())
    }

    /// Build the job's private engine over [`JobSpec::topology`].
    pub fn engine(&self) -> Engine {
        Engine::new(Box::new(self.topology()))
    }

    /// Serialize to the canonical wire JSON (round-trips through
    /// [`JobSpec::from_json`]).
    pub fn to_json(&self) -> String {
        let pins = |p: &mut Writer| {
            for (name, v) in &self.pins {
                p.field(name, Decimal(*v));
            }
        };
        let doc = json::object(Layout::Block, |o| {
            o.field("configs", self.configs);
            o.field("scale", self.scale.name());
            o.field("seed", self.seed);
            o.field("threads", self.threads);
            o.field(
                "apps",
                json::array(Layout::Spaced, self.apps.iter().map(|a| a.name())),
            );
            o.field("pins", json::object(Layout::Spaced, pins));
            o.field("chunk_jobs", self.chunk_jobs);
            // The machine topology is emitted only when non-default, so
            // pre-multicore specs keep their wire bytes.
            if self.topology() != MultiCore::IDEALIZED {
                o.field("cores", self.cores);
                o.field("banks", self.banks);
            }
            o.field("priority", self.priority);
            o.field("metrics", self.metrics);
        });
        doc.render() + "\n"
    }

    /// Parse the wire JSON. Strict: unknown keys and ill-typed values
    /// are errors (a typo'd field silently ignored would run the wrong
    /// campaign), missing optional keys take [`JobSpec::default`]
    /// values, and `configs` is required.
    pub fn from_json(body: &str) -> Result<JobSpec, ArmdseError> {
        let bad = |m: String| ArmdseError::InvalidPlan(m);
        let v = parse_json(body).map_err(|e| bad(format!("bad JSON: {e}")))?;
        let obj = v
            .as_object()
            .ok_or_else(|| bad("job spec must be a JSON object".into()))?;
        let mut spec = JobSpec::default();
        let mut have_configs = false;
        for (key, val) in obj {
            let uint = || -> Result<u64, ArmdseError> {
                val.as_u64()
                    .ok_or_else(|| bad(format!("\"{key}\" must be an integer in 0..2^53")))
            };
            // A machine dimension: a `u32` (`check_machine` bounds it).
            let dim = || -> Result<u32, ArmdseError> {
                u32::try_from(uint()?).map_err(|_| bad(format!("\"{key}\" must be in 1..2^32")))
            };
            match key.as_str() {
                "configs" => {
                    spec.configs = uint()? as usize;
                    have_configs = true;
                }
                "scale" => {
                    let s = val
                        .as_str()
                        .ok_or_else(|| bad("\"scale\" must be a string".into()))?;
                    spec.scale = WorkloadScale::parse(s)
                        .ok_or_else(|| bad(format!("unknown scale \"{s}\"")))?;
                }
                "seed" => spec.seed = uint()?,
                "threads" => spec.threads = (uint()? as usize).max(1),
                "apps" => {
                    let arr = val
                        .as_array()
                        .ok_or_else(|| bad("\"apps\" must be an array".into()))?;
                    spec.apps = arr
                        .iter()
                        .map(|a| {
                            a.as_str()
                                .and_then(App::parse)
                                .ok_or_else(|| bad(format!("unknown app {a:?}")))
                        })
                        .collect::<Result<Vec<App>, ArmdseError>>()?;
                }
                "pins" => {
                    let m = val
                        .as_object()
                        .ok_or_else(|| bad("\"pins\" must be an object".into()))?;
                    spec.pins = m
                        .iter()
                        .map(|(n, pv)| {
                            pv.as_f64()
                                .map(|f| (n.clone(), f))
                                .ok_or_else(|| bad(format!("pin \"{n}\" must be a number")))
                        })
                        .collect::<Result<Vec<(String, f64)>, ArmdseError>>()?;
                }
                "chunk_jobs" => spec.chunk_jobs = (uint()? as usize).max(1),
                "cores" => spec.cores = dim()?,
                "banks" => spec.banks = dim()?,
                "priority" => {
                    let n = val
                        .as_f64()
                        .ok_or_else(|| bad("\"priority\" must be an integer".into()))?;
                    if n.fract() != 0.0 || !(i64::MIN as f64..=i64::MAX as f64).contains(&n) {
                        return Err(bad("\"priority\" must be an integer".into()));
                    }
                    spec.priority = n as i64;
                }
                "metrics" => {
                    spec.metrics = val
                        .as_bool()
                        .ok_or_else(|| bad("\"metrics\" must be a boolean".into()))?;
                }
                other => return Err(bad(format!("unknown key \"{other}\""))),
            }
        }
        if !have_configs {
            return Err(bad("missing required key \"configs\"".into()));
        }
        spec.check_machine()?;
        Ok(spec)
    }
}

/// A machine-readable snapshot of one job's position and state: what
/// `GET /jobs/<id>` returns, and what every scheduler operation hands
/// back. Values are consistent with each other (taken under one lock).
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// Scheduling priority (higher first).
    pub priority: i64,
    /// Total simulation jobs in the plan (`configs × apps`).
    pub total_jobs: usize,
    /// Simulation jobs completed (always a chunk boundary).
    pub jobs_done: usize,
    /// Validated rows streamed so far.
    pub rows: usize,
    /// Validation-failed runs so far.
    pub discarded: usize,
    /// Error message (`Failed` jobs only).
    pub error: Option<String>,
    /// Global sequence stamp when a runner picked the job up (None if
    /// it never started). Monotone across the store: pins execution
    /// order in tests.
    pub started_seq: Option<u64>,
    /// Change counter: bumped on every state or progress transition.
    /// Streamers wait for it to move instead of polling blindly.
    pub version: u64,
}

/// The wire-format status object, one line.
impl ToJson for JobStatus {
    fn write_json(&self, out: &mut String, depth: usize) {
        let doc = json::object(Layout::Spaced, |o| {
            o.field("id", self.id);
            o.field("state", self.state.tag());
            o.field("priority", self.priority);
            o.field("total_jobs", self.total_jobs);
            o.field("jobs_done", self.jobs_done);
            o.field("rows", self.rows);
            o.field("discarded", self.discarded);
            o.field("error", self.error.as_deref());
            o.field("version", self.version);
        });
        doc.write_json(out, depth);
    }
}

impl JobStatus {
    /// Serialize as the wire-format status object.
    pub fn to_json(&self) -> String {
        self.render()
    }

    /// Parse a wire-format status object (the client side).
    pub fn from_json(body: &str) -> Result<JobStatus, String> {
        let v = parse_json(body)?;
        let obj = v.as_object().ok_or("status must be a JSON object")?;
        let uint = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric \"{key}\""))
        };
        let state_tag = obj
            .get("state")
            .and_then(Json::as_str)
            .ok_or("missing \"state\"")?;
        let state = JobState::parse(state_tag).ok_or_else(|| format!("bad state {state_tag:?}"))?;
        Ok(JobStatus {
            id: uint("id")?,
            state,
            priority: obj
                .get("priority")
                .and_then(Json::as_f64)
                .ok_or("missing \"priority\"")? as i64,
            total_jobs: uint("total_jobs")? as usize,
            jobs_done: uint("jobs_done")? as usize,
            rows: uint("rows")? as usize,
            discarded: uint("discarded")? as usize,
            error: obj.get("error").and_then(Json::as_str).map(str::to_string),
            started_seq: None,
            version: uint("version").unwrap_or(0),
        })
    }
}

/// Why a pause/resume/cancel request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOpError {
    /// No job with this id exists in the store.
    Unknown(JobId),
    /// The job's current state does not admit the requested operation.
    BadTransition {
        /// Target job.
        id: JobId,
        /// State the job was in when the request arrived.
        state: JobState,
        /// The refused operation (`"pause"` / `"resume"` / `"cancel"`).
        op: &'static str,
    },
}

impl fmt::Display for JobOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOpError::Unknown(id) => write!(f, "unknown job {id}"),
            JobOpError::BadTransition { id, state, op } => {
                write!(f, "cannot {op} job {id} in state {state}")
            }
        }
    }
}

impl std::error::Error for JobOpError {}

/// Mutable position/state of a job, guarded by the job's mutex.
#[derive(Debug, Clone)]
pub(crate) struct JobInner {
    pub(crate) state: JobState,
    /// The one stop request a `Running` job carries: the state it is
    /// to leave the run loop in at its next chunk boundary — `Paused`
    /// or `Cancelled`, and a pending cancel is never downgraded.
    /// Cleared by every [`Job::transition`].
    pub(crate) stop: Option<JobState>,
    pub(crate) jobs_done: usize,
    pub(crate) rows: usize,
    pub(crate) discarded: usize,
    pub(crate) error: Option<String>,
    pub(crate) started_seq: Option<u64>,
    pub(crate) version: u64,
}

/// One submitted campaign: its spec, where it lives on disk, its state
/// (plan, engine and sinks belong to a run: see the module docs).
pub struct Job {
    id: JobId,
    spec: JobSpec,
    files: CampaignFiles,
    /// `configs × apps` of the plan the spec validated into.
    total_jobs: usize,
    pub(crate) inner: Mutex<JobInner>,
    pub(crate) cv: Condvar,
}

impl Job {
    /// Job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The submitted spec.
    pub(crate) fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The job's dataset CSV, checkpoint and (for `metrics` jobs)
    /// metrics CSV.
    pub fn files(&self) -> &CampaignFiles {
        &self.files
    }

    fn spec_path(&self) -> PathBuf {
        self.files.csv.with_extension("spec.json")
    }

    fn state_path(&self) -> PathBuf {
        self.files.csv.with_extension("state")
    }

    /// Consistent status snapshot.
    pub fn status(&self) -> JobStatus {
        let inner = self.inner.lock().expect("job lock poisoned");
        self.status_locked(&inner)
    }

    pub(crate) fn status_locked(&self, inner: &JobInner) -> JobStatus {
        JobStatus {
            id: self.id,
            state: inner.state,
            priority: self.spec.priority,
            total_jobs: self.total_jobs,
            jobs_done: inner.jobs_done,
            rows: inner.rows,
            discarded: inner.discarded,
            error: inner.error.clone(),
            started_seq: inner.started_seq,
            version: inner.version,
        }
    }

    /// Block until the job reaches a terminal state.
    pub fn wait_terminal(&self) -> JobStatus {
        let mut inner = self.inner.lock().expect("job lock poisoned");
        while !inner.state.is_terminal() {
            inner = self.cv.wait(inner).expect("job lock poisoned");
        }
        self.status_locked(&inner)
    }

    /// Block until the status `version` moves past `last_version`, the
    /// job is already past it, or `timeout` elapses; returns the
    /// current snapshot either way. The streaming endpoints drive their
    /// read loop off this instead of sleeping blind.
    pub fn wait_change(&self, last_version: u64, timeout: Duration) -> JobStatus {
        let mut inner = self.inner.lock().expect("job lock poisoned");
        if inner.version == last_version && !inner.state.is_terminal() {
            let (guard, _) = self
                .cv
                .wait_timeout(inner, timeout)
                .expect("job lock poisoned");
            inner = guard;
        }
        self.status_locked(&inner)
    }

    /// The one state transition: enter `state`, drop any pending stop
    /// request, and — exactly when `state` is terminal — write the
    /// marker (with `inner.error`, which a failing caller sets first);
    /// then bump `version` and wake waiters.
    pub(crate) fn transition(&self, inner: &mut JobInner, state: JobState) {
        inner.state = state;
        inner.stop = None;
        if state.is_terminal() {
            self.persist_terminal(state, inner.error.as_deref());
        }
        inner.version += 1;
        self.cv.notify_all();
    }

    /// Record a terminal state marker atomically, so a restarted store
    /// recovers the exact state. Best-effort: the in-memory state is
    /// already final, so a failed write is reported, not returned.
    fn persist_terminal(&self, state: JobState, error: Option<&str>) {
        debug_assert!(state.is_terminal());
        let body = match error {
            Some(e) => format!("{}\n{e}\n", state.tag()),
            None => format!("{}\n", state.tag()),
        };
        let path = self.state_path();
        if let Err(e) = durable::replace(&path, &body) {
            eprintln!("[jobstore] could not write {}: {e}", path.display());
        }
    }
}

/// The job registry: assigns ids, owns every [`Job`], and rebuilds
/// itself from its directory on restart.
pub struct JobStore {
    dir: PathBuf,
    jobs: Mutex<BTreeMap<JobId, Arc<Job>>>,
    next_id: AtomicU64,
    seq: AtomicU64,
}

impl JobStore {
    /// Open (or create) a store at `dir` over the paper's parameter
    /// space, recovering any jobs already on disk: terminal jobs keep
    /// their recorded state; a job whose spec does not parse or plan
    /// returns as `Failed`; everything else returns as `Paused` at its
    /// checkpointed position, ready for an explicit resume.
    pub fn open(dir: &Path) -> Result<JobStore, ArmdseError> {
        std::fs::create_dir_all(dir)?;
        let store = JobStore {
            dir: dir.to_path_buf(),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            seq: AtomicU64::new(1),
        };
        // Every `job-<N>.*` file claims id N, whether or not its spec
        // still parses: a job's files must not be inherited by the next
        // submission.
        let mut max_id = 0;
        let mut specs: Vec<(JobId, String)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let Ok(name) = entry?.file_name().into_string() else {
                continue;
            };
            let Some((id, ext)) = name.strip_prefix("job-").and_then(|n| n.split_once('.')) else {
                continue;
            };
            let Ok(id) = id.parse::<JobId>() else {
                continue;
            };
            max_id = max_id.max(id);
            if ext == "spec.json" {
                specs.push((id, name));
            }
        }
        specs.sort();
        for (id, name) in specs {
            let body = std::fs::read_to_string(dir.join(&name))?;
            // A spec this build cannot run — one it no longer parses (a
            // retired key, say) or whose plan it refuses (a pin out of
            // range) — is still listed: it could never resume, so
            // without a terminal marker it reopens Failed with that
            // error. An unparsable one keeps a placeholder spec; nothing
            // is written, so restoring the file brings the job back.
            let (spec, plan) = match JobSpec::from_json(&body) {
                Ok(spec) => {
                    let plan = spec.plan(&ParamSpace::paper());
                    (spec, plan.map(|p| p.jobs()).map_err(|e| e.to_string()))
                }
                Err(e) => (JobSpec::default(), Err(format!("{name}: {e}"))),
            };
            let job = store.build_job(id, spec, *plan.as_ref().unwrap_or(&0));
            // Recover position from the checkpoint and state from the
            // terminal marker (absent marker => Paused, resumable).
            {
                let mut inner = job.inner.lock().expect("job lock poisoned");
                if let Ok(c) = Checkpoint::load(&job.files.checkpoint) {
                    inner.jobs_done = c.jobs_done;
                    inner.rows = c.rows;
                    inner.discarded = c.discarded;
                }
                inner.state = JobState::Paused;
                if let Err(e) = plan {
                    (inner.state, inner.error) = (JobState::Failed, Some(e));
                }
                if let Ok(marker) = std::fs::read_to_string(job.state_path()) {
                    let mut lines = marker.lines();
                    if let Some(state) = lines.next().and_then(JobState::parse) {
                        inner.state = state;
                        if state == JobState::Failed {
                            inner.error = Some(lines.collect::<Vec<_>>().join("\n"));
                        }
                    }
                }
            }
            store
                .jobs
                .lock()
                .expect("store lock poisoned")
                .insert(id, job);
        }
        store.next_id.store(max_id + 1, Ordering::Relaxed);
        Ok(store)
    }

    /// The store directory.
    #[cfg(test)]
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// A `Queued` job `id` over `spec`, whose plan has `total_jobs`.
    fn build_job(&self, id: JobId, spec: JobSpec, total_jobs: usize) -> Arc<Job> {
        let slot = |ext: &str| self.dir.join(format!("job-{id}.{ext}"));
        let files = CampaignFiles {
            csv: slot("csv"),
            checkpoint: slot("ckpt"),
            metrics: spec.metrics.then(|| slot("metrics.csv")),
        };
        Arc::new(Job {
            id,
            spec,
            files,
            total_jobs,
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                stop: None,
                jobs_done: 0,
                rows: 0,
                discarded: 0,
                error: None,
                started_seq: None,
                version: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Validate `spec`, assign an id, persist the spec, and register
    /// the job as `Queued`. (Submission is the scheduler's job — it
    /// calls this and then enqueues.)
    pub fn create(&self, spec: JobSpec) -> Result<Arc<Job>, ArmdseError> {
        let total_jobs = spec.plan(&ParamSpace::paper())?.jobs();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = self.build_job(id, spec, total_jobs);
        durable::replace(&job.spec_path(), &job.spec.to_json())?;
        self.jobs
            .lock()
            .expect("store lock poisoned")
            .insert(id, Arc::clone(&job));
        Ok(job)
    }

    /// Look up one job.
    pub fn get(&self, id: JobId) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .expect("store lock poisoned")
            .get(&id)
            .cloned()
    }

    /// All jobs, id-ascending.
    pub fn list(&self) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .expect("store lock poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Per-state job counts (the `/stats` endpoint's `jobs` object).
    pub fn state_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for job in self.list() {
            *counts.entry(job.status().state.tag()).or_insert(0) += 1;
        }
        counts
    }

    /// Next global sequence stamp (orders job starts).
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            configs: 3,
            scale: WorkloadScale::Tiny,
            seed: 11,
            threads: 2,
            apps: vec![App::Stream, App::TeaLeaf],
            pins: vec![("Vector-Length".into(), 128.0)],
            chunk_jobs: 4,
            priority: 7,
            metrics: true,
            cores: 1,
            banks: DEFAULT_BANKS,
        }
    }

    #[test]
    fn spec_round_trips_through_wire_json() {
        let s = spec();
        let back = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // A multicore machine shape round-trips too.
        let s3 = JobSpec {
            cores: 2,
            banks: 4,
            ..spec()
        };
        assert_eq!(JobSpec::from_json(&s3.to_json()).unwrap(), s3);
    }

    #[test]
    fn default_topology_keeps_the_wire_bytes() {
        // A single-core spec must not mention cores/banks at all, so
        // pre-multicore clients and stored specs stay byte-compatible.
        let wire = spec().to_json();
        assert!(!wire.contains("cores"), "{wire}");
        assert!(!wire.contains("banks"), "{wire}");
    }

    #[test]
    fn multicore_spec_is_validated() {
        // cores/banks must be positive.
        assert!(JobSpec::from_json("{\"configs\": 2, \"cores\": 0}").is_err());
        assert!(JobSpec::from_json("{\"configs\": 2, \"banks\": 0}").is_err());
        // ... and fit the `u32` they are stored in: 2^32 + 1 is not a
        // one-core job.
        let e = JobSpec::from_json("{\"configs\": 2, \"cores\": 4294967297}").unwrap_err();
        assert!(e.to_string().contains("\"cores\""), "{e}");
        let e = JobSpec::from_json("{\"configs\": 2, \"banks\": 4294967296}").unwrap_err();
        assert!(e.to_string().contains("\"banks\""), "{e}");
        // And a valid multicore spec builds a multicore engine.
        let s = JobSpec::from_json("{\"configs\": 2, \"cores\": 2, \"banks\": 4}").unwrap();
        assert_eq!(s.topology(), MultiCore::new(2, 4));
        assert_eq!(s.engine().backend().topology(), s.topology());
        // The default shape, spelled or not, is the paper's machine.
        for body in [
            "{\"configs\": 2}",
            "{\"configs\": 2, \"cores\": 1, \"banks\": 8}",
        ] {
            let d = JobSpec::from_json(body).unwrap();
            assert_eq!(d.topology(), MultiCore::IDEALIZED, "{body}");
            assert_eq!(d.engine().backend().topology(), MultiCore::IDEALIZED);
        }
    }

    #[test]
    fn campaign_and_topology_keys_are_bounded() {
        // Each key at its bound parses; one past it is refused, naming
        // the key. Parse level only: none of these specs is run.
        for (key, max) in [
            ("threads", 8192u64),
            ("chunk_jobs", 65536),
            ("cores", 64),
            ("banks", 1024),
        ] {
            let body = |n: u64| format!("{{\"configs\": 1, \"{key}\": {n}}}");
            assert!(JobSpec::from_json(&body(max)).is_ok(), "{key} {max}");
            let e = JobSpec::from_json(&body(max + 1)).unwrap_err().to_string();
            assert!(
                e.contains(&format!("\"{key}\" must be in 1..={max}")),
                "{e}"
            );
        }
        // A spec asking a runner for 10^5 threads is refused before any
        // runner sees it.
        let probe = "{\"configs\": 1, \"threads\": 100000, \"chunk_jobs\": 100000}";
        assert!(JobSpec::from_json(probe).is_err());
        // Whatever this host reports, `repro`'s default passes.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let host = JobSpec {
            configs: 1,
            threads,
            ..JobSpec::default()
        };
        host.check_machine().unwrap();
    }

    #[test]
    fn spec_parser_is_strict() {
        assert!(JobSpec::from_json("[]").is_err());
        assert!(JobSpec::from_json("{").is_err());
        // configs is required.
        let e = JobSpec::from_json("{\"seed\": 1}").unwrap_err();
        assert!(e.to_string().contains("configs"), "{e}");
        // Unknown keys are rejected, not ignored.
        let e = JobSpec::from_json("{\"configs\": 2, \"confgs\": 3}").unwrap_err();
        assert!(e.to_string().contains("confgs"), "{e}");
        // So is a repeated key: whichever value ran, the other was
        // ignored.
        let e = JobSpec::from_json("{\"configs\": 4, \"configs\": 4000}").unwrap_err();
        assert!(e.to_string().contains("duplicate key \"configs\""), "{e}");
        // Ill-typed values are rejected.
        assert!(JobSpec::from_json("{\"configs\": \"two\"}").is_err());
        assert!(JobSpec::from_json("{\"configs\": 2, \"apps\": [\"nope\"]}").is_err());
        assert!(JobSpec::from_json("{\"configs\": 2, \"scale\": \"huge\"}").is_err());
        assert!(JobSpec::from_json("{\"configs\": 2, \"fidelity\": \"best\"}").is_err());
        // The tier key earlier binaries stored in every spec, the
        // approximate tier's warmup key and the interval tier's length
        // are gone from the wire, whatever their value.
        let plain = JobSpec::from_json("{\"configs\": 2, \"cores\": 2}").unwrap();
        assert!(!plain.to_json().contains("fidelity"));
        for tier in ["full", "memoized", "sampled"] {
            let body = format!("{{\"configs\": 2, \"cores\": 2, \"fidelity\": \"{tier}\"}}");
            let e = JobSpec::from_json(&body).unwrap_err();
            assert!(e.to_string().contains("unknown key \"fidelity\""), "{e}");
        }
        let e = JobSpec::from_json("{\"configs\": 2, \"warmup\": 1}").unwrap_err();
        assert!(e.to_string().contains("unknown key \"warmup\""), "{e}");
        let e = JobSpec::from_json("{\"configs\": 2, \"interval_len\": 64}").unwrap_err();
        assert!(
            e.to_string().contains("unknown key \"interval_len\""),
            "{e}"
        );
        // An integer the f64-backed parser would round (…993 reads back
        // as …992) is refused, not run under a different seed.
        let e = JobSpec::from_json("{\"configs\": 2, \"seed\": 9007199254740993}").unwrap_err();
        assert!(e.to_string().contains("\"seed\""), "{e}");
        let s = JobSpec::from_json("{\"configs\": 2, \"seed\": 9007199254740991}").unwrap();
        assert_eq!(s.seed, (1 << 53) - 1);
    }

    #[test]
    fn minimal_spec_takes_defaults() {
        let s = JobSpec::from_json("{\"configs\": 5}").unwrap();
        assert_eq!(s.configs, 5);
        assert_eq!(s.scale, WorkloadScale::Standard);
        assert_eq!(s.apps, App::ALL.to_vec());
        assert_eq!(s.engine().backend().name(), "idealized");
        assert_eq!(s.priority, 0);
        assert!(!s.metrics);
    }

    /// docs/SERVER.md's job-spec example, `//` comments stripped, is a
    /// spec the parser accepts, and it names exactly the keys
    /// `to_json` writes for it: a key the wire dropped, or one it
    /// gained, fails here until the document follows.
    #[test]
    fn the_documented_job_spec_example_matches_the_wire() {
        let doc = include_str!("../../../docs/SERVER.md");
        let section = doc
            .split_once("## JobSpec")
            .and_then(|(_, rest)| rest.split_once("```json\n"))
            .and_then(|(_, rest)| rest.split_once("```"))
            .expect("SERVER.md has a JobSpec json example")
            .0;
        let example: String = section
            .lines()
            .map(|line| line.split_once("//").map_or(line, |(code, _)| code))
            .collect::<Vec<_>>()
            .join("\n");
        let spec = JobSpec::from_json(&example).unwrap_or_else(|e| panic!("{e}\n{example}"));
        let keys = |body: &str| -> Vec<String> {
            let json = parse_json(body).unwrap();
            json.as_object().unwrap().keys().cloned().collect()
        };
        assert_eq!(keys(&example), keys(&spec.to_json()));
    }

    #[test]
    fn status_round_trips_through_wire_json() {
        let status = JobStatus {
            id: 9,
            state: JobState::Failed,
            priority: -2,
            total_jobs: 80,
            jobs_done: 40,
            rows: 39,
            discarded: 1,
            error: Some("checkpoint error: boom".into()),
            started_seq: None,
            version: 12,
        };
        let back = JobStatus::from_json(&status.to_json()).unwrap();
        assert_eq!(back, status);
    }

    #[test]
    fn store_assigns_ascending_ids() {
        let dir = std::env::temp_dir().join("armdse_jobstore_ids");
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        let a = store.create(spec()).unwrap();
        let b = store.create(spec()).unwrap();
        assert!(a.id() < b.id());
        assert_eq!(store.list().len(), 2);
        assert_eq!(store.get(a.id()).unwrap().id(), a.id());
        assert!(store.get(999).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rejects_invalid_specs() {
        let dir = std::env::temp_dir().join("armdse_jobstore_invalid");
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        let err = match store.create(JobSpec {
            configs: 0,
            ..spec()
        }) {
            Err(e) => e,
            Ok(_) => panic!("configs == 0 must be rejected"),
        };
        assert!(matches!(err, ArmdseError::InvalidPlan(_)), "{err}");
        assert!(store.list().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_store_recovers_specs_states_and_positions() {
        let dir = std::env::temp_dir().join("armdse_jobstore_reopen");
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        let a = store.create(spec()).unwrap();
        let b = store.create(spec()).unwrap();
        let c = store.create(spec()).unwrap();
        // a: done marker; b: failed marker; c: mid-campaign checkpoint.
        a.persist_terminal(JobState::Done, None);
        b.persist_terminal(JobState::Failed, Some("sim exploded"));
        Checkpoint {
            fingerprint: spec().plan(&ParamSpace::paper()).unwrap().fingerprint(),
            jobs_done: 4,
            rows: 4,
            discarded: 0,
            extra: Vec::new(),
        }
        .save(&c.files().checkpoint)
        .unwrap();
        let (ida, idb, idc) = (a.id(), b.id(), c.id());
        drop((a, b, c, store));

        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.list().len(), 3);
        assert_eq!(store.get(ida).unwrap().status().state, JobState::Done);
        let st_b = store.get(idb).unwrap().status();
        assert_eq!(st_b.state, JobState::Failed);
        assert_eq!(st_b.error.as_deref(), Some("sim exploded"));
        let st_c = store.get(idc).unwrap().status();
        assert_eq!(st_c.state, JobState::Paused);
        assert_eq!(st_c.jobs_done, 4);
        // Recovered specs are intact and new ids continue after the max.
        assert_eq!(store.get(idc).unwrap().spec(), &spec());
        let d = store.create(spec()).unwrap();
        assert!(d.id() > idc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_skipped_spec_keeps_its_id_and_its_files() {
        // job-2's spec is from an older binary (the interval tier's
        // `to_json`: a key the strict parser now refuses) and its
        // finished artifacts are still on disk.
        let dir = std::env::temp_dir().join("armdse_jobstore_skipped_id");
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).unwrap();
        store.create(spec()).unwrap();
        let old = store.create(spec()).unwrap();
        assert_eq!(old.id(), 2);
        let wire = spec().to_json();
        let wire = wire.replace("  \"metrics\"", "  \"interval_len\": 512,\n  \"metrics\"");
        assert!(JobSpec::from_json(&wire).is_err());
        std::fs::write(old.spec_path(), wire).unwrap();
        std::fs::write(&old.files().csv, "left over\n").unwrap();
        old.persist_terminal(JobState::Done, None);
        drop((old, store));

        let store = JobStore::open(&dir).unwrap();
        let kept = store.get(2).expect("the unparsable spec is listed");
        assert_eq!(kept.status().state, JobState::Done, "its marker is kept");
        let new = store.create(spec()).unwrap();
        assert_eq!(new.id(), 3, "id 2 is taken by the files on disk");
        assert!(!new.files().csv.exists(), "a new job starts with no files");
        drop((kept, new, store));
        // One more restart: the never-run job must not read as Done.
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.get(3).unwrap().status().state, JobState::Paused);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A spec an older binary stored with a pin the space now refuses
    /// is listed: Failed with the plan's error, or in the state its
    /// terminal marker records.
    #[test]
    fn a_stored_spec_the_plan_refuses_reopens_failed() {
        let dir = std::env::temp_dir().join("armdse_jobstore_refused_pin");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let body = "{\"configs\": 1, \"pins\": {\"Store-Queue-Size\": 1000}}";
        for id in [7, 8] {
            std::fs::write(dir.join(format!("job-{id}.spec.json")), body).unwrap();
        }
        std::fs::write(dir.join("job-8.state"), "done\n").unwrap();

        let store = JobStore::open(&dir).unwrap();
        let ids: Vec<JobId> = store.list().iter().map(|j| j.id()).collect();
        assert_eq!(ids, [7, 8]);
        let st = store.get(7).unwrap().status();
        assert_eq!(st.state, JobState::Failed);
        let error = st.error.expect("a failed job carries its error");
        assert!(
            error.contains("Store-Queue-Size") && error.contains("[4, 512]"),
            "{error}"
        );
        assert_eq!(store.get(8).unwrap().status().state, JobState::Done);
        assert_eq!(store.create(spec()).unwrap().id(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
