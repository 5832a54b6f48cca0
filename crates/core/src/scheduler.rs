//! The scheduler layer: the campaign run loop, extracted and shared.
//!
//! The middle of the three run-path layers (DESIGN.md §14): it owns the
//! mechanics of *executing* a validated [`RunPlan`] — chunk
//! partitioning, worker-thread fan-out, checkpoint cadence, the
//! observer/pause hook — and a [`JobScheduler`] that drives many
//! [`Job`]s through that loop from a priority queue.
//!
//! * `run_span` executes one chunk of jobs across the campaign's worker
//!   threads and returns results sorted by job index (the determinism
//!   keystone: threads race on an atomic counter, order is restored
//!   before the sink sees anything). It validates the chunk's design
//!   points first, so an out-of-range pin fails the campaign instead of
//!   panicking a worker.
//! * `run_job_loop` is the one resumable campaign loop and the only
//!   function that saves a checkpoint. Its `threads - 1` helper workers
//!   live for the whole campaign (their machine storage stays warm),
//!   parked while the calling thread writes the sink, saves the
//!   checkpoint and calls the observer. [`Engine::run_controlled`]
//!   is a thin wrapper over it with the same signature, and its only caller,
//!   so `repro`, the analysis harnesses and the job server run the
//!   exact same code path — and so does the adaptive Explorer, whose
//!   rounds are the campaign's sink: when the plan runs out the loop
//!   asks the sink for the next batch
//!   ([`crate::engine::RowSink::next_batch`]), extends its own copy of
//!   the plan, and checkpoints the sink's state with the chunk (a fixed
//!   sweep's sink answers empty).
//! * [`JobScheduler`] owns runner threads and a priority queue of
//!   submitted jobs ([`crate::jobstore`]), with cooperative pause and
//!   cancel implemented via the observer hook the engine already had.
//!   A runner builds a job's plan and engine when it claims the job
//!   and drops them, with the sinks, when the run session stops.
//!
//! ## Queue discipline
//!
//! The queue pops the highest `priority` first and breaks ties by job
//! id ascending (submission order). Both halves are deterministic: the
//! same submissions always start in the same order
//! (`tests/server_jobs.rs` pins this). Cancelled or paused entries are
//! removed lazily — a popped id whose job is no longer `Queued` is
//! simply skipped, so stale heap entries are harmless.
//!
//! ## Pause / cancel semantics
//!
//! Pause and cancel are cooperative and chunk-granular. A `Running`
//! job carries one stop request (none | pause | cancel), read by the
//! run loop's observer, the last step of every chunk boundary
//! (DESIGN.md §10), so a paused or cancelled job always leaves a
//! loadable checkpoint and a CSV that is byte-identical to a prefix of
//! the uninterrupted run. A cancel outranks a pause and
//! cannot be rescinded: `resume` takes back a pending pause only. A
//! `Queued` job pauses or cancels immediately (it never ran). Every
//! state change goes through `Job::transition`, which writes the
//! terminal marker exactly when the new state is terminal.

use crate::config::DesignConfig;
use crate::dataset::{DiscardedRun, Row};
use crate::engine::{
    Checkpoint, Engine, Progress, ReuseMode, RowSink, RunControl, RunPlan, RunSummary,
};
use crate::error::ArmdseError;
use crate::jobstore::{Job, JobId, JobOpError, JobSpec, JobState, JobStatus, JobStore};
use crate::metrics::MetricsRow;
use crate::space::ParamSpace;
use armdse_simcore::{MultiCore, RunMode};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One job's chunk result: index, dataset outcome, and its metrics rows
/// (aggregate first, then per-core detail on multicore backends; none
/// on a plain run).
pub(crate) type ChunkResult = (usize, Result<Row, DiscardedRun>, Vec<MetricsRow>);

/// The checkpoint extra keys recording the machine shape. The paper's
/// machine maps to no keys at all, so default campaigns keep their
/// checkpoint bytes; every other shape is keyed.
fn engine_extra(t: MultiCore) -> Vec<(String, String)> {
    if t == MultiCore::IDEALIZED {
        return Vec::new();
    }
    vec![
        ("mc.cores".into(), t.cores.to_string()),
        ("mc.banks".into(), t.banks.to_string()),
    ]
}

/// A span's work, run by the calling thread and every helper at once.
type Work<'e> = Arc<dyn Fn() -> Vec<ChunkResult> + Send + Sync + 'e>;

/// The campaign's helpers: a channel to each, down which it waits parked
/// for the next span's work, and one back for the results (or panic).
struct Helpers<'e> {
    work: Vec<Sender<Work<'e>>>,
    done: Receiver<std::thread::Result<Vec<ChunkResult>>>,
}

/// Execute jobs `start..end` of `plan` on `engine`, each in `mode`, on
/// the calling thread and every helper, returning results sorted by job
/// index; a helper's panic is re-raised here. The span's design points
/// are sampled and validated up front, so the first invalid one in job
/// order ends the campaign ([`RunPlan::design_point`]).
fn run_span<'e>(
    engine: &'e Engine,
    plan: &RunPlan,
    helpers: &Helpers<'e>,
    start: usize,
    end: usize,
    mode: RunMode,
) -> Result<Vec<ChunkResult>, ArmdseError> {
    let (apps, scale) = (plan.apps().to_vec(), plan.scale());
    let first_cfg = start / apps.len();
    let configs = (first_cfg..=(end - 1) / apps.len())
        .map(|cfg_idx| plan.design_point(cfg_idx))
        .collect::<Result<Vec<DesignConfig>, ArmdseError>>()?;
    let counter = AtomicUsize::new(start);

    // Owns what it reads: the plan may grow while a helper holds it.
    let work: Work<'e> = Arc::new(move || {
        let mut local: Vec<ChunkResult> = Vec::new();
        loop {
            let job = counter.fetch_add(1, Ordering::Relaxed);
            if job >= end {
                break;
            }
            let cfg_idx = job / apps.len();
            let app = apps[job % apps.len()];
            let cfg = &configs[cfg_idx - first_cfg];
            let (result, metrics_rows) = engine.run_job(app, job, cfg_idx, scale, cfg, mode);
            local.push((job, result, metrics_rows));
        }
        local
    });
    for helper in &helpers.work {
        helper.send(Arc::clone(&work)).expect("span helper alive");
    }
    let mut collected = work();
    for _ in &helpers.work {
        match helpers.done.recv().expect("span helper alive") {
            Ok(mut results) => collected.append(&mut results),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    collected.sort_unstable_by_key(|(job, ..)| *job);
    Ok(collected)
}

/// `run_chunks` with the campaign's `threads - 1` helpers (at most a
/// chunk's jobs) spawned once: they keep their machine storage across
/// chunks as the calling thread does (`memsim::Cache`), and return when
/// the loop ends, however it ends, and drops their channels.
pub(crate) fn run_job_loop(
    engine: &Engine,
    plan: &RunPlan,
    sink: &mut dyn RowSink,
    ctl: RunControl<'_>,
) -> Result<RunSummary, ArmdseError> {
    std::thread::scope(|s| {
        let (done_tx, done) = mpsc::channel();
        let work = (1..plan.threads().clamp(1, plan.chunk_jobs()))
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Work<'_>>();
                let done_tx = done_tx.clone();
                s.spawn(move || {
                    for work in rx {
                        let _ = done_tx.send(panic::catch_unwind(AssertUnwindSafe(|| work())));
                    }
                });
                tx
            })
            .collect();
        run_chunks(engine, plan, &Helpers { work, done }, sink, ctl)
    })
}

/// The resumable campaign loop (the module docs say who runs it):
/// chunk partitioning, checkpoint cadence, machine-shape guard, the
/// sink's batches, the observer/pause hook.
///
/// Each chunk boundary follows DESIGN.md §10's write order, the plan
/// extended by a non-empty `next_batch` first. So a checkpoint's
/// `fingerprint` is that of the plan so far, `jobs_done`/`rows` are
/// cumulative, and a steered campaign is at `jobs_done == plan.jobs()`
/// only once its sink answered "no more".
fn run_chunks<'e>(
    engine: &'e Engine,
    plan: &RunPlan,
    helpers: &Helpers<'e>,
    sink: &mut dyn RowSink,
    mut ctl: RunControl<'_>,
) -> Result<RunSummary, ArmdseError> {
    // A steered campaign grows its own copy of the plan (cloned at the
    // first extension); a fixed sweep only ever borrows the caller's.
    let mut plan = Cow::Borrowed(plan);
    let mut total_jobs = plan.jobs();
    let mut fingerprint = plan.fingerprint();
    // Machine-shape keys ride along in the checkpoint's extra section so
    // a resume cannot silently splice rows produced on a different
    // machine into one dataset.
    let machine_extra = engine_extra(engine.backend().topology());
    let mut done = 0usize;
    let mut resumed_from = 0usize;
    let (mut prior_rows, mut prior_discarded) = (0usize, 0usize);
    if let Some(c) = &ctl.position {
        let path = ctl.checkpoint.ok_or_else(|| {
            ArmdseError::InvalidPlan("resume requested without a checkpoint path".into())
        })?;
        if c.fingerprint != fingerprint {
            return Err(ArmdseError::Checkpoint(format!(
                "{}: fingerprint {:016x} does not match plan {:016x} — \
                 refusing to resume a different campaign",
                path.display(),
                c.fingerprint,
                fingerprint
            )));
        }
        if c.jobs_done > total_jobs {
            return Err(ArmdseError::Checkpoint(format!(
                "{}: jobs_done {} exceeds plan total {total_jobs}",
                path.display(),
                c.jobs_done
            )));
        }
        for key in ["reuse.fidelity", "mc.cores", "mc.banks"] {
            let want = machine_extra
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str());
            // No engine writes `reuse.fidelity`; it stays checked so a
            // checkpoint an earlier binary left naming its tier is
            // refused, never spliced.
            if c.extra_get(key) != want {
                return Err(ArmdseError::Checkpoint(format!(
                    "{}: {key} {:?} does not match this engine's {:?} — \
                     refusing to mix fidelity tiers or machine shapes \
                     in one dataset",
                    path.display(),
                    c.extra_get(key),
                    want
                )));
            }
        }
        // The re-run starts at the checkpoint, so the sink's streams
        // must end there too before the first appended byte.
        sink.resume_at(c)?;
        done = c.jobs_done;
        resumed_from = done;
        prior_rows = c.rows;
        prior_discarded = c.discarded;
    }
    if ctl.reuse == ReuseMode::ColdStart {
        engine.backend().clear_reuse_cache();
    }

    let mode = if sink.wants_metrics() {
        RunMode::Metrics
    } else {
        RunMode::Plain
    };
    let (mut rows, mut discarded) = (0usize, 0usize);
    while done < total_jobs {
        let end = (done + plan.chunk_jobs()).min(total_jobs);
        for (_, result, metrics_rows) in run_span(engine, &plan, helpers, done, end, mode)? {
            match result {
                Ok(row) => {
                    sink.row(&row)?;
                    rows += 1;
                }
                Err(d) => {
                    sink.discarded(&d)?;
                    discarded += 1;
                }
            }
            for m in &metrics_rows {
                sink.metrics(m)?;
            }
        }
        done = end;
        if done == total_jobs {
            let batch = sink.next_batch()?;
            if !batch.is_empty() {
                plan.to_mut().extend_config_indices(batch);
                total_jobs = plan.jobs();
                fingerprint = plan.fingerprint();
            }
        }
        sink.chunk_end()?;
        if let Some(path) = ctl.checkpoint {
            let mut extra = machine_extra.clone();
            extra.extend(sink.state());
            Checkpoint {
                fingerprint,
                jobs_done: done,
                rows: prior_rows + rows,
                discarded: prior_discarded + discarded,
                extra,
            }
            .save(path)?;
        }
        let progress = Progress {
            jobs_done: done,
            total_jobs,
            rows: prior_rows + rows,
            discarded: prior_discarded + discarded,
            reuse: engine.backend().reuse_stats(),
        };
        if let Some(observer) = ctl.observer.as_deref_mut() {
            if !observer(&progress) {
                break; // paused — unless that was the last chunk
            }
        }
    }
    Ok(RunSummary {
        jobs: total_jobs,
        jobs_done: done,
        rows,
        discarded,
        resumed_from,
        completed: done == total_jobs,
    })
}

/// Max-heap key: highest priority first, job-id ascending on ties
/// (the derived order compares the fields top to bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueueKey {
    priority: i64,
    id: Reverse<JobId>,
}

struct Shared {
    store: Arc<JobStore>,
    queue: Mutex<BinaryHeap<QueueKey>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// Runner-thread pool plus priority queue over a [`JobStore`]: the
/// execution half of the DSE service. Submitted jobs queue by
/// `(priority desc, id asc)`; each runner pops one, claims it
/// (`Queued → Running`), and runs it on an engine, a plan and sinks
/// built for that one run session. [`JobScheduler::shutdown`]
/// pauses running jobs at their next chunk boundary and joins every
/// runner, so process exit always leaves resumable state on disk.
pub struct JobScheduler {
    shared: Arc<Shared>,
    runners: Mutex<Vec<JoinHandle<()>>>,
}

impl JobScheduler {
    /// A scheduler over `store` with `runners` runner threads (0 is
    /// valid: jobs queue until [`JobScheduler::add_runners`]).
    pub(crate) fn new(store: Arc<JobStore>, runners: usize) -> JobScheduler {
        let sched = JobScheduler {
            shared: Arc::new(Shared {
                store,
                queue: Mutex::new(BinaryHeap::new()),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            runners: Mutex::new(Vec::new()),
        };
        sched.add_runners(runners);
        sched
    }

    /// Convenience: open (or create) the store at `dir` and schedule
    /// over it.
    pub fn open(dir: &Path, runners: usize) -> Result<JobScheduler, ArmdseError> {
        Ok(JobScheduler::new(Arc::new(JobStore::open(dir)?), runners))
    }

    /// The underlying job store.
    pub fn store(&self) -> &Arc<JobStore> {
        &self.shared.store
    }

    /// Spawn `n` additional runner threads.
    pub fn add_runners(&self, n: usize) {
        let mut runners = self.runners.lock().expect("runner list poisoned");
        for _ in 0..n {
            let shared = Arc::clone(&self.shared);
            let idx = runners.len();
            runners.push(
                std::thread::Builder::new()
                    .name(format!("armdse-runner-{idx}"))
                    .spawn(move || runner_loop(&shared))
                    .expect("spawn runner thread"),
            );
        }
    }

    /// Validate and persist `spec` as a new job and enqueue it.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, ArmdseError> {
        let job = self.shared.store.create(spec)?;
        self.enqueue(job.spec().priority, job.id());
        Ok(job)
    }

    fn enqueue(&self, priority: i64, id: JobId) {
        self.shared
            .queue
            .lock()
            .expect("queue poisoned")
            .push(QueueKey {
                priority,
                id: Reverse(id),
            });
        self.shared.cv.notify_one();
    }

    /// Request a pause. `Queued` jobs pause immediately; `Running` jobs
    /// stop at the next chunk boundary (their checkpoint already
    /// saved). Returns the status at the time of the request.
    pub fn pause(&self, id: JobId) -> Result<JobStatus, JobOpError> {
        self.request_stop(id, JobState::Paused, "pause")
    }

    /// Request cancellation. `Queued`/`Paused` jobs cancel immediately;
    /// `Running` jobs stop at the next chunk boundary. Either way the
    /// job's last checkpoint stays on disk and loadable.
    pub fn cancel(&self, id: JobId) -> Result<JobStatus, JobOpError> {
        self.request_stop(id, JobState::Cancelled, "cancel")
    }

    /// Stop job `id` in state `want` (`Paused` or `Cancelled`): a
    /// `Running` job records the request for its next chunk boundary,
    /// never downgrading a pending cancel; one that is not running
    /// goes there at once, unless it is already there or terminal.
    fn request_stop(
        &self,
        id: JobId,
        want: JobState,
        op: &'static str,
    ) -> Result<JobStatus, JobOpError> {
        let job = self.shared.store.get(id).ok_or(JobOpError::Unknown(id))?;
        let mut inner = job.inner.lock().expect("job lock poisoned");
        match inner.state {
            JobState::Running if inner.stop != Some(JobState::Cancelled) => inner.stop = Some(want),
            JobState::Running => {}
            JobState::Queued | JobState::Paused if inner.state != want => {
                job.transition(&mut inner, want)
            }
            state => return Err(JobOpError::BadTransition { id, state, op }),
        }
        Ok(job.status_locked(&inner))
    }

    /// Re-queue a `Paused` job (resume is byte-identical: the run loop
    /// continues from the job's checkpoint). Also rescinds a pause — but
    /// never a cancel — requested on a still-`Running` job.
    pub fn resume(&self, id: JobId) -> Result<JobStatus, JobOpError> {
        let job = self.shared.store.get(id).ok_or(JobOpError::Unknown(id))?;
        let mut inner = job.inner.lock().expect("job lock poisoned");
        match (inner.state, inner.stop) {
            (JobState::Paused, _) => {
                job.transition(&mut inner, JobState::Queued);
                let status = job.status_locked(&inner);
                drop(inner);
                self.enqueue(job.spec().priority, id);
                return Ok(status);
            }
            (JobState::Running, Some(JobState::Paused)) => inner.stop = None,
            (state, _) => {
                return Err(JobOpError::BadTransition {
                    id,
                    state,
                    op: "resume",
                })
            }
        }
        Ok(job.status_locked(&inner))
    }

    /// Stop accepting work, pause running jobs at their next chunk
    /// boundary, and join every runner thread. Idempotent. Queued jobs
    /// stay on disk and reopen as `Paused` (resumable) next start.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for job in self.shared.store.list() {
            let mut inner = job.inner.lock().expect("job lock poisoned");
            if inner.state == JobState::Running {
                inner.stop = inner.stop.or(Some(JobState::Paused));
            }
        }
        self.shared.cv.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .runners
            .lock()
            .expect("runner list poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for JobScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn runner_loop(shared: &Shared) {
    loop {
        let key = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(key) = queue.pop() {
                    break key;
                }
                queue = shared.cv.wait(queue).expect("queue poisoned");
            }
        };
        let Some(job) = shared.store.get(key.id.0) else {
            continue;
        };
        // Claim: stale heap entries (paused/cancelled while queued, or
        // duplicate keys from pause+resume cycles) are skipped here.
        {
            let mut inner = job.inner.lock().expect("job lock poisoned");
            if inner.state != JobState::Queued {
                continue;
            }
            if inner.started_seq.is_none() {
                inner.started_seq = Some(shared.store.next_seq());
            }
            job.transition(&mut inner, JobState::Running);
        }
        execute(&job);
    }
}

/// Run one claimed job to its next stop (completion, pause, cancel, or
/// error) and record the resulting state transition.
fn execute(job: &Job) {
    let result = run_one(job);
    let mut inner = job.inner.lock().expect("job lock poisoned");
    let state = match result {
        Ok(s) if s.completed => {
            inner.jobs_done = s.jobs;
            JobState::Done
        }
        Ok(_) => inner.stop.unwrap_or(JobState::Paused),
        Err(e) => {
            inner.error = Some(e.to_string());
            JobState::Failed
        }
    };
    job.transition(&mut inner, state);
}

/// One run session of a job. The plan, the engine (workload cache and
/// backend) and the open sinks are locals:
/// built when a runner claims the job, dropped when it stops, so two
/// jobs cannot share any of them and a stopped job holds none.
fn run_one(job: &Job) -> Result<RunSummary, ArmdseError> {
    let plan = job.spec().plan(&ParamSpace::paper())?;
    let engine = job.spec().engine();
    let mut campaign = job.files().open(false)?;
    // The observer runs at every chunk boundary, after the CSV flushed
    // and the checkpoint saved: publish progress (waking streamers) and
    // honour a pending stop request.
    let mut observer = |pr: &Progress| {
        let mut inner = job.inner.lock().expect("job lock poisoned");
        inner.jobs_done = pr.jobs_done;
        inner.rows = pr.rows;
        inner.discarded = pr.discarded;
        inner.version += 1;
        job.cv.notify_all();
        inner.stop.is_none()
    };
    campaign.run(&engine, &plan, Some(&mut observer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DseDataset;
    use crate::engine::CsvSink;
    use crate::jobstore::JobSpec;
    use crate::space::ParamSpace;
    use armdse_kernels::{App, WorkloadScale};

    fn store(tag: &str) -> Arc<JobStore> {
        let dir = std::env::temp_dir().join(format!("armdse_scheduler_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(JobStore::open(&dir).unwrap())
    }

    fn tiny_spec(seed: u64) -> JobSpec {
        JobSpec {
            configs: 3,
            scale: WorkloadScale::Tiny,
            seed,
            threads: 2,
            apps: vec![App::Stream, App::TeaLeaf],
            chunk_jobs: 2,
            ..JobSpec::default()
        }
    }

    /// The job's CSV is byte-identical to a direct `Engine::run` of
    /// the plan its spec describes.
    fn assert_direct_run_bytes(job: &Job, tag: &str) {
        let direct = std::env::temp_dir().join(format!("armdse_scheduler_{tag}_direct.csv"));
        let mut sink = CsvSink::create(&direct).unwrap();
        let plan = job.spec().plan(&ParamSpace::paper()).unwrap();
        job.spec().engine().run(&plan, &mut sink).unwrap();
        sink.chunk_end().unwrap();
        assert_eq!(
            std::fs::read(&job.files().csv).unwrap(),
            std::fs::read(&direct).unwrap()
        );
        let _ = std::fs::remove_file(&direct);
    }

    #[test]
    fn submitted_job_runs_to_done_with_direct_run_bytes() {
        let store = store("done");
        let sched = JobScheduler::new(Arc::clone(&store), 2);
        let job = sched.submit(tiny_spec(5)).unwrap();
        let status = job.wait_terminal();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.jobs_done, status.total_jobs);
        assert_direct_run_bytes(&job, "done");
        sched.shutdown();
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn queued_jobs_pause_cancel_and_resume_without_running() {
        let store = store("queued_ops");
        let sched = JobScheduler::new(Arc::clone(&store), 0); // no runners
        let a = sched.submit(tiny_spec(1)).unwrap();
        let b = sched.submit(tiny_spec(2)).unwrap();
        // Pause then resume a queued job.
        assert_eq!(sched.pause(a.id()).unwrap().state, JobState::Paused);
        assert!(matches!(
            sched.pause(a.id()),
            Err(JobOpError::BadTransition { op: "pause", .. })
        ));
        assert_eq!(sched.resume(a.id()).unwrap().state, JobState::Queued);
        // Cancel a queued job: immediate, terminal, durable.
        assert_eq!(sched.cancel(b.id()).unwrap().state, JobState::Cancelled);
        assert!(matches!(
            sched.cancel(b.id()),
            Err(JobOpError::BadTransition { op: "cancel", .. })
        ));
        assert!(matches!(sched.resume(77), Err(JobOpError::Unknown(77))));
        // A runner added later drains the queue: a runs, b never does.
        sched.add_runners(1);
        assert_eq!(a.wait_terminal().state, JobState::Done);
        assert_eq!(b.status().state, JobState::Cancelled);
        assert!(b.status().started_seq.is_none(), "cancelled before start");
        assert!(!b.files().csv.exists(), "cancelled-while-queued never ran");
        sched.shutdown();
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn priority_queue_orders_by_priority_then_id() {
        let store = store("priority");
        let sched = JobScheduler::new(Arc::clone(&store), 0);
        // Submit out of priority order; ties (priority 5) by id.
        let low = sched
            .submit(JobSpec {
                priority: 1,
                ..tiny_spec(1)
            })
            .unwrap();
        let tie_a = sched
            .submit(JobSpec {
                priority: 5,
                ..tiny_spec(2)
            })
            .unwrap();
        let tie_b = sched
            .submit(JobSpec {
                priority: 5,
                ..tiny_spec(3)
            })
            .unwrap();
        let high = sched
            .submit(JobSpec {
                priority: 9,
                ..tiny_spec(4)
            })
            .unwrap();
        sched.add_runners(1); // single runner => strictly serial order
        for j in [&low, &tie_a, &tie_b, &high] {
            assert_eq!(j.wait_terminal().state, JobState::Done);
        }
        let seq = |j: &Job| j.status().started_seq.unwrap();
        assert!(seq(&high) < seq(&tie_a), "highest priority first");
        assert!(seq(&tie_a) < seq(&tie_b), "ties break by id ascending");
        assert!(seq(&tie_b) < seq(&low), "lowest priority last");
        sched.shutdown();
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn shutdown_pauses_running_jobs_resumably() {
        let store = store("shutdown");
        let sched = JobScheduler::new(Arc::clone(&store), 1);
        // Long job (many chunks) so shutdown lands mid-campaign.
        let job = sched
            .submit(JobSpec {
                configs: 40,
                chunk_jobs: 1,
                threads: 1,
                ..tiny_spec(9)
            })
            .unwrap();
        // Wait for it to actually start producing chunks.
        let mut status = job.status();
        while status.jobs_done == 0 && !status.state.is_terminal() {
            status = job.wait_change(status.version, std::time::Duration::from_millis(200));
        }
        sched.shutdown();
        let status = job.status();
        assert_eq!(status.state, JobState::Paused);
        assert!(status.jobs_done > 0 && status.jobs_done < status.total_jobs);
        // The checkpoint on disk is loadable and matches the status.
        let c = Checkpoint::load(&job.files().checkpoint).unwrap();
        assert_eq!(c.jobs_done, status.jobs_done);
        // A fresh scheduler over the same directory resumes it to Done.
        drop(sched);
        let store2 = Arc::new(JobStore::open(store.dir()).unwrap());
        let sched2 = JobScheduler::new(Arc::clone(&store2), 1);
        let job2 = store2.get(job.id()).unwrap();
        assert_eq!(job2.status().state, JobState::Paused);
        sched2.resume(job2.id()).unwrap();
        assert_eq!(job2.wait_terminal().state, JobState::Done);
        sched2.shutdown();
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_checkpoint_without_its_csv_fails_the_job_naming_both_files() {
        let store = store("csv_gone");
        let sched = JobScheduler::new(Arc::clone(&store), 0);
        let job = sched.submit(tiny_spec(6)).unwrap();
        Checkpoint {
            fingerprint: 0,
            jobs_done: 2,
            rows: 2,
            discarded: 0,
            extra: Vec::new(),
        }
        .save(&job.files().checkpoint)
        .unwrap();
        sched.add_runners(1);
        let status = job.wait_terminal();
        assert_eq!(status.state, JobState::Failed);
        let error = status.error.unwrap();
        assert!(error.starts_with("checkpoint error: "), "{error}");
        for path in [&job.files().checkpoint, &job.files().csv] {
            assert!(error.contains(&path.display().to_string()), "{error}");
        }
        sched.shutdown();
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A long single-app job (one job per chunk), submitted and observed
    /// `Running` with progress, so a request lands mid-campaign.
    fn running_job(sched: &JobScheduler, seed: u64) -> Arc<Job> {
        let job = sched
            .submit(JobSpec {
                configs: 300,
                chunk_jobs: 1,
                apps: vec![App::Stream],
                ..tiny_spec(seed)
            })
            .unwrap();
        let mut status = job.status();
        while status.jobs_done == 0 || status.state != JobState::Running {
            assert!(!status.state.is_terminal(), "finished before the test");
            status = job.wait_change(status.version, std::time::Duration::from_millis(200));
        }
        job
    }

    #[test]
    fn a_pending_cancel_cannot_be_resumed_away() {
        let store = store("cancel_resume");
        let sched = JobScheduler::new(Arc::clone(&store), 1);
        let job = running_job(&sched, 21);
        sched.cancel(job.id()).unwrap();
        assert!(matches!(
            sched.resume(job.id()),
            Err(JobOpError::BadTransition { op: "resume", .. })
        ));
        // A later pause (or a shutdown) must not turn it into a pause.
        let _ = sched.pause(job.id());
        let status = job.wait_terminal();
        assert_eq!(status.state, JobState::Cancelled);
        assert!(status.jobs_done < status.total_jobs);
        sched.shutdown();
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn pause_resume_pause_on_a_running_job_pauses_resumably() {
        let store = store("pause_resume_pause");
        let sched = JobScheduler::new(Arc::clone(&store), 1);
        let job = running_job(&sched, 22);
        sched.pause(job.id()).unwrap();
        sched.resume(job.id()).unwrap();
        sched.pause(job.id()).unwrap();
        let mut status = job.status();
        while status.state != JobState::Paused {
            assert!(!status.state.is_terminal(), "{status:?}");
            status = job.wait_change(status.version, std::time::Duration::from_millis(200));
        }
        assert!(status.jobs_done > 0 && status.jobs_done < status.total_jobs);
        sched.resume(job.id()).unwrap();
        assert_eq!(job.wait_terminal().state, JobState::Done);
        assert_direct_run_bytes(&job, "prp");
        sched.shutdown();
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A scripted steering sink over a [`DseDataset`]: hands out
    /// `batches[next..]` one call at a time and records the rows each
    /// call followed (those past `since`).
    struct Script {
        data: DseDataset,
        since: usize,
        batches: Vec<Vec<u64>>,
        next: usize,
        seen: Vec<Vec<Row>>,
    }

    impl RowSink for Script {
        fn row(&mut self, row: &Row) -> Result<(), ArmdseError> {
            self.data.row(row)
        }

        fn next_batch(&mut self) -> Result<Vec<u64>, ArmdseError> {
            self.seen.push(self.data.rows[self.since..].to_vec());
            self.since = self.data.rows.len();
            self.next += 1;
            Ok(self.batches.get(self.next - 1).cloned().unwrap_or_default())
        }

        fn state(&self) -> Vec<(String, String)> {
            vec![("script.next".into(), self.next.to_string())]
        }
    }

    fn index_plan(indices: &[u64], threads: usize, chunk_jobs: usize) -> RunPlan {
        let opts = JobSpec {
            configs: indices.len(),
            scale: WorkloadScale::Tiny,
            seed: 0x57EE,
            threads,
            apps: vec![App::Stream, App::TeaLeaf],
            ..JobSpec::default()
        };
        opts.plan(&ParamSpace::paper())
            .unwrap()
            .with_config_indices(indices.to_vec())
            .unwrap()
            .with_chunk_jobs(chunk_jobs)
    }

    #[test]
    fn steered_batches_stream_the_fixed_plans_rows_through_pause_and_resume() {
        let (a, b, c) = (vec![5u64, 1], vec![9u64, 2, 7], vec![4u64]);
        let (ab, abc) = ([&a[..], &b[..]].concat(), [&a[..], &b[..], &c[..]].concat());
        let engine = Engine::idealized();
        let mut fixed = DseDataset::default();
        engine.run(&index_plan(&abc, 2, 128), &mut fixed).unwrap();
        assert_eq!(fixed.rows.len(), 12, "tiny runs all validate");
        let (rows_a, rows_b, rows_c) = (&fixed.rows[..4], &fixed.rows[4..10], &fixed.rows[10..]);
        let script = |next: usize, data: DseDataset| Script {
            since: data.rows.len(),
            data,
            batches: vec![b.clone(), c.clone()],
            next,
            seen: Vec::new(),
        };

        for chunk_jobs in [1usize, 3, 128] {
            for threads in [1usize, 8] {
                let tag = format!("chunk {chunk_jobs}, {threads} thread(s)");
                // Uninterrupted: same rows, same order, and each call
                // sees exactly the batch that just ran.
                let mut steer = script(0, DseDataset::default());
                let s = engine
                    .run(&index_plan(&a, threads, chunk_jobs), &mut steer)
                    .unwrap();
                let whole = std::mem::take(&mut steer.data);
                assert!(
                    s.completed && s.jobs == 12 && s.jobs_done == 12,
                    "{tag}: {s:?}"
                );
                assert_eq!(whole, fixed, "{tag}");
                assert_eq!(steer.seen, [rows_a, rows_b, rows_c], "{tag}");

                // Pause at the first chunk boundary past [a] (inside
                // [b] when the chunk size allows), checking on the way
                // that the checkpoint ending [a] already carries [b].
                let ckpt = std::env::temp_dir()
                    .join(format!("armdse_steer_unit_{chunk_jobs}_{threads}.ckpt"));
                std::fs::remove_file(&ckpt).ok();
                let mut steer = script(0, DseDataset::default());
                let mut observer = |pr: &Progress| {
                    if pr.jobs_done == 4 {
                        let c = Checkpoint::load(&ckpt).unwrap();
                        assert_eq!((c.jobs_done, pr.total_jobs), (4, 10), "{tag}");
                        assert_eq!(c.fingerprint, index_plan(&ab, 1, 1).fingerprint());
                        assert_eq!(c.extra_get("script.next"), Some("1"));
                    }
                    pr.jobs_done <= 4
                };
                let ctl = RunControl {
                    checkpoint: Some(&ckpt),
                    observer: Some(&mut observer),
                    ..RunControl::default()
                };
                let s = engine
                    .run_controlled(&index_plan(&a, threads, chunk_jobs), &mut steer, ctl)
                    .unwrap();
                assert!(!s.completed, "{tag}");
                let paused_at = s.jobs_done;
                // Chunks restart at a round boundary: [a] ends at job 4.
                let want = match chunk_jobs {
                    1 => 5,
                    3 => 7,
                    _ => 10,
                };
                assert_eq!(paused_at, want, "{tag}");

                // Resume on a fresh steer rebuilt from the checkpoint.
                let c = Checkpoint::load(&ckpt).unwrap();
                let next = c.extra_get("script.next").unwrap().parse().unwrap();
                let mut steer = script(next, steer.data);
                let so_far = [&a[..], &steer.batches[..steer.next].concat()].concat();
                let ctl = RunControl {
                    checkpoint: Some(&ckpt),
                    position: Some(c),
                    ..RunControl::default()
                };
                let s = engine
                    .run_controlled(&index_plan(&so_far, threads, chunk_jobs), &mut steer, ctl)
                    .unwrap();
                let pieces = std::mem::take(&mut steer.data);
                assert!(s.completed && s.resumed_from == paused_at, "{tag}: {s:?}");
                assert_eq!(pieces, fixed, "{tag}");
                // Only the rows streamed since the resume are handed over.
                let since: Vec<&[Row]> = match paused_at {
                    10 => vec![rows_c],
                    at => vec![&fixed.rows[at..10], rows_c],
                };
                assert_eq!(steer.seen, since, "{tag}");
                let c = Checkpoint::load(&ckpt).unwrap();
                assert_eq!((c.jobs_done, c.rows), (12, 12), "{tag}");
                assert_eq!(c.fingerprint, index_plan(&abc, 1, 1).fingerprint());
                std::fs::remove_file(&ckpt).ok();
            }
        }
    }

    #[test]
    fn unsteered_campaigns_keep_their_v1_checkpoint_bytes() {
        let ckpt = std::env::temp_dir().join("armdse_steer_unit_none.ckpt");
        let plan = index_plan(&[3, 8], 2, 3);
        let ctl = RunControl {
            checkpoint: Some(&ckpt),
            ..RunControl::default()
        };
        Engine::idealized()
            .run_controlled(&plan, &mut DseDataset::default(), ctl)
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(&ckpt).unwrap(),
            format!(
                "armdse-checkpoint v1\nfingerprint={:016x}\njobs_done=4\nrows=4\ndiscarded=0\n",
                plan.fingerprint()
            )
        );
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn an_invalid_design_point_ends_the_campaign_as_an_error() {
        // L2-Size pinned to the smallest grid value: whether a sample
        // survives depends on its L1 size, so only some points reject.
        let spec = JobSpec {
            configs: 40,
            scale: WorkloadScale::Tiny,
            seed: 3,
            threads: 4,
            apps: vec![App::Stream],
            pins: vec![("L2-Size".into(), 64.0)],
            ..JobSpec::default()
        };
        let plan = spec.plan(&ParamSpace::paper()).unwrap();
        let first_bad = (0..40).find(|&i| plan.design_point(i).is_err()).unwrap();
        assert!(first_bad > 0, "slot 0 validated at plan construction");
        let mut data = DseDataset::default();
        let err = Engine::idealized()
            .run(&plan.with_chunk_jobs(4), &mut data)
            .unwrap_err();
        assert!(matches!(err, ArmdseError::InvalidPlan(_)), "{err}");
        assert!(
            err.to_string()
                .contains(&format!("config index {first_bad} ")),
            "{err}"
        );
        assert_eq!(
            data.rows.len(),
            first_bad / 4 * 4,
            "whole chunks before it streamed"
        );
    }

    /// The paper's machine, except that the first run a thread other
    /// than the named campaign thread starts after `calm` runs panics.
    /// Past `calm` the campaign thread's own runs first wait for that
    /// panic, so a helper is sure to take one of the span's jobs.
    struct HelperPanics {
        calm: usize,
        runs: AtomicUsize,
        panicked: AtomicBool,
    }

    impl armdse_simcore::SimBackend for HelperPanics {
        fn name(&self) -> &'static str {
            "helper-panics"
        }

        fn run(
            &self,
            program: &armdse_isa::Program,
            core: &armdse_simcore::CoreParams,
            mem: &armdse_memsim::MemParams,
            mode: RunMode,
        ) -> armdse_simcore::RunOutput {
            if self.runs.fetch_add(1, Ordering::SeqCst) >= self.calm {
                if std::thread::current().name() == Some("campaign") {
                    while !self.panicked.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                } else if !self.panicked.swap(true, Ordering::SeqCst) {
                    panic!("injected job panic");
                }
            }
            MultiCore::IDEALIZED.run(program, core, mem, mode)
        }

        fn topology(&self) -> MultiCore {
            MultiCore::IDEALIZED
        }
    }

    #[test]
    fn a_helper_panic_mid_campaign_re_raises_on_the_caller() {
        for threads in [2, 4] {
            // Three chunks of four jobs; the panic comes in the second.
            let spec = JobSpec {
                configs: 12,
                scale: WorkloadScale::Tiny,
                seed: 5,
                threads,
                apps: vec![App::Stream],
                chunk_jobs: 4,
                ..JobSpec::default()
            };
            let plan = spec.plan(&ParamSpace::paper()).unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::Builder::new()
                .name("campaign".into())
                .spawn(move || {
                    let engine = Engine::new(Box::new(HelperPanics {
                        calm: 4,
                        runs: AtomicUsize::new(0),
                        panicked: AtomicBool::new(false),
                    }));
                    let mut data = DseDataset::default();
                    let out =
                        panic::catch_unwind(AssertUnwindSafe(|| engine.run(&plan, &mut data)));
                    let message = out
                        .err()
                        .map(|payload| payload.downcast_ref::<&str>().map(|m| m.to_string()));
                    tx.send((message, data.rows.len())).unwrap();
                })
                .unwrap();
            let (message, rows) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{threads} threads: the campaign hung"));
            assert_eq!(
                message,
                Some(Some("injected job panic".to_string())),
                "{threads} threads"
            );
            assert_eq!(rows, 4, "{threads} threads: only the first chunk streamed");
        }
    }
}
