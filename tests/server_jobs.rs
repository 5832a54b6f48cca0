//! Session/scheduler-layer integration tests (the DSE-as-a-service
//! guarantees below the HTTP layer):
//!
//! * jobs executed by the [`JobScheduler`] write CSVs byte-identical to
//!   a direct `Engine::run` of the same plan, even when two jobs with
//!   different seeds run concurrently on shared runner threads;
//! * cancelling a running job mid-campaign stops at a chunk boundary
//!   and leaves a loadable checkpoint consistent with the CSV;
//! * priority ties are broken deterministically by job id (submission
//!   order), pinned via the store's `started_seq` stamps;
//! * a job whose CSV ran past its checkpoint when the process died
//!   (a flushed chunk plus a torn line) reopens and resumes to the
//!   bytes of an uninterrupted run;
//! * a store an earlier server left at the memoized tier is refused,
//!   never spliced: a spec with a `"fidelity"` key lists its job
//!   `Failed`, and a `reuse.fidelity` checkpoint fails it on resume;
//! * pin *values* are outside input: one no sample can rescue is
//!   refused at submission, and one that only some design points
//!   reject fails that job — naming the config — without taking the
//!   runner thread down with it.

use armdse::core::engine::Checkpoint;
use armdse::core::jobstore::JobOpError;
use armdse::core::space::ParamSpace;
use armdse::core::{ArmdseError, CsvSink, JobScheduler, JobSpec, JobState};
use armdse::kernels::{App, WorkloadScale};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("armdse_server_jobs_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(configs: usize, seed: u64, threads: usize) -> JobSpec {
    JobSpec {
        configs,
        scale: WorkloadScale::Tiny,
        seed,
        threads,
        apps: App::ALL.to_vec(),
        chunk_jobs: 8,
        ..JobSpec::default()
    }
}

/// Reference bytes: a direct, uninterrupted `Engine::run` of the same
/// plan the job executes (on the spec's own engine).
fn direct_csv(spec: &JobSpec, dir: &Path, tag: &str) -> Vec<u8> {
    let plan = spec.plan(&ParamSpace::paper()).unwrap();
    let path = dir.join(format!("direct_{tag}.csv"));
    let mut sink = CsvSink::create(&path).unwrap();
    let summary = spec.engine().run(&plan, &mut sink).unwrap();
    assert!(summary.completed);
    drop(sink);
    std::fs::read(&path).unwrap()
}

#[test]
fn concurrent_jobs_with_different_seeds_match_serial_runs() {
    let dir = tmp("concurrent");
    let sched = JobScheduler::open(&dir.join("jobs"), 2).unwrap();
    // Different seeds AND different thread counts: isolation must hold
    // regardless of how each job shards its config range.
    let spec_a = spec(10, 0xA11C_E001, 1);
    let spec_b = spec(10, 0xB0B0_0002, 8);
    let a = sched.submit(spec_a.clone()).unwrap();
    let b = sched.submit(spec_b.clone()).unwrap();
    let st_a = a.wait_terminal();
    let st_b = b.wait_terminal();
    assert_eq!(st_a.state, JobState::Done, "job a: {:?}", st_a.error);
    assert_eq!(st_b.state, JobState::Done, "job b: {:?}", st_b.error);
    assert_eq!(st_a.jobs_done, st_a.total_jobs);
    assert_eq!(
        std::fs::read(&a.files().csv).unwrap(),
        direct_csv(&spec_a, &dir, "a"),
        "concurrent job a diverged from its serial reference run"
    );
    assert_eq!(
        std::fs::read(&b.files().csv).unwrap(),
        direct_csv(&spec_b, &dir, "b"),
        "concurrent job b diverged from its serial reference run"
    );
    sched.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancel_mid_campaign_leaves_loadable_checkpoint() {
    let dir = tmp("cancel");
    let sched = JobScheduler::open(&dir.join("jobs"), 1).unwrap();
    // One job per chunk: many checkpoint boundaries to cancel between.
    let mut s = spec(60, 0xDEAD_BEEF, 2);
    s.apps = vec![App::Stream];
    s.chunk_jobs = 1;
    let job = sched.submit(s).unwrap();

    // Wait for real progress, then cancel mid-campaign.
    let mut st = job.status();
    while st.jobs_done == 0 || st.state != JobState::Running {
        assert!(
            !st.state.is_terminal(),
            "job finished before the test could cancel it"
        );
        st = job.wait_change(st.version, Duration::from_millis(200));
    }
    sched.cancel(job.id()).unwrap();
    let fin = job.wait_terminal();
    assert_eq!(fin.state, JobState::Cancelled);
    assert!(
        fin.jobs_done > 0 && fin.jobs_done < fin.total_jobs,
        "cancel should land mid-campaign (done {}/{})",
        fin.jobs_done,
        fin.total_jobs
    );

    // The checkpoint on disk is loadable and consistent with both the
    // final status and the CSV written so far.
    let ckpt = Checkpoint::load(&job.files().checkpoint).unwrap();
    assert_eq!(ckpt.jobs_done, fin.jobs_done);
    assert_eq!(ckpt.rows, fin.rows);
    assert_eq!(ckpt.discarded, fin.discarded);
    assert_eq!(ckpt.rows + ckpt.discarded, ckpt.jobs_done);
    let csv = std::fs::read_to_string(&job.files().csv).unwrap();
    assert_eq!(
        csv.lines().count(),
        ckpt.rows + 1, // header line
        "CSV row count must match the checkpoint"
    );
    sched.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn priority_ties_run_in_job_id_order() {
    let dir = tmp("priority");
    // No runners yet: all five jobs are queued before anything runs,
    // then a single runner drains the queue in priority order.
    let sched = JobScheduler::open(&dir.join("jobs"), 0).unwrap();
    let jobs: Vec<_> = [0i64, 5, 0, 5, -1]
        .iter()
        .map(|&priority| {
            let mut s = spec(1, 0x7E57, 1);
            s.apps = vec![App::Stream];
            s.priority = priority;
            sched.submit(s).unwrap()
        })
        .collect();
    sched.add_runners(1);
    let statuses: Vec<_> = jobs.iter().map(|j| j.wait_terminal()).collect();
    for st in &statuses {
        assert_eq!(st.state, JobState::Done, "job {}: {:?}", st.id, st.error);
    }
    let seq = |i: usize| statuses[i].started_seq.expect("job never started");
    // Expected order: priority 5 (ids ascending), then 0 (ids
    // ascending), then -1 — submission order breaks every tie.
    assert!(seq(1) < seq(3), "priority-5 tie must run in id order");
    assert!(seq(3) < seq(0), "priority 5 must run before priority 0");
    assert!(seq(0) < seq(2), "priority-0 tie must run in id order");
    assert!(seq(2) < seq(4), "priority -1 must run last");
    sched.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_csv_written_past_its_checkpoint_resumes_to_direct_run_bytes() {
    let dir = tmp("crash");
    let sched = JobScheduler::open(&dir.join("jobs"), 1).unwrap();
    let mut s = spec(40, 0xC2A5_4ED0, 2);
    s.chunk_jobs = 4; // 40 chunks: shutdown lands mid-campaign
    let reference = String::from_utf8(direct_csv(&s, &dir, "crash")).unwrap();
    let job = sched.submit(s).unwrap();
    let mut st = job.status();
    while st.jobs_done == 0 && !st.state.is_terminal() {
        st = job.wait_change(st.version, Duration::from_millis(200));
    }
    sched.shutdown();
    let st = job.status();
    assert_eq!(st.state, JobState::Paused);
    assert!(st.jobs_done > 0 && st.jobs_done < st.total_jobs);
    let rows = Checkpoint::load(&job.files().checkpoint).unwrap().rows;

    // The crash: the next chunk's rows reached the file, and half of
    // the row after them, but the checkpoint write never happened.
    let next: Vec<&str> = reference.lines().skip(1 + rows).take(5).collect();
    let damage = next[..4].join("\n") + "\n" + &next[4][..next[4].len() / 2];
    let mut csv = std::fs::OpenOptions::new()
        .append(true)
        .open(&job.files().csv)
        .unwrap();
    std::io::Write::write_all(&mut csv, damage.as_bytes()).unwrap();
    drop((csv, sched));

    let sched = JobScheduler::open(&dir.join("jobs"), 1).unwrap();
    let job = sched.store().get(job.id()).unwrap();
    assert_eq!(job.status().state, JobState::Paused);
    sched.resume(job.id()).unwrap();
    let fin = job.wait_terminal();
    assert_eq!(fin.state, JobState::Done, "{:?}", fin.error);
    assert!(
        std::fs::read_to_string(&job.files().csv).unwrap() == reference,
        "resumed job diverged from the direct run"
    );
    sched.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A store written by a server that still had the fidelity knob: a
/// spec carrying `"fidelity"` is skipped on reopen, its id never
/// reused, and a paused checkpoint naming its tier
/// (`reuse.fidelity=memoized`) fails the resumed job without a byte
/// spliced onto its CSV.
#[test]
fn a_store_left_at_the_memoized_tier_is_refused_not_spliced() {
    let dir = tmp("memoized_store");
    let sched = JobScheduler::open(&dir.join("jobs"), 1).unwrap();
    let mut s = spec(40, 0x3E30_12ED, 2);
    s.chunk_jobs = 4; // 40 chunks: shutdown lands mid-campaign
    let job = sched.submit(s.clone()).unwrap();
    let mut st = job.status();
    while st.jobs_done == 0 && !st.state.is_terminal() {
        st = job.wait_change(st.version, Duration::from_millis(200));
    }
    sched.shutdown();
    assert_eq!(job.status().state, JobState::Paused);
    let files = job.files().clone();
    let spec_path = files.csv.with_extension("spec.json");
    let wire = std::fs::read_to_string(&spec_path).unwrap();
    let legacy = wire.replace(
        "  \"metrics\"",
        "  \"fidelity\": \"memoized\",\n  \"metrics\"",
    );
    assert_ne!(legacy, wire);
    std::fs::write(&spec_path, legacy).unwrap();
    drop(sched);

    let sched = JobScheduler::open(&dir.join("jobs"), 1).unwrap();
    let legacy = sched
        .store()
        .get(job.id())
        .expect("the legacy job is listed");
    let st = legacy.status();
    assert_eq!(st.state, JobState::Failed, "the legacy spec cannot run");
    let err = st.error.unwrap_or_default();
    assert!(err.contains("fidelity"), "{err}");
    let refused = sched.resume(job.id());
    assert!(
        matches!(refused, Err(JobOpError::BadTransition { .. })),
        "{refused:?}"
    );
    assert!(!files.csv.with_extension("state").exists(), "no marker");
    let next = sched.submit(spec(1, 1, 1)).unwrap();
    assert!(next.id() > job.id(), "a skipped job's id is not reused");
    next.wait_terminal();
    sched.shutdown();
    drop(sched);

    std::fs::write(&spec_path, wire).unwrap();
    let ckpt = std::fs::read_to_string(&files.checkpoint).unwrap();
    std::fs::write(&files.checkpoint, ckpt + "reuse.fidelity=memoized\n").unwrap();
    let paused_csv = std::fs::read(&files.csv).unwrap();
    let sched = JobScheduler::open(&dir.join("jobs"), 1).unwrap();
    let job = sched.store().get(job.id()).expect("the spec parses");
    assert_eq!(job.status().state, JobState::Paused);
    sched.resume(job.id()).unwrap();
    let fin = job.wait_terminal();
    assert_eq!(fin.state, JobState::Failed);
    let err = fin.error.unwrap_or_default();
    assert!(err.contains("reuse.fidelity"), "{err}");
    assert_eq!(std::fs::read(&files.csv).unwrap(), paused_csv);
    sched.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_pins_fail_the_submission_or_the_job_never_the_runner() {
    let dir = tmp("bad_pins");
    let sched = JobScheduler::open(&dir.join("jobs"), 1).unwrap();
    let pinned = |name: &str, value: f64| {
        let mut s = spec(24, 3, 2);
        s.apps = vec![App::Stream];
        s.chunk_jobs = 4;
        s.pins = vec![(name.to_string(), value)];
        s
    };

    // No sample can rescue these: refused before a job exists.
    for (name, value) in [("ROB-Size", 0.0), ("Vector-Length", 100.0)] {
        let err = match sched.submit(pinned(name, value)) {
            Err(e) => e,
            Ok(job) => panic!("{name}={value} accepted as job {}", job.id()),
        };
        assert!(matches!(err, ArmdseError::InvalidPlan(_)), "{err}");
        assert!(err.to_string().contains(name), "{err}");
    }
    assert!(sched.store().list().is_empty());

    // The smallest L2 only fits under the smaller L1 samples: the job
    // is accepted, runs, and fails at its first invalid design point.
    let bad = pinned("L2-Size", 64.0);
    let first_bad = (0..24u64)
        .find(|i| {
            ParamSpace::paper()
                .sample_seeded_pinned(bad.seed + i, &[("L2-Size", 64.0)])
                .validate()
                .is_err()
        })
        .expect("some sample has an L1 of 64 KiB or more");
    assert!(first_bad > 0, "the first design point must pass submission");
    let job = sched.submit(bad).unwrap();
    let fin = job.wait_terminal();
    assert_eq!(fin.state, JobState::Failed);
    let error = fin.error.expect("failed jobs carry their error");
    assert!(
        error.contains(&format!("config index {first_bad} ")),
        "{error}"
    );

    // The single runner survived: the next job runs to completion.
    let mut ok = spec(2, 4, 2);
    ok.apps = vec![App::Stream];
    let st = sched.submit(ok).unwrap().wait_terminal();
    assert_eq!(st.state, JobState::Done, "{:?}", st.error);
    sched.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
