//! Golden determinism test for the metrics stream (the observability
//! mirror of `tests/engine_resume.rs`): the per-job counter CSV written
//! by a metrics-on campaign must be byte-identical at any worker-thread
//! count, and a campaign paused at a chunk boundary and resumed later
//! must append exactly the bytes the uninterrupted run would have
//! written. One metrics row is emitted per job — including
//! validation-discarded jobs — so the stream's shape depends only on
//! the plan, never on scheduling.

use armdse::core::engine::{Engine, Progress, RunPlan, RunSummary};
use armdse::core::CampaignFiles;
use armdse::core::JobSpec;
use armdse::kernels::{App, WorkloadScale};

const CONFIGS: usize = 10; // 10 configs x 4 apps = 40 jobs
const CHUNK: usize = 8; // 5 chunks

fn plan(threads: usize) -> RunPlan {
    let spec = JobSpec {
        configs: CONFIGS,
        scale: WorkloadScale::Tiny,
        seed: 0x00D_CAFE,
        threads,
        apps: App::ALL.to_vec(),
        chunk_jobs: CHUNK,
        ..JobSpec::default()
    };
    spec.plan().expect("valid plan")
}

/// The campaign `tag`'s dataset, checkpoint and metrics paths.
fn files(tag: &str) -> CampaignFiles {
    let tmp = |ext: &str| std::env::temp_dir().join(format!("armdse_metrics_det_{tag}.{ext}"));
    CampaignFiles {
        csv: tmp("csv"),
        checkpoint: tmp("ckpt"),
        metrics: Some(tmp("metrics.csv")),
    }
}

/// Open `files` (fresh or resuming) and run `plan(threads)`, pausing
/// once `pause_at` jobs are done, if given.
fn run(files: &CampaignFiles, fresh: bool, threads: usize, pause_at: Option<usize>) -> RunSummary {
    let mut observer = |p: &Progress| pause_at.is_none_or(|at| p.jobs_done < at);
    files
        .open(fresh)
        .unwrap()
        .run(&Engine::idealized(), &plan(threads), Some(&mut observer))
        .unwrap()
}

/// Read the metrics CSV of `files` and remove the campaign's files.
fn take_metrics(files: &CampaignFiles) -> Vec<u8> {
    let path = files.metrics.as_ref().unwrap();
    let bytes = std::fs::read(path).unwrap();
    for p in [&files.csv, &files.checkpoint, path] {
        std::fs::remove_file(p).ok();
    }
    bytes
}

/// Uninterrupted metrics CSV at the given thread count.
fn fresh_metrics(threads: usize) -> Vec<u8> {
    let files = files(&format!("fresh_{threads}"));
    assert!(run(&files, true, threads, None).completed);
    let bytes = take_metrics(&files);
    let rows = bytes.iter().filter(|&&b| b == b'\n').count() - 1;
    assert_eq!(rows, CONFIGS * App::ALL.len(), "one metrics row per job");
    bytes
}

#[test]
fn metrics_csv_is_thread_count_invariant() {
    let one = fresh_metrics(1);
    let eight = fresh_metrics(8);
    assert_eq!(one, eight, "metrics bytes diverged between 1 and 8 threads");
}

#[test]
fn paused_and_resumed_metrics_csv_is_byte_identical() {
    let reference = fresh_metrics(2);
    let files = files("resumed");

    // Phase 1: pause after two chunks (16 of 40 jobs).
    let summary = run(&files, true, 8, Some(2 * CHUNK));
    assert!(!summary.completed);
    assert_eq!(summary.jobs_done, 2 * CHUNK);

    // Phase 2: resume with a different thread count, appending.
    let summary = run(&files, false, 1, None);
    assert!(summary.completed);
    assert_eq!(summary.resumed_from, 2 * CHUNK);

    assert_eq!(
        reference,
        take_metrics(&files),
        "paused+resumed metrics CSV diverged from the uninterrupted run"
    );
}
