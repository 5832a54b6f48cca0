//! Golden checkpoint/resume test (the engine's headline guarantee): a
//! campaign paused mid-flight at a chunk boundary and resumed later —
//! even with a different worker count — must produce a dataset CSV
//! byte-identical to the uninterrupted run. This is what makes long
//! T2 simulation campaigns restartable without invalidating the
//! `seed + config_index` determinism contract. The metrics CSV rides
//! along in every run and is held to the same bytes.
//!
//! The crash tests attack the guarantee from the other side: a process
//! that dies after its sinks wrote past the last checkpoint leaves a
//! whole flushed chunk, or a buffer spill ending in a torn line, behind
//! the checkpointed position. Resume cuts both files back to the
//! checkpoint before appending, and refuses a file that is *behind* it.

use armdse::core::engine::Checkpoint;
use armdse::core::space::ParamSpace;
use armdse::core::JobSpec;
use armdse::core::{ArmdseError, CampaignFiles, Engine, Progress, RunPlan, RunSummary};
use armdse::kernels::{App, WorkloadScale};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const CONFIGS: usize = 12; // 12 configs x 4 apps = 48 jobs
const CHUNK: usize = 8; // 6 chunks — several checkpoint boundaries

fn plan(threads: usize) -> RunPlan {
    let spec = JobSpec {
        configs: CONFIGS,
        scale: WorkloadScale::Tiny,
        seed: 0xC0FF_EE00,
        threads,
        apps: App::ALL.to_vec(),
        chunk_jobs: CHUNK,
        ..JobSpec::default()
    };
    spec.plan(&ParamSpace::paper()).expect("valid plan")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("armdse_engine_resume_{name}"))
}

/// Dataset CSV and metrics CSV bytes.
type Artifacts = (Vec<u8>, Vec<u8>);

/// One campaign run streaming `<tag>.csv` and `<tag>.metrics.csv`:
/// fresh (pausing after `pause_after_chunks` chunks, if given), or
/// appending from `<tag>.ckpt`.
fn run(
    tag: &str,
    threads: usize,
    resume: bool,
    pause_after_chunks: Option<usize>,
) -> Result<RunSummary, ArmdseError> {
    let files = CampaignFiles {
        csv: tmp(&format!("{tag}.csv")),
        checkpoint: tmp(&format!("{tag}.ckpt")),
        metrics: Some(tmp(&format!("{tag}.metrics.csv"))),
    };
    let mut chunks = 0usize;
    let mut observer = |_p: &Progress| {
        chunks += 1;
        pause_after_chunks.is_none_or(|n| chunks < n)
    };
    files
        .open(!resume)?
        .run(&Engine::idealized(), &plan(threads), Some(&mut observer))
}

/// Read and remove the artifacts of `tag`.
fn take(tag: &str) -> Artifacts {
    let read = |ext: &str| {
        let path = tmp(&format!("{tag}.{ext}"));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };
    std::fs::remove_file(tmp(&format!("{tag}.ckpt"))).ok();
    (read("csv"), read("metrics.csv"))
}

/// Uninterrupted reference run (tests run in parallel and share
/// thread counts, so each call gets its own files).
fn fresh_csv(threads: usize) -> Artifacts {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let tag = format!("fresh_{threads}_{}", CALLS.fetch_add(1, Ordering::Relaxed));
    let summary = run(&tag, threads, false, None).unwrap();
    assert!(summary.completed);
    assert_eq!(summary.jobs_done, CONFIGS * App::ALL.len());
    take(&tag)
}

/// Interrupted run: pause after `pause_after_chunks` chunks, let
/// `crash` damage the files, then resume with `resume_threads` workers
/// (a later invocation, possibly with different parallelism, appending
/// to the same files) and run to completion.
fn interrupted(
    run_threads: usize,
    resume_threads: usize,
    pause_after_chunks: usize,
    crash: impl FnOnce(&str),
) -> Artifacts {
    let tag = format!("resumed_{run_threads}_{resume_threads}_{pause_after_chunks}");
    let summary = run(&tag, run_threads, false, Some(pause_after_chunks)).unwrap();
    assert!(
        !summary.completed,
        "pause_after_chunks too large for the campaign"
    );
    assert_eq!(summary.jobs_done, pause_after_chunks * CHUNK);
    crash(&tag);
    let summary = run(&tag, resume_threads, true, None).unwrap();
    assert!(summary.completed);
    assert_eq!(summary.resumed_from, pause_after_chunks * CHUNK);
    take(&tag)
}

#[test]
fn resumed_run_is_byte_identical_single_threaded() {
    let fresh = fresh_csv(1);
    let resumed = interrupted(1, 1, 2, |_| {});
    assert_eq!(
        fresh, resumed,
        "1-thread resume diverged from the uninterrupted run"
    );
}

#[test]
fn resumed_run_is_byte_identical_multi_threaded() {
    let fresh = fresh_csv(8);
    let resumed = interrupted(8, 8, 3, |_| {});
    assert_eq!(
        fresh, resumed,
        "8-thread resume diverged from the uninterrupted run"
    );
}

#[test]
fn thread_count_may_change_across_the_pause() {
    // The checkpoint fingerprint deliberately excludes the worker count:
    // a campaign paused on an 8-way box must resume cleanly on 1 thread
    // (and vice versa) with identical output.
    let fresh = fresh_csv(1);
    assert_eq!(
        fresh,
        interrupted(8, 1, 1, |_| {}),
        "8→1 thread resume diverged"
    );
    assert_eq!(
        fresh,
        interrupted(1, 8, 4, |_| {}),
        "1→8 thread resume diverged"
    );
}

#[test]
fn pause_point_does_not_leak_into_the_bytes() {
    // Every possible chunk boundary yields the same final file.
    let fresh = fresh_csv(2);
    for pause in 1..=5 {
        assert_eq!(
            fresh,
            interrupted(2, 2, pause, |_| {}),
            "resume after chunk {pause} diverged"
        );
    }
}

/// Append `whole` of `lines` to `path`, then, if `torn`, the first half
/// of the next one with no newline: what a `BufWriter` spill leaves
/// when the process dies.
fn spill(path: &Path, lines: &[&str], whole: usize, torn: bool) {
    let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    for l in &lines[..whole] {
        writeln!(f, "{l}").unwrap();
    }
    if torn {
        f.write_all(&lines[whole].as_bytes()[..lines[whole].len() / 2])
            .unwrap();
    }
}

#[test]
fn rows_past_the_checkpoint_are_cut_on_resume() {
    let fresh = fresh_csv(2);
    let (csv, metrics) = (
        std::str::from_utf8(&fresh.0).unwrap(),
        std::str::from_utf8(&fresh.1).unwrap(),
    );
    // (a) a whole chunk flushed before a checkpoint write that never
    // happened; (b) a few spilled rows and a torn last line.
    for (pause, whole, torn) in [(2, CHUNK, false), (3, 3, true)] {
        let resumed = interrupted(2, 8, pause, |tag| {
            let ckpt = Checkpoint::load(&tmp(&format!("{tag}.ckpt"))).unwrap();
            let next: Vec<&str> = csv.lines().skip(1 + ckpt.rows).collect();
            spill(&tmp(&format!("{tag}.csv")), &next, whole, torn);
            let job = |l: &str| l.split(',').next().unwrap().parse::<usize>().unwrap();
            let next: Vec<&str> = metrics
                .lines()
                .skip(1)
                .filter(|l| job(l) >= ckpt.jobs_done)
                .collect();
            spill(&tmp(&format!("{tag}.metrics.csv")), &next, whole, torn);
        });
        assert!(
            fresh == resumed,
            "crash after chunk {pause} (torn: {torn}) diverged"
        );
    }
}

#[test]
fn a_dataset_behind_its_checkpoint_is_refused() {
    let tag = "behind";
    run(tag, 2, false, Some(2)).unwrap();
    let csv = tmp(&format!("{tag}.csv"));
    let rows = Checkpoint::load(&tmp(&format!("{tag}.ckpt"))).unwrap().rows;
    let body = std::fs::read_to_string(&csv).unwrap();
    let kept: Vec<&str> = body.lines().take(rows).collect(); // header + rows - 1
    std::fs::write(&csv, kept.join("\n") + "\n").unwrap();

    let err = run(tag, 2, true, None).unwrap_err();
    assert!(matches!(err, ArmdseError::Checkpoint(_)), "{err}");
    let msg = err.to_string();
    let want = format!(
        "holds {} row(s) but the checkpoint recorded {rows}",
        rows - 1
    );
    assert!(
        msg.contains(csv.to_str().unwrap()) && msg.contains(&want),
        "{msg}"
    );
    take(tag);
}
