//! End-to-end campaign tests for the multicore machine layer
//! (`Engine::multicore`): a two-core campaign over the new kernels
//! (SpMV, GEMM, Graph) streams byte-identical artifacts at any worker
//! thread count and across pause/resume, and a checkpoint written by a
//! multicore campaign refuses to resume under a different machine
//! shape.

use armdse::core::engine::{Checkpoint, CsvSink, Engine, Progress, RunControl, RunPlan};
use armdse::core::metrics::MetricsRow;
use armdse::core::space::ParamSpace;
use armdse::core::JobSpec;
use armdse::core::{ArmdseError, CampaignFiles, DseDataset, RunSummary};
use armdse::kernels::{App, WorkloadScale};
use std::path::PathBuf;

const CONFIGS: usize = 8; // 8 configs x 3 apps = 24 jobs
const CHUNK: usize = 6; // 4 chunks

/// The new kernels, end-to-end: every job of these campaigns runs
/// SpMV, GEMM, or the pointer-chasing Graph kernel.
const KERNELS: [App; 3] = [App::Spmv, App::Gemm, App::Graph];

fn plan(threads: usize) -> RunPlan {
    let spec = JobSpec {
        configs: CONFIGS,
        scale: WorkloadScale::Tiny,
        seed: 0x0DD_C0DE,
        threads,
        apps: KERNELS.to_vec(),
        chunk_jobs: CHUNK,
        ..JobSpec::default()
    };
    spec.plan(&ParamSpace::paper()).expect("valid plan")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("armdse_mc_campaign_{name}"))
}

/// Run a full campaign on `engine`, returning the dataset rows and the
/// in-memory metrics stream.
fn campaign(engine: &Engine, threads: usize) -> (DseDataset, Vec<MetricsRow>) {
    let mut sink = (DseDataset::default(), Vec::new());
    let summary = engine.run(&plan(threads), &mut sink).unwrap();
    assert!(summary.completed);
    sink
}

#[test]
fn two_core_campaign_emits_per_core_rows() {
    let (data, metrics) = campaign(&Engine::multicore(2, 4), 2);
    let jobs = CONFIGS * KERNELS.len();
    assert_eq!(data.rows.len() + data.discarded.len(), jobs);
    // One aggregate row plus one detail row per core, in job order.
    assert_eq!(metrics.len(), jobs * 3);
    for chunk in metrics.chunks(3) {
        assert_eq!(chunk[0].core, None);
        assert_eq!(chunk[1].core, Some(0));
        assert_eq!(chunk[2].core, Some(1));
        // The aggregate's makespan is the slowest core, and retirement
        // sums across cores.
        assert_eq!(chunk[0].cycles, chunk[1].cycles.max(chunk[2].cycles));
        assert_eq!(chunk[0].retired, chunk[1].retired + chunk[2].retired);
    }
}

/// The campaign `tag`'s dataset, checkpoint and metrics paths.
fn files(tag: &str) -> CampaignFiles {
    CampaignFiles {
        csv: tmp(&format!("{tag}_data.csv")),
        checkpoint: tmp(&format!("{tag}.ckpt")),
        metrics: Some(tmp(&format!("{tag}_metrics.csv"))),
    }
}

/// Open `files` (fresh or resuming) and run `plan(threads)` on
/// `engine`, pausing once `pause_at` jobs are done, if given.
fn run(
    files: &CampaignFiles,
    fresh: bool,
    engine: &Engine,
    threads: usize,
    pause_at: Option<usize>,
) -> Result<RunSummary, ArmdseError> {
    let mut observer = |p: &Progress| pause_at.is_none_or(|at| p.jobs_done < at);
    files
        .open(fresh)?
        .run(engine, &plan(threads), Some(&mut observer))
}

/// Read the dataset and metrics CSV bytes of `files`, then remove the
/// campaign's files.
fn take(files: &CampaignFiles) -> (Vec<u8>, Vec<u8>) {
    let metrics = files.metrics.as_ref().unwrap();
    let bytes = (
        std::fs::read(&files.csv).unwrap(),
        std::fs::read(metrics).unwrap(),
    );
    for p in [&files.csv, &files.checkpoint, metrics] {
        std::fs::remove_file(p).ok();
    }
    bytes
}

/// Uninterrupted two-core campaign artifacts (dataset + metrics CSV
/// bytes) at the given thread count.
fn fresh_artifacts(threads: usize) -> (Vec<u8>, Vec<u8>) {
    let files = files(&format!("fresh_{threads}"));
    let summary = run(&files, true, &Engine::multicore(2, 4), threads, None).unwrap();
    assert!(summary.completed);
    take(&files)
}

#[test]
fn two_core_campaign_is_thread_count_invariant() {
    let (data1, metrics1) = fresh_artifacts(1);
    let (data8, metrics8) = fresh_artifacts(8);
    assert_eq!(
        data1, data8,
        "dataset bytes diverged between 1 and 8 threads"
    );
    assert_eq!(metrics1, metrics8, "metrics bytes diverged");
}

#[test]
fn paused_and_resumed_two_core_campaign_is_byte_identical() {
    let (ref_data, ref_metrics) = fresh_artifacts(2);
    let files = files("resumed");

    // Phase 1: pause after two chunks (12 of 24 jobs).
    let summary = run(&files, true, &Engine::multicore(2, 4), 8, Some(2 * CHUNK)).unwrap();
    assert!(!summary.completed);
    assert_eq!(summary.jobs_done, 2 * CHUNK);

    // The paused checkpoint records the machine shape: a single-core
    // engine must refuse to continue it.
    let err = run(&files, false, &Engine::idealized(), 1, None).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("machine shapes") || msg.contains("mc.cores"),
        "expected a machine-shape mismatch error, got: {msg}"
    );

    // Phase 2: resume on the matching machine, different thread count.
    let summary = run(&files, false, &Engine::multicore(2, 4), 1, None).unwrap();
    assert!(summary.completed);
    assert_eq!(summary.resumed_from, 2 * CHUNK);

    let (data, metrics) = take(&files);
    assert_eq!(ref_data, data, "paused+resumed dataset CSV diverged");
    assert_eq!(ref_metrics, metrics, "paused+resumed metrics CSV diverged");
}

/// The proxy (one core over eight banks) and the paper's machine (one
/// core, infinite banks) are different machines with the same core
/// count: a checkpoint of either refuses to resume on the other. Only
/// the paper's machine writes a keyless checkpoint.
#[test]
fn proxy_and_idealized_checkpoints_refuse_each_other() {
    let proxy = || Engine::multicore(1, 8);
    for (name, writer, reader, keyed) in [
        (
            "proxy",
            proxy as fn() -> Engine,
            Engine::idealized as fn() -> Engine,
            true,
        ),
        ("idealized", Engine::idealized, proxy, false),
    ] {
        let dpath = tmp(&format!("{name}_shape.csv"));
        let ckpt = tmp(&format!("{name}_shape.ckpt"));
        std::fs::remove_file(&ckpt).ok();
        let mut sink = CsvSink::create(&dpath).unwrap();
        let mut observer = |p: &Progress| p.jobs_done < CHUNK;
        let summary = writer()
            .run_controlled(
                &plan(2),
                &mut sink,
                RunControl {
                    checkpoint: Some(&ckpt),
                    observer: Some(&mut observer),
                    ..RunControl::default()
                },
            )
            .unwrap();
        assert!(!summary.completed);
        drop(sink);

        let position = Checkpoint::load(&ckpt).unwrap();
        assert_eq!(
            position.extra_get("mc.cores"),
            keyed.then_some("1"),
            "{name}"
        );
        assert_eq!(
            position.extra_get("mc.banks"),
            keyed.then_some("8"),
            "{name}"
        );

        let mut wrong = CsvSink::append(&dpath).unwrap();
        let err = reader()
            .run_controlled(
                &plan(1),
                &mut wrong,
                RunControl {
                    checkpoint: Some(&ckpt),
                    position: Some(position),
                    ..RunControl::default()
                },
            )
            .expect_err("a checkpoint resumed on a different machine");
        let msg = err.to_string();
        assert!(
            msg.contains("machine shapes"),
            "{name} checkpoint: expected a machine-shape mismatch, got: {msg}"
        );
        drop(wrong);
        std::fs::remove_file(&dpath).ok();
        std::fs::remove_file(&ckpt).ok();
    }
}
