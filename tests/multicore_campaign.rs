//! End-to-end campaign tests for the multicore machine layer
//! (`Engine::multicore`): a two-core campaign over the new kernels
//! (SpMV, GEMM, Graph) streams byte-identical artifacts at any worker
//! thread count and across pause/resume, and a checkpoint written by a
//! multicore campaign refuses to resume under a different machine
//! shape.

use armdse::core::engine::{Checkpoint, CsvSink, Engine, Progress, RunControl, RunPlan};
use armdse::core::metrics::{MetricsCsvSink, MetricsRow};
use armdse::core::orchestrator::GenOptions;
use armdse::core::space::ParamSpace;
use armdse::core::DseDataset;
use armdse::kernels::{App, WorkloadScale};
use std::path::PathBuf;

const CONFIGS: usize = 8; // 8 configs x 3 apps = 24 jobs
const CHUNK: usize = 6; // 4 chunks

/// The new kernels, end-to-end: every job of these campaigns runs
/// SpMV, GEMM, or the pointer-chasing Graph kernel.
const KERNELS: [App; 3] = [App::Spmv, App::Gemm, App::Graph];

fn plan(threads: usize) -> RunPlan {
    let opts = GenOptions {
        configs: CONFIGS,
        scale: WorkloadScale::Tiny,
        seed: 0x0DD_C0DE,
        threads,
        apps: KERNELS.to_vec(),
    };
    RunPlan::new(&ParamSpace::paper(), &opts)
        .expect("valid plan")
        .with_chunk_jobs(CHUNK)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("armdse_mc_campaign_{name}"))
}

/// Run a full campaign on `engine`, returning the dataset rows and the
/// in-memory metrics stream.
fn campaign(engine: &Engine, threads: usize) -> (DseDataset, Vec<MetricsRow>) {
    let mut data = DseDataset::default();
    let mut metrics: Vec<MetricsRow> = Vec::new();
    let summary = engine
        .run_controlled(
            &plan(threads),
            &mut data,
            RunControl {
                metrics: Some(&mut metrics),
                ..RunControl::default()
            },
        )
        .unwrap();
    assert!(summary.completed);
    (data, metrics)
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

/// Uninterrupted two-core campaign artifacts (dataset + metrics CSV
/// bytes) at the given thread count.
fn fresh_artifacts(threads: usize) -> (Vec<u8>, Vec<u8>) {
    let dpath = tmp(&format!("fresh_data_{threads}.csv"));
    let mpath = tmp(&format!("fresh_metrics_{threads}.csv"));
    let mut sink = CsvSink::create(&dpath).unwrap();
    let mut msink = MetricsCsvSink::create(&mpath).unwrap();
    let summary = Engine::multicore(2, 4)
        .run_controlled(
            &plan(threads),
            &mut sink,
            RunControl {
                metrics: Some(&mut msink),
                ..RunControl::default()
            },
        )
        .unwrap();
    assert!(summary.completed);
    drop(sink);
    drop(msink);
    let data = std::fs::read(&dpath).unwrap();
    let metrics = std::fs::read(&mpath).unwrap();
    std::fs::remove_file(&dpath).ok();
    std::fs::remove_file(&mpath).ok();
    (data, metrics)
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

    let dpath = tmp("resumed_data.csv");
    let mpath = tmp("resumed_metrics.csv");
    let ckpt = tmp("resumed.ckpt");
    std::fs::remove_file(&ckpt).ok();

    // Phase 1: pause after two chunks (12 of 24 jobs).
    let mut sink = CsvSink::create(&dpath).unwrap();
    let mut msink = MetricsCsvSink::create(&mpath).unwrap();
    let mut observer = |p: &Progress| p.jobs_done < 2 * CHUNK;
    let summary = Engine::multicore(2, 4)
        .run_controlled(
            &plan(8),
            &mut sink,
            RunControl {
                checkpoint: Some(&ckpt),
                observer: Some(&mut observer),
                metrics: Some(&mut msink),
                ..RunControl::default()
            },
        )
        .unwrap();
    assert!(!summary.completed);
    assert_eq!(summary.jobs_done, 2 * CHUNK);
    drop(sink);
    drop(msink);

    // The paused checkpoint records the machine shape: a single-core
    // engine must refuse to continue it.
    let mut wrong = CsvSink::append(&dpath).unwrap();
    let err = Engine::idealized()
        .run_controlled(
            &plan(1),
            &mut wrong,
            RunControl {
                checkpoint: Some(&ckpt),
                position: Some(Checkpoint::load(&ckpt).unwrap()),
                ..RunControl::default()
            },
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("machine shapes") || msg.contains("mc.cores"),
        "expected a machine-shape mismatch error, got: {msg}"
    );
    drop(wrong);

    // Phase 2: resume on the matching machine, different thread count.
    let mut sink = CsvSink::append(&dpath).unwrap();
    let mut msink = MetricsCsvSink::append(&mpath).unwrap();
    let summary = Engine::multicore(2, 4)
        .run_controlled(
            &plan(1),
            &mut sink,
            RunControl {
                checkpoint: Some(&ckpt),
                position: Some(Checkpoint::load(&ckpt).unwrap()),
                metrics: Some(&mut msink),
                ..RunControl::default()
            },
        )
        .unwrap();
    assert!(summary.completed);
    assert_eq!(summary.resumed_from, 2 * CHUNK);
    drop(sink);
    drop(msink);

    let data = std::fs::read(&dpath).unwrap();
    let metrics = std::fs::read(&mpath).unwrap();
    std::fs::remove_file(&dpath).ok();
    std::fs::remove_file(&mpath).ok();
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(ref_data, data, "paused+resumed dataset CSV diverged");
    assert_eq!(ref_metrics, metrics, "paused+resumed metrics CSV diverged");
}
