//! Golden determinism test for the metrics stream (the observability
//! mirror of `tests/engine_resume.rs`): the per-job counter CSV written
//! by a metrics-on campaign must be byte-identical at any worker-thread
//! count, and a campaign paused at a chunk boundary and resumed later
//! must append exactly the bytes the uninterrupted run would have
//! written. One metrics row is emitted per job — including
//! validation-discarded jobs — so the stream's shape depends only on
//! the plan, never on scheduling.

use armdse::core::engine::{Checkpoint, Engine, Progress, RunControl, RunPlan};
use armdse::core::metrics::MetricsCsvSink;
use armdse::core::orchestrator::GenOptions;
use armdse::core::space::ParamSpace;
use armdse::core::DseDataset;
use armdse::kernels::{App, WorkloadScale};
use std::path::PathBuf;

const CONFIGS: usize = 10; // 10 configs x 4 apps = 40 jobs
const CHUNK: usize = 8; // 5 chunks

fn plan(threads: usize) -> RunPlan {
    let opts = GenOptions {
        configs: CONFIGS,
        scale: WorkloadScale::Tiny,
        seed: 0x00D_CAFE,
        threads,
        apps: App::ALL.to_vec(),
    };
    RunPlan::new(&ParamSpace::paper(), &opts)
        .expect("valid plan")
        .with_chunk_jobs(CHUNK)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("armdse_metrics_det_{name}"))
}

/// Uninterrupted metrics CSV at the given thread count.
fn fresh_metrics(threads: usize) -> Vec<u8> {
    let path = tmp(&format!("fresh_{threads}.csv"));
    let mut msink = MetricsCsvSink::create(&path).unwrap();
    let mut data = DseDataset::default();
    let summary = Engine::idealized()
        .run_controlled(
            &plan(threads),
            &mut data,
            RunControl {
                metrics: Some(&mut msink),
                ..RunControl::default()
            },
        )
        .unwrap();
    assert!(summary.completed);
    assert_eq!(msink.rows_written(), CONFIGS * App::ALL.len());
    drop(msink);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
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

    let path = tmp("resumed.csv");
    let ckpt = tmp("resumed.ckpt");
    std::fs::remove_file(&ckpt).ok();

    // Phase 1: pause after two chunks (16 of 40 jobs).
    let mut msink = MetricsCsvSink::create(&path).unwrap();
    let mut data = DseDataset::default();
    let mut observer = |p: &Progress| p.jobs_done < 2 * CHUNK;
    let summary = Engine::idealized()
        .run_controlled(
            &plan(8),
            &mut data,
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
    drop(msink);

    // Phase 2: resume with a different thread count, appending.
    let mut msink = MetricsCsvSink::append(&path).unwrap();
    let summary = Engine::idealized()
        .run_controlled(
            &plan(1),
            &mut data,
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
    drop(msink);

    let resumed = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(
        reference, resumed,
        "paused+resumed metrics CSV diverged from the uninterrupted run"
    );
}
