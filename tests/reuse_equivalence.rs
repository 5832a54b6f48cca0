//! Reuse-equivalence proof harness: the run-memoizing backend must
//! be **bit-identical** to the plain backend — statistics, metrics
//! counters, and emitted dataset CSV bytes — in every cache state (cold,
//! warm, and polluted by a different campaign) and at any thread count.
//!
//! This is the memoization analogue of `tests/determinism.rs`: the paper
//! pipeline's numbers must never depend on what happens to be cached.

use armdse::core::engine::Checkpoint;
use armdse::core::space::ParamSpace;
use armdse::core::JobSpec;
use armdse::core::{CsvSink, Engine, Progress, RunControl, RunPlan};
use armdse::kernels::{App, WorkloadScale};
use armdse::memsim::DEFAULT_BANKS;
use armdse::simcore::{Counters, Memoized, MultiCore, RunMode, SimBackend, SimStats};

/// A small campaign over the paper's ThunderX2-anchored space: every
/// config is a constrained sample around the baseline's parameter
/// ranges, exactly what dataset generation simulates.
fn plan(configs: usize, threads: usize) -> RunPlan {
    let opts = JobSpec {
        configs,
        scale: WorkloadScale::Tiny,
        seed: 0x7D2_2024,
        threads,
        apps: vec![App::Stream, App::TeaLeaf],
        ..JobSpec::default()
    };
    opts.plan().unwrap()
}

/// Run `plan` on `engine` and return the emitted CSV bytes.
fn csv_bytes(engine: &Engine, plan: &RunPlan, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("armdse_reuse_eq_{tag}.csv"));
    let mut sink = CsvSink::create(&path).unwrap();
    engine.run(plan, &mut sink).unwrap();
    drop(sink);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Cold cache, warm cache, and cross-campaign-polluted cache all emit
/// the reference CSV byte-for-byte, at 1 and at 8 worker threads.
#[test]
fn dataset_csv_bytes_identical_in_every_cache_state() {
    for threads in [1usize, 8] {
        let p = plan(5, threads);
        let want = csv_bytes(&Engine::idealized(), &p, &format!("ref_{threads}"));
        let e = Engine::memoized(256);
        let cold = csv_bytes(&e, &p, &format!("cold_{threads}"));
        assert_eq!(cold, want, "threads={threads}: cold cache diverged");
        let cold_misses = e.backend().reuse_stats().unwrap().misses;
        let warm = csv_bytes(&e, &p, &format!("warm_{threads}"));
        assert_eq!(warm, want, "threads={threads}: warm cache diverged");
        // The warm pass is one hit per job and simulates nothing.
        let rs = e.backend().reuse_stats().unwrap();
        assert_eq!(
            (rs.hits, rs.misses),
            (p.jobs() as u64, cold_misses),
            "threads={threads}"
        );
        // Pollute the cache with a different campaign, then re-emit.
        let other = JobSpec {
            configs: 4,
            scale: WorkloadScale::Tiny,
            seed: 0xBAD_CAFE,
            threads,
            apps: vec![App::MiniBude, App::MiniSweep],
            ..JobSpec::default()
        };
        let other_plan = other.plan().unwrap();
        e.run(&other_plan, &mut armdse::core::DseDataset::default())
            .unwrap();
        let polluted = csv_bytes(&e, &p, &format!("cross_{threads}"));
        assert_eq!(polluted, want, "threads={threads}: polluted cache diverged");
    }
}

/// A memoized campaign paused by a binary of the interval tier left a
/// `v2` checkpoint naming its tier (`reuse.fidelity=memoized`) and its
/// interval length (`reuse.interval_len`). The header is refused on
/// load; under the `v1` header the tier key is refused by the run loop
/// before the CSV is touched.
#[test]
fn a_checkpoint_left_by_the_interval_tier_is_refused_and_never_spliced() {
    let p = plan(5, 2).with_chunk_jobs(4); // 10 jobs: chunks of 4, 4, 2
    let csv = std::env::temp_dir().join("armdse_reuse_eq_compat.csv");
    let ckpt = std::env::temp_dir().join("armdse_reuse_eq_compat.ckpt");

    let mut sink = CsvSink::create(&csv).unwrap();
    let mut pause = |_: &Progress| false;
    let control = RunControl {
        checkpoint: Some(&ckpt),
        observer: Some(&mut pause),
        ..RunControl::default()
    };
    let paused = Engine::memoized(256)
        .run_controlled(&p, &mut sink, control)
        .unwrap();
    assert_eq!((paused.completed, paused.jobs_done), (false, 4));
    drop(sink);
    let paused_csv = std::fs::read(&csv).unwrap();
    let body = std::fs::read_to_string(&ckpt).unwrap();
    let tail = "reuse.fidelity=memoized\nreuse.interval_len=4096\n";
    std::fs::write(&ckpt, body.replace(" v1\n", " v2\n") + tail).unwrap();
    let err = Checkpoint::load(&ckpt).unwrap_err().to_string();
    assert!(err.contains("not an armdse v1 checkpoint"), "{err}");

    std::fs::write(&ckpt, body + tail).unwrap();
    let mut sink = CsvSink::append(&csv).unwrap();
    let control = RunControl {
        checkpoint: Some(&ckpt),
        position: Some(Checkpoint::load(&ckpt).unwrap()),
        ..RunControl::default()
    };
    let err = Engine::memoized(256)
        .run_controlled(&p, &mut sink, control)
        .unwrap_err()
        .to_string();
    assert!(err.contains("reuse.fidelity"), "{err}");
    drop(sink);
    assert_eq!(std::fs::read(&csv).unwrap(), paused_csv);
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&ckpt).ok();
}

/// Per-design-point equality of the raw statistics and metrics counters
/// across a seeded subspace grid, through a cold and a warm cache.
#[test]
fn stats_and_counters_bit_identical_on_subspace_grid() {
    let space = ParamSpace::paper();
    let core_baseline = armdse::simcore::CoreParams::thunderx2();
    let scale = WorkloadScale::Tiny;
    let plain = Engine::idealized();
    let configs: Vec<_> = (0..6u64)
        .map(|i| space.sample_seeded(0x0005_EED0 + i))
        .collect();
    for (backend, cached) in [
        (
            Box::new(MultiCore::IDEALIZED) as Box<dyn SimBackend>,
            Box::new(Memoized::new(MultiCore::IDEALIZED)) as Box<dyn SimBackend>,
        ),
        (
            Box::new(MultiCore::new(1, DEFAULT_BANKS)),
            Box::new(Memoized::new(MultiCore::new(1, DEFAULT_BANKS))),
        ),
    ] {
        for app in [App::Stream, App::MiniSweep] {
            let w = plain.workload(app, scale, core_baseline.vector_length);
            for cfg in &configs {
                let w_cfg = plain.workload(app, scale, cfg.core.vector_length);
                for (program, core, mem) in [
                    (
                        &w.program,
                        &core_baseline,
                        &armdse::memsim::MemParams::thunderx2(),
                    ),
                    (&w_cfg.program, &cfg.core, &cfg.mem),
                ] {
                    let want: SimStats = backend.run(program, core, mem, RunMode::Plain).stats;
                    let (want_m, want_c): (SimStats, Counters) = backend
                        .run(program, core, mem, RunMode::Metrics)
                        .into_metrics();
                    // Cold, then warm.
                    for pass in ["cold", "warm"] {
                        let got = cached.run(program, core, mem, RunMode::Plain).stats;
                        assert_eq!(got, want, "{} {app:?} {pass}", backend.name());
                        let (gm, gc) = cached
                            .run(program, core, mem, RunMode::Metrics)
                            .into_metrics();
                        assert_eq!(gm, want_m, "{} {app:?} {pass} metrics", backend.name());
                        assert_eq!(gc, want_c, "{} {app:?} {pass} counters", backend.name());
                    }
                }
            }
            let rs = cached.reuse_stats().unwrap();
            assert!(rs.hits > 0, "{}: warm passes must hit", backend.name());
        }
    }
}
