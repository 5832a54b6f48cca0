//! Cycle-accounting invariants of the observability layer.
//!
//! Two properties are pinned here (see docs/METRICS.md):
//!
//! 1. **Conservation** — `cycles == Σ retire_* + Σ stall_*`: the
//!    exclusive attribution charges every simulated cycle to exactly
//!    one bucket, including on pathologically crippled design points
//!    where a single structure dominates.
//! 2. **Transparency** — enabling metrics collection changes nothing:
//!    the dataset CSV produced by a metrics-on campaign is
//!    byte-identical to a metrics-off one.

use armdse::core::engine::{CsvSink, Engine};
use armdse::core::space::ParamSpace;
use armdse::core::DesignConfig;
use armdse::core::JobSpec;
use armdse::kernels::{App, WorkloadScale};
use armdse::memsim::MemParams;
use armdse::simcore::{simulate, CoreParams, CycleBucket, MultiCore, RunMode, SimBackend};

fn check_conserves(core: &CoreParams, mem: &MemParams, tag: &str) {
    for app in App::ALL {
        let engine = Engine::idealized();
        let cfg = DesignConfig {
            core: *core,
            mem: *mem,
        };
        let (stats, counters) = engine.simulate_config_metrics(app, WorkloadScale::Tiny, &cfg);
        assert_eq!(counters.cycles, stats.cycles, "{tag}/{app:?}");
        assert!(
            counters.conserves(),
            "{tag}/{app:?}: {} cycles, {} attributed ({:?})",
            counters.cycles,
            counters.attributed_cycles(),
            counters.buckets
        );
        let by_hand: u64 = CycleBucket::ALL.iter().map(|&b| counters.bucket(b)).sum();
        assert_eq!(by_hand, stats.cycles, "{tag}/{app:?}: bucket sum");
        assert_eq!(
            counters.retire_cycles() + counters.stall_cycles(),
            stats.cycles,
            "{tag}/{app:?}: retire+stall split"
        );
    }
}

#[test]
fn baseline_conserves_every_cycle() {
    check_conserves(
        &CoreParams::thunderx2(),
        &MemParams::thunderx2(),
        "baseline",
    );
}

#[test]
fn crippled_structures_still_conserve() {
    let mem = MemParams::thunderx2();
    // Each variant starves a different structure so a different family
    // of stall buckets dominates — conservation must hold in all.
    let mut tiny_rob = CoreParams::thunderx2();
    tiny_rob.rob_size = 8;
    check_conserves(&tiny_rob, &mem, "tiny-rob");

    let mut tiny_queues = CoreParams::thunderx2();
    tiny_queues.load_queue = 4;
    tiny_queues.store_queue = 4;
    check_conserves(&tiny_queues, &mem, "tiny-lsq");

    let mut narrow = CoreParams::thunderx2();
    narrow.commit_width = 1;
    narrow.frontend_width = 1;
    check_conserves(&narrow, &mem, "narrow");

    let mut few_regs = CoreParams::thunderx2();
    few_regs.gp_regs = 40;
    few_regs.fp_regs = 40;
    check_conserves(&few_regs, &mem, "few-regs");

    let mut choked_mem = CoreParams::thunderx2();
    choked_mem.mem_requests_per_cycle = 1;
    choked_mem.loads_per_cycle = 1;
    choked_mem.stores_per_cycle = 1;
    check_conserves(&choked_mem, &mem, "choked-mem");

    let mut slow_mem = MemParams::thunderx2();
    slow_mem.ram_access_ns = 500.0;
    check_conserves(&CoreParams::thunderx2(), &slow_mem, "slow-ram");
}

#[test]
fn sampled_design_points_conserve() {
    let space = ParamSpace::paper();
    let engine = Engine::idealized();
    for seed in 0..20u64 {
        let cfg = space.sample_seeded(seed);
        let app = App::ALL[(seed % 4) as usize];
        let (stats, counters) = engine.simulate_config_metrics(app, WorkloadScale::Tiny, &cfg);
        assert!(
            counters.conserves(),
            "seed {seed}/{app:?}: {} cycles, {} attributed",
            counters.cycles,
            counters.attributed_cycles()
        );
        assert_eq!(counters.cycles, stats.cycles, "seed {seed}");
    }
}

#[test]
fn free_function_entry_point_is_transparent() {
    let core = CoreParams::thunderx2();
    let mem = MemParams::thunderx2();
    let w = armdse::kernels::build_workload(App::TeaLeaf, WorkloadScale::Tiny, core.vector_length);
    let plain = simulate(&w.program, &core, &mem);
    let (stats, counters) = MultiCore::IDEALIZED
        .run(&w.program, &core, &mem, RunMode::Metrics)
        .into_metrics();
    assert_eq!(stats, plain, "metrics perturbed the run");
    assert_eq!(counters.loop_buffer_cycles, stats.stalls.loop_buffer_cycles);
}

#[test]
fn metrics_on_campaign_writes_identical_dataset_bytes() {
    let spec = JobSpec {
        configs: 6,
        scale: WorkloadScale::Tiny,
        seed: 0xBEEF_CAFE,
        threads: 2,
        apps: App::ALL.to_vec(),
        chunk_jobs: 7,
        ..JobSpec::default()
    };
    let plan = spec.plan().unwrap();
    let engine = Engine::idealized();
    let tmp = std::env::temp_dir();

    let off_path = tmp.join("armdse_metrics_off.csv");
    let mut off_sink = CsvSink::create(&off_path).unwrap();
    engine.run(&plan, &mut off_sink).unwrap();
    drop(off_sink);

    let on_path = tmp.join("armdse_metrics_on.csv");
    let mut on_sink = (CsvSink::create(&on_path).unwrap(), Vec::new());
    engine.run(&plan, &mut on_sink).unwrap();
    let (on_sink, metrics) = on_sink;
    drop(on_sink);

    let off = std::fs::read(&off_path).unwrap();
    let on = std::fs::read(&on_path).unwrap();
    std::fs::remove_file(&off_path).ok();
    std::fs::remove_file(&on_path).ok();
    assert_eq!(off, on, "metrics collection changed the dataset bytes");
    assert_eq!(metrics.len(), plan.jobs());
}
