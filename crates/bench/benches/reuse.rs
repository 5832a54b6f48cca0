//! Benchmarks of the interval-reuse stack: cold-cache vs warm-cache
//! campaign throughput through the memoizing tier (the headline number
//! the reuse layer exists to move), the plain backend for context, and
//! the raw interval-cache hit path.
//!
//! The cold/warm pair is the acceptance contract: a warm interval cache
//! must push simulated-jobs/sec well past the cold (memoize-everything)
//! pass, because a repeated design point reduces to hash-chain walks
//! and cache lookups instead of cycle-by-cycle simulation.

use armdse_bench::harness::Harness;
use armdse_core::dataset::DseDataset;
use armdse_core::engine::{Engine, RunPlan};
use armdse_core::orchestrator::GenOptions;
use armdse_core::space::ParamSpace;
use armdse_kernels::{App, WorkloadScale};
use armdse_simcore::{CoreParams, Idealized, Memoized, RunMode, SimBackend, DEFAULT_INTERVAL_LEN};
use std::hint::black_box;

/// The benchmark campaign: a small single-threaded dataset plan, so the
/// measured quantity is backend time, not thread scheduling.
fn plan() -> RunPlan {
    let opts = GenOptions {
        configs: 6,
        scale: WorkloadScale::Tiny,
        seed: 0xBE7C_2024,
        threads: 1,
        apps: vec![App::Stream, App::TeaLeaf],
    };
    RunPlan::new(&ParamSpace::paper(), &opts).expect("bench plan validates")
}

/// Run the campaign once on `engine`, returning rows (kept black-boxed).
fn run_once(engine: &Engine, p: &RunPlan) -> usize {
    let mut sink = DseDataset::default();
    engine.run(p, &mut sink).expect("bench campaign runs");
    sink.rows.len()
}

fn main() {
    let mut h = Harness::from_args("reuse");
    let p = plan();
    let jobs = p.jobs() as u64;

    // Context: the exact backend with no caching at all.
    let plain = Engine::idealized();
    h.bench_throughput("reuse/plain_jobs", jobs, || black_box(run_once(&plain, &p)));

    // Cold cache: every interval is simulated and inserted. This pays
    // the full simulation plus fingerprinting and snapshotting.
    let cold = Engine::memoized(DEFAULT_INTERVAL_LEN);
    h.bench_throughput("reuse/cold_jobs", jobs, || {
        cold.backend().clear_reuse_cache();
        black_box(run_once(&cold, &p))
    });

    // Warm cache: the same campaign re-run against a populated cache —
    // every interval chain resolves to lookups. The warm/cold ratio is
    // the reuse speedup the tier is accepted on (>= 1.5x).
    let warm = Engine::memoized(DEFAULT_INTERVAL_LEN);
    run_once(&warm, &p);
    h.bench_throughput("reuse/warm_jobs", jobs, || black_box(run_once(&warm, &p)));

    // Raw single-workload hit path: repeated simulation of one program
    // through a warm memoizer, isolating cache-walk overhead from
    // campaign orchestration.
    let core = CoreParams::thunderx2();
    let mem = armdse_memsim::MemParams::thunderx2();
    let w = plain.workload(App::Stream, WorkloadScale::Tiny, core.vector_length);
    let memo = Memoized::with_interval_len(Idealized, DEFAULT_INTERVAL_LEN);
    let cycles = |b: &dyn SimBackend| b.run(&w.program, &core, &mem, RunMode::Plain).stats.cycles;
    cycles(&memo);
    h.bench("reuse/warm_hit_single_workload", || {
        black_box(cycles(&memo))
    });

    h.finish();
}
