//! # armdse-bench — benchmark support
//!
//! The benches live in `benches/` and run on the std-only [`harness`]
//! (no external benchmarking crates, so `cargo bench` works offline):
//!
//! * `tables_figures` — one benchmark per paper table/figure, each
//!   regenerating a reduced-size version of the experiment end-to-end
//!   (workload generation → simulation → model → analysis).
//! * `components` — microbenchmarks of the substrates: core simulation
//!   throughput per app, cache hierarchy access rates, trace-cursor
//!   throughput, sampler throughput, tree fit/predict, permutation
//!   importance.
//! * `ablations` — the design choices DESIGN.md calls out: decision tree
//!   vs linear baseline vs random forest; per-app models vs one unified
//!   model; prefetcher on/off; loop buffer on/off; infinite vs finite
//!   banking.
//! * `explore` — the acquisition layer's hot functions, the incremental
//!   forest operations, and one end-to-end tiny `Explorer` campaign.
//! * `reuse` — plain vs cold-cache vs warm-cache campaign throughput
//!   through the memoizing tier, and the raw interval-cache hit path.
//! * `multicore` — simulated core-cycles per second through the
//!   `MultiCore` backend at N = 1, 2, 4, plus a 2-core campaign.
//! * `server` — submission and status-poll latency, row-streaming
//!   throughput, and the full submit → run → done round trip over HTTP.
//!
//! The end-to-end, per-layer benchmark that performance claims are
//! measured with is a separate package (`benchmark/`, see
//! `benchmark/BENCHMARK.md`); these suites are micro-benches.
//!
//! This library crate hosts the harness plus shared fixtures.

pub mod harness;
pub mod trend;

use armdse_core::engine::{Engine, RunPlan};
use armdse_core::orchestrator::GenOptions;
use armdse_core::space::ParamSpace;
use armdse_core::DesignConfig;
use armdse_core::DseDataset;
use armdse_kernels::{App, WorkloadScale};

/// A small deterministic dataset for model benches (kept tiny so
/// `cargo bench` completes quickly even single-core).
pub fn bench_dataset(configs: usize) -> DseDataset {
    let opts = GenOptions {
        configs,
        scale: WorkloadScale::Tiny,
        seed: 0xBE7C,
        threads: 1,
        apps: App::ALL.to_vec(),
    };
    let plan = RunPlan::new(&ParamSpace::paper(), &opts).expect("valid bench plan");
    let mut data = DseDataset::default();
    Engine::idealized()
        .run(&plan, &mut data)
        .expect("in-memory sink cannot fail");
    data
}

/// The baseline configuration used by simulation benches.
pub fn baseline() -> DesignConfig {
    DesignConfig::thunderx2()
}
