//! Microbenchmarks of the individual substrates (std-only harness; the
//! bench IDs are unchanged from the Criterion era).

use armdse_bench::baseline;
use armdse_bench::harness::Harness;
use armdse_core::space::ParamSpace;
use armdse_isa::TraceCursor;
use armdse_kernels::{build_workload, App, WorkloadScale};
use armdse_memsim::{Hierarchy, MemParams, MemoryModel};
use armdse_mltree::{permutation_importance, DecisionTreeRegressor, Matrix, Regressor};
use armdse_simcore::{Idealized, RunMode, SimBackend};
use std::hint::black_box;

fn synthetic_training_data(n: usize) -> (Matrix, Vec<f64>) {
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let a = ((i * 2654435761) % 997) as f64;
        let b = ((i * 40503) % 991) as f64;
        let c = ((i * 9176) % 983) as f64;
        rows.push(vec![a, b, c, (i % 13) as f64]);
        y.push(3.0 * a + b * b / 100.0 + if c > 500.0 { 1000.0 } else { 0.0 });
    }
    (Matrix::from_rows(&rows), y)
}

fn main() {
    let mut h = Harness::from_args("components");

    // Core-simulation throughput per application (retired instrs / s).
    let cfg = baseline();
    for app in App::ALL {
        let w = build_workload(app, WorkloadScale::Small, cfg.core.vector_length);
        h.bench_throughput(
            &format!("simulate/{}", app.name()),
            w.summary.total(),
            || black_box(Idealized.run(&w.program, &cfg.core, &cfg.mem, RunMode::Plain)),
        );
    }

    // Metrics-collection overhead: the same simulation with cycle
    // accounting enabled. Compare against simulate/STREAM to measure
    // the cost of the observability layer (expected: a few percent).
    let w_m = build_workload(App::Stream, WorkloadScale::Small, cfg.core.vector_length);
    h.bench_throughput("simulate_metrics/STREAM", w_m.summary.total(), || {
        black_box(Idealized.run(&w_m.program, &cfg.core, &cfg.mem, RunMode::Metrics))
    });

    // Trace-cursor decode throughput.
    let w = build_workload(App::Stream, WorkloadScale::Small, 128);
    h.bench_throughput("cursor/stream_small", w.summary.total(), || {
        let mut n = 0u64;
        for di in TraceCursor::new(&w.program) {
            n += u64::from(di.op.is_vector());
        }
        black_box(n)
    });

    // Memory-hierarchy access throughput (hit-dominated streaming).
    let params = MemParams::thunderx2();
    h.bench_throughput("hierarchy/streaming_4k_lines", 4096, || {
        let mut hier = Hierarchy::new(params);
        let mut t = 0;
        for i in 0..4096u64 {
            t = hier.access((i % 512) * 64, false, t);
        }
        black_box(t)
    });

    // Design-space sampling throughput.
    let space = ParamSpace::paper();
    h.bench_throughput("sampler/sample_1000", 1000, || {
        let mut acc = 0u64;
        for seed in 0..1000 {
            acc = acc.wrapping_add(u64::from(space.sample_seeded(seed).core.rob_size));
        }
        black_box(acc)
    });

    // Decision-tree training time ("training the machine learning model
    // is extremely fast, taking less than 1 minute" — paper artifact
    // appendix).
    let (x, y) = synthetic_training_data(2000);
    h.bench("tree_fit_2000x4", || {
        black_box(DecisionTreeRegressor::fit(&x, &y))
    });

    // Tree prediction throughput.
    let t = DecisionTreeRegressor::fit(&x, &y);
    h.bench_throughput("tree_predict/2000_rows", 2000, || black_box(t.predict(&x)));

    // Permutation-importance cost (10 repeats, as the paper).
    let (x5, y5) = synthetic_training_data(500);
    let t5 = DecisionTreeRegressor::fit(&x5, &y5);
    let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
    h.bench("permutation_importance_500x4", || {
        black_box(permutation_importance(&t5, &x5, &y5, &names, 10, 1))
    });

    h.finish();
}
