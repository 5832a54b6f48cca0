//! Ablation benches for the design choices DESIGN.md calls out
//! (std-only harness; bench IDs unchanged from the Criterion era).
//!
//! * Surrogate family: the paper's single decision tree vs the linear
//!   baseline of prior work vs a random-forest extension (time; the
//!   accuracy comparison lives in `tests/ablation_accuracy.rs`).
//! * Per-app models vs one unified model (the paper argues a unified
//!   tree "would likely branch based on a given application … leading to
//!   a larger and less interpretable model").
//! * Memory-model choices: prefetcher on/off, infinite vs finite banking.
//! * Frontend choices: loop buffer on/off.

use armdse_bench::harness::Harness;
use armdse_bench::{baseline, bench_dataset};
use armdse_core::DseDataset;
use armdse_kernels::{build_workload, App, WorkloadScale};
use armdse_mltree::{DecisionTreeRegressor, LinearRegression, Matrix, RandomForest};
use armdse_simcore::{BankedProxy, Idealized, RunMode, SimBackend};
use std::hint::black_box;

fn app_xy(data: &DseDataset, app: App) -> (Matrix, Vec<f64>) {
    let ml = data.ml_dataset(app);
    (ml.x, ml.y)
}

/// Unified-model design: all apps in one matrix with the app index as an
/// extra feature (the alternative the paper rejects).
fn unified_xy(data: &DseDataset) -> (Matrix, Vec<f64>) {
    let mut x = Matrix::new(31);
    let mut y = Vec::new();
    for r in &data.rows {
        let mut row = r.features.to_vec();
        row.push(r.app.index() as f64);
        x.push_row(&row);
        y.push(r.cycles as f64);
    }
    (x, y)
}

fn main() {
    let mut h = Harness::from_args("ablations");
    let data = bench_dataset(32);

    // Surrogate families.
    let (x, y) = app_xy(&data, App::Stream);
    h.bench("surrogate_fit/decision_tree", || {
        black_box(DecisionTreeRegressor::fit(&x, &y))
    });
    h.bench("surrogate_fit/linear_baseline", || {
        black_box(LinearRegression::fit(&x, &y))
    });
    h.bench("surrogate_fit/random_forest_32", || {
        black_box(RandomForest::fit(&x, &y, 1))
    });

    // Per-app vs unified model.
    h.bench("model_partitioning/four_per_app_trees", || {
        for app in App::ALL {
            let (x, y) = app_xy(&data, app);
            black_box(DecisionTreeRegressor::fit(&x, &y));
        }
    });
    let (ux, uy) = unified_xy(&data);
    h.bench("model_partitioning/one_unified_tree", || {
        black_box(DecisionTreeRegressor::fit(&ux, &uy))
    });

    // Prefetcher depth.
    let mut cfg = baseline();
    let w = build_workload(App::Stream, WorkloadScale::Small, cfg.core.vector_length);
    for depth in [0u32, 2] {
        cfg.mem.prefetch_depth = depth;
        let mem = cfg.mem;
        let core = cfg.core;
        h.bench(&format!("prefetcher/depth_{depth}"), || {
            black_box(Idealized.run(&w.program, &core, &mem, RunMode::Plain))
        });
    }

    // Infinite vs finite banking.
    let cfg = baseline();
    let w = build_workload(App::Stream, WorkloadScale::Small, cfg.core.vector_length);
    h.bench("banking/infinite_banks", || {
        black_box(Idealized.run(&w.program, &cfg.core, &cfg.mem, RunMode::Plain))
    });
    h.bench("banking/finite_banks_proxy", || {
        black_box(BankedProxy.run(&w.program, &cfg.core, &cfg.mem, RunMode::Plain))
    });

    // Loop buffer on/off.
    let mut cfg = baseline();
    cfg.core.fetch_block_bytes = 16; // make fetch the bottleneck
    let w = build_workload(App::MiniBude, WorkloadScale::Small, cfg.core.vector_length);
    for (label, size) in [("off", 1u32), ("on_128", 128)] {
        cfg.core.loop_buffer_size = size;
        let core = cfg.core;
        h.bench(&format!("loop_buffer/{label}"), || {
            black_box(Idealized.run(&w.program, &core, &cfg.mem, RunMode::Plain))
        });
    }

    h.finish();
}
