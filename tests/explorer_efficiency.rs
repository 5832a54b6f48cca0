//! Sample-efficiency regression test: the adaptive explorer with a
//! budget of N/10 must reach at least 0.95× the held-out R² of the
//! surrogate trained on the full N-point fixed sweep — and must beat a
//! plain random subset of the same size, or the acquisition loop is
//! dead weight. Everything is seeded, so this is a deterministic
//! regression gate; the *claim* it pins is statistical: acquisition
//! buys a ~10× reduction in simulations at ≤5% surrogate-quality cost.
//!
//! The study runs in a pinned subspace (four free features, the rest
//! fixed at ThunderX2 values), the same device the paper uses for its
//! constrained sweeps (Figs. 4/5). That is where a 24-simulation budget
//! can saturate a surrogate; in the raw 30-dimensional space *no*
//! sampler converges by N/10, so the ratio would only measure noise.

use armdse_core::config::DesignConfig;
use armdse_core::engine::Engine;
use armdse_core::explorer::{ExploreControl, ExploreOptions, Explorer};
use armdse_core::space::{ParamSpace, FEATURE_NAMES};
use armdse_core::{DseDataset, JobSpec};
use armdse_kernels::{App, WorkloadScale};
use armdse_mltree::{r2, ForestParams, Matrix, RandomForest, Regressor};

const POOL: usize = 240;
const BUDGET: usize = 24; // N/10
const HOLDOUT: usize = 40;
const SEED: u64 = 2024;
const FREE: [&str; 4] = ["Frontend-Width", "Commit-Width", "L1-Latency", "ROB-Size"];

fn forest_params() -> ForestParams {
    ForestParams {
        n_trees: 48,
        ..Default::default()
    }
}

/// Pin every feature outside `FREE` to its ThunderX2 value.
fn pins() -> Vec<(String, f64)> {
    let base = DesignConfig::thunderx2().to_features();
    FEATURE_NAMES
        .iter()
        .enumerate()
        .filter(|(_, n)| !FREE.contains(n))
        .map(|(i, n)| (n.to_string(), base[i]))
        .collect()
}

/// Simulate candidates `[lo, hi)` of the shared pool in one engine run.
fn simulate_range(engine: &Engine, lo: usize, hi: usize) -> DseDataset {
    let spec = JobSpec {
        configs: hi - lo,
        scale: WorkloadScale::Tiny,
        seed: SEED,
        threads: 4,
        apps: vec![App::Stream],
        pins: pins(),
        ..JobSpec::default()
    };
    let plan = spec
        .plan()
        .unwrap()
        .with_config_indices((lo as u64..hi as u64).collect())
        .unwrap();
    let mut data = DseDataset::default();
    engine.run(&plan, &mut data).unwrap();
    data
}

fn xy(data: &DseDataset, upto: usize) -> (Matrix, Vec<f64>) {
    let mut x = Matrix::new(30);
    let mut y = Vec::new();
    for r in data.rows.iter().take(upto) {
        x.push_row(&r.features);
        y.push(r.cycles as f64);
    }
    (x, y)
}

#[test]
fn adaptive_budget_n_over_10_matches_the_full_sweep_surrogate() {
    let engine = Engine::idealized();
    let space = ParamSpace::paper();

    // Held-out evaluation set: candidates the sweep never trains on.
    let (hx, hy) = xy(&simulate_range(&engine, POOL, POOL + HOLDOUT), HOLDOUT);

    // Fixed full sweep: all N candidates, surrogate fit from scratch.
    let sweep = simulate_range(&engine, 0, POOL);
    assert_eq!(
        sweep.rows.len(),
        POOL,
        "tiny Stream sweep must all validate"
    );
    let (sx, sy) = xy(&sweep, POOL);
    let full = RandomForest::fit_with(&sx, &sy, forest_params(), SEED);
    let full_r2 = r2(&full.predict(&hx), &hy);
    assert!(
        full_r2 > 0.9,
        "full-sweep surrogate must be strong before the ratio means anything: {full_r2}"
    );

    // Baseline at the same budget: the first BUDGET pool candidates
    // (i.e. what a fixed sweep stopped early would have trained on).
    let (rx, ry) = xy(&sweep, BUDGET);
    let random = RandomForest::fit_with(&rx, &ry, forest_params(), SEED);
    let random_r2 = r2(&random.predict(&hx), &hy);

    // Adaptive explorer at a tenth of the budget, same pool and seed.
    // Exploration-heavy ε schedule: the goal of this run is surrogate
    // accuracy, so acquisition should lean on ensemble uncertainty.
    let dir = std::env::temp_dir().join("armdse_explorer_efficiency");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let opts = ExploreOptions {
        app: App::Stream,
        scale: WorkloadScale::Tiny,
        seed: SEED,
        pool: POOL,
        budget: BUDGET,
        batch: 4,
        holdout: HOLDOUT,
        threads: 4,
        pins: pins(),
        forest: forest_params(),
        eps0: 1.0,
        eps_min: 0.8,
        eps_decay: 0.95,
        ..ExploreOptions::for_app(App::Stream)
    };
    let report = Explorer::new(&engine, &space, opts, &dir)
        .unwrap()
        .run(ExploreControl::default())
        .unwrap();
    assert!(report.completed);
    assert_eq!(report.samples, BUDGET);
    let adaptive_r2 = report.final_r2();

    assert!(
        adaptive_r2 >= 0.95 * full_r2,
        "adaptive R² {adaptive_r2:.4} at {BUDGET} sims fell below 0.95× the \
         full-sweep R² {full_r2:.4} at {POOL} sims"
    );
    assert!(
        adaptive_r2 > random_r2,
        "adaptive R² {adaptive_r2:.4} must beat the same-budget random \
         subset's {random_r2:.4}, or acquisition is dead weight"
    );

    // The curve must actually improve as samples accrue: the final
    // point must beat the first refit (round 0 is pure random).
    assert!(
        report.curve.last().unwrap().r2 > report.curve.first().unwrap().r2,
        "accuracy-vs-samples curve never improved: {:?}",
        report
            .curve
            .iter()
            .map(|p| (p.samples, p.r2))
            .collect::<Vec<_>>()
    );

    std::fs::remove_dir_all(&dir).ok();
}
