//! End-to-end integration: the full paper pipeline through the public
//! API — sampling → plan → engine run → dataset → surrogate →
//! introspection.

use armdse::core::space::ParamSpace;
use armdse::core::JobSpec;
use armdse::core::{DseDataset, Engine, SurrogateSuite};
use armdse::kernels::{App, WorkloadScale};
use armdse::mltree::Regressor;

fn opts() -> JobSpec {
    JobSpec {
        configs: 50,
        scale: WorkloadScale::Tiny,
        seed: 31_337,
        threads: 2,
        apps: App::ALL.to_vec(),
        ..JobSpec::default()
    }
}

fn dataset(opts: &JobSpec) -> DseDataset {
    let plan = opts.plan().expect("valid plan");
    let mut data = DseDataset::default();
    Engine::idealized()
        .run(&plan, &mut data)
        .expect("in-memory sink cannot fail");
    data
}

#[test]
fn full_pipeline_dataset_to_importance() {
    let data = dataset(&opts());
    // Every sampled config validates on every app at Tiny scale.
    assert_eq!(data.rows.len(), 50 * 4);
    assert!(data.discarded.is_empty());

    let suite = SurrogateSuite::train(&data, 0.2, 5);
    assert_eq!(suite.models.len(), 4);
    for m in &suite.models {
        assert_eq!(m.importance.features.len(), 30);
        assert!(m.metrics.n_train > m.metrics.n_test);
        // The tree must beat predicting the mean (R² > 0 is not
        // guaranteed at this size, but the MAE must be finite and the
        // tolerance curve populated).
        assert!(m.metrics.mae.is_finite());
        assert_eq!(m.metrics.tolerance_curve.len(), 7);
    }
}

#[test]
fn dataset_round_trips_through_csv_file() {
    let mut o = opts();
    o.configs = 8;
    let data = dataset(&o);
    let path = std::env::temp_dir().join("armdse_e2e_dataset.csv");
    data.save_csv(&path).unwrap();
    let back = DseDataset::load_csv(&path).unwrap();
    assert_eq!(data, back);
    std::fs::remove_file(&path).ok();

    // A reloaded dataset trains identically.
    let a = SurrogateSuite::train(&data, 0.25, 9);
    let b = SurrogateSuite::train(&back, 0.25, 9);
    for (ma, mb) in a.models.iter().zip(&b.models) {
        assert_eq!(ma.metrics, mb.metrics);
    }
}

#[test]
fn surrogate_predictions_are_cheap_and_deterministic() {
    let space = ParamSpace::paper();
    let data = dataset(&opts());
    let suite = SurrogateSuite::train(&data, 0.2, 1);
    let model = suite.model(App::Stream).unwrap();
    let cfg = space.sample_seeded(123_456);
    let p1 = model.tree.predict_one(&cfg.to_features());
    let p2 = model.tree.predict_one(&cfg.to_features());
    assert_eq!(p1, p2);
    assert!(p1 > 0.0, "cycle predictions are positive");
}

#[test]
fn surrogate_interpolates_in_plausible_range() {
    // Predictions on fresh configs should land within the range of the
    // training targets (trees cannot extrapolate) — the property that
    // makes the paper's introspection meaningful.
    let space = ParamSpace::paper();
    let data = dataset(&opts());
    let suite = SurrogateSuite::train(&data, 0.2, 1);
    for m in &suite.models {
        let ys: Vec<f64> = data
            .for_app(m.app)
            .iter()
            .map(|r| r.cycles as f64)
            .collect();
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for seed in 1000..1020 {
            let cfg = space.sample_seeded(seed);
            let p = m.tree.predict_one(&cfg.to_features());
            assert!(
                (lo..=hi).contains(&p),
                "{:?}: prediction {p} outside [{lo}, {hi}]",
                m.app
            );
        }
    }
}

#[test]
fn per_app_trees_differ() {
    // The paper trains one model per application because the codes have
    // contrasting performance trends; the fitted trees must differ.
    let space = ParamSpace::paper();
    let data = dataset(&opts());
    let suite = SurrogateSuite::train(&data, 0.2, 1);
    let cfg = space.sample_seeded(777);
    let preds: Vec<f64> = suite
        .models
        .iter()
        .map(|m| m.tree.predict_one(&cfg.to_features()))
        .collect();
    let distinct = preds
        .iter()
        .map(|p| p.to_bits())
        .collect::<std::collections::HashSet<_>>()
        .len();
    assert!(
        distinct >= 3,
        "per-app models should predict differently: {preds:?}"
    );
}
