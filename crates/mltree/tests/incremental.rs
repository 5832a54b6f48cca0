//! Incremental-forest contract: the warm-start/partial-refit protocol
//! the adaptive explorer trains through must (a) never report a
//! negative prediction variance — the acquisition function takes a
//! square root of it — and (b) converge to a from-scratch fit once the
//! rotating refresh window has covered every tree on the full dataset.
//!
//! (b) is a tolerance check, not equality: a from-scratch fit draws its
//! bootstraps from one sequential RNG stream while partial refits draw
//! per-(round, tree) streams, so the two ensembles are different members
//! of the same bootstrap distribution. What must agree is what they
//! learned.
//!
//! (c) The thread count a refit runs on, and the per-tree prediction
//! table the explorer reads its pool from, are equality checks: neither
//! may move a bit of the forest or of a prediction.

use armdse_mltree::{mae, r2, ForestParams, Matrix, PoolPredictions, RandomForest, Regressor};

/// A deterministic nonlinear target at cycle-count magnitudes (~1e7),
/// where a one-pass variance formula would lose to cancellation.
fn dataset(n: usize) -> (Matrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let a = (i % 17) as f64;
            let b = ((i * 7) % 13) as f64;
            let c = ((i * 31) % 5) as f64;
            vec![a, b, c]
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| 1.0e7 + 4.0e5 * r[0] * r[0] + 3.0e5 * r[0] * r[1] + ((i * 97) % 1000) as f64)
        .collect();
    (Matrix::from_rows(&rows), y)
}

#[test]
fn prediction_variance_is_nonnegative_and_finite_everywhere() {
    let (x, y) = dataset(300);
    for seed in 0..5u64 {
        let f = RandomForest::fit(&x, &y, seed);
        for r in 0..x.rows() {
            let v = f.predict_variance(x.row(r));
            assert!(v.is_finite(), "seed {seed} row {r}: variance {v}");
            assert!(v >= 0.0, "seed {seed} row {r}: negative variance {v}");
        }
        // Off-grid probes too (the explorer scores unseen candidates).
        for q in 0..50 {
            let row = [q as f64 * 0.37, q as f64 * 0.11, (q % 7) as f64];
            let v = f.predict_variance(&row);
            assert!(v >= 0.0 && v.is_finite(), "probe {q}: variance {v}");
        }
    }
}

#[test]
fn variance_is_zero_when_all_trees_agree() {
    // A constant target forces every bootstrap tree to the same single
    // leaf; ensemble disagreement must be exactly zero, not epsilon.
    let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, (i % 9) as f64]).collect();
    let y = vec![2.5e7; 64];
    let f = RandomForest::fit(&Matrix::from_rows(&rows), &y, 42);
    for q in 0..40 {
        assert_eq!(f.predict_variance(&[q as f64, (q % 5) as f64]), 0.0);
    }
}

#[test]
fn partial_refit_on_full_data_converges_to_a_from_scratch_fit() {
    let (x, y) = dataset(400);
    let params = ForestParams::default();

    // Incremental path: grow through prefixes the way the explorer
    // streams rows in, then refresh twice on the full dataset (the
    // rotating half-window covers every tree in two rounds).
    let mut warm = RandomForest::warm_start(params, 77);
    let mut round = 0u64;
    for frac in [100, 200, 300, 400] {
        let xs = Matrix::from_rows(&(0..frac).map(|r| x.row(r).to_vec()).collect::<Vec<_>>());
        warm.partial_refit(&xs, &y[..frac], round);
        round += 1;
    }
    warm.partial_refit(&x, &y, round);
    warm.partial_refit(&x, &y, round + 1);

    let scratch = RandomForest::fit_with(&x, &y, params, 77);
    let pw = warm.predict(&x);
    let ps = scratch.predict(&x);

    // Both ensembles must have learned the signal...
    assert!(r2(&pw, &y) > 0.95, "warm R² {}", r2(&pw, &y));
    assert!(r2(&ps, &y) > 0.95, "scratch R² {}", r2(&ps, &y));
    // ...and must agree with each other to within bootstrap noise:
    // their mutual MAE must be a small fraction of the target's spread.
    let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let disagreement = mae(&pw, &ps) / (hi - lo);
    assert!(
        disagreement < 0.02,
        "converged partial refit diverges from a from-scratch fit by {:.3}% of the target range",
        100.0 * disagreement
    );
}

#[test]
fn stale_trees_are_valid_until_their_window_comes_round() {
    // After one refit on a prefix and one rotating refresh on the full
    // data, half the ensemble is stale — predictions must still be
    // finite and inside the training hull (stale trees saw a subset of
    // the same rows, never garbage).
    let (x, y) = dataset(200);
    let mut f = RandomForest::warm_start(ForestParams::default(), 5);
    let xs = Matrix::from_rows(&(0..100).map(|r| x.row(r).to_vec()).collect::<Vec<_>>());
    f.partial_refit(&xs, &y[..100], 0);
    f.partial_refit(&x, &y, 1);
    let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for r in 0..x.rows() {
        let p = f.predict_one(x.row(r));
        assert!((lo..=hi).contains(&p), "row {r}: {p} outside [{lo}, {hi}]");
    }
}

/// The first `n` rows of `dataset(..)`, the way the explorer's training
/// set grows round by round.
fn prefix(x: &Matrix, y: &[f64], n: usize) -> (Matrix, Vec<f64>) {
    (x.select_rows(&(0..n).collect::<Vec<_>>()), y[..n].to_vec())
}

#[test]
fn refit_yields_the_same_forest_at_any_thread_count() {
    let (x, y) = dataset(240);
    // Even and odd ensembles: an odd one's window wraps past the end.
    for n_trees in [8usize, 7] {
        let params = ForestParams {
            n_trees,
            ..Default::default()
        };
        let mut serial = RandomForest::warm_start(params, 13);
        let mut threaded: Vec<(usize, RandomForest)> = [0, 1, 2, 3, 8, n_trees + 5]
            .map(|threads| (threads, RandomForest::warm_start(params, 13)))
            .into();
        // Round 0 fits every tree, rounds 1 and 2 a rotating window.
        for round in 0..3u64 {
            let (xs, ys) = prefix(&x, &y, 120 + 60 * round as usize);
            serial.partial_refit(&xs, &ys, round);
            for (threads, forest) in &mut threaded {
                forest.partial_refit_with(&xs, &ys, round, *threads);
                assert_eq!(
                    *forest, serial,
                    "{n_trees} trees, round {round}: forest differs on {threads} threads"
                );
            }
        }
    }
}

#[test]
fn pool_table_is_bit_identical_to_the_row_wise_methods_after_every_refit() {
    let (x, y) = dataset(240);
    let params = ForestParams {
        n_trees: 7,
        ..Default::default()
    };
    let pool: Vec<[f64; 3]> = (0..90)
        .map(|q| [q as f64 * 0.19, (q * 5 % 13) as f64, (q % 5) as f64])
        .collect();
    let mut live: Vec<usize> = (0..pool.len()).collect();
    let mut forest = RandomForest::warm_start(params, 29);
    let mut table = PoolPredictions::new(params.n_trees, pool.len());
    for round in 0..4u64 {
        let (xs, ys) = prefix(&x, &y, 120 + 40 * round as usize);
        let replaced = forest.partial_refit_with(&xs, &ys, round, 2);
        table.mark_stale(&replaced);
        table.refresh(&forest, &pool, &live, 3);
        let mut rebuilt = PoolPredictions::new(params.n_trees, pool.len());
        rebuilt.refresh(&forest, &pool, &live, 1);
        for &c in &live {
            let (mean, std) = table.mean_std(c);
            let bits = (mean.to_bits(), std.to_bits());
            let row_wise = (
                forest.predict_one(&pool[c]).to_bits(),
                forest.predict_variance(&pool[c]).sqrt().to_bits(),
            );
            assert_eq!(bits, row_wise, "round {round}, candidate {c}");
            let (mean, std) = rebuilt.mean_std(c);
            assert_eq!(
                bits,
                (mean.to_bits(), std.to_bits()),
                "round {round}, candidate {c}: incremental table != rebuilt table"
            );
        }
        // The search retires candidates between rounds; the table is
        // only ever asked about the ones still live.
        live.retain(|c| c % 5 != round as usize);
    }
    assert!(!live.is_empty());
}
