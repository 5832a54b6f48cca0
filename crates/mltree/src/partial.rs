//! Partial dependence: the surrogate-side view of a parameter sweep.
//!
//! The paper's purpose for the surrogate is to "accurately reason about
//! the full parameter space without the constraint of having to simulate
//! it all". Partial dependence operationalises that: for a grid of values
//! of one feature, every dataset row is re-predicted with that feature
//! overridden, and the predictions are averaged. The result is the
//! model's estimate of the feature's marginal effect — comparable
//! directly against a fresh simulated sweep (Figs. 6–8), at microseconds
//! instead of minutes.

use crate::matrix::Matrix;
use crate::Regressor;

/// Mean model prediction with `feature` forced to each grid value.
///
/// Returns `(value, mean_prediction)` pairs in grid order.
pub(crate) fn partial_dependence(
    model: &dyn Regressor,
    x: &Matrix,
    feature: usize,
    grid: &[f64],
) -> Vec<(f64, f64)> {
    assert!(feature < x.cols(), "feature index out of range");
    assert!(x.rows() > 0, "empty background dataset");
    let mut work = x.clone();
    grid.iter()
        .map(|&v| {
            for r in 0..work.rows() {
                work.set(r, feature, v);
            }
            let mean = model.predict(&work).iter().sum::<f64>() / work.rows() as f64;
            (v, mean)
        })
        .collect()
}

/// Speedup form of a partial-dependence curve: each point's mean
/// prediction relative to the first grid value (matching the paper's
/// "mean speedup relative to the minimum" presentation).
pub fn partial_dependence_speedup(
    model: &dyn Regressor,
    x: &Matrix,
    feature: usize,
    grid: &[f64],
) -> Vec<(f64, f64)> {
    let pd = partial_dependence(model, x, feature, grid);
    let reference = pd.first().map(|&(_, y)| y).unwrap_or(1.0);
    pd.into_iter().map(|(v, y)| (v, reference / y)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTreeRegressor;

    /// y = 100 / max(x0, 1) + x1 (a saturating-speedup shape).
    fn model_and_data() -> (DecisionTreeRegressor, Matrix) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..400u64 {
            let a = (1 + (i * 7) % 16) as f64;
            let b = ((i * 13) % 5) as f64;
            rows.push(vec![a, b]);
            y.push(100.0 / a + b);
        }
        let x = Matrix::from_rows(&rows);
        (DecisionTreeRegressor::fit(&x, &y), x)
    }

    #[test]
    fn recovers_marginal_effect_direction() {
        let (m, x) = model_and_data();
        let pd = partial_dependence(&m, &x, 0, &[1.0, 4.0, 16.0]);
        assert!(pd[0].1 > pd[1].1, "{pd:?}");
        assert!(pd[1].1 > pd[2].1, "{pd:?}");
    }

    #[test]
    fn speedup_form_normalises_to_first() {
        let (m, x) = model_and_data();
        let sp = partial_dependence_speedup(&m, &x, 0, &[1.0, 4.0, 16.0]);
        assert_eq!(sp[0].1, 1.0);
        assert!(sp[2].1 > sp[1].1 && sp[1].1 > 1.0, "{sp:?}");
    }

    #[test]
    fn irrelevant_feature_is_flat() {
        // Feature 1 contributes only +-2; PD over it moves little
        // relative to feature 0's 100x span.
        let (m, x) = model_and_data();
        let pd = partial_dependence(&m, &x, 1, &[0.0, 4.0]);
        let delta = (pd[0].1 - pd[1].1).abs();
        assert!(delta < 10.0, "{pd:?}");
    }

    #[test]
    #[should_panic(expected = "feature index out of range")]
    fn rejects_bad_feature() {
        let (m, x) = model_and_data();
        partial_dependence(&m, &x, 9, &[1.0]);
    }
}
