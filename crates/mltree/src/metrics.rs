//! Regression metrics, including the paper's evaluation metrics.

/// Mean absolute error.
pub fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Coefficient of determination R².
pub fn r2(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (t - p) * (t - p)).sum();
    let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Fraction of predictions within `tol` (relative) of the true value —
/// the paper's Fig. 2 metric ("percentage of cycle predictions within the
/// specified confidence interval of the true simulated value").
pub fn within_tolerance(pred: &[f64], truth: &[f64], tol: f64) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    let hits = pred
        .iter()
        .zip(truth)
        .filter(|(p, t)| {
            let denom = t.abs().max(f64::MIN_POSITIVE);
            ((*p - *t) / denom).abs() <= tol
        })
        .count();
    hits as f64 / pred.len() as f64
}

/// Mean relative accuracy in percent — the paper's headline "the mean
/// accuracy of all results is 93.38%, meaning the average prediction is
/// 6.62% away from the simulated true result". Clamped below at 0.
pub fn mean_relative_accuracy(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty());
    let mean_rel_err = pred
        .iter()
        .zip(truth)
        .map(|(p, t)| ((p - t) / t.abs().max(f64::MIN_POSITIVE)).abs())
        .sum::<f64>()
        / pred.len() as f64;
    (100.0 * (1.0 - mean_rel_err)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let t = [1.0, 2.0, 3.0];
        assert_eq!(mae(&t, &t), 0.0);
        assert_eq!(r2(&t, &t), 1.0);
        assert_eq!(within_tolerance(&t, &t, 0.0), 1.0);
        assert_eq!(mean_relative_accuracy(&t, &t), 100.0);
    }

    #[test]
    fn mae_values() {
        let p = [2.0, 4.0];
        let t = [1.0, 2.0];
        assert_eq!(mae(&p, &t), 1.5);
    }

    #[test]
    fn r2_of_mean_prediction_is_zero() {
        let truth = [1.0, 2.0, 3.0, 4.0];
        let mean = [2.5, 2.5, 2.5, 2.5];
        assert!((r2(&mean, &truth)).abs() < 1e-12);
    }

    #[test]
    fn tolerance_counts_boundary_inclusive() {
        let p = [102.0, 110.0];
        let t = [100.0, 100.0];
        assert_eq!(within_tolerance(&p, &t, 0.02), 0.5);
        assert_eq!(within_tolerance(&p, &t, 0.10), 1.0);
        assert_eq!(within_tolerance(&p, &t, 0.01), 0.0);
    }

    #[test]
    fn accuracy_headline() {
        let p = [93.38, 106.62];
        let t = [100.0, 100.0];
        assert!((mean_relative_accuracy(&p, &t) - 93.38).abs() < 1e-9);
    }

    #[test]
    fn accuracy_clamped_at_zero() {
        let p = [500.0];
        let t = [100.0];
        assert_eq!(mean_relative_accuracy(&p, &t), 0.0);
    }

    #[test]
    fn constant_truth_r2() {
        assert_eq!(r2(&[5.0, 5.0], &[5.0, 5.0]), 1.0);
        assert_eq!(r2(&[5.0, 6.0], &[5.0, 5.0]), f64::NEG_INFINITY);
    }
}
