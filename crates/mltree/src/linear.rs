//! Ordinary least squares by normal equations.
//!
//! The baseline model family of the related work the paper modernises
//! (P.J. Joseph et al., "Construction and use of linear regression models
//! for processor performance analysis", HPCA 2006). Used here as the
//! comparison baseline in `tests/ablation_accuracy.rs`: the paper argues decision
//! trees capture the non-linear parameter interactions linear models miss.

use crate::matrix::Matrix;
use crate::Regressor;

/// A fitted linear model `y = w·x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    weights: Vec<f64>,
    intercept: f64,
}

impl LinearRegression {
    /// Fit by solving the (ridge-stabilised) normal equations
    /// `(XᵀX + εI) w = Xᵀy` with Gaussian elimination; `ε = 1e-8` guards
    /// against rank deficiency without meaningfully biasing the fit.
    pub fn fit(x: &Matrix, y: &[f64]) -> LinearRegression {
        assert_eq!(x.rows(), y.len());
        assert!(x.rows() > 0);
        let n = x.rows();
        let d = x.cols() + 1; // + intercept column

        // Gram matrix and right-hand side over the augmented design.
        let mut a = vec![0.0f64; d * d];
        let mut b = vec![0.0f64; d];
        let aug = |row: &[f64], j: usize| if j < row.len() { row[j] } else { 1.0 };
        for (r, &yr) in y.iter().enumerate().take(n) {
            let row = x.row(r);
            for i in 0..d {
                let xi = aug(row, i);
                b[i] += xi * yr;
                for j in 0..d {
                    a[i * d + j] += xi * aug(row, j);
                }
            }
        }
        for i in 0..d {
            a[i * d + i] += 1e-8;
        }

        let w = solve(&mut a, &mut b, d);
        LinearRegression {
            weights: w[..d - 1].to_vec(),
            intercept: w[d - 1],
        }
    }
}

impl Regressor for LinearRegression {
    fn predict_one(&self, row: &[f64]) -> f64 {
        debug_assert_eq!(row.len(), self.weights.len());
        self.intercept
            + row
                .iter()
                .zip(&self.weights)
                .map(|(x, w)| x * w)
                .sum::<f64>()
    }
}

/// Solve `A x = b` in place by Gaussian elimination with partial pivoting.
fn solve(a: &mut [f64], b: &mut [f64], d: usize) -> Vec<f64> {
    for col in 0..d {
        // Pivot.
        let (pivot, _) = (col..d)
            .map(|r| (r, a[r * d + col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .expect("non-empty");
        if pivot != col {
            for j in 0..d {
                a.swap(col * d + j, pivot * d + j);
            }
            b.swap(col, pivot);
        }
        let p = a[col * d + col];
        assert!(p.abs() > 0.0, "singular system despite ridge");
        for r in col + 1..d {
            let f = a[r * d + col] / p;
            if f == 0.0 {
                continue;
            }
            for j in col..d {
                a[r * d + j] -= f * a[col * d + j];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; d];
    for col in (0..d).rev() {
        let mut v = b[col];
        for j in col + 1..d {
            v -= a[col * d + j] * x[j];
        }
        x[col] = v / a[col * d + col];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relationship() {
        // y = 3a - 2b + 5
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 7) as f64, (i % 5) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0).collect();
        let x = Matrix::from_rows(&rows);
        let m = LinearRegression::fit(&x, &y);
        assert!((m.predict_one(&[0.0, 0.0]) - 5.0).abs() < 1e-5);
        assert!((m.predict_one(&[1.0, 0.0]) - 8.0).abs() < 1e-5);
        assert!((m.predict_one(&[0.0, 1.0]) - 3.0).abs() < 1e-5);
        assert!((m.predict_one(&[2.0, 1.0]) - 9.0).abs() < 1e-6);
    }

    #[test]
    fn handles_constant_feature() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..20).map(|i| 2.0 * i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let m = LinearRegression::fit(&x, &y);
        assert!((m.predict_one(&[10.0, 1.0]) - 20.0).abs() < 1e-4);
    }

    #[test]
    fn underfits_step_function() {
        // The motivation for the paper's tree choice: a step cannot be
        // captured linearly.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 100.0 }).collect();
        let x = Matrix::from_rows(&rows);
        let m = LinearRegression::fit(&x, &y);
        let preds = m.predict(&x);
        let e = crate::metrics::mae(&preds, &y);
        assert!(e > 10.0, "linear model should not fit a step (mae {e})");
    }

    #[test]
    fn single_sample_fits() {
        let x = Matrix::from_rows(&[vec![2.0]]);
        let m = LinearRegression::fit(&x, &[4.0]);
        assert!((m.predict_one(&[2.0]) - 4.0).abs() < 1e-6);
    }
}
