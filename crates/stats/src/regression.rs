//! Ordinary least squares regression.
//!
//! Two widgets of the nutritional label rest on least squares:
//!
//! * The *Stability* widget (Figure 2) fits a straight line to the sorted
//!   score distribution and reports its **slope** as the stability score —
//!   "the stability of the ranking is quantified as the slope of the line
//!   that is fit to the score distribution, at the top-10 and over-all".
//!   That is [`LinearFit`].
//! * The *Ingredients* widget can estimate attribute importance as "the
//!   attributes with the highest learned weights" of a linear model relating
//!   attribute values to the ranking outcome.  That is
//!   [`MultipleRegression`], solved through the normal equations with
//!   Gaussian elimination and partial pivoting.

use crate::error::{StatsError, StatsResult};

/// Result of a simple linear regression `y ≈ slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinearFit {
    /// Estimated slope.
    pub slope: f64,
    /// Estimated intercept.
    pub intercept: f64,
    /// Coefficient of determination R².  1.0 when the fit is exact; 0.0 when
    /// the model explains nothing beyond the mean (clamped at 0).
    pub r_squared: f64,
    /// Number of observations used in the fit.
    pub n: usize,
}

impl LinearFit {
    /// Fits `y ≈ slope · x + intercept` by least squares.
    ///
    /// # Errors
    /// Returns an error if the inputs differ in length, contain fewer than two
    /// points, contain non-finite values, or `x` has zero variance.
    pub fn fit(x: &[f64], y: &[f64]) -> StatsResult<Self> {
        if x.len() != y.len() {
            return Err(StatsError::LengthMismatch {
                operation: "LinearFit::fit",
                left: x.len(),
                right: y.len(),
            });
        }
        if x.len() < 2 {
            return Err(StatsError::InsufficientData {
                operation: "LinearFit::fit",
                required: 2,
                actual: x.len(),
            });
        }
        if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteInput {
                operation: "LinearFit::fit",
            });
        }
        let n = x.len() as f64;
        let mean_x = x.iter().sum::<f64>() / n;
        let mean_y = y.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (&xi, &yi) in x.iter().zip(y.iter()) {
            sxx += (xi - mean_x) * (xi - mean_x);
            sxy += (xi - mean_x) * (yi - mean_y);
        }
        if sxx == 0.0 {
            return Err(StatsError::ZeroVariance {
                operation: "LinearFit::fit",
            });
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        // R² = 1 − SS_res / SS_tot; define it as 1.0 when y is constant (the
        // line reproduces y exactly in that case).
        let ss_tot: f64 = y.iter().map(|yi| (yi - mean_y) * (yi - mean_y)).sum();
        let ss_res: f64 = x
            .iter()
            .zip(y.iter())
            .map(|(&xi, &yi)| {
                let pred = slope * xi + intercept;
                (yi - pred) * (yi - pred)
            })
            .sum();
        let r_squared = if ss_tot == 0.0 {
            1.0
        } else {
            (1.0 - ss_res / ss_tot).max(0.0)
        };
        Ok(LinearFit {
            slope,
            intercept,
            r_squared,
            n: x.len(),
        })
    }

    /// Predicted value at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Multiple linear regression `y ≈ Xβ` (with an implicit intercept column),
/// solved through the normal equations.
///
/// Attribute-importance estimation standardizes the design columns first so
/// that the magnitudes of the coefficients are comparable across attributes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MultipleRegression {
    /// Coefficients for each design column, in input order (excluding the intercept).
    pub coefficients: Vec<f64>,
    /// Intercept term.
    pub intercept: f64,
    /// Coefficient of determination R² (clamped to [0, 1]).
    pub r_squared: f64,
    /// Number of observations used in the fit.
    pub n: usize,
}

impl MultipleRegression {
    /// Fits `y ≈ β₀ + Σ βⱼ xⱼ` by ordinary least squares.
    ///
    /// `columns` is a slice of design columns (each of length `y.len()`).
    ///
    /// # Errors
    /// Returns an error on shape mismatch, insufficient observations
    /// (requires `n > columns.len() + 1` is *not* enforced strictly, but at
    /// least `columns.len() + 1` observations are needed), non-finite input,
    /// or a singular normal-equation matrix (e.g. perfectly collinear columns).
    pub fn fit(columns: &[Vec<f64>], y: &[f64]) -> StatsResult<Self> {
        let p = columns.len();
        let n = y.len();
        if p == 0 {
            return Err(StatsError::EmptyInput {
                operation: "MultipleRegression::fit",
            });
        }
        for col in columns {
            if col.len() != n {
                return Err(StatsError::LengthMismatch {
                    operation: "MultipleRegression::fit",
                    left: col.len(),
                    right: n,
                });
            }
        }
        if n < p + 1 {
            return Err(StatsError::InsufficientData {
                operation: "MultipleRegression::fit",
                required: p + 1,
                actual: n,
            });
        }
        if y.iter().any(|v| !v.is_finite()) || columns.iter().flatten().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteInput {
                operation: "MultipleRegression::fit",
            });
        }

        // Build the (p+1) x (p+1) normal-equations system  (XᵀX) β = Xᵀy
        // where X has an implicit leading column of ones.
        let dim = p + 1;
        let mut xtx = vec![vec![0.0; dim]; dim];
        let mut xty = vec![0.0; dim];
        // Design row [1, x1, x2, ..., xp], one buffer refilled per row.
        let mut design = vec![1.0; dim];
        for row in 0..n {
            for (slot, col) in design[1..].iter_mut().zip(columns) {
                *slot = col[row];
            }
            for i in 0..dim {
                xty[i] += design[i] * y[row];
                for j in i..dim {
                    xtx[i][j] += design[i] * design[j];
                }
            }
        }
        // XᵀX is symmetric, and `a · b == b · a` exactly in IEEE
        // arithmetic, so the lower triangle is the upper one, bit for bit.
        for i in 1..dim {
            let (upper, lower) = xtx.split_at_mut(i);
            for (j, row) in upper.iter().enumerate() {
                lower[0][j] = row[i];
            }
        }

        let beta = solve_linear_system(&mut xtx, &mut xty)?;

        // Goodness of fit.
        let mean_y = y.iter().sum::<f64>() / n as f64;
        let mut ss_tot = 0.0;
        let mut ss_res = 0.0;
        for row in 0..n {
            let mut pred = beta[0];
            for (j, col) in columns.iter().enumerate() {
                pred += beta[j + 1] * col[row];
            }
            ss_tot += (y[row] - mean_y) * (y[row] - mean_y);
            ss_res += (y[row] - pred) * (y[row] - pred);
        }
        let r_squared = if ss_tot == 0.0 {
            1.0
        } else {
            (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
        };

        Ok(MultipleRegression {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
            r_squared,
            n,
        })
    }

    /// Predicted value for one observation given its attribute values
    /// (in the same order as the design columns passed to [`fit`](Self::fit)).
    ///
    /// # Errors
    /// Returns an error if `x` does not have one value per coefficient.
    pub fn predict(&self, x: &[f64]) -> StatsResult<f64> {
        if x.len() != self.coefficients.len() {
            return Err(StatsError::LengthMismatch {
                operation: "MultipleRegression::predict",
                left: x.len(),
                right: self.coefficients.len(),
            });
        }
        Ok(self.intercept
            + self
                .coefficients
                .iter()
                .zip(x.iter())
                .map(|(c, v)| c * v)
                .sum::<f64>())
    }
}

/// Solves `A x = b` in place with Gaussian elimination and partial pivoting.
///
/// `a` and `b` are consumed as scratch space.
fn solve_linear_system(a: &mut [Vec<f64>], b: &mut [f64]) -> StatsResult<Vec<f64>> {
    let n = b.len();
    debug_assert_eq!(a.len(), n);
    for col in 0..n {
        // Partial pivoting: find the row with the largest absolute value in this column.
        let mut pivot_row = col;
        let mut pivot_val = a[col][col].abs();
        for (row, a_row) in a.iter().enumerate().skip(col + 1) {
            if a_row[col].abs() > pivot_val {
                pivot_val = a_row[col].abs();
                pivot_row = row;
            }
        }
        if pivot_val < 1e-12 {
            return Err(StatsError::SingularMatrix {
                operation: "solve_linear_system",
            });
        }
        if pivot_row != col {
            a.swap(col, pivot_row);
            b.swap(col, pivot_row);
        }
        // Eliminate below the pivot.
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            // Split the rows to update `row` while reading pivot row `col`.
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot_row_slice = &pivot_rows[col];
            for (k, value) in rest[0].iter_mut().enumerate().take(n).skip(col) {
                *value -= factor * pivot_row_slice[k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for col in (row + 1)..n {
            sum -= a[row][col] * x[col];
        }
        x[row] = sum / a[row][row];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-8, "{a} != {b}");
    }

    /// The coefficients of the per-row-allocating, full-square
    /// accumulation the buffered one replaced: the oracle.
    fn coefficients_by_full_square(columns: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let dim = columns.len() + 1;
        let mut xtx = vec![vec![0.0; dim]; dim];
        let mut xty = vec![0.0; dim];
        for row in 0..y.len() {
            let mut design = Vec::with_capacity(dim);
            design.push(1.0);
            for col in columns {
                design.push(col[row]);
            }
            for i in 0..dim {
                xty[i] += design[i] * y[row];
                for j in 0..dim {
                    xtx[i][j] += design[i] * design[j];
                }
            }
        }
        solve_linear_system(&mut xtx, &mut xty).unwrap()
    }

    #[test]
    fn multiple_regression_matches_the_full_square_bit_for_bit() {
        // Irrational-looking, correlated columns so every product rounds.
        let n = 257;
        let columns: Vec<Vec<f64>> = (1..=4)
            .map(|c| {
                (0..n)
                    .map(|i| ((i * c) as f64 * 0.731).sin() * 3.3 + (i as f64).sqrt() / c as f64)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| columns[0][i] * 0.4 - columns[2][i] * 1.7 + (i as f64 * 0.17).cos())
            .collect();
        let fit = MultipleRegression::fit(&columns, &y).unwrap();
        let reference = coefficients_by_full_square(&columns, &y);
        assert_eq!(fit.intercept.to_bits(), reference[0].to_bits());
        for (got, want) in fit.coefficients.iter().zip(&reference[1..]) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn linear_fit_exact_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert_close(fit.slope, 2.0);
        assert_close(fit.intercept, 1.0);
        assert_close(fit.r_squared, 1.0);
        assert_eq!(fit.n, 4);
    }

    #[test]
    fn linear_fit_noisy_line_has_sub_unit_r_squared() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [0.1, 0.9, 2.2, 2.8, 4.1];
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!(fit.slope > 0.9 && fit.slope < 1.1);
        assert!(fit.r_squared > 0.97 && fit.r_squared < 1.0);
    }

    #[test]
    fn linear_fit_constant_y_has_zero_slope() {
        let x = [1.0, 2.0, 3.0];
        let y = [5.0, 5.0, 5.0];
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert_close(fit.slope, 0.0);
        assert_close(fit.intercept, 5.0);
        assert_close(fit.r_squared, 1.0);
    }

    #[test]
    fn linear_fit_constant_x_is_error() {
        assert!(matches!(
            LinearFit::fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::ZeroVariance { .. })
        ));
    }

    #[test]
    fn linear_fit_predict() {
        let fit = LinearFit::fit(&[0.0, 1.0], &[0.0, 2.0]).unwrap();
        assert_close(fit.predict(3.0), 6.0);
    }

    #[test]
    fn linear_fit_length_mismatch() {
        assert!(matches!(
            LinearFit::fit(&[1.0, 2.0, 3.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn linear_fit_rejects_nan() {
        assert!(matches!(
            LinearFit::fit(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(StatsError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn multiple_regression_recovers_exact_coefficients() {
        // y = 1 + 2*x1 - 3*x2, noiseless.
        let x1 = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x2 = vec![0.5, 1.5, 1.0, 3.0, 2.0, 4.0];
        let y: Vec<f64> = x1
            .iter()
            .zip(x2.iter())
            .map(|(a, b)| 1.0 + 2.0 * a - 3.0 * b)
            .collect();
        let fit = MultipleRegression::fit(&[x1, x2], &y).unwrap();
        assert_close(fit.intercept, 1.0);
        assert_close(fit.coefficients[0], 2.0);
        assert_close(fit.coefficients[1], -3.0);
        assert_close(fit.r_squared, 1.0);
    }

    #[test]
    fn multiple_regression_single_column_matches_simple() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y = vec![2.1, 3.9, 6.2, 8.0, 9.8];
        let simple = LinearFit::fit(&x, &y).unwrap();
        let multi = MultipleRegression::fit(&[x], &y).unwrap();
        assert_close(simple.slope, multi.coefficients[0]);
        assert_close(simple.intercept, multi.intercept);
    }

    #[test]
    fn multiple_regression_collinear_columns_is_singular() {
        let x1 = vec![1.0, 2.0, 3.0, 4.0];
        let x2 = vec![2.0, 4.0, 6.0, 8.0]; // exactly 2 * x1
        let y = vec![1.0, 2.0, 3.0, 4.0];
        assert!(matches!(
            MultipleRegression::fit(&[x1, x2], &y),
            Err(StatsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn multiple_regression_insufficient_rows() {
        let x1 = vec![1.0, 2.0];
        let x2 = vec![3.0, 4.0];
        let y = vec![1.0, 2.0];
        assert!(matches!(
            MultipleRegression::fit(&[x1, x2], &y),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn multiple_regression_predict_roundtrip() {
        let x1 = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let x2 = vec![5.0, 3.0, 8.0, 1.0, 9.0];
        let y: Vec<f64> = x1
            .iter()
            .zip(x2.iter())
            .map(|(a, b)| 0.5 + 1.5 * a + 0.25 * b)
            .collect();
        let fit = MultipleRegression::fit(&[x1, x2], &y).unwrap();
        assert_close(fit.predict(&[2.0, 3.0]).unwrap(), 0.5 + 3.0 + 0.75);
    }

    #[test]
    fn multiple_regression_predict_wrong_arity() {
        let x1 = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let fit = MultipleRegression::fit(&[x1], &y).unwrap();
        assert!(fit.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn multiple_regression_empty_design_is_error() {
        assert!(matches!(
            MultipleRegression::fit(&[], &[1.0, 2.0]),
            Err(StatsError::EmptyInput { .. })
        ));
    }
}
