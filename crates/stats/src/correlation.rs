//! Correlation measures: Pearson, Spearman and Kendall.
//!
//! The *Ingredients* widget lists "attributes most material to the ranked
//! outcome, in order of importance" — associations "derived with linear models
//! or with other methods, such as rank-aware similarity" (paper §2.1).  The
//! implementation in this workspace estimates attribute importance with both
//! linear-model coefficients ([`crate::regression`]) and the rank correlations
//! defined here.

use crate::descriptive::rank_with_ties;
use crate::error::{StatsError, StatsResult};

/// Pearson product-moment correlation coefficient between two paired slices.
///
/// # Errors
/// Returns an error if the slices differ in length, have fewer than two
/// elements, contain non-finite values, or either has zero variance.
pub fn pearson(x: &[f64], y: &[f64]) -> StatsResult<f64> {
    validate_pair(x, y, "pearson")?;
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        let dx = xi - mean_x;
        let dy = yi - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return Err(StatsError::ZeroVariance {
            operation: "pearson",
        });
    }
    Ok(cov / (var_x.sqrt() * var_y.sqrt()))
}

/// Spearman rank correlation: Pearson correlation of the rank vectors, using
/// average ranks for ties.
///
/// # Errors
/// Same conditions as [`pearson`].
pub fn spearman(x: &[f64], y: &[f64]) -> StatsResult<f64> {
    validate_pair(x, y, "spearman")?;
    pearson_of_ranks(&rank_with_ties(x)?, &rank_with_ties(y)?)
}

/// [`spearman`] of `x` and `y` when their tie-averaged ranks are already
/// known (e.g. from [`crate::descriptive::tie_averaged_ranks`]): `rank_x`
/// and `rank_y` must be what [`rank_with_ties`] returns for `x` and `y`.
///
/// `x` and `y` are validated exactly as [`spearman`] validates them, so the
/// result — value and errors — is the same, without the two sorts.
///
/// # Errors
/// Same conditions as [`spearman`].
pub fn spearman_with_ranks(
    x: &[f64],
    y: &[f64],
    rank_x: &[f64],
    rank_y: &[f64],
) -> StatsResult<f64> {
    validate_pair(x, y, "spearman")?;
    pearson_of_ranks(rank_x, rank_y)
}

/// Pearson correlation of two rank vectors, reporting a constant one as a
/// zero-variance Spearman input.
fn pearson_of_ranks(rank_x: &[f64], rank_y: &[f64]) -> StatsResult<f64> {
    pearson(rank_x, rank_y).map_err(|e| match e {
        StatsError::ZeroVariance { .. } => StatsError::ZeroVariance {
            operation: "spearman",
        },
        other => other,
    })
}

/// Kendall rank correlation coefficient (tau-b, which corrects for ties).
///
/// A direct reference implementation: it runs in O(n²) and handles ties in
/// both inputs exactly.  The label's comparisons of two rankings of the same
/// items, including the Monte-Carlo stability estimator's, do not use it:
/// rankings have no ties, so `rf_ranking::kendall_tau_rankings` counts
/// their discordant pairs as inversions instead (a bit-sliced partition on
/// AVX-512 CPUs, a blocked Fenwick tree elsewhere), and its tests check
/// that count against this function.
///
/// # Errors
/// Returns an error if the slices differ in length, have fewer than two
/// elements, contain non-finite values, or either is entirely tied.
pub fn kendall_tau(x: &[f64], y: &[f64]) -> StatsResult<f64> {
    validate_pair(x, y, "kendall_tau")?;
    let n = x.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_x = 0i64;
    let mut ties_y = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            if dx == 0.0 && dy == 0.0 {
                // Tied in both: contributes to neither numerator nor denominator.
                continue;
            } else if dx == 0.0 {
                ties_x += 1;
            } else if dy == 0.0 {
                ties_y += 1;
            } else if (dx > 0.0) == (dy > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = concordant + discordant + ties_x + ties_y;
    let denom_x = (concordant + discordant + ties_x) as f64;
    let denom_y = (concordant + discordant + ties_y) as f64;
    if n0 == 0 || denom_x == 0.0 || denom_y == 0.0 {
        return Err(StatsError::ZeroVariance {
            operation: "kendall_tau",
        });
    }
    Ok((concordant - discordant) as f64 / (denom_x.sqrt() * denom_y.sqrt()))
}

/// Validates a pair of slices used for correlation.
fn validate_pair(x: &[f64], y: &[f64], operation: &'static str) -> StatsResult<()> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            operation,
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::InsufficientData {
            operation,
            required: 2,
            actual: x.len(),
        });
    }
    if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
        return Err(StatsError::NonFiniteInput { operation });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn pearson_perfect_positive() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert_close(pearson(&x, &y).unwrap(), 1.0);
    }

    #[test]
    fn pearson_perfect_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [8.0, 6.0, 4.0, 2.0];
        assert_close(pearson(&x, &y).unwrap(), -1.0);
    }

    #[test]
    fn pearson_known_value() {
        // Anscombe-like small example with hand-computed r.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        // Σdxdy = 8, sqrt(Σdx²)·sqrt(Σdy²) = sqrt(10)·sqrt(10) = 10 → r = 0.8.
        assert_close(pearson(&x, &y).unwrap(), 0.8);
    }

    #[test]
    fn pearson_zero_variance_is_error() {
        assert!(matches!(
            pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::ZeroVariance { .. })
        ));
    }

    #[test]
    fn pearson_length_mismatch() {
        assert!(matches!(
            pearson(&[1.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn pearson_needs_two_points() {
        assert!(matches!(
            pearson(&[1.0], &[2.0]),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert_close(spearman(&x, &y).unwrap(), 1.0);
    }

    #[test]
    fn spearman_reverse_is_minus_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [10.0, 7.0, 5.0, 1.0];
        assert_close(spearman(&x, &y).unwrap(), -1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let rho = spearman(&x, &y).unwrap();
        assert!(rho > 0.9 && rho <= 1.0);
    }

    #[test]
    fn kendall_identical_rankings() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_close(kendall_tau(&x, &x).unwrap(), 1.0);
    }

    #[test]
    fn kendall_reversed_rankings() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_close(kendall_tau(&x, &y).unwrap(), -1.0);
    }

    #[test]
    fn kendall_known_value() {
        // Classic example: one discordant pair among 6 pairs → tau = (5-1)/6 = 0.666...
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 2.0, 4.0, 3.0];
        assert_close(kendall_tau(&x, &y).unwrap(), 4.0 / 6.0);
    }

    #[test]
    fn kendall_all_tied_is_error() {
        assert!(matches!(
            kendall_tau(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::ZeroVariance { .. })
        ));
    }

    #[test]
    fn kendall_rejects_nan() {
        assert!(matches!(
            kendall_tau(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(StatsError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn correlations_are_symmetric() {
        let x = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0];
        assert_close(pearson(&x, &y).unwrap(), pearson(&y, &x).unwrap());
        assert_close(spearman(&x, &y).unwrap(), spearman(&y, &x).unwrap());
        assert_close(kendall_tau(&x, &y).unwrap(), kendall_tau(&y, &x).unwrap());
    }
}
