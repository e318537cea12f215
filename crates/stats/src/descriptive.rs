//! Descriptive statistics: mean, variance, quantiles and summaries.
//!
//! The detailed *Recipe* and *Ingredients* widgets of the nutritional label
//! "list statistics of the attributes [...]: minimum, maximum and median
//! values at the top-10 and over-all" (paper §2.1).  [`Summary`] packages
//! exactly that set of statistics for one attribute over one slice of rows.
//!
//! ## Cost
//!
//! Nothing here sorts.  [`quantile`] (and so [`median`] and
//! [`Summary::of`]) selects its one or two order statistics in expected
//! O(n) instead of sorting the whole slice, and [`tie_averaged_ranks`]
//! reads the ranks of [`rank_with_ties`] off an order the caller already
//! has — the Ingredients widget ranks the scores once per label this way and
//! each attribute once.  Only [`rank_with_ties`] itself still sorts.

use crate::error::{StatsError, StatsResult};

/// Arithmetic mean of a slice.
///
/// # Errors
/// Returns [`StatsError::EmptyInput`] for an empty slice and
/// [`StatsError::NonFiniteInput`] if any element is NaN or infinite.
pub fn mean(values: &[f64]) -> StatsResult<f64> {
    ensure_finite(values, "mean")?;
    if values.is_empty() {
        return Err(StatsError::EmptyInput { operation: "mean" });
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Sample variance (unbiased, `n - 1` denominator).
///
/// # Errors
/// Requires at least two observations.
pub fn variance(values: &[f64]) -> StatsResult<f64> {
    ensure_finite(values, "variance")?;
    if values.len() < 2 {
        return Err(StatsError::InsufficientData {
            operation: "variance",
            required: 2,
            actual: values.len(),
        });
    }
    let m = mean(values)?;
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    Ok(ss / (values.len() - 1) as f64)
}

/// Population variance (`n` denominator).
///
/// # Errors
/// Returns an error on empty or non-finite input.
pub fn population_variance(values: &[f64]) -> StatsResult<f64> {
    ensure_finite(values, "population_variance")?;
    if values.is_empty() {
        return Err(StatsError::EmptyInput {
            operation: "population_variance",
        });
    }
    let m = mean(values)?;
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    Ok(ss / values.len() as f64)
}

/// Sample standard deviation.
///
/// # Errors
/// Requires at least two observations.
pub fn stddev(values: &[f64]) -> StatsResult<f64> {
    variance(values).map(f64::sqrt)
}

/// Minimum of a slice.
///
/// # Errors
/// Returns an error on empty or non-finite input.
pub fn min(values: &[f64]) -> StatsResult<f64> {
    ensure_finite(values, "min")?;
    values
        .iter()
        .copied()
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.min(v)))
        })
        .ok_or(StatsError::EmptyInput { operation: "min" })
}

/// Maximum of a slice.
///
/// # Errors
/// Returns an error on empty or non-finite input.
pub fn max(values: &[f64]) -> StatsResult<f64> {
    ensure_finite(values, "max")?;
    values
        .iter()
        .copied()
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        })
        .ok_or(StatsError::EmptyInput { operation: "max" })
}

/// Median (the 0.5 quantile).
///
/// # Errors
/// Returns an error on empty or non-finite input.
pub fn median(values: &[f64]) -> StatsResult<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (type-7, the default used by numpy and R).
///
/// `q` must lie in `[0, 1]`.
///
/// # Errors
/// Returns an error on empty input, non-finite input, or `q` outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> StatsResult<f64> {
    ensure_finite(values, "quantile")?;
    if values.is_empty() {
        return Err(StatsError::EmptyInput {
            operation: "quantile",
        });
    }
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(StatsError::InvalidParameter {
            parameter: "q",
            message: format!("quantile level must lie in [0, 1], got {q}"),
        });
    }
    let n = values.len();
    if n == 1 {
        return Ok(values[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    // Select the order statistic at `lo`; the one at `hi = lo + 1` is then
    // the least value to its right.  Only these two are ever read, so no
    // sort is needed.
    let mut scratch = values.to_vec();
    let (_, lo_value, above) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    let lo_value = sorted_value_at(values, lo, *lo_value);
    if lo == hi {
        return Ok(lo_value);
    }
    let hi_value = above.iter().copied().fold(f64::INFINITY, f64::min);
    let hi_value = sorted_value_at(values, hi, hi_value);
    let frac = pos - lo as f64;
    Ok(lo_value * (1.0 - frac) + hi_value * frac)
}

/// The element a stable ascending sort of `values` would place at
/// `position`, given that element's `value`.
///
/// Equal non-zero values have equal bits, so `value` is that element —
/// except for a zero: the stable sort treats `-0.0` and `+0.0` as equal and
/// keeps them in input order, so the zero at `position` is the
/// `(position − #negatives)`-th zero of the input.
fn sorted_value_at(values: &[f64], position: usize, value: f64) -> f64 {
    if value != 0.0 {
        return value;
    }
    let negatives = values.iter().filter(|&&v| v < 0.0).count();
    values
        .iter()
        .copied()
        .filter(|&v| v == 0.0)
        .nth(position - negatives)
        .expect("the selected zero is one of the input's zeros")
}

/// Returns the rank vector of the input using average ranks for ties
/// (1-based, as is conventional for rank correlation).
///
/// # Errors
/// Returns an error on empty or non-finite input.
pub fn rank_with_ties(values: &[f64]) -> StatsResult<Vec<f64>> {
    ensure_finite(values, "rank_with_ties")?;
    if values.is_empty() {
        return Err(StatsError::EmptyInput {
            operation: "rank_with_ties",
        });
    }
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        // Find the extent of the tie group.
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Average rank within [i, j] (1-based).
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[idx[k]] = avg;
        }
        i = j + 1;
    }
    Ok(ranks)
}

/// The ranks of [`rank_with_ties`], read off rows already ordered by
/// non-increasing value instead of sorted again.
///
/// `descending` holds every row index `0..n` exactly once, each through
/// `row`, ordered so that the rows' values never increase; `same(a, b)`
/// tells whether two neighbours hold equal values.  Equal values are
/// contiguous in any such order, so a tie group sits at descending positions
/// `a..=b`, which are ascending positions `n-1-b ..= n-1-a`, and gets
/// `((n-1-b) + (n-1-a)) / 2 + 1` — bit for bit the rank `rank_with_ties`
/// assigns it.  O(n), no validation.
pub fn tie_averaged_ranks<T>(
    descending: &[T],
    row: impl Fn(&T) -> usize,
    same: impl Fn(&T, &T) -> bool,
) -> Vec<f64> {
    let n = descending.len();
    let mut ranks = vec![0.0; n];
    let mut a = 0;
    while a < n {
        let mut b = a;
        while b + 1 < n && same(&descending[b], &descending[b + 1]) {
            b += 1;
        }
        let avg = ((n - 1 - b) + (n - 1 - a)) as f64 / 2.0 + 1.0;
        for item in &descending[a..=b] {
            ranks[row(item)] = avg;
        }
        a = b + 1;
    }
    ranks
}

/// The per-attribute statistics reported by the detailed Recipe and
/// Ingredients widgets: minimum, maximum, median, mean and standard deviation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of observations summarized.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median value.
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0.0 when fewer than two observations).
    pub stddev: f64,
}

impl Summary {
    /// Computes the summary of a slice of finite values.
    ///
    /// # Errors
    /// Returns an error on empty or non-finite input.
    pub fn of(values: &[f64]) -> StatsResult<Self> {
        ensure_finite(values, "Summary::of")?;
        if values.is_empty() {
            return Err(StatsError::EmptyInput {
                operation: "Summary::of",
            });
        }
        let sd = if values.len() >= 2 {
            stddev(values)?
        } else {
            0.0
        };
        Ok(Summary {
            count: values.len(),
            min: min(values)?,
            max: max(values)?,
            median: median(values)?,
            mean: mean(values)?,
            stddev: sd,
        })
    }

    /// Range (max − min) of the summarized values.
    #[must_use]
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Validates that every element of `values` is finite.
fn ensure_finite(values: &[f64], operation: &'static str) -> StatsResult<()> {
    if values.iter().any(|v| !v.is_finite()) {
        Err(StatsError::NonFiniteInput { operation })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} != {b}");
    }

    /// The sort-based quantile that selection replaced: the oracle.
    fn quantile_by_sort(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let n = sorted.len();
        if n == 1 {
            return sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    const LEVELS: [f64; 7] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];

    #[test]
    fn quantile_matches_the_sort_on_every_small_input() {
        // Every sequence of length 1..=5 over a pool with ties and both
        // zeros, at several levels: the bits of the selected value, signed
        // zeros included, must be the sort's.
        let pool = [-1.5, -0.0, 0.0, 2.0];
        for n in 1..=5usize {
            for code in 0..pool.len().pow(n as u32) {
                let values: Vec<f64> = (0..n)
                    .map(|i| pool[code / pool.len().pow(i as u32) % pool.len()])
                    .collect();
                for q in LEVELS {
                    assert_eq!(
                        quantile(&values, q).unwrap().to_bits(),
                        quantile_by_sort(&values, q).to_bits(),
                        "{values:?} at {q}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn quantile_matches_the_sort(
            values in prop::collection::vec(
                (0usize..8, -1.0e6f64..1.0e6).prop_map(|(pick, x)| match pick {
                    0 => -0.0,
                    1 => 0.0,
                    2 => 1.0,
                    3 => -3.25,
                    _ => x,
                }),
                1..5_000,
            ),
            q in 0.0f64..=1.0,
        ) {
            for level in LEVELS.iter().copied().chain([q]) {
                prop_assert_eq!(
                    quantile(&values, level).unwrap().to_bits(),
                    quantile_by_sort(&values, level).to_bits()
                );
            }
            prop_assert_eq!(
                median(&values).unwrap().to_bits(),
                quantile_by_sort(&values, 0.5).to_bits()
            );
        }

        #[test]
        fn tie_averaged_ranks_match_rank_with_ties(
            values in prop::collection::vec(
                (0usize..6).prop_map(|pick| [-2.0, -0.0, 0.0, 0.5, 3.0, 7.0][pick]),
                1..300,
            ),
        ) {
            let mut descending: Vec<usize> = (0..values.len()).collect();
            descending.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).unwrap());
            let ranks = tie_averaged_ranks(&descending, |&row| row, |&a, &b| values[a] == values[b]);
            let reference = rank_with_ties(&values).unwrap();
            prop_assert_eq!(
                ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn mean_of_simple_values() {
        assert_close(mean(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5);
    }

    #[test]
    fn mean_of_single_value() {
        assert_close(mean(&[7.25]).unwrap(), 7.25);
    }

    #[test]
    fn mean_empty_is_error() {
        assert_eq!(mean(&[]), Err(StatsError::EmptyInput { operation: "mean" }));
    }

    #[test]
    fn mean_rejects_nan() {
        assert_eq!(
            mean(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteInput { operation: "mean" })
        );
    }

    #[test]
    fn variance_matches_hand_computation() {
        // Values 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample variance 32/7.
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(variance(&v).unwrap(), 32.0 / 7.0);
        assert_close(population_variance(&v).unwrap(), 4.0);
    }

    #[test]
    fn variance_requires_two_points() {
        assert!(matches!(
            variance(&[1.0]),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn stddev_is_sqrt_of_variance() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_close(stddev(&v).unwrap(), variance(&v).unwrap().sqrt());
    }

    #[test]
    fn min_max_basic() {
        let v = [3.0, -1.0, 7.5, 2.0];
        assert_close(min(&v).unwrap(), -1.0);
        assert_close(max(&v).unwrap(), 7.5);
    }

    #[test]
    fn median_odd_and_even() {
        assert_close(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_close(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn quantile_endpoints() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_close(quantile(&v, 0.0).unwrap(), 10.0);
        assert_close(quantile(&v, 1.0).unwrap(), 40.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        // Position 0.25 * 3 = 0.75 → between 1 and 2 at 0.75.
        assert_close(quantile(&v, 0.25).unwrap(), 1.75);
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        assert!(matches!(
            quantile(&[1.0], 1.5),
            Err(StatsError::InvalidParameter { .. })
        ));
        assert!(matches!(
            quantile(&[1.0], -0.1),
            Err(StatsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn quantile_single_element() {
        assert_close(quantile(&[42.0], 0.3).unwrap(), 42.0);
    }

    #[test]
    fn ranks_without_ties() {
        let r = rank_with_ties(&[30.0, 10.0, 20.0]).unwrap();
        assert_eq!(r, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ranks_with_ties_use_average() {
        let r = rank_with_ties(&[1.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn ranks_all_tied() {
        let r = rank_with_ties(&[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(r, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn summary_reports_all_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_close(s.min, 1.0);
        assert_close(s.max, 5.0);
        assert_close(s.median, 3.0);
        assert_close(s.mean, 3.0);
        assert_close(s.range(), 4.0);
        assert!(s.stddev > 0.0);
    }

    #[test]
    fn summary_single_value_has_zero_stddev() {
        let s = Summary::of(&[9.0]).unwrap();
        assert_close(s.stddev, 0.0);
        assert_close(s.range(), 0.0);
    }

    #[test]
    fn summary_rejects_infinite() {
        assert!(Summary::of(&[1.0, f64::INFINITY]).is_err());
    }
}
