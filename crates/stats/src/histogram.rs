//! Equi-width histograms.
//!
//! The scoring-function design view (Figure 3) "allows the user to plot the
//! distribution of values of each attribute as a histogram".  The design view
//! in `rf-core` uses this module to compute the bins it renders.

use crate::error::{StatsError, StatsResult};

/// An equi-width histogram over a set of finite values.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Histogram {
    /// Left edge of the first bin.
    pub min: f64,
    /// Right edge of the last bin.
    pub max: f64,
    /// Width of each bin (0.0 when all values are identical).
    pub bin_width: f64,
    /// Number of observations that fell into each bin.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub total: u64,
}

impl Histogram {
    /// Builds a histogram with `bins` equi-width bins spanning `[min, max]` of
    /// the data.  When every value is identical the single populated bin holds
    /// all observations.
    ///
    /// # Errors
    /// Returns an error when `values` is empty, contains non-finite values, or
    /// `bins == 0`.
    pub fn build(values: &[f64], bins: usize) -> StatsResult<Self> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter {
                parameter: "bins",
                message: "histogram needs at least one bin".to_string(),
            });
        }
        if values.is_empty() {
            return Err(StatsError::EmptyInput {
                operation: "Histogram::build",
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteInput {
                operation: "Histogram::build",
            });
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut counts = vec![0u64; bins];
        if min == max {
            counts[0] = values.len() as u64;
            return Ok(Histogram {
                min,
                max,
                bin_width: 0.0,
                counts,
                total: values.len() as u64,
            });
        }
        let bin_width = (max - min) / bins as f64;
        for &v in values {
            let mut idx = ((v - min) / bin_width) as usize;
            // The maximum value falls into the last bin (half-open bins elsewhere).
            if idx >= bins {
                idx = bins - 1;
            }
            counts[idx] += 1;
        }
        Ok(Histogram {
            min,
            max,
            bin_width,
            counts,
            total: values.len() as u64,
        })
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// `[left, right)` edges of bin `i` (the last bin is closed on the right).
    #[must_use]
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let left = self.min + self.bin_width * i as f64;
        let right = if i + 1 == self.counts.len() {
            self.max
        } else {
            self.min + self.bin_width * (i + 1) as f64
        };
        (left, right)
    }

    /// Relative frequency of each bin (sums to 1.0).
    #[must_use]
    pub fn frequencies(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Renders the histogram as ASCII art (one line per bin), used by the
    /// text renderer of the design view.
    #[must_use]
    pub fn to_ascii(&self, width: usize) -> String {
        let max_count = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let (lo, hi) = self.bin_edges(i);
            let bar_len = ((c as f64 / max_count as f64) * width as f64).round() as usize;
            out.push_str(&format!(
                "[{lo:>10.3}, {hi:>10.3}) {:<width$} {c}\n",
                "#".repeat(bar_len),
                width = width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_all_values() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let h = Histogram::build(&values, 5).unwrap();
        assert_eq!(h.total, 10);
        assert_eq!(h.counts.iter().sum::<u64>(), 10);
        assert_eq!(h.bins(), 5);
    }

    #[test]
    fn histogram_uniform_values_spread_evenly() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let h = Histogram::build(&values, 10).unwrap();
        for &c in &h.counts {
            assert_eq!(c, 10);
        }
    }

    #[test]
    fn histogram_max_value_in_last_bin() {
        let values = [0.0, 10.0];
        let h = Histogram::build(&values, 4).unwrap();
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[3], 1);
    }

    #[test]
    fn histogram_constant_values() {
        let values = [3.0, 3.0, 3.0];
        let h = Histogram::build(&values, 5).unwrap();
        assert_eq!(h.counts[0], 3);
        assert_eq!(h.bin_width, 0.0);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn histogram_empty_is_error() {
        assert!(Histogram::build(&[], 5).is_err());
    }

    #[test]
    fn histogram_zero_bins_is_error() {
        assert!(Histogram::build(&[1.0], 0).is_err());
    }

    #[test]
    fn histogram_rejects_nan() {
        assert!(Histogram::build(&[1.0, f64::NAN], 3).is_err());
    }

    #[test]
    fn frequencies_sum_to_one() {
        let values = [1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 8.0];
        let h = Histogram::build(&values, 4).unwrap();
        let total: f64 = h.frequencies().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_edges_cover_range() {
        let values = [0.0, 1.0, 2.0, 3.0, 4.0];
        let h = Histogram::build(&values, 4).unwrap();
        let (first_lo, _) = h.bin_edges(0);
        let (_, last_hi) = h.bin_edges(3);
        assert_eq!(first_lo, 0.0);
        assert_eq!(last_hi, 4.0);
    }

    #[test]
    fn ascii_rendering_has_one_line_per_bin() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let h = Histogram::build(&values, 3).unwrap();
        let art = h.to_ascii(20);
        assert_eq!(art.lines().count(), 3);
        assert!(art.contains('#'));
    }
}
