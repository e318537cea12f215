//! Column-level statistics: summaries and histograms.
//!
//! The detailed Recipe and Ingredients widgets show "minimum, maximum and
//! median values at the top-10 and over-all" for each attribute, and the
//! design view (Figure 3) plots attribute histograms.  These helpers bridge
//! [`crate::Table`] columns to the `rf-stats` primitives.

use crate::error::TableResult;
use crate::table::Table;
use rf_stats::{Histogram, Summary};

/// Computes the [`Summary`] (min/max/median/mean/stddev) of a numeric column,
/// ignoring missing values.
///
/// # Errors
/// Unknown column, non-numeric column, or a column with no non-null values.
pub fn column_summary(table: &Table, column: &str) -> TableResult<Summary> {
    let values = table.numeric_column(column)?;
    Ok(Summary::of(&values)?)
}

/// Builds an equi-width [`Histogram`] of a numeric column, ignoring missing
/// values.
///
/// # Errors
/// Unknown column, non-numeric column, empty column, or `bins == 0`.
pub fn column_histogram(table: &Table, column: &str, bins: usize) -> TableResult<Histogram> {
    let values = table.numeric_column(column)?;
    Ok(Histogram::build(&values, bins)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        Table::from_columns(vec![
            ("score", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
            ("count", Column::from_i64(vec![10, 20, 30, 40, 50])),
            ("label", Column::from_strings(["a", "b", "c", "d", "e"])),
            (
                "sparse",
                Column::Float(vec![Some(1.0), None, Some(3.0), None, Some(5.0)]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn summary_of_float_column() {
        let s = column_summary(&table(), "score").unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn summary_of_int_column() {
        let s = column_summary(&table(), "count").unwrap();
        assert_eq!(s.mean, 30.0);
    }

    #[test]
    fn summary_ignores_nulls() {
        let s = column_summary(&table(), "sparse").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn summary_of_string_column_is_error() {
        assert!(column_summary(&table(), "label").is_err());
    }

    #[test]
    fn summary_of_missing_column_is_error() {
        assert!(column_summary(&table(), "ghost").is_err());
    }

    #[test]
    fn histogram_of_column() {
        let h = column_histogram(&table(), "score", 4).unwrap();
        assert_eq!(h.total, 5);
        assert_eq!(h.bins(), 4);
    }

    #[test]
    fn histogram_rejects_zero_bins() {
        assert!(column_histogram(&table(), "score", 0).is_err());
    }
}
