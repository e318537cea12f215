//! Attribute normalization and standardization.
//!
//! Figure 3 of the paper shows a checkbox that lets the user "decide whether
//! to work with raw data or to normalize and standardize the attributes"
//! before they are combined by the scoring function.  This module implements
//! the three policies the design view offers:
//!
//! * [`NormalizationMethod::None`] — raw values.
//! * [`NormalizationMethod::MinMax`] — rescale to `[0, 1]`.
//! * [`NormalizationMethod::ZScore`] — centre to zero mean, unit variance.
//!
//! A fitted [`Normalizer`] remembers the per-column parameters so that the
//! same transformation can be re-applied (e.g. to the top-k slice, or to
//! perturbed copies of the data used by the stability estimator).

use crate::error::{TableError, TableResult};
use crate::table::Table;

/// The normalization policy applied to scoring attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum NormalizationMethod {
    /// Use raw attribute values.
    None,
    /// Min-max rescaling to `[0, 1]` (the paper's default when the
    /// "normalize" checkbox is ticked).
    #[default]
    MinMax,
    /// Z-score standardization (zero mean, unit standard deviation).
    ZScore,
}

impl NormalizationMethod {
    /// Human-readable name used by the Recipe widget.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            NormalizationMethod::None => "raw",
            NormalizationMethod::MinMax => "min-max [0, 1]",
            NormalizationMethod::ZScore => "z-score",
        }
    }
}

/// Per-column parameters of a fitted normalization.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct ColumnParams {
    name: String,
    /// For min-max: (min, max). For z-score: (mean, stddev). For none: (0, 1).
    a: f64,
    b: f64,
}

/// A fitted normalizer for a set of numeric columns.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Normalizer {
    method: NormalizationMethod,
    params: Vec<ColumnParams>,
}

impl Normalizer {
    /// Fits normalization parameters for `columns` of `table`, ignoring
    /// missing values.
    ///
    /// # Errors
    /// Unknown/non-numeric columns; a column whose values are all missing; a
    /// constant column under min-max or z-score (its spread is zero, so the
    /// transformation is undefined — the paper's tool silently maps these to
    /// 0, but surfacing the problem is more honest and is what we do).
    pub fn fit(table: &Table, columns: &[&str], method: NormalizationMethod) -> TableResult<Self> {
        let mut params = Vec::with_capacity(columns.len());
        for &name in columns {
            let values = table.numeric_column(name)?;
            if values.is_empty() {
                return Err(TableError::Normalization {
                    column: name.to_string(),
                    message: "column has no non-missing values".to_string(),
                });
            }
            let (a, b) = match method {
                NormalizationMethod::None => (0.0, 1.0),
                NormalizationMethod::MinMax => {
                    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    if (hi - lo).abs() < f64::EPSILON {
                        return Err(TableError::Normalization {
                            column: name.to_string(),
                            message: "column is constant; min-max scaling is undefined".to_string(),
                        });
                    }
                    (lo, hi)
                }
                NormalizationMethod::ZScore => {
                    let mean = rf_stats::mean(&values)?;
                    let sd = if values.len() >= 2 {
                        rf_stats::stddev(&values)?
                    } else {
                        0.0
                    };
                    if sd < f64::EPSILON {
                        return Err(TableError::Normalization {
                            column: name.to_string(),
                            message: "column has zero variance; z-score is undefined".to_string(),
                        });
                    }
                    (mean, sd)
                }
            };
            params.push(ColumnParams {
                name: name.to_string(),
                a,
                b,
            });
        }
        Ok(Normalizer { method, params })
    }

    /// The method this normalizer was fitted with.
    #[must_use]
    pub fn method(&self) -> NormalizationMethod {
        self.method
    }

    /// The columns this normalizer knows how to transform.
    #[must_use]
    pub fn columns(&self) -> Vec<&str> {
        self.params.iter().map(|p| p.name.as_str()).collect()
    }

    /// Transforms a single value of the named column.
    ///
    /// # Errors
    /// [`TableError::UnknownColumn`] when the column was not part of the fit.
    pub fn transform_value(&self, column: &str, value: f64) -> TableResult<f64> {
        let p = self.params_of(column)?;
        Ok(self.apply(p, value))
    }

    /// The named column's transformation, with its parameters looked up
    /// once: `column_transform(column)?(v)` equals
    /// `transform_value(column, v)?` for every `v`.  Use it to transform a
    /// whole column.
    ///
    /// # Errors
    /// [`TableError::UnknownColumn`] when the column was not part of the fit.
    pub fn column_transform(&self, column: &str) -> TableResult<impl Fn(f64) -> f64 + '_> {
        let p = self.params_of(column)?;
        Ok(move |value| self.apply(p, value))
    }

    fn params_of(&self, column: &str) -> TableResult<&ColumnParams> {
        self.params
            .iter()
            .find(|p| p.name == column)
            .ok_or_else(|| TableError::UnknownColumn {
                name: column.to_string(),
            })
    }

    #[inline]
    fn apply(&self, p: &ColumnParams, value: f64) -> f64 {
        match self.method {
            NormalizationMethod::None => value,
            NormalizationMethod::MinMax => (value - p.a) / (p.b - p.a),
            NormalizationMethod::ZScore => (value - p.a) / p.b,
        }
    }

    /// Returns a new table in which every fitted column has been replaced by
    /// its normalized version (missing values stay missing; other columns are
    /// untouched).
    ///
    /// # Errors
    /// Propagates column access errors (the table must still contain every
    /// fitted column with a numeric type).
    pub fn transform_table(&self, table: &Table) -> TableResult<Table> {
        let mut out = Table::new();
        for field in table.schema().fields() {
            let name = field.name.as_str();
            let col = table.column(name)?;
            if let Ok(transform) = self.column_transform(name) {
                let transformed: Vec<Option<f64>> = col
                    .numeric_view(name)?
                    .iter()
                    .map(|opt| opt.map(&transform))
                    .collect();
                out.add_column(name, crate::column::Column::Float(transformed))?;
            } else {
                out.add_column(name, col.clone())?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        Table::from_columns(vec![
            ("a", Column::from_f64(vec![0.0, 5.0, 10.0])),
            ("b", Column::from_i64(vec![2, 4, 6])),
            ("c", Column::from_strings(["x", "y", "z"])),
            ("constant", Column::from_f64(vec![3.0, 3.0, 3.0])),
            ("sparse", Column::Float(vec![Some(1.0), None, Some(3.0)])),
        ])
        .unwrap()
    }

    #[test]
    fn method_names() {
        assert_eq!(NormalizationMethod::None.as_str(), "raw");
        assert_eq!(NormalizationMethod::MinMax.as_str(), "min-max [0, 1]");
        assert_eq!(NormalizationMethod::ZScore.as_str(), "z-score");
        assert_eq!(NormalizationMethod::default(), NormalizationMethod::MinMax);
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let t = table();
        let norm = Normalizer::fit(&t, &["a"], NormalizationMethod::MinMax).unwrap();
        assert_eq!(norm.transform_value("a", 0.0).unwrap(), 0.0);
        assert_eq!(norm.transform_value("a", 10.0).unwrap(), 1.0);
        assert_eq!(norm.transform_value("a", 5.0).unwrap(), 0.5);
    }

    #[test]
    fn zscore_centres_and_scales() {
        let t = table();
        let norm = Normalizer::fit(&t, &["a"], NormalizationMethod::ZScore).unwrap();
        let transformed = norm.transform_value("a", 5.0).unwrap();
        assert!((transformed - 0.0).abs() < 1e-12);
        // One standard deviation above the mean maps to 1.0.
        let sd = rf_stats::stddev(&[0.0, 5.0, 10.0]).unwrap();
        assert!((norm.transform_value("a", 5.0 + sd).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn none_is_identity() {
        let t = table();
        let norm = Normalizer::fit(&t, &["a", "b"], NormalizationMethod::None).unwrap();
        assert_eq!(norm.transform_value("a", 7.3).unwrap(), 7.3);
        assert_eq!(norm.transform_value("b", -2.0).unwrap(), -2.0);
    }

    #[test]
    fn constant_column_rejected_for_scaling() {
        let t = table();
        assert!(matches!(
            Normalizer::fit(&t, &["constant"], NormalizationMethod::MinMax),
            Err(TableError::Normalization { .. })
        ));
        assert!(matches!(
            Normalizer::fit(&t, &["constant"], NormalizationMethod::ZScore),
            Err(TableError::Normalization { .. })
        ));
        // Raw mode accepts constants.
        assert!(Normalizer::fit(&t, &["constant"], NormalizationMethod::None).is_ok());
    }

    #[test]
    fn string_column_rejected() {
        let t = table();
        assert!(Normalizer::fit(&t, &["c"], NormalizationMethod::MinMax).is_err());
    }

    #[test]
    fn unknown_column_rejected() {
        let t = table();
        assert!(Normalizer::fit(&t, &["ghost"], NormalizationMethod::MinMax).is_err());
        let norm = Normalizer::fit(&t, &["a"], NormalizationMethod::MinMax).unwrap();
        assert!(norm.transform_value("ghost", 1.0).is_err());
    }

    #[test]
    fn transform_table_replaces_fitted_columns_only() {
        let t = table();
        let norm = Normalizer::fit(&t, &["a", "b"], NormalizationMethod::MinMax).unwrap();
        let out = norm.transform_table(&t).unwrap();
        assert_eq!(out.numeric_column("a").unwrap(), vec![0.0, 0.5, 1.0]);
        assert_eq!(out.numeric_column("b").unwrap(), vec![0.0, 0.5, 1.0]);
        // Unfitted columns pass through untouched.
        assert_eq!(
            out.categorical_column("c").unwrap(),
            t.categorical_column("c").unwrap()
        );
        assert_eq!(out.numeric_column("constant").unwrap(), vec![3.0; 3]);
    }

    #[test]
    fn transform_table_preserves_nulls() {
        let t = table();
        let norm = Normalizer::fit(&t, &["sparse"], NormalizationMethod::MinMax).unwrap();
        let out = norm.transform_table(&t).unwrap();
        let col = out.numeric_column_options("sparse").unwrap();
        assert_eq!(col, vec![Some(0.0), None, Some(1.0)]);
    }

    #[test]
    fn fitted_normalizer_applies_to_new_data() {
        // Fit on the full table, apply to the top-k slice: values outside the
        // fitted range extrapolate naturally rather than being re-fitted.
        let t = table();
        let norm = Normalizer::fit(&t, &["a"], NormalizationMethod::MinMax).unwrap();
        let top = t.head(2);
        let out = norm.transform_table(&top).unwrap();
        assert_eq!(out.numeric_column("a").unwrap(), vec![0.0, 0.5]);
    }

    #[test]
    fn columns_listing() {
        let t = table();
        let norm = Normalizer::fit(&t, &["a", "b"], NormalizationMethod::MinMax).unwrap();
        assert_eq!(norm.columns(), vec!["a", "b"]);
        assert_eq!(norm.method(), NormalizationMethod::MinMax);
    }
}
