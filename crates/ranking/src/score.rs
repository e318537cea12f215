//! Linear scoring functions — the "Recipe" of the nutritional label.
//!
//! A [`ScoringFunction`] is a set of `(attribute, weight)` pairs plus a
//! normalization policy.  Scoring a table produces one score per row:
//! `score(row) = Σ weight_j · normalize(attribute_j(row))`.
//!
//! "The explicit intentions of the designer of the scoring function about
//! which attributes matter, and to what extent, are stated in the Recipe"
//! (paper §2.1) — the Recipe widget in `rf-core` renders exactly the
//! contents of this struct.

use crate::error::{RankingError, RankingResult};
use crate::ranking::Ranking;
use rf_table::{NormalizationMethod, Normalizer, Table};

/// One scoring attribute and its weight.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AttributeWeight {
    /// Name of the numeric attribute.
    pub attribute: String,
    /// Weight assigned by the designer of the scoring function.
    pub weight: f64,
}

impl AttributeWeight {
    /// Creates an attribute/weight pair.
    pub fn new(attribute: impl Into<String>, weight: f64) -> Self {
        AttributeWeight {
            attribute: attribute.into(),
            weight,
        }
    }
}

/// How rows with missing scoring-attribute values are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum MissingValuePolicy {
    /// Fail with an error (the paper requires "a fully populated table").
    #[default]
    Error,
    /// Substitute the attribute's mean value (computed over non-missing rows).
    MeanImpute,
    /// Treat the missing value as zero after normalization.
    Zero,
}

/// A linear scoring function: weighted attributes plus a normalization policy.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScoringFunction {
    weights: Vec<AttributeWeight>,
    normalization: NormalizationMethod,
    missing_policy: MissingValuePolicy,
}

impl ScoringFunction {
    /// Creates a scoring function from `(attribute, weight)` pairs with the
    /// default normalization (min-max, as in the paper's design view).
    ///
    /// # Errors
    /// Returns an error when no attributes are given, a weight is non-finite,
    /// or every weight is zero.
    pub fn new(weights: Vec<AttributeWeight>) -> RankingResult<Self> {
        Self::with_normalization(weights, NormalizationMethod::MinMax)
    }

    /// Creates a scoring function with an explicit normalization policy.
    ///
    /// # Errors
    /// Same as [`ScoringFunction::new`].
    pub fn with_normalization(
        weights: Vec<AttributeWeight>,
        normalization: NormalizationMethod,
    ) -> RankingResult<Self> {
        if weights.is_empty() {
            return Err(RankingError::EmptyRecipe);
        }
        for w in &weights {
            if !w.weight.is_finite() {
                return Err(RankingError::InvalidWeight {
                    attribute: w.attribute.clone(),
                    message: format!("weight must be finite, got {}", w.weight),
                });
            }
        }
        if weights.iter().all(|w| w.weight == 0.0) {
            return Err(RankingError::InvalidWeight {
                attribute: String::new(),
                message: "all weights are zero".to_string(),
            });
        }
        Ok(ScoringFunction {
            weights,
            normalization,
            missing_policy: MissingValuePolicy::default(),
        })
    }

    /// Convenience constructor from `(name, weight)` tuples.
    ///
    /// # Errors
    /// Same as [`ScoringFunction::new`].
    pub fn from_pairs<I, S>(pairs: I) -> RankingResult<Self>
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        Self::new(
            pairs
                .into_iter()
                .map(|(name, weight)| AttributeWeight::new(name, weight))
                .collect(),
        )
    }

    /// Sets the missing-value policy.
    #[must_use]
    pub fn with_missing_policy(mut self, policy: MissingValuePolicy) -> Self {
        self.missing_policy = policy;
        self
    }

    /// The scoring attributes and their weights, in declaration order.
    #[must_use]
    pub fn weights(&self) -> &[AttributeWeight] {
        &self.weights
    }

    /// Names of the scoring attributes, in declaration order.
    #[must_use]
    pub fn attribute_names(&self) -> Vec<&str> {
        self.weights.iter().map(|w| w.attribute.as_str()).collect()
    }

    /// The normalization policy.
    #[must_use]
    pub fn normalization(&self) -> NormalizationMethod {
        self.normalization
    }

    /// The missing-value policy.
    #[must_use]
    pub fn missing_policy(&self) -> MissingValuePolicy {
        self.missing_policy
    }

    /// Weights rescaled to sum to 1 (in absolute value), as displayed by the
    /// Recipe widget.  Returns the raw weights when their absolute sum is 0
    /// (which construction prevents).
    #[must_use]
    pub fn normalized_weights(&self) -> Vec<AttributeWeight> {
        let total: f64 = self.weights.iter().map(|w| w.weight.abs()).sum();
        if total == 0.0 {
            return self.weights.clone();
        }
        self.weights
            .iter()
            .map(|w| AttributeWeight::new(w.attribute.clone(), w.weight / total))
            .collect()
    }

    /// Validates that every scoring attribute exists in `table` and is numeric.
    ///
    /// # Errors
    /// Propagates the table error for the first offending attribute.
    pub fn validate_against(&self, table: &Table) -> RankingResult<()> {
        for w in &self.weights {
            table.require_numeric(&w.attribute)?;
        }
        Ok(())
    }

    /// Computes the score of every row of `table`.
    ///
    /// Normalization parameters are fitted on the full table (so that scores
    /// of the top-k slice remain comparable with over-all scores).
    ///
    /// # Errors
    /// Missing/non-numeric attributes, normalization failures (constant
    /// column under min-max), or missing values under the
    /// [`MissingValuePolicy::Error`] policy.
    pub fn score_table(&self, table: &Table) -> RankingResult<Vec<f64>> {
        self.validate_against(table)?;
        let names: Vec<&str> = self.attribute_names();
        let normalizer = Normalizer::fit(table, &names, self.normalization)?;

        // Per attribute: its row-aligned values, its normalization and the
        // mean fallback for `MeanImpute`.
        let mut attributes = Vec::with_capacity(names.len());
        for w in &self.weights {
            let values = table.numeric_column_options(&w.attribute)?;
            let non_null: Vec<f64> = values.iter().filter_map(|x| *x).collect();
            let mean = if non_null.is_empty() {
                0.0
            } else {
                rf_stats::mean(&non_null)?
            };
            let transform = normalizer.column_transform(&w.attribute)?;
            attributes.push((w, values, transform, mean));
        }
        let mut scores = Vec::with_capacity(table.num_rows());
        for row in 0..table.num_rows() {
            let mut score = 0.0;
            for (w, values, transform, mean) in &attributes {
                let value = match values[row] {
                    Some(v) => transform(v),
                    None => match self.missing_policy {
                        MissingValuePolicy::Error => {
                            return Err(RankingError::MissingValue {
                                attribute: w.attribute.clone(),
                                row,
                            })
                        }
                        MissingValuePolicy::MeanImpute => transform(*mean),
                        MissingValuePolicy::Zero => 0.0,
                    },
                };
                score += w.weight * value;
            }
            scores.push(score);
        }
        Ok(scores)
    }

    /// Scores the table and returns the resulting [`Ranking`]
    /// (highest score first; ties broken by original row order).
    ///
    /// # Errors
    /// Same as [`ScoringFunction::score_table`].
    pub fn rank_table(&self, table: &Table) -> RankingResult<Ranking> {
        let scores = self.score_table(table)?;
        Ranking::from_scores(&scores)
    }

    /// Returns a copy with one attribute's weight replaced.  Used by the
    /// per-attribute stability analysis and by "what-if" exploration in the
    /// design view.
    ///
    /// # Errors
    /// Returns an error if the attribute is not part of the recipe or the new
    /// weight is invalid.
    pub fn with_weight(&self, attribute: &str, new_weight: f64) -> RankingResult<Self> {
        if !new_weight.is_finite() {
            return Err(RankingError::InvalidWeight {
                attribute: attribute.to_string(),
                message: format!("weight must be finite, got {new_weight}"),
            });
        }
        let mut weights = self.weights.clone();
        let slot = weights
            .iter_mut()
            .find(|w| w.attribute == attribute)
            .ok_or_else(|| RankingError::InvalidWeight {
                attribute: attribute.to_string(),
                message: "attribute is not part of the scoring function".to_string(),
            })?;
        slot.weight = new_weight;
        if weights.iter().all(|w| w.weight == 0.0) {
            return Err(RankingError::InvalidWeight {
                attribute: String::new(),
                message: "all weights are zero".to_string(),
            });
        }
        Ok(ScoringFunction {
            weights,
            normalization: self.normalization,
            missing_policy: self.missing_policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_table::Column;

    fn departments() -> Table {
        Table::from_columns(vec![
            ("Dept", Column::from_strings(["A", "B", "C", "D"])),
            ("PubCount", Column::from_f64(vec![10.0, 20.0, 30.0, 40.0])),
            ("Faculty", Column::from_f64(vec![40.0, 30.0, 20.0, 10.0])),
            ("GRE", Column::from_f64(vec![160.0, 161.0, 159.0, 160.5])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validations() {
        assert!(matches!(
            ScoringFunction::new(vec![]),
            Err(RankingError::EmptyRecipe)
        ));
        assert!(ScoringFunction::from_pairs([("a", f64::NAN)]).is_err());
        assert!(ScoringFunction::from_pairs([("a", 0.0), ("b", 0.0)]).is_err());
        assert!(ScoringFunction::from_pairs([("a", 0.0), ("b", 1.0)]).is_ok());
    }

    #[test]
    fn attribute_names_and_weights() {
        let f = ScoringFunction::from_pairs([("PubCount", 2.0), ("Faculty", 1.0)]).unwrap();
        assert_eq!(f.attribute_names(), vec!["PubCount", "Faculty"]);
        assert_eq!(f.weights()[0].weight, 2.0);
        let norm = f.normalized_weights();
        assert!((norm[0].weight - 2.0 / 3.0).abs() < 1e-12);
        assert!((norm[1].weight - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_attribute_ranking_matches_sort() {
        let t = departments();
        let f = ScoringFunction::from_pairs([("PubCount", 1.0)]).unwrap();
        let ranking = f.rank_table(&t).unwrap();
        // Highest PubCount (row 3) first.
        assert_eq!(ranking.order(), &[3, 2, 1, 0]);
    }

    #[test]
    fn equal_weights_balance_opposing_attributes() {
        let t = departments();
        // PubCount ascending, Faculty descending: equal weights make all rows tie.
        let f = ScoringFunction::from_pairs([("PubCount", 1.0), ("Faculty", 1.0)]).unwrap();
        let scores = f.score_table(&t).unwrap();
        for s in &scores {
            assert!((s - scores[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_shift_the_winner() {
        let t = departments();
        let favour_pubs =
            ScoringFunction::from_pairs([("PubCount", 0.9), ("Faculty", 0.1)]).unwrap();
        let favour_faculty =
            ScoringFunction::from_pairs([("PubCount", 0.1), ("Faculty", 0.9)]).unwrap();
        assert_eq!(favour_pubs.rank_table(&t).unwrap().order()[0], 3);
        assert_eq!(favour_faculty.rank_table(&t).unwrap().order()[0], 0);
    }

    #[test]
    fn raw_normalization_uses_magnitudes() {
        let t = departments();
        // Raw values: GRE (~160) dwarfs PubCount (10..40) when unnormalized.
        let f = ScoringFunction::with_normalization(
            vec![
                AttributeWeight::new("PubCount", 0.5),
                AttributeWeight::new("GRE", 0.5),
            ],
            NormalizationMethod::None,
        )
        .unwrap();
        let scores = f.score_table(&t).unwrap();
        assert!(scores.iter().all(|&s| s > 80.0));
    }

    #[test]
    fn validate_against_rejects_bad_attributes() {
        let t = departments();
        let f = ScoringFunction::from_pairs([("Ghost", 1.0)]).unwrap();
        assert!(f.validate_against(&t).is_err());
        let f = ScoringFunction::from_pairs([("Dept", 1.0)]).unwrap();
        assert!(f.validate_against(&t).is_err());
    }

    #[test]
    fn missing_value_policies() {
        let t = Table::from_columns(vec![("x", Column::Float(vec![Some(1.0), None, Some(3.0)]))])
            .unwrap();
        let f = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        assert!(matches!(
            f.score_table(&t),
            Err(RankingError::MissingValue { row: 1, .. })
        ));
        let f_mean = f
            .clone()
            .with_missing_policy(MissingValuePolicy::MeanImpute);
        let scores = f_mean.score_table(&t).unwrap();
        assert!((scores[1] - 0.5).abs() < 1e-12); // mean of 1 and 3 is 2 → min-max 0.5
        let f_zero = f.with_missing_policy(MissingValuePolicy::Zero);
        let scores = f_zero.score_table(&t).unwrap();
        assert_eq!(scores[1], 0.0);
    }

    #[test]
    fn score_range_reports_absolute_row_on_missing_values() {
        // The error names the first missing row by its index in the table,
        // past rows that score fine.
        let t = Table::from_columns(vec![(
            "x",
            Column::Float(vec![Some(1.0), Some(2.0), None, Some(3.0)]),
        )])
        .unwrap();
        let f = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        assert!(matches!(
            f.score_table(&t),
            Err(RankingError::MissingValue { row: 2, .. })
        ));
        // ... and the attribute it is missing from.
        let t = Table::from_columns(vec![
            ("y", Column::from_f64(vec![4.0, 3.0, 2.0, 1.0])),
            ("x", Column::Float(vec![Some(1.0), Some(2.0), None, None])),
        ])
        .unwrap();
        let f = ScoringFunction::from_pairs([("y", 1.0), ("x", 1.0)]).unwrap();
        assert!(matches!(
            f.score_table(&t),
            Err(RankingError::MissingValue { row: 2, ref attribute }) if attribute == "x"
        ));
    }

    #[test]
    fn with_weight_replaces_and_validates() {
        let f = ScoringFunction::from_pairs([("a", 1.0), ("b", 1.0)]).unwrap();
        let g = f.with_weight("a", 3.0).unwrap();
        assert_eq!(g.weights()[0].weight, 3.0);
        assert_eq!(f.weights()[0].weight, 1.0);
        assert!(f.with_weight("ghost", 1.0).is_err());
        assert!(f.with_weight("a", f64::INFINITY).is_err());
        // Setting the only non-zero weight to zero is rejected.
        let h = ScoringFunction::from_pairs([("a", 1.0), ("b", 0.0)]).unwrap();
        assert!(h.with_weight("a", 0.0).is_err());
    }

    #[test]
    fn scores_with_minmax_are_weight_bounded() {
        let t = departments();
        let f = ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.6)]).unwrap();
        let scores = f.score_table(&t).unwrap();
        for &s in &scores {
            assert!((0.0..=1.0 + 1e-12).contains(&s));
        }
    }
}
