//! The Recipe widget.
//!
//! "The Recipe widget succinctly describes the ranking algorithm.  For
//! example, for a linear scoring formula, each attribute would be listed
//! together with its weight. [...] The detailed Recipe and Ingredients
//! widgets list statistics of the attributes in the Recipe and in the
//! Ingredients: minimum, maximum and median values at the top-10 and
//! over-all." (paper §2.1)
//!
//! An [`AttributeDetail`] reads its column in place and sorts nothing:
//! [`Summary::of`] selects the median, so a detail costs O(n) per
//! attribute.

use crate::error::LabelResult;
use rf_ranking::{Ranking, ScoringFunction};
use rf_stats::Summary;
use rf_table::Table;

/// One attribute row of the detailed Recipe/Ingredients view: its statistics
/// at the top-k and over the whole dataset.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AttributeDetail {
    /// Attribute name.
    pub attribute: String,
    /// Statistics over the top-k rows; `None` when none of them has a value
    /// for the attribute.
    pub top_k: Option<Summary>,
    /// Statistics over all rows.
    pub overall: Summary,
}

impl AttributeDetail {
    /// Computes the top-k / over-all statistics of one numeric attribute.
    ///
    /// # Errors
    /// Unknown or non-numeric attribute, a non-finite value, or no
    /// non-missing value in the whole column.
    pub fn compute(
        table: &Table,
        ranking: &Ranking,
        attribute: &str,
        k: usize,
    ) -> LabelResult<Self> {
        let values = table.numeric_view(attribute)?;
        let top_k_values: Vec<f64> = ranking
            .top_k(k)
            .iter()
            .filter_map(|item| values.get(item.index))
            .collect();
        let top_k = if top_k_values.is_empty() {
            None
        } else {
            Some(Summary::of(&top_k_values)?)
        };
        let overall: Vec<f64> = values.iter().flatten().collect();
        Ok(AttributeDetail {
            attribute: attribute.to_string(),
            top_k,
            overall: Summary::of(&overall)?,
        })
    }
}

/// One entry of the Recipe overview: an attribute and its (normalized) weight.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RecipeEntry {
    /// Attribute name.
    pub attribute: String,
    /// Raw weight as specified by the designer.
    pub weight: f64,
    /// Weight rescaled so that absolute weights sum to 1.
    pub normalized_weight: f64,
}

/// The Recipe widget: the declared scoring methodology.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RecipeWidget {
    /// The scoring attributes and weights, in declaration order.
    pub entries: Vec<RecipeEntry>,
    /// Human-readable description of the normalization policy.
    pub normalization: String,
    /// Detailed per-attribute statistics (top-k vs over-all).
    pub details: Vec<AttributeDetail>,
}

impl RecipeWidget {
    /// Builds the Recipe widget for `scoring` evaluated on `table`.
    ///
    /// # Errors
    /// Propagates attribute-statistics errors.
    pub fn build(
        table: &Table,
        scoring: &ScoringFunction,
        ranking: &Ranking,
        k: usize,
    ) -> LabelResult<Self> {
        let normalized = scoring.normalized_weights();
        let entries = scoring
            .weights()
            .iter()
            .zip(normalized.iter())
            .map(|(raw, norm)| RecipeEntry {
                attribute: raw.attribute.clone(),
                weight: raw.weight,
                normalized_weight: norm.weight,
            })
            .collect();
        let mut details = Vec::with_capacity(scoring.weights().len());
        for weight in scoring.weights() {
            details.push(AttributeDetail::compute(
                table,
                ranking,
                &weight.attribute,
                k,
            )?);
        }
        Ok(RecipeWidget {
            entries,
            normalization: scoring.normalization().as_str().to_string(),
            details,
        })
    }

    /// Names of the recipe attributes, in declaration order.
    #[must_use]
    pub fn attribute_names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.attribute.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_table::Column;

    fn setup() -> (Table, ScoringFunction, Ranking) {
        let table = Table::from_columns(vec![
            ("PubCount", Column::from_f64(vec![9.0, 7.0, 5.0, 3.0, 1.0])),
            (
                "GRE",
                Column::from_f64(vec![160.0, 162.0, 158.0, 161.0, 159.0]),
            ),
        ])
        .unwrap();
        let scoring = ScoringFunction::from_pairs([("PubCount", 0.8), ("GRE", 0.2)]).unwrap();
        let ranking = scoring.rank_table(&table).unwrap();
        (table, scoring, ranking)
    }

    #[test]
    fn recipe_lists_weights_and_normalization() {
        let (table, scoring, ranking) = setup();
        let recipe = RecipeWidget::build(&table, &scoring, &ranking, 3).unwrap();
        assert_eq!(recipe.entries.len(), 2);
        assert_eq!(recipe.entries[0].attribute, "PubCount");
        assert!((recipe.entries[0].normalized_weight - 0.8).abs() < 1e-12);
        assert!((recipe.entries[1].normalized_weight - 0.2).abs() < 1e-12);
        assert_eq!(recipe.normalization, "min-max [0, 1]");
        assert_eq!(recipe.attribute_names(), vec!["PubCount", "GRE"]);
    }

    #[test]
    fn details_compare_top_k_with_overall() {
        let (table, scoring, ranking) = setup();
        let recipe = RecipeWidget::build(&table, &scoring, &ranking, 2).unwrap();
        let pub_detail = &recipe.details[0];
        assert_eq!(pub_detail.attribute, "PubCount");
        assert_eq!(pub_detail.overall.count, 5);
        let top_k = pub_detail.top_k.as_ref().unwrap();
        assert_eq!(top_k.count, 2);
        // The top-2 by PubCount-dominated score have the two largest PubCounts.
        assert_eq!(top_k.min, 7.0);
        assert_eq!(top_k.max, 9.0);
        assert_eq!(pub_detail.overall.min, 1.0);
    }

    #[test]
    fn attribute_detail_errors_on_bad_column() {
        let (table, _, ranking) = setup();
        assert!(AttributeDetail::compute(&table, &ranking, "ghost", 2).is_err());
    }

    #[test]
    fn gre_statistics_similar_between_slices() {
        // The paper's observation: "the range of values and the median for GRE
        // are very similar in the top-10 and overall".
        let (table, scoring, ranking) = setup();
        let recipe = RecipeWidget::build(&table, &scoring, &ranking, 3).unwrap();
        let gre = recipe
            .details
            .iter()
            .find(|d| d.attribute == "GRE")
            .unwrap();
        assert!((gre.top_k.as_ref().unwrap().median - gre.overall.median).abs() < 3.0);
    }
}
