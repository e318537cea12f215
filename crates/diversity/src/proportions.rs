//! Category proportions at the top-k and over-all — the pie-chart data.

use crate::error::{DiversityError, DiversityResult};
use rf_ranking::Ranking;
use rf_table::Table;

/// Count and proportion of one category.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CategoryCount {
    /// Category label.
    pub category: String,
    /// Number of items with this label.
    pub count: usize,
    /// Proportion of items with this label (count / total).
    pub proportion: f64,
}

/// Category distribution of one categorical attribute over one set of rows.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CategoryProportions {
    /// Attribute name.
    pub attribute: String,
    /// Number of rows with a non-missing label.
    pub total: usize,
    /// Number of rows with a missing label (excluded from proportions).
    pub missing: usize,
    /// Per-category counts, ordered by decreasing count (ties by label).
    pub categories: Vec<CategoryCount>,
}

impl CategoryProportions {
    /// Computes the distribution of `attribute` over all rows of `table`.
    ///
    /// # Errors
    /// Unknown/float column, or a column with no non-missing values.
    pub fn over_table(table: &Table, attribute: &str) -> DiversityResult<Self> {
        let labels = table.categorical_view(attribute)?;
        Self::from_labels(attribute, labels.iter())
    }

    /// Computes the distribution of `attribute` over the top-k rows of
    /// `ranking`.
    ///
    /// Only the top-k rows' labels are read.
    ///
    /// # Errors
    /// Unknown/float column, `k` out of range, or
    /// [`DiversityError::EmptyTopK`] when no top-k row has a label.
    pub fn over_top_k(
        table: &Table,
        ranking: &Ranking,
        attribute: &str,
        k: usize,
    ) -> DiversityResult<Self> {
        if k == 0 || k > ranking.len() {
            return Err(DiversityError::InvalidK {
                k,
                n: ranking.len(),
            });
        }
        let labels = table.categorical_view(attribute)?;
        let top_k = ranking.top_k(k).iter().map(|item| labels.get(item.index));
        Self::from_labels(attribute, top_k).map_err(|err| match err {
            DiversityError::EmptyAttribute { attribute } => {
                DiversityError::EmptyTopK { attribute, k }
            }
            other => other,
        })
    }

    /// Builds the distribution from an iterator of optional labels.
    ///
    /// # Errors
    /// [`DiversityError::EmptyAttribute`] when every label is missing.
    pub fn from_labels<I, S>(attribute: &str, labels: I) -> DiversityResult<Self>
    where
        I: IntoIterator<Item = Option<S>>,
        S: AsRef<str>,
    {
        let mut counts: Vec<(String, usize)> = Vec::new();
        let mut total = 0usize;
        let mut missing = 0usize;
        for label in labels {
            match label {
                Some(value) => {
                    let value = value.as_ref();
                    total += 1;
                    match counts.iter_mut().find(|(cat, _)| cat == value) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((value.to_string(), 1)),
                    }
                }
                None => missing += 1,
            }
        }
        if total == 0 {
            return Err(DiversityError::EmptyAttribute {
                attribute: attribute.to_string(),
            });
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let categories = counts
            .into_iter()
            .map(|(category, count)| CategoryCount {
                category,
                count,
                proportion: count as f64 / total as f64,
            })
            .collect();
        Ok(CategoryProportions {
            attribute: attribute.to_string(),
            total,
            missing,
            categories,
        })
    }

    /// Number of distinct categories present.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.categories.len()
    }

    /// The proportion of a given category (0.0 when absent).
    #[must_use]
    pub fn proportion_of(&self, category: &str) -> f64 {
        self.categories
            .iter()
            .find(|c| c.category == category)
            .map_or(0.0, |c| c.proportion)
    }

    /// The proportion vector (ordered as [`Self::categories`]).
    #[must_use]
    pub fn proportions(&self) -> Vec<f64> {
        self.categories.iter().map(|c| c.proportion).collect()
    }

    /// Category labels present, in the same order as the counts.
    #[must_use]
    pub fn labels(&self) -> Vec<&str> {
        self.categories
            .iter()
            .map(|c| c.category.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_table::Column;

    fn table() -> Table {
        Table::from_columns(vec![
            (
                "Region",
                Column::from_strings(["NE", "NE", "MW", "W", "NE", "SA", "MW", "W"]),
            ),
            (
                "score",
                Column::from_f64(vec![8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn over_table_counts_everything() {
        let p = CategoryProportions::over_table(&table(), "Region").unwrap();
        assert_eq!(p.total, 8);
        assert_eq!(p.missing, 0);
        assert_eq!(p.distinct(), 4);
        assert_eq!(p.categories[0].category, "NE");
        assert_eq!(p.categories[0].count, 3);
        assert!((p.proportion_of("NE") - 0.375).abs() < 1e-12);
        assert!((p.proportions().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn over_top_k_uses_ranking_order() {
        let t = table();
        let ranking = Ranking::from_scores(&t.numeric_column("score").unwrap()).unwrap();
        let p = CategoryProportions::over_top_k(&t, &ranking, "Region", 3).unwrap();
        // Top 3 by score are rows 0, 1, 2 → NE, NE, MW.
        assert_eq!(p.total, 3);
        assert_eq!(p.proportion_of("NE"), 2.0 / 3.0);
        assert_eq!(p.proportion_of("MW"), 1.0 / 3.0);
        assert_eq!(p.proportion_of("W"), 0.0);
    }

    #[test]
    fn k_bounds_checked() {
        let t = table();
        let ranking = Ranking::from_scores(&t.numeric_column("score").unwrap()).unwrap();
        assert!(CategoryProportions::over_top_k(&t, &ranking, "Region", 0).is_err());
        assert!(CategoryProportions::over_top_k(&t, &ranking, "Region", 9).is_err());
    }

    #[test]
    fn missing_labels_are_counted_separately() {
        let labels = [Some("a"), None, Some("b"), Some("a"), None];
        let p = CategoryProportions::from_labels("attr", labels).unwrap();
        assert_eq!(p.total, 3);
        assert_eq!(p.missing, 2);
        assert!((p.proportion_of("a") - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_missing_is_error() {
        let labels: [Option<&str>; 2] = [None, None];
        assert!(matches!(
            CategoryProportions::from_labels("attr", labels),
            Err(DiversityError::EmptyAttribute { .. })
        ));
    }

    #[test]
    fn ties_sorted_by_label() {
        let labels = [Some("b"), Some("a"), Some("b"), Some("a")];
        let p = CategoryProportions::from_labels("attr", labels).unwrap();
        assert_eq!(p.labels(), vec!["a", "b"]);
    }

    #[test]
    fn unlabelled_top_k_names_the_top_k() {
        // The column has labels, just none among the three best rows.
        let t = Table::from_columns(vec![
            (
                "region",
                Column::Str(vec![
                    None,
                    None,
                    None,
                    Some("NE".to_string()),
                    Some("W".to_string()),
                ]),
            ),
            ("score", Column::from_f64(vec![5.0, 4.0, 3.0, 2.0, 1.0])),
        ])
        .unwrap();
        let ranking = Ranking::from_scores(&t.numeric_column("score").unwrap()).unwrap();
        let err = CategoryProportions::over_top_k(&t, &ranking, "region", 3).unwrap_err();
        assert_eq!(
            err,
            DiversityError::EmptyTopK {
                attribute: "region".to_string(),
                k: 3
            }
        );
        assert_eq!(
            err.to_string(),
            "attribute `region` has no non-missing values among the top-3 items"
        );
        // Over the whole column, and at a k that reaches a label, it works.
        assert_eq!(
            CategoryProportions::over_table(&t, "region").unwrap().total,
            2
        );
        let p = CategoryProportions::over_top_k(&t, &ranking, "region", 4).unwrap();
        assert_eq!((p.total, p.missing), (1, 3));
    }

    #[test]
    fn float_column_rejected() {
        let t = table();
        assert!(CategoryProportions::over_table(&t, "score").is_err());
        assert!(CategoryProportions::over_table(&t, "ghost").is_err());
    }
}
