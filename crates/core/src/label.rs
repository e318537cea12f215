//! Assembling the complete nutritional label.

use crate::config::LabelConfig;
use crate::error::LabelResult;
use crate::pipeline::AnalysisPipeline;
use crate::widgets::diversity::DiversityWidget;
use crate::widgets::fairness::FairnessWidget;
use crate::widgets::ingredients::IngredientsWidget;
use crate::widgets::recipe::RecipeWidget;
use crate::widgets::stability::StabilityWidget;
use rf_ranking::Ranking;
use rf_table::{Table, Value};
use std::sync::Arc;

/// One row of the ranked output shown at the top of the label.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RankedRow {
    /// 1-based rank.
    pub rank: usize,
    /// Index of the row in the input table.
    pub row_index: usize,
    /// Identifier for display: the first string column of the table if any,
    /// otherwise the row index.
    pub identifier: String,
    /// The item's score.
    pub score: f64,
}

/// The complete Ranking Facts label: the top-k plus the six widgets.
///
/// The label carries what it shows, so its size is O(k + widgets) and does
/// not grow with the table: the number of ranked items, the top-k display
/// rows, and the widgets.  The full order induced by the Recipe lives on the
/// prepared [`PreparedAnalysis::ranking`](crate::PreparedAnalysis::ranking)
/// (`ctx.ranking` on an [`AnalysisContext`](crate::AnalysisContext));
/// callers that need it call [`AnalysisPipeline::prepare`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NutritionalLabel {
    /// Dataset name (from the configuration), if provided.
    pub dataset_name: Option<String>,
    /// The configuration the label was generated with.
    pub config: LabelConfig,
    /// Number of items in the ranking (every row of the table).
    pub ranked_items: usize,
    /// Display rows for the top-k.
    pub top_k_rows: Vec<RankedRow>,
    /// The Recipe widget.
    pub recipe: RecipeWidget,
    /// The Ingredients widget.
    pub ingredients: IngredientsWidget,
    /// The Stability widget.
    pub stability: StabilityWidget,
    /// The Fairness widget.
    pub fairness: FairnessWidget,
    /// The Diversity widget.
    pub diversity: DiversityWidget,
}

impl NutritionalLabel {
    /// Generates the nutritional label for `table` under `config`.
    ///
    /// This is the main entry point of the reproduction.  It routes through
    /// the [`AnalysisPipeline`](crate::AnalysisPipeline): the configuration
    /// is validated, the shared intermediates (ranking, normalized score
    /// matrix, protected groups) are computed once, and the six widgets are
    /// built one after another on the calling thread by the sequential
    /// reference pipeline ([`AnalysisPipeline::sequential`]), so a one-shot
    /// label starts no worker threads.
    ///
    /// This convenience entry point clones `table` and `config` into [`Arc`]s;
    /// callers that already hold shared data (the server catalogue, the
    /// benches) should call [`AnalysisPipeline::generate`] directly and skip
    /// the copy.
    ///
    /// # Errors
    /// Configuration validation errors or any widget-construction error.
    pub fn generate(table: &Table, config: &LabelConfig) -> LabelResult<Self> {
        AnalysisPipeline::sequential().generate(Arc::new(table.clone()), Arc::new(config.clone()))
    }

    /// Builds display rows for the top-k items, using the first string column
    /// as the identifier when one exists.
    pub(crate) fn top_k_rows(table: &Table, ranking: &Ranking, k: usize) -> Vec<RankedRow> {
        let id_column = table
            .schema()
            .fields()
            .iter()
            .find(|f| f.column_type == rf_table::ColumnType::Str)
            .map(|f| f.name.clone());
        ranking
            .top_k(k)
            .iter()
            .map(|item| {
                let identifier = id_column
                    .as_ref()
                    .and_then(|name| table.column(name).ok())
                    .and_then(|col| col.value(item.index))
                    .map(|v| match v {
                        Value::Str(s) => s,
                        other => other.to_display(),
                    })
                    .filter(|s| !s.is_empty())
                    .unwrap_or_else(|| format!("row {}", item.index));
                RankedRow {
                    rank: item.rank,
                    row_index: item.index,
                    identifier,
                    score: item.score,
                }
            })
            .collect()
    }

    /// Renders the label as plain text (see [`crate::render::render_text`]).
    #[must_use]
    pub fn to_text(&self) -> String {
        crate::render::render_text(self)
    }

    /// Renders the label as a JSON document (see [`crate::render::render_json`]).
    ///
    /// # Errors
    /// Serialization failures.
    pub fn to_json(&self) -> LabelResult<String> {
        crate::render::render_json(self)
    }

    /// Renders the label as a standalone HTML page (see [`crate::render::render_html`]).
    #[must_use]
    pub fn to_html(&self) -> String {
        crate::render::render_html(self)
    }

    /// One-line summary of the headline verdicts, convenient for logs and
    /// benchmark output.
    #[must_use]
    pub fn headline(&self) -> String {
        let stability = if self.stability.stable {
            "stable"
        } else {
            "unstable"
        };
        let fairness = if self.fairness.reports.is_empty() {
            "no sensitive attributes audited".to_string()
        } else if self.fairness.all_fair() {
            "fair for all audited features".to_string()
        } else {
            let unfair: Vec<String> = self
                .fairness
                .unfair_features()
                .iter()
                .map(|(a, v)| format!("{a}={v}"))
                .collect();
            format!("unfair for {}", unfair.join(", "))
        };
        let diversity = if self.diversity.reports.is_empty() {
            "no diversity attributes".to_string()
        } else if self.diversity.full_coverage() {
            "all categories represented in the top-k".to_string()
        } else {
            format!(
                "categories lost in the top-k for {}",
                self.diversity.attributes_losing_categories().join(", ")
            )
        };
        format!("ranking is {stability}; {fairness}; {diversity}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_ranking::ScoringFunction;
    use rf_table::Column;

    fn departments() -> Table {
        let n = 30usize;
        let names: Vec<String> = (0..n).map(|i| format!("Dept{i:02}")).collect();
        let pubs: Vec<f64> = (0..n).map(|i| 90.0 - 3.0 * i as f64).collect();
        let faculty: Vec<f64> = pubs.iter().map(|p| p * 0.9 + 10.0).collect();
        let gre: Vec<f64> = (0..n).map(|i| 158.0 + (i % 4) as f64).collect();
        let sizes: Vec<&str> = (0..n)
            .map(|i| if i < 15 { "large" } else { "small" })
            .collect();
        let regions: Vec<&str> = (0..n)
            .map(|i| match i % 5 {
                0 => "NE",
                1 => "MW",
                2 => "SA",
                3 => "SC",
                _ => "W",
            })
            .collect();
        Table::from_columns(vec![
            ("Dept", Column::from_strings(names)),
            ("PubCount", Column::from_f64(pubs)),
            ("Faculty", Column::from_f64(faculty)),
            ("GRE", Column::from_f64(gre)),
            ("DeptSizeBin", Column::from_strings(sizes)),
            ("Region", Column::from_strings(regions)),
        ])
        .unwrap()
    }

    fn config() -> LabelConfig {
        let scoring =
            ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)])
                .unwrap();
        LabelConfig::new(scoring)
            .with_top_k(10)
            .with_dataset_name("CS departments (synthetic)")
            .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
            .with_diversity_attribute("DeptSizeBin")
            .with_diversity_attribute("Region")
    }

    #[test]
    fn generates_complete_label() {
        let table = departments();
        let label = NutritionalLabel::generate(&table, &config()).unwrap();
        assert_eq!(label.ranked_items, 30);
        let ctx = AnalysisPipeline::sequential()
            .prepare(Arc::new(table), Arc::new(config()))
            .unwrap();
        assert_eq!(ctx.ranking.len(), 30);
        assert_eq!(label.top_k_rows.len(), 10);
        assert_eq!(label.recipe.entries.len(), 3);
        assert!(!label.ingredients.ingredients.is_empty());
        assert_eq!(label.fairness.reports.len(), 2);
        assert_eq!(label.diversity.reports.len(), 2);
        assert_eq!(
            label.dataset_name.as_deref(),
            Some("CS departments (synthetic)")
        );
    }

    #[test]
    fn top_rows_use_string_identifier_and_are_ordered() {
        let table = departments();
        let label = NutritionalLabel::generate(&table, &config()).unwrap();
        assert!(label.top_k_rows[0].identifier.starts_with("Dept"));
        for pair in label.top_k_rows.windows(2) {
            assert!(pair[0].score >= pair[1].score);
            assert_eq!(pair[0].rank + 1, pair[1].rank);
        }
    }

    #[test]
    fn headline_mentions_key_findings() {
        let table = departments();
        let label = NutritionalLabel::generate(&table, &config()).unwrap();
        let headline = label.headline();
        assert!(headline.contains("ranking is"));
        // Small departments never reach the top-10 in this construction.
        assert!(headline.contains("unfair") || headline.contains("fair"));
        assert!(headline.contains("DeptSizeBin") || headline.contains("represented"));
    }

    #[test]
    fn invalid_config_is_rejected_before_any_work() {
        let table = departments();
        let bad = config().with_top_k(500);
        assert!(NutritionalLabel::generate(&table, &bad).is_err());
    }

    #[test]
    fn label_without_sensitive_or_diversity_attributes() {
        let table = departments();
        let scoring = ScoringFunction::from_pairs([("PubCount", 1.0)]).unwrap();
        let minimal = LabelConfig::new(scoring).with_top_k(5);
        let label = NutritionalLabel::generate(&table, &minimal).unwrap();
        assert!(label.fairness.reports.is_empty());
        assert!(label.diversity.reports.is_empty());
        assert_eq!(label.top_k_rows.len(), 5);
    }

    #[test]
    fn identifier_falls_back_to_row_index() {
        let table =
            Table::from_columns(vec![("x", Column::from_f64(vec![3.0, 1.0, 2.0]))]).unwrap();
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let config = LabelConfig::new(scoring).with_top_k(2);
        let label = NutritionalLabel::generate(&table, &config).unwrap();
        assert_eq!(label.top_k_rows[0].identifier, "row 0");
    }
}
