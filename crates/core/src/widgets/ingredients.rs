//! The Ingredients widget.
//!
//! "The Ingredients widget lists attributes most material to the ranked
//! outcome, in order of importance.  For example, for a linear model, this
//! list could present the attributes with the highest learned weights.  Put
//! another way, the explicit intentions of the designer of the scoring
//! function [...] are stated in the Recipe, while Ingredients may show
//! additional attributes associated with high rank." (paper §2.1)
//!
//! Importance is estimated in two complementary ways, both reported:
//!
//! * **rank association** — the absolute Spearman correlation between the
//!   attribute's values and the item scores (rank-aware, robust to monotone
//!   transformations), which is what the overview sorts by;
//! * **learned weight** — the coefficient of the attribute in a multiple
//!   linear regression of the score on all standardized numeric attributes
//!   (the "highest learned weights" formulation), shown in the detailed view.
//!
//! ## Cost
//!
//! Near-linear in the table, with one sort per numeric attribute and none
//! for the scores.  Most of the work depends only on the table and the
//! ranking, not on `k`, so it is split out as an `IngredientsCore` that
//! every label of one table and recipe shares (the label service keeps it
//! with the prepared ranking).  The core reads the scores' tie-averaged
//! ranks off the ranking's order ([`rf_stats::tie_averaged_ranks`]), reads
//! each attribute in place, mean-imputes and sorts it once
//! ([`rf_ranking::sort_descending`]) — that one order gives its Spearman
//! ranks and, kept as `u32` rows, the prefix the rank-aware association
//! compares with the ranking — and fits the z-scored regression, refilling
//! one design-row buffer.  Per label there remain the top-`k` rank-aware
//! association of each attribute and the details ([`AttributeDetail`]) of
//! the listed ingredients, which select their medians instead of sorting.
//! Every value is bit-identical to ranking, sorting and summarizing each
//! column from scratch.

use crate::error::{LabelError, LabelResult};
use crate::widgets::recipe::AttributeDetail;
use rf_ranking::{rank_aware_association_of_order, sort_descending, Ranking};
use rf_stats::{spearman_with_ranks, tie_averaged_ranks, MultipleRegression};
use rf_table::{NormalizationMethod, Normalizer, Table};

/// How the Ingredients widget estimates which attributes are "most material
/// to the ranked outcome".
///
/// The paper offers both options: "such associations can be derived with
/// linear models or with other methods, such as rank-aware similarity in our
/// prior work" (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum IngredientsMethod {
    /// Sort by the absolute Spearman correlation between the attribute and
    /// the score (the linear-model flavour; the default).
    #[default]
    LinearAssociation,
    /// Sort by the rank-aware (top-weighted) agreement between the ranking
    /// the attribute alone would induce and the observed ranking.
    RankAwareSimilarity,
}

impl IngredientsMethod {
    /// Human-readable name used by the renderers.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            IngredientsMethod::LinearAssociation => "linear association",
            IngredientsMethod::RankAwareSimilarity => "rank-aware similarity",
        }
    }
}

/// One attribute of the Ingredients widget, with its importance estimates.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Ingredient {
    /// Attribute name.
    pub attribute: String,
    /// Absolute Spearman correlation between the attribute and the score.
    pub rank_association: f64,
    /// Signed Spearman correlation (direction of the association).
    pub signed_association: f64,
    /// Rank-aware (top-weighted) agreement between the attribute-induced
    /// ranking and the observed ranking, in `[0, 1]`.
    pub top_weighted_association: f64,
    /// Standardized learned weight from the linear model (None when the
    /// regression is degenerate, e.g. collinear attributes).
    pub learned_weight: Option<f64>,
    /// Whether the attribute is part of the declared Recipe.
    pub in_recipe: bool,
}

/// The Ingredients widget: attributes most associated with the ranked outcome.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IngredientsWidget {
    /// The top ingredients, ordered by decreasing rank association.
    pub ingredients: Vec<Ingredient>,
    /// All candidate attributes with their associations (detailed view).
    pub all_attributes: Vec<Ingredient>,
    /// Detailed per-attribute statistics for the listed ingredients.
    pub details: Vec<AttributeDetail>,
    /// R² of the linear model used for the learned weights (None when the
    /// regression could not be fitted).
    pub model_r_squared: Option<f64>,
    /// Recipe attributes that do **not** appear among the top ingredients —
    /// the mismatch the demo walk-through highlights (GRE in Figure 1).
    pub recipe_attributes_not_material: Vec<String>,
    /// The association method that ordered the list.
    #[serde(default)]
    pub method: IngredientsMethod,
}

/// The part of the Ingredients widget that the table and the ranking alone
/// decide, so every label of one table and recipe can share it: each usable
/// numeric attribute's order, signed Spearman ρ and learned weight, and the
/// regression's R².  Nothing in it reads `k`, the ingredient count or the
/// method.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IngredientsCore {
    /// Usable numeric attributes, in schema order.
    attributes: Vec<CoreAttribute>,
    /// R² of the z-scored regression of the score on every usable attribute
    /// (None when it could not be fitted).
    model_r_squared: Option<f64>,
}

/// One usable numeric attribute of an [`IngredientsCore`].
#[derive(Debug, Clone, PartialEq)]
struct CoreAttribute {
    name: String,
    /// Rows best first by the mean-imputed values: the ranking the attribute
    /// alone would induce.
    order: Vec<u32>,
    /// Spearman ρ between the attribute and the score.
    signed_association: f64,
    /// The attribute's coefficient in the regression.
    learned_weight: Option<f64>,
}

impl IngredientsCore {
    /// Sorts, correlates and regresses every usable numeric attribute of
    /// `table` against the scores of `ranking`.
    ///
    /// # Errors
    /// Propagates table/statistics errors for candidate numeric attributes.
    pub(crate) fn compute(table: &Table, ranking: &Ranking) -> LabelResult<Self> {
        // Orders are kept as `u32` rows.
        if u32::try_from(table.num_rows()).is_err() {
            return Err(LabelError::InvalidConfig {
                message: format!("the Ingredients widget ranks at most {} rows", u32::MAX),
            });
        }
        let scores = ranking.score_vector();
        // The scores' ranks: the ranking already holds the scores in
        // descending order.
        let score_ranks = tie_averaged_ranks(
            ranking.items(),
            |item| item.index,
            |a, b| a.score == b.score,
        );

        // Rank association per attribute (skip attributes that are all
        // missing: they cannot explain the outcome).
        let numeric_names = table.schema().numeric_names();
        let mut attributes = Vec::with_capacity(numeric_names.len());
        let mut usable: Vec<(&str, Vec<f64>)> = Vec::new();
        for name in numeric_names {
            let values = table.numeric_view(name)?;
            // Mean-impute missing values for the association estimate.
            let present = values.iter().flatten().count();
            if present == 0 {
                continue;
            }
            let mean = values.iter().flatten().sum::<f64>() / present as f64;
            let filled: Vec<f64> = values.iter().map(|v| v.unwrap_or(mean)).collect();
            // The attribute's one sort: its rows best first, which gives its
            // Spearman ranks and the ranking it alone would induce.
            let order = sort_descending(&filled);
            let ranks = tie_averaged_ranks(&order, |&row| row, |&a, &b| filled[a] == filled[b]);
            let signed = match spearman_with_ranks(&filled, &scores, &ranks, &score_ranks) {
                Ok(rho) => rho,
                Err(rf_stats::StatsError::ZeroVariance { .. }) => 0.0,
                Err(err) => return Err(err.into()),
            };
            attributes.push(CoreAttribute {
                name: name.to_string(),
                order: order.into_iter().map(|row| row as u32).collect(),
                signed_association: signed,
                learned_weight: None,
            });
            usable.push((name, filled));
        }

        // Learned weights: regress the score on all standardized usable
        // attributes (one per entry of `attributes`, in the same order).
        let mut model_r_squared = None;
        if !usable.is_empty() {
            let names: Vec<&str> = usable.iter().map(|(n, _)| *n).collect();
            if let Ok(normalizer) = Normalizer::fit(table, &names, NormalizationMethod::ZScore) {
                let mut design: Vec<Vec<f64>> = Vec::with_capacity(usable.len());
                for (name, filled) in &usable {
                    let transform = normalizer.column_transform(name)?;
                    design.push(filled.iter().map(|&v| transform(v)).collect());
                }
                if let Ok(fit) = MultipleRegression::fit(&design, &scores) {
                    model_r_squared = Some(fit.r_squared);
                    for (attribute, coeff) in attributes.iter_mut().zip(fit.coefficients.iter()) {
                        attribute.learned_weight = Some(*coeff);
                    }
                }
            }
        }
        Ok(IngredientsCore {
            attributes,
            model_r_squared,
        })
    }

    /// Approximate heap footprint: every attribute's name and row order.
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        self.attributes
            .iter()
            .map(|attribute| {
                attribute.name.len() + std::mem::size_of_val(attribute.order.as_slice())
            })
            .sum()
    }
}

impl IngredientsWidget {
    /// Builds the Ingredients widget with the default
    /// [`IngredientsMethod::LinearAssociation`] ordering.
    ///
    /// `recipe_attributes` are the attributes of the scoring function (used to
    /// flag recipe/ingredient mismatches); `count` is how many ingredients the
    /// overview lists.
    ///
    /// # Errors
    /// Propagates table/statistics errors for candidate numeric attributes.
    pub fn build(
        table: &Table,
        ranking: &Ranking,
        recipe_attributes: &[&str],
        k: usize,
        count: usize,
    ) -> LabelResult<Self> {
        Self::build_with_method(
            table,
            ranking,
            recipe_attributes,
            k,
            count,
            IngredientsMethod::LinearAssociation,
        )
    }

    /// Builds the Ingredients widget, ordering attributes by `method`: the
    /// table's `k`-independent core under this ranking, then the per-label
    /// part.
    ///
    /// # Errors
    /// Propagates table/statistics errors for candidate numeric attributes.
    pub fn build_with_method(
        table: &Table,
        ranking: &Ranking,
        recipe_attributes: &[&str],
        k: usize,
        count: usize,
        method: IngredientsMethod,
    ) -> LabelResult<Self> {
        let core = IngredientsCore::compute(table, ranking)?;
        Self::from_core(&core, table, ranking, recipe_attributes, k, count, method)
    }

    /// The per-label part of the widget: everything that reads `k`, the
    /// ingredient count or the method.  `core` must have been computed from
    /// this `table` and `ranking`.
    ///
    /// # Errors
    /// Propagates table/statistics errors for the listed ingredients.
    pub(crate) fn from_core(
        core: &IngredientsCore,
        table: &Table,
        ranking: &Ranking,
        recipe_attributes: &[&str],
        k: usize,
        count: usize,
        method: IngredientsMethod,
    ) -> LabelResult<Self> {
        let depth = k.clamp(1, ranking.len());
        let mut all_attributes = Vec::with_capacity(core.attributes.len());
        for attribute in &core.attributes {
            // Rank-aware (top-weighted) agreement between the ranking this
            // attribute alone would produce and the observed ranking.
            let top_weighted = rank_aware_association_of_order(
                ranking,
                attribute.order.iter().map(|&row| row as usize),
                depth,
            )?;
            all_attributes.push(Ingredient {
                attribute: attribute.name.clone(),
                rank_association: attribute.signed_association.abs(),
                signed_association: attribute.signed_association,
                top_weighted_association: top_weighted,
                learned_weight: attribute.learned_weight,
                in_recipe: recipe_attributes.contains(&attribute.name.as_str()),
            });
        }

        // Sort by the selected association measure, strongest first.
        let sort_key = |ing: &Ingredient| match method {
            IngredientsMethod::LinearAssociation => ing.rank_association,
            IngredientsMethod::RankAwareSimilarity => ing.top_weighted_association,
        };
        all_attributes.sort_by(|a, b| {
            sort_key(b)
                .partial_cmp(&sort_key(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.attribute.cmp(&b.attribute))
        });
        let ingredients: Vec<Ingredient> = all_attributes.iter().take(count).cloned().collect();

        let mut details = Vec::with_capacity(ingredients.len());
        for ing in &ingredients {
            details.push(AttributeDetail::compute(table, ranking, &ing.attribute, k)?);
        }

        let top_names: Vec<&str> = ingredients.iter().map(|i| i.attribute.as_str()).collect();
        let recipe_attributes_not_material = recipe_attributes
            .iter()
            .filter(|a| !top_names.contains(a))
            .map(|a| (*a).to_string())
            .collect();

        Ok(IngredientsWidget {
            ingredients,
            all_attributes,
            details,
            model_r_squared: core.model_r_squared,
            recipe_attributes_not_material,
            method,
        })
    }

    /// Names of the listed ingredients, strongest association first.
    #[must_use]
    pub fn ingredient_names(&self) -> Vec<&str> {
        self.ingredients
            .iter()
            .map(|i| i.attribute.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_ranking::ScoringFunction;
    use rf_table::Column;

    /// PubCount drives the score; Faculty is correlated with PubCount; GRE is
    /// noise — the structure of the paper's CS departments example.
    fn setup() -> (Table, Ranking) {
        let n = 40usize;
        let pubs: Vec<f64> = (0..n).map(|i| 100.0 - 2.0 * i as f64).collect();
        // Faculty tracks PubCount closely but not perfectly (perfect
        // collinearity would make the learned-weight regression singular).
        let faculty: Vec<f64> = pubs
            .iter()
            .enumerate()
            .map(|(i, p)| p * 0.8 + 5.0 + (i % 4) as f64 * 1.5)
            .collect();
        let gre: Vec<f64> = (0..n).map(|i| 158.0 + (i % 5) as f64).collect();
        let table = Table::from_columns(vec![
            ("PubCount", Column::from_f64(pubs)),
            ("Faculty", Column::from_f64(faculty)),
            ("GRE", Column::from_f64(gre)),
        ])
        .unwrap();
        let scoring = ScoringFunction::from_pairs([("PubCount", 0.7), ("GRE", 0.3)]).unwrap();
        let ranking = scoring.rank_table(&table).unwrap();
        (table, ranking)
    }

    #[test]
    fn ingredients_ordered_by_association() {
        let (table, ranking) = setup();
        let widget =
            IngredientsWidget::build(&table, &ranking, &["PubCount", "GRE"], 10, 2).unwrap();
        assert_eq!(widget.ingredients.len(), 2);
        // PubCount (and the correlated Faculty) dominate; GRE does not make the cut.
        let names = widget.ingredient_names();
        assert!(names.contains(&"PubCount"));
        assert!(names.contains(&"Faculty"));
        assert!(!names.contains(&"GRE"));
        // Associations are sorted non-increasing.
        for pair in widget.ingredients.windows(2) {
            assert!(pair[0].rank_association >= pair[1].rank_association);
        }
    }

    #[test]
    fn recipe_mismatch_is_reported() {
        let (table, ranking) = setup();
        let widget =
            IngredientsWidget::build(&table, &ranking, &["PubCount", "GRE"], 10, 2).unwrap();
        // GRE is in the Recipe but not material to the outcome — exactly the
        // observation the demo walks through.
        assert_eq!(
            widget.recipe_attributes_not_material,
            vec!["GRE".to_string()]
        );
        let gre = widget
            .all_attributes
            .iter()
            .find(|i| i.attribute == "GRE")
            .unwrap();
        assert!(gre.in_recipe);
        assert!(gre.rank_association < 0.5);
    }

    #[test]
    fn learned_weights_present_when_model_fits() {
        let (table, ranking) = setup();
        let widget = IngredientsWidget::build(&table, &ranking, &["PubCount"], 10, 3).unwrap();
        assert!(widget.model_r_squared.unwrap_or(0.0) > 0.8);
        let pub_ing = widget
            .all_attributes
            .iter()
            .find(|i| i.attribute == "PubCount")
            .unwrap();
        assert!(pub_ing.learned_weight.is_some());
    }

    #[test]
    fn details_align_with_listed_ingredients() {
        let (table, ranking) = setup();
        let widget = IngredientsWidget::build(&table, &ranking, &["PubCount"], 5, 2).unwrap();
        assert_eq!(widget.details.len(), widget.ingredients.len());
        for (detail, ing) in widget.details.iter().zip(widget.ingredients.iter()) {
            assert_eq!(detail.attribute, ing.attribute);
            assert_eq!(detail.top_k.as_ref().unwrap().count, 5);
        }
    }

    #[test]
    fn count_larger_than_candidates_is_capped() {
        let (table, ranking) = setup();
        let widget = IngredientsWidget::build(&table, &ranking, &[], 5, 10).unwrap();
        assert_eq!(widget.ingredients.len(), 3);
        assert!(widget.recipe_attributes_not_material.is_empty());
        assert_eq!(widget.method, IngredientsMethod::LinearAssociation);
    }

    /// Fixture whose ranking is driven by PubCount alone, with GRE pure noise
    /// — the clean case in which both association estimators must agree.
    fn setup_pubcount_only() -> (Table, Ranking) {
        let n = 40usize;
        let pubs: Vec<f64> = (0..n).map(|i| 100.0 - 2.0 * i as f64).collect();
        let faculty: Vec<f64> = pubs.iter().map(|p| p * 0.8 + 5.0).collect();
        let gre: Vec<f64> = (0..n).map(|i| 158.0 + (i % 5) as f64).collect();
        let table = Table::from_columns(vec![
            ("PubCount", Column::from_f64(pubs.clone())),
            ("Faculty", Column::from_f64(faculty)),
            ("GRE", Column::from_f64(gre)),
        ])
        .unwrap();
        let ranking = Ranking::from_scores(&pubs).unwrap();
        (table, ranking)
    }

    #[test]
    fn rank_aware_method_orders_by_top_weighted_association() {
        let (table, ranking) = setup_pubcount_only();
        let widget = IngredientsWidget::build_with_method(
            &table,
            &ranking,
            &["PubCount", "GRE"],
            10,
            3,
            IngredientsMethod::RankAwareSimilarity,
        )
        .unwrap();
        assert_eq!(widget.method, IngredientsMethod::RankAwareSimilarity);
        // PubCount alone reproduces the ranking, so its attribute-induced
        // ranking agrees with the outcome far more than GRE's does.
        let find = |name: &str| {
            widget
                .all_attributes
                .iter()
                .find(|i| i.attribute == name)
                .unwrap()
        };
        assert!((find("PubCount").top_weighted_association - 1.0).abs() < 1e-9);
        assert!(find("PubCount").top_weighted_association > find("GRE").top_weighted_association);
        // The listed ingredients are sorted by the top-weighted association.
        for pair in widget.ingredients.windows(2) {
            assert!(pair[0].top_weighted_association >= pair[1].top_weighted_association);
        }
        // Every association lies in [0, 1].
        for ing in &widget.all_attributes {
            assert!((0.0..=1.0 + 1e-9).contains(&ing.top_weighted_association));
        }
    }

    #[test]
    fn both_methods_agree_on_the_driving_attribute() {
        let (table, ranking) = setup_pubcount_only();
        let linear = IngredientsWidget::build(&table, &ranking, &[], 10, 1).unwrap();
        let rank_aware = IngredientsWidget::build_with_method(
            &table,
            &ranking,
            &[],
            10,
            1,
            IngredientsMethod::RankAwareSimilarity,
        )
        .unwrap();
        // Different estimators, same headline finding: the publication /
        // faculty block tops the list, GRE never does.
        assert_ne!(linear.ingredient_names()[0], "GRE");
        assert_ne!(rank_aware.ingredient_names()[0], "GRE");
    }

    #[test]
    fn methods_can_disagree_when_an_attribute_dominates_only_the_top() {
        // The setup() fixture ranks with min-max normalized scores, where the
        // coarse GRE values decide who is at the very top even though PubCount
        // explains the overall ordering; the two estimators then tell
        // different (both true) stories — exactly why the widget reports both.
        let (table, ranking) = setup();
        let widget = IngredientsWidget::build_with_method(
            &table,
            &ranking,
            &["PubCount", "GRE"],
            10,
            3,
            IngredientsMethod::RankAwareSimilarity,
        )
        .unwrap();
        let find = |name: &str| {
            widget
                .all_attributes
                .iter()
                .find(|i| i.attribute == name)
                .unwrap()
        };
        // Linear association still favours PubCount…
        assert!(find("PubCount").rank_association > find("GRE").rank_association);
        // …while both top-weighted values are reported for the detailed view.
        assert!(find("GRE").top_weighted_association > 0.0);
        assert!(find("PubCount").top_weighted_association > 0.0);
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(
            IngredientsMethod::LinearAssociation.as_str(),
            "linear association"
        );
        assert_eq!(
            IngredientsMethod::RankAwareSimilarity.as_str(),
            "rank-aware similarity"
        );
        assert_eq!(
            IngredientsMethod::default(),
            IngredientsMethod::LinearAssociation
        );
    }
}
