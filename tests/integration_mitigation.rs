//! Integration test for the mitigation extension (paper §4 future work) on a
//! realistic dataset: the CS departments scenario where small departments are
//! shut out of the top-10.

use rf_core::{AnalysisPipeline, LabelConfig, MitigationSearch, NutritionalLabel};
use rf_datasets::CsDepartmentsConfig;
use rf_ranking::ScoringFunction;
use std::sync::Arc;

fn scenario() -> (rf_table::Table, LabelConfig) {
    let table = CsDepartmentsConfig::default().generate().unwrap();
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.45), ("Faculty", 0.45), ("GRE", 0.10)])
            .unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(10)
        .with_sensitive_attribute("DeptSizeBin", ["small"])
        .with_diversity_attribute("DeptSizeBin");
    (table, config)
}

#[test]
fn mitigation_improves_on_a_size_driven_recipe() {
    let (table, config) = scenario();

    // Premise: the original recipe is flagged.
    let original = NutritionalLabel::generate(&table, &config).unwrap();
    assert!(!original.fairness.all_fair() || !original.diversity.full_coverage());

    let suggestions = MitigationSearch::new()
        .with_factors(vec![0.25, 0.5, 1.0, 2.0, 4.0])
        .unwrap()
        .with_min_similarity(0.0)
        .with_max_suggestions(10)
        .suggest(&table, &config)
        .unwrap();
    assert!(!suggestions.is_empty());

    // The best suggestion is at least as good as the original on both axes.
    let best = &suggestions[0];
    let original_entry = suggestions
        .iter()
        .find(|s| s.is_original)
        .cloned()
        .unwrap_or_else(|| best.clone());
    assert!(best.unfair_features <= original_entry.unfair_features);
    assert!(best.attributes_losing_categories <= original_entry.attributes_losing_categories);

    // Every suggestion can actually be turned back into a label.
    let pipeline = AnalysisPipeline::sequential();
    let shared_table = Arc::new(table.clone());
    for suggestion in &suggestions {
        let scoring = ScoringFunction::with_normalization(
            suggestion.weights.clone(),
            config.scoring.normalization(),
        )
        .unwrap();
        let candidate_config = LabelConfig {
            scoring,
            ..config.clone()
        };
        let ctx = pipeline
            .prepare(Arc::clone(&shared_table), Arc::new(candidate_config))
            .unwrap();
        assert_eq!(ctx.ranking.len(), table.num_rows());
        let label = pipeline.render(&ctx).unwrap();
        assert_eq!(label.ranked_items, table.num_rows());
    }
}

#[test]
fn mitigation_is_deterministic() {
    let (table, config) = scenario();
    let run = || {
        MitigationSearch::new()
            .with_min_similarity(0.0)
            .suggest(&table, &config)
            .unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn suggestions_respect_similarity_floor() {
    let (table, config) = scenario();
    let suggestions = MitigationSearch::new()
        .with_min_similarity(0.9)
        .suggest(&table, &config)
        .unwrap();
    for suggestion in &suggestions {
        assert!(suggestion.is_original || suggestion.similarity_to_original >= 0.9);
    }
}
