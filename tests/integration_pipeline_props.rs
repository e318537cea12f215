//! Property-based integration tests over the full pipeline: random datasets
//! and scoring weights, checking label-wide invariants.

use proptest::prelude::*;
use rf_core::{AnalysisPipeline, LabelConfig, NutritionalLabel};
use rf_ranking::ScoringFunction;
use rf_table::{Column, Table};
use std::sync::Arc;

/// Builds a random but well-formed dataset: two numeric attributes, one
/// binary group, one multi-valued category.
fn dataset(rows: usize, values: &[f64]) -> Table {
    let a: Vec<f64> = (0..rows).map(|i| values[i % values.len()]).collect();
    let b: Vec<f64> = (0..rows)
        .map(|i| values[(i * 7 + 3) % values.len()] * 0.5 + i as f64)
        .collect();
    let group: Vec<&str> = (0..rows)
        .map(|i| if i % 3 == 0 { "g1" } else { "g2" })
        .collect();
    let cat: Vec<&str> = (0..rows)
        .map(|i| match i % 4 {
            0 => "north",
            1 => "south",
            2 => "east",
            _ => "west",
        })
        .collect();
    Table::from_columns(vec![
        ("attr_a", Column::from_f64(a)),
        ("attr_b", Column::from_f64(b)),
        ("group", Column::from_strings(group)),
        ("category", Column::from_strings(cat)),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn label_invariants_hold_for_random_inputs(
        rows in 12usize..80,
        values in prop::collection::vec(-1.0e3..1.0e3f64, 8..32),
        w_a in 0.05..1.0f64,
        w_b in 0.05..1.0f64,
        k in 2usize..12,
    ) {
        // Ensure attribute A is not constant (min-max normalization requires spread).
        prop_assume!(values.iter().any(|v| (v - values[0]).abs() > 1e-6));
        let table = dataset(rows, &values);
        let k = k.min(rows);
        let scoring = ScoringFunction::from_pairs([("attr_a", w_a), ("attr_b", w_b)]).unwrap();
        let config = LabelConfig::new(scoring)
            .with_top_k(k)
            .with_sensitive_attribute("group", ["g1"])
            .with_diversity_attribute("category");
        let pipeline = AnalysisPipeline::sequential();
        let ctx = pipeline.prepare(Arc::new(table), Arc::new(config)).unwrap();
        let label = pipeline.render(&ctx).unwrap();
        prop_assert_eq!(label.ranked_items, rows);

        // The ranking is a permutation of the rows.
        let mut order = ctx.ranking.order();
        order.sort_unstable();
        prop_assert_eq!(order, (0..rows).collect::<Vec<_>>());

        // Scores in rank order never increase.
        let scores = ctx.ranking.scores_in_rank_order();
        for pair in scores.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-12);
        }

        // Top-k display rows match the ranking prefix.
        prop_assert_eq!(label.top_k_rows.len(), k);
        for (row, item) in label.top_k_rows.iter().zip(ctx.ranking.top_k(k)) {
            prop_assert_eq!(row.row_index, item.index);
        }

        // Every fairness p-value lies in [0, 1]; verdicts match thresholds for
        // the two plain tests.
        for report in &label.fairness.reports {
            prop_assert!((0.0..=1.0).contains(&report.pairwise.p_value));
            prop_assert!((0.0..=1.0).contains(&report.proportion.p_value));
            prop_assert!((0.0..=1.0).contains(&report.fair_star.p_value));
            prop_assert_eq!(report.pairwise.fair, report.pairwise.p_value >= report.alpha);
            prop_assert_eq!(report.proportion.fair, report.proportion.p_value >= report.alpha);
            prop_assert!((0.0..=1.0).contains(&report.discounted.rnd));
            prop_assert!((0.0..=1.0).contains(&report.discounted.rkl));
            prop_assert!((0.0..=1.0).contains(&report.discounted.rrd));
        }

        // Diversity proportions sum to one in both views, and lost categories
        // really are absent from the top-k.
        for report in &label.diversity.reports {
            let sum_top: f64 = report.top_k.proportions().iter().sum();
            let sum_all: f64 = report.overall.proportions().iter().sum();
            prop_assert!((sum_top - 1.0).abs() < 1e-9);
            prop_assert!((sum_all - 1.0).abs() < 1e-9);
            for missing in &report.missing_from_top_k {
                prop_assert_eq!(report.top_k.proportion_of(missing), 0.0);
            }
        }

        // Stability scores are non-negative and the verdict is consistent.
        prop_assert!(label.stability.stability_score >= 0.0);
        prop_assert_eq!(
            label.stability.stable,
            label.stability.stability_score > label.config.stability_threshold
        );

        // The label serializes to JSON and parses back with the same item
        // count and the same top-k rows.
        let json = label.to_json().unwrap();
        let parsed: NutritionalLabel = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(parsed.ranked_items, label.ranked_items);
        prop_assert_eq!(parsed.top_k_rows.len(), label.top_k_rows.len());
        for (back, row) in parsed.top_k_rows.iter().zip(&label.top_k_rows) {
            prop_assert_eq!(back.rank, row.rank);
            prop_assert_eq!(back.row_index, row.row_index);
            prop_assert_eq!(&back.identifier, &row.identifier);
        }
        prop_assert_eq!(parsed.config, label.config);
    }
}
