//! Cross-crate integration tests: synthetic dataset → scoring function →
//! nutritional label, checking that the widgets are mutually consistent.

use rf_core::{AnalysisContext, AnalysisPipeline, LabelConfig, NutritionalLabel};
use rf_datasets::CsDepartmentsConfig;
use rf_ranking::ScoringFunction;
use rf_table::{Fingerprinter, Table};
use std::sync::Arc;

fn cs_config() -> LabelConfig {
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    LabelConfig::new(scoring)
        .with_top_k(10)
        .with_dataset_name("CS departments")
        .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
        .with_diversity_attribute("DeptSizeBin")
        .with_diversity_attribute("Region")
}

fn cs_label() -> NutritionalLabel {
    let table = CsDepartmentsConfig::default().generate().unwrap();
    NutritionalLabel::generate(&table, &cs_config()).unwrap()
}

/// Prepares `table` under `config` and renders its label: the label carries
/// the top-k, the prepared context the full order.
fn prepared(table: Table, config: LabelConfig) -> (Arc<AnalysisContext>, NutritionalLabel) {
    let pipeline = AnalysisPipeline::sequential();
    let ctx = pipeline.prepare(Arc::new(table), Arc::new(config)).unwrap();
    let label = pipeline.render(&ctx).unwrap();
    (ctx, label)
}

fn cs_prepared() -> (Arc<AnalysisContext>, NutritionalLabel) {
    prepared(
        CsDepartmentsConfig::default().generate().unwrap(),
        cs_config(),
    )
}

#[test]
fn label_generates_for_the_cs_scenario() {
    let (ctx, label) = cs_prepared();
    assert_eq!(ctx.ranking.len(), 97);
    assert_eq!(label.ranked_items, 97);
    assert_eq!(label, cs_label());
    assert_eq!(label.top_k_rows.len(), 10);
    assert_eq!(label.recipe.entries.len(), 3);
    assert_eq!(label.fairness.reports.len(), 2);
    assert_eq!(label.diversity.reports.len(), 2);
}

#[test]
fn ranking_is_a_permutation_of_the_dataset() {
    let (ctx, _) = cs_prepared();
    let mut order = ctx.ranking.order();
    order.sort_unstable();
    assert_eq!(order, (0..97).collect::<Vec<_>>());
}

#[test]
fn top_k_rows_agree_with_ranking() {
    let (ctx, label) = cs_prepared();
    for (row, item) in label.top_k_rows.iter().zip(ctx.ranking.top_k(10).iter()) {
        assert_eq!(row.rank, item.rank);
        assert_eq!(row.row_index, item.index);
        assert!((row.score - item.score).abs() < 1e-12);
    }
}

#[test]
fn recipe_weights_sum_to_one_after_normalization() {
    let label = cs_label();
    let total: f64 = label
        .recipe
        .entries
        .iter()
        .map(|e| e.normalized_weight.abs())
        .sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn recipe_details_cover_top_k_and_overall() {
    let label = cs_label();
    for detail in &label.recipe.details {
        let top_k = detail.top_k.as_ref().unwrap();
        assert_eq!(top_k.count, 10);
        assert_eq!(detail.overall.count, 97);
        assert!(top_k.min >= detail.overall.min - 1e-9);
        assert!(top_k.max <= detail.overall.max + 1e-9);
    }
}

#[test]
fn fairness_reports_reference_configured_features() {
    let label = cs_label();
    let features: Vec<(String, String)> = label
        .fairness
        .reports
        .iter()
        .map(|r| (r.attribute.clone(), r.protected_value.clone()))
        .collect();
    assert!(features.contains(&("DeptSizeBin".to_string(), "large".to_string())));
    assert!(features.contains(&("DeptSizeBin".to_string(), "small".to_string())));
    for report in &label.fairness.reports {
        for outcome in report.outcomes() {
            assert!((0.0..=1.0).contains(&outcome.p_value));
        }
        assert!((0.0..=1.0).contains(&report.discounted.rnd));
    }
}

#[test]
fn diversity_proportions_are_consistent() {
    let label = cs_label();
    for report in &label.diversity.reports {
        let top_sum: f64 = report.top_k.proportions().iter().sum();
        let all_sum: f64 = report.overall.proportions().iter().sum();
        assert!((top_sum - 1.0).abs() < 1e-9);
        assert!((all_sum - 1.0).abs() < 1e-9);
        assert_eq!(report.top_k.total, 10);
        assert_eq!(report.overall.total, 97);
        // Categories missing from the top-k must have zero top-k proportion.
        for missing in &report.missing_from_top_k {
            assert_eq!(report.top_k.proportion_of(missing), 0.0);
            assert!(report.overall.proportion_of(missing) > 0.0);
        }
    }
}

#[test]
fn stability_widget_consistent_with_slope_estimator() {
    let label = cs_label();
    assert_eq!(
        label.stability.stable,
        label.stability.slope.verdict() == rf_stability::StabilityVerdict::Stable
    );
    assert!(label.stability.stability_score >= 0.0);
    assert_eq!(label.stability.per_attribute.len(), 3);
}

#[test]
fn ingredients_associations_are_sorted_and_bounded() {
    let label = cs_label();
    for pair in label.ingredients.ingredients.windows(2) {
        assert!(pair[0].rank_association >= pair[1].rank_association);
    }
    for ing in &label.ingredients.all_attributes {
        assert!((0.0..=1.0 + 1e-9).contains(&ing.rank_association));
        assert!(ing.signed_association.abs() <= 1.0 + 1e-9);
    }
}

#[test]
fn changing_weights_changes_the_ranking_but_not_the_schema() {
    let table = CsDepartmentsConfig::default().generate().unwrap();
    let config_a =
        LabelConfig::new(ScoringFunction::from_pairs([("PubCount", 1.0), ("GRE", 0.0)]).unwrap())
            .with_top_k(10);
    let config_b =
        LabelConfig::new(ScoringFunction::from_pairs([("PubCount", 0.0), ("GRE", 1.0)]).unwrap())
            .with_top_k(10);
    let (ctx_a, label_a) = prepared(table.clone(), config_a);
    let (ctx_b, label_b) = prepared(table, config_b);
    assert_ne!(ctx_a.ranking.order(), ctx_b.ranking.order());
    assert_eq!(ctx_a.ranking.len(), ctx_b.ranking.len());
    assert_eq!(label_a.ranked_items, label_b.ranked_items);
}

#[test]
fn label_generation_is_deterministic() {
    let a = cs_label();
    let b = cs_label();
    assert_eq!(a, b);
}

#[test]
fn invalid_configurations_are_rejected() {
    let table = CsDepartmentsConfig::default().generate().unwrap();
    let scoring = ScoringFunction::from_pairs([("PubCount", 1.0)]).unwrap();
    // k larger than the dataset.
    let config = LabelConfig::new(scoring.clone()).with_top_k(500);
    assert!(NutritionalLabel::generate(&table, &config).is_err());
    // Sensitive attribute that is numeric.
    let config = LabelConfig::new(scoring.clone())
        .with_top_k(10)
        .with_sensitive_attribute("PubCount", ["1.0"]);
    assert!(NutritionalLabel::generate(&table, &config).is_err());
    // Sensitive attribute with more than two values (Region).
    let config = LabelConfig::new(scoring)
        .with_top_k(10)
        .with_sensitive_attribute("Region", ["NE"]);
    assert!(NutritionalLabel::generate(&table, &config).is_err());
}

// Label size guard: the label ships what it shows, O(k + widgets), never the
// full O(n) order.  Run on its own with `cargo test --test integration_label
// label_size_guard`.

#[test]
fn label_size_guard_json_does_not_grow_with_the_table() {
    let lengths: Vec<usize> = [1_000, 20_000]
        .into_iter()
        .map(|rows| {
            let (table, config) = rf_bench::synth_scenario(rows);
            let (_, label) = prepared(table, config.with_monte_carlo_trials(0));
            assert_eq!(label.ranked_items, rows);
            label.to_json().unwrap().len()
        })
        .collect();
    let (small, large) = (lengths[0] as f64, lengths[1] as f64);
    assert!(
        (large - small).abs() <= 0.05 * small,
        "a 20k-row label ({large} B) must weigh within 5% of a 1k-row one ({small} B)"
    );
}

#[test]
fn label_size_guard_compas_catalogue_label_is_small() {
    let catalog = rf_server::DatasetCatalog::with_demo_datasets();
    let entry = catalog.get("compas").unwrap();
    let config = entry.config.clone().with_top_k(87);
    let (_, label) = prepared((*entry.table).clone(), config);
    assert_eq!(label.ranked_items, 2_000);
    assert_eq!(label.top_k_rows.len(), 87);
    let pretty = label.to_json().unwrap().len();
    assert!(pretty <= 40_000, "compas label at k = 87 is {pretty} B");
}

/// FNV-1a over the rendered bytes.
fn digest(rendered: &str) -> u64 {
    let mut hasher = Fingerprinter::new();
    hasher.write_bytes(rendered.as_bytes());
    hasher.finish()
}

#[test]
fn label_size_guard_text_and_html_renders_are_unchanged() {
    // Digests of the catalogue's three demo labels, rendered when the label
    // still carried the full ranking: the renderers only ever read its
    // length, so dropping the order must not move a byte.
    let golden = [
        (
            "cs-departments",
            0xba80_c2e5_b7da_f193_u64,
            0xdf72_e637_e774_7de3_u64,
        ),
        ("compas", 0x00b5_2545_0b34_c4df, 0xf7f2_e567_9c9e_d326),
        (
            "german-credit",
            0x672f_dd6f_84be_dd9a,
            0x4206_08dc_1448_fa2c,
        ),
    ];
    let catalog = rf_server::DatasetCatalog::with_demo_datasets();
    for (slug, text_digest, html_digest) in golden {
        let entry = catalog.get(slug).unwrap();
        let (_, label) = prepared((*entry.table).clone(), entry.config.clone());
        assert_eq!(digest(&label.to_text()), text_digest, "{slug} text");
        assert_eq!(digest(&label.to_html()), html_digest, "{slug} html");
    }
}

/// 40 rows ranked by `quality` (row 0 best); `aux` is the row number, but
/// missing on the 10 best rows.
fn aux_missing_at_the_top() -> Table {
    let quality: Vec<f64> = (0..40).map(|i| 100.0 - f64::from(i)).collect();
    let aux: Vec<Option<f64>> = (0..40).map(|i| (i >= 10).then(|| f64::from(i))).collect();
    Table::from_columns(vec![
        ("quality", rf_table::Column::from_f64(quality)),
        ("aux", rf_table::Column::Float(aux)),
    ])
    .unwrap()
}

#[test]
fn ingredient_without_top_k_values_has_no_top_k_summary() {
    // Both numeric columns are listed ingredients; `aux` has values, just
    // none among the top-10, so its top-k detail is absent, not an error.
    let config = LabelConfig::new(ScoringFunction::from_pairs([("quality", 1.0)]).unwrap())
        .with_top_k(10)
        .with_ingredient_count(2);
    let label = NutritionalLabel::generate(&aux_missing_at_the_top(), &config).unwrap();
    let detail = |name: &str| {
        label
            .ingredients
            .details
            .iter()
            .find(|d| d.attribute == name)
            .unwrap()
    };
    assert_eq!(detail("aux").top_k, None);
    assert_eq!(detail("aux").overall.count, 30);
    assert_eq!(detail("quality").top_k.as_ref().unwrap().count, 10);
}

#[test]
fn recipe_attribute_without_top_k_values_renders_n_a() {
    // `aux` is also in the Recipe (mean-imputed for scoring): the renderers
    // print "n/a" for its top-k statistics, and the JSON carries a null that
    // reads back as the same label.
    let scoring = ScoringFunction::from_pairs([("quality", 0.9), ("aux", 0.1)])
        .unwrap()
        .with_missing_policy(rf_ranking::MissingValuePolicy::MeanImpute);
    let config = LabelConfig::new(scoring)
        .with_top_k(10)
        .with_ingredient_count(2);
    let label = NutritionalLabel::generate(&aux_missing_at_the_top(), &config).unwrap();
    assert_eq!(
        label
            .top_k_rows
            .iter()
            .map(|r| r.row_index)
            .collect::<Vec<_>>(),
        (0..10).collect::<Vec<_>>()
    );
    let aux = &label.recipe.details[1];
    assert_eq!(aux.attribute, "aux");
    assert_eq!(aux.top_k, None);
    assert!(label.recipe.details[0].top_k.is_some());
    let text = label.to_text();
    assert!(
        text.lines()
            .any(|l| l.starts_with("aux ") && l.contains("top-k: n/a | all: min 10.00")),
        "{text}"
    );
    assert!(label.to_html().contains("<tr><td>aux</td><td>n/a</td>"));
    let json = label.to_json().unwrap();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(value["recipe"]["details"][1]["top_k"].is_null());
    let parsed: NutritionalLabel = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed, label);
}

#[test]
fn imputing_recipes_label_with_default_trials_on_both_schedules() {
    // The Monte-Carlo weight jitter keeps the recipe's missing-value policy,
    // so a recipe that imputes over a column with missing cells gets a label
    // with the default trials, byte-identical on both schedules.
    let table = Arc::new(aux_missing_at_the_top());
    let pooled = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(2)));
    for policy in [
        rf_ranking::MissingValuePolicy::MeanImpute,
        rf_ranking::MissingValuePolicy::Zero,
    ] {
        let scoring = ScoringFunction::from_pairs([("quality", 0.9), ("aux", 0.1)])
            .unwrap()
            .with_missing_policy(policy);
        let config = Arc::new(LabelConfig::new(scoring).with_top_k(10));
        assert!(config.monte_carlo.trials > 0 && config.monte_carlo.weight_noise > 0.0);
        let sequential = AnalysisPipeline::sequential()
            .generate(Arc::clone(&table), Arc::clone(&config))
            .unwrap();
        let parallel = pooled.generate(Arc::clone(&table), config).unwrap();
        let mc = sequential
            .stability
            .monte_carlo
            .as_ref()
            .expect("trials on");
        assert_eq!(mc.trials, mc.trials_requested, "{policy:?}");
        assert_eq!(
            sequential.to_json().unwrap(),
            parallel.to_json().unwrap(),
            "{policy:?}"
        );
    }
}
