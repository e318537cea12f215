//! The three demonstration scenarios of the paper's §3, end to end.
//!
//! These tests assert the *qualitative findings* the paper's walk-through
//! relies on (who is flagged unfair, which attribute is immaterial, which
//! categories vanish from the top-k) rather than absolute numbers —
//! the substitution DESIGN.md documents.

use rf_core::{LabelConfig, NutritionalLabel};
use rf_datasets::{CompasConfig, CsDepartmentsConfig, GermanCreditConfig};
use rf_ranking::ScoringFunction;

/// Scenario 1 — CS departments (Figure 1).
#[test]
fn cs_departments_scenario_reproduces_figure1_findings() {
    let table = CsDepartmentsConfig::default().generate().unwrap();
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(10)
        // List the two most material attributes, as the compact widget does.
        .with_ingredient_count(2)
        .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
        .with_diversity_attribute("DeptSizeBin")
        .with_diversity_attribute("Region");
    let label = NutritionalLabel::generate(&table, &config).unwrap();

    // Finding 1: GRE is in the Recipe but not among the Ingredients.
    assert!(
        label
            .ingredients
            .recipe_attributes_not_material
            .contains(&"GRE".to_string()),
        "GRE should not be material to the ranked outcome"
    );
    let gre = label
        .ingredients
        .all_attributes
        .iter()
        .find(|i| i.attribute == "GRE")
        .unwrap();
    assert!(gre.rank_association < 0.5);

    // Finding 2: the detailed Recipe shows GRE's range/median are similar in
    // the top-10 and over-all.
    let gre_detail = label
        .recipe
        .details
        .iter()
        .find(|d| d.attribute == "GRE")
        .unwrap();
    let median_gap = (gre_detail.top_k.as_ref().unwrap().median - gre_detail.overall.median).abs();
    assert!(
        median_gap < 0.25 * gre_detail.overall.range(),
        "GRE median should be similar in the top-10 and over-all (gap {median_gap})"
    );

    // Finding 3: only large departments are present in the top-10.
    let size_report = label
        .diversity
        .reports
        .iter()
        .find(|r| r.attribute == "DeptSizeBin")
        .unwrap();
    assert!(size_report.top_k.proportion_of("large") >= 0.8);
    // ... and consequently the ranking is unfair towards small departments by
    // at least one of the three measures.
    let small_report = label
        .fairness
        .reports
        .iter()
        .find(|r| r.protected_value == "small")
        .unwrap();
    assert!(
        small_report.any_unfair(),
        "the small-department group should be flagged by at least one measure"
    );

    // Finding 4: PubCount and Faculty are the material ingredients.
    let names = label.ingredients.ingredient_names();
    assert!(names.contains(&"PubCount"));
    assert!(names.contains(&"Faculty"));
}

/// Scenario 2 — COMPAS criminal risk assessment.
#[test]
fn compas_scenario_flags_the_protected_racial_group() {
    let table = CompasConfig::with_rows(3_000).generate().unwrap();
    let scoring =
        ScoringFunction::from_pairs([("decile_score", 0.7), ("priors_count", 0.3)]).unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(100)
        .with_sensitive_attribute("race", ["African-American"])
        .with_diversity_attribute("race")
        .with_diversity_attribute("age_cat");
    let label = NutritionalLabel::generate(&table, &config).unwrap();

    let race_report = label
        .fairness
        .reports
        .iter()
        .find(|r| r.attribute == "race")
        .unwrap();
    // The biased score shifts the protected group towards the top of the
    // "high risk" ranking: over-representation must be detectable.
    assert!(
        race_report.proportion.top_k_proportion > race_report.proportion.overall_proportion,
        "protected group should be over-represented among the highest risk scores"
    );
    assert!(
        race_report.any_unfair(),
        "the disparity should be flagged by at least one measure"
    );
    // The pairwise measure should show protected items preferred (ranked
    // higher-risk) more often than parity.
    assert!(race_report.pairwise.preference_probability > 0.5);
}

/// Scenario 2b — counterfactual: an unbiased COMPAS-like dataset passes.
#[test]
fn unbiased_compas_counterfactual_is_not_flagged() {
    let table = CompasConfig::with_rows(3_000)
        .unbiased()
        .generate()
        .unwrap();
    let scoring =
        ScoringFunction::from_pairs([("decile_score", 0.7), ("priors_count", 0.3)]).unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(100)
        .with_sensitive_attribute("race", ["African-American"]);
    let label = NutritionalLabel::generate(&table, &config).unwrap();
    let race_report = &label.fairness.reports[0];
    // Without the score shift the pairwise preference sits near parity.
    assert!((race_report.pairwise.preference_probability - 0.5).abs() < 0.08);
}

/// Scenario 3 — German credit.
#[test]
fn german_credit_scenario_flags_young_applicants() {
    let table = GermanCreditConfig::default().generate().unwrap();
    let scoring = ScoringFunction::from_pairs([
        ("credit_score", 0.7),
        ("employment_years", 0.2),
        ("credit_amount", -0.1),
    ])
    .unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(100)
        .with_sensitive_attribute("age_group", ["young"])
        .with_sensitive_attribute("sex", ["female"])
        .with_diversity_attribute("housing");
    let label = NutritionalLabel::generate(&table, &config).unwrap();

    let age_report = label
        .fairness
        .reports
        .iter()
        .find(|r| r.attribute == "age_group")
        .unwrap();
    // Young applicants are penalized in the synthetic score, so they are
    // under-represented among the top creditworthy applicants.
    assert!(
        age_report.proportion.top_k_proportion < age_report.proportion.overall_proportion,
        "young applicants should be under-represented at the top"
    );
    assert!(age_report.pairwise.preference_probability < 0.5);

    // Sex is not used by the synthetic score, so it should generally pass the
    // pairwise parity check (the most sensitive of the three measures here).
    let sex_report = label
        .fairness
        .reports
        .iter()
        .find(|r| r.attribute == "sex")
        .unwrap();
    assert!((sex_report.pairwise.preference_probability - 0.5).abs() < 0.1);
}

/// All three scenarios generate complete, renderable labels.
#[test]
fn all_scenarios_render_in_all_formats() {
    let scenarios: Vec<(rf_table::Table, LabelConfig)> = vec![
        (
            CsDepartmentsConfig::default().generate().unwrap(),
            LabelConfig::new(
                ScoringFunction::from_pairs([("PubCount", 0.5), ("Faculty", 0.5)]).unwrap(),
            )
            .with_top_k(10)
            .with_sensitive_attribute("DeptSizeBin", ["small"])
            .with_diversity_attribute("Region"),
        ),
        (
            CompasConfig::with_rows(800).generate().unwrap(),
            LabelConfig::new(ScoringFunction::from_pairs([("decile_score", 1.0)]).unwrap())
                .with_top_k(50)
                .with_sensitive_attribute("race", ["African-American"])
                .with_diversity_attribute("age_cat"),
        ),
        (
            GermanCreditConfig::with_rows(500).generate().unwrap(),
            LabelConfig::new(ScoringFunction::from_pairs([("credit_score", 1.0)]).unwrap())
                .with_top_k(50)
                .with_sensitive_attribute("age_group", ["young"])
                .with_diversity_attribute("housing"),
        ),
    ];
    for (table, config) in scenarios {
        let label = NutritionalLabel::generate(&table, &config).unwrap();
        let text = label.to_text();
        let html = label.to_html();
        let json = label.to_json().unwrap();
        assert!(text.contains("Ranking Facts"));
        assert!(html.contains("<html>") || html.contains("<html"));
        assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
    }
}
