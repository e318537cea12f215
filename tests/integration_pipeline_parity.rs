//! Pipeline parity: the parallel `AnalysisPipeline` must produce output
//! byte-identical (after JSON rendering) to the single-threaded reference
//! path, on all three demonstration scenarios of the paper (§3).
//!
//! This is the contract that makes the concurrent schedule safe to ship: the
//! fan-out may only change *when* widgets are computed, never *what* they
//! contain.

use rf_core::{AnalysisPipeline, LabelConfig, NutritionalLabel};
use rf_datasets::{CompasConfig, CsDepartmentsConfig, GermanCreditConfig};
use rf_ranking::ScoringFunction;
use rf_table::Table;
use std::sync::Arc;

fn cs_scenario() -> (Table, LabelConfig) {
    let table = CsDepartmentsConfig::default().generate().unwrap();
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(10)
        .with_dataset_name("CS departments")
        .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
        .with_diversity_attribute("DeptSizeBin")
        .with_diversity_attribute("Region");
    (table, config)
}

fn compas_scenario() -> (Table, LabelConfig) {
    let table = CompasConfig::with_rows(1_500).generate().unwrap();
    let scoring =
        ScoringFunction::from_pairs([("decile_score", 0.7), ("priors_count", 0.3)]).unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(100)
        .with_dataset_name("COMPAS recidivism (synthetic)")
        .with_sensitive_attribute("race", ["African-American"])
        .with_sensitive_attribute("sex", ["Female"])
        .with_diversity_attribute("race")
        .with_diversity_attribute("age_cat");
    (table, config)
}

fn german_credit_scenario() -> (Table, LabelConfig) {
    let table = GermanCreditConfig::default().generate().unwrap();
    let scoring = ScoringFunction::from_pairs([
        ("credit_score", 0.7),
        ("employment_years", 0.2),
        ("credit_amount", -0.1),
    ])
    .unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(100)
        .with_dataset_name("German credit (synthetic)")
        .with_sensitive_attribute("sex", ["female"])
        .with_sensitive_attribute("age_group", ["young"])
        .with_diversity_attribute("housing")
        .with_diversity_attribute("checking_status");
    (table, config)
}

/// Renders both schedules and asserts byte identity of the JSON documents
/// (and structural equality of the labels themselves).
fn assert_parity(scenario_name: &str, table: Table, config: LabelConfig) {
    let table = Arc::new(table);
    let config = Arc::new(config);

    let parallel = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(4)))
        .generate(Arc::clone(&table), Arc::clone(&config))
        .unwrap_or_else(|err| panic!("{scenario_name}: parallel pipeline failed: {err}"));
    let sequential = AnalysisPipeline::sequential()
        .generate(Arc::clone(&table), Arc::clone(&config))
        .unwrap_or_else(|err| panic!("{scenario_name}: sequential pipeline failed: {err}"));

    assert_eq!(
        parallel, sequential,
        "{scenario_name}: labels differ between schedules"
    );

    let parallel_json = parallel.to_json().unwrap();
    let sequential_json = sequential.to_json().unwrap();
    assert_eq!(
        parallel_json, sequential_json,
        "{scenario_name}: JSON renders differ between schedules"
    );

    // The ref-based convenience entry point routes through the same pipeline.
    let via_generate = NutritionalLabel::generate(&table, &config).unwrap();
    assert_eq!(
        via_generate.to_json().unwrap(),
        parallel_json,
        "{scenario_name}: NutritionalLabel::generate diverges from the pipeline"
    );
}

#[test]
fn cs_departments_parallel_matches_sequential() {
    let (table, config) = cs_scenario();
    assert_parity("cs-departments", table, config);
}

#[test]
fn compas_parallel_matches_sequential() {
    let (table, config) = compas_scenario();
    assert_parity("compas", table, config);
}

#[test]
fn german_credit_parallel_matches_sequential() {
    let (table, config) = german_credit_scenario();
    assert_parity("german-credit", table, config);
}

#[test]
fn parity_holds_across_repeated_parallel_runs() {
    // Concurrency must not introduce run-to-run nondeterminism either.
    let (table, config) = cs_scenario();
    let table = Arc::new(table);
    let config = Arc::new(config);
    let pipeline = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(4)));
    let first = pipeline
        .generate(Arc::clone(&table), Arc::clone(&config))
        .unwrap()
        .to_json()
        .unwrap();
    for _ in 0..5 {
        let again = pipeline
            .generate(Arc::clone(&table), Arc::clone(&config))
            .unwrap()
            .to_json()
            .unwrap();
        assert_eq!(first, again);
    }
}
