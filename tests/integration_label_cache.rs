//! Cache parity: a warm `LabelCache` hit must be byte-identical to cold
//! generation, and must perform **zero** analysis work — no context
//! preparation at all.  Likewise, `generate_sweep` must prepare exactly once
//! for any number of `k` values while remaining byte-identical to independent
//! `generate` calls.
//!
//! The preparation counts are read from the service and the pipeline that
//! did the work, so concurrently running tests cannot move them.

use rf_core::{AnalysisPipeline, LabelConfig, LabelService};
use rf_datasets::{CompasConfig, CsDepartmentsConfig, GermanCreditConfig};
use rf_ranking::ScoringFunction;
use rf_table::Table;
use std::sync::Arc;

fn cs_scenario() -> (Arc<Table>, Arc<LabelConfig>) {
    let table = CsDepartmentsConfig::default().generate().unwrap();
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(10)
        .with_dataset_name("CS departments")
        .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
        .with_diversity_attribute("DeptSizeBin")
        .with_diversity_attribute("Region");
    (Arc::new(table), Arc::new(config))
}

fn compas_scenario() -> (Arc<Table>, Arc<LabelConfig>) {
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
    (Arc::new(table), Arc::new(config))
}

fn german_credit_scenario() -> (Arc<Table>, Arc<LabelConfig>) {
    let table = GermanCreditConfig::default().generate().unwrap();
    let scoring = ScoringFunction::from_pairs([
        ("credit_score", 0.7),
        ("employment_years", 0.2),
        ("credit_amount", -0.1),
    ])
    .unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(100)
        .with_sensitive_attribute("sex", ["female"])
        .with_sensitive_attribute("age_group", ["young"])
        .with_diversity_attribute("housing")
        .with_diversity_attribute("checking_status");
    (Arc::new(table), Arc::new(config))
}

fn scenarios() -> Vec<(&'static str, Arc<Table>, Arc<LabelConfig>)> {
    let (cs_table, cs_config) = cs_scenario();
    let (compas_table, compas_config) = compas_scenario();
    let (credit_table, credit_config) = german_credit_scenario();
    vec![
        ("cs-departments", cs_table, cs_config),
        ("compas", compas_table, compas_config),
        ("german-credit", credit_table, credit_config),
    ]
}

/// The tentpole contract, end to end, on all three paper scenarios:
///
/// 1. a warm cache hit is byte-identical to cold generation and performs no
///    `AnalysisContext` preparation (counter-verified);
/// 2. `generate_sweep` over three `k` values prepares (and therefore ranks)
///    exactly once, byte-identical to three independent `generate` calls.
#[test]
fn warm_hits_and_sweeps_reuse_one_preparation_on_all_scenarios() {
    for (name, table, config) in scenarios() {
        // --- Cache parity -------------------------------------------------
        let service = LabelService::with_pipeline(
            AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(4))),
            rf_core::service::DEFAULT_CACHE_CAPACITY,
            rf_core::service::DEFAULT_CACHE_BYTES,
        );
        let cold = service.label(&table, &config).unwrap();
        assert!(
            cold.json.contains("\"monte_carlo\""),
            "{name}: the Monte-Carlo stability detail is part of the served label"
        );
        assert!(
            cold.label.stability.monte_carlo.is_some(),
            "{name}: the detail view is populated on the hot path"
        );

        let before = service.stats().preparations;
        let warm = service.label(&table, &config).unwrap();
        assert_eq!(
            service.stats().preparations,
            before,
            "{name}: a warm hit must perform no context preparation"
        );
        assert_eq!(
            cold.json, warm.json,
            "{name}: warm hit must be byte-identical to cold generation"
        );
        assert_eq!(cold.label, warm.label, "{name}: labels must match too");

        // Content addressing: a rebuilt (clone-equal) table and config still
        // hit, with zero preparations.
        let rebuilt_table = Arc::new(Table::clone(&table));
        let rebuilt_config = Arc::new(LabelConfig::clone(&config));
        let before = service.stats().preparations;
        let rehit = service.label(&rebuilt_table, &rebuilt_config).unwrap();
        assert_eq!(
            service.stats().preparations,
            before,
            "{name}: a content-identical request must not prepare"
        );
        assert_eq!(cold.json, rehit.json);

        let stats = service.stats();
        assert_eq!(stats.cache.hits, 2, "{name}");
        assert_eq!(stats.cache.misses, 1, "{name}");

        // --- Sweep parity -------------------------------------------------
        let ks = [5usize, 10, 20];
        let pipeline = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(4)));
        let independent: Vec<String> = ks
            .iter()
            .map(|&k| {
                pipeline
                    .generate(
                        Arc::clone(&table),
                        Arc::new(LabelConfig::clone(&config).with_top_k(k)),
                    )
                    .unwrap()
                    .to_json()
                    .unwrap()
            })
            .collect();

        let before = pipeline.preparations();
        let sweep = pipeline
            .generate_sweep(Arc::clone(&table), Arc::clone(&config), &ks)
            .unwrap();
        assert_eq!(
            pipeline.preparations(),
            before + 1,
            "{name}: a sweep must compute the ranking exactly once"
        );
        assert_eq!(sweep.len(), ks.len(), "{name}");
        for ((label, expected), &k) in sweep.iter().zip(&independent).zip(&ks) {
            assert_eq!(label.config.top_k, k, "{name}");
            assert_eq!(
                &label.to_json().unwrap(),
                expected,
                "{name}: sweep label for k={k} diverges from an independent generate"
            );
        }

        // A cached sweep performs no preparation either.
        let before = service.stats().preparations;
        let cached_sweep = service.label_sweep(&table, &config, &ks).unwrap();
        assert_eq!(
            service.stats().preparations,
            before + 1,
            "{name}: the service sweep prepares once for its cold sizes"
        );
        let before = service.stats().preparations;
        let warm_sweep = service.label_sweep(&table, &config, &ks).unwrap();
        assert_eq!(
            service.stats().preparations,
            before,
            "{name}: a fully warm sweep must not prepare"
        );
        for ((a, b), expected) in cached_sweep.iter().zip(&warm_sweep).zip(&independent) {
            assert_eq!(a.json, b.json, "{name}");
            assert_eq!(a.json.as_ref(), expected, "{name}");
        }
    }
}
