//! Cache parity: a warm `LabelCache` hit must be byte-identical to cold
//! generation, and must perform **zero** analysis work — no context
//! preparation at all.  Likewise, `generate_sweep` must prepare exactly once
//! for any number of `k` values while remaining byte-identical to independent
//! `generate` calls.
//!
//! Cold labels reuse what the table and recipe alone determine: a service
//! relabelling a table at a new `k`, `alpha` or Monte-Carlo seed prepares
//! nothing and serves the sequential reference's bytes, while a new recipe
//! (a changed weight, `-0.0` for `0.0`, a changed sensitive attribute)
//! prepares anew.
//!
//! The preparation counts are read from the service and the pipeline that
//! did the work, so concurrently running tests cannot move them.
//!
//! A model-based proptest checks the cache's two bounds: after every insert,
//! re-insert, lookup and clear, the `LabelCache` holds at most `capacity`
//! entries and `max_bytes` bytes, and agrees with a plain LRU model.

use proptest::prelude::*;
use rf_core::{AnalysisPipeline, CacheKey, CachedLabel, LabelCache, LabelConfig, LabelService};
use rf_datasets::{CompasConfig, CsDepartmentsConfig, GermanCreditConfig};
use rf_ranking::ScoringFunction;
use rf_table::{Column, Table};
use std::sync::{Arc, OnceLock};

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
    }
}

/// The memo contract: one `LabelService` relabels every catalogue table
/// (the three demo tables and a 2k synth scenario) at four `k`, two
/// Monte-Carlo seeds and one `alpha` change.  Every body equals the
/// sequential reference byte for byte, and `preparations` grows by one per
/// distinct `(table, recipe)`: a new recipe prepares, a new `k`, seed or
/// `alpha` does not.
#[test]
fn cold_labels_prepare_once_per_table_and_recipe() {
    let catalog = rf_server::DatasetCatalog::with_demo_datasets();
    let synth = catalog.register_synth_scenario(2_000);
    let service = LabelService::with_pipeline(
        AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(2))),
        rf_core::service::DEFAULT_CACHE_CAPACITY,
        rf_core::service::DEFAULT_CACHE_BYTES,
    );
    let mut preparations = 0;
    // Labels `config` through the service (always a cold miss here) and
    // checks the body against a fresh sequential generation; returns how
    // many preparations it cost.
    let mut label = |slug: &str, table: &Arc<Table>, config: LabelConfig| {
        let config = Arc::new(config);
        let served = service.label(table, &config).unwrap();
        let expected = AnalysisPipeline::sequential()
            .generate(Arc::clone(table), Arc::clone(&config))
            .unwrap();
        assert_eq!(
            *served.json,
            expected.to_json().unwrap(),
            "{slug}: k={} seed={} alpha={}",
            config.top_k,
            config.monte_carlo.seed,
            config.alpha
        );
        let now = service.stats().preparations;
        let cost = now - preparations;
        preparations = now;
        cost
    };

    for slug in ["cs-departments", "compas", "german-credit", synth.as_str()] {
        let entry = catalog.get(slug).unwrap();
        let (table, base) = (entry.table, entry.config);
        let mut cost = 0;
        for k in [10, 37, 55, 97] {
            let k = k.min(table.num_rows());
            for seed in [11, 12] {
                let config = base.clone().with_top_k(k).with_monte_carlo_seed(seed);
                cost += label(slug, &table, config);
            }
        }
        cost += label(slug, &table, base.clone().with_alpha(0.05));
        assert_eq!(cost, 1, "{slug}: one preparation for 9 cold labels");
    }

    // New recipes on one table: each prepares once, then is reused.
    let cs = catalog.get("cs-departments").unwrap();
    let recipe = |gre: f64| {
        let scoring =
            ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", gre)])
                .unwrap();
        LabelConfig {
            scoring,
            ..cs.config.clone()
        }
    };
    let mut audited_small = cs.config.clone();
    audited_small.sensitive_attributes[0].protected_values = vec!["small".to_string()];
    let variants = [
        ("a changed weight", recipe(0.3)),
        ("a zero weight", recipe(0.0)),
        ("-0.0 in place of the 0.0 weight", recipe(-0.0)),
        ("a changed sensitive attribute", audited_small),
    ];
    for (what, config) in variants {
        let first = label(what, &cs.table, config.clone().with_monte_carlo_seed(21));
        let again = label(what, &cs.table, config.with_monte_carlo_seed(22));
        assert_eq!((first, again), (1, 0), "{what}: prepares anew, once");
    }
}

/// One cacheable label: its key and inputs, a clone-equal copy of its table
/// in a separate allocation, and the entry's accounted cost.
struct Entry {
    key: CacheKey,
    table: Arc<Table>,
    rebuilt: Table,
    config: LabelConfig,
    value: CachedLabel,
    cost: usize,
}

fn small_table(rows: usize) -> Table {
    Table::from_columns(vec![
        (
            "name",
            Column::from_strings((0..rows).map(|i| format!("r{i}")).collect::<Vec<_>>()),
        ),
        (
            "score",
            Column::from_f64((0..rows).map(|i| 100.0 - i as f64).collect()),
        ),
    ])
    .unwrap()
}

/// Six labels: four configurations over one shared table, and two tables of
/// their own.  Their costs all differ, so equal byte totals mean equal
/// resident sets.
fn entries() -> &'static [Entry] {
    static ENTRIES: OnceLock<Vec<Entry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let shared = Arc::new(small_table(24));
        let inputs = [
            (Arc::clone(&shared), 3),
            (Arc::clone(&shared), 5),
            (Arc::clone(&shared), 8),
            (Arc::clone(&shared), 12),
            (Arc::new(small_table(40)), 6),
            (Arc::new(small_table(60)), 6),
        ];
        let scoring = ScoringFunction::from_pairs([("score", 1.0)]).unwrap();
        let entries: Vec<Entry> = inputs
            .into_iter()
            .map(|(table, k)| {
                let config = LabelConfig::new(scoring.clone()).with_top_k(k);
                let label = AnalysisPipeline::sequential()
                    .generate(Arc::clone(&table), Arc::new(config.clone()))
                    .unwrap();
                let json = label.to_json().unwrap();
                Entry {
                    key: CacheKey::new(&table, &config),
                    rebuilt: Table::clone(&table),
                    cost: json.len() + table.approx_heap_bytes(),
                    table,
                    config,
                    value: CachedLabel {
                        label: Arc::new(label),
                        json: Arc::new(json),
                    },
                }
            })
            .collect();
        let mut costs: Vec<usize> = entries.iter().map(|entry| entry.cost).collect();
        costs.sort_unstable();
        costs.dedup();
        assert_eq!(costs.len(), entries.len(), "entry costs must differ");
        entries
    })
}

/// The reference: resident entries in recency order, least recent first.
#[derive(Default)]
struct LruModel {
    order: Vec<usize>,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl LruModel {
    fn bytes(&self) -> usize {
        self.order.iter().map(|&i| entries()[i].cost).sum()
    }

    fn insert(&mut self, i: usize, capacity: usize, max_bytes: usize) {
        if entries()[i].cost > max_bytes {
            return;
        }
        self.order.retain(|&resident| resident != i);
        self.order.push(i);
        while self.order.len() > capacity || self.bytes() > max_bytes {
            self.order.remove(0);
            self.evictions += 1;
        }
    }

    fn get(&mut self, i: usize) -> bool {
        let Some(position) = self.order.iter().position(|&resident| resident == i) else {
            self.misses += 1;
            return false;
        };
        self.order.remove(position);
        self.order.push(i);
        self.hits += 1;
        true
    }
}

proptest! {
    /// Random inserts (a key already resident is a re-insert), lookups and
    /// clears, with tables passed shared (`Arc` clone) or fresh (a new
    /// allocation of equal content), under bounds that some entries exceed
    /// on their own.
    #[test]
    fn label_cache_bounds_hold_and_match_an_lru_model(
        capacity in 1usize..=5,
        byte_share in 0usize..=100,
        ops in prop::collection::vec((0u8..10, 0usize..6, any::<bool>()), 1..48),
    ) {
        let entries = entries();
        let smallest = entries.iter().map(|entry| entry.cost).min().unwrap();
        let largest = entries.iter().map(|entry| entry.cost).max().unwrap();
        // From half the smallest entry (nothing fits) to three of the largest.
        let max_bytes = smallest / 2 + byte_share * (3 * largest - smallest / 2) / 100;
        let mut cache = LabelCache::new(capacity, max_bytes);
        let mut model = LruModel::default();
        let mut gets = 0u64;
        for (step, &(op, i, fresh)) in ops.iter().enumerate() {
            let entry = &entries[i];
            match op {
                0..=4 => {
                    let table = if fresh {
                        Arc::new(Table::clone(&entry.table))
                    } else {
                        Arc::clone(&entry.table)
                    };
                    cache.insert(entry.key, table, entry.value.clone());
                    model.insert(i, capacity, max_bytes);
                }
                5..=8 => {
                    gets += 1;
                    let probe = if fresh { &entry.rebuilt } else { &*entry.table };
                    let hit = cache.get(&entry.key, probe, &entry.config);
                    prop_assert_eq!(hit.is_some(), model.get(i), "step {}: get {}", step, i);
                    if let Some(hit) = hit {
                        prop_assert_eq!(&hit.json, &entry.value.json);
                    }
                }
                _ => {
                    cache.clear();
                    model.order.clear();
                }
            }
            let stats = cache.stats();
            prop_assert!(stats.entries <= capacity, "step {}: {:?}", step, stats);
            prop_assert!(stats.bytes <= max_bytes, "step {}: {:?}", step, stats);
            prop_assert_eq!(stats.entries, model.order.len(), "step {}", step);
            prop_assert_eq!(stats.bytes, model.bytes(), "step {}", step);
            prop_assert_eq!(stats.evictions, model.evictions, "step {}", step);
            prop_assert_eq!(stats.hits, model.hits, "step {}", step);
            prop_assert_eq!(stats.misses, model.misses, "step {}", step);
            prop_assert_eq!(stats.hits + stats.misses, gets, "step {}", step);
        }
    }
}
