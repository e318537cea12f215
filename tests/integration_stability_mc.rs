//! Per-trial Monte-Carlo stability on the label hot path.
//!
//! The contract of the work-stealing refactor: decomposing the §2.2
//! uncertainty estimator into one scheduler task per trial may change *when*
//! trials run, never *what* they compute.  Each trial draws from its own
//! derived ChaCha stream (`seed ⊕ trial`), so:
//!
//! 1. the parallel schedule is **byte-identical** to the sequential reference
//!    on all three demo scenarios, at any worker count (counter-verified to
//!    run exactly `trials` tasks on the scheduler);
//! 2. the same holds for random seeds, trial counts, noise levels, and
//!    worker counts (proptest);
//! 3. a full label — widget fan-out with the per-trial fan-out nested inside
//!    it — completes on a **one-worker** scheduler (the nested-scope
//!    deadlock regression, end to end) and still matches the sequential
//!    pipeline byte for byte.

use proptest::prelude::*;
use rf_core::{AnalysisPipeline, LabelConfig};
use rf_datasets::{CompasConfig, CsDepartmentsConfig, GermanCreditConfig};
use rf_ranking::{Ranking, ScoringFunction};
use rf_runtime::{Scheduler, ThreadPool};
use rf_stability::MonteCarloStability;
use rf_table::{Column, Table};
use std::sync::Arc;

fn demo_scenarios() -> Vec<(&'static str, Arc<Table>, ScoringFunction)> {
    vec![
        (
            "cs-departments",
            Arc::new(CsDepartmentsConfig::default().generate().unwrap()),
            ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)])
                .unwrap(),
        ),
        (
            "compas",
            Arc::new(CompasConfig::with_rows(600).generate().unwrap()),
            ScoringFunction::from_pairs([("decile_score", 0.7), ("priors_count", 0.3)]).unwrap(),
        ),
        (
            "german-credit",
            Arc::new(GermanCreditConfig::default().generate().unwrap()),
            ScoringFunction::from_pairs([
                ("credit_score", 0.7),
                ("employment_years", 0.2),
                ("credit_amount", -0.1),
            ])
            .unwrap(),
        ),
    ]
}

#[test]
fn per_trial_parallel_is_byte_identical_on_all_demo_scenarios() {
    for (name, table, scoring) in demo_scenarios() {
        let ranking: Ranking = scoring.rank_table(&table).unwrap();
        let estimator = MonteCarloStability::new()
            .with_trials(24)
            .unwrap()
            .with_noise(0.05, 0.05)
            .unwrap()
            .with_k(10)
            .with_seed(42);
        let sequential = estimator.evaluate(&table, &scoring, &ranking).unwrap();
        let sequential_json = serde_json::to_string(&sequential).unwrap();

        for workers in [1usize, 2, 4] {
            // A dedicated scheduler so the task counter is exact: with
            // factor = trials the estimator must schedule one task per
            // trial, no more, no less.
            let scheduler = Scheduler::new(workers);
            let before = scheduler.executed_jobs();
            let parallel = estimator
                .evaluate_batched_with(&scheduler, &table, &scoring, &ranking, None, 24)
                .unwrap();
            assert_eq!(
                scheduler.executed_jobs() - before,
                24,
                "{name}: exactly one scheduler task per trial ({workers} workers)"
            );
            assert_eq!(
                sequential, parallel,
                "{name}: per-trial parallel summary diverges ({workers} workers)"
            );
            assert_eq!(
                sequential_json,
                serde_json::to_string(&parallel).unwrap(),
                "{name}: serialized summaries diverge ({workers} workers)"
            );
        }
    }
}

#[test]
fn full_label_with_nested_trials_completes_on_a_one_worker_pool() {
    // The end-to-end nested-scope regression: the widget fan-out runs on the
    // pool, and inside it the Stability builder fans out one task per trial
    // on the *same* pool.  With a single worker this deadlocked the old flat
    // queue design; scopes whose waiters help must complete — and match the
    // sequential reference byte for byte.
    let table = Arc::new(CsDepartmentsConfig::default().generate().unwrap());
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    let config = Arc::new(
        LabelConfig::new(scoring)
            .with_top_k(10)
            .with_dataset_name("CS departments")
            .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
            .with_diversity_attribute("DeptSizeBin")
            .with_monte_carlo_trials(16),
    );

    let sequential = AnalysisPipeline::sequential()
        .generate(Arc::clone(&table), Arc::clone(&config))
        .unwrap();
    for workers in [1usize, 2] {
        let pool = Arc::new(ThreadPool::new(workers));
        let parallel = AnalysisPipeline::with_pool(pool)
            .generate(Arc::clone(&table), Arc::clone(&config))
            .unwrap();
        assert_eq!(
            parallel.to_json().unwrap(),
            sequential.to_json().unwrap(),
            "label diverges on a {workers}-worker pool"
        );
        assert!(parallel.stability.monte_carlo.is_some());
    }
}

/// A deterministic numeric table for the property tests.
fn random_table(rows: usize, spread: f64) -> Table {
    let a: Vec<f64> = (0..rows)
        .map(|i| (i as f64 * 7.3).sin() * spread + i as f64)
        .collect();
    let b: Vec<f64> = (0..rows)
        .map(|i| (i as f64 * 3.1).cos() * spread * 0.5 + (rows - i) as f64)
        .collect();
    Table::from_columns(vec![
        ("attr_a", Column::from_f64(a)),
        ("attr_b", Column::from_f64(b)),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_trials_match_sequential_for_random_inputs(
        seed in 0u64..=u64::MAX,
        trials in 1usize..24,
        workers in 1usize..5,
        data_noise in 0.0..0.4f64,
        weight_noise in 0.0..0.4f64,
        rows in 8usize..48,
        spread in 0.5..50.0f64,
    ) {
        let table = Arc::new(random_table(rows, spread));
        let scoring = ScoringFunction::from_pairs([("attr_a", 0.6), ("attr_b", 0.4)]).unwrap();
        let ranking = scoring.rank_table(&table).unwrap();
        let estimator = MonteCarloStability::new()
            .with_trials(trials)
            .unwrap()
            .with_noise(data_noise, weight_noise)
            .unwrap()
            .with_k(5)
            .with_seed(seed);
        let sequential = estimator.evaluate(&table, &scoring, &ranking).unwrap();
        let scheduler = Scheduler::new(workers);
        let parallel = estimator
            .evaluate_batched_with(&scheduler, &table, &scoring, &ranking, None, trials)
            .unwrap();
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(
            serde_json::to_string(&sequential).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }
}
