//! Batched columnar Monte-Carlo stability: parity and deadline budget.
//!
//! PR 5 rebuilt the §2.2 estimator's hot path twice over:
//!
//! 1. **Columnar kernel** — trials run on `rf_ranking::TrialKernel` (flat
//!    `f64` buffers, reusable scratch, zero per-trial tables) instead of
//!    materializing a perturbed `Table` per draw.  The historical path
//!    survives as [`MonteCarloStability::evaluate_materialized`], and this
//!    suite proves the kernel **byte-identical** to it.
//! 2. **Adaptive batching** — the label hot path schedules
//!    `ceil(trials / (workers × f))` trials per scheduler task
//!    ([`MonteCarloStability::evaluate_batched`]) instead of one task per
//!    trial.  Because trial `i` always draws from its own `seed ⊕ i` stream,
//!    the batched summary is byte-identical to the sequential reference at
//!    **every** batch size and worker count — the property the proptest
//!    below hammers on.
//!
//! On top of the batches sits the wall-clock **deadline budget**: batches
//! launch in waves, a passed deadline stops further waves, and the summary
//! reports the deterministic prefix of trials that completed with
//! `truncated` set.  A zero budget must still produce a valid label — never
//! a hang, never a panic.

use proptest::prelude::*;
use rf_core::{AnalysisPipeline, LabelConfig};
use rf_datasets::{CompasConfig, CsDepartmentsConfig, GermanCreditConfig};
use rf_ranking::ScoringFunction;
use rf_runtime::Scheduler;
use rf_stability::MonteCarloStability;
use rf_table::{Column, Table};
use std::sync::Arc;
use std::time::Duration;

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
fn columnar_and_batched_match_the_materialized_reference_on_all_scenarios() {
    for (name, table, scoring) in demo_scenarios() {
        let ranking = scoring.rank_table(&table).unwrap();
        let estimator = MonteCarloStability::new()
            .with_trials(24)
            .unwrap()
            .with_noise(0.05, 0.05)
            .unwrap()
            .with_k(10)
            .with_seed(42);
        let materialized = estimator
            .evaluate_materialized(&table, &scoring, &ranking)
            .unwrap();
        let columnar = estimator.evaluate(&table, &scoring, &ranking).unwrap();
        assert_eq!(
            materialized, columnar,
            "{name}: columnar kernel diverges from the materialized reference"
        );
        let materialized_json = serde_json::to_string(&materialized).unwrap();
        for workers in [1usize, 2, 4] {
            let scheduler = Scheduler::new(workers);
            for factor in [1usize, 3, 8] {
                let batched = estimator
                    .evaluate_batched_with(&scheduler, &table, &scoring, &ranking, None, factor)
                    .unwrap();
                assert_eq!(
                    materialized, batched,
                    "{name}: batched summary diverges ({workers} workers, factor {factor})"
                );
                assert_eq!(
                    materialized_json,
                    serde_json::to_string(&batched).unwrap(),
                    "{name}: serialized summaries diverge ({workers} workers, factor {factor})"
                );
            }
        }
    }
}

#[test]
fn batching_amortizes_tasks_and_stays_byte_identical() {
    // 97-row CS table, 64 trials on 2 workers: the default factor (4)
    // schedules 8 batch tasks where the per-trial schedule ran 64.
    let table = Arc::new(CsDepartmentsConfig::default().generate().unwrap());
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    let ranking = scoring.rank_table(&table).unwrap();
    let estimator = MonteCarloStability::new().with_trials(64).unwrap();
    let scheduler = Scheduler::new(2);
    let before = scheduler.executed_jobs();
    let batched = estimator
        .evaluate_batched(&scheduler, &table, &scoring, &ranking, None)
        .unwrap();
    assert_eq!(
        scheduler.executed_jobs() - before,
        8,
        "64 trials / (2 workers × 4) = 8 trials per task → 8 tasks"
    );
    let sequential = estimator.evaluate(&table, &scoring, &ranking).unwrap();
    assert_eq!(sequential, batched);
}

#[test]
fn zero_deadline_truncates_deterministically_and_never_hangs() {
    let table = Arc::new(CsDepartmentsConfig::default().generate().unwrap());
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    let ranking = scoring.rank_table(&table).unwrap();
    let estimator = MonteCarloStability::new()
        .with_trials(128)
        .unwrap()
        .with_seed(9);
    let scheduler = Scheduler::new(2);
    let truncated = estimator
        .evaluate_batched(&scheduler, &table, &scoring, &ranking, Some(Duration::ZERO))
        .unwrap();
    // batch = 128 / (2 × 4) = 16; the always-launched first wave is
    // 2 × 16 = 32 trials — then the already-expired budget stops the run.
    assert!(truncated.truncated);
    assert_eq!(truncated.trials, 32);
    assert_eq!(truncated.trials_requested, 128);
    // Deterministic: the truncated run IS the 32-trial run, outcome for
    // outcome (only the requested count and the flag differ).
    let prefix = MonteCarloStability::new()
        .with_trials(32)
        .unwrap()
        .with_seed(9)
        .evaluate(&table, &scoring, &ranking)
        .unwrap();
    assert!(!prefix.truncated);
    assert_eq!(truncated.expected_kendall_tau, prefix.expected_kendall_tau);
    assert_eq!(truncated.worst_kendall_tau, prefix.worst_kendall_tau);
    assert_eq!(
        truncated.expected_top_k_overlap,
        prefix.expected_top_k_overlap
    );
    assert_eq!(truncated.top_item_change_rate, prefix.top_item_change_rate);
    // And it reproduces itself run over run.
    let again = estimator
        .evaluate_batched(&scheduler, &table, &scoring, &ranking, Some(Duration::ZERO))
        .unwrap();
    assert_eq!(truncated, again);
}

#[test]
fn zero_deadline_full_label_is_valid_and_flagged() {
    // End to end through the pipeline: a label whose Monte-Carlo budget is
    // already spent still renders every widget, with the stability detail
    // reporting the truncation.
    let table = Arc::new(CsDepartmentsConfig::default().generate().unwrap());
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    let config = Arc::new(
        LabelConfig::new(scoring)
            .with_top_k(10)
            .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
            .with_diversity_attribute("DeptSizeBin")
            .with_monte_carlo_trials(512)
            .with_monte_carlo_deadline_millis(Some(0)),
    );
    let label = AnalysisPipeline::with_pool(Arc::new(rf_runtime::ThreadPool::new(4)))
        .generate(Arc::clone(&table), config)
        .unwrap();
    let mc = label.stability.monte_carlo.as_ref().expect("detail on");
    assert!(mc.truncated);
    assert!(mc.trials >= 1 && mc.trials < 512, "got {}", mc.trials);
    assert_eq!(mc.trials_requested, 512);
    let json = label.to_json().unwrap();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value["stability"]["monte_carlo"]["truncated"], true);
    assert!(value["fairness"]["reports"].as_array().unwrap().len() == 2);
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

    /// The tentpole property: materialized reference, columnar sequential,
    /// and batched columnar agree byte-for-byte over random seeds, trial
    /// counts, batch factors, worker counts, and noise levels.
    #[test]
    fn batched_columnar_matches_materialized_for_random_inputs(
        seed in 0u64..=u64::MAX,
        trials in 1usize..24,
        workers in 1usize..5,
        factor in 1usize..6,
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
        let materialized = estimator.evaluate_materialized(&table, &scoring, &ranking).unwrap();
        let columnar = estimator.evaluate(&table, &scoring, &ranking).unwrap();
        prop_assert_eq!(&materialized, &columnar);
        let scheduler = Scheduler::new(workers);
        let batched = estimator
            .evaluate_batched_with(&scheduler, &table, &scoring, &ranking, None, factor)
            .unwrap();
        prop_assert_eq!(&materialized, &batched);
        prop_assert_eq!(
            serde_json::to_string(&materialized).unwrap(),
            serde_json::to_string(&batched).unwrap()
        );
    }
}
