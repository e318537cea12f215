//! Golden bits of the Monte-Carlo stability summary.
//!
//! A 32-trial sequential [`MonteCarloStability::evaluate`] with a fixed seed
//! on two catalogue scenarios — the 20k-row synthetic table with the
//! catalogue recipe, and the compas catalogue table — must reproduce these
//! exact `f64` bit patterns.  They pin every stage of a trial: the noise
//! draws, the columnar scoring, the argsort and the Kendall-τ inversion
//! count.  A faster inversion count, sampler or argsort must leave them
//! untouched.
//!
//! Any change to these bits changes served label bytes and the frames the
//! disk tier stores, so it needs an `rf_store::FORMAT_VERSION` bump.

use rf_core::LabelConfig;
use rf_stability::MonteCarloStability;
use rf_table::Table;

/// The fixed seed of the golden runs.
const GOLDEN_SEED: u64 = 20_181_105;

/// `(expected_kendall_tau, worst_kendall_tau, expected_top_k_overlap)` as
/// `f64::to_bits` of a 32-trial run on the catalogue recipe's noise and k.
fn summary_bits(table: &Table, config: &LabelConfig) -> [u64; 3] {
    let ranking = config.scoring.rank_table(table).expect("ranking");
    let summary = MonteCarloStability::new()
        .with_trials(32)
        .expect("trials")
        .with_noise(
            config.monte_carlo.data_noise,
            config.monte_carlo.weight_noise,
        )
        .expect("noise")
        .with_seed(GOLDEN_SEED)
        .with_k(config.top_k)
        .evaluate(table, &config.scoring, &ranking)
        .expect("monte carlo");
    assert_eq!(summary.trials, 32);
    [
        summary.expected_kendall_tau.to_bits(),
        summary.worst_kendall_tau.to_bits(),
        summary.expected_top_k_overlap.to_bits(),
    ]
}

#[test]
fn mc_golden_bits_synth_20k() {
    let (table, config) = rf_bench::synth_scenario(20_000);
    assert_eq!(
        summary_bits(&table, &config),
        [
            4_606_874_845_923_419_248,
            4_606_815_128_192_923_295,
            4_606_040_962_210_631_513,
        ]
    );
}

#[test]
fn mc_golden_bits_compas_catalogue() {
    let entry = rf_server::DatasetCatalog::with_demo_datasets()
        .get("compas")
        .expect("compas catalogue entry");
    assert_eq!(
        summary_bits(&entry.table, &entry.config),
        [
            4_606_839_552_427_110_662,
            4_606_765_861_743_137_821,
            4_605_571_872_557_578_766,
        ]
    );
}
