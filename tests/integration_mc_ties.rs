//! Monte-Carlo trials on tables full of tied scores.
//!
//! The trial argsort carries each row's position in the original ranking
//! and must still break ties by row, as `Ranking::from_scores` does.  With
//! weight-only noise, duplicated rows keep exactly equal scores in every
//! trial, so ties are everywhere.  The columnar kernel must reproduce the
//! materialized reference's summary bit for bit, on both sides of the
//! kernel's comparison-sort cutoff (512 rows), against the table's own
//! ranking and against a shuffled one, where a tie broken by original
//! position instead of by row would show.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rf_ranking::{Ranking, ScoringFunction};
use rf_stability::MonteCarloStability;
use rf_table::{Column, Table};

/// `rows` rows, each a copy of one of `distinct` base rows of small
/// integers and halves.  Rows 0 and 1 copy two bases that differ in both
/// columns, so neither column is constant.
fn duplicated_table(rows: usize, distinct: usize, seed: u64) -> Table {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut bases = vec![[0.0, 0.0], [5.0, 2.5]];
    bases.extend((2..distinct).map(|_| {
        [
            rng.gen_range(0..6usize) as f64,
            rng.gen_range(0..6usize) as f64 * 0.5,
        ]
    }));
    let picks: Vec<usize> = (0..rows)
        .map(|row| {
            if row < 2 {
                row
            } else {
                rng.gen_range(0..distinct)
            }
        })
        .collect();
    let column = |attr: usize| Column::from_f64(picks.iter().map(|&p| bases[p][attr]).collect());
    Table::from_columns(vec![("a", column(0)), ("b", column(1))]).unwrap()
}

/// Row counts on both sides of the kernel's comparison-sort cutoff.
const EDGE_ROWS: [usize; 5] = [2, 3, 511, 512, 513];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernel_matches_materialized_on_duplicate_rows_with_weight_only_noise(
        seed in any::<u64>(),
        pick in 0usize..2 * EDGE_ROWS.len(),
        random_rows in 2usize..1200,
        distinct in 2usize..12,
        weight_noise in 0.01..0.6f64,
        k in 1usize..60,
        shuffled in any::<bool>(),
    ) {
        let rows = EDGE_ROWS.get(pick).copied().unwrap_or(random_rows);
        let table = duplicated_table(rows, distinct, seed);
        let scoring = ScoringFunction::from_pairs([("a", 0.6), ("b", 0.4)]).unwrap();
        let ranking = if shuffled {
            let mut rng = ChaCha8Rng::seed_from_u64(!seed);
            let mut order: Vec<usize> = (0..rows).collect();
            for i in (1..rows).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            Ranking::from_order(&order).unwrap()
        } else {
            scoring.rank_table(&table).unwrap()
        };
        let estimator = MonteCarloStability::new()
            .with_trials(6)
            .unwrap()
            .with_noise(0.0, weight_noise)
            .unwrap()
            .with_k(k)
            .with_seed(seed);
        let columnar = estimator.evaluate(&table, &scoring, &ranking).unwrap();
        let materialized = estimator
            .evaluate_materialized(&table, &scoring, &ranking)
            .unwrap();
        prop_assert_eq!(
            serde_json::to_string(&columnar).unwrap(),
            serde_json::to_string(&materialized).unwrap()
        );
    }
}
