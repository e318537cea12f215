//! Property-based tests for the ranking engine.

use proptest::prelude::*;
use rf_ranking::{footrule_distance, kendall_tau_rankings, Ranking, ScoringFunction};
use rf_table::{Column, Table};

fn scores_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e3..1.0e3f64, 1..64)
}

proptest! {
    #[test]
    fn ranking_is_a_permutation(scores in scores_vec()) {
        let r = Ranking::from_scores(&scores).unwrap();
        let mut order = r.order();
        order.sort_unstable();
        let expected: Vec<usize> = (0..scores.len()).collect();
        prop_assert_eq!(order, expected);
    }

    #[test]
    fn ranking_scores_non_increasing(scores in scores_vec()) {
        let r = Ranking::from_scores(&scores).unwrap();
        let s = r.scores_in_rank_order();
        for w in s.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn rank_vector_inverts_order(scores in scores_vec()) {
        let r = Ranking::from_scores(&scores).unwrap();
        let ranks = r.rank_vector();
        let order = r.order();
        for (pos, &idx) in order.iter().enumerate() {
            prop_assert_eq!(ranks[idx], pos + 1);
        }
    }

    #[test]
    fn top_k_is_prefix_of_order(scores in scores_vec(), k in 0usize..80) {
        let r = Ranking::from_scores(&scores).unwrap();
        let top = r.top_k_indices(k);
        let order = r.order();
        prop_assert_eq!(top.len(), k.min(scores.len()));
        prop_assert_eq!(&order[..top.len()], top.as_slice());
    }

    #[test]
    fn kendall_tau_of_self_is_one(order in prop::collection::vec(0usize..100, 2..40)) {
        // Turn the arbitrary vector into a permutation by ranking positions.
        let scores: Vec<f64> = order.iter().map(|&v| v as f64).collect();
        let r = Ranking::from_scores(&scores).unwrap();
        // Ties are possible; tau of a ranking with itself is 1 when not all tied.
        if scores.iter().any(|&s| s != scores[0]) {
            let tau = kendall_tau_rankings(&r, &r).unwrap();
            prop_assert!((tau - 1.0).abs() < 1e-9);
            let (d, dn) = footrule_distance(&r, &r).unwrap();
            prop_assert_eq!(d, 0.0);
            prop_assert_eq!(dn, 0.0);
        }
    }

    #[test]
    fn footrule_normalized_bounded(a in prop::collection::vec(-100.0..100.0f64, 2..40)) {
        let ra = Ranking::from_scores(&a).unwrap();
        let reversed: Vec<f64> = a.iter().map(|v| -v).collect();
        let rb = Ranking::from_scores(&reversed).unwrap();
        let (_, norm) = footrule_distance(&ra, &rb).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&norm));
    }

    #[test]
    fn scoring_function_positive_monotone_in_single_attribute(
        values in prop::collection::vec(0.0..1.0e4f64, 2..64),
    ) {
        // With a single positively-weighted attribute, a larger raw value can
        // never receive a worse (larger) rank.
        prop_assume!(values.iter().any(|v| (v - values[0]).abs() > 1e-9));
        let table = Table::from_columns(vec![("x", Column::from_f64(values.clone()))]).unwrap();
        let f = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = f.rank_table(&table).unwrap();
        let ranks = ranking.rank_vector();
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] > values[j] {
                    prop_assert!(ranks[i] < ranks[j],
                        "value {} (rank {}) vs {} (rank {})", values[i], ranks[i], values[j], ranks[j]);
                }
            }
        }
    }

    #[test]
    fn scoring_is_invariant_to_affine_attribute_transforms(
        values in prop::collection::vec(0.0..1.0e3f64, 3..48),
        scale in 0.1..10.0f64,
        shift in -100.0..100.0f64,
    ) {
        // Min-max normalization makes the ranking invariant under positive
        // affine transformations of an attribute.
        prop_assume!(values.iter().any(|v| (v - values[0]).abs() > 1e-6));
        let t1 = Table::from_columns(vec![("x", Column::from_f64(values.clone()))]).unwrap();
        let transformed: Vec<f64> = values.iter().map(|v| v * scale + shift).collect();
        let t2 = Table::from_columns(vec![("x", Column::from_f64(transformed))]).unwrap();
        let f = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let r1 = f.rank_table(&t1).unwrap();
        let r2 = f.rank_table(&t2).unwrap();
        prop_assert_eq!(r1.order(), r2.order());
    }
}
