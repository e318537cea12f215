//! The [`Ranking`] type: items ordered by score.
//!
//! A ranking pairs each original row index with its score and its rank
//! (1-based, rank 1 = best).  The nutritional label repeatedly contrasts
//! "the top-10 and over-all" views of the same ranking; [`Ranking::top_k`]
//! and [`Ranking::order`] provide those slices.

use crate::columnar::{descending_sort_key, lane_range, packed_argsort, RADIX_CUTOFF};
use crate::error::{RankingError, RankingResult};

/// One item of a ranking.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RankedItem {
    /// 1-based rank (1 is the best).
    pub rank: usize,
    /// Index of the item's row in the original table.
    pub index: usize,
    /// The item's score.
    pub score: f64,
}

/// A complete ranking of `n` items: a permutation of row indices ordered by
/// non-increasing score.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Ranking {
    items: Vec<RankedItem>,
}

impl Ranking {
    /// Builds a ranking from per-row scores: highest score first, ties broken
    /// by original row order (stable).
    ///
    /// # Errors
    /// Returns an error when `scores` is empty or contains non-finite values.
    pub fn from_scores(scores: &[f64]) -> RankingResult<Self> {
        if scores.is_empty() {
            return Err(RankingError::EmptyRanking);
        }
        validate_finite(scores)?;
        let items = sort_descending(scores)
            .into_iter()
            .enumerate()
            .map(|(pos, index)| RankedItem {
                rank: pos + 1,
                index,
                score: scores[index],
            })
            .collect();
        Ok(Ranking { items })
    }

    /// Builds a ranking directly from an ordering of row indices (best first),
    /// assigning synthetic scores `n, n-1, ..., 1`.  Used when only the order
    /// is known (e.g. a ranking imported from an external source).
    ///
    /// # Errors
    /// Returns an error when `order` is empty or is not a permutation of
    /// `0..order.len()`.
    pub fn from_order(order: &[usize]) -> RankingResult<Self> {
        if order.is_empty() {
            return Err(RankingError::EmptyRanking);
        }
        let n = order.len();
        let mut seen = vec![false; n];
        for &idx in order {
            if idx >= n || seen[idx] {
                return Err(RankingError::IncomparableRankings {
                    message: format!(
                        "order is not a permutation of 0..{n} (offending index {idx})"
                    ),
                });
            }
            seen[idx] = true;
        }
        let items = order
            .iter()
            .enumerate()
            .map(|(pos, &index)| RankedItem {
                rank: pos + 1,
                index,
                score: (n - pos) as f64,
            })
            .collect();
        Ok(Ranking { items })
    }

    /// Number of ranked items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the ranking has no items (construction prevents this).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All items in rank order (best first).
    #[must_use]
    pub fn items(&self) -> &[RankedItem] {
        &self.items
    }

    /// Original row indices in rank order (best first).
    #[must_use]
    pub fn order(&self) -> Vec<usize> {
        self.items.iter().map(|item| item.index).collect()
    }

    /// Scores in rank order (non-increasing).
    #[must_use]
    pub fn scores_in_rank_order(&self) -> Vec<f64> {
        self.items.iter().map(|item| item.score).collect()
    }

    /// The first `k` items (or all items when `k >= len()`).
    #[must_use]
    pub fn top_k(&self, k: usize) -> &[RankedItem] {
        &self.items[..k.min(self.items.len())]
    }

    /// Row indices of the top-k items.
    #[must_use]
    pub fn top_k_indices(&self, k: usize) -> Vec<usize> {
        self.top_k(k).iter().map(|item| item.index).collect()
    }

    /// The rank (1-based) of the item whose original row index is `index`,
    /// or `None` when the index is not part of the ranking.
    #[must_use]
    pub fn rank_of(&self, index: usize) -> Option<usize> {
        self.items
            .iter()
            .find(|item| item.index == index)
            .map(|item| item.rank)
    }

    /// Rank vector indexed by original row index: `rank_vector()[i]` is the
    /// rank of row `i`.
    #[must_use]
    pub fn rank_vector(&self) -> Vec<usize> {
        let mut ranks = vec![0; self.items.len()];
        for item in &self.items {
            ranks[item.index] = item.rank;
        }
        ranks
    }

    /// Score vector indexed by original row index.
    #[must_use]
    pub fn score_vector(&self) -> Vec<f64> {
        let mut scores = vec![0.0; self.items.len()];
        for item in &self.items {
            scores[item.index] = item.score;
        }
        scores
    }
}

/// Rejects a non-finite score the way [`Ranking::from_scores`] does.
pub(crate) fn validate_finite(scores: &[f64]) -> RankingResult<()> {
    if scores.iter().any(|s| !s.is_finite()) {
        return Err(RankingError::Stats(rf_stats::StatsError::NonFiniteInput {
            operation: "Ranking::from_scores",
        }));
    }
    Ok(())
}

/// The rows of `values` by non-increasing value, ties by ascending row —
/// the order [`Ranking::from_scores`] ranks them in.
///
/// This is the order of `(descending_sort_key(value), row)` pairs, which
/// replaces a stable comparator argsort: equal values (both zeros included)
/// have equal keys, and the row breaks the tie.  Below `RADIX_CUTOFF` (512)
/// values the pairs are sorted with `sort_unstable`; from there the
/// Monte-Carlo trials' byte-pass argsort sorts them, with the row as
/// payload.  The caller checks that every value is finite.
#[must_use]
pub fn sort_descending(values: &[f64]) -> Vec<usize> {
    if values.len() < RADIX_CUTOFF || u32::try_from(values.len()).is_err() {
        let mut pairs: Vec<(u64, usize)> = values
            .iter()
            .enumerate()
            .map(|(row, &v)| (descending_sort_key(v), row))
            .collect();
        pairs.sort_unstable();
        return pairs.into_iter().map(|(_, row)| row).collect();
    }
    let (mut words, mut tmp) = (Vec::new(), Vec::new());
    let (lo, hi, _) = lane_range(values);
    packed_argsort(
        values,
        (lo, hi),
        |row| row as u32,
        |row| row as usize,
        &mut words,
        &mut tmp,
    );
    words.into_iter().map(|word| word as u32 as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stable comparator argsort the pair sort replaced: the oracle.
    fn order_by_comparator(scores: &[f64]) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..scores.len()).collect();
        indices.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        indices
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn from_scores_orders_like_the_stable_comparator_sort(
            scores in prop::collection::vec(
                (0usize..10, -1.0e3f64..1.0e3).prop_map(|(pick, x)| match pick {
                    0 => -0.0,
                    1 => 0.0,
                    2 => 1.5,
                    3 => -1.5,
                    4 => x.round(),
                    _ => x,
                }),
                1..400,
            ),
        ) {
            let ranking = Ranking::from_scores(&scores).unwrap();
            prop_assert_eq!(ranking.order(), order_by_comparator(&scores));
            for item in ranking.items() {
                prop_assert_eq!(item.score.to_bits(), scores[item.index].to_bits());
            }
        }
    }

    #[test]
    fn from_scores_orders_descending() {
        let r = Ranking::from_scores(&[0.2, 0.9, 0.5]).unwrap();
        assert_eq!(r.order(), vec![1, 2, 0]);
        assert_eq!(r.items()[0].rank, 1);
        assert_eq!(r.items()[0].score, 0.9);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn from_scores_ties_are_stable() {
        let r = Ranking::from_scores(&[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(r.order(), vec![0, 1, 2]);
    }

    #[test]
    fn from_scores_rejects_empty_and_nan() {
        assert!(matches!(
            Ranking::from_scores(&[]),
            Err(RankingError::EmptyRanking)
        ));
        assert!(Ranking::from_scores(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn from_order_roundtrip() {
        let r = Ranking::from_order(&[2, 0, 1]).unwrap();
        assert_eq!(r.order(), vec![2, 0, 1]);
        assert_eq!(r.rank_of(2), Some(1));
        assert_eq!(r.rank_of(1), Some(3));
        // Synthetic scores are strictly decreasing.
        let scores = r.scores_in_rank_order();
        assert!(scores.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn from_order_rejects_non_permutation() {
        assert!(Ranking::from_order(&[]).is_err());
        assert!(Ranking::from_order(&[0, 0]).is_err());
        assert!(Ranking::from_order(&[0, 5]).is_err());
    }

    #[test]
    fn top_k_slicing() {
        let r = Ranking::from_scores(&[0.1, 0.4, 0.3, 0.2]).unwrap();
        assert_eq!(r.top_k(2).len(), 2);
        assert_eq!(r.top_k_indices(2), vec![1, 2]);
        // k larger than n returns everything.
        assert_eq!(r.top_k(10).len(), 4);
    }

    #[test]
    fn rank_and_score_vectors() {
        let r = Ranking::from_scores(&[0.1, 0.4, 0.3]).unwrap();
        assert_eq!(r.rank_vector(), vec![3, 1, 2]);
        let sv = r.score_vector();
        assert_eq!(sv, vec![0.1, 0.4, 0.3]);
        assert_eq!(r.rank_of(99), None);
    }

    #[test]
    fn scores_in_rank_order_non_increasing() {
        let r = Ranking::from_scores(&[0.3, 0.1, 0.9, 0.9, 0.2]).unwrap();
        let s = r.scores_in_rank_order();
        assert!(s.windows(2).all(|w| w[0] >= w[1]));
    }
}
