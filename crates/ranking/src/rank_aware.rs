//! Rank-aware (top-weighted) similarity between rankings.
//!
//! The Ingredients widget lists "attributes most material to the ranked
//! outcome"; the paper notes that "such associations can be derived with
//! linear models or with other methods, such as rank-aware similarity in our
//! prior work" (§2.1, citing Stoyanovich, Amer-Yahia & Milo, EDBT 2011).
//! Classic rank correlations ([`crate::compare`]) weight every position
//! equally, but a ranking's consumers care far more about who is at the top.
//! This module provides top-weighted alternatives:
//!
//! * [`top_k_overlap`] / [`top_k_jaccard`] — set agreement of the two top-k's.
//! * [`average_overlap`] — mean prefix agreement up to a depth.
//! * [`rank_biased_overlap`] — RBO (Webber et al., TOIS 2010): geometrically
//!   discounted prefix agreement with persistence parameter `p`.
//! * [`ap_correlation`] — τ-AP (Yilmaz et al., SIGIR 2008): an AP-weighted
//!   Kendall correlation that penalizes disagreements near the top more.
//! * [`rank_aware_association`] — the Ingredients-facing helper: how strongly
//!   an attribute's own ordering agrees with the ranked outcome, weighted
//!   toward the top.

use crate::error::{RankingError, RankingResult};
use crate::ranking::{sort_descending, validate_finite, Ranking};

fn validate_same_items(a: &Ranking, b: &Ranking) -> RankingResult<()> {
    if a.len() != b.len() {
        return Err(RankingError::IncomparableRankings {
            message: format!("rankings have different sizes ({} vs {})", a.len(), b.len()),
        });
    }
    Ok(())
}

fn validate_k(k: usize, n: usize) -> RankingResult<()> {
    if k == 0 || k > n {
        return Err(RankingError::IncomparableRankings {
            message: format!("prefix size k={k} is invalid for rankings of {n} items"),
        });
    }
    Ok(())
}

/// Number of items the two top-k prefixes share, divided by `k`.
///
/// 1.0 means the two rankings select exactly the same top-k set (possibly in
/// a different order); 0.0 means the sets are disjoint.
///
/// # Errors
/// Returns an error when the rankings differ in size or `k` is zero or larger
/// than the rankings.
pub fn top_k_overlap(a: &Ranking, b: &Ranking, k: usize) -> RankingResult<f64> {
    validate_same_items(a, b)?;
    validate_k(k, a.len())?;
    Ok(prefix_intersection(a, b, k) as f64 / k as f64)
}

/// Jaccard similarity of the two top-k sets: `|A ∩ B| / |A ∪ B|`.
///
/// # Errors
/// Returns an error when the rankings differ in size or `k` is zero or larger
/// than the rankings.
pub fn top_k_jaccard(a: &Ranking, b: &Ranking, k: usize) -> RankingResult<f64> {
    validate_same_items(a, b)?;
    validate_k(k, a.len())?;
    let inter = prefix_intersection(a, b, k);
    let union = 2 * k - inter;
    Ok(inter as f64 / union as f64)
}

/// Average overlap: the mean of `overlap(d) / d` over prefix depths
/// `d = 1..=depth`.  Heavier weight on the very top because shallow prefixes
/// participate in every term.
///
/// # Errors
/// Returns an error when the rankings differ in size or `depth` is zero or
/// larger than the rankings.
pub fn average_overlap(a: &Ranking, b: &Ranking, depth: usize) -> RankingResult<f64> {
    validate_same_items(a, b)?;
    validate_k(depth, a.len())?;
    let agreements = prefix_agreements(a, b, depth);
    Ok(agreements.iter().sum::<f64>() / depth as f64)
}

/// Rank-biased overlap (RBO) of two full rankings of the same items.
///
/// `persistence` (the RBO parameter `p ∈ (0, 1)`) controls how top-weighted
/// the measure is: the expected evaluation depth is `1 / (1 − p)`, so
/// `p = 0.9` concentrates on roughly the top-10.  Because both rankings rank
/// the same item set, the agreement at full depth is exactly 1 and the
/// truncated sum can be closed exactly (no extrapolation uncertainty).
///
/// # Errors
/// Returns an error when the rankings differ in size, are empty, or
/// `persistence` lies outside `(0, 1)`.
pub fn rank_biased_overlap(a: &Ranking, b: &Ranking, persistence: f64) -> RankingResult<f64> {
    validate_same_items(a, b)?;
    if a.is_empty() {
        return Err(RankingError::EmptyRanking);
    }
    if !(persistence > 0.0 && persistence < 1.0) {
        return Err(RankingError::IncomparableRankings {
            message: format!("RBO persistence must lie strictly in (0, 1), got {persistence}"),
        });
    }
    let n = a.len();
    let agreements = prefix_agreements(a, b, n);
    let p = persistence;
    let mut weighted = 0.0;
    let mut weight = 1.0; // p^(d-1)
    for &agreement in &agreements {
        weighted += weight * agreement;
        weight *= p;
    }
    // Geometric tail beyond depth n: both rankings agree completely there.
    // (1-p) * Σ_{d>n} p^{d-1} = p^n.
    Ok((1.0 - p) * weighted + p.powi(n as i32))
}

/// τ-AP: AP-weighted rank correlation of `observed` against the `reference`
/// ranking (Yilmaz, Aslam & Robertson, SIGIR 2008).
///
/// For every item at reference rank `i ≥ 2`, the fraction of items above it
/// in the reference that are also above it in `observed` is averaged and
/// rescaled to `[-1, 1]`.  Unlike Kendall's tau, a disagreement involving the
/// top-ranked items drags the value down much more than one at the bottom.
/// The measure is asymmetric: `reference` plays the role of the ground-truth
/// ordering.
///
/// # Errors
/// Returns an error when the rankings differ in size or have fewer than two
/// items.
pub fn ap_correlation(reference: &Ranking, observed: &Ranking) -> RankingResult<f64> {
    validate_same_items(reference, observed)?;
    let n = reference.len();
    if n < 2 {
        return Err(RankingError::IncomparableRankings {
            message: "AP correlation needs at least two items".to_string(),
        });
    }
    let ref_rank = reference.rank_vector();
    let obs_rank = observed.rank_vector();
    // Items in reference rank order.
    let ref_order = reference.order();
    let mut total = 0.0;
    for i in 1..n {
        let item = ref_order[i];
        let above_in_ref = &ref_order[..i];
        let concordant = above_in_ref
            .iter()
            .filter(|&&other| obs_rank[other] < obs_rank[item])
            .count();
        total += concordant as f64 / i as f64;
        debug_assert!(ref_rank[item] == i + 1);
    }
    Ok(2.0 * total / (n - 1) as f64 - 1.0)
}

/// Rank-aware association between a numeric attribute and a ranking: the
/// average overlap, up to `depth`, between the ranking induced by the
/// attribute (descending) and the observed ranking.
///
/// Values near 1 mean the attribute alone would reproduce the top of the
/// ranking ("material to the ranked outcome"); values near the overlap
/// expected by chance (`≈ depth / n`) mean it would not.
///
/// # Errors
/// Returns an error when `values` does not cover the ranking, contains
/// non-finite numbers, or `depth` is invalid.
pub fn rank_aware_association(
    ranking: &Ranking,
    values: &[f64],
    depth: usize,
) -> RankingResult<f64> {
    if values.len() != ranking.len() {
        return Err(RankingError::IncomparableRankings {
            message: format!(
                "attribute has {} values but the ranking has {} items",
                values.len(),
                ranking.len()
            ),
        });
    }
    validate_finite(values)?;
    let attribute_order = sort_descending(values);
    rank_aware_association_of_order(ranking, attribute_order, depth)
}

/// [`rank_aware_association`] of an attribute whose induced order is
/// already known: `attribute_order` yields the attribute's rows best first
/// (as [`crate::sort_descending`] orders them), at least `depth` of them.
/// Only that prefix is read, so no [`Ranking`] of the attribute is built.
///
/// # Errors
/// Returns an error when `depth` is zero or larger than the ranking.
pub fn rank_aware_association_of_order(
    ranking: &Ranking,
    attribute_order: impl IntoIterator<Item = usize>,
    depth: usize,
) -> RankingResult<f64> {
    validate_k(depth, ranking.len())?;
    let agreements = prefix_agreements_of(
        ranking.items().iter().map(|item| item.index),
        attribute_order,
        ranking.len(),
        depth,
    );
    Ok(agreements.iter().sum::<f64>() / depth as f64)
}

/// Intersection size of the two top-k prefixes.
fn prefix_intersection(a: &Ranking, b: &Ranking, k: usize) -> usize {
    let b_top: Vec<usize> = b.top_k_indices(k);
    a.top_k(k)
        .iter()
        .filter(|item| b_top.contains(&item.index))
        .count()
}

/// `agreement(d) = overlap(d) / d` for every prefix depth `d = 1..=depth`,
/// computed incrementally in `O(depth²)` worst case but with small constant
/// factors (membership tracked in boolean vectors).
fn prefix_agreements(a: &Ranking, b: &Ranking, depth: usize) -> Vec<f64> {
    prefix_agreements_of(
        a.items().iter().map(|item| item.index),
        b.items().iter().map(|item| item.index),
        a.len(),
        depth,
    )
}

/// [`prefix_agreements`] of two orders of the same `n` rows, given as row
/// sequences (best first) with at least `depth` rows each.
fn prefix_agreements_of(
    a_order: impl IntoIterator<Item = usize>,
    b_order: impl IntoIterator<Item = usize>,
    n: usize,
    depth: usize,
) -> Vec<f64> {
    let mut in_a = vec![false; n];
    let mut in_b = vec![false; n];
    let mut overlap = 0usize;
    let mut agreements = Vec::with_capacity(depth);
    for (d, (a_item, b_item)) in a_order.into_iter().zip(b_order).take(depth).enumerate() {
        if a_item == b_item {
            overlap += 1;
        } else {
            if in_b[a_item] {
                overlap += 1;
            }
            if in_a[b_item] {
                overlap += 1;
            }
        }
        in_a[a_item] = true;
        in_b[b_item] = true;
        agreements.push(overlap as f64 / (d + 1) as f64);
    }
    agreements
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranking(order: &[usize]) -> Ranking {
        Ranking::from_order(order).unwrap()
    }

    #[test]
    fn identical_rankings_agree_perfectly() {
        let a = ranking(&[0, 1, 2, 3, 4]);
        let b = ranking(&[0, 1, 2, 3, 4]);
        assert_eq!(top_k_overlap(&a, &b, 3).unwrap(), 1.0);
        assert_eq!(top_k_jaccard(&a, &b, 3).unwrap(), 1.0);
        assert_eq!(average_overlap(&a, &b, 5).unwrap(), 1.0);
        assert!((rank_biased_overlap(&a, &b, 0.9).unwrap() - 1.0).abs() < 1e-12);
        assert!((ap_correlation(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_rankings_disagree() {
        let a = ranking(&[0, 1, 2, 3, 4, 5]);
        let b = ranking(&[5, 4, 3, 2, 1, 0]);
        assert_eq!(top_k_overlap(&a, &b, 3).unwrap(), 0.0);
        assert_eq!(top_k_jaccard(&a, &b, 3).unwrap(), 0.0);
        assert!((ap_correlation(&a, &b).unwrap() + 1.0).abs() < 1e-12);
        let rbo = rank_biased_overlap(&a, &b, 0.9).unwrap();
        assert!(rbo > 0.0 && rbo < 1.0);
    }

    #[test]
    fn partial_overlap_counts_shared_items() {
        let a = ranking(&[0, 1, 2, 3, 4]);
        let b = ranking(&[1, 0, 4, 2, 3]);
        // Top-2 sets are identical (order differs).
        assert_eq!(top_k_overlap(&a, &b, 2).unwrap(), 1.0);
        // Top-3: {0,1,2} vs {1,0,4} share two items.
        assert!((top_k_overlap(&a, &b, 3).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((top_k_jaccard(&a, &b, 3).unwrap() - 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn average_overlap_is_top_weighted() {
        // A swap at the very top hurts more than a swap at the bottom.
        let reference = ranking(&[0, 1, 2, 3, 4, 5]);
        let top_swap = ranking(&[1, 0, 2, 3, 4, 5]);
        let bottom_swap = ranking(&[0, 1, 2, 3, 5, 4]);
        let ao_top = average_overlap(&reference, &top_swap, 6).unwrap();
        let ao_bottom = average_overlap(&reference, &bottom_swap, 6).unwrap();
        assert!(ao_top < ao_bottom);
        // Kendall tau, by contrast, treats the two swaps identically — that is
        // exactly why the rank-aware variant exists.
    }

    #[test]
    fn ap_correlation_is_top_weighted() {
        let reference = ranking(&[0, 1, 2, 3, 4, 5]);
        let top_swap = ranking(&[1, 0, 2, 3, 4, 5]);
        let bottom_swap = ranking(&[0, 1, 2, 3, 5, 4]);
        let tau_top = ap_correlation(&reference, &top_swap).unwrap();
        let tau_bottom = ap_correlation(&reference, &bottom_swap).unwrap();
        assert!(tau_top < tau_bottom);
        assert!(tau_top > -1.0 && tau_bottom < 1.0);
    }

    #[test]
    fn rbo_rewards_agreement_at_the_top() {
        let a = ranking(&[0, 1, 2, 3, 4, 5, 6, 7]);
        // Agrees with `a` exactly on the first four positions, scrambled below.
        let top_agree = ranking(&[0, 1, 2, 3, 7, 6, 5, 4]);
        // Disagrees on every position of the top four, identical below.
        let top_disagree = ranking(&[3, 2, 1, 0, 4, 5, 6, 7]);
        let agree = rank_biased_overlap(&a, &top_agree, 0.9).unwrap();
        let disagree = rank_biased_overlap(&a, &top_disagree, 0.9).unwrap();
        assert!(agree > disagree);
    }

    #[test]
    fn rbo_persistence_limits() {
        // Rankings that disagree on the very first item.
        let a = ranking(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let b = ranking(&[7, 1, 2, 3, 4, 5, 6, 0]);
        // A nearly memory-less evaluator only sees the disagreeing top item…
        let shallow = rank_biased_overlap(&a, &b, 0.01).unwrap();
        assert!(shallow < 0.1);
        // …while a nearly exhaustive one sees that the full item sets coincide.
        let deep = rank_biased_overlap(&a, &b, 0.999).unwrap();
        assert!(deep > 0.9);
    }

    #[test]
    fn rbo_rejects_bad_persistence() {
        let a = ranking(&[0, 1, 2]);
        let b = ranking(&[0, 1, 2]);
        assert!(rank_biased_overlap(&a, &b, 0.0).is_err());
        assert!(rank_biased_overlap(&a, &b, 1.0).is_err());
    }

    #[test]
    fn invalid_k_and_size_mismatch_are_errors() {
        let a = ranking(&[0, 1, 2]);
        let b = ranking(&[0, 1, 2]);
        let c = ranking(&[0, 1]);
        assert!(top_k_overlap(&a, &b, 0).is_err());
        assert!(top_k_overlap(&a, &b, 4).is_err());
        assert!(top_k_overlap(&a, &c, 2).is_err());
        assert!(average_overlap(&a, &c, 2).is_err());
        assert!(ap_correlation(&a, &c).is_err());
        assert!(rank_biased_overlap(&a, &c, 0.9).is_err());
    }

    #[test]
    fn ap_correlation_requires_two_items() {
        let a = ranking(&[0]);
        let b = ranking(&[0]);
        assert!(ap_correlation(&a, &b).is_err());
    }

    #[test]
    fn association_tracks_the_driving_attribute() {
        // Scores are exactly the first attribute; the second is unrelated.
        let driving = vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0];
        let unrelated = vec![0.3, 0.1, 0.9, 0.2, 0.8, 0.4, 0.7, 0.0, 0.6, 0.5];
        let ranking = Ranking::from_scores(&driving).unwrap();
        let assoc_driving = rank_aware_association(&ranking, &driving, 5).unwrap();
        let assoc_unrelated = rank_aware_association(&ranking, &unrelated, 5).unwrap();
        assert!((assoc_driving - 1.0).abs() < 1e-12);
        assert!(assoc_unrelated < assoc_driving);
    }

    #[test]
    fn association_equals_the_average_overlap_with_the_attribute_ranking() {
        // The old formulation, built from a full Ranking of the attribute,
        // is the oracle; ties and both zeros exercise the pair sort's order.
        let scores = [3.0, 1.0, 2.0, 2.0, 0.0, -0.0, 5.0, 1.0, 4.0, 2.0];
        let attribute = [0.0, 2.0, -0.0, 2.0, 7.0, 1.0, 1.0, 9.0, -3.0, 2.0];
        let ranking = Ranking::from_scores(&scores).unwrap();
        for depth in 1..=scores.len() {
            let reference =
                average_overlap(&ranking, &Ranking::from_scores(&attribute).unwrap(), depth)
                    .unwrap();
            let fast = rank_aware_association(&ranking, &attribute, depth).unwrap();
            assert_eq!(fast.to_bits(), reference.to_bits(), "depth {depth}");
        }
        assert!(rank_aware_association_of_order(&ranking, 0..scores.len(), 0).is_err());
        assert!(rank_aware_association_of_order(&ranking, 0..scores.len(), 11).is_err());
    }

    #[test]
    fn association_validates_lengths() {
        let ranking = Ranking::from_scores(&[3.0, 2.0, 1.0]).unwrap();
        assert!(rank_aware_association(&ranking, &[1.0, 2.0], 2).is_err());
        assert!(rank_aware_association(&ranking, &[1.0, 2.0, f64::NAN], 2).is_err());
    }

    #[test]
    fn overlap_symmetry() {
        let a = ranking(&[4, 2, 0, 1, 3]);
        let b = ranking(&[0, 1, 2, 3, 4]);
        assert_eq!(
            top_k_overlap(&a, &b, 3).unwrap(),
            top_k_overlap(&b, &a, 3).unwrap()
        );
        assert_eq!(
            average_overlap(&a, &b, 4).unwrap(),
            average_overlap(&b, &a, 4).unwrap()
        );
        assert!(
            (rank_biased_overlap(&a, &b, 0.8).unwrap() - rank_biased_overlap(&b, &a, 0.8).unwrap())
                .abs()
                < 1e-12
        );
    }
}
