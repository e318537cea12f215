//! Position-discounted group fairness measures: rND, rKL and rRD.
//!
//! These measures come from the authors' earlier paper *"Measuring Fairness
//! in Ranked Outputs"* (Yang & Stoyanovich, SSDBM 2017), which the
//! nutritional-label paper cites as the basis of its generative fairness
//! model (§2.3).  Each measure walks the ranking at regular cut-off points
//! (every 10 positions by default), compares the protected group's
//! representation in the prefix with its overall representation, discounts
//! the difference by `1 / log2(position)`, sums over cut-offs and normalizes
//! by the maximum attainable value so that the result lies in `[0, 1]`
//! (0 = perfectly proportional prefixes, 1 = maximally skewed).
//!
//! * **rND** — normalized difference of proportions.
//! * **rKL** — KL-divergence between the prefix's group distribution and the
//!   overall distribution.
//! * **rRD** — difference of protected-to-non-protected ratios (appropriate
//!   when the protected group is a minority).

use crate::error::{FairnessError, FairnessResult};
use crate::group::ProtectedGroup;
use rf_ranking::Ranking;

/// Default spacing between evaluation cut-offs (the SSDBM paper uses 10).
pub const DEFAULT_CUTOFF_STEP: usize = 10;

/// The three discounted measures evaluated on one ranking.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiscountedMeasures {
    /// Normalized discounted difference (0 = proportional, 1 = maximally skewed).
    pub rnd: f64,
    /// Normalized discounted KL-divergence.
    pub rkl: f64,
    /// Normalized discounted ratio difference.
    pub rrd: f64,
    /// Spacing between the evaluated cut-offs.  Together with the ranking's
    /// length it names every cut-off: [`cutoff_positions`]`(n, cutoff_step)`.
    pub cutoff_step: usize,
}

impl DiscountedMeasures {
    /// Computes all three measures for `group` on `ranking` with the default
    /// cut-off spacing.
    ///
    /// # Errors
    /// Propagates membership errors; requires a non-degenerate group.
    pub fn evaluate(group: &ProtectedGroup, ranking: &Ranking) -> FairnessResult<Self> {
        Self::evaluate_with_step(group, ranking, DEFAULT_CUTOFF_STEP)
    }

    /// Computes all three measures with a custom cut-off spacing.
    ///
    /// # Errors
    /// Propagates membership errors; `step` must be positive.
    pub fn evaluate_with_step(
        group: &ProtectedGroup,
        ranking: &Ranking,
        step: usize,
    ) -> FairnessResult<Self> {
        if step == 0 {
            return Err(FairnessError::InvalidParameter {
                parameter: "step",
                message: "cut-off spacing must be positive".to_string(),
            });
        }
        let members = group.membership_in_rank_order(ranking)?;
        let cutoffs = cutoff_positions(members.len(), step);
        Ok(DiscountedMeasures {
            rnd: normalized_measure(&members, &cutoffs, difference_term)?,
            rkl: normalized_measure(&members, &cutoffs, kl_term)?,
            rrd: normalized_measure(&members, &cutoffs, ratio_term)?,
            cutoff_step: step,
        })
    }
}

/// rND of a membership sequence in rank order, with default cut-offs.
///
/// # Errors
/// Requires both groups to be non-empty.
pub fn rnd(members_in_rank_order: &[bool]) -> FairnessResult<f64> {
    let cutoffs = cutoff_positions(members_in_rank_order.len(), DEFAULT_CUTOFF_STEP);
    normalized_measure(members_in_rank_order, &cutoffs, difference_term)
}

/// rKL of a membership sequence in rank order, with default cut-offs.
///
/// # Errors
/// Requires both groups to be non-empty.
pub fn rkl(members_in_rank_order: &[bool]) -> FairnessResult<f64> {
    let cutoffs = cutoff_positions(members_in_rank_order.len(), DEFAULT_CUTOFF_STEP);
    normalized_measure(members_in_rank_order, &cutoffs, kl_term)
}

/// rRD of a membership sequence in rank order, with default cut-offs.
///
/// # Errors
/// Requires both groups to be non-empty.
pub fn rrd(members_in_rank_order: &[bool]) -> FairnessResult<f64> {
    let cutoffs = cutoff_positions(members_in_rank_order.len(), DEFAULT_CUTOFF_STEP);
    normalized_measure(members_in_rank_order, &cutoffs, ratio_term)
}

/// Cut-off positions `step, 2·step, …` that fit in a ranking of length `n`.
///
/// A ranking shorter than `step` (`n < step`) is evaluated at the single
/// cut-off `n`, and an empty ranking at none.  This expands
/// [`DiscountedMeasures::cutoff_step`] back into the evaluated cut-offs.
#[must_use]
pub fn cutoff_positions(n: usize, step: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    if n < step {
        return vec![n];
    }
    (1..)
        .map(|i| i * step)
        .take_while(|&pos| pos <= n)
        .collect()
}

/// Per-cutoff statistics handed to a measure term.
struct PrefixStats {
    /// Protected items in the prefix.
    protected_in_prefix: usize,
    /// Prefix length.
    prefix: usize,
    /// Protected items overall.
    protected_total: usize,
    /// Ranking length.
    n: usize,
}

/// |prefix proportion − overall proportion| (the ND term).
fn difference_term(s: &PrefixStats) -> f64 {
    let prefix_prop = s.protected_in_prefix as f64 / s.prefix as f64;
    let overall_prop = s.protected_total as f64 / s.n as f64;
    (prefix_prop - overall_prop).abs()
}

/// KL divergence of the prefix's (protected, non-protected) distribution from
/// the overall distribution.
fn kl_term(s: &PrefixStats) -> f64 {
    let p1 = s.protected_in_prefix as f64 / s.prefix as f64;
    let p2 = 1.0 - p1;
    let q1 = s.protected_total as f64 / s.n as f64;
    let q2 = 1.0 - q1;
    let mut kl = 0.0;
    if p1 > 0.0 && q1 > 0.0 {
        kl += p1 * (p1 / q1).ln();
    }
    if p2 > 0.0 && q2 > 0.0 {
        kl += p2 * (p2 / q2).ln();
    }
    kl.max(0.0)
}

/// |prefix protected:non-protected ratio − overall ratio| (the RD term).
/// A prefix with no non-protected members contributes 0, following the SSDBM
/// paper's convention that RD is meaningful for minority protected groups.
fn ratio_term(s: &PrefixStats) -> f64 {
    let non_protected_in_prefix = s.prefix - s.protected_in_prefix;
    let non_protected_total = s.n - s.protected_total;
    if non_protected_in_prefix == 0 || non_protected_total == 0 {
        return 0.0;
    }
    let prefix_ratio = s.protected_in_prefix as f64 / non_protected_in_prefix as f64;
    let overall_ratio = s.protected_total as f64 / non_protected_total as f64;
    (prefix_ratio - overall_ratio).abs()
}

/// Discounted sum of a measure term over the cut-offs, divided by the maximum
/// attainable value (computed on the most skewed ranking: every protected item
/// pushed to the bottom, or to the top, whichever is larger).
fn normalized_measure(
    members: &[bool],
    cutoffs: &[usize],
    term: fn(&PrefixStats) -> f64,
) -> FairnessResult<f64> {
    let n = members.len();
    let protected_total = members.iter().filter(|&&m| m).count();
    if protected_total == 0 {
        return Err(FairnessError::DegenerateGroup { which: "protected" });
    }
    if protected_total == n {
        return Err(FairnessError::DegenerateGroup {
            which: "non-protected",
        });
    }
    if cutoffs.is_empty() {
        return Ok(0.0);
    }

    // The ranking's own prefix counts: one running count across the
    // ascending cut-offs.
    let mut counted = 0;
    let mut protected_so_far = 0;
    let raw = discounted_sum(cutoffs, n, protected_total, term, |cutoff| {
        protected_so_far += members[counted..cutoff].iter().filter(|&&m| m).count();
        counted = cutoff;
        protected_so_far
    });

    // Worst cases, in closed form: all protected at the bottom (a prefix of
    // length c holds the c − (n − P) that spill past the non-protected), or
    // all protected at the top (it holds min(c, P)).
    let non_protected = n - protected_total;
    let worst_bottom = discounted_sum(cutoffs, n, protected_total, term, |cutoff| {
        cutoff.saturating_sub(non_protected)
    });
    let worst_top = discounted_sum(cutoffs, n, protected_total, term, |cutoff| {
        cutoff.min(protected_total)
    });
    let z = worst_bottom.max(worst_top);

    if z <= 0.0 {
        // The measure cannot distinguish any ranking (e.g. a single cut-off
        // equal to n); report perfect fairness.
        return Ok(0.0);
    }
    Ok((raw / z).clamp(0.0, 1.0))
}

/// `Σ_{cutoff i} term(i) / log2(i)` (the log2 of a cut-off of 1 would be 0;
/// such a cut-off only occurs for n = 1, which the degenerate-group check
/// already rejects).  `protected_in_prefix` maps each cut-off, called in
/// ascending order, to the protected items among the first `cutoff`.
fn discounted_sum(
    cutoffs: &[usize],
    n: usize,
    protected_total: usize,
    term: fn(&PrefixStats) -> f64,
    mut protected_in_prefix: impl FnMut(usize) -> usize,
) -> f64 {
    let mut sum = 0.0;
    for &cutoff in cutoffs {
        let stats = PrefixStats {
            protected_in_prefix: protected_in_prefix(cutoff),
            prefix: cutoff,
            protected_total,
            n,
        };
        let discount = (cutoff as f64).log2();
        if discount > 0.0 {
            sum += term(&stats) / discount;
        } else {
            sum += term(&stats);
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original quadratic evaluation: every cut-off recounts its prefix,
    /// and the worst cases are materialized as membership vectors.
    fn quadratic_measure(
        members: &[bool],
        cutoffs: &[usize],
        term: fn(&PrefixStats) -> f64,
    ) -> f64 {
        fn sum(
            members: &[bool],
            cutoffs: &[usize],
            protected_total: usize,
            term: fn(&PrefixStats) -> f64,
        ) -> f64 {
            let mut sum = 0.0;
            for &cutoff in cutoffs {
                let stats = PrefixStats {
                    protected_in_prefix: members[..cutoff].iter().filter(|&&m| m).count(),
                    prefix: cutoff,
                    protected_total,
                    n: members.len(),
                };
                let discount = (cutoff as f64).log2();
                if discount > 0.0 {
                    sum += term(&stats) / discount;
                } else {
                    sum += term(&stats);
                }
            }
            sum
        }
        let n = members.len();
        let protected_total = members.iter().filter(|&&m| m).count();
        if cutoffs.is_empty() {
            return 0.0;
        }
        let raw = sum(members, cutoffs, protected_total, term);
        let mut worst_bottom = vec![false; n - protected_total];
        worst_bottom.extend(std::iter::repeat_n(true, protected_total));
        let mut worst_top = vec![true; protected_total];
        worst_top.extend(std::iter::repeat_n(false, n - protected_total));
        let z = sum(&worst_bottom, cutoffs, protected_total, term).max(sum(
            &worst_top,
            cutoffs,
            protected_total,
            term,
        ));
        if z <= 0.0 {
            return 0.0;
        }
        (raw / z).clamp(0.0, 1.0)
    }

    proptest! {
        /// The single-pass running count and the closed-form worst cases
        /// reproduce the quadratic evaluation bit for bit.
        #[test]
        fn discounted_single_pass_matches_the_quadratic_evaluation(
            draws in prop::collection::vec(0u8..100, 2..=500),
            share in 1u8..100,
            step in 1usize..=15,
        ) {
            // Each item is protected with probability `share`%, so groups
            // range from a lone protected item to a lone non-protected one.
            let members: Vec<bool> = draws.iter().map(|&d| d < share).collect();
            let protected = members.iter().filter(|&&m| m).count();
            prop_assume!(protected > 0 && protected < members.len());
            let cutoffs = cutoff_positions(members.len(), step);
            for term in [difference_term, kl_term, ratio_term] {
                let fast = normalized_measure(&members, &cutoffs, term).unwrap();
                let slow = quadratic_measure(&members, &cutoffs, term);
                prop_assert_eq!(fast.to_bits(), slow.to_bits());
            }
        }
    }

    fn group_from(members: &[bool]) -> ProtectedGroup {
        ProtectedGroup::from_membership("g", "x", members.to_vec()).unwrap()
    }

    fn identity_ranking(n: usize) -> Ranking {
        Ranking::from_order(&(0..n).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn cutoffs_every_ten() {
        assert_eq!(cutoff_positions(35, 10), vec![10, 20, 30]);
        assert_eq!(cutoff_positions(10, 10), vec![10]);
        assert_eq!(cutoff_positions(7, 10), vec![7]);
        assert_eq!(cutoff_positions(0, 10), Vec::<usize>::new());
    }

    #[test]
    fn proportional_ranking_scores_near_zero() {
        // Alternating membership keeps every prefix proportional.
        let members: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        assert!(rnd(&members).unwrap() < 0.05);
        assert!(rkl(&members).unwrap() < 0.05);
        assert!(rrd(&members).unwrap() < 0.05);
    }

    #[test]
    fn segregated_ranking_scores_near_one() {
        // All protected at the bottom is by construction the worst case.
        let mut members = vec![false; 20];
        members.extend(vec![true; 20]);
        assert!((rnd(&members).unwrap() - 1.0).abs() < 1e-9);
        assert!((rkl(&members).unwrap() - 1.0).abs() < 1e-9);
        assert!((rrd(&members).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn protected_at_top_is_also_skewed() {
        let mut members = vec![true; 20];
        members.extend(vec![false; 20]);
        // Over-representation is still a deviation from proportionality.
        assert!(rnd(&members).unwrap() > 0.5);
        assert!(rkl(&members).unwrap() > 0.5);
    }

    #[test]
    fn measures_are_in_unit_interval() {
        let patterns: Vec<Vec<bool>> = vec![
            (0..30).map(|i| i % 3 == 0).collect(),
            (0..25).map(|i| i < 5).collect(),
            (0..25).map(|i| i >= 20).collect(),
            (0..50).map(|i| i % 7 == 0).collect(),
        ];
        for members in patterns {
            for value in [
                rnd(&members).unwrap(),
                rkl(&members).unwrap(),
                rrd(&members).unwrap(),
            ] {
                assert!((0.0..=1.0).contains(&value), "value {value}");
            }
        }
    }

    #[test]
    fn degenerate_groups_rejected() {
        assert!(rnd(&[true, true, true]).is_err());
        assert!(rkl(&[false, false]).is_err());
    }

    #[test]
    fn evaluate_bundles_all_three() {
        let members: Vec<bool> = (0..30).map(|i| i % 2 == 0).collect();
        let group = group_from(&members);
        let ranking = identity_ranking(30);
        let m = DiscountedMeasures::evaluate(&group, &ranking).unwrap();
        assert_eq!(cutoff_positions(30, m.cutoff_step), vec![10, 20, 30]);
        assert!(m.rnd < 0.1);
        assert!(m.rkl < 0.1);
        assert!(m.rrd < 0.1);
    }

    #[test]
    fn evaluate_with_finer_step() {
        let mut members = vec![false; 10];
        members.extend(vec![true; 10]);
        let group = group_from(&members);
        let ranking = identity_ranking(20);
        let coarse = DiscountedMeasures::evaluate_with_step(&group, &ranking, 10).unwrap();
        let fine = DiscountedMeasures::evaluate_with_step(&group, &ranking, 2).unwrap();
        assert_eq!(cutoff_positions(20, fine.cutoff_step).len(), 10);
        // Both agree the ranking is maximally skewed.
        assert!((coarse.rnd - 1.0).abs() < 1e-9);
        assert!((fine.rnd - 1.0).abs() < 1e-9);
        assert!(DiscountedMeasures::evaluate_with_step(&group, &ranking, 0).is_err());
    }

    #[test]
    fn small_ranking_falls_back_to_single_cutoff() {
        let members = vec![true, false, true, false];
        let group = group_from(&members);
        let ranking = identity_ranking(4);
        let m = DiscountedMeasures::evaluate(&group, &ranking).unwrap();
        assert_eq!(cutoff_positions(4, m.cutoff_step), vec![4]);
        // The single cut-off covers the whole ranking, so every ranking looks
        // proportional and the measure cannot discriminate.
        assert_eq!(m.rnd, 0.0);
    }

    #[test]
    fn rnd_monotone_in_displacement() {
        // Moving protected items further down increases rND.
        let balanced: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let mild: Vec<bool> = (0..40).map(|i| i % 2 == 1).collect(); // shifted by one
        let mut severe = vec![false; 30];
        severe.extend(vec![true; 10]);
        // severe has 10 protected of 40; rebuild balanced/mild with 10 protected as well
        let balanced10: Vec<bool> = (0..40).map(|i| i % 4 == 0).collect();
        let severe_val = rnd(&severe).unwrap();
        let balanced_val = rnd(&balanced10).unwrap();
        assert!(severe_val > balanced_val);
        let _ = (balanced, mild);
    }
}
