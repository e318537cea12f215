//! Constructive FA*IR re-ranking (Zehlike et al., CIKM 2017, Algorithm 2).
//!
//! The FA*IR *test* ([`crate::fair_star`]) only diagnoses a ranking; the
//! FA*IR *algorithm* repairs it.  The paper's §4 announces exactly this kind
//! of extension — "methods that help the user mitigate lack of fairness and
//! diversity by suggesting modified scoring functions" — and re-ranking is
//! the measure-preserving counterpart: instead of changing the recipe, it
//! changes the order just enough to satisfy ranked group fairness.
//!
//! The algorithm maintains two queues — protected and non-protected
//! candidates, each in score order — and walks output positions `1..=n`.
//! At position `i` it first checks the minimum-protected table: if the number
//! of protected items placed so far is below `m(i)` (for `i ≤ k`), the best
//! remaining protected candidate is forced into the position; otherwise the
//! better-scored head of the two queues is taken.  The result is the
//! highest-utility ranking (among those preserving within-group order) whose
//! every audited prefix satisfies the FA*IR constraint.
//!
//! [`RerankOutcome`] reports the repaired order together with how much the
//! repair cost: which items were boosted into the top-k, the per-position
//! score loss, and the rank correlation with the original order.

use crate::error::{FairnessError, FairnessResult};
use crate::fair_star::{FairStarTest, PrefixCdf};
use crate::group::ProtectedGroup;
use rf_ranking::{kendall_tau_rankings, Ranking};

/// Configuration of a FA*IR re-ranking pass.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FairRerank {
    /// Prefix length whose every sub-prefix must satisfy the constraint.
    pub k: usize,
    /// Target minimum protected proportion (the group's overall proportion by
    /// default in Ranking Facts).
    pub p: f64,
    /// Family-wise significance level.
    pub alpha: f64,
    /// Whether to use the multiple-testing-adjusted significance level when
    /// building the minimum-protected table.
    pub adjust: bool,
}

impl FairRerank {
    /// Creates a re-ranker with the tool's defaults (`alpha = 0.05`, adjusted).
    ///
    /// # Errors
    /// Returns an error unless `0 < p < 1` and `k > 0`.
    pub fn new(k: usize, p: f64) -> FairnessResult<Self> {
        // Reuse the test constructor's validation.
        let test = FairStarTest::new(k, p)?;
        Ok(FairRerank {
            k,
            p,
            alpha: test.alpha,
            adjust: true,
        })
    }

    /// Sets the family-wise significance level.
    ///
    /// # Errors
    /// Returns an error unless `0 < alpha < 1`.
    pub fn with_alpha(mut self, alpha: f64) -> FairnessResult<Self> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(FairnessError::InvalidParameter {
                parameter: "alpha",
                message: format!("significance level must lie strictly in (0, 1), got {alpha}"),
            });
        }
        self.alpha = alpha;
        Ok(self)
    }

    /// Enables or disables the multiple-testing adjustment.
    #[must_use]
    pub fn with_adjustment(mut self, adjust: bool) -> Self {
        self.adjust = adjust;
        self
    }

    /// Re-ranks `ranking` so that every prefix of length `1..=k` contains at
    /// least the FA*IR minimum number of protected items, pulling protected
    /// candidates up from below when necessary.
    ///
    /// Within each group the original (score) order is preserved; positions
    /// beyond `k` are filled greedily by score, so the output is a
    /// permutation of the same items.
    ///
    /// # Errors
    /// Returns an error when `k` exceeds the ranking length, the group does
    /// not cover the ranking, or there are fewer protected items than the
    /// table requires at position `k`.
    pub fn rerank(
        &self,
        group: &ProtectedGroup,
        ranking: &Ranking,
    ) -> FairnessResult<RerankOutcome> {
        let n = ranking.len();
        if self.k == 0 || self.k > n {
            return Err(FairnessError::InvalidK { k: self.k, n });
        }
        let members = group.membership_in_rank_order(ranking)?;

        let (alpha_used, required) =
            PrefixCdf::new(self.k, self.p, self.alpha)?.required(self.adjust)?;

        // Feasibility: the dataset must contain at least m(k) protected items.
        let total_protected = members.iter().filter(|&&m| m).count();
        if total_protected < required[self.k - 1] {
            return Err(FairnessError::InvalidParameter {
                parameter: "p",
                message: format!(
                    "the ranking contains only {total_protected} protected items but the \
                     FA*IR table requires {} within the top-{}",
                    required[self.k - 1],
                    self.k
                ),
            });
        }

        // Two queues over positions of the *original* ranking, best first.
        let items = ranking.items();
        let protected_queue: Vec<usize> = (0..n).filter(|&i| members[i]).collect();
        let other_queue: Vec<usize> = (0..n).filter(|&i| !members[i]).collect();
        let mut p_head = 0usize;
        let mut o_head = 0usize;

        let mut merged_positions = Vec::with_capacity(n);
        let mut protected_placed = 0usize;
        for out_pos in 0..n {
            let need_protected = required
                .get(out_pos)
                .is_some_and(|&minimum| protected_placed < minimum);
            let take_protected = if p_head >= protected_queue.len() {
                false
            } else if o_head >= other_queue.len() || need_protected {
                true
            } else {
                // Both heads available and no constraint pressure: take the
                // better-scored one (lower original position = higher score).
                protected_queue[p_head] < other_queue[o_head]
            };
            if take_protected {
                merged_positions.push(protected_queue[p_head]);
                p_head += 1;
                protected_placed += 1;
            } else {
                merged_positions.push(other_queue[o_head]);
                o_head += 1;
            }
        }

        // Translate original-ranking positions back to row indices.
        let new_order: Vec<usize> = merged_positions
            .iter()
            .map(|&pos| items[pos].index)
            .collect();
        let reranked = Ranking::from_order(&new_order)?;

        // Diagnostics -----------------------------------------------------
        let original_scores = ranking.scores_in_rank_order();
        let mut score_loss_at = Vec::with_capacity(self.k);
        let mut total_score_loss = 0.0f64;
        for (out_pos, &orig_pos) in merged_positions.iter().enumerate().take(self.k) {
            let loss = (original_scores[out_pos] - original_scores[orig_pos]).max(0.0);
            score_loss_at.push(loss);
            total_score_loss += loss;
        }

        let original_top_k: Vec<usize> = ranking.top_k_indices(self.k);
        let boosted_into_top_k: Vec<usize> = reranked
            .top_k_indices(self.k)
            .into_iter()
            .filter(|idx| !original_top_k.contains(idx))
            .collect();
        let max_rank_boost = merged_positions
            .iter()
            .enumerate()
            .take(self.k)
            .map(|(out_pos, &orig_pos)| orig_pos.saturating_sub(out_pos))
            .max()
            .unwrap_or(0);

        let changed = merged_positions
            .iter()
            .enumerate()
            .any(|(out_pos, &orig_pos)| out_pos != orig_pos);
        let tau_to_original = if n >= 2 {
            kendall_tau_rankings(ranking, &reranked)?
        } else {
            1.0
        };

        // Verify: the repaired ranking must pass the (same-configured) test.
        let test = FairStarTest {
            k: self.k,
            p: self.p,
            alpha: self.alpha,
            adjust: self.adjust,
        };
        let verification = test.evaluate(group, &reranked)?;

        Ok(RerankOutcome {
            reranked,
            required_minimums: required,
            alpha_adjusted: alpha_used,
            changed,
            boosted_into_top_k,
            score_loss_at,
            total_score_loss,
            max_rank_boost,
            kendall_tau_to_original: tau_to_original,
            satisfied_after: verification.satisfied,
        })
    }
}

/// Result of a FA*IR re-ranking pass.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RerankOutcome {
    /// The repaired ranking (a permutation of the original items).
    pub reranked: Ranking,
    /// Minimum protected count required at each audited prefix.
    pub required_minimums: Vec<usize>,
    /// The per-prefix significance level used to build the table.
    pub alpha_adjusted: f64,
    /// Whether the repair changed the order at all.
    pub changed: bool,
    /// Row indices pulled into the top-k that were not there originally.
    pub boosted_into_top_k: Vec<usize>,
    /// Score sacrificed at each of the first `k` positions (original score at
    /// that position minus the score of the item now occupying it).
    pub score_loss_at: Vec<f64>,
    /// Total score sacrificed over the top-k.
    pub total_score_loss: f64,
    /// Largest number of positions any item was boosted within the top-k.
    pub max_rank_boost: usize,
    /// Kendall tau between the original and the repaired ranking.
    pub kendall_tau_to_original: f64,
    /// Whether the repaired ranking passes the FA*IR test it was built for
    /// (always `true` when the input was feasible; reported for auditing).
    pub satisfied_after: bool,
}

impl RerankOutcome {
    /// Mean score loss per audited position.
    #[must_use]
    pub fn mean_score_loss(&self) -> f64 {
        if self.score_loss_at.is_empty() {
            return 0.0;
        }
        self.total_score_loss / self.score_loss_at.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group_from(members: &[bool]) -> ProtectedGroup {
        ProtectedGroup::from_membership("g", "x", members.to_vec()).unwrap()
    }

    fn identity_ranking(n: usize) -> Ranking {
        let order: Vec<usize> = (0..n).collect();
        Ranking::from_order(&order).unwrap()
    }

    #[test]
    fn fair_input_is_left_untouched() {
        // Alternating membership at p = 0.5 already satisfies every prefix.
        let members: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let group = group_from(&members);
        let ranking = identity_ranking(20);
        let rr = FairRerank::new(10, 0.5).unwrap();
        let out = rr.rerank(&group, &ranking).unwrap();
        assert!(!out.changed);
        assert_eq!(out.reranked.order(), ranking.order());
        assert!(out.boosted_into_top_k.is_empty());
        assert_eq!(out.total_score_loss, 0.0);
        assert!(out.satisfied_after);
        assert!((out.kendall_tau_to_original - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segregated_input_is_repaired() {
        // All non-protected first, all protected last: maximally unfair.
        let mut members = vec![false; 10];
        members.extend(vec![true; 10]);
        let group = group_from(&members);
        let ranking = identity_ranking(20);

        let test = FairStarTest::new(10, 0.5).unwrap();
        assert!(!test.evaluate(&group, &ranking).unwrap().satisfied);

        let rr = FairRerank::new(10, 0.5).unwrap();
        let out = rr.rerank(&group, &ranking).unwrap();
        assert!(out.changed);
        assert!(out.satisfied_after);
        assert!(!out.boosted_into_top_k.is_empty());
        assert!(out.total_score_loss >= 0.0);
        assert!(out.max_rank_boost > 0);
        // The repaired ranking passes the test it was built against.
        let verify = test.evaluate(&group, &out.reranked).unwrap();
        assert!(verify.satisfied);
    }

    #[test]
    fn output_is_always_a_permutation() {
        let members: Vec<bool> = (0..30).map(|i| i % 5 == 0).collect();
        let group = group_from(&members);
        let ranking = identity_ranking(30);
        let rr = FairRerank::new(10, 0.2).unwrap();
        let out = rr.rerank(&group, &ranking).unwrap();
        let mut order = out.reranked.order();
        order.sort_unstable();
        assert_eq!(order, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn within_group_order_is_preserved() {
        let mut members = vec![false; 12];
        members.extend(vec![true; 8]);
        let group = group_from(&members);
        let ranking = identity_ranking(20);
        let rr = FairRerank::new(10, 0.4).unwrap();
        let out = rr.rerank(&group, &ranking).unwrap();
        // Protected items (original rows 12..20) must appear in their original
        // relative order; same for non-protected (rows 0..12).
        let order = out.reranked.order();
        let protected_positions: Vec<usize> = order.iter().copied().filter(|&i| i >= 12).collect();
        let other_positions: Vec<usize> = order.iter().copied().filter(|&i| i < 12).collect();
        assert!(protected_positions.windows(2).all(|w| w[0] < w[1]));
        assert!(other_positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn infeasible_when_not_enough_protected_items() {
        // Only one protected item in the whole ranking but a high target p.
        let mut members = vec![false; 19];
        members.push(true);
        let group = group_from(&members);
        let ranking = identity_ranking(20);
        let rr = FairRerank::new(10, 0.8).unwrap();
        let err = rr.rerank(&group, &ranking).unwrap_err();
        assert!(matches!(err, FairnessError::InvalidParameter { .. }));
    }

    #[test]
    fn k_bounds_are_checked() {
        let members = vec![true, false, true, false];
        let group = group_from(&members);
        let ranking = identity_ranking(4);
        let rr = FairRerank::new(10, 0.5).unwrap();
        assert!(matches!(
            rr.rerank(&group, &ranking),
            Err(FairnessError::InvalidK { .. })
        ));
    }

    #[test]
    fn constructor_and_builder_validation() {
        assert!(FairRerank::new(0, 0.5).is_err());
        assert!(FairRerank::new(10, 0.0).is_err());
        assert!(FairRerank::new(10, 0.5).unwrap().with_alpha(0.0).is_err());
        let rr = FairRerank::new(10, 0.5)
            .unwrap()
            .with_alpha(0.01)
            .unwrap()
            .with_adjustment(false);
        assert!(!rr.adjust);
        assert_eq!(rr.alpha, 0.01);
    }

    #[test]
    fn unadjusted_table_is_at_least_as_strict() {
        // The adjusted significance level is smaller, so its minimum table is
        // never stricter than the unadjusted one; re-ranking under the
        // unadjusted table therefore boosts at least as many items.
        let mut members = vec![false; 30];
        members.extend(vec![true; 30]);
        let group = group_from(&members);
        let ranking = identity_ranking(60);
        let adjusted = FairRerank::new(20, 0.5).unwrap();
        let unadjusted = FairRerank::new(20, 0.5).unwrap().with_adjustment(false);
        let out_a = adjusted.rerank(&group, &ranking).unwrap();
        let out_u = unadjusted.rerank(&group, &ranking).unwrap();
        assert!(out_u.boosted_into_top_k.len() >= out_a.boosted_into_top_k.len());
    }

    #[test]
    fn score_loss_reflects_boosting() {
        // Scores 100, 99, ..., with protected items at the bottom.
        let scores: Vec<f64> = (0..20).map(|i| 100.0 - i as f64).collect();
        let ranking = Ranking::from_scores(&scores).unwrap();
        let mut members = vec![false; 15];
        members.extend(vec![true; 5]);
        let group = group_from(&members);
        let rr = FairRerank::new(10, 0.3).unwrap();
        let out = rr.rerank(&group, &ranking).unwrap();
        assert!(out.changed);
        assert!(out.total_score_loss > 0.0);
        assert!(out.mean_score_loss() > 0.0);
        assert_eq!(out.score_loss_at.len(), 10);
        // Every per-position loss is non-negative.
        assert!(out.score_loss_at.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn single_item_prefix_works() {
        let members = vec![true, false, false, true];
        let group = group_from(&members);
        let ranking = identity_ranking(4);
        let rr = FairRerank::new(1, 0.5).unwrap();
        let out = rr.rerank(&group, &ranking).unwrap();
        assert!(out.satisfied_after);
    }
}
