//! The FA*IR ranked group fairness test (Zehlike et al., CIKM 2017).
//!
//! FA*IR asks whether *every prefix* of a top-k ranking contains enough
//! members of the protected group to be plausible under a "fair" generative
//! model in which each position is protected independently with probability
//! `p` (the target minimum proportion).  Concretely:
//!
//! 1. For each prefix length `i ∈ 1..=k`, the **minimum protected count**
//!    `m(i)` is the smallest `m` such that `F(m; i, p) > α`, where `F` is the
//!    binomial CDF.  A ranking with fewer protected members in some prefix is
//!    rejected ([`minimum_protected_table`]).
//! 2. Because `k` prefixes are tested simultaneously, using `α` directly
//!    would reject fair rankings far more often than `α`.  FA*IR therefore
//!    computes an **adjusted significance** `α_c ≤ α` such that the overall
//!    probability that a fair ranking fails at least one prefix test equals
//!    `α` ([`adjust_alpha`], computed exactly with dynamic programming rather
//!    than by simulation).
//! 3. The test's p-value for an observed ranking is the worst-prefix binomial
//!    CDF `min_i F(τ_i; i, p)`, where `τ_i` is the observed protected count in
//!    the prefix of length `i`; the ranking satisfies ranked group fairness
//!    iff that p-value exceeds `α_c`.
//!
//! Ranking Facts uses FA*IR "to quantify fairness in every prefix of a top-k
//! list" (paper §2.3).
//!
//! **Cost.** One test builds the binomial CDFs of all its prefixes once, as
//! running pmf sums in the order `rf_stats` adds them: about `p·k²/2` O(1)
//! pmf terms, since each row stops after its first sum above the test's
//! level.  Every table, the adjustment and the per-prefix p-values read
//! from them.  A minimum table is one O(k) walk over the rows: each prefix's
//! answer starts from the previous prefix's, which it differs from by at
//! most one in exact arithmetic.  The exact failure probability of a table
//! is a dynamic program over only the protected counts that can still fail
//! (above every cut so far, below every requirement still to come), in two
//! buffers allocated once per call; the adjustment's 50-step bisection runs
//! it only for tables it has not already evaluated at an end of the search
//! interval.  The sums are capped at 8 MiB per test; a larger `k` reads
//! every CDF from `rf_stats` directly, as before, in O(k) memory.  Every
//! result has exactly the bits of the direct computation.

use crate::error::{FairnessError, FairnessResult};
use crate::group::ProtectedGroup;
use rf_ranking::Ranking;
use rf_stats::{binomial_cdf, binomial_pmf_row, binomial_quantile};

/// Most running sums one [`PrefixCdf`] stores: 2²⁰ f64s, 8 MiB.  That
/// covers `k` up to about 2000 at `p = 0.5`; `top_k` is bounded only by the
/// row count, so a larger test keeps no rows at all.
const MAX_STORED_SUMS: usize = 1 << 20;

/// The binomial CDFs `F(m; i, p)` of every prefix length `i ∈ 1..=k`, built
/// once per `(k, p)` and shared by every table and p-value of one test.
///
/// Row `i` holds the running sums of `binomial_pmf(j; i, p)` for
/// `j = 0, 1, …`, added in the order [`binomial_cdf`] and
/// [`binomial_quantile`] add them, so [`cdf`](PrefixCdf::cdf) and the
/// minimum tables return exactly the bits of those functions.
/// A row stops after its first sum above `level`: no table at a level up to
/// `level` looks further, so the rows hold about `p·k²/2` sums, not `k²`.
/// When that exceeds [`MAX_STORED_SUMS`], no rows are kept and every lookup
/// calls the `rf_stats` functions directly, in O(k) memory.
pub(crate) struct PrefixCdf {
    k: usize,
    p: f64,
    /// The largest significance level the rows are guaranteed to cover.
    level: f64,
    /// `None` when the rows would exceed the budget.
    rows: Option<Rows>,
}

/// Row `i` is `sums[starts[i - 1]..starts[i]]`; `starts[0] == 0`.
struct Rows {
    starts: Vec<usize>,
    sums: Vec<f64>,
}

impl PrefixCdf {
    /// Builds the rows for prefix lengths `1..=k`, or none past
    /// [`MAX_STORED_SUMS`].
    ///
    /// # Errors
    /// Returns an error unless `0 < p < 1`, `0 < level < 1`, and `k > 0`.
    pub(crate) fn new(k: usize, p: f64, level: f64) -> FairnessResult<Self> {
        Self::with_budget(k, p, level, MAX_STORED_SUMS)
    }

    fn with_budget(k: usize, p: f64, level: f64, budget: usize) -> FairnessResult<Self> {
        validate_p_alpha(p, level)?;
        if k == 0 {
            return Err(FairnessError::InvalidK { k, n: 0 });
        }
        Ok(PrefixCdf {
            k,
            p,
            level,
            rows: Rows::build(k, p, level, budget)?,
        })
    }

    fn row(&self, i: usize) -> Option<&[f64]> {
        self.rows.as_ref().map(|rows| rows.row(i))
    }

    /// `binomial_cdf(m, i, p)`, bit for bit.
    fn cdf(&self, m: usize, i: usize) -> FairnessResult<f64> {
        if m >= i {
            return Ok(1.0);
        }
        match self.row(i).and_then(|row| row.get(m)) {
            Some(&sum) => Ok(sum.min(1.0)),
            None => Ok(binomial_cdf(m as u64, i as u64, self.p)?),
        }
    }

    /// `binomial_quantile(q, i, p)`: where each prefix of a table without
    /// stored rows starts its search.
    fn quantile(&self, q: f64, i: usize) -> FairnessResult<usize> {
        Ok(binomial_quantile(q, i as u64, self.p)? as usize)
    }

    /// [`minimum_protected_table`] at `alpha ≤ self.level`: an O(k) walk
    /// over the stored rows, or per prefix a quantile search and step loop
    /// over the `rf_stats` functions when no rows are kept.
    fn minimum_table(&self, alpha: f64) -> FairnessResult<Vec<usize>> {
        if let Some(rows) = &self.rows {
            return Ok(rows.minimum_table(self.k, alpha));
        }
        let mut table = Vec::with_capacity(self.k);
        for i in 1..=self.k {
            // Smallest m with F(m; i, p) > alpha.  The binomial quantile
            // returns the smallest m with F(m) >= alpha; step forward while
            // F(m) <= alpha.
            let mut m = self.quantile(alpha, i)?;
            while self.cdf(m, i)? <= alpha && m < i {
                m += 1;
            }
            // The required minimum is m such that having FEWER than m fails,
            // i.e. counts c with F(c) <= alpha are rejected; the minimum
            // acceptable count is the smallest c with F(c) > alpha.
            table.push(m);
        }
        Ok(table)
    }

    /// [`adjust_alpha`] for `alpha = self.level`.
    ///
    /// Bisection over `α_c ∈ (0, alpha]`; the failure probability is a
    /// non-decreasing step function of `α_c`.  Each probe's table is an O(k)
    /// walk over the stored rows, and [`failure_probability`] runs only for
    /// a table that differs from both ends of the interval: late probes land
    /// on one of the two boundary tables, whose failures are carried along.
    fn adjust_alpha(&self) -> FairnessResult<f64> {
        let alpha = self.level;
        // If even the unadjusted table keeps the family-wise failure below
        // alpha, no adjustment is needed.
        let unadjusted = self.minimum_table(alpha)?;
        let unadjusted_failure = failure_probability(&unadjusted, self.p);
        if unadjusted_failure <= alpha {
            return Ok(alpha);
        }
        let mut lo = 0.0f64;
        let mut hi = alpha;
        let mut lo_end: Option<(Vec<usize>, f64)> = None;
        let mut hi_end = (unadjusted, unadjusted_failure);
        // 50 bisection steps put the interval width far below any meaningful
        // difference in the resulting m-table.
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if mid <= 0.0 {
                break;
            }
            let table = self.minimum_table(mid)?;
            let fail = match &lo_end {
                Some((lo_table, lo_fail)) if *lo_table == table => *lo_fail,
                _ if hi_end.0 == table => hi_end.1,
                _ => failure_probability(&table, self.p),
            };
            if fail > alpha {
                hi = mid;
                hi_end = (table, fail);
            } else {
                lo = mid;
                lo_end = Some((table, fail));
            }
        }
        // `lo` is the largest tested level whose family-wise failure stays
        // within alpha; guard against the degenerate case where even tiny
        // levels fail.
        Ok(if lo > 0.0 { lo } else { hi * 0.5 })
    }

    /// The per-prefix significance level (`self.level`, adjusted for
    /// multiple testing when `adjust` is set) and its minimum table.
    pub(crate) fn required(&self, adjust: bool) -> FairnessResult<(f64, Vec<usize>)> {
        let alpha = if adjust {
            self.adjust_alpha()?
        } else {
            self.level
        };
        Ok((alpha, self.minimum_table(alpha)?))
    }
}

impl Rows {
    /// The cut rows of prefix lengths `1..=k`, or `None` as soon as they
    /// would hold more than `budget` sums.
    fn build(k: usize, p: f64, level: f64, budget: usize) -> FairnessResult<Option<Rows>> {
        let mut starts = Vec::with_capacity(k + 1);
        let mut sums = Vec::new();
        starts.push(0);
        for i in 1..=k as u64 {
            let mut acc = 0.0;
            for pmf in binomial_pmf_row(i, p)? {
                if sums.len() == budget {
                    return Ok(None);
                }
                acc += pmf;
                sums.push(acc);
                if acc > level {
                    break;
                }
            }
            starts.push(sums.len());
        }
        Ok(Some(Rows { starts, sums }))
    }

    /// The running sums of prefix length `i ∈ 1..=k`.
    fn row(&self, i: usize) -> &[f64] {
        &self.sums[self.starts[i - 1]..self.starts[i]]
    }

    /// The minimum table at `alpha ≤ level`, in O(k) row reads.
    ///
    /// Prefix `i` needs the smallest `m < i` with `F(m; i, p) > alpha`, or
    /// `i` when there is none; that is what the quantile search and step
    /// loop of the direct computation return, since `alpha < 1` and a row's
    /// sums never decrease.  The walk starts from prefix `i − 1`'s answer.
    /// In exact arithmetic the answer then stays or moves up by one; the
    /// backward step keeps the walk exact where rounding says otherwise.
    fn minimum_table(&self, k: usize, alpha: f64) -> Vec<usize> {
        let mut table = Vec::with_capacity(k);
        let mut m = 0;
        for i in 1..=k {
            let row = self.row(i);
            // A cut row ends with a sum above `level ≥ alpha`, so a missing
            // sum lies past the answer.
            while m > 0 && row.get(m - 1).is_none_or(|&sum| sum > alpha) {
                m -= 1;
            }
            // Stops inside the row: a cut row's last sum exceeds `alpha`, and
            // a full row holds `i + 1` sums.
            while m < i && row[m] <= alpha {
                m += 1;
            }
            table.push(m);
        }
        table
    }
}

/// Computes the FA*IR minimum-protected-count table: entry `i-1` is the
/// minimum number of protected candidates required among the first `i`
/// positions at significance level `alpha` and target proportion `p`.
///
/// # Errors
/// Returns an error unless `0 < p < 1`, `0 < alpha < 1`, and `k > 0`.
pub fn minimum_protected_table(k: usize, p: f64, alpha: f64) -> FairnessResult<Vec<usize>> {
    PrefixCdf::new(k, p, alpha)?.minimum_table(alpha)
}

/// Exact probability that a ranking generated by the fair model (each of the
/// `k` positions protected independently with probability `p`) violates the
/// minimum-protected table `m_table` in at least one prefix.
///
/// Computed with a dynamic program over (position, protected count) states;
/// states that fall below the required minimum at a position are removed and
/// their mass accumulated, in ascending count, as failure probability.  Each
/// position updates only the window of counts that can still fail: counts
/// below the highest cut so far hold no mass, and a count at or above every
/// requirement still to come can never fail, so its mass never reaches the
/// sum.  A table that only rises (as minimum tables do) therefore costs
/// O(k·w) for a window of width `w ≤ max(m_table)`, in two buffers
/// allocated once.  The result has exactly the bits of the dense O(k²)
/// program.
#[must_use]
pub fn failure_probability(m_table: &[usize], p: f64) -> f64 {
    let k = m_table.len();
    // ceiling[pos] = the largest requirement at positions pos.., the first
    // count that can never fail from there on.
    let mut ceiling = vec![0usize; k + 1];
    for pos in (0..k).rev() {
        ceiling[pos] = ceiling[pos + 1].max(m_table[pos]);
    }
    // Slot c + 1 holds the probability of exactly c protected so far without
    // a violation; slot 0 (count −1) stays zero.  A position writes its
    // window and a zero guard just below it.  The next position reads only
    // those slots and the one count above the window, which no position has
    // written yet, so it still holds its initial zero.
    let mut state = vec![0.0f64; k + 2];
    let mut next = vec![0.0f64; k + 2];
    state[1] = 1.0;
    let q = 1.0 - p;
    // Every count below `lo` has been cut, so its mass is zero.
    let mut lo = 0;
    let mut failure = 0.0;
    for (pos, &required) in m_table.iter().enumerate() {
        // Counts reachable after pos + 1 positions that can still fail.
        let end = (pos + 2).min(ceiling[pos]);
        if lo >= end {
            break;
        }
        // next[c] = state[c − 1]·p + state[c]·(1 − p).  The dense program
        // adds into a zeroed slot and skips zero-mass states; with
        // non-negative masses both give these bits.
        let (below, at) = (&state[lo..end], &state[lo + 1..=end]);
        for ((slot, &below), &at) in next[lo + 1..=end].iter_mut().zip(below).zip(at) {
            *slot = below * p + at * q;
        }
        next[lo] = 0.0;
        // Remove the counts that violate the constraint for prefix pos + 1.
        for slot in &mut next[lo + 1..=required.clamp(lo, end)] {
            failure += *slot;
            *slot = 0.0;
        }
        lo = lo.max(required);
        std::mem::swap(&mut state, &mut next);
    }
    failure.clamp(0.0, 1.0)
}

/// Computes the adjusted significance level `α_c` such that the overall
/// probability of a fair ranking failing the per-prefix test at `α_c` is as
/// close as possible to (and not exceeding) the requested `alpha`.
///
/// Uses 50 steps of bisection over `α_c ∈ (0, alpha]`; the failure
/// probability is a non-decreasing step function of `α_c`.  The binomial
/// CDFs of all prefixes are built once (about `p·k²/2` pmf terms, up to
/// 8 MiB; a larger `k` computes each CDF directly), each probe's table is
/// then an O(k) walk over them, and the windowed exact
/// [`failure_probability`] runs only for tables not already seen at an end
/// of the interval.
///
/// # Errors
/// Returns an error unless `0 < p < 1`, `0 < alpha < 1`, and `k > 0`.
pub fn adjust_alpha(k: usize, p: f64, alpha: f64) -> FairnessResult<f64> {
    PrefixCdf::new(k, p, alpha)?.adjust_alpha()
}

/// Configuration of a FA*IR test.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FairStarTest {
    /// Prefix length to audit (the paper uses the top-10 by default).
    pub k: usize,
    /// Target minimum proportion of the protected group.  Ranking Facts uses
    /// the group's overall proportion in the dataset.
    pub p: f64,
    /// Family-wise significance level (0.05 in the tool).
    pub alpha: f64,
    /// Whether to apply the multiple-testing adjustment (on by default; the
    /// ablation benchmark switches it off to show the difference).
    pub adjust: bool,
}

impl FairStarTest {
    /// Creates a test with the paper's defaults (`alpha = 0.05`, adjusted).
    ///
    /// # Errors
    /// Returns an error unless `0 < p < 1` and `k > 0`.
    pub fn new(k: usize, p: f64) -> FairnessResult<Self> {
        validate_p_alpha(p, 0.05)?;
        if k == 0 {
            return Err(FairnessError::InvalidK { k, n: 0 });
        }
        Ok(FairStarTest {
            k,
            p,
            alpha: 0.05,
            adjust: true,
        })
    }

    /// Sets the family-wise significance level.
    ///
    /// # Errors
    /// Returns an error unless `0 < alpha < 1`.
    pub fn with_alpha(mut self, alpha: f64) -> FairnessResult<Self> {
        validate_p_alpha(self.p, alpha)?;
        self.alpha = alpha;
        Ok(self)
    }

    /// Enables or disables the multiple-testing adjustment.
    #[must_use]
    pub fn with_adjustment(mut self, adjust: bool) -> Self {
        self.adjust = adjust;
        self
    }

    /// Evaluates ranked group fairness of `ranking` with respect to `group`.
    ///
    /// # Errors
    /// Returns an error when `k` exceeds the ranking size or the group does
    /// not cover the ranking.
    pub fn evaluate(
        &self,
        group: &ProtectedGroup,
        ranking: &Ranking,
    ) -> FairnessResult<FairStarOutcome> {
        if self.k == 0 || self.k > ranking.len() {
            return Err(FairnessError::InvalidK {
                k: self.k,
                n: ranking.len(),
            });
        }
        let members = group.membership_in_rank_order(ranking)?;
        let cdfs = PrefixCdf::new(self.k, self.p, self.alpha)?;
        let (alpha_adjusted, required) = cdfs.required(self.adjust)?;

        let mut observed = Vec::with_capacity(self.k);
        let mut count = 0usize;
        let mut worst_prefix_cdf = 1.0f64;
        let mut satisfied = true;
        let mut first_violation = None;
        for i in 1..=self.k {
            if members[i - 1] {
                count += 1;
            }
            observed.push(count);
            let cdf = cdfs.cdf(count, i)?;
            if cdf < worst_prefix_cdf {
                worst_prefix_cdf = cdf;
            }
            if count < required[i - 1] && first_violation.is_none() {
                satisfied = false;
                first_violation = Some(i);
            }
        }

        Ok(FairStarOutcome {
            k: self.k,
            p: self.p,
            alpha: self.alpha,
            alpha_adjusted,
            required_minimums: required,
            observed_counts: observed,
            p_value: worst_prefix_cdf,
            satisfied,
            first_violation_prefix: first_violation,
        })
    }
}

/// Result of a FA*IR evaluation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FairStarOutcome {
    /// Audited prefix length.
    pub k: usize,
    /// Target minimum protected proportion.
    pub p: f64,
    /// Requested family-wise significance level.
    pub alpha: f64,
    /// Adjusted per-prefix significance level actually used.
    pub alpha_adjusted: f64,
    /// Minimum protected count required at each prefix (index `i` = prefix `i+1`).
    pub required_minimums: Vec<usize>,
    /// Observed protected count at each prefix.
    pub observed_counts: Vec<usize>,
    /// Worst-prefix binomial CDF — the test's p-value.
    pub p_value: f64,
    /// Whether ranked group fairness is satisfied at the adjusted level.
    pub satisfied: bool,
    /// The first prefix length at which the constraint was violated, if any.
    pub first_violation_prefix: Option<usize>,
}

fn validate_p_alpha(p: f64, alpha: f64) -> FairnessResult<()> {
    if !(p > 0.0 && p < 1.0) {
        return Err(FairnessError::InvalidParameter {
            parameter: "p",
            message: format!("target proportion must lie strictly in (0, 1), got {p}"),
        });
    }
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(FairnessError::InvalidParameter {
            parameter: "alpha",
            message: format!("significance level must lie strictly in (0, 1), got {alpha}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The minimum table and bisection computed directly: every probe
    /// rebuilds its table from the `rf_stats` functions and runs the exact
    /// DP.  The reference the fast path must match bit for bit.
    fn reference_table(k: usize, p: f64, alpha: f64) -> Vec<usize> {
        (1..=k as u64)
            .map(|i| {
                let mut m = binomial_quantile(alpha, i, p).unwrap();
                while binomial_cdf(m, i, p).unwrap() <= alpha && m < i {
                    m += 1;
                }
                m as usize
            })
            .collect()
    }

    /// The failure probability as a dense O(k²) dynamic program that
    /// allocates a fresh state vector per position: the oracle the windowed
    /// [`failure_probability`] must match bit for bit.
    fn reference_failure_probability(m_table: &[usize], p: f64) -> f64 {
        let k = m_table.len();
        // state[c] = probability of having exactly c protected so far and never
        // having violated a prefix constraint.
        let mut state = vec![0.0f64; k + 1];
        state[0] = 1.0;
        let mut failure = 0.0;
        for (pos, &required) in m_table.iter().enumerate() {
            let mut next = vec![0.0f64; k + 1];
            for (c, &mass) in state.iter().enumerate().take(pos + 1) {
                if mass == 0.0 {
                    continue;
                }
                next[c + 1] += mass * p;
                next[c] += mass * (1.0 - p);
            }
            // Remove states that violate the constraint for prefix length pos+1.
            for (c, slot) in next.iter_mut().enumerate().take(pos + 2) {
                if c < required {
                    failure += *slot;
                    *slot = 0.0;
                }
            }
            state = next;
        }
        failure.clamp(0.0, 1.0)
    }

    fn reference_adjust_alpha(k: usize, p: f64, alpha: f64) -> f64 {
        if reference_failure_probability(&reference_table(k, p, alpha), p) <= alpha {
            return alpha;
        }
        let mut lo = 0.0f64;
        let mut hi = alpha;
        for _ in 0..50 {
            let mid = 0.5 * (lo + hi);
            if mid <= 0.0 {
                break;
            }
            if reference_failure_probability(&reference_table(k, p, mid), p) > alpha {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        if lo > 0.0 {
            lo
        } else {
            hi * 0.5
        }
    }

    #[test]
    fn adjust_alpha_matches_golden_pins() {
        // Values of the direct computation at alpha = 0.05; labels print
        // them, so any drift in the last bit changes label bytes.
        let pins = [
            (20, 0.5, 2.069473266601554e-2),
            (100, 0.5, 9.605407714843752e-3),
            (87, 0.3, 1.2095017416632055e-2),
            (100, 0.3, 1.1475851600401477e-2),
            (300, 0.3, 6.78223072848998e-3),
        ];
        for (k, p, expected) in pins {
            let got = adjust_alpha(k, p, 0.05).unwrap();
            assert_eq!(
                got.to_bits(),
                f64::to_bits(expected),
                "k={k} p={p}: {got:e}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prefix_cdf_matches_rf_stats_bit_for_bit(
            k in 1usize..301,
            p in 0.001..0.999f64,
            alpha in 0.001..0.5f64,
            q_share in 0.0001..1.0f64,
            row_share in 0.0..1.0f64,
        ) {
            let cdfs = PrefixCdf::new(k, p, alpha).unwrap();
            let q = alpha * q_share;
            let i = 1 + ((k - 1) as f64 * row_share) as usize;
            for level in [q, alpha] {
                prop_assert_eq!(
                    cdfs.quantile(level, i).unwrap() as u64,
                    binomial_quantile(level, i as u64, p).unwrap(),
                    "quantile({}, {})", level, i
                );
            }
            for m in 0..=i + 1 {
                let expected = binomial_cdf(m as u64, i as u64, p).unwrap();
                prop_assert_eq!(
                    cdfs.cdf(m, i).unwrap().to_bits(),
                    expected.to_bits(),
                    "cdf({}, {})", m, i
                );
            }
        }
    }

    #[test]
    fn full_rows_answer_like_rf_stats_at_the_highest_level() {
        // Below 1.0 only a row's full pmf total can stay under this level,
        // so some rows keep all `i + 1` sums.
        let level = 1.0 - f64::EPSILON / 2.0;
        let mut full_rows = 0;
        for p in [0.1, 0.5, 0.9] {
            let cdfs = PrefixCdf::new(60, p, level).unwrap();
            for i in 1..=60 {
                full_rows += usize::from(cdfs.row(i).unwrap().len() == i + 1);
                assert_eq!(
                    cdfs.quantile(level, i).unwrap() as u64,
                    binomial_quantile(level, i as u64, p).unwrap(),
                    "p={p} i={i}"
                );
            }
        }
        assert!(full_rows > 0, "no row kept all its sums");
    }

    #[test]
    fn a_test_past_the_budget_keeps_no_rows() {
        // k = 10⁶ would need about 2.5·10¹¹ sums; the build stops at the
        // budget and every lookup goes to rf_stats.
        let cdfs = PrefixCdf::new(1_000_000, 0.5, 0.05).unwrap();
        assert!(cdfs.rows.is_none());
        assert_eq!(
            cdfs.cdf(40, 100).unwrap().to_bits(),
            binomial_cdf(40, 100, 0.5).unwrap().to_bits()
        );
        assert_eq!(
            cdfs.quantile(0.05, 100).unwrap() as u64,
            binomial_quantile(0.05, 100, 0.5).unwrap()
        );
        // Label-sized tests stay within it.
        assert!(PrefixCdf::new(1500, 0.5, 0.05).unwrap().rows.is_some());
    }

    #[test]
    fn rowless_tests_match_the_direct_computation() {
        for (k, p, alpha, budget) in [(20, 0.5, 0.05, 0), (45, 0.3, 0.1, 0), (60, 0.7, 0.05, 200)] {
            let cdfs = PrefixCdf::with_budget(k, p, alpha, budget).unwrap();
            assert!(cdfs.rows.is_none(), "k={k} budget={budget}");
            let reference = reference_adjust_alpha(k, p, alpha);
            assert_eq!(
                cdfs.adjust_alpha().unwrap().to_bits(),
                reference.to_bits(),
                "k={k} p={p}"
            );
            assert_eq!(
                cdfs.minimum_table(reference).unwrap(),
                reference_table(k, p, reference)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn adjust_alpha_matches_reference_bisection(
            k in 1usize..301,
            p in 0.01..0.99f64,
            alpha in 0.005..0.3f64,
        ) {
            let fast = adjust_alpha(k, p, alpha).unwrap();
            let reference = reference_adjust_alpha(k, p, alpha);
            prop_assert_eq!(fast.to_bits(), reference.to_bits(), "{} vs {}", fast, reference);
            prop_assert_eq!(
                minimum_protected_table(k, p, fast).unwrap(),
                reference_table(k, p, fast)
            );
        }
    }

    /// A requirement table with one entry per share.  Shape 0 draws entries
    /// from `0..=len + 3` in any order, many above the `pos + 2` counts a
    /// prefix can reach; shape 1 is all zero; shapes 2 and 3 stay near
    /// FA*IR's tables (at most 0.6 of the prefix), in any order and rising.
    fn arbitrary_table(shares: &[f64], shape: u8) -> Vec<usize> {
        let len = shares.len();
        let mut rising = 0;
        shares
            .iter()
            .enumerate()
            .map(|(pos, &share)| match shape {
                0 => (share * (len + 4) as f64) as usize,
                1 => 0,
                2 => (share * 0.6 * (pos + 1) as f64) as usize,
                _ => {
                    rising = rising.max((share * 0.6 * (pos + 1) as f64) as usize);
                    rising
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn failure_probability_matches_dense_reference_bit_for_bit(
            shares in prop::collection::vec(0.0..1.0f64, 0..=300),
            shape in 0u8..4,
            p in 0.001..=0.999f64,
        ) {
            let table = arbitrary_table(&shares, shape);
            prop_assert_eq!(
                failure_probability(&table, p).to_bits(),
                reference_failure_probability(&table, p).to_bits(),
                "table {:?} at p = {}", table, p
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn minimum_protected_table_walk_matches_reference(
            k in 1usize..301,
            p in 0.001..0.999f64,
            level in 0.001..0.5f64,
        ) {
            // The walk at the rows' own level, where each row's last sum is
            // the first above it, and far below, where answers sit low in
            // the rows.
            let cdfs = PrefixCdf::new(k, p, level).unwrap();
            prop_assert!(cdfs.rows.is_some());
            for alpha in [level, level * 1e-6] {
                prop_assert_eq!(
                    cdfs.minimum_table(alpha).unwrap(),
                    reference_table(k, p, alpha),
                    "alpha = {}", alpha
                );
            }
        }
    }

    #[test]
    fn minimum_table_walk_matches_reference_with_full_rows() {
        // At a level this close to 1 most answers are capped at `i` and some
        // rows keep all their sums.
        let level = 1.0 - f64::EPSILON / 2.0;
        for p in [0.1, 0.5, 0.9] {
            let cdfs = PrefixCdf::new(60, p, level).unwrap();
            assert_eq!(
                cdfs.minimum_table(level).unwrap(),
                reference_table(60, p, level),
                "p={p}"
            );
        }
    }

    fn group_from(members: &[bool]) -> ProtectedGroup {
        ProtectedGroup::from_membership("g", "x", members.to_vec()).unwrap()
    }

    /// Ranking that keeps the original order (row 0 is rank 1, etc.).
    fn identity_ranking(n: usize) -> Ranking {
        let order: Vec<usize> = (0..n).collect();
        Ranking::from_order(&order).unwrap()
    }

    #[test]
    fn minimum_table_matches_fair_star_paper() {
        // p = 0.5, alpha = 0.1 (unadjusted).  Hand-computed from the binomial
        // CDF: the required minimum protected count at positions 1..15 is the
        // smallest m with F(m; i, 0.5) > 0.1.
        let table = minimum_protected_table(15, 0.5, 0.1).unwrap();
        assert_eq!(table, vec![0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5]);
    }

    #[test]
    fn minimum_table_is_monotone_in_prefix() {
        let table = minimum_protected_table(50, 0.3, 0.05).unwrap();
        for w in table.windows(2) {
            assert!(w[1] >= w[0]);
            assert!(w[1] - w[0] <= 1);
        }
    }

    #[test]
    fn minimum_table_grows_with_p() {
        let low = minimum_protected_table(20, 0.2, 0.1).unwrap();
        let high = minimum_protected_table(20, 0.6, 0.1).unwrap();
        for (l, h) in low.iter().zip(high.iter()) {
            assert!(h >= l);
        }
    }

    #[test]
    fn minimum_table_rejects_bad_parameters() {
        assert!(minimum_protected_table(0, 0.5, 0.1).is_err());
        assert!(minimum_protected_table(10, 0.0, 0.1).is_err());
        assert!(minimum_protected_table(10, 1.0, 0.1).is_err());
        assert!(minimum_protected_table(10, 0.5, 0.0).is_err());
    }

    #[test]
    fn failure_probability_zero_for_trivial_table() {
        // Requiring zero protected everywhere can never fail.
        assert_eq!(failure_probability(&[0, 0, 0, 0], 0.5), 0.0);
        assert_eq!(failure_probability(&[], 0.5), 0.0);
    }

    #[test]
    fn failure_probability_increases_with_stricter_table() {
        let lax = failure_probability(&[0, 0, 0, 1, 1], 0.5);
        let strict = failure_probability(&[0, 1, 1, 2, 2], 0.5);
        assert!(strict >= lax);
        assert!((0.0..=1.0).contains(&strict));
    }

    #[test]
    fn failure_probability_matches_hand_computation() {
        // Table [1]: the single position must be protected; failure = 1 - p.
        let f = failure_probability(&[1], 0.3);
        assert!((f - 0.7).abs() < 1e-12);
        // Table [0, 1]: need at least 1 protected within the first 2.
        // Failure = (1-p)^2.
        let f = failure_probability(&[0, 1], 0.3);
        assert!((f - 0.49).abs() < 1e-12);
        // A requirement above the prefix length fails every ranking.
        let f = failure_probability(&[0, 5, 0], 0.3);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adjusted_alpha_never_exceeds_alpha() {
        for &k in &[5usize, 10, 20, 40] {
            for &p in &[0.3, 0.5, 0.7] {
                let a = adjust_alpha(k, p, 0.05).unwrap();
                assert!(a <= 0.05 + 1e-12, "k={k} p={p} a={a}");
                assert!(a > 0.0);
            }
        }
    }

    #[test]
    fn adjusted_alpha_controls_family_wise_error() {
        let k = 20;
        let p = 0.5;
        let alpha = 0.1;
        let a_c = adjust_alpha(k, p, alpha).unwrap();
        let table = minimum_protected_table(k, p, a_c).unwrap();
        let fail = failure_probability(&table, p);
        assert!(
            fail <= alpha + 1e-9,
            "family-wise failure {fail} exceeds alpha {alpha}"
        );
    }

    #[test]
    fn unadjusted_family_wise_error_exceeds_alpha_for_large_k() {
        // This is precisely why FA*IR adjusts: testing many prefixes at the
        // nominal level rejects fair rankings too often.
        let k = 40;
        let p = 0.5;
        let alpha = 0.1;
        let table = minimum_protected_table(k, p, alpha).unwrap();
        let fail = failure_probability(&table, p);
        assert!(fail > alpha, "expected inflation, got {fail}");
    }

    #[test]
    fn evaluate_alternating_ranking_is_fair() {
        // Perfectly alternating protected / non-protected at p = 0.5.
        let members: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let group = group_from(&members);
        let ranking = identity_ranking(20);
        let test = FairStarTest::new(10, 0.5).unwrap();
        let out = test.evaluate(&group, &ranking).unwrap();
        assert!(out.satisfied);
        assert!(out.p_value > out.alpha_adjusted);
        assert_eq!(out.observed_counts.len(), 10);
        assert_eq!(out.first_violation_prefix, None);
    }

    #[test]
    fn evaluate_segregated_ranking_is_unfair() {
        // All non-protected first, all protected last.
        let mut members = vec![false; 10];
        members.extend(vec![true; 10]);
        let group = group_from(&members);
        let ranking = identity_ranking(20);
        let test = FairStarTest::new(10, 0.5).unwrap();
        let out = test.evaluate(&group, &ranking).unwrap();
        assert!(!out.satisfied);
        assert!(out.first_violation_prefix.is_some());
        assert!(out.p_value < 0.01);
        // Observed counts are all zero in the audited prefix.
        assert!(out.observed_counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn evaluate_protected_first_is_fair_for_protected() {
        // All protected at the top can never violate the *minimum* constraint.
        let mut members = vec![true; 10];
        members.extend(vec![false; 10]);
        let group = group_from(&members);
        let ranking = identity_ranking(20);
        let test = FairStarTest::new(10, 0.5).unwrap();
        let out = test.evaluate(&group, &ranking).unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn evaluate_respects_k_bounds() {
        let members = vec![true, false, true, false];
        let group = group_from(&members);
        let ranking = identity_ranking(4);
        let test = FairStarTest::new(10, 0.5).unwrap();
        assert!(matches!(
            test.evaluate(&group, &ranking),
            Err(FairnessError::InvalidK { .. })
        ));
    }

    #[test]
    fn adjustment_flag_changes_threshold() {
        let members: Vec<bool> = (0..30).map(|i| i % 3 == 0).collect();
        let group = group_from(&members);
        let ranking = identity_ranking(30);
        let adjusted = FairStarTest::new(15, 0.33).unwrap();
        let unadjusted = FairStarTest::new(15, 0.33).unwrap().with_adjustment(false);
        let out_a = adjusted.evaluate(&group, &ranking).unwrap();
        let out_u = unadjusted.evaluate(&group, &ranking).unwrap();
        assert!(out_a.alpha_adjusted <= out_u.alpha_adjusted);
        // The unadjusted test uses exactly alpha.
        assert_eq!(out_u.alpha_adjusted, out_u.alpha);
    }

    #[test]
    fn constructor_validations() {
        assert!(FairStarTest::new(0, 0.5).is_err());
        assert!(FairStarTest::new(10, 0.0).is_err());
        assert!(FairStarTest::new(10, 0.5).unwrap().with_alpha(1.5).is_err());
        assert!(FairStarTest::new(10, 0.5).unwrap().with_alpha(0.01).is_ok());
    }
}
