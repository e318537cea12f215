//! Comparing two rankings of the same items.
//!
//! The Monte-Carlo stability estimator re-ranks perturbed copies of the data
//! and asks how far the perturbed ranking drifted from the original.  Three
//! classic measures are provided:
//!
//! * [`kendall_tau_rankings`] — Kendall's tau on the rank vectors, from an
//!   inversion count: a bit-sliced partition in the `avx512` module on CPUs
//!   with AVX-512 (the crate's only `unsafe` code), a blocked Fenwick tree
//!   elsewhere.  Both give the same integer, so tau's bits do not depend on
//!   the CPU.
//! * [`spearman_rho_rankings`] — Spearman's rho on the rank vectors.
//! * [`footrule_distance`] — Spearman's footrule (total absolute rank
//!   displacement), plus its normalized variant.

use crate::error::{RankingError, RankingResult};
use crate::ranking::Ranking;
use rf_stats::spearman;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512;

/// Validates that the two rankings cover the same number of items.
fn validate_same_items(a: &Ranking, b: &Ranking) -> RankingResult<()> {
    if a.len() != b.len() {
        return Err(RankingError::IncomparableRankings {
            message: format!("rankings have different sizes ({} vs {})", a.len(), b.len()),
        });
    }
    Ok(())
}

/// Kendall's tau between two rankings of the same items.
///
/// Returns 1.0 for identical orders and −1.0 for exactly reversed orders.
///
/// Because a [`Ranking`] is a tie-free permutation, tau reduces to an
/// inversion count (Knight 1966).  On a CPU with AVX-512 a bit-sliced
/// partition counts it; elsewhere a blocked Fenwick tree counts it in one
/// pass.  Both give the same integer, and the Monte-Carlo trials count the
/// same way in reused buffers
/// ([`TrialScratch::kendall_tau`](crate::TrialScratch::kendall_tau)).  The
/// FA*IR re-ranker, the mitigation view and the
/// materialized Monte-Carlo reference call this on every candidate ranking,
/// so the quadratic pair scan of the general-purpose [`kendall_tau`] would
/// dominate their cost.
///
/// [`kendall_tau`]: rf_stats::kendall_tau
///
/// # Errors
/// Returns an error when the rankings have different sizes or fewer than two
/// items.
pub fn kendall_tau_rankings(a: &Ranking, b: &Ranking) -> RankingResult<f64> {
    validate_same_items(a, b)?;
    if a.len() < 2 {
        return Err(RankingError::IncomparableRankings {
            message: "Kendall tau needs at least two items".to_string(),
        });
    }
    // Walk the items in `a`'s order and read each one's position in `b`.
    let position_in_b = b.rank_vector();
    Ok(kendall_tau_with_scratch(
        a.items().iter().map(|item| position_in_b[item.index] - 1),
        a.len(),
        &mut InversionScratch::default(),
    ))
}

/// Reusable buffers of the inversion count behind Kendall's tau; only the
/// path this CPU runs fills its own.
#[derive(Debug, Clone, Default)]
pub(crate) struct InversionScratch {
    /// Blocked Fenwick count: one occupancy bit per value, 64 per word.
    masks: Vec<u64>,
    /// Blocked Fenwick count: the Fenwick tree of seen values per mask word.
    tree: Vec<usize>,
    /// Bit-sliced count: the partition's ping-pong buffers, `n + 16`
    /// entries each.
    front: Vec<u32>,
    /// See `front`.
    back: Vec<u32>,
}

/// Kendall's tau between two rankings of the same `n >= 2` items, given as
/// the sequence that lists, in one ranking's order, each item's 0-based
/// position in the other: the inversions of that sequence are the pairs the
/// two rankings order differently.  `scratch` is cleared and refilled, so
/// the Monte-Carlo trials reuse it.
pub(crate) fn kendall_tau_with_scratch(
    positions: impl Iterator<Item = usize>,
    n: usize,
    scratch: &mut InversionScratch,
) -> f64 {
    debug_assert!(n >= 2, "caller validates the ranking size");
    let inversions = count_inversions(positions, n, scratch);
    let total_pairs = (n * (n - 1) / 2) as f64;
    1.0 - 2.0 * inversions as f64 / total_pairs
}

/// Counts the inversions of `values`, a permutation of `0..n`, on the
/// fastest path this CPU offers: the bit-sliced partition of the `avx512`
/// module where AVX-512 runs and `n` fits a `u32`, the blocked Fenwick
/// count otherwise.  Both return the same integer.
fn count_inversions(
    values: impl Iterator<Item = usize>,
    n: usize,
    scratch: &mut InversionScratch,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if avx512::available() && u32::try_from(n).is_ok() {
        return avx512::count_inversions(values, n, &mut scratch.front, &mut scratch.back);
    }
    count_inversions_blocked(values, n, &mut scratch.masks, &mut scratch.tree)
}

/// Counts the inversions of `values` — pairs `i < j` with
/// `values[i] > values[j]` — in one pass, without sorting.
///
/// The values must be distinct and below `bound`.  Bit `v % 64` of
/// `masks[v / 64]` marks a value already seen, and `tree` is a Fenwick tree
/// (Fenwick 1994) of seen-value counts per 64-value block.  The number of
/// earlier values below `v` is then a block-prefix query plus one popcount
/// inside `v`'s block, and each value adds `seen − below` inversions.  Both
/// buffers are cleared and refilled; together they take ~`bound / 4` bytes,
/// so a 20k-row count stays in L1.  This is the portable path of
/// [`count_inversions`] and the oracle its AVX-512 path is tested against.
fn count_inversions_blocked(
    values: impl Iterator<Item = usize>,
    bound: usize,
    masks: &mut Vec<u64>,
    tree: &mut Vec<usize>,
) -> u64 {
    let blocks = bound / 64 + 1;
    masks.clear();
    masks.resize(blocks, 0);
    // 1-based Fenwick layout: `tree[j]` covers blocks `j − lowbit(j)..j`.
    tree.clear();
    tree.resize(blocks + 1, 0);
    let mut inversions = 0u64;
    for (seen, value) in values.enumerate() {
        let block = value / 64;
        let bit = 1u64 << (value % 64);
        debug_assert!(
            value < bound && masks[block] & bit == 0,
            "distinct values below bound"
        );
        let mut below = (masks[block] & (bit - 1)).count_ones() as usize;
        let mut j = block;
        while j > 0 {
            below += tree[j];
            j &= j - 1;
        }
        inversions += (seen - below) as u64;
        masks[block] |= bit;
        let mut j = block + 1;
        while j <= blocks {
            tree[j] += 1;
            j += j & j.wrapping_neg();
        }
    }
    inversions
}

/// Spearman's rho between two rankings of the same items.
///
/// # Errors
/// Returns an error when the rankings have different sizes or fewer than two
/// items.
pub fn spearman_rho_rankings(a: &Ranking, b: &Ranking) -> RankingResult<f64> {
    validate_same_items(a, b)?;
    let ra: Vec<f64> = a.rank_vector().iter().map(|&r| r as f64).collect();
    let rb: Vec<f64> = b.rank_vector().iter().map(|&r| r as f64).collect();
    Ok(spearman(&ra, &rb)?)
}

/// Spearman's footrule: `Σ |rank_a(i) − rank_b(i)|` over all items, together
/// with its normalized form in `[0, 1]` (0 = identical, 1 = maximally
/// displaced).
///
/// # Errors
/// Returns an error when the rankings have different sizes.
pub fn footrule_distance(a: &Ranking, b: &Ranking) -> RankingResult<(f64, f64)> {
    validate_same_items(a, b)?;
    let ra = a.rank_vector();
    let rb = b.rank_vector();
    let total: f64 = ra
        .iter()
        .zip(rb.iter())
        .map(|(&x, &y)| (x as f64 - y as f64).abs())
        .sum();
    let n = ra.len() as f64;
    // Maximum footrule distance: n²/2 for even n, (n²−1)/2 for odd n.
    let max = if ra.len().is_multiple_of(2) {
        n * n / 2.0
    } else {
        (n * n - 1.0) / 2.0
    };
    let normalized = if max == 0.0 { 0.0 } else { total / max };
    Ok((total, normalized))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn ranking(order: &[usize]) -> Ranking {
        Ranking::from_order(order).unwrap()
    }

    /// The oracle: counts inversions of `values` with a bottom-up merge
    /// sort, sorting the slice in place as a side effect.
    fn count_inversions(values: &mut [usize]) -> u64 {
        let n = values.len();
        let mut buffer = vec![0usize; n];
        let mut inversions = 0u64;
        let mut width = 1usize;
        while width < n {
            let mut start = 0usize;
            while start + width < n {
                let mid = start + width;
                let end = (start + 2 * width).min(n);
                // Merge values[start..mid] and values[mid..end] into the
                // buffer, counting how many right-half elements jump over
                // left-half ones.
                let (mut left, mut right, mut out) = (start, mid, start);
                while left < mid && right < end {
                    if values[left] <= values[right] {
                        buffer[out] = values[left];
                        left += 1;
                    } else {
                        buffer[out] = values[right];
                        right += 1;
                        inversions += (mid - left) as u64;
                    }
                    out += 1;
                }
                buffer[out..out + (mid - left)].copy_from_slice(&values[left..mid]);
                out += mid - left;
                buffer[out..out + (end - right)].copy_from_slice(&values[right..end]);
                values[start..end].copy_from_slice(&buffer[start..end]);
                start = end;
            }
            width *= 2;
        }
        inversions
    }

    /// Sizes around the 64-value block boundaries of the blocked count; the
    /// random-permutation proptest draws one of these in half its cases.
    const EDGE_SIZES: [usize; 9] = [0, 1, 2, 63, 64, 65, 127, 128, 129];

    fn shuffled(n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        let mut values: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            values.swap(i, rng.gen_range(0..=i));
        }
        values
    }

    /// A permutation of `0..n` in which each value sits near its own
    /// position, the shape a Monte-Carlo trial induces: `i` is displaced by
    /// Laplace noise of scale 1.2% of `n`, so the mean displacement is
    /// ~1.2% of `n` and the largest ~8–11% for `n` from 500 to 5000.
    fn window_displaced(n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        let scale = 0.012 * n as f64;
        let mut keys: Vec<(f64, usize)> = (0..n)
            .map(|i| {
                let unit = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                let magnitude = -unit.ln() * scale;
                let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
                (i as f64 + sign * magnitude, i)
            })
            .collect();
        keys.sort_by(|a, b| a.0.total_cmp(&b.0));
        keys.into_iter().map(|(_, i)| i).collect()
    }

    /// The blocked count of `values`, run on buffers dirtied by a larger
    /// count first so stale masks or tree entries would show.
    fn blocked(values: &[usize]) -> u64 {
        let (mut masks, mut tree) = (Vec::new(), Vec::new());
        let bound = values.len();
        count_inversions_blocked((0..bound + 200).rev(), bound + 200, &mut masks, &mut tree);
        count_inversions_blocked(values.iter().copied(), bound, &mut masks, &mut tree)
    }

    fn oracle(values: &[usize]) -> u64 {
        count_inversions(&mut values.to_vec())
    }

    proptest! {
        #[test]
        fn blocked_inversion_count_matches_oracle_on_random_permutations(
            seed in any::<u64>(),
            pick in 0usize..2 * EDGE_SIZES.len(),
            random_n in 0usize..=5000,
        ) {
            let n = EDGE_SIZES.get(pick).copied().unwrap_or(random_n);
            let values = shuffled(n, &mut ChaCha8Rng::seed_from_u64(seed));
            prop_assert_eq!(blocked(&values), oracle(&values));
        }

        #[test]
        fn blocked_inversion_count_matches_oracle_on_window_displaced_permutations(
            seed in any::<u64>(),
            n in 2usize..=5000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let values = window_displaced(n, &mut rng);
            let inversions = oracle(&values);
            prop_assert_eq!(blocked(&values), inversions);
            // The Monte-Carlo path reads the trial's ranking as original
            // positions; the inverse permutation has the same inversions,
            // so it gives the same tau bit for bit.
            let mut scratch = InversionScratch::default();
            let tau = kendall_tau_with_scratch(values.iter().copied(), n, &mut scratch);
            let mut inverse = vec![0usize; n];
            for (position, &value) in values.iter().enumerate() {
                inverse[value] = position;
            }
            let inverse_tau = kendall_tau_with_scratch(inverse.into_iter(), n, &mut scratch);
            let total_pairs = (n * (n - 1) / 2) as f64;
            prop_assert_eq!(
                tau.to_bits(),
                (1.0 - 2.0 * inversions as f64 / total_pairs).to_bits()
            );
            prop_assert_eq!(inverse_tau.to_bits(), tau.to_bits());
        }
    }

    /// Sizes around the bit-sliced count's 16-lane vectors, its 64-value
    /// leaves and its levels, and the 20k rows of the benchmark's table.
    const BIT_SLICED_SIZES: [usize; 15] = [
        2, 3, 15, 16, 17, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 20_000,
    ];

    /// A permutation of `0..n` of shape `kind`: random, the identity, the
    /// reversal, or trial-shaped near-identity.
    fn permutation(kind: usize, n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        match kind {
            0 => shuffled(n, rng),
            1 => (0..n).collect(),
            2 => (0..n).rev().collect(),
            _ => window_displaced(n, rng),
        }
    }

    /// The dispatched count of `values` — the bit-sliced one on AVX-512
    /// hosts — run on a scratch dirtied by a larger count first.
    fn dispatched(values: &[usize]) -> u64 {
        let mut scratch = InversionScratch::default();
        let bound = values.len() + 200;
        super::count_inversions((0..bound).rev(), bound, &mut scratch);
        super::count_inversions(values.iter().copied(), values.len(), &mut scratch)
    }

    /// The AVX-512 count itself, on dirtied buffers; `None` on hosts
    /// without AVX-512.
    fn bit_sliced(values: &[usize]) -> Option<u64> {
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            let (mut front, mut back) = (Vec::new(), Vec::new());
            let bound = values.len() + 200;
            avx512::count_inversions(0..bound, bound, &mut front, &mut back);
            let n = values.len();
            return Some(avx512::count_inversions(
                values.iter().copied(),
                n,
                &mut front,
                &mut back,
            ));
        }
        None
    }

    proptest! {
        #[test]
        fn bit_sliced_inversion_count_matches_fenwick_and_oracle(
            seed in any::<u64>(),
            size in 0usize..BIT_SLICED_SIZES.len(),
            kind in 0usize..4,
        ) {
            let n = BIT_SLICED_SIZES[size];
            let values = permutation(kind, n, &mut ChaCha8Rng::seed_from_u64(seed));
            let inversions = oracle(&values);
            prop_assert_eq!(blocked(&values), inversions);
            prop_assert_eq!(dispatched(&values), inversions);
            if let Some(count) = bit_sliced(&values) {
                prop_assert_eq!(count, inversions);
            }
        }
    }

    #[test]
    fn bit_sliced_inversion_count_matches_on_every_size_and_shape() {
        if bit_sliced(&[1, 0]).is_none() {
            eprintln!("no AVX-512 on this CPU: the bit-sliced count is skipped");
        }
        for n in BIT_SLICED_SIZES {
            for kind in 0..4 {
                let values = permutation(kind, n, &mut ChaCha8Rng::seed_from_u64(n as u64));
                let inversions = oracle(&values);
                assert_eq!(blocked(&values), inversions, "n={n}, kind {kind}");
                assert_eq!(dispatched(&values), inversions, "n={n}, kind {kind}");
                if let Some(count) = bit_sliced(&values) {
                    assert_eq!(count, inversions, "n={n}, kind {kind}");
                }
            }
        }
    }

    #[test]
    fn blocked_inversion_count_matches_oracle_on_identity_and_reversal() {
        for n in EDGE_SIZES.into_iter().chain([1000, 4096, 5000]) {
            let identity: Vec<usize> = (0..n).collect();
            let reversal: Vec<usize> = (0..n).rev().collect();
            assert_eq!(blocked(&identity), 0, "n={n}");
            assert_eq!(blocked(&identity), oracle(&identity), "n={n}");
            assert_eq!(
                blocked(&reversal),
                (n * n.saturating_sub(1) / 2) as u64,
                "n={n}"
            );
            assert_eq!(blocked(&reversal), oracle(&reversal), "n={n}");
        }
    }

    #[test]
    fn identical_rankings_max_agreement() {
        let a = ranking(&[0, 1, 2, 3]);
        let b = ranking(&[0, 1, 2, 3]);
        assert!((kendall_tau_rankings(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman_rho_rankings(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let (total, norm) = footrule_distance(&a, &b).unwrap();
        assert_eq!(total, 0.0);
        assert_eq!(norm, 0.0);
    }

    #[test]
    fn reversed_rankings_max_disagreement() {
        let a = ranking(&[0, 1, 2, 3]);
        let b = ranking(&[3, 2, 1, 0]);
        assert!((kendall_tau_rankings(&a, &b).unwrap() + 1.0).abs() < 1e-12);
        assert!((spearman_rho_rankings(&a, &b).unwrap() + 1.0).abs() < 1e-12);
        let (total, norm) = footrule_distance(&a, &b).unwrap();
        assert_eq!(total, 8.0); // |1-4|+|2-3|+|3-2|+|4-1| = 3+1+1+3
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_swap_is_mild_disagreement() {
        let a = ranking(&[0, 1, 2, 3]);
        let b = ranking(&[0, 1, 3, 2]);
        let tau = kendall_tau_rankings(&a, &b).unwrap();
        assert!((tau - 4.0 / 6.0).abs() < 1e-12);
        let (total, _) = footrule_distance(&a, &b).unwrap();
        assert_eq!(total, 2.0);
    }

    #[test]
    fn odd_sized_reversal_normalizes_to_one() {
        let a = ranking(&[0, 1, 2, 3, 4]);
        let b = ranking(&[4, 3, 2, 1, 0]);
        let (_, norm) = footrule_distance(&a, &b).unwrap();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn size_mismatch_is_error() {
        let a = ranking(&[0, 1, 2]);
        let b = ranking(&[0, 1]);
        assert!(kendall_tau_rankings(&a, &b).is_err());
        assert!(spearman_rho_rankings(&a, &b).is_err());
        assert!(footrule_distance(&a, &b).is_err());
    }

    #[test]
    fn inversion_counting_matches_the_quadratic_definition() {
        // Cross-check the O(n log n) tau against the general-purpose
        // O(n²) implementation in rf-stats on a batch of pseudo-random
        // permutations.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for n in [2usize, 3, 5, 17, 64, 151] {
            let mut order: Vec<usize> = (0..n).collect();
            // Fisher-Yates with the toy generator above.
            for i in (1..n).rev() {
                order.swap(i, next(i + 1));
            }
            let a = Ranking::from_order(&(0..n).collect::<Vec<_>>()).unwrap();
            let b = Ranking::from_order(&order).unwrap();
            let fast = kendall_tau_rankings(&a, &b).unwrap();
            let ra: Vec<f64> = a.rank_vector().iter().map(|&r| r as f64).collect();
            let rb: Vec<f64> = b.rank_vector().iter().map(|&r| r as f64).collect();
            let slow = rf_stats::kendall_tau(&ra, &rb).unwrap();
            assert!((fast - slow).abs() < 1e-12, "n={n}: {fast} vs {slow}");
        }
    }

    #[test]
    fn count_inversions_handles_edges() {
        assert_eq!(count_inversions(&mut []), 0);
        assert_eq!(count_inversions(&mut [1]), 0);
        assert_eq!(count_inversions(&mut [1, 2, 3]), 0);
        assert_eq!(count_inversions(&mut [3, 2, 1]), 3);
        let mut values = [5, 1, 4, 2, 3];
        assert_eq!(count_inversions(&mut values), 6);
        assert_eq!(values, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_item_rankings_are_rejected() {
        let a = ranking(&[0]);
        let b = ranking(&[0]);
        assert!(kendall_tau_rankings(&a, &b).is_err());
    }

    #[test]
    fn comparisons_are_symmetric() {
        let a = ranking(&[2, 0, 3, 1, 4]);
        let b = ranking(&[0, 1, 2, 4, 3]);
        assert!(
            (kendall_tau_rankings(&a, &b).unwrap() - kendall_tau_rankings(&b, &a).unwrap()).abs()
                < 1e-12
        );
        assert!(
            (spearman_rho_rankings(&a, &b).unwrap() - spearman_rho_rankings(&b, &a).unwrap()).abs()
                < 1e-12
        );
        let (d1, _) = footrule_distance(&a, &b).unwrap();
        let (d2, _) = footrule_distance(&b, &a).unwrap();
        assert_eq!(d1, d2);
    }
}
