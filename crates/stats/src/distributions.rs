//! Probability distributions used by the fairness hypothesis tests.
//!
//! * The **normal distribution** backs the z-tests of the proportion and
//!   pairwise fairness measures and the normal approximation used in FA*IR's
//!   p-value computation.
//! * The **binomial distribution** is the heart of FA*IR's ranked group
//!   fairness test: the number of protected candidates in a prefix of length
//!   `k` drawn from a population with protected proportion `p` is modelled as
//!   `Binomial(k, p)`.
//!
//! The normal CDF uses the Abramowitz–Stegun 7.1.26 complementary-error-
//! function approximation (|error| < 1.5e-7) and the quantile uses the
//! Acklam rational approximation refined with one Halley step, which is more
//! than accurate enough for the p-value thresholds (0.01–0.1) used by the
//! label.

use crate::error::{StatsError, StatsResult};
use std::sync::OnceLock;

/// Probability density of the standard normal distribution at `x`.
#[must_use]
pub fn normal_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Cumulative distribution function of the standard normal distribution.
///
/// Uses the Abramowitz–Stegun approximation of erfc; absolute error below
/// 1.5e-7 across the real line.
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    // Φ(x) = 0.5 * erfc(-x / sqrt(2))
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Complementary error function via Abramowitz–Stegun 7.1.26.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Horner evaluation of the A&S polynomial.
    let poly = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        poly
    } else {
        2.0 - poly
    }
}

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// # Errors
/// Returns an error unless `p` lies strictly inside `(0, 1)`.
pub fn normal_quantile(p: f64) -> StatsResult<f64> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidParameter {
            parameter: "p",
            message: format!("quantile level must lie in (0, 1), got {p}"),
        });
    }
    // Acklam's rational approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the accurate CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    Ok(x - u / (1.0 + x * u / 2.0))
}

/// Probability mass function of `Binomial(n, p)` at `k`.
///
/// Computed in log space to stay accurate for large `n`, in O(1): `ln n!`
/// is a table lookup below 256 and Stirling's series above.
///
/// # Errors
/// Returns an error unless `p ∈ [0, 1]` and `k ≤ n`.
pub fn binomial_pmf(k: u64, n: u64, p: f64) -> StatsResult<f64> {
    validate_binomial(n, p)?;
    if k > n {
        return Err(StatsError::InvalidParameter {
            parameter: "k",
            message: format!("k ({k}) must not exceed n ({n})"),
        });
    }
    if p == 0.0 {
        return Ok(if k == 0 { 1.0 } else { 0.0 });
    }
    if p == 1.0 {
        return Ok(if k == n { 1.0 } else { 0.0 });
    }
    let log_pmf = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    Ok(log_pmf.exp())
}

/// The pmf of `Binomial(n, p)` at `k = 0, 1, …, n`, in that order: term `k`
/// has exactly the bits of [`binomial_pmf(k, n, p)`](binomial_pmf).
///
/// `ln p`, `ln(1 − p)` and `ln n!` are computed once for the row rather than
/// once per term, and the iterator is lazy, so a caller that stops early
/// (a running CDF sum that has passed its level) pays only for the terms it
/// read.  [`binomial_cdf`] and [`binomial_quantile`] add these terms left
/// to right.
///
/// # Errors
/// Returns an error unless `p ∈ [0, 1]`.
pub fn binomial_pmf_row(n: u64, p: f64) -> StatsResult<impl Iterator<Item = f64>> {
    validate_binomial(n, p)?;
    let ln_n = ln_factorial(n);
    let (ln_p, ln_q) = (p.ln(), (1.0 - p).ln());
    Ok((0..=n).map(move |k| {
        if p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if p == 1.0 {
            return if k == n { 1.0 } else { 0.0 };
        }
        // `ln_choose(n, k) + k·ln p + (n − k)·ln(1 − p)`, added in
        // `binomial_pmf`'s order.
        let ln_choose = ln_n - ln_factorial(k) - ln_factorial(n - k);
        (ln_choose + k as f64 * ln_p + (n - k) as f64 * ln_q).exp()
    }))
}

/// Cumulative distribution function of `Binomial(n, p)`: `P[X ≤ k]`.
///
/// Sums the pmf left to right over `0..=k`, so one call costs O(k).  Callers
/// that need many CDF values of one `(n, p)` can keep the running sums
/// instead: they are exactly this function's results.
///
/// # Errors
/// Returns an error unless `p ∈ [0, 1]`.
pub fn binomial_cdf(k: u64, n: u64, p: f64) -> StatsResult<f64> {
    validate_binomial(n, p)?;
    if k >= n {
        return Ok(1.0);
    }
    let mut acc = 0.0;
    for pmf in binomial_pmf_row(n, p)?.take(k as usize + 1) {
        acc += pmf;
    }
    Ok(acc.min(1.0))
}

/// Smallest `k` such that `P[X ≤ k] ≥ q` for `X ~ Binomial(n, p)` — the
/// binomial quantile function.  FA*IR uses the lower `α` quantile to derive
/// the minimum number of protected candidates required in each ranking prefix.
///
/// Accumulates the pmf in the same order as [`binomial_cdf`] and stops at the
/// answer, so one call costs O(answer).
///
/// # Errors
/// Returns an error unless `p ∈ [0, 1]` and `q ∈ [0, 1]`.
pub fn binomial_quantile(q: f64, n: u64, p: f64) -> StatsResult<u64> {
    validate_binomial(n, p)?;
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(StatsError::InvalidParameter {
            parameter: "q",
            message: format!("quantile level must lie in [0, 1], got {q}"),
        });
    }
    if q == 0.0 {
        return Ok(0);
    }
    let mut acc = 0.0;
    for (k, pmf) in (0..).zip(binomial_pmf_row(n, p)?) {
        acc += pmf;
        if acc >= q - 1e-12 {
            return Ok(k);
        }
    }
    Ok(n)
}

/// Natural log of the binomial coefficient `C(n, k)`.
fn ln_choose(n: u64, k: u64) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Natural log of `n!`: a table lookup for `n < 256`, Stirling's series above.
fn ln_factorial(n: u64) -> f64 {
    if n < LN_FACTORIAL_TABLE_LEN as u64 {
        return ln_factorial_table()[n as usize];
    }
    // Stirling series with three correction terms.
    let x = n as f64;
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x.powi(3))
}

/// Arguments below this bound read `ln n!` from [`ln_factorial_table`].
const LN_FACTORIAL_TABLE_LEN: usize = 256;

/// `ln n!` for every `n < LN_FACTORIAL_TABLE_LEN`, filled once with the
/// left-to-right running sum `ln 2 + ln 3 + … + ln n`.  That is the order
/// `(2..=n).map(ln).sum()` adds in, so each entry has exactly the bits of
/// the direct sum, while a lookup costs O(1) instead of O(n).
fn ln_factorial_table() -> &'static [f64; LN_FACTORIAL_TABLE_LEN] {
    static TABLE: OnceLock<[f64; LN_FACTORIAL_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0.0; LN_FACTORIAL_TABLE_LEN];
        for n in 2..LN_FACTORIAL_TABLE_LEN {
            table[n] = table[n - 1] + (n as f64).ln();
        }
        table
    })
}

fn validate_binomial(_n: u64, p: f64) -> StatsResult<()> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(StatsError::InvalidParameter {
            parameter: "p",
            message: format!("success probability must lie in [0, 1], got {p}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn normal_pdf_at_zero() {
        assert_close(normal_pdf(0.0), 0.3989422804014327, 1e-12);
    }

    #[test]
    fn normal_pdf_symmetric() {
        assert_close(normal_pdf(1.3), normal_pdf(-1.3), 1e-15);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert_close(normal_cdf(0.0), 0.5, 1e-6);
        assert_close(normal_cdf(1.0), 0.8413447460685429, 1e-6);
        assert_close(normal_cdf(-1.0), 0.15865525393145707, 1e-6);
        assert_close(normal_cdf(1.959_963_985), 0.975, 1e-6);
        assert_close(normal_cdf(-2.575_829_304), 0.005, 1e-6);
    }

    #[test]
    fn normal_cdf_extremes() {
        assert!(normal_cdf(8.0) > 0.999999);
        assert!(normal_cdf(-8.0) < 0.000001);
    }

    #[test]
    fn normal_cdf_is_monotone() {
        let mut prev = 0.0;
        let mut x = -5.0;
        while x <= 5.0 {
            let c = normal_cdf(x);
            assert!(c >= prev);
            prev = c;
            x += 0.01;
        }
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[
            0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999,
        ] {
            let x = normal_quantile(p).unwrap();
            assert_close(normal_cdf(x), p, 1e-7);
        }
    }

    #[test]
    fn normal_quantile_known_values() {
        assert_close(normal_quantile(0.5).unwrap(), 0.0, 1e-6);
        assert_close(normal_quantile(0.975).unwrap(), 1.959_963_985, 1e-6);
        assert_close(normal_quantile(0.05).unwrap(), -1.644_853_627, 1e-6);
    }

    #[test]
    fn normal_quantile_rejects_bounds() {
        assert!(normal_quantile(0.0).is_err());
        assert!(normal_quantile(1.0).is_err());
        assert!(normal_quantile(-0.5).is_err());
        assert!(normal_quantile(f64::NAN).is_err());
    }

    #[test]
    fn binomial_pmf_small_case() {
        // Binomial(4, 0.5): pmf(2) = 6/16.
        assert_close(binomial_pmf(2, 4, 0.5).unwrap(), 0.375, 1e-12);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let n = 30;
        let p = 0.3;
        let total: f64 = (0..=n).map(|k| binomial_pmf(k, n, p).unwrap()).sum();
        assert_close(total, 1.0, 1e-9);
    }

    #[test]
    fn binomial_pmf_degenerate_p() {
        assert_close(binomial_pmf(0, 10, 0.0).unwrap(), 1.0, 1e-15);
        assert_close(binomial_pmf(3, 10, 0.0).unwrap(), 0.0, 1e-15);
        assert_close(binomial_pmf(10, 10, 1.0).unwrap(), 1.0, 1e-15);
        assert_close(binomial_pmf(9, 10, 1.0).unwrap(), 0.0, 1e-15);
    }

    #[test]
    fn binomial_pmf_k_greater_than_n_is_error() {
        assert!(binomial_pmf(11, 10, 0.5).is_err());
    }

    #[test]
    fn binomial_pmf_invalid_p_is_error() {
        assert!(binomial_pmf(1, 10, 1.5).is_err());
        assert!(binomial_pmf(1, 10, -0.1).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn binomial_pmf_row_matches_binomial_pmf_bit_for_bit(
            n in 0u64..=600,
            p in 0.0..=1.0f64,
        ) {
            // n crosses 256, where `ln n!` leaves the table for Stirling's
            // series, so both branches feed the hoisted expression.
            let row: Vec<f64> = binomial_pmf_row(n, p).unwrap().collect();
            prop_assert_eq!(row.len() as u64, n + 1);
            for (k, term) in (0..=n).zip(row) {
                prop_assert_eq!(
                    term.to_bits(),
                    binomial_pmf(k, n, p).unwrap().to_bits(),
                    "pmf({}; {}, {})", k, n, p
                );
            }
        }
    }

    #[test]
    fn binomial_pmf_row_degenerate_and_invalid_p() {
        for p in [0.0, 1.0] {
            for n in [0u64, 1, 7] {
                let row: Vec<f64> = binomial_pmf_row(n, p).unwrap().collect();
                let direct: Vec<f64> = (0..=n).map(|k| binomial_pmf(k, n, p).unwrap()).collect();
                assert_eq!(row, direct, "n={n} p={p}");
            }
        }
        assert!(binomial_pmf_row(10, 1.5).is_err());
        assert!(binomial_pmf_row(10, f64::NAN).is_err());
    }

    #[test]
    fn binomial_cdf_matches_sum() {
        // Binomial(10, 0.4): P[X <= 3] ≈ 0.3822806016.
        assert_close(binomial_cdf(3, 10, 0.4).unwrap(), 0.382_280_601_6, 1e-9);
    }

    #[test]
    fn binomial_cdf_at_n_is_one() {
        assert_close(binomial_cdf(10, 10, 0.7).unwrap(), 1.0, 1e-12);
        assert_close(binomial_cdf(25, 10, 0.7).unwrap(), 1.0, 1e-12);
    }

    #[test]
    fn binomial_quantile_basics() {
        // For Binomial(10, 0.5): P[X <= 1] ≈ 0.0107, P[X <= 2] ≈ 0.0547.
        assert_eq!(binomial_quantile(0.05, 10, 0.5).unwrap(), 2);
        assert_eq!(binomial_quantile(0.01, 10, 0.5).unwrap(), 1);
        assert_eq!(binomial_quantile(1.0, 10, 0.5).unwrap(), 10);
        assert_eq!(binomial_quantile(0.0, 10, 0.5).unwrap(), 0);
    }

    #[test]
    fn binomial_quantile_is_fa_star_ir_table() {
        // Table 1 of the FA*IR paper (Zehlike et al. 2017): for p = 0.5 and
        // alpha = 0.1, the minimum number of protected elements in a prefix of
        // size k is floor of the alpha-quantile; spot-check a few positions:
        // k = 4 -> 1, k = 8 -> 2, k = 15 -> 5.
        assert_eq!(binomial_quantile(0.1, 4, 0.5).unwrap(), 1);
        assert_eq!(binomial_quantile(0.1, 8, 0.5).unwrap(), 2);
        assert_eq!(binomial_quantile(0.1, 15, 0.5).unwrap(), 5);
    }

    #[test]
    fn ln_factorial_table_matches_direct_sum_bit_for_bit() {
        // The direct sum, with `ln 0! = ln 1! = +0.0` (an empty float sum
        // would be `-0.0`).
        for n in 0..LN_FACTORIAL_TABLE_LEN as u64 {
            let direct: f64 = if n < 2 {
                0.0
            } else {
                (2..=n).map(|i| (i as f64).ln()).sum()
            };
            assert_eq!(ln_factorial(n).to_bits(), direct.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn ln_factorial_consistency_small_large() {
        // The Stirling branch must agree with the direct branch at the cut-over.
        let direct: f64 = (2..=255u64).map(|i| (i as f64).ln()).sum();
        assert_close(ln_factorial(255), direct, 1e-9);
        let direct256: f64 = (2..=256u64).map(|i| (i as f64).ln()).sum();
        assert_close(ln_factorial(256), direct256, 1e-6);
    }

    #[test]
    fn large_n_binomial_is_finite_and_normalized() {
        let n = 5000;
        let p = 0.37;
        let pmf_mode = binomial_pmf((n as f64 * p) as u64, n, p).unwrap();
        assert!(pmf_mode.is_finite() && pmf_mode > 0.0);
        let cdf_all = binomial_cdf(n, n, p).unwrap();
        assert_close(cdf_all, 1.0, 1e-9);
    }
}
