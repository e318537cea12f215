//! The columnar Monte-Carlo trial kernel.
//!
//! The §2.2 stability estimator re-scores and re-ranks the dataset hundreds
//! of times under small random perturbations.  The materialized path does
//! that literally: every trial builds a perturbed [`Table`]
//! ([`TablePerturber::perturb`](crate::TablePerturber::perturb)), re-fits the
//! scoring function against it, and constructs a fresh
//! [`Ranking`] — per-trial allocations linear in the table
//! even though only the scoring columns ever change.
//!
//! [`TrialKernel`] restructures that evaluation plan: fit **once** into flat
//! `f64` column buffers (the non-missing values of each scoring attribute, in
//! row order, plus a row→slot map and a pre-computed noise scale), then per
//! trial perturb and score directly in a reusable [`TrialScratch`] — noise
//! lands in reused buffers, normalization parameters are re-derived from
//! those buffers, scores accumulate into a reused vector, and the ranking is
//! an argsort into reused word buffers.  **Zero tables, zero column clones,
//! zero per-trial allocations** once the scratch has warmed up.
//!
//! ## Byte-identity contract
//!
//! The kernel consumes the trial's RNG in exactly the order the materialized
//! path does (data noise per perturbed column in schema order, then one
//! weight jitter per recipe attribute), draws the noise with the same
//! ziggurat sampler (usually one `u64` and one table compare per value,
//! a column at a time through `crate::perturb::fill_gaussian`, which
//! returns exactly the per-value `gaussian` draws) and performs every
//! floating-point
//! operation in the same order with the same expressions — including the
//! reference path's quirks (weight jitter resets the missing-value policy to
//! its default; a ranking-size mismatch degrades Kendall tau to `0.0`).  The
//! one exception is the order-free folds: the minimum, maximum and
//! finiteness of a perturbed column and of the scores run in [`LANES`]
//! independent lanes ([`lane_range`]).  A lane minimum or maximum equals the
//! serial fold as a number and can differ only in the sign of a zero, which
//! changes no score (`v - lo` differs only at `v = -0.0`, and adding that
//! `±0.0` term to a score that is never `-0.0` gives the same bits) and no
//! sort key ([`descending_sort_key`] maps `-0.0` to `+0.0`).  The resulting
//! ranking, and therefore the Monte-Carlo summary built on it, is
//! **byte-identical** to the materialized path for every seed — asserted by
//! the unit tests below and by `rf-stability`'s parity proptests.
//!
//! ## Tile layout
//!
//! Every hot loop is blocked over [`TILE`]-row chunks of the flat column
//! buffers (structure-of-arrays: the scores, the packed values, and the
//! row→slot map advance together, one contiguous tile at a time).  On the
//! exact path the per-element operation order inside a tile is unchanged, so
//! blocking changes no bits — it only hands the compiler fixed-size,
//! branch-predictable inner loops it can unroll and auto-vectorize.
//!
//! ## The argsort carries the original position
//!
//! The finite scores map to monotone `u64` keys ([`descending_sort_key`]),
//! and `packed_argsort` orders the rows exactly as `(key, row)` pairs
//! would sort, carrying each row's position in the original ranking as its
//! payload.  The sorted payloads are the trial's ranking written in original
//! positions, and a permutation and its inverse have the same inversions,
//! so Kendall's tau counts them in order (Knight 1966), with no rank vector
//! scattered or gathered: a bit-sliced AVX-512 partition where the CPU has
//! it, the blocked Fenwick count elsewhere (see `crate::compare`).  The top-k overlap counts the payloads below `k`
//! among the first `k`; the top item changed when the first payload is not
//! `0`.

//! ## Relaxed float mode (`relaxed_fp`)
//!
//! [`TrialKernel::with_relaxed_fp`] unlocks float-op *reassociation* in the
//! post-noise stages: multi-lane sum reductions for the z-score variance,
//! reciprocal-multiply normalization (`(v - a) * inv` instead of
//! `(v - a) / denom`), and a branch-free masked gather for sparse columns.
//! The RNG stream, the noise values, and the draw order are **unchanged** —
//! only reductions and division strength are reassociated, so per-row scores
//! stay within ~`1e-9` relative error of the exact path (the observed error
//! is `O(n · ε)`, far smaller) and rankings of well-separated data are
//! identical.  The flag defaults to **off**: the exact path remains
//! byte-identical to the materialized reference.

use crate::compare::InversionScratch;
use crate::error::{RankingError, RankingResult};
use crate::perturb::fill_gaussian;
use crate::ranking::Ranking;
use crate::score::{MissingValuePolicy, ScoringFunction};
use rand::Rng;
use rf_table::{NormalizationMethod, Table, TableError};

/// Sentinel in a kernel column's row map: the row's value is missing.
const MISSING: usize = usize::MAX;

/// Row-tile size of the blocked kernel loops.
///
/// Scoring, stat folds, and sort-key construction walk the flat buffers in
/// chunks of this many rows.  128 `f64`s = 1 KiB per buffer tile: small
/// enough that a score tile, a value tile, and a row-map tile sit in L1
/// together, large enough to amortize loop overhead and give the
/// auto-vectorizer long straight-line runs.
pub const TILE: usize = 128;

/// Maps a finite `f64` score to a `u64` key whose **ascending** integer
/// order is the score's **descending** numeric order.
///
/// `-0.0` is normalized to `+0.0` first so the key order agrees with
/// `partial_cmp` (which treats the two zeros as equal).  The caller
/// guarantees finiteness — the ranking validates every score before
/// sorting — so NaN never reaches the key.  Sorting `(key, row)` pairs with
/// an unstable integer sort then reproduces the stable descending
/// comparator sort exactly: equal scores map to equal keys and the row
/// index breaks the tie in ascending (original) order.
#[inline]
#[must_use]
pub fn descending_sort_key(score: f64) -> u64 {
    let score = if score == 0.0 { 0.0 } else { score };
    let bits = score.to_bits();
    let ascending = if score.is_sign_negative() {
        !bits
    } else {
        bits | (1 << 63)
    };
    !ascending
}

/// Independent accumulator lanes of [`lane_range`]: enough to break the
/// serial dependency chain of a fold, few enough to stay in registers.
const LANES: usize = 4;

/// `(min, max, all_finite)` of `values`, each folded in [`LANES`]
/// independent lanes that merge at the end; `(∞, -∞, true)` when `values`
/// is empty.  NaN is skipped by the minimum and the maximum, as `f64::min`
/// and `f64::max` skip it, and clears the finiteness flag.
///
/// The three folds do not depend on order, so the lanes give the serial
/// folds' results as numbers; only the sign of a zero minimum or maximum
/// may differ (`-0.0 == 0.0`), and the kernel's callers are insensitive to
/// it (see the module docs).
#[must_use]
pub(crate) fn lane_range(values: &[f64]) -> (f64, f64, bool) {
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    // `v * 0.0` is a zero for a finite `v` and NaN for NaN and `±∞`, and
    // NaN sticks in a sum: a lane's sum stays zero exactly while its values
    // are finite.  A multiply and an add per vector instead of a mask fold.
    let mut nonfinite = [0.0f64; LANES];
    let mut fold = |lane: usize, value: f64| {
        // A compare-and-select keeps the lane when `value` is NaN: one
        // `minpd`/`maxpd` per vector, with `f64::min`'s result.
        lo[lane] = if value < lo[lane] { value } else { lo[lane] };
        hi[lane] = if value > hi[lane] { value } else { hi[lane] };
        nonfinite[lane] += value * 0.0;
    };
    let mut chunks = values.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &value) in chunk.iter().enumerate() {
            fold(lane, value);
        }
    }
    for (lane, &value) in chunks.remainder().iter().enumerate() {
        fold(lane, value);
    }
    (
        lo.into_iter().fold(f64::INFINITY, f64::min),
        hi.into_iter().fold(f64::NEG_INFINITY, f64::max),
        nonfinite.into_iter().all(|sum| sum == 0.0),
    )
}

/// Below this many rows a comparison sort of `(key, row)` beats
/// [`packed_argsort`] (measured on a 2-vCPU Xeon; both give one order).
pub(crate) const RADIX_CUTOFF: usize = 4 * TILE;

/// Argsorts `values` into `words`, word `i` being `digit << 32 |
/// payload(row)` for the `i`-th row in the order of `sort_unstable` on
/// `(descending_sort_key(value), row)` pairs.
///
/// `lo` and `hi` are the smallest and largest value ([`lane_range`]; the
/// sign of a zero does not matter).  All keys share the leading bits that
/// the keys of `lo` and `hi` share; the digit is the 32 key bits just below
/// them, sorted by at most four stable LSD byte passes (a constant byte
/// needs none), which keep equal digits in row order.  When fewer than 32
/// bits are shared the digit drops the key's low bits, so a run of equal
/// digits whose keys differ is re-sorted by `(key, row)`, with `row_of`
/// mapping payloads back to rows.
/// Payloads are distinct and the row count fits a `u32`; `words` and its
/// ping-pong buffer `tmp` may swap.
pub(crate) fn packed_argsort(
    values: &[f64],
    (lo, hi): (f64, f64),
    payload: impl Fn(usize) -> u32,
    row_of: impl Fn(u32) -> usize,
    words: &mut Vec<u64>,
    tmp: &mut Vec<u64>,
) {
    let n = values.len();
    debug_assert!(u32::try_from(n).is_ok(), "row count fits a u32");
    let shared = (descending_sort_key(hi) ^ descending_sort_key(lo)).leading_zeros();
    let shift = 32u32.saturating_sub(shared);
    let mut histograms = [[0u32; 256]; 4];
    words.clear();
    words.extend(values.iter().enumerate().map(|(row, &value)| {
        let digit = (descending_sort_key(value) >> shift) as u32;
        for (pass, histogram) in histograms.iter_mut().enumerate() {
            histogram[(digit >> (8 * pass)) as u8 as usize] += 1;
        }
        u64::from(digit) << 32 | u64::from(payload(row))
    }));
    // Each pass writes a permutation of the words, so `tmp` is resized, not
    // cleared: a warm buffer pays nothing for the fill.
    tmp.resize(n, 0);
    for (pass, histogram) in histograms.iter().enumerate() {
        if histogram.iter().any(|&count| count as usize == n) {
            continue;
        }
        let mut offsets = [0u32; 256];
        for bucket in 1..256 {
            offsets[bucket] = offsets[bucket - 1] + histogram[bucket - 1];
        }
        let shift = 32 + 8 * pass;
        for &word in words.iter() {
            let bucket = (word >> shift) as u8 as usize;
            tmp[offsets[bucket] as usize] = word;
            offsets[bucket] += 1;
        }
        std::mem::swap(words, tmp);
    }
    if shift == 0 {
        // The digit is the whole unshared key: equal digits, equal keys.
        return;
    }
    let key = |word: u64| {
        let row = row_of(word as u32);
        (descending_sort_key(values[row]), row)
    };
    for run in words.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        if run.len() < 2 {
            continue;
        }
        let first = key(run[0]).0;
        if run[1..].iter().any(|&word| key(word).0 != first) {
            run.sort_unstable_by_key(|&word| key(word));
        }
    }
}

/// One unique scoring column, fitted into flat buffers.
#[derive(Debug, Clone)]
struct KernelColumn {
    /// Non-missing values in row order (the order noise is drawn in).
    packed: Vec<f64>,
    /// `row_map[row]` is the row's index into `packed`, or [`MISSING`].
    row_map: Vec<usize>,
    /// Absolute Gaussian noise scale (`data_noise ×` the column's stddev);
    /// meaningful only when the kernel was fitted with data noise.
    scale: f64,
    /// `true` when the column has no missing values — `row_map` is then the
    /// identity and scoring can stream the packed buffer directly.
    dense: bool,
    /// Whether a trial reads the column's perturbed sum: as the z-score
    /// mean, or as the imputation mean of a sparse column under
    /// [`MissingValuePolicy::MeanImpute`].  Otherwise the trial skips it.
    sum_read: bool,
}

/// Statistics of one column's perturbed values for one trial.  The min/max
/// folds of the normalizer fit and the finiteness check of `rf_stats::mean`
/// do not depend on order: they run in [`LANES`] lanes ([`lane_range`]),
/// tile by tile while the noise is written.  The summation behind the
/// z-score and imputation means does: it stays one serial fold in row
/// order, the reference's exact sequence, and runs only when the column's
/// sum is read (`KernelColumn::sum_read`); `sum` is NaN otherwise.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnTrialStats {
    min: f64,
    max: f64,
    sum: f64,
    all_finite: bool,
}

/// One recipe attribute: its weight and the kernel column it reads.
#[derive(Debug, Clone)]
struct KernelAttr {
    name: String,
    weight: f64,
    column: usize,
}

/// A Monte-Carlo trial plan fitted once from `(table, scoring, noise)`:
/// everything a trial needs, reduced to flat `f64` buffers.
///
/// Each call to [`TrialKernel::rank_trial`] perturbs, scores, and ranks one
/// trial entirely inside the caller's [`TrialScratch`].  The kernel itself is
/// immutable and `Sync`, so one fitted kernel is shared across concurrently
/// running trial tasks, each with its own RNG stream and scratch.
#[derive(Debug, Clone)]
pub struct TrialKernel {
    rows: usize,
    normalization: NormalizationMethod,
    missing_policy: MissingValuePolicy,
    /// Whether trials draw data noise (fitted with `data_noise > 0`).
    data_noise: bool,
    weight_noise: f64,
    /// Unique scoring columns in **schema order** — the draw order of the
    /// materialized perturber.
    columns: Vec<KernelColumn>,
    /// Recipe attributes in declaration order — the scoring order.
    attrs: Vec<KernelAttr>,
    /// The `(row, attribute index)` of the first missing scoring cell in the
    /// reference's row-major, attribute-inner scan order, if any.
    /// Missingness is static, so the cell the error policy trips on is
    /// known at fit time.
    first_missing: Option<(usize, usize)>,
    /// Normalization parameters per attribute, pre-computed when the data is
    /// never perturbed (they are then identical for every trial).
    static_params: Option<Vec<(f64, f64)>>,
    /// Mean-imputation fallbacks per attribute, pre-computed likewise.
    static_means: Option<Vec<f64>>,
    /// Per row: its position in the original ranking, the payload the
    /// argsort carries.  Rows that ranking does not cover (a ranking of
    /// another table) take the positions after its end.
    positions: Vec<u32>,
    /// The inverse of `positions`: the row holding each position.
    rows_by_position: Vec<u32>,
    /// Whether the post-noise stages may reassociate float operations (lane
    /// sums, reciprocal multiplies, masked gathers).  Default `false`:
    /// byte-identical to the materialized path.
    relaxed_fp: bool,
}

/// Reusable per-trial working memory: perturbed column buffers, jittered
/// weights, normalization parameters, scores, the argsort's words, and the
/// Kendall-tau count's buffers.  Create once ([`TrialKernel::scratch`]) and
/// reuse across trials — after the first trial, [`TrialKernel::rank_trial`]
/// and [`TrialScratch::kendall_tau`] allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct TrialScratch {
    /// Perturbed packed values, one buffer per kernel column.
    perturbed: Vec<Vec<f64>>,
    /// Single-pass per-column statistics of this trial's perturbed values.
    col_stats: Vec<ColumnTrialStats>,
    /// Effective (jittered) weights, recipe order.
    weights: Vec<f64>,
    /// Per-attribute normalization parameters for this trial.
    params: Vec<(f64, f64)>,
    /// Per-attribute mean-imputation fallbacks for this trial.
    means: Vec<f64>,
    /// Per-row scores.
    scores: Vec<f64>,
    /// The trial's ranking, best first: the low 32 bits of each word are
    /// the row's position in the original ranking (see [`packed_argsort`]).
    words: Vec<u64>,
    /// Ping-pong buffer of the argsort passes; the sort keys below
    /// [`RADIX_CUTOFF`].
    tmp: Vec<u64>,
    /// Kendall-tau scratch: the bit-sliced count's two `u32` ping-pong
    /// buffers of `n + 16` entries on AVX-512 hosts, the blocked Fenwick
    /// count's occupancy masks and tree elsewhere.
    tau: InversionScratch,
}

impl TrialScratch {
    /// The trial's ranking, best first, as positions in the original
    /// ranking the kernel was fitted with: entry `i` is the original
    /// position of the row this trial ranks `i`-th.  Valid after a
    /// successful [`TrialKernel::rank_trial`].
    pub fn original_positions(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.words.iter().map(|&word| word as u32 as usize)
    }

    /// Kendall's tau of this trial's ranking against the original one, from
    /// the inversions of [`original_positions`](Self::original_positions).
    /// Byte-identical to [`kendall_tau_rankings`](crate::kendall_tau_rankings);
    /// the caller guarantees the original ranking covers the `n >= 2` rows.
    #[must_use]
    pub fn kendall_tau(&mut self) -> f64 {
        crate::compare::kendall_tau_with_scratch(
            self.words.iter().map(|&word| word as u32 as usize),
            self.words.len(),
            &mut self.tau,
        )
    }
}

impl TrialKernel {
    /// Fits the kernel: resolves every scoring attribute into flat buffers,
    /// pre-computes each perturbed column's noise scale (`data_noise ×` its
    /// standard deviation), and — when the data is never perturbed —
    /// pre-computes the trial-invariant normalization parameters and
    /// mean-imputation fallbacks.  `original` is the ranking the trials are
    /// compared with: each row's position in it is the payload the trial
    /// argsort carries ([`TrialScratch::original_positions`]).
    ///
    /// Surfaces exactly the errors the materialized path would: unknown or
    /// non-numeric scoring attributes (recipe order), statistics failures
    /// while fitting noise scales (schema order), and — for noise-free data,
    /// where they are trial-invariant — normalization failures such as a
    /// constant column under min-max.
    ///
    /// # Errors
    /// As described above, and [`RankingError::IncomparableRankings`] when
    /// the table or the ranking has more than `u32::MAX` rows.
    pub fn fit(
        table: &Table,
        scoring: &ScoringFunction,
        original: &Ranking,
        data_noise: f64,
        weight_noise: f64,
    ) -> RankingResult<Self> {
        let rows = table.num_rows();
        if u32::try_from(rows.max(original.len())).is_err() {
            return Err(RankingError::IncomparableRankings {
                message: format!("the trial kernel ranks at most {} rows", u32::MAX),
            });
        }
        let attr_names: Vec<&str> = scoring.attribute_names();
        // The materialized path validates the recipe attributes first
        // (perturber fit with data noise, `validate_against` without).
        for &name in &attr_names {
            table.require_numeric(name)?;
        }
        let has_data_noise = data_noise > 0.0;

        // Unique scoring columns in schema order — the perturber's draw
        // order.
        let mut columns: Vec<KernelColumn> = Vec::new();
        let mut column_names: Vec<&str> = Vec::new();
        for field in table.schema().fields() {
            let name = field.name.as_str();
            if !attr_names.contains(&name) {
                continue;
            }
            let options = table.numeric_column_options(name)?;
            let mut packed = Vec::with_capacity(options.len());
            let mut row_map = Vec::with_capacity(options.len());
            for opt in &options {
                match opt {
                    Some(v) => {
                        row_map.push(packed.len());
                        packed.push(*v);
                    }
                    None => row_map.push(MISSING),
                }
            }
            let scale = if has_data_noise {
                // Same computation (and error path) as the perturber's fit:
                // stddev of the non-missing values when there are at least
                // two, zero otherwise.
                let sd = if packed.len() >= 2 {
                    rf_stats::stddev(&packed)?
                } else {
                    0.0
                };
                sd * data_noise
            } else {
                0.0
            };
            let dense = packed.len() == row_map.len();
            let sum_read = scoring.normalization() == NormalizationMethod::ZScore
                || (scoring.missing_policy() == MissingValuePolicy::MeanImpute && !dense);
            column_names.push(name);
            columns.push(KernelColumn {
                packed,
                row_map,
                scale,
                dense,
                sum_read,
            });
        }

        let attrs: Vec<KernelAttr> = scoring
            .weights()
            .iter()
            .map(|w| KernelAttr {
                name: w.attribute.clone(),
                weight: w.weight,
                column: column_names
                    .iter()
                    .position(|&n| n == w.attribute)
                    .expect("require_numeric guarantees every attribute resolves"),
            })
            .collect();

        // The cell the error policy would trip on, in the reference's
        // row-major, attribute-inner order: the smallest missing row over
        // the recipe's sparse columns, ties broken by attribute position
        // (an attribute missing at that row has it as its first missing
        // row, so first-missing-row candidates decide both components).
        let first_missing = attrs
            .iter()
            .enumerate()
            .filter(|(_, attr)| !columns[attr.column].dense)
            .map(|(index, attr)| {
                let row = columns[attr.column]
                    .row_map
                    .iter()
                    .position(|&slot| slot == MISSING)
                    .expect("sparse column has a missing row");
                (row, index)
            })
            .min();

        // Each row's payload is its original position.  A ranking of a
        // shorter table leaves the last rows uncovered: they take the
        // positions after its end, so payloads stay distinct and none falls
        // in its top k.
        let mut positions: Vec<u32> = original
            .rank_vector()
            .into_iter()
            .take(rows)
            .map(|rank| (rank - 1) as u32)
            .collect();
        positions.extend(original.len() as u32..rows as u32);
        let mut rows_by_position = vec![0u32; rows.max(original.len())];
        for (row, &position) in positions.iter().enumerate() {
            rows_by_position[position as usize] = row as u32;
        }

        let mut kernel = TrialKernel {
            rows,
            normalization: scoring.normalization(),
            missing_policy: scoring.missing_policy(),
            data_noise: has_data_noise,
            weight_noise,
            columns,
            attrs,
            first_missing,
            static_params: None,
            static_means: None,
            positions,
            rows_by_position,
            relaxed_fp: false,
        };
        if !has_data_noise {
            // Without data noise every trial re-derives identical parameters
            // from identical values; hoist them out of the trial loop.  Any
            // error here is exactly the error every trial would report.
            let mut params = Vec::with_capacity(kernel.attrs.len());
            let mut means = Vec::with_capacity(kernel.attrs.len());
            for index in 0..kernel.attrs.len() {
                params.push(kernel.fit_attr_params(index, None)?);
            }
            for index in 0..kernel.attrs.len() {
                means.push(kernel.fit_attr_mean(index, None)?);
            }
            kernel.static_params = Some(params);
            kernel.static_means = Some(means);
        }
        Ok(kernel)
    }

    /// Number of rows of the fitted table (the length of every trial
    /// ranking).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Enables (or disables) relaxed float mode — see the module docs for
    /// the contract.  Off by default; off means byte-identical to the
    /// materialized path.
    #[must_use]
    pub fn with_relaxed_fp(mut self, relaxed: bool) -> Self {
        self.relaxed_fp = relaxed;
        self
    }

    /// Fresh working memory for this kernel, sized lazily by the first trial.
    #[must_use]
    pub fn scratch(&self) -> TrialScratch {
        let mut scratch = TrialScratch::default();
        scratch.perturbed.resize(self.columns.len(), Vec::new());
        scratch
            .col_stats
            .resize(self.columns.len(), ColumnTrialStats::default());
        scratch
    }

    /// The packed values attribute `index` reads this trial: the perturbed
    /// buffer when one is in play, the fitted base values otherwise.
    fn attr_values<'a>(&'a self, index: usize, perturbed: Option<&'a [Vec<f64>]>) -> &'a [f64] {
        let column = self.attrs[index].column;
        match perturbed {
            Some(buffers) => &buffers[column],
            None => &self.columns[column].packed,
        }
    }

    /// Normalization parameters of attribute `index` for this trial,
    /// replicating `Normalizer::fit` on the (perturbed) column: `(lo, hi)`
    /// for min-max, `(mean, sd)` for z-score, `(0, 1)` for raw.
    fn fit_attr_params(
        &self,
        index: usize,
        perturbed: Option<&[Vec<f64>]>,
    ) -> RankingResult<(f64, f64)> {
        let name = &self.attrs[index].name;
        let values = self.attr_values(index, perturbed);
        if values.is_empty() {
            return Err(RankingError::Table(TableError::Normalization {
                column: name.clone(),
                message: "column has no non-missing values".to_string(),
            }));
        }
        Ok(match self.normalization {
            NormalizationMethod::None => (0.0, 1.0),
            NormalizationMethod::MinMax => {
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if (hi - lo).abs() < f64::EPSILON {
                    return Err(RankingError::Table(TableError::Normalization {
                        column: name.clone(),
                        message: "column is constant; min-max scaling is undefined".to_string(),
                    }));
                }
                (lo, hi)
            }
            NormalizationMethod::ZScore => {
                let mean = rf_stats::mean(values).map_err(TableError::from)?;
                let sd = if values.len() >= 2 {
                    rf_stats::stddev(values).map_err(TableError::from)?
                } else {
                    0.0
                };
                if sd < f64::EPSILON {
                    return Err(RankingError::Table(TableError::Normalization {
                        column: name.clone(),
                        message: "column has zero variance; z-score is undefined".to_string(),
                    }));
                }
                (mean, sd)
            }
        })
    }

    /// Mean-imputation fallback of attribute `index` for this trial,
    /// replicating the scoring fit's prepared-attribute means.
    fn fit_attr_mean(&self, index: usize, perturbed: Option<&[Vec<f64>]>) -> RankingResult<f64> {
        let values = self.attr_values(index, perturbed);
        if values.is_empty() {
            Ok(0.0)
        } else {
            Ok(rf_stats::mean(values)?)
        }
    }

    /// One normalized value under this trial's parameters — the arithmetic of
    /// `Normalizer::transform_value`, verbatim.
    fn transform(&self, value: f64, params: (f64, f64)) -> f64 {
        match self.normalization {
            NormalizationMethod::None => value,
            NormalizationMethod::MinMax => (value - params.0) / (params.1 - params.0),
            NormalizationMethod::ZScore => (value - params.0) / params.1,
        }
    }

    /// Runs one trial in `scratch`: draw the data noise, jitter the weights,
    /// re-fit the normalization, score every row, and argsort the ranking —
    /// all without allocating once the scratch is warm.  On success
    /// [`TrialScratch::original_positions`] holds the trial's ranking.
    ///
    /// Consumes `rng` exactly like the materialized trial (perturbed columns
    /// in schema order, one Gaussian per non-missing value; then one uniform
    /// jitter per recipe weight), so a fitted kernel fed the same per-trial
    /// stream reproduces the materialized ranking byte for byte.
    ///
    /// # Errors
    /// The errors of the materialized path, in the same order: invalid
    /// jittered weights, per-trial normalization failures, missing values
    /// under the error policy, and non-finite scores.
    pub fn rank_trial<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut TrialScratch,
    ) -> RankingResult<()> {
        // 1. Data noise, per perturbed column in schema order, one Gaussian
        //    per non-missing value in row order — the perturber's draw order.
        //    The order-free statistics the later stages need (the
        //    normalizer's min and max, the means' finiteness check) fold in
        //    lanes over each tile while it is in L1; a lane result differs
        //    from the serial fold at most in the sign of a zero, which no
        //    score or sort key sees (module docs).  The sum is a serial fold
        //    in row order, the reference's exact sequence, and runs only for
        //    a column whose sum a z-score or an imputation mean reads.
        let perturbed = if self.data_noise {
            for ((column, buffer), stats) in self
                .columns
                .iter()
                .zip(scratch.perturbed.iter_mut())
                .zip(scratch.col_stats.iter_mut())
            {
                // The column's standard normals in one bulk pass, written
                // where the perturbed values go and turned into them below.
                buffer.resize(column.packed.len(), 0.0);
                fill_gaussian(rng, buffer);
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                let mut all_finite = true;
                for (tile, out) in column.packed.chunks(TILE).zip(buffer.chunks_mut(TILE)) {
                    for (&base, slot) in tile.iter().zip(out.iter_mut()) {
                        *slot = base + *slot * column.scale;
                    }
                    let (lo, hi, finite) = lane_range(out);
                    min = min.min(lo);
                    max = max.max(hi);
                    all_finite &= finite;
                }
                let sum = if column.sum_read {
                    buffer.iter().fold(0.0, |sum, &value| sum + value)
                } else {
                    f64::NAN
                };
                *stats = ColumnTrialStats {
                    min,
                    max,
                    sum,
                    all_finite,
                };
            }
            true
        } else {
            false
        };

        // 2. Weight jitter, one uniform draw per recipe weight.  The
        //    reference (`perturb_weights` + `ScoringFunction` revalidation)
        //    draws every jitter before validating and falls back to the
        //    original weights when the jittered set is all zero.  The
        //    missing-value policy carries over either way.
        scratch.weights.clear();
        if self.weight_noise > 0.0 {
            for attr in &self.attrs {
                let jitter = 1.0 + rng.gen_range(-self.weight_noise..=self.weight_noise);
                scratch.weights.push(attr.weight * jitter);
            }
            if scratch.weights.iter().all(|&w| w == 0.0) {
                scratch.weights.clear();
                scratch.weights.extend(self.attrs.iter().map(|a| a.weight));
            } else {
                for (attr, &weight) in self.attrs.iter().zip(scratch.weights.iter()) {
                    if !weight.is_finite() {
                        return Err(RankingError::InvalidWeight {
                            attribute: attr.name.clone(),
                            message: format!("weight must be finite, got {weight}"),
                        });
                    }
                }
            }
        } else {
            scratch.weights.extend(self.attrs.iter().map(|a| a.weight));
        }

        // 3. Per-trial normalization parameters and imputation means —
        //    re-derived from this trial's fused column statistics, or copied
        //    from the trial-invariant fit.  Parameters for every attribute
        //    are fitted before any mean, matching the reference's error
        //    order.
        scratch.params.clear();
        scratch.means.clear();
        match (&self.static_params, &self.static_means) {
            (Some(params), Some(means)) => {
                scratch.params.extend_from_slice(params);
                scratch.means.extend_from_slice(means);
            }
            _ => {
                for attr in &self.attrs {
                    let column = &self.columns[attr.column];
                    let stats = scratch.col_stats[attr.column];
                    let len = column.packed.len();
                    if len == 0 {
                        return Err(RankingError::Table(TableError::Normalization {
                            column: attr.name.clone(),
                            message: "column has no non-missing values".to_string(),
                        }));
                    }
                    let params = match self.normalization {
                        NormalizationMethod::None => (0.0, 1.0),
                        NormalizationMethod::MinMax => {
                            if (stats.max - stats.min).abs() < f64::EPSILON {
                                return Err(RankingError::Table(TableError::Normalization {
                                    column: attr.name.clone(),
                                    message: "column is constant; min-max scaling is undefined"
                                        .to_string(),
                                }));
                            }
                            (stats.min, stats.max)
                        }
                        NormalizationMethod::ZScore => {
                            // `Normalizer::fit` computes these through
                            // `rf_stats::{mean, stddev}`; the fused sum and
                            // the explicit corrected variance below perform
                            // the identical operation sequences (and the
                            // identical first error — non-finite values trip
                            // the mean's finiteness gate).
                            if !stats.all_finite {
                                return Err(RankingError::Table(TableError::from(
                                    rf_stats::StatsError::NonFiniteInput { operation: "mean" },
                                )));
                            }
                            let mean = stats.sum / len as f64;
                            let sd = if len >= 2 {
                                let values: &[f64] = &scratch.perturbed[attr.column];
                                let ss: f64 = if self.relaxed_fp {
                                    // Relaxed: reassociate the squared-error
                                    // reduction across four lanes so the
                                    // compiler can keep independent vector
                                    // accumulators in flight.
                                    lane_sum_squared_errors(values, mean)
                                } else {
                                    values.iter().map(|v| (v - mean) * (v - mean)).sum()
                                };
                                (ss / (len - 1) as f64).sqrt()
                            } else {
                                0.0
                            };
                            if sd < f64::EPSILON {
                                return Err(RankingError::Table(TableError::Normalization {
                                    column: attr.name.clone(),
                                    message: "column has zero variance; z-score is undefined"
                                        .to_string(),
                                }));
                            }
                            (mean, sd)
                        }
                    };
                    scratch.params.push(params);
                }
                for attr in &self.attrs {
                    let column = &self.columns[attr.column];
                    let stats = scratch.col_stats[attr.column];
                    // NaN when the column's sum is not read: no score
                    // reads this mean then.
                    let mean = if column.packed.is_empty() {
                        0.0
                    } else if !stats.all_finite {
                        // `rf_stats::mean`'s finiteness gate, surfaced with
                        // the error the scoring fit's attribute prep reports.
                        return Err(RankingError::Stats(rf_stats::StatsError::NonFiniteInput {
                            operation: "mean",
                        }));
                    } else {
                        stats.sum / column.packed.len() as f64
                    };
                    scratch.means.push(mean);
                }
            }
        }

        // 4. Score every row, one TILE of rows at a time.  The reference
        //    accumulates row-major with the attributes innermost; iterating
        //    column-major instead adds each attribute's term to every row's
        //    accumulator in the same per-element order, so the sums are
        //    bit-identical — and a dense column streams its packed buffer
        //    with no row map or missing branch in the loop.  Blocking the
        //    streams into fixed-size tiles keeps a score tile and a value
        //    tile resident together and gives the auto-vectorizer
        //    straight-line inner loops; on the exact path the per-element
        //    order inside a tile is unchanged, so tiling changes no bits.
        if self.missing_policy == MissingValuePolicy::Error {
            if let Some((row, index)) = self.first_missing {
                // The reference trips on this cell mid-scan; missingness is
                // static, so the scan is not needed to name it.
                return Err(RankingError::MissingValue {
                    attribute: self.attrs[index].name.clone(),
                    row,
                });
            }
        }
        scratch.scores.clear();
        scratch.scores.resize(self.rows, 0.0);
        for (index, attr) in self.attrs.iter().enumerate() {
            let weight = scratch.weights[index];
            let (a, b) = scratch.params[index];
            let column = &self.columns[attr.column];
            let values: &[f64] = if perturbed {
                &scratch.perturbed[attr.column]
            } else {
                &column.packed
            };
            if column.dense {
                if self.relaxed_fp {
                    // Relaxed: normalization by reciprocal multiply.  The
                    // per-attribute `(shift, inv)` pair folds all three
                    // normalization methods into one fused inner loop.
                    let (shift, inv) = self.relaxed_transform_params((a, b));
                    for (score_tile, value_tile) in
                        scratch.scores.chunks_mut(TILE).zip(values.chunks(TILE))
                    {
                        for (score, &value) in score_tile.iter_mut().zip(value_tile) {
                            *score += weight * ((value - shift) * inv);
                        }
                    }
                } else {
                    match self.normalization {
                        NormalizationMethod::None => {
                            for (score_tile, value_tile) in
                                scratch.scores.chunks_mut(TILE).zip(values.chunks(TILE))
                            {
                                for (score, &value) in score_tile.iter_mut().zip(value_tile) {
                                    *score += weight * value;
                                }
                            }
                        }
                        NormalizationMethod::MinMax => {
                            // `(value - a) / denom` with `denom = b - a`
                            // hoisted is the exact expression of
                            // `transform_value`.
                            let denom = b - a;
                            for (score_tile, value_tile) in
                                scratch.scores.chunks_mut(TILE).zip(values.chunks(TILE))
                            {
                                for (score, &value) in score_tile.iter_mut().zip(value_tile) {
                                    *score += weight * ((value - a) / denom);
                                }
                            }
                        }
                        NormalizationMethod::ZScore => {
                            for (score_tile, value_tile) in
                                scratch.scores.chunks_mut(TILE).zip(values.chunks(TILE))
                            {
                                for (score, &value) in score_tile.iter_mut().zip(value_tile) {
                                    *score += weight * ((value - a) / b);
                                }
                            }
                        }
                    }
                }
            } else {
                // Policy is MeanImpute or Zero here: Error short-circuited
                // above for any sparse scoring column.
                let imputed = match self.missing_policy {
                    MissingValuePolicy::MeanImpute => self.transform(scratch.means[index], (a, b)),
                    _ => 0.0,
                };
                if self.relaxed_fp {
                    // Relaxed: branch-free masked gather.  Every lane loads
                    // a clamped slot unconditionally, transforms it, and
                    // selects between the transformed value and the imputed
                    // fallback — no data-dependent branch in the loop, so
                    // the tile vectorizes even on sparse columns.  Step 3
                    // guarantees `values` is non-empty (an all-missing
                    // column errors before scoring).
                    let (shift, inv) = self.relaxed_transform_params((a, b));
                    for (score_tile, slot_tile) in scratch
                        .scores
                        .chunks_mut(TILE)
                        .zip(column.row_map.chunks(TILE))
                    {
                        for (score, &slot) in score_tile.iter_mut().zip(slot_tile) {
                            let present = slot != MISSING;
                            let raw = values[if present { slot } else { 0 }];
                            let value = if present {
                                (raw - shift) * inv
                            } else {
                                imputed
                            };
                            *score += weight * value;
                        }
                    }
                } else {
                    for (score_tile, slot_tile) in scratch
                        .scores
                        .chunks_mut(TILE)
                        .zip(column.row_map.chunks(TILE))
                    {
                        for (score, &slot) in score_tile.iter_mut().zip(slot_tile) {
                            let value = if slot != MISSING {
                                self.transform(values[slot], (a, b))
                            } else {
                                imputed
                            };
                            *score += weight * value;
                        }
                    }
                }
            }
        }

        // 5. The ranking: the validation and argsort of
        //    `Ranking::from_scores`, into reused word buffers.  One lane scan
        //    verifies the scores finite and yields their range, so the
        //    argsort can leave float comparisons behind: each score maps to
        //    a monotone integer key ([`descending_sort_key`]), ties go to
        //    the lower row, and each row carries its original position as
        //    the payload ([`packed_argsort`]) — no comparator calls, no
        //    per-trial allocation, same order bit for bit.
        if scratch.scores.is_empty() {
            return Err(RankingError::EmptyRanking);
        }
        let (lo, hi, all_finite) = lane_range(&scratch.scores);
        if !all_finite {
            return Err(RankingError::Stats(rf_stats::StatsError::NonFiniteInput {
                operation: "Ranking::from_scores",
            }));
        }
        if self.rows < RADIX_CUTOFF {
            // A position payload would break ties by position, so sort rows
            // by `(key, row)` and map them to positions afterwards.
            scratch.tmp.clear();
            scratch.tmp.extend(
                scratch
                    .scores
                    .iter()
                    .map(|&score| descending_sort_key(score)),
            );
            scratch.words.clear();
            scratch.words.extend(0..self.rows as u64);
            let keys = &scratch.tmp;
            scratch
                .words
                .sort_unstable_by_key(|&row| (keys[row as usize], row));
            for word in &mut scratch.words {
                *word = u64::from(self.positions[*word as usize]);
            }
        } else {
            packed_argsort(
                &scratch.scores,
                (lo, hi),
                |row| self.positions[row],
                |position| self.rows_by_position[position as usize] as usize,
                &mut scratch.words,
                &mut scratch.tmp,
            );
        }
        Ok(())
    }

    /// The `(shift, inv)` pair of the relaxed fused transform
    /// `(value - shift) * inv` for this trial's parameters: identity for
    /// raw scores, reciprocal range for min-max, reciprocal deviation for
    /// z-score.
    fn relaxed_transform_params(&self, params: (f64, f64)) -> (f64, f64) {
        match self.normalization {
            NormalizationMethod::None => (0.0, 1.0),
            NormalizationMethod::MinMax => (params.0, 1.0 / (params.1 - params.0)),
            NormalizationMethod::ZScore => (params.0, 1.0 / params.1),
        }
    }
}

/// Relaxed squared-error reduction: four independent accumulator lanes over
/// [`TILE`]-aligned chunks, folded at the end.  Reassociates the sum (hence
/// relaxed-only) so the compiler can keep vector accumulators in flight.
fn lane_sum_squared_errors(values: &[f64], mean: f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = values.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &value) in lanes.iter_mut().zip(chunk) {
            let d = value - mean;
            *lane += d * d;
        }
    }
    let mut ss = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for &value in chunks.remainder() {
        let d = value - mean;
        ss += d * d;
    }
    ss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::{perturb_weights, TablePerturber};
    use crate::score::ScoringFunction;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use rf_table::Column;

    #[test]
    fn radix_argsort_matches_the_comparison_sort() {
        // A deterministic pseudo-random value stream with deliberate
        // structure: duplicated values (the row tie-break must hold), a
        // narrow range (constant high digit bytes skip their passes) and
        // sizes straddling the comparison-sort cutoff on both sides.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [
            0,
            1,
            2,
            RADIX_CUTOFF - 1,
            RADIX_CUTOFF,
            RADIX_CUTOFF + 3,
            3000,
        ] {
            let values: Vec<f64> = (0..n).map(|_| (next() % 4096) as f64 * 0.25).collect();
            assert_eq!(packed_order_of(&values), pair_order_of(&values), "n = {n}");
        }
        // Full-width values of both signs: every digit byte does real work
        // and the digit drops the keys' low 32 bits.
        let values: Vec<f64> = (0..2048)
            .map(|_| f64::from_bits(next() >> 2) - f64::from_bits(next() >> 2))
            .collect();
        assert_eq!(packed_order_of(&values), pair_order_of(&values));
        // All values equal: every pass is skipped and the order is the
        // identity (the stable sort of an already-sorted input).
        let values = vec![42.0; 1000];
        assert_eq!(packed_order_of(&values), (0..1000).collect::<Vec<usize>>());
    }

    /// The payloads [`packed_argsort`] leaves, run on dirty buffers with the
    /// row itself as payload: the row order.
    fn packed_order_of(values: &[f64]) -> Vec<usize> {
        packed_payloads(values, &(0..values.len() as u32).collect::<Vec<_>>())
    }

    /// Runs [`packed_argsort`] with `payloads[row]` as each row's payload
    /// and returns the payloads in sorted order.  The buffers start dirty
    /// and of the wrong length: the sort must not read stale words.
    fn packed_payloads(values: &[f64], payloads: &[u32]) -> Vec<usize> {
        let mut rows_by_payload = vec![0usize; payloads.len()];
        for (row, &payload) in payloads.iter().enumerate() {
            rows_by_payload[payload as usize] = row;
        }
        let mut words = vec![u64::MAX; values.len() / 2];
        let mut tmp = vec![7u64; values.len() + 3];
        let (lo, hi, _) = lane_range(values);
        packed_argsort(
            values,
            (lo, hi),
            |row| payloads[row],
            |payload| rows_by_payload[payload as usize],
            &mut words,
            &mut tmp,
        );
        words.iter().map(|&word| word as u32 as usize).collect()
    }

    /// The reference order: the `(key, row)` pair sort the argsort replaces.
    fn pair_order_of(values: &[f64]) -> Vec<usize> {
        let mut pairs: Vec<(u64, usize)> = values
            .iter()
            .enumerate()
            .map(|(row, &value)| (descending_sort_key(value), row))
            .collect();
        pairs.sort_unstable();
        pairs.into_iter().map(|(_, row)| row).collect()
    }

    /// Row counts the argsort proptest draws from in half its cases: the
    /// comparison-sort cutoff, and byte-bucket boundaries of the passes.
    const ARGSORT_EDGE_SIZES: [usize; 9] = [
        0,
        1,
        RADIX_CUTOFF - 1,
        RADIX_CUTOFF,
        RADIX_CUTOFF + 1,
        255,
        256,
        257,
        65_536,
    ];

    /// Values of one of five shapes, each aimed at a part of the argsort.
    fn shaped_values(shape: usize, n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
        // A few bases, each with neighbours one and two ulps away: equal
        // digits whose full keys differ once the range is wide enough.
        let bases: Vec<f64> = (0..4).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let near = |rng: &mut ChaCha8Rng| {
            let base: f64 = bases[rng.gen_range(0..bases.len())];
            f64::from_bits(base.to_bits() + rng.gen_range(0..3u64))
        };
        (0..n)
            .map(|_| match shape {
                // Adjacent ulps inside a wide range, so the fix-up runs.
                0 => {
                    if rng.gen_range(0..2usize) == 0 {
                        near(rng)
                    } else {
                        rng.gen_range(-1.0e6..1.0e6)
                    }
                }
                // Heavy ties, both zeros among them.
                1 => [-2.0, -0.5, -0.0, 0.0, 1.0, 3.5][rng.gen_range(0..6usize)],
                // All equal: the two zeros have one key.
                2 => {
                    if rng.gen_range(0..2usize) == 0 {
                        0.0
                    } else {
                        -0.0
                    }
                }
                // Exponents from 2^-1000 to 2^1000 of both signs: the keys
                // share no bit, the largest shift, plus ulp neighbours.
                3 => {
                    if rng.gen_range(0..4usize) == 0 {
                        near(rng)
                    } else {
                        let sign = if rng.gen_range(0..2usize) == 0 {
                            1.0
                        } else {
                            -1.0
                        };
                        sign * rng.gen_range(1.0..2.0)
                            * 2f64.powi(rng.gen_range(0..2000u32) as i32 - 1000)
                    }
                }
                // A trial's scores: one sign, a narrow range.
                _ => rng.gen_range(0.0..1.0),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn packed_argsort_matches_the_pair_sort(
            seed in proptest::prelude::any::<u64>(),
            shape in 0usize..5,
            pick in 0usize..2 * ARGSORT_EDGE_SIZES.len(),
            random_n in 0usize..3000,
        ) {
            let n = ARGSORT_EDGE_SIZES.get(pick).copied().unwrap_or(random_n);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let values = shaped_values(shape, n, &mut rng);
            // Shuffled payloads, as the trials' original positions are: the
            // sort must break ties by row, never by payload.
            let mut payloads: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                payloads.swap(i, rng.gen_range(0..=i));
            }
            let expected: Vec<usize> = pair_order_of(&values)
                .into_iter()
                .map(|row| payloads[row] as usize)
                .collect();
            proptest::prop_assert_eq!(packed_payloads(&values, &payloads), expected);
        }

        #[test]
        fn lane_folds_match_the_serial_folds(
            seed in proptest::prelude::any::<u64>(),
            shape in 0usize..4,
            quads in 0usize..=275,
        ) {
            // Every residue mod `LANES`, so each remainder path runs.
            for residue in 0..LANES {
                let n = quads * LANES + residue;
                if n > 1_100 {
                    continue;
                }
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ residue as u64);
                let values = fold_values(shape, n, &mut rng);
                let serial_lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let serial_hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let serial_finite = values.iter().all(|v| v.is_finite());
                let (lo, hi, finite) = lane_range(&values);
                for (lane, serial) in [(lo, serial_lo), (hi, serial_hi)] {
                    proptest::prop_assert!(lane == serial, "n {}: {} vs {}", n, lane, serial);
                    if serial != 0.0 {
                        proptest::prop_assert_eq!(lane.to_bits(), serial.to_bits(), "n {}", n);
                    }
                }
                proptest::prop_assert_eq!(finite, serial_finite, "n {}", n);
            }
        }

        #[test]
        fn relaxed_fp_trial_scores_within_epsilon_of_exact(
            values in proptest::collection::vec(-1.0e3..1.0e3f64, 8..512),
            seed in 0u64..1_000_000,
            method_pick in 0usize..3,
        ) {
            // The relaxed-fp kernel draws the same noise from the same RNG
            // stream as the exact kernel and only reassociates reductions
            // and division strength; per-row trial scores must stay within
            // 1e-9 relative error for any data, seed, and normalization.
            proptest::prop_assume!(values.iter().any(|v| (v - values[0]).abs() > 1e-6));
            let method = [
                NormalizationMethod::None,
                NormalizationMethod::MinMax,
                NormalizationMethod::ZScore,
            ][method_pick];
            let linear: Vec<f64> = (0..values.len()).map(|i| i as f64 * 0.5).collect();
            let table = Table::from_columns(vec![
                ("x", Column::from_f64(values)),
                ("y", Column::from_f64(linear)),
            ])
            .unwrap();
            let scoring = ScoringFunction::with_normalization(
                vec![
                    crate::score::AttributeWeight::new("x", 0.7),
                    crate::score::AttributeWeight::new("y", 0.3),
                ],
                method,
            )
            .unwrap();
            let (exact, _) = kernel_trial_scores(&table, &scoring, 0.05, 0.05, seed, false);
            let (relaxed, _) = kernel_trial_scores(&table, &scoring, 0.05, 0.05, seed, true);
            for (row, (&exact, &relaxed)) in exact.iter().zip(&relaxed).enumerate() {
                let tolerance = 1e-9 * exact.abs().max(1.0);
                proptest::prop_assert!(
                    (exact - relaxed).abs() <= tolerance,
                    "row {}: exact {} vs relaxed {}", row, exact, relaxed
                );
            }
        }
    }

    /// Values of one of four shapes for the lane-fold proptest.
    fn fold_values(shape: usize, n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
        const SPECIALS: [f64; 9] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::MAX,
            f64::MIN,
        ];
        let pick = |rng: &mut ChaCha8Rng| SPECIALS[rng.gen_range(0..SPECIALS.len())];
        match shape {
            // Ordinary values with a special one sprinkled in now and then.
            0 => (0..n)
                .map(|_| {
                    if rng.gen_range(0..16usize) == 0 {
                        pick(rng)
                    } else {
                        rng.gen_range(-1.0e3..1.0e3)
                    }
                })
                .collect(),
            // Finite values only: both zeros, subnormals and normals, so
            // zero minima and maxima and subnormal extremes occur.
            1 => (0..n)
                .map(|_| match rng.gen_range(0..4usize) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
                    _ => -f64::from_bits(rng.gen_range(1..1u64 << 52)),
                })
                .collect(),
            // All equal, any of the specials included.
            2 => vec![pick(rng); n],
            // Specials only.
            _ => (0..n).map(|_| pick(rng)).collect(),
        }
    }

    /// The materialized reference trial: perturb into a fresh table, re-fit,
    /// re-rank — the exact code path the kernel replaces.
    fn materialized_trial(
        table: &Table,
        scoring: &ScoringFunction,
        data_noise: f64,
        weight_noise: f64,
        seed: u64,
    ) -> RankingResult<Ranking> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let perturbed = if data_noise > 0.0 {
            let attrs: Vec<&str> = scoring.attribute_names();
            Some(TablePerturber::fit(table, &attrs, data_noise)?.perturb(&mut rng)?)
        } else {
            None
        };
        let scoring = if weight_noise > 0.0 {
            perturb_weights(scoring, weight_noise, &mut rng)?
        } else {
            scoring.clone()
        };
        scoring.rank_table(perturbed.as_ref().unwrap_or(table))
    }

    fn kernel_trial(
        table: &Table,
        scoring: &ScoringFunction,
        data_noise: f64,
        weight_noise: f64,
        seed: u64,
    ) -> RankingResult<Vec<usize>> {
        let kernel = TrialKernel::fit(table, scoring, &identity(table), data_noise, weight_noise)?;
        let mut scratch = kernel.scratch();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        kernel.rank_trial(&mut rng, &mut scratch)?;
        Ok(scratch.original_positions().collect())
    }

    /// The ranking `0, 1, …` of `table`'s rows: fitted with it, a kernel's
    /// original positions are the trial's rows.
    fn identity(table: &Table) -> Ranking {
        Ranking::from_order(&(0..table.num_rows()).collect::<Vec<_>>()).unwrap()
    }

    fn spread_table() -> Table {
        Table::from_columns(vec![
            (
                "name",
                Column::from_strings((0..40).map(|i| format!("r{i}")).collect::<Vec<_>>()),
            ),
            (
                "x",
                Column::from_f64((0..40).map(|i| (i as f64 * 1.7).sin() * 30.0).collect()),
            ),
            (
                "y",
                Column::from_f64((0..40).map(|i| 100.0 - 2.0 * i as f64).collect()),
            ),
            ("z", Column::from_i64((0..40).map(|i| i * 3 % 17).collect())),
        ])
        .unwrap()
    }

    #[test]
    fn kernel_matches_materialized_trials_across_seeds_and_noise() {
        let table = spread_table();
        // `y` before `x` on purpose: recipe order differs from schema order,
        // which is exactly where the draw-order contract bites.
        let scoring = ScoringFunction::from_pairs([("y", 0.5), ("x", 0.3), ("z", 0.2)]).unwrap();
        for &(data_noise, weight_noise) in
            &[(0.0, 0.0), (0.1, 0.0), (0.0, 0.2), (0.25, 0.25), (2.0, 1.0)]
        {
            for seed in [0u64, 1, 42, 9999, 1 << 50] {
                let reference =
                    materialized_trial(&table, &scoring, data_noise, weight_noise, seed)
                        .unwrap()
                        .order();
                let kernel =
                    kernel_trial(&table, &scoring, data_noise, weight_noise, seed).unwrap();
                assert_eq!(
                    reference, kernel,
                    "noise ({data_noise}, {weight_noise}), seed {seed}"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_materialized_under_every_normalization() {
        let table = spread_table();
        for method in [
            NormalizationMethod::None,
            NormalizationMethod::MinMax,
            NormalizationMethod::ZScore,
        ] {
            let scoring = ScoringFunction::with_normalization(
                vec![
                    crate::score::AttributeWeight::new("x", 0.7),
                    crate::score::AttributeWeight::new("y", 0.3),
                ],
                method,
            )
            .unwrap();
            for seed in [3u64, 77] {
                let reference = materialized_trial(&table, &scoring, 0.15, 0.1, seed)
                    .unwrap()
                    .order();
                let kernel = kernel_trial(&table, &scoring, 0.15, 0.1, seed).unwrap();
                assert_eq!(reference, kernel, "{method:?}, seed {seed}");
            }
        }
    }

    #[test]
    fn kernel_matches_materialized_with_missing_values_and_policies() {
        let table = Table::from_columns(vec![
            (
                "a",
                Column::Float(
                    (0..30)
                        .map(|i| {
                            if i % 7 == 3 {
                                None
                            } else {
                                Some(i as f64 * 1.3)
                            }
                        })
                        .collect(),
                ),
            ),
            (
                "b",
                Column::from_f64((0..30).map(|i| (30 - i) as f64).collect()),
            ),
        ])
        .unwrap();
        for policy in [MissingValuePolicy::MeanImpute, MissingValuePolicy::Zero] {
            let scoring = ScoringFunction::from_pairs([("a", 0.6), ("b", 0.4)])
                .unwrap()
                .with_missing_policy(policy);
            let reference = materialized_trial(&table, &scoring, 0.2, 0.0, 5)
                .unwrap()
                .order();
            let kernel = kernel_trial(&table, &scoring, 0.2, 0.0, 5).unwrap();
            assert_eq!(reference, kernel, "{policy:?}");

            // With weight noise the jittered recipe keeps the policy, so
            // both paths impute and rank identically.
            let reference = materialized_trial(&table, &scoring, 0.2, 0.1, 5)
                .unwrap()
                .order();
            let kernel = kernel_trial(&table, &scoring, 0.2, 0.1, 5).unwrap();
            assert_eq!(reference, kernel, "{policy:?}, weight noise");
        }
        // The error policy fails identically on both paths.
        let scoring = ScoringFunction::from_pairs([("a", 1.0)]).unwrap();
        let reference = materialized_trial(&table, &scoring, 0.1, 0.0, 6).unwrap_err();
        let kernel = TrialKernel::fit(&table, &scoring, &identity(&table), 0.1, 0.0).unwrap();
        let mut scratch = kernel.scratch();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let err = kernel.rank_trial(&mut rng, &mut scratch).unwrap_err();
        assert_eq!(reference, err);
    }

    #[test]
    fn kernel_scratch_is_reusable_across_trials() {
        let table = spread_table();
        let scoring = ScoringFunction::from_pairs([("x", 0.5), ("y", 0.5)]).unwrap();
        let kernel = TrialKernel::fit(&table, &scoring, &identity(&table), 0.2, 0.1).unwrap();
        let mut scratch = kernel.scratch();
        for seed in 0u64..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            kernel.rank_trial(&mut rng, &mut scratch).unwrap();
            let reused: Vec<usize> = scratch.original_positions().collect();
            let fresh = kernel_trial(&table, &scoring, 0.2, 0.1, seed).unwrap();
            assert_eq!(reused, fresh, "seed {seed}: reused scratch diverged");
        }
    }

    #[test]
    fn kernel_fit_surfaces_constant_column_errors_like_the_first_trial() {
        let table = Table::from_columns(vec![("c", Column::from_f64(vec![5.0; 10]))]).unwrap();
        let scoring = ScoringFunction::from_pairs([("c", 1.0)]).unwrap();
        // Noise-free: the trial-invariant fit fails up front with the exact
        // error every materialized trial reports.
        let reference = materialized_trial(&table, &scoring, 0.0, 0.0, 1).unwrap_err();
        let kernel_err =
            TrialKernel::fit(&table, &scoring, &identity(&table), 0.0, 0.0).unwrap_err();
        assert_eq!(reference, kernel_err);
        // With data noise the column un-sticks (sd is 0, so the scale is 0 —
        // but min-max still sees a constant column): per-trial errors match.
        let reference = materialized_trial(&table, &scoring, 0.5, 0.0, 1).unwrap_err();
        let kernel = TrialKernel::fit(&table, &scoring, &identity(&table), 0.5, 0.0).unwrap();
        let mut scratch = kernel.scratch();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let err = kernel.rank_trial(&mut rng, &mut scratch).unwrap_err();
        assert_eq!(reference, err);
    }

    #[test]
    fn kernel_rejects_bad_recipes_like_the_reference() {
        let table = spread_table();
        let ghost = ScoringFunction::from_pairs([("ghost", 1.0)]).unwrap();
        assert!(TrialKernel::fit(&table, &ghost, &identity(&table), 0.1, 0.1).is_err());
        let non_numeric = ScoringFunction::from_pairs([("name", 1.0)]).unwrap();
        assert!(TrialKernel::fit(&table, &non_numeric, &identity(&table), 0.1, 0.1).is_err());
    }

    #[test]
    fn descending_sort_key_orders_exactly_like_the_comparator() {
        // Every pairwise key comparison must agree with the descending
        // partial_cmp the reference sort uses — including both zeros, which
        // partial_cmp treats as equal.
        let samples = [
            f64::MIN,
            -1.0e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0e-300,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            3.75,
            1.0e300,
            f64::MAX,
        ];
        for &x in &samples {
            for &y in &samples {
                let reference = y.partial_cmp(&x).unwrap();
                let keys = descending_sort_key(x).cmp(&descending_sort_key(y));
                assert_eq!(keys, reference, "x={x:?}, y={y:?}");
            }
        }
    }

    /// A table with `rows` rows: one dense oscillating column, one dense
    /// linear column, and one sparse column missing every 5th row.
    fn tiled_table(rows: usize) -> Table {
        Table::from_columns(vec![
            (
                "u",
                Column::from_f64(
                    (0..rows)
                        .map(|i| (i as f64 * 0.37).sin() * 50.0 + i as f64 * 0.01)
                        .collect(),
                ),
            ),
            (
                "v",
                Column::from_f64((0..rows).map(|i| rows as f64 - i as f64 * 0.5).collect()),
            ),
            (
                "w",
                Column::Float(
                    (0..rows)
                        .map(|i| {
                            if i % 5 == 2 {
                                None
                            } else {
                                Some((i as f64 * 1.13).cos() * 20.0)
                            }
                        })
                        .collect(),
                ),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn kernel_matches_materialized_at_tile_boundaries() {
        // Row counts straddling the tile size — plus a 1-row table — stay
        // byte-identical to the materialized reference with relaxed_fp off.
        for rows in [1, TILE - 1, TILE, TILE + 1, 2 * TILE, 2 * TILE + 7] {
            let table = tiled_table(rows);
            // A 1-row column is constant, which min-max (the default)
            // rejects on both paths; rank it raw instead.
            let scoring = if rows == 1 {
                ScoringFunction::with_normalization(
                    vec![
                        crate::score::AttributeWeight::new("v", 0.6),
                        crate::score::AttributeWeight::new("u", 0.4),
                    ],
                    NormalizationMethod::None,
                )
                .unwrap()
            } else {
                ScoringFunction::from_pairs([("v", 0.6), ("u", 0.4)]).unwrap()
            };
            for seed in [0u64, 11, 4242] {
                let reference = materialized_trial(&table, &scoring, 0.1, 0.1, seed)
                    .unwrap()
                    .order();
                let kernel = kernel_trial(&table, &scoring, 0.1, 0.1, seed).unwrap();
                assert_eq!(reference, kernel, "rows {rows}, seed {seed}");
            }
            if rows == 1 {
                continue;
            }
            // And the sparse column, under both non-error policies.
            for policy in [MissingValuePolicy::MeanImpute, MissingValuePolicy::Zero] {
                let scoring = ScoringFunction::from_pairs([("w", 0.7), ("u", 0.3)])
                    .unwrap()
                    .with_missing_policy(policy);
                let reference = materialized_trial(&table, &scoring, 0.2, 0.0, 9)
                    .unwrap()
                    .order();
                let kernel = kernel_trial(&table, &scoring, 0.2, 0.0, 9).unwrap();
                assert_eq!(reference, kernel, "rows {rows}, {policy:?}");
            }
        }
    }

    #[test]
    fn kernel_matches_materialized_with_all_missing_tiles() {
        // A sparse column whose second tile (rows TILE..2·TILE) is entirely
        // missing: the masked path crosses a whole tile of fallbacks.
        let rows = 3 * TILE;
        let table = Table::from_columns(vec![
            (
                "gappy",
                Column::Float(
                    (0..rows)
                        .map(|i| {
                            if (TILE..2 * TILE).contains(&i) {
                                None
                            } else {
                                Some((i as f64 * 0.71).sin() * 10.0)
                            }
                        })
                        .collect(),
                ),
            ),
            (
                "full",
                Column::from_f64((0..rows).map(|i| i as f64 * 0.25).collect()),
            ),
        ])
        .unwrap();
        for policy in [MissingValuePolicy::MeanImpute, MissingValuePolicy::Zero] {
            let scoring = ScoringFunction::from_pairs([("gappy", 0.5), ("full", 0.5)])
                .unwrap()
                .with_missing_policy(policy);
            for seed in [1u64, 77] {
                let reference = materialized_trial(&table, &scoring, 0.15, 0.0, seed)
                    .unwrap()
                    .order();
                let kernel = kernel_trial(&table, &scoring, 0.15, 0.0, seed).unwrap();
                assert_eq!(reference, kernel, "{policy:?}, seed {seed}");
            }
        }
    }

    /// Fits a kernel against the original ranking of `table` and asserts,
    /// per seed, that the trial's ranking and Kendall tau are bit-identical
    /// to the materialized trial's.
    fn assert_trials_and_tau_match(
        table: &Table,
        scoring: &ScoringFunction,
        (data_noise, weight_noise): (f64, f64),
        seeds: &[u64],
        what: &str,
    ) {
        let original = scoring.rank_table(table).unwrap();
        let kernel = TrialKernel::fit(table, scoring, &original, data_noise, weight_noise).unwrap();
        let mut scratch = kernel.scratch();
        let rows_by_position = original.order();
        for &seed in seeds {
            let reference =
                materialized_trial(table, scoring, data_noise, weight_noise, seed).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            kernel.rank_trial(&mut rng, &mut scratch).unwrap();
            let rows: Vec<usize> = scratch
                .original_positions()
                .map(|position| rows_by_position[position])
                .collect();
            assert_eq!(rows, reference.order(), "{what}, seed {seed}");
            let tau = crate::kendall_tau_rankings(&original, &reference).unwrap();
            assert_eq!(
                scratch.kendall_tau().to_bits(),
                tau.to_bits(),
                "{what}, seed {seed}: tau"
            );
        }
    }

    /// Row counts below and above [`RADIX_CUTOFF`], so both argsorts run.
    const SORT_PATH_ROWS: [usize; 2] = [40, RADIX_CUTOFF + 37];

    #[test]
    fn kernel_matches_materialized_trials_and_tau_under_z_score() {
        // The z-score mean is the serial sum, folded only where it is read:
        // over dense columns, and over a sparse one under either non-error
        // policy.
        for rows in SORT_PATH_ROWS {
            let table = tiled_table(rows);
            let zscore = |pairs: [(&str, f64); 2]| {
                ScoringFunction::with_normalization(
                    pairs
                        .iter()
                        .map(|&(name, weight)| crate::score::AttributeWeight::new(name, weight))
                        .collect(),
                    NormalizationMethod::ZScore,
                )
                .unwrap()
            };
            let dense = zscore([("u", 0.6), ("v", 0.4)]);
            let what = format!("rows {rows}, dense");
            assert_trials_and_tau_match(&table, &dense, (0.1, 0.1), &[0, 7, 4242], &what);
            for policy in [MissingValuePolicy::MeanImpute, MissingValuePolicy::Zero] {
                let sparse = zscore([("w", 0.7), ("u", -0.3)]).with_missing_policy(policy);
                let what = format!("rows {rows}, {policy:?}");
                assert_trials_and_tau_match(&table, &sparse, (0.2, 0.05), &[1, 99], &what);
            }
        }
    }

    #[test]
    fn kernel_matches_materialized_trials_and_tau_with_mean_imputed_missing_cells() {
        // Min-max reads no sum but the imputation mean of the sparse column
        // does, so only that column folds one.
        for rows in SORT_PATH_ROWS {
            let table = tiled_table(rows);
            let scoring = ScoringFunction::from_pairs([("w", 0.5), ("v", 0.3), ("u", 0.2)])
                .unwrap()
                .with_missing_policy(MissingValuePolicy::MeanImpute);
            for noise in [(0.15, 0.0), (0.15, 0.2)] {
                let what = format!("rows {rows}, noise {noise:?}");
                assert_trials_and_tau_match(&table, &scoring, noise, &[3, 31, 313], &what);
            }
        }
    }

    #[test]
    fn kernel_matches_materialized_trials_and_tau_with_signed_zero_extremes() {
        // Columns whose minimum (`lo`) or maximum (`hi`) is a zero of either
        // sign, scored with a negative weight: the lane range may pick the
        // other zero than the serial fold, which must change no ranking.
        // The smallest data noise makes every noise scale underflow to 0,
        // so a trial runs the perturbed path on the base values, each zero
        // taking the sign its noise draw gives it.
        let cycle = [-0.0, 0.0, 0.25, 0.5, 0.0, -0.0, 0.125];
        for rows in SORT_PATH_ROWS {
            let table = Table::from_columns(vec![
                (
                    "lo",
                    Column::from_f64((0..rows).map(|i| cycle[i % cycle.len()]).collect()),
                ),
                (
                    "hi",
                    Column::from_f64((0..rows).map(|i| -cycle[i * 3 % cycle.len()]).collect()),
                ),
                (
                    "t",
                    Column::from_f64((0..rows).map(|i| (i % 5) as f64 * 0.25).collect()),
                ),
            ])
            .unwrap();
            let scoring =
                ScoringFunction::from_pairs([("lo", -0.5), ("hi", 0.3), ("t", 0.2)]).unwrap();
            let data_noise = f64::from_bits(1);
            let kernel =
                TrialKernel::fit(&table, &scoring, &identity(&table), data_noise, 0.1).unwrap();
            assert!(kernel.data_noise && kernel.columns.iter().all(|c| c.scale == 0.0));
            let what = format!("rows {rows}");
            assert_trials_and_tau_match(&table, &scoring, (data_noise, 0.1), &[0, 5, 8, 21], &what);
        }
    }

    /// Runs one kernel trial with `relaxed_fp` as given, returning the
    /// per-row scores and the order.
    fn kernel_trial_scores(
        table: &Table,
        scoring: &ScoringFunction,
        data_noise: f64,
        weight_noise: f64,
        seed: u64,
        relaxed: bool,
    ) -> (Vec<f64>, Vec<usize>) {
        let kernel = TrialKernel::fit(table, scoring, &identity(table), data_noise, weight_noise)
            .unwrap()
            .with_relaxed_fp(relaxed);
        let mut scratch = kernel.scratch();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        kernel.rank_trial(&mut rng, &mut scratch).unwrap();
        let order = scratch.original_positions().collect();
        (scratch.scores, order)
    }

    #[test]
    fn relaxed_fp_scores_stay_within_epsilon_of_exact() {
        // The relaxed path draws the same noise from the same stream; only
        // reductions and division strength are reassociated, so per-row
        // scores stay within 1e-9 relative error of the exact path — across
        // normalizations, sparse columns, and tile-boundary row counts.
        for rows in [TILE - 1, TILE, 2 * TILE + 7] {
            let table = tiled_table(rows);
            for method in [
                NormalizationMethod::None,
                NormalizationMethod::MinMax,
                NormalizationMethod::ZScore,
            ] {
                let scoring = ScoringFunction::with_normalization(
                    vec![
                        crate::score::AttributeWeight::new("u", 0.5),
                        crate::score::AttributeWeight::new("v", 0.5),
                    ],
                    method,
                )
                .unwrap();
                for seed in [2u64, 300] {
                    let (exact, _) = kernel_trial_scores(&table, &scoring, 0.1, 0.1, seed, false);
                    let (relaxed, _) = kernel_trial_scores(&table, &scoring, 0.1, 0.1, seed, true);
                    for (row, (&e, &r)) in exact.iter().zip(&relaxed).enumerate() {
                        let tolerance = 1e-9 * e.abs().max(1.0);
                        assert!(
                            (e - r).abs() <= tolerance,
                            "{method:?}, rows {rows}, seed {seed}, row {row}: {e} vs {r}"
                        );
                    }
                }
            }
            // Sparse masked-gather path.
            let scoring = ScoringFunction::from_pairs([("w", 0.6), ("u", 0.4)])
                .unwrap()
                .with_missing_policy(MissingValuePolicy::MeanImpute);
            let (exact, _) = kernel_trial_scores(&table, &scoring, 0.2, 0.0, 8, false);
            let (relaxed, _) = kernel_trial_scores(&table, &scoring, 0.2, 0.0, 8, true);
            for (row, (&e, &r)) in exact.iter().zip(&relaxed).enumerate() {
                let tolerance = 1e-9 * e.abs().max(1.0);
                assert!(
                    (e - r).abs() <= tolerance,
                    "sparse, rows {rows}, row {row}: {e} vs {r}"
                );
            }
        }
    }

    #[test]
    fn relaxed_fp_ranks_well_separated_data_identically() {
        // Scores separated by far more than the relaxed epsilon produce the
        // same ranking on both paths.
        let rows = TILE + 13;
        let table = Table::from_columns(vec![(
            "gap",
            Column::from_f64((0..rows).map(|i| (i as f64) * 100.0).collect()),
        )])
        .unwrap();
        let scoring = ScoringFunction::from_pairs([("gap", 1.0)]).unwrap();
        for seed in [0u64, 5, 99] {
            let (_, exact) = kernel_trial_scores(&table, &scoring, 0.001, 0.05, seed, false);
            let (_, relaxed) = kernel_trial_scores(&table, &scoring, 0.001, 0.05, seed, true);
            assert_eq!(exact, relaxed, "seed {seed}");
        }
    }
}
