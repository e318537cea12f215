//! Perturbation of data and scoring weights.
//!
//! The Stability widget asks whether "slight changes to the data (e.g., due
//! to uncertainty and noise), or to the methodology (e.g., by slightly
//! adjusting the weights in a score-based ranker) could lead to a significant
//! change in the output" (paper §2.2).  The Monte-Carlo stability estimator
//! in `rf-stability` answers that question empirically by re-ranking many
//! perturbed copies of the input; this module produces those copies.

use crate::error::RankingResult;
use crate::score::{AttributeWeight, ScoringFunction};
use rand::Rng;
use rf_table::{Column, Table};
use std::sync::{Arc, OnceLock};

/// Specification of a perturbation experiment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PerturbationSpec {
    /// Relative magnitude of Gaussian noise added to data values
    /// (a fraction of each column's standard deviation).
    pub data_noise: f64,
    /// Relative magnitude of multiplicative jitter applied to weights.
    pub weight_noise: f64,
}

impl Default for PerturbationSpec {
    fn default() -> Self {
        PerturbationSpec {
            data_noise: 0.05,
            weight_noise: 0.05,
        }
    }
}

/// One column of a fitted [`TablePerturber`]: either shared through
/// unchanged, or re-sampled with a pre-computed noise scale.
#[derive(Debug, Clone)]
enum PerturbColumn {
    /// A column outside the perturbation set, `Arc`-shared into every draw —
    /// an unperturbed column costs one reference count per draw, not a deep
    /// copy of its cells.
    Keep { name: String, column: Arc<Column> },
    /// A numeric column with Gaussian noise of the given absolute scale.
    Noise {
        name: String,
        options: Vec<Option<f64>>,
        scale: f64,
    },
}

/// A perturbation model fitted once and applied many times.
///
/// The Monte-Carlo stability estimator draws hundreds of perturbed copies of
/// the same table; fitting re-derives nothing per draw — the noise scale of
/// each listed column (`noise_fraction` × the column's standard deviation)
/// and the column layout are computed once by [`TablePerturber::fit`], and
/// every [`TablePerturber::perturb`] only samples noise.  One fitted model is
/// shared (it is `Sync`) across concurrently running trials, each with its
/// own RNG stream.
///
/// The draw order is one Gaussian per non-missing value of each perturbed
/// column, columns in schema order — exactly the order
/// [`perturb_table_gaussian`] historically consumed, so a fitted model fed
/// the same RNG stream reproduces it byte-for-byte.
#[derive(Debug, Clone)]
pub struct TablePerturber {
    columns: Vec<PerturbColumn>,
}

impl TablePerturber {
    /// Fits the model: resolves the listed columns, computes each one's
    /// noise scale, and captures the table layout.
    ///
    /// # Errors
    /// Unknown or non-numeric columns in `columns`.
    pub fn fit(table: &Table, columns: &[&str], noise_fraction: f64) -> RankingResult<Self> {
        for &name in columns {
            table.require_numeric(name)?;
        }
        let mut fitted = Vec::with_capacity(table.schema().fields().len());
        for field in table.schema().fields() {
            let name = field.name.as_str();
            let col = table.column(name)?;
            if columns.contains(&name) {
                let options = col.numeric_options(name)?;
                let non_null: Vec<f64> = options.iter().filter_map(|x| *x).collect();
                let sd = if non_null.len() >= 2 {
                    rf_stats::stddev(&non_null)?
                } else {
                    0.0
                };
                fitted.push(PerturbColumn::Noise {
                    name: name.to_string(),
                    options,
                    scale: sd * noise_fraction,
                });
            } else {
                fitted.push(PerturbColumn::Keep {
                    name: name.to_string(),
                    column: Arc::clone(table.shared_column(name)?),
                });
            }
        }
        Ok(TablePerturber { columns: fitted })
    }

    /// Draws one perturbed copy of the fitted table: each listed column gets
    /// fresh zero-mean Gaussian noise at its fitted scale, missing values
    /// remain missing, other columns are `Arc`-shared unchanged — a draw
    /// allocates only the perturbed columns, never the whole table.
    ///
    /// # Errors
    /// Table reconstruction errors (cannot occur for a model fitted from a
    /// well-formed table, but surfaced rather than panicking).
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R) -> RankingResult<Table> {
        let mut out = Table::new();
        for column in &self.columns {
            match column {
                PerturbColumn::Keep { name, column } => {
                    out.add_shared_column(name, Arc::clone(column))?;
                }
                PerturbColumn::Noise {
                    name,
                    options,
                    scale,
                } => {
                    let perturbed: Vec<Option<f64>> = options
                        .iter()
                        .map(|opt| opt.map(|v| v + gaussian(rng) * scale))
                        .collect();
                    out.add_column(name, Column::Float(perturbed))?;
                }
            }
        }
        Ok(out)
    }
}

/// Returns a copy of `table` in which each listed numeric column has zero-mean
/// Gaussian noise added, with standard deviation `noise_fraction` times the
/// column's own standard deviation.  Missing values remain missing; other
/// columns are untouched.
///
/// One-shot convenience over [`TablePerturber`]; repeated draws from the same
/// table should fit once and call [`TablePerturber::perturb`] per draw.
///
/// # Errors
/// Unknown or non-numeric columns.
pub fn perturb_table_gaussian<R: Rng + ?Sized>(
    table: &Table,
    columns: &[&str],
    noise_fraction: f64,
    rng: &mut R,
) -> RankingResult<Table> {
    TablePerturber::fit(table, columns, noise_fraction)?.perturb(rng)
}

/// Returns a copy of the scoring function with each weight multiplied by
/// `1 + ε`, where `ε` is uniform in `[-noise_fraction, +noise_fraction]`.
/// The normalization and the missing-value policy carry over.
///
/// If the jitter happens to drive every weight to exactly zero (only possible
/// when all weights start at zero, which construction forbids), the original
/// function is returned unchanged.
///
/// # Errors
/// Propagates scoring-function validation errors.
pub fn perturb_weights<R: Rng + ?Sized>(
    scoring: &ScoringFunction,
    noise_fraction: f64,
    rng: &mut R,
) -> RankingResult<ScoringFunction> {
    let new_weights: Vec<AttributeWeight> = scoring
        .weights()
        .iter()
        .map(|w| {
            let jitter = 1.0 + rng.gen_range(-noise_fraction..=noise_fraction);
            AttributeWeight::new(w.attribute.clone(), w.weight * jitter)
        })
        .collect();
    if new_weights.iter().all(|w| w.weight == 0.0) {
        return Ok(scoring.clone());
    }
    Ok(
        ScoringFunction::with_normalization(new_weights, scoring.normalization())?
            .with_missing_policy(scoring.missing_policy()),
    )
}

/// Layers of the ziggurat: the layer index is the low 7 bits of a draw.
const ZIGGURAT_LAYERS: usize = 128;
/// Right edge `R` of the base layer; the base layer's strip beyond `R` is
/// the tail (Marsaglia & Tsang 2000, Table 1, for 128 layers).
const ZIGGURAT_R: f64 = 3.442_619_855_899;
/// Area `V` of every layer under the unnormalized density `exp(−x²/2)`.
const ZIGGURAT_V: f64 = 9.912_563_035_262_17e-3;

/// The layer tables, built once per process (Doornik 2005's layout).
struct Ziggurat {
    /// `x[i]` is the right edge of layer `i`, decreasing to `x[128] = 0`;
    /// `x[0] = V / f(R)` is the base layer's pseudo-width (rectangle plus
    /// tail).
    x: [f64; ZIGGURAT_LAYERS + 1],
    /// `ratio[i] = x[i + 1] / x[i]`: the share of layer `i` that lies wholly
    /// under the density, where a draw is accepted without evaluating it.
    ratio: [f64; ZIGGURAT_LAYERS],
}

impl Ziggurat {
    fn build() -> Self {
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        let mut f = (-0.5 * ZIGGURAT_R * ZIGGURAT_R).exp();
        x[0] = ZIGGURAT_V / f;
        x[1] = ZIGGURAT_R;
        for i in 2..ZIGGURAT_LAYERS {
            x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + f).ln()).sqrt();
            f = (-0.5 * x[i] * x[i]).exp();
        }
        let mut ratio = [0.0; ZIGGURAT_LAYERS];
        for (i, r) in ratio.iter_mut().enumerate() {
            *r = x[i + 1] / x[i];
        }
        Ziggurat { x, ratio }
    }

    fn shared() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(Ziggurat::build)
    }
}

/// The top 53 bits of a word as an integer-valued `f64`.  They fit an `i64`
/// exactly, and the signed conversion is one instruction on x86-64 where
/// the unsigned one is a sequence: same value, same bits.
#[inline(always)]
fn top53(bits: u64) -> f64 {
    (bits >> 11) as i64 as f64
}

/// A uniform draw from the open interval `(0, 1)` from one word, safe to
/// pass to `ln`.
fn open_unit(bits: u64) -> f64 {
    (top53(bits) + 0.5) * (1.0 / (1u64 << 53) as f64)
}

impl Ziggurat {
    /// The layer (low 7 bits) and the signed uniform (top 53 bits) of a
    /// word.
    #[inline(always)]
    fn split(bits: u64) -> (usize, f64) {
        let layer = (bits & (ZIGGURAT_LAYERS as u64 - 1)) as usize;
        (
            layer,
            2.0 * (top53(bits) * (1.0 / (1u64 << 53) as f64)) - 1.0,
        )
    }

    /// The rare rest of a draw whose first word `bits` fell outside its
    /// layer's rectangle: the tail, or the wedge test and, when the wedge
    /// rejects, fresh words until a draw is accepted.
    #[cold]
    #[inline(never)]
    fn outside_rectangle(&self, mut bits: u64, mut more: impl FnMut() -> u64) -> f64 {
        loop {
            let (layer, u) = Self::split(bits);
            if u.abs() < self.ratio[layer] {
                return u * self.x[layer];
            }
            if layer == 0 {
                return normal_tail(&mut more, u < 0.0);
            }
            let x = u * self.x[layer];
            let f0 = (-0.5 * (self.x[layer] * self.x[layer] - x * x)).exp();
            let f1 = (-0.5 * (self.x[layer + 1] * self.x[layer + 1] - x * x)).exp();
            if f1 + open_unit(more()) * (f0 - f1) < 1.0 {
                return x;
            }
            bits = more();
        }
    }
}

/// Standard normal sample by the 128-layer ziggurat method (Marsaglia &
/// Tsang 2000, with Doornik 2005's independent index and uniform).
///
/// One `next_u64` feeds a draw: its low 7 bits pick the layer and its top
/// 53 bits the signed uniform — disjoint bits, so the two are independent.
/// About 97% of draws land inside their layer's rectangle and return after
/// one table compare.  A draw in a layer's wedge is accepted against the
/// density with `exp` and one extra uniform; a draw in the base layer's
/// strip beyond `R` samples the tail by Marsaglia's exponential method.
///
/// [`TablePerturber`] calls this once per value, and the columnar trial
/// kernel (`crate::columnar`) draws a column at a time with
/// [`fill_gaussian`], which returns the same values and leaves the stream
/// in the same place — so every Monte-Carlo schedule consumes a trial's
/// RNG stream identically.
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let zig = Ziggurat::shared();
    let bits = rng.next_u64();
    let (layer, u) = Ziggurat::split(bits);
    if u.abs() < zig.ratio[layer] {
        return u * zig.x[layer];
    }
    zig.outside_rectangle(bits, || rng.next_u64())
}

/// Words staged per bulk read of [`fill_gaussian`] (2 KiB on the stack).
const STAGED_WORDS: usize = 256;

/// Word `index` of a staged little-endian byte buffer.
#[inline(always)]
fn staged_word(staged: &[u8], index: usize) -> u64 {
    let at = index * 8;
    u64::from_le_bytes(staged[at..at + 8].try_into().expect("eight bytes"))
}

/// Fills `out` with standard normal samples: bit for bit the values that
/// `out.len()` calls of the per-value sampler would return from `rng`, and
/// `rng` is left exactly where those calls would leave it.
///
/// The words come in bulk through [`rand::RngCore::fill_bytes`], so the
/// common path reads a staged word and does one table compare with no
/// per-draw buffer check of the generator.  Every sample consumes at least
/// one word, so staging no more words than samples still owed never reads
/// ahead of the stream: a rare draw that needs extra words (a wedge or
/// tail) takes them from the staged words first and from `rng` only once
/// those are spent.
pub fn fill_gaussian<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let zig = Ziggurat::shared();
    let mut staged = [0u8; STAGED_WORDS * 8];
    let mut filled = 0;
    while filled < out.len() {
        let words = (out.len() - filled).min(STAGED_WORDS);
        let staged = &mut staged[..words * 8];
        rng.fill_bytes(staged);
        let mut next = 0;
        while next < words {
            let bits = staged_word(staged, next);
            next += 1;
            let (layer, u) = Ziggurat::split(bits);
            out[filled] = if u.abs() < zig.ratio[layer] {
                u * zig.x[layer]
            } else {
                let rest = &staged[next * 8..];
                let mut used = 0;
                let z = zig.outside_rectangle(bits, || {
                    if used * 8 < rest.len() {
                        used += 1;
                        staged_word(rest, used - 1)
                    } else {
                        rng.next_u64()
                    }
                });
                next += used;
                z
            };
            filled += 1;
        }
    }
}

/// A normal draw conditioned on `|z| > R` (Marsaglia 1964): exponential
/// proposals `R − ln(U₁)/R`, accepted when `−2 ln U₂ ≥ (ln(U₁)/R)²`.
fn normal_tail(word: &mut impl FnMut() -> u64, negative: bool) -> f64 {
    loop {
        let x = open_unit(word()).ln() / ZIGGURAT_R;
        let y = open_unit(word()).ln();
        if -2.0 * y >= x * x {
            return if negative {
                x - ZIGGURAT_R
            } else {
                ZIGGURAT_R - x
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::MissingValuePolicy;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn table() -> Table {
        Table::from_columns(vec![
            ("x", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0, 5.0])),
            ("y", Column::from_f64(vec![10.0, 10.0, 10.0, 10.0, 10.0])),
            ("label", Column::from_strings(["a", "b", "c", "d", "e"])),
        ])
        .unwrap()
    }

    #[test]
    fn default_spec_is_five_percent() {
        let spec = PerturbationSpec::default();
        assert_eq!(spec.data_noise, 0.05);
        assert_eq!(spec.weight_noise, 0.05);
    }

    #[test]
    fn perturbation_changes_only_listed_columns() {
        let t = table();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = perturb_table_gaussian(&t, &["x"], 0.1, &mut rng).unwrap();
        assert_ne!(
            p.numeric_column("x").unwrap(),
            t.numeric_column("x").unwrap()
        );
        assert_eq!(
            p.numeric_column("y").unwrap(),
            t.numeric_column("y").unwrap()
        );
        assert_eq!(
            p.categorical_column("label").unwrap(),
            t.categorical_column("label").unwrap()
        );
    }

    #[test]
    fn zero_noise_is_identity() {
        let t = table();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = perturb_table_gaussian(&t, &["x"], 0.0, &mut rng).unwrap();
        assert_eq!(
            p.numeric_column("x").unwrap(),
            t.numeric_column("x").unwrap()
        );
    }

    #[test]
    fn constant_column_stays_constant() {
        // Its standard deviation is zero, so noise has zero scale.
        let t = table();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let p = perturb_table_gaussian(&t, &["y"], 0.5, &mut rng).unwrap();
        assert_eq!(p.numeric_column("y").unwrap(), vec![10.0; 5]);
    }

    #[test]
    fn perturbation_magnitude_tracks_noise_fraction() {
        let t = table();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let small = perturb_table_gaussian(&t, &["x"], 0.01, &mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let large = perturb_table_gaussian(&t, &["x"], 1.0, &mut rng).unwrap();
        let orig = t.numeric_column("x").unwrap();
        let dev_small: f64 = small
            .numeric_column("x")
            .unwrap()
            .iter()
            .zip(orig.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        let dev_large: f64 = large
            .numeric_column("x")
            .unwrap()
            .iter()
            .zip(orig.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(dev_large > dev_small);
    }

    #[test]
    fn perturbation_is_deterministic_under_seed() {
        let t = table();
        let mut rng1 = ChaCha8Rng::seed_from_u64(42);
        let mut rng2 = ChaCha8Rng::seed_from_u64(42);
        let p1 = perturb_table_gaussian(&t, &["x"], 0.1, &mut rng1).unwrap();
        let p2 = perturb_table_gaussian(&t, &["x"], 0.1, &mut rng2).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn unknown_column_is_error() {
        let t = table();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(perturb_table_gaussian(&t, &["ghost"], 0.1, &mut rng).is_err());
        assert!(TablePerturber::fit(&t, &["ghost"], 0.1).is_err());
        assert!(TablePerturber::fit(&t, &["label"], 0.1).is_err());
    }

    #[test]
    fn fitted_perturber_matches_the_one_shot_helper_byte_for_byte() {
        // The per-trial hot path fits once and draws many times; every draw
        // must consume the RNG exactly like the historical one-shot helper.
        let t = table();
        let perturber = TablePerturber::fit(&t, &["x"], 0.2).unwrap();
        for seed in [0u64, 1, 42, 1 << 40] {
            let mut one_shot_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut fitted_rng = ChaCha8Rng::seed_from_u64(seed);
            let one_shot = perturb_table_gaussian(&t, &["x"], 0.2, &mut one_shot_rng).unwrap();
            let fitted = perturber.perturb(&mut fitted_rng).unwrap();
            assert_eq!(one_shot, fitted, "seed {seed}");
        }
    }

    #[test]
    fn fitted_perturber_is_reusable_across_independent_draws() {
        let t = table();
        let perturber = TablePerturber::fit(&t, &["x"], 0.3).unwrap();
        let mut rng_a = ChaCha8Rng::seed_from_u64(9);
        let mut rng_b = ChaCha8Rng::seed_from_u64(10);
        let a = perturber.perturb(&mut rng_a).unwrap();
        let b = perturber.perturb(&mut rng_b).unwrap();
        assert_ne!(a, b, "independent streams draw different noise");
        // Unlisted columns are preserved in every draw.
        assert_eq!(
            a.categorical_column("label").unwrap(),
            t.categorical_column("label").unwrap()
        );
        assert_eq!(
            b.numeric_column("y").unwrap(),
            t.numeric_column("y").unwrap()
        );
    }

    #[test]
    fn unperturbed_columns_are_shared_not_copied() {
        // The hot path draws hundreds of perturbed copies; columns outside
        // the perturbation set must ride along by reference count, not by
        // deep copy.
        let t = table();
        let perturber = TablePerturber::fit(&t, &["x"], 0.1).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let draw = perturber.perturb(&mut rng).unwrap();
        for kept in ["y", "label"] {
            assert!(
                Arc::ptr_eq(
                    t.shared_column(kept).unwrap(),
                    draw.shared_column(kept).unwrap()
                ),
                "column `{kept}` must be Arc-shared into the draw"
            );
        }
        assert!(!Arc::ptr_eq(
            t.shared_column("x").unwrap(),
            draw.shared_column("x").unwrap()
        ));
    }

    #[test]
    fn weight_perturbation_stays_close() {
        let f = ScoringFunction::from_pairs([("a", 1.0), ("b", 2.0)])
            .unwrap()
            .with_missing_policy(MissingValuePolicy::Zero);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = perturb_weights(&f, 0.1, &mut rng).unwrap();
        assert_eq!(g.missing_policy(), MissingValuePolicy::Zero);
        for (orig, new) in f.weights().iter().zip(g.weights().iter()) {
            assert_eq!(orig.attribute, new.attribute);
            assert!((new.weight - orig.weight).abs() <= orig.weight.abs() * 0.1 + 1e-12);
        }
    }

    #[test]
    fn weight_perturbation_zero_noise_is_identity() {
        let f = ScoringFunction::from_pairs([("a", 0.4), ("b", 0.6)]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = perturb_weights(&f, 0.0, &mut rng).unwrap();
        assert_eq!(f.weights(), g.weights());
    }

    /// `rf_stability::trial_rng(seed, trial)` (`seed ⊕ trial` through
    /// SplitMix64); restated here because rf-stability depends on this
    /// crate.
    fn trial_rng(seed: u64, trial: usize) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed ^ trial as u64)
    }

    #[test]
    fn gaussian_golden_draws_of_trial_zero() {
        // The first draws of `trial_rng(42, 0)`, bit for bit: a change to
        // the sampler changes every label's Monte-Carlo digits, so it must
        // be deliberate (and bump `rf_store::FORMAT_VERSION`).
        let mut rng = trial_rng(42, 0);
        let draws: Vec<u64> = (0..16).map(|_| gaussian(&mut rng).to_bits()).collect();
        // The next 100k draws pass through the wedge and tail branches too;
        // an FNV-1a fold over their bits pins those branches as well.
        let fingerprint = (0..100_000).fold(0xcbf2_9ce4_8422_2325_u64, |hash, _| {
            (hash ^ gaussian(&mut rng).to_bits()).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(fingerprint, 0x849c_b4d9_25d9_1c8b);
        assert_eq!(
            draws,
            [
                0xbff544238d8e2ab4,
                0xbfe261007446beca,
                0x3fbda13f744c7120,
                0x3f6b2d171c544fff,
                0x3fd421d13612cb75,
                0xc0022998e0813e7f,
                0xbff919982d6d173a,
                0x3fdfbd15816f9c69,
                0x3ffae1fdddc1550b,
                0xbfe338672fe06cbb,
                0x3fe07d922332cc5c,
                0xbfc8bc83cde20331,
                0xbff52a45191fa618,
                0xbfdc7a83e303c1ab,
                0x3fd644391e1a3f1e,
                0xbff31c778fa8c581,
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fill_gaussian_equals_per_value_draws(
            seed in any::<u64>(),
            pick in 0usize..14,
            skew in 0u32..300,
        ) {
            // Block-boundary lengths around the 64/128 marks, around one
            // 1 KiB direct generator refill (128 draws) and one 2 KiB
            // staged read (256), and a few thousand, which spans several
            // staged reads and the wedge and tail branches.
            let len = [0usize, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 2_500, 4_097, 20_000]
                [pick];
            let mut bulk_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
            // A word offset first: odd in about half the cases, and ending
            // anywhere in the generator's first two buffers, so the fill's
            // direct refills start mid-stream.
            for _ in 0..skew {
                prop_assert_eq!(bulk_rng.next_u32(), reference_rng.next_u32());
            }
            let mut bulk = vec![0.0; len];
            fill_gaussian(&mut bulk_rng, &mut bulk);
            for (i, value) in bulk.iter().enumerate() {
                prop_assert_eq!(
                    value.to_bits(),
                    gaussian(&mut reference_rng).to_bits(),
                    "draw {} of {}", i, len
                );
            }
            // The fill read no word ahead of the stream.
            prop_assert_eq!(bulk_rng.next_u64(), reference_rng.next_u64());
        }
    }

    #[test]
    fn gaussian_ziggurat_layers_have_equal_area() {
        // R and V fit together only if the recursion closes: the top layer
        // (from x[127] up to the mode) must also have area V.
        let zig = Ziggurat::build();
        let top = zig.x[ZIGGURAT_LAYERS - 1];
        let top_area = top * (1.0 - (-0.5 * top * top).exp());
        assert!(
            (top_area - ZIGGURAT_V).abs() < 1e-9,
            "top layer area {top_area}"
        );
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(zig.x[ZIGGURAT_LAYERS], 0.0);
    }

    #[test]
    fn gaussian_matches_the_normal_cdf_by_kolmogorov_smirnov() {
        const N: usize = 200_000;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut samples: Vec<f64> = (0..N).map(|_| gaussian(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let distance = samples
            .iter()
            .enumerate()
            .map(|(i, &z)| {
                let cdf = rf_stats::normal_cdf(z);
                (cdf - i as f64 / N as f64).max((i + 1) as f64 / N as f64 - cdf)
            })
            .fold(0.0, f64::max);
        // The 1% critical value of the one-sample KS statistic.
        let critical = 1.63 / (N as f64).sqrt();
        assert!(distance < critical, "KS distance {distance} ≥ {critical}");
    }

    #[test]
    fn gaussian_tail_mass_beyond_r_matches_the_normal() {
        // Draws beyond ±R come only from the tail branch; each side must
        // carry 1 − Φ(R) ≈ 2.9e-4 of the mass, within a 5σ binomial band.
        const N: usize = 1_000_000;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let (mut below, mut above) = (0usize, 0usize);
        for _ in 0..N {
            let z = gaussian(&mut rng);
            if z < -ZIGGURAT_R {
                below += 1;
            } else if z > ZIGGURAT_R {
                above += 1;
            }
        }
        let p = 1.0 - rf_stats::normal_cdf(ZIGGURAT_R);
        let expected = N as f64 * p;
        let band = 5.0 * (N as f64 * p * (1.0 - p)).sqrt();
        for (side, count) in [("below −R", below), ("above R", above)] {
            assert!(
                (count as f64 - expected).abs() < band,
                "{side}: {count} draws, expected {expected:.0} ± {band:.0}"
            );
        }
    }

    #[test]
    fn gaussian_samples_have_roughly_standard_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let samples: Vec<f64> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let mean = rf_stats::mean(&samples).unwrap();
        let sd = rf_stats::stddev(&samples).unwrap();
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((sd - 1.0).abs() < 0.03, "sd {sd}");
    }
}
