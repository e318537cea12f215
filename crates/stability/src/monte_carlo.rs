//! Monte-Carlo stability under data noise and weight jitter.
//!
//! "...or it can be assessed using a model of uncertainty in the data"
//! (paper §2.2).  The estimator re-scores and re-ranks the dataset many times
//! under small random perturbations — Gaussian noise on the scoring
//! attributes, multiplicative jitter on the weights — and summarizes how much
//! the ranking moves: expected Kendall tau against the original ranking and
//! expected overlap of the top-k set.
//!
//! ## Per-trial random streams
//!
//! Every trial draws from its **own** deterministically derived ChaCha
//! stream: trial `i` seeds `ChaCha8Rng` from `seed ⊕ i` (the `u64` is then
//! expanded through SplitMix64 by `seed_from_u64`, which decorrelates
//! adjacent seeds).  Trials therefore commute — the estimate is a pure
//! function of `(inputs, seed, trials)`, independent of execution order — so
//! any parallel schedule (`ceil(trials / (workers × f))` trials per task in
//! [`MonteCarloStability::evaluate_batched`], down to one task per trial) is
//! **byte-identical** to the sequential reference
//! [`MonteCarloStability::evaluate`] at any worker count and batch size.
//!
//! ## The columnar hot path
//!
//! All schedules run their trials on [`rf_ranking::TrialKernel`]: the inputs
//! are fitted **once** into flat `f64` column buffers, and each trial
//! perturbs, scores, and argsorts inside a reusable
//! [`rf_ranking::TrialScratch`] — no per-trial `Table`, no column clones, no
//! allocations once the scratch is warm.
//! [`MonteCarloStability::evaluate_materialized`] keeps the historical
//! perturb-a-table path as the reference the parity tests (and the
//! `monte_carlo` bench ablation) compare against.
//!
//! ## Deadline budget
//!
//! [`MonteCarloStability::evaluate_batched`] accepts a wall-clock deadline:
//! batches launch in waves, and once the deadline has passed no further wave
//! is launched (the first wave always runs, so the summary always reflects at
//! least one batch of trials).  A truncated run reports the trials that
//! completed — a deterministic prefix `0..completed`, each on its usual
//! derived stream — and sets [`MonteCarloSummary::truncated`].

use crate::error::{StabilityError, StabilityResult};
use crate::slope::StabilityVerdict;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rf_ranking::{
    kendall_tau_rankings, perturb_weights, Ranking, ScoringFunction, TablePerturber, TrialKernel,
    TrialScratch,
};
use rf_runtime::{Scheduler, ScratchPool};
use rf_table::Table;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default number of batches per worker in
/// [`MonteCarloStability::evaluate_batched`]: each scheduler task runs
/// `ceil(trials / (workers × f))` trials, so every worker sees about `f`
/// tasks — enough slack for work stealing to even out uneven batches, few
/// enough that per-task overhead stays negligible.  It also bounds how much
/// work a deadline wave commits to before the budget is re-checked (about
/// `1/f` of the remaining trials).
pub const DEFAULT_BATCHES_PER_WORKER: usize = 4;

/// Row-adaptive batches-per-worker factor for
/// [`MonteCarloStability::evaluate_batched`].
///
/// A batch's cost scales with `rows × trials-per-batch`, so on large tables
/// the default factor commits minutes of work per deadline check.  Raising
/// the factor with the row count shrinks each batch, which re-checks the
/// deadline budget more often and gives work stealing finer grains —
/// without changing the result: trial streams are schedule-independent, so
/// any factor is byte-identical.  Small tables keep the default factor and
/// its per-task overhead profile.
#[must_use]
pub fn batches_per_worker_for_rows(rows: usize) -> usize {
    if rows >= 1_000_000 {
        DEFAULT_BATCHES_PER_WORKER * 8
    } else if rows >= 100_000 {
        DEFAULT_BATCHES_PER_WORKER * 4
    } else if rows >= 10_000 {
        DEFAULT_BATCHES_PER_WORKER * 2
    } else {
        DEFAULT_BATCHES_PER_WORKER
    }
}

/// Configuration of the Monte-Carlo stability estimator.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonteCarloStability {
    /// Number of perturbed re-rankings.
    pub trials: usize,
    /// Gaussian noise on data values, as a fraction of each column's standard
    /// deviation.
    pub data_noise: f64,
    /// Multiplicative jitter on scoring weights.
    pub weight_noise: f64,
    /// Top-k slice whose overlap is tracked.
    pub k: usize,
    /// Expected-Kendall-tau threshold below which the ranking is called
    /// unstable.
    pub tau_threshold: f64,
    /// RNG seed (the estimator is deterministic for a fixed seed).
    pub seed: u64,
    /// Whether the trial kernel may reassociate float operations (see
    /// [`rf_ranking::TrialKernel::with_relaxed_fp`]).  Default `false`:
    /// byte-identical to the materialized reference.
    #[serde(default)]
    pub relaxed_fp: bool,
}

impl Default for MonteCarloStability {
    fn default() -> Self {
        MonteCarloStability {
            trials: 100,
            data_noise: 0.05,
            weight_noise: 0.05,
            k: 10,
            tau_threshold: 0.9,
            seed: 42,
            relaxed_fp: false,
        }
    }
}

/// Summary of a Monte-Carlo stability run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MonteCarloSummary {
    /// Number of perturbed re-rankings actually performed.
    pub trials: usize,
    /// Number of trials the configuration asked for (`== trials` unless the
    /// run was truncated by a deadline).
    #[serde(default)]
    pub trials_requested: usize,
    /// Whether the run stopped early because its wall-clock deadline passed.
    /// The performed trials are the deterministic prefix `0..trials`, each on
    /// its usual derived stream.
    #[serde(default)]
    pub truncated: bool,
    /// Mean Kendall tau between the original and perturbed rankings.
    pub expected_kendall_tau: f64,
    /// Minimum Kendall tau observed over the trials (worst case).
    pub worst_kendall_tau: f64,
    /// Mean Jaccard overlap of the top-k sets (1.0 = identical top-k).
    pub expected_top_k_overlap: f64,
    /// Fraction of trials in which the rank-1 item changed.
    pub top_item_change_rate: f64,
    /// Verdict at the configured tau threshold.
    pub verdict: StabilityVerdict,
}

impl MonteCarloStability {
    /// Creates the estimator with default settings (100 trials, 5% noise).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of trials.
    ///
    /// # Errors
    /// Requires at least one trial.
    pub fn with_trials(mut self, trials: usize) -> StabilityResult<Self> {
        if trials == 0 {
            return Err(StabilityError::InvalidParameter {
                parameter: "trials",
                message: "at least one trial is required".to_string(),
            });
        }
        self.trials = trials;
        Ok(self)
    }

    /// Sets the noise magnitudes (data, weight), both as fractions.
    ///
    /// # Errors
    /// Requires non-negative finite fractions.
    pub fn with_noise(mut self, data_noise: f64, weight_noise: f64) -> StabilityResult<Self> {
        for (name, value) in [("data_noise", data_noise), ("weight_noise", weight_noise)] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(StabilityError::InvalidParameter {
                    parameter: if name == "data_noise" {
                        "data_noise"
                    } else {
                        "weight_noise"
                    },
                    message: format!("noise fraction must be non-negative and finite, got {value}"),
                });
            }
        }
        self.data_noise = data_noise;
        self.weight_noise = weight_noise;
        Ok(self)
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the audited top-k size.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Enables (or disables) relaxed float mode on the trial kernel.
    #[must_use]
    pub fn with_relaxed_fp(mut self, relaxed: bool) -> Self {
        self.relaxed_fp = relaxed;
        self
    }

    /// Runs the estimator **sequentially** on the columnar kernel — the
    /// reference schedule: trials `0..trials` execute in order on the calling
    /// thread, sharing one scratch, each drawing from its own derived stream
    /// ([`trial_rng`]).
    ///
    /// # Errors
    /// Propagates scoring errors; requires a ranking of at least two items.
    pub fn evaluate(
        &self,
        table: &Table,
        scoring: &ScoringFunction,
        ranking: &Ranking,
    ) -> StabilityResult<MonteCarloSummary> {
        let plan = self.plan(table, scoring, ranking)?;
        let mut scratch = plan.kernel.scratch();
        let mut outcomes = Vec::with_capacity(self.trials);
        for trial in 0..self.trials {
            outcomes.push(plan.run_trial(trial, &mut scratch)?);
        }
        Ok(self.summarize(&outcomes))
    }

    /// Runs the estimator by **materializing a perturbed table per trial** —
    /// the historical evaluation plan, kept as the reference the columnar
    /// kernel is compared against (parity proptests, bench ablation).  Slow:
    /// every trial clones column data and re-fits from a fresh [`Table`].
    ///
    /// Byte-identical to [`evaluate`](Self::evaluate) for every input.
    ///
    /// # Errors
    /// Same as [`evaluate`](Self::evaluate).
    pub fn evaluate_materialized(
        &self,
        table: &Table,
        scoring: &ScoringFunction,
        ranking: &Ranking,
    ) -> StabilityResult<MonteCarloSummary> {
        self.validate(ranking)?;
        let k = self.k.clamp(1, ranking.len());
        let perturber = if self.data_noise > 0.0 {
            let scoring_attributes: Vec<&str> = scoring.attribute_names();
            Some(TablePerturber::fit(
                table,
                &scoring_attributes,
                self.data_noise,
            )?)
        } else {
            None
        };
        let plan = MaterializedPlan {
            table,
            scoring,
            ranking,
            perturber,
            original_top_k: ranking.top_k_indices(k),
            original_top_item: ranking.items()[0].index,
            k,
            weight_noise: self.weight_noise,
            seed: self.seed,
        };
        let mut outcomes = Vec::with_capacity(self.trials);
        for trial in 0..self.trials {
            outcomes.push(plan.run_trial(trial)?);
        }
        Ok(self.summarize(&outcomes))
    }

    /// Runs the estimator in **adaptive batches** with an optional wall-clock
    /// deadline — the label hot path's schedule.
    ///
    /// Trials are grouped into contiguous batches of
    /// `ceil(trials / (workers × f))` with `f =`
    /// [`batches_per_worker_for_rows`] — the default factor on small tables,
    /// raised with the row count so large tables re-check the deadline
    /// budget often enough; each scheduler task runs one batch,
    /// reusing a pooled [`TrialScratch`] across the batch (and across waves),
    /// so per-task overhead and allocations amortize over the whole batch.
    /// Trial `i` still draws from its own `seed ⊕ i` stream, so the summary
    /// is byte-identical to [`evaluate`](Self::evaluate) at **any** batch
    /// size and worker count.
    ///
    /// Batches launch one wave (of up to `workers` batches) at a time.  When
    /// `deadline` is set and has passed, no further wave launches: the run
    /// reports the deterministic prefix of trials that completed, with
    /// [`MonteCarloSummary::truncated`] set.  The first wave always runs, so
    /// even a zero deadline yields a valid summary over at least one batch
    /// per worker — never a hang, never an empty estimate.
    ///
    /// # Errors
    /// The first failing trial's error in trial order, or
    /// [`StabilityError::TrialPanic`] naming the first trial of a panicked
    /// batch.
    pub fn evaluate_batched(
        &self,
        scheduler: &Scheduler,
        table: &Arc<Table>,
        scoring: &ScoringFunction,
        ranking: &Ranking,
        deadline: Option<Duration>,
    ) -> StabilityResult<MonteCarloSummary> {
        self.evaluate_batched_with(
            scheduler,
            table,
            scoring,
            ranking,
            deadline,
            batches_per_worker_for_rows(table.num_rows()),
        )
    }

    /// [`evaluate_batched`](Self::evaluate_batched) with an explicit
    /// batches-per-worker factor `f` (the bench sweeps it; `0` is treated
    /// as `1`).
    ///
    /// # Errors
    /// Same as [`evaluate_batched`](Self::evaluate_batched).
    pub fn evaluate_batched_with(
        &self,
        scheduler: &Scheduler,
        table: &Arc<Table>,
        scoring: &ScoringFunction,
        ranking: &Ranking,
        deadline: Option<Duration>,
        batches_per_worker: usize,
    ) -> StabilityResult<MonteCarloSummary> {
        let plan = Arc::new(self.plan(table, scoring, ranking)?);
        let scratches: Arc<ScratchPool<TrialScratch>> = Arc::new(ScratchPool::new());
        let workers = scheduler.size().max(1);
        let factor = batches_per_worker.max(1);
        let batch = self.trials.div_ceil(workers * factor).max(1);
        let deadline_at = deadline.map(|budget| Instant::now() + budget);

        let mut outcomes: Vec<TrialOutcome> = Vec::with_capacity(self.trials);
        let mut next = 0usize;
        while next < self.trials {
            // The deadline gates *launching*, never running: wave 0 always
            // goes out, and a launched wave always completes.
            if next > 0 {
                if let Some(at) = deadline_at {
                    if Instant::now() >= at {
                        break;
                    }
                }
            }
            // Without a deadline there is nothing to re-check between waves,
            // so all batches go out in one submission — the full `workers × f`
            // task surplus is live at once and stealing can rebalance uneven
            // batches.  With a deadline, each wave is one batch per worker so
            // the budget is re-checked about `f` times per run.
            let wave_end = if deadline_at.is_none() {
                self.trials
            } else {
                (next + batch * workers).min(self.trials)
            };
            let ranges: Vec<std::ops::Range<usize>> = (next..wave_end)
                .step_by(batch)
                .map(|start| start..(start + batch).min(wave_end))
                .collect();
            let jobs: Vec<_> = ranges
                .iter()
                .cloned()
                .map(|range| {
                    let plan = Arc::clone(&plan);
                    let scratches = Arc::clone(&scratches);
                    move || {
                        let mut scratch = scratches.take_or_else(|| plan.kernel.scratch());
                        let mut batch_outcomes = Vec::with_capacity(range.len());
                        for trial in range {
                            match plan.run_trial(trial, &mut scratch) {
                                Ok(outcome) => batch_outcomes.push(outcome),
                                Err(err) => {
                                    scratches.put(scratch);
                                    return Err(err);
                                }
                            }
                        }
                        scratches.put(scratch);
                        Ok(batch_outcomes)
                    }
                })
                .collect();
            for (slot, range) in scheduler.run_all(jobs).into_iter().zip(ranges) {
                match slot {
                    Some(Ok(batch_outcomes)) => outcomes.extend(batch_outcomes),
                    Some(Err(err)) => return Err(err),
                    None => {
                        return Err(StabilityError::TrialPanic { trial: range.start });
                    }
                }
            }
            next = wave_end;
        }
        Ok(self.summarize(&outcomes))
    }

    /// Shared input validation: the ranking must have at least two items and
    /// the configuration at least one trial.
    fn validate(&self, ranking: &Ranking) -> StabilityResult<()> {
        if ranking.len() < 2 {
            return Err(StabilityError::TooFewItems {
                available: ranking.len(),
                required: 2,
            });
        }
        if self.trials == 0 {
            return Err(StabilityError::InvalidParameter {
                parameter: "trials",
                message: "at least one trial is required".to_string(),
            });
        }
        Ok(())
    }

    /// Validates the inputs and fits everything the trials share: the
    /// columnar [`TrialKernel`] (column buffers, noise scales and each row's
    /// original position computed once) plus the clamped `k`.
    fn plan(
        &self,
        table: &Table,
        scoring: &ScoringFunction,
        ranking: &Ranking,
    ) -> StabilityResult<TrialPlan> {
        self.validate(ranking)?;
        let kernel = TrialKernel::fit(table, scoring, ranking, self.data_noise, self.weight_noise)?
            .with_relaxed_fp(self.relaxed_fp);
        Ok(TrialPlan {
            covers_table: ranking.len() == kernel.rows(),
            kernel,
            k: self.k.clamp(1, ranking.len()),
            seed: self.seed,
        })
    }

    /// Folds per-trial outcomes (in trial order) into the summary.  Pure and
    /// order-sensitive only through float summation, which all schedules
    /// perform identically because outcomes arrive indexed by trial.
    fn summarize(&self, outcomes: &[TrialOutcome]) -> MonteCarloSummary {
        let count = outcomes.len() as f64;
        let expected_tau = outcomes.iter().map(|o| o.kendall_tau).sum::<f64>() / count;
        let worst_tau = outcomes
            .iter()
            .map(|o| o.kendall_tau)
            .fold(f64::INFINITY, f64::min);
        let expected_overlap = outcomes.iter().map(|o| o.top_k_overlap).sum::<f64>() / count;
        let top_changes = outcomes.iter().filter(|o| o.top_item_changed).count();
        let verdict = if expected_tau >= self.tau_threshold {
            StabilityVerdict::Stable
        } else {
            StabilityVerdict::Unstable
        };
        MonteCarloSummary {
            trials: outcomes.len(),
            trials_requested: self.trials,
            truncated: outcomes.len() < self.trials,
            expected_kendall_tau: expected_tau,
            worst_kendall_tau: worst_tau,
            expected_top_k_overlap: expected_overlap,
            top_item_change_rate: top_changes as f64 / count,
            verdict,
        }
    }
}

/// The RNG of one trial: an independent ChaCha stream derived as
/// `seed ⊕ trial` (then expanded through SplitMix64 by `seed_from_u64`).
/// Public so tests and benches can pin the derivation.
#[must_use]
pub fn trial_rng(seed: u64, trial: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ trial as u64)
}

/// What one perturbed re-ranking observed, relative to the original ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Kendall tau between the original and the perturbed ranking.
    pub kendall_tau: f64,
    /// Jaccard overlap of the original and perturbed top-k sets.
    pub top_k_overlap: f64,
    /// Whether the rank-1 item changed.
    pub top_item_changed: bool,
}

/// Everything the trials share, fitted once per evaluation and immutable
/// afterwards — safe to reference from concurrently running trial tasks.
#[derive(Debug)]
struct TrialPlan {
    /// The columnar trial kernel: column buffers, noise scales, weights,
    /// and each row's position in the original ranking.
    kernel: TrialKernel,
    /// Whether the original ranking has one item per table row.
    covers_table: bool,
    /// The original top-k size: its items hold the positions below `k`.
    k: usize,
    seed: u64,
}

impl TrialPlan {
    /// Runs trial `trial` on its own derived stream inside `scratch`:
    /// perturb the data, jitter the weights, re-rank, compare.  Pure in
    /// `(plan, trial)` — the scratch only carries reusable buffers.
    fn run_trial(&self, trial: usize, scratch: &mut TrialScratch) -> StabilityResult<TrialOutcome> {
        let mut rng = trial_rng(self.seed, trial);
        self.kernel.rank_trial(&mut rng, scratch)?;
        // The reference degrades a ranking-size mismatch to tau = 0.0
        // (`kendall_tau_rankings(..).unwrap_or(0.0)`); sizes match on every
        // sane call, but the quirk is part of the byte-identity contract.
        let kendall_tau = if self.covers_table {
            scratch.kendall_tau()
        } else {
            0.0
        };
        // The trial's ranking lists original positions: a row among its
        // first `k` is in the original top k when its position is below `k`.
        let perturbed_top_len = self.k.min(self.kernel.rows());
        let intersection = scratch
            .original_positions()
            .take(perturbed_top_len)
            .filter(|&position| position < self.k)
            .count();
        let union = self.k + perturbed_top_len - intersection;
        Ok(TrialOutcome {
            kendall_tau,
            top_k_overlap: intersection as f64 / union as f64,
            top_item_changed: scratch.original_positions().next() != Some(0),
        })
    }
}

/// The historical per-trial plan: materialize a perturbed [`Table`], re-fit
/// the scoring function, build a fresh [`Ranking`].  Reference only.
#[derive(Debug)]
struct MaterializedPlan<'a> {
    table: &'a Table,
    scoring: &'a ScoringFunction,
    ranking: &'a Ranking,
    /// Fitted perturbation model; `None` when `data_noise == 0`.
    perturber: Option<TablePerturber>,
    original_top_k: Vec<usize>,
    original_top_item: usize,
    k: usize,
    weight_noise: f64,
    seed: u64,
}

impl MaterializedPlan<'_> {
    /// Runs trial `trial` the materialized way: perturb the data, jitter the
    /// weights, re-rank, compare.  Pure in `(plan, trial)`.
    fn run_trial(&self, trial: usize) -> StabilityResult<TrialOutcome> {
        let mut rng = trial_rng(self.seed, trial);
        // Draw order matches the historical estimator: data noise first,
        // then weight jitter.
        let perturbed_table = match &self.perturber {
            Some(perturber) => Some(perturber.perturb(&mut rng)?),
            None => None,
        };
        let scoring = if self.weight_noise > 0.0 {
            perturb_weights(self.scoring, self.weight_noise, &mut rng)?
        } else {
            self.scoring.clone()
        };
        let table: &Table = perturbed_table.as_ref().unwrap_or(self.table);
        let perturbed_ranking = scoring.rank_table(table)?;
        Ok(TrialOutcome {
            kendall_tau: kendall_tau_rankings(self.ranking, &perturbed_ranking).unwrap_or(0.0),
            top_k_overlap: jaccard(
                &self.original_top_k,
                &perturbed_ranking.top_k_indices(self.k),
            ),
            top_item_changed: perturbed_ranking.order()[0] != self.original_top_item,
        })
    }
}

/// Jaccard similarity of two index sets.
fn jaccard(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let set_a: HashSet<usize> = a.iter().copied().collect();
    let set_b: HashSet<usize> = b.iter().copied().collect();
    let intersection = set_a.intersection(&set_b).count() as f64;
    let union = set_a.union(&set_b).count() as f64;
    intersection / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_table::Column;

    /// Table whose scores are widely spread: robust to small noise.
    fn spread_table(n: usize) -> Table {
        Table::from_columns(vec![(
            "x",
            Column::from_f64((0..n).map(|i| i as f64 * 10.0).collect()),
        )])
        .unwrap()
    }

    /// Table whose scores are nearly tied: fragile under noise.
    fn clustered_table(n: usize) -> Table {
        Table::from_columns(vec![(
            "x",
            Column::from_f64((0..n).map(|i| 100.0 + 1e-4 * i as f64).collect()),
        )])
        .unwrap()
    }

    #[test]
    fn spread_scores_are_stable_under_noise() {
        let t = spread_table(30);
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let summary = MonteCarloStability::new()
            .with_trials(50)
            .unwrap()
            .with_noise(0.01, 0.01)
            .unwrap()
            .evaluate(&t, &scoring, &ranking)
            .unwrap();
        assert_eq!(summary.verdict, StabilityVerdict::Stable);
        assert!(summary.expected_kendall_tau > 0.95);
        assert!(summary.expected_top_k_overlap > 0.9);
        assert!(summary.top_item_change_rate < 0.1);
        assert_eq!(summary.trials_requested, 50);
        assert!(!summary.truncated);
    }

    #[test]
    fn clustered_scores_are_unstable_under_noise() {
        let t = clustered_table(30);
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let summary = MonteCarloStability::new()
            .with_trials(50)
            .unwrap()
            .with_noise(5.0, 0.0)
            .unwrap()
            .evaluate(&t, &scoring, &ranking)
            .unwrap();
        assert_eq!(summary.verdict, StabilityVerdict::Unstable);
        assert!(summary.expected_kendall_tau < 0.5);
        assert!(summary.expected_top_k_overlap < 0.9);
    }

    #[test]
    fn zero_noise_reproduces_original_ranking() {
        let t = spread_table(20);
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let summary = MonteCarloStability::new()
            .with_trials(5)
            .unwrap()
            .with_noise(0.0, 0.0)
            .unwrap()
            .evaluate(&t, &scoring, &ranking)
            .unwrap();
        assert!((summary.expected_kendall_tau - 1.0).abs() < 1e-12);
        assert!((summary.expected_top_k_overlap - 1.0).abs() < 1e-12);
        assert_eq!(summary.top_item_change_rate, 0.0);
        assert_eq!(summary.worst_kendall_tau, 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let t = spread_table(25);
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let estimator = MonteCarloStability::new()
            .with_trials(20)
            .unwrap()
            .with_seed(7);
        let s1 = estimator.evaluate(&t, &scoring, &ranking).unwrap();
        let s2 = estimator.evaluate(&t, &scoring, &ranking).unwrap();
        assert_eq!(s1, s2);
        // A different seed generally gives a (slightly) different estimate.
        let s3 = MonteCarloStability::new()
            .with_trials(20)
            .unwrap()
            .with_seed(8)
            .evaluate(&t, &scoring, &ranking)
            .unwrap();
        assert_eq!(s3.trials, 20);
    }

    #[test]
    fn parameter_validation() {
        assert!(MonteCarloStability::new().with_trials(0).is_err());
        assert!(MonteCarloStability::new().with_noise(-0.1, 0.0).is_err());
        assert!(MonteCarloStability::new()
            .with_noise(0.1, f64::NAN)
            .is_err());
        let t = spread_table(5);
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let tiny = Ranking::from_scores(&[1.0]).unwrap();
        assert!(MonteCarloStability::new()
            .evaluate(&t, &scoring, &tiny)
            .is_err());
        assert!(MonteCarloStability::new()
            .evaluate_materialized(&t, &scoring, &tiny)
            .is_err());
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn rankings_of_another_size_match_the_materialized_reference() {
        // A ranking of a shorter table leaves the last rows without an
        // original position; a longer one covers every row.  Tau degrades
        // to 0 on both paths, and the overlap and top item still agree.
        let t = spread_table(30);
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        for items in [25usize, 36] {
            let order: Vec<usize> = (0..items).rev().collect();
            let ranking = Ranking::from_order(&order).unwrap();
            for k in [1usize, 10, 33] {
                let estimator = MonteCarloStability::new()
                    .with_trials(9)
                    .unwrap()
                    .with_noise(0.3, 0.2)
                    .unwrap()
                    .with_k(k);
                let columnar = estimator.evaluate(&t, &scoring, &ranking).unwrap();
                let materialized = estimator
                    .evaluate_materialized(&t, &scoring, &ranking)
                    .unwrap();
                assert_eq!(columnar, materialized, "{items} items, k = {k}");
                assert_eq!(columnar.expected_kendall_tau, 0.0);
            }
        }
    }

    #[test]
    fn columnar_kernel_matches_the_materialized_reference() {
        // The tentpole contract: the allocation-free kernel path is
        // byte-identical to the historical perturb-a-table path.
        let t = Table::from_columns(vec![
            (
                "label",
                Column::from_strings((0..35).map(|i| format!("r{i}")).collect::<Vec<_>>()),
            ),
            (
                "x",
                Column::from_f64((0..35).map(|i| (i as f64 * 2.1).sin() * 40.0).collect()),
            ),
            (
                "y",
                Column::from_f64((0..35).map(|i| 70.0 - i as f64).collect()),
            ),
        ])
        .unwrap();
        let scoring = ScoringFunction::from_pairs([("y", 0.6), ("x", 0.4)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        for &(data_noise, weight_noise) in &[(0.0, 0.0), (0.1, 0.0), (0.0, 0.15), (0.2, 0.2)] {
            for seed in [0u64, 42, 12345] {
                let estimator = MonteCarloStability::new()
                    .with_trials(19)
                    .unwrap()
                    .with_noise(data_noise, weight_noise)
                    .unwrap()
                    .with_seed(seed)
                    .with_k(7);
                let columnar = estimator.evaluate(&t, &scoring, &ranking).unwrap();
                let materialized = estimator
                    .evaluate_materialized(&t, &scoring, &ranking)
                    .unwrap();
                assert_eq!(
                    columnar, materialized,
                    "noise ({data_noise}, {weight_noise}), seed {seed}"
                );
            }
        }
    }

    #[test]
    fn parallel_trials_match_the_sequential_reference_at_any_worker_count() {
        let t = Arc::new(spread_table(40));
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let estimator = MonteCarloStability::new()
            .with_trials(17)
            .unwrap()
            .with_noise(0.2, 0.1)
            .unwrap()
            .with_seed(99);
        let sequential = estimator.evaluate(&t, &scoring, &ranking).unwrap();
        for workers in [1usize, 2, 5] {
            let scheduler = Scheduler::new(workers);
            // Factor = trials: one scheduler task per trial.
            let parallel = estimator
                .evaluate_batched_with(&scheduler, &t, &scoring, &ranking, None, 17)
                .unwrap();
            assert_eq!(sequential, parallel, "{workers} workers");
        }
    }

    #[test]
    fn batched_trials_match_the_sequential_reference_at_any_batch_size() {
        let t = Arc::new(spread_table(40));
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let estimator = MonteCarloStability::new()
            .with_trials(23)
            .unwrap()
            .with_noise(0.2, 0.1)
            .unwrap()
            .with_seed(7);
        let sequential = estimator.evaluate(&t, &scoring, &ranking).unwrap();
        for workers in [1usize, 2, 4] {
            let scheduler = Scheduler::new(workers);
            for factor in [1usize, 2, 4, 8, 100] {
                let batched = estimator
                    .evaluate_batched_with(&scheduler, &t, &scoring, &ranking, None, factor)
                    .unwrap();
                assert_eq!(sequential, batched, "{workers} workers, factor {factor}");
            }
        }
    }

    #[test]
    fn batching_schedules_fewer_tasks_than_trials() {
        let t = Arc::new(spread_table(30));
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let scheduler = Scheduler::new(2);
        let before = scheduler.executed_jobs();
        MonteCarloStability::new()
            .with_trials(64)
            .unwrap()
            .evaluate_batched(&scheduler, &t, &scoring, &ranking, None)
            .unwrap();
        // 64 trials / (2 workers × 4 batches) = 8 trials per task → 8 tasks.
        assert_eq!(scheduler.executed_jobs() - before, 8);
    }

    #[test]
    fn zero_deadline_truncates_to_the_first_wave_deterministically() {
        let t = Arc::new(spread_table(30));
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let estimator = MonteCarloStability::new()
            .with_trials(64)
            .unwrap()
            .with_noise(0.3, 0.1)
            .unwrap();
        let scheduler = Scheduler::new(2);
        let truncated = estimator
            .evaluate_batched(&scheduler, &t, &scoring, &ranking, Some(Duration::ZERO))
            .unwrap();
        // batch = 64 / (2 × 4) = 8; one wave = 2 batches = 16 trials.
        assert!(truncated.truncated);
        assert_eq!(truncated.trials, 16);
        assert_eq!(truncated.trials_requested, 64);
        // The completed prefix is deterministic: it matches a 16-trial run
        // of the same estimator outcome-for-outcome.
        let prefix = MonteCarloStability {
            trials: 16,
            ..estimator.clone()
        }
        .evaluate(&t, &scoring, &ranking)
        .unwrap();
        assert_eq!(truncated.expected_kendall_tau, prefix.expected_kendall_tau);
        assert_eq!(truncated.worst_kendall_tau, prefix.worst_kendall_tau);
        assert_eq!(
            truncated.expected_top_k_overlap,
            prefix.expected_top_k_overlap
        );
        assert_eq!(truncated.top_item_change_rate, prefix.top_item_change_rate);
        // And re-running the truncated evaluation reproduces itself.
        let again = estimator
            .evaluate_batched(&scheduler, &t, &scoring, &ranking, Some(Duration::ZERO))
            .unwrap();
        assert_eq!(truncated, again);
    }

    #[test]
    fn generous_deadline_completes_every_trial() {
        let t = Arc::new(spread_table(20));
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let scheduler = Scheduler::new(2);
        let summary = MonteCarloStability::new()
            .with_trials(12)
            .unwrap()
            .evaluate_batched(
                &scheduler,
                &t,
                &scoring,
                &ranking,
                Some(Duration::from_secs(3600)),
            )
            .unwrap();
        assert!(!summary.truncated);
        assert_eq!(summary.trials, 12);
        assert_eq!(summary.trials_requested, 12);
    }

    #[test]
    fn per_trial_factor_runs_exactly_one_task_per_trial() {
        let t = Arc::new(spread_table(20));
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let scheduler = Scheduler::new(3);
        let before = scheduler.executed_jobs();
        MonteCarloStability::new()
            .with_trials(13)
            .unwrap()
            .evaluate_batched_with(&scheduler, &t, &scoring, &ranking, None, 13)
            .unwrap();
        assert_eq!(scheduler.executed_jobs() - before, 13);
    }

    #[test]
    fn trial_streams_are_independent_and_deterministic() {
        use rand::RngCore;
        let mut a = trial_rng(42, 3);
        let mut a_again = trial_rng(42, 3);
        let mut b = trial_rng(42, 4);
        let mut matched = 0;
        for _ in 0..64 {
            let word = a.next_u64();
            assert_eq!(word, a_again.next_u64());
            if word == b.next_u64() {
                matched += 1;
            }
        }
        assert!(matched < 4, "adjacent trial streams must decorrelate");
    }

    #[test]
    fn batches_per_worker_scales_with_rows() {
        assert_eq!(batches_per_worker_for_rows(0), DEFAULT_BATCHES_PER_WORKER);
        assert_eq!(
            batches_per_worker_for_rows(9_999),
            DEFAULT_BATCHES_PER_WORKER
        );
        assert_eq!(
            batches_per_worker_for_rows(10_000),
            DEFAULT_BATCHES_PER_WORKER * 2
        );
        assert_eq!(
            batches_per_worker_for_rows(100_000),
            DEFAULT_BATCHES_PER_WORKER * 4
        );
        assert_eq!(
            batches_per_worker_for_rows(1_000_000),
            DEFAULT_BATCHES_PER_WORKER * 8
        );
    }

    #[test]
    fn large_tables_schedule_finer_batches() {
        // 10k rows double the batches-per-worker factor: 64 trials /
        // (2 workers × 8) = 4 trials per task → 16 tasks (vs 8 on a small
        // table) — and the summary stays byte-identical to the sequential
        // reference, because trial streams are schedule-independent.
        let t = Arc::new(spread_table(10_000));
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let estimator = MonteCarloStability::new()
            .with_trials(64)
            .unwrap()
            .with_noise(0.05, 0.05)
            .unwrap();
        let scheduler = Scheduler::new(2);
        let before = scheduler.executed_jobs();
        let batched = estimator
            .evaluate_batched(&scheduler, &t, &scoring, &ranking, None)
            .unwrap();
        assert_eq!(scheduler.executed_jobs() - before, 16);
        let sequential = estimator.evaluate(&t, &scoring, &ranking).unwrap();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn relaxed_fp_summary_matches_exact_on_well_separated_data() {
        // Widely spread scores: the relaxed kernel's ~1e-14 score
        // perturbation cannot reorder anything, so the whole summary is
        // identical.
        let t = spread_table(500);
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let estimator = MonteCarloStability::new()
            .with_trials(16)
            .unwrap()
            .with_noise(0.01, 0.01)
            .unwrap();
        let exact = estimator.evaluate(&t, &scoring, &ranking).unwrap();
        let relaxed = estimator
            .clone()
            .with_relaxed_fp(true)
            .evaluate(&t, &scoring, &ranking)
            .unwrap();
        assert_eq!(exact, relaxed);
    }

    #[test]
    fn relaxed_fp_rides_along_serde_with_a_default() {
        // Configs serialized before the flag existed deserialize with it
        // off.
        let json = r#"{"trials":8,"data_noise":0.1,"weight_noise":0.1,"k":5,"tau_threshold":0.9,"seed":1}"#;
        let estimator: MonteCarloStability = serde_json::from_str(json).unwrap();
        assert!(!estimator.relaxed_fp);
        let round: MonteCarloStability =
            serde_json::from_str(&serde_json::to_string(&estimator.with_relaxed_fp(true)).unwrap())
                .unwrap();
        assert!(round.relaxed_fp);
    }

    #[test]
    fn k_is_clamped_to_ranking_size() {
        let t = spread_table(5);
        let scoring = ScoringFunction::from_pairs([("x", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let summary = MonteCarloStability::new()
            .with_trials(3)
            .unwrap()
            .with_k(100)
            .evaluate(&t, &scoring, &ranking)
            .unwrap();
        assert!(summary.expected_top_k_overlap > 0.0);
    }
}
