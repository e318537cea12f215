//! # rf-stability
//!
//! Stability analysis for score-based rankings, reproducing the Stability
//! widget of *"A Nutritional Label for Rankings"* (SIGMOD 2018).
//!
//! "An unstable ranking is one where slight changes to the data (e.g., due to
//! uncertainty and noise), or to the methodology (e.g., by slightly adjusting
//! the weights in a score-based ranker) could lead to a significant change in
//! the output.  This widget reports a stability score, as a single number
//! that indicates the extent of the change required for the ranking to
//! change." (paper §2.2)
//!
//! Three estimators are provided, mirroring the alternatives the paper lists:
//!
//! * [`slope`] — the headline estimator of Figure 2: the magnitude of the
//!   slope of a least-squares line fit to the score distribution at the
//!   top-k and over-all, compared against a threshold (0.25 in the paper).
//! * [`attribute`] — "stability can be computed with respect to each scoring
//!   attribute": the same slope statistic applied to each attribute's
//!   normalized values in rank order.
//! * [`monte_carlo`] — "or it can be assessed using a model of uncertainty in
//!   the data": repeated re-ranking under data noise and weight jitter,
//!   summarized by the expected Kendall tau and expected top-k overlap.
//!   Each trial draws from its own derived ChaCha stream (`seed ⊕ trial`),
//!   so the batched parallel schedule
//!   ([`MonteCarloStability::evaluate_batched`], any number of trials per
//!   `rf-runtime` scheduler task) is byte-identical to the sequential
//!   reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod error;
pub mod monte_carlo;
pub mod slope;

pub use attribute::{
    attribute_stability, attribute_stability_from_normalized, attribute_stability_with_threshold,
    normalized_values_in_rank_order, AttributeStability,
};
pub use error::{StabilityError, StabilityResult};
pub use monte_carlo::{
    batches_per_worker_for_rows, trial_rng, MonteCarloStability, MonteCarloSummary, TrialOutcome,
    DEFAULT_BATCHES_PER_WORKER,
};
pub use slope::{score_distribution_slope, SlopeStability, StabilityVerdict};
