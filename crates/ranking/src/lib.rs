//! # rf-ranking
//!
//! The scoring and ranking engine of the Ranking Facts reproduction.
//!
//! Ranking Facts explains **score-based rankers**: the user "selects at least
//! one numerical attribute for the scoring function, and assigns a weight to
//! this attribute" (paper §3, Figure 3).  Items are then ordered by the
//! weighted sum of their (optionally normalized) attribute values.  This
//! crate provides:
//!
//! * [`score`] — the linear [`ScoringFunction`]: weighted attributes plus a
//!   normalization policy, validated against a table, producing a score per
//!   row.  This is the "Recipe" the label explains.
//! * [`ranking`] — the [`Ranking`] produced by a scoring function: item
//!   indices in rank order with their scores, top-k slicing, and rank lookup.
//! * [`compare`] — rank-correlation measures between two rankings of the same
//!   items (Kendall tau, Spearman rho and footrule), used by the Monte-Carlo
//!   stability estimator and by the Ingredients widget's rank-aware
//!   association analysis.
//! * [`perturb`] — controlled perturbation of scoring weights and of the
//!   underlying data, used to probe "slight changes to the data [...] or to
//!   the methodology" (§2.2).
//! * [`columnar`] — the allocation-free Monte-Carlo trial kernel: fit once
//!   into flat `f64` column buffers, then perturb + score + argsort each
//!   trial in reusable scratch, byte-identical to the materialized path.
//! * [`rank_aware`] — top-weighted similarity measures (top-k overlap,
//!   average overlap, rank-biased overlap, τ-AP), the "rank-aware similarity"
//!   alternative the paper mentions for deriving Ingredients (§2.1).

// One module may opt in: the AVX-512 inversion count behind Kendall's tau.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod compare;
pub mod error;
pub mod perturb;
pub mod rank_aware;
pub mod ranking;
pub mod score;

pub use columnar::{descending_sort_key, TrialKernel, TrialScratch, TILE};
pub use compare::{footrule_distance, kendall_tau_rankings, spearman_rho_rankings};
pub use error::{RankingError, RankingResult};
pub use perturb::{perturb_table_gaussian, perturb_weights, PerturbationSpec, TablePerturber};
pub use rank_aware::{
    ap_correlation, average_overlap, rank_aware_association, rank_aware_association_of_order,
    rank_biased_overlap, top_k_jaccard, top_k_overlap,
};
pub use ranking::{sort_descending, RankedItem, Ranking};
pub use score::{AttributeWeight, MissingValuePolicy, ScoringFunction};
