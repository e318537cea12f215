//! # rf-fairness
//!
//! Fairness measures for ranked outputs, reproducing the Fairness widget of
//! *"A Nutritional Label for Rankings"* (SIGMOD 2018).
//!
//! The paper's Fairness widget "presents the output of three fairness
//! measures: FA*IR, proportion, and our own pairwise measure.  All these
//! measures are statistical tests, and whether a result is fair is determined
//! by the computed p-value" (§2.3).  This crate implements all three from
//! scratch, plus the position-discounted set of measures (rND, rKL, rRD) from
//! the authors' earlier work *"Measuring Fairness in Ranked Outputs"*
//! (SSDBM 2017) that underlies the generative model the paper references.
//!
//! * [`group`] — deriving a binary protected-group membership vector from a
//!   categorical column and a ranking.
//! * [`fair_star`] — the FA*IR ranked group fairness test (Zehlike et al.,
//!   CIKM 2017): binomial minimum-protected-count table, exact multiple-test
//!   adjustment of the significance level, per-prefix verification, p-value.
//! * [`proportion`] — the proportion (statistical parity at top-k) test.
//! * [`pairwise`] — the pairwise preference measure: the probability that a
//!   protected item outranks a non-protected item, tested against 1/2.
//! * [`measures`] — rND / rKL / rRD position-discounted divergence measures.
//! * [`generative`] — the SSDBM 2017 generative model (fairness probability
//!   `f`, protected proportion `p`) used to calibrate the measures.
//! * [`rerank`] — the constructive FA*IR re-ranking algorithm that repairs an
//!   unfair ranking with minimal utility loss.
//! * [`report`] — the combined [`FairnessReport`] consumed by the label.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fair_star;
pub mod generative;
pub mod group;
pub mod measures;
pub mod pairwise;
pub mod proportion;
pub mod report;
pub mod rerank;

pub use error::{FairnessError, FairnessResult};
pub use fair_star::{adjust_alpha, minimum_protected_table, FairStarOutcome, FairStarTest};
pub use generative::{GenerativeModel, GenerativeSummary, MeasureDistribution};
pub use group::ProtectedGroup;
pub use measures::{cutoff_positions, rkl, rnd, rrd, DiscountedMeasures};
pub use pairwise::{PairwiseOutcome, PairwiseTest};
pub use proportion::{ProportionOutcome, ProportionTest};
pub use report::{FairnessReport, FairnessVerdict, MeasureOutcome};
pub use rerank::{FairRerank, RerankOutcome};
