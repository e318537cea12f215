//! # rf-stats
//!
//! Statistics substrate for the Ranking Facts reproduction of
//! *"A Nutritional Label for Rankings"* (SIGMOD 2018).
//!
//! The original Ranking Facts system is a Python web application that leans on
//! `numpy`/`scipy`/`pandas` for every statistical computation behind its
//! widgets.  This crate re-implements, from scratch, exactly the statistical
//! machinery those widgets need:
//!
//! * [`descriptive`] — means, variances, medians, quantiles and summaries used
//!   by the detailed *Recipe* and *Ingredients* widgets ("minimum, maximum and
//!   median values at the top-10 and over-all").
//! * [`correlation`] — Pearson, Spearman and Kendall correlation used to find
//!   the attributes "most material to the ranked outcome" (*Ingredients*).
//! * [`regression`] — ordinary least squares (simple and multiple) used both
//!   for the *Ingredients* importance estimation ("the attributes with the
//!   highest learned weights") and for the *Stability* slope fit (Figure 2).
//! * [`distributions`] — normal and binomial distributions backing the
//!   fairness hypothesis tests (FA*IR, proportion test, pairwise test).
//! * [`hypothesis`] — z-tests and binomial tests producing the p-values that
//!   drive the fair/unfair verdicts of the *Fairness* widget.
//! * [`histogram`] — equi-width histograms used by the scoring-function design
//!   view (Figure 3).
//!
//! Everything is deterministic, allocation-conscious, and free of external
//! numerical dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod descriptive;
pub mod distributions;
pub mod error;
pub mod histogram;
pub mod hypothesis;
pub mod regression;

pub use correlation::{kendall_tau, pearson, spearman, spearman_with_ranks};
pub use descriptive::{
    max, mean, median, min, quantile, stddev, tie_averaged_ranks, variance, Summary,
};
pub use distributions::{
    binomial_cdf, binomial_pmf, binomial_pmf_row, binomial_quantile, normal_cdf, normal_pdf,
    normal_quantile,
};
pub use error::{StatsError, StatsResult};
pub use histogram::Histogram;
pub use hypothesis::{
    binomial_test, one_proportion_z_test, two_proportion_z_test, Alternative, TestResult,
};
pub use regression::{LinearFit, MultipleRegression};
