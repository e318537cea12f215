//! # rf-table
//!
//! A lightweight columnar table substrate for the Ranking Facts reproduction
//! of *"A Nutritional Label for Rankings"* (SIGMOD 2018).
//!
//! The original system accepts "a fully populated table in CSV format",
//! previews it, lets the user normalize/standardize attributes, and feeds the
//! resulting columns to the scoring function and to every diagnostic widget.
//! The Python implementation delegates that work to pandas; the Rust
//! ecosystem's dataframe/visualization stack is a poor fit for a
//! dependency-light reproduction, so this crate provides the minimal
//! substrate the paper needs, built from scratch:
//!
//! * [`schema`] — column names and types ([`ColumnType`], [`Schema`]).
//! * [`column`] — typed columns with per-value nullability ([`Column`]).
//! * [`table`] — the [`Table`] itself: construction, row/column access,
//!   selection, filtering, sorting, head/top-k slicing.
//! * [`csv`] — a CSV reader/writer with quoting support and type inference.
//! * [`fingerprint`] — stable 64-bit content fingerprinting
//!   ([`Table::fingerprint`]), the table half of the label cache key.
//! * [`stats`] — per-column descriptive statistics and histograms.
//! * [`normalize`] — min-max normalization and z-score standardization, the
//!   "normalize and standardize the attributes" checkbox of Figure 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod error;
pub mod fingerprint;
pub mod normalize;
pub mod schema;
pub mod stats;
pub mod table;

pub use column::{CategoricalView, Column, NumericView, Value};
pub use csv::{read_csv_str, write_csv_string, CsvOptions};
pub use error::{TableError, TableResult};
pub use fingerprint::Fingerprinter;
pub use normalize::{NormalizationMethod, Normalizer};
pub use schema::{ColumnType, Field, Schema};
pub use stats::{column_histogram, column_summary};
pub use table::Table;
