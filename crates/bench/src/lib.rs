//! Shared harness helpers for the benchmark suite and the figure/scenario
//! regeneration binaries.
//!
//! The paper's evaluation artifacts are Figures 1–3 and the three
//! demonstration scenarios of §3 (see DESIGN.md §4 and EXPERIMENTS.md); the
//! binaries under `src/bin/` regenerate each of them, and the Criterion
//! benches under `benches/` characterize the cost of every measure as the
//! dataset and prefix sizes grow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exposition;

use rf_core::{AnalysisPipeline, LabelConfig, NutritionalLabel};
use rf_datasets::{CompasConfig, CsDepartmentsConfig, GermanCreditConfig, SynthScenarioConfig};
use rf_ranking::ScoringFunction;
use rf_table::Table;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// The paper's CS-departments scoring function:
/// 0.4·PubCount + 0.4·Faculty + 0.2·GRE over min-max-normalized attributes.
#[must_use]
pub fn cs_scoring() -> ScoringFunction {
    ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)])
        .expect("valid CS scoring function")
}

/// The default label configuration for the CS departments scenario
/// (Figure 1): top-10, both DeptSizeBin values audited, diversity over
/// DeptSizeBin and Region.
#[must_use]
pub fn cs_label_config() -> LabelConfig {
    LabelConfig::new(cs_scoring())
        .with_top_k(10)
        .with_ingredient_count(2)
        .with_dataset_name("CS departments (synthetic CSR + NRC)")
        .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
        .with_diversity_attribute("DeptSizeBin")
        .with_diversity_attribute("Region")
}

/// Generates the CS departments dataset at the paper's scale (97 rows, seed 42).
#[must_use]
pub fn cs_table() -> Table {
    CsDepartmentsConfig::default()
        .generate()
        .expect("CS departments generator")
}

/// Generates a CS-departments-shaped dataset with `rows` rows (for scaling
/// benchmarks).
#[must_use]
pub fn cs_table_with_rows(rows: usize) -> Table {
    CsDepartmentsConfig::with_rows(rows)
        .generate()
        .expect("CS departments generator")
}

/// The COMPAS scenario: dataset (full ProPublica size by default) and config.
#[must_use]
pub fn compas_scenario(rows: usize) -> (Table, LabelConfig) {
    let table = CompasConfig::with_rows(rows)
        .generate()
        .expect("COMPAS generator");
    let scoring = ScoringFunction::from_pairs([("decile_score", 0.7), ("priors_count", 0.3)])
        .expect("valid scoring");
    let config = LabelConfig::new(scoring)
        .with_top_k(100.min(rows))
        .with_dataset_name("COMPAS recidivism (synthetic)")
        .with_sensitive_attribute("race", ["African-American"])
        .with_sensitive_attribute("sex", ["Female"])
        .with_diversity_attribute("race")
        .with_diversity_attribute("age_cat");
    (table, config)
}

/// The German credit scenario: dataset (1,000 rows by default) and config.
#[must_use]
pub fn german_credit_scenario(rows: usize) -> (Table, LabelConfig) {
    let table = GermanCreditConfig::with_rows(rows)
        .generate()
        .expect("German credit generator");
    let scoring = ScoringFunction::from_pairs([
        ("credit_score", 0.7),
        ("employment_years", 0.2),
        ("credit_amount", -0.1),
    ])
    .expect("valid scoring");
    let config = LabelConfig::new(scoring)
        .with_top_k(100.min(rows))
        .with_dataset_name("German credit (synthetic)")
        .with_sensitive_attribute("sex", ["female"])
        .with_sensitive_attribute("age_group", ["young"])
        .with_diversity_attribute("housing")
        .with_diversity_attribute("checking_status");
    (table, config)
}

/// The large-scale synthetic scenario: a dense `rows`-row table from
/// [`SynthScenarioConfig`] plus the catalogue's default label configuration
/// for it (score_0/score_1/score_2 at 0.5/0.3/0.2, top-100, fairness and
/// diversity over `group`).  Dense (missingness 0) so the Monte-Carlo
/// weight-jitter path labels it under the default missing-value policy, and
/// two groups so the binary fairness widget accepts the attribute.
#[must_use]
pub fn synth_scenario(rows: usize) -> (Table, LabelConfig) {
    let table = SynthScenarioConfig::with_rows(rows)
        .with_missingness(0.0)
        .with_group_count(2)
        .generate()
        .expect("synthetic scenario generator");
    let scoring =
        ScoringFunction::from_pairs([("score_0", 0.5), ("score_1", 0.3), ("score_2", 0.2)])
            .expect("valid scoring");
    let config = LabelConfig::new(scoring)
        .with_top_k(100.min(rows))
        .with_dataset_name(format!("Synthetic scenario ({rows} rows)"))
        .with_sensitive_attribute("group", ["g1"])
        .with_diversity_attribute("group");
    (table, config)
}

/// Generates the CS departments label (the Figure 1 artifact) through the
/// sequential reference pipeline.
#[must_use]
pub fn cs_label() -> NutritionalLabel {
    AnalysisPipeline::sequential()
        .generate(Arc::new(cs_table()), Arc::new(cs_label_config()))
        .expect("CS label")
}

/// The labelled separator the regeneration binaries write, on any writer.
pub trait Banner: Write {
    /// Writes `title` between two rules.
    fn banner(&mut self, title: &str) -> io::Result<()> {
        let rule = "=".repeat(64);
        writeln!(self, "{rule}\n{title}\n{rule}")
    }
}

impl<W: Write + ?Sized> Banner for W {}

/// Runs a regeneration binary's `body` against a locked stdout.  When the
/// reader closes the pipe early (`scenario_cs | head -2`) it has all the
/// output it wants, so the binary ends quietly with exit 0; any other write
/// error exits 1 with a message.
pub fn write_to_stdout(body: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> ExitCode {
    let mut stdout = io::stdout().lock();
    match body(&mut stdout).and_then(|()| stdout.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error writing output: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cs_scenario_helpers_agree() {
        let table = cs_table();
        let config = cs_label_config();
        assert!(config.validate(&table).is_ok());
        let label = cs_label();
        assert_eq!(label.ranked_items, table.num_rows());
        let ctx = AnalysisPipeline::sequential()
            .prepare(Arc::new(table.clone()), Arc::new(config))
            .unwrap();
        assert_eq!(ctx.ranking.len(), table.num_rows());
    }

    #[test]
    fn other_scenarios_validate() {
        let (table, config) = compas_scenario(500);
        assert!(config.validate(&table).is_ok());
        let (table, config) = german_credit_scenario(300);
        assert!(config.validate(&table).is_ok());
        let (table, config) = synth_scenario(400);
        assert_eq!(table.num_rows(), 400);
        assert!(config.validate(&table).is_ok());
    }

    #[test]
    fn scaled_cs_tables_have_requested_rows() {
        assert_eq!(cs_table_with_rows(250).num_rows(), 250);
    }
}
