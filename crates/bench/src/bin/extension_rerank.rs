//! Extension experiment E1: FA*IR re-ranking as a mitigation that edits the
//! output instead of the recipe (the measure-preserving counterpart of the
//! §4 mitigation extension).
//!
//! For each demo scenario, diagnose the headline ranking with FA*IR, repair
//! it with the constructive FA*IR algorithm, and report the verdict flip and
//! the utility cost of the repair.
//!
//! ```sh
//! cargo run -p rf-bench --bin extension_rerank
//! ```

use rf_bench::{cs_scoring, cs_table, write_to_stdout, Banner};
use rf_datasets::{CompasConfig, GermanCreditConfig};
use rf_fairness::{FairRerank, FairStarTest, ProtectedGroup};
use rf_ranking::ScoringFunction;
use rf_table::Table;
use std::io::{self, Write};

fn audit_and_repair(
    out: &mut dyn Write,
    name: &str,
    table: &Table,
    scoring: &ScoringFunction,
    attribute: &str,
    protected_value: &str,
    k: usize,
) -> io::Result<()> {
    let ranking = scoring.rank_table(table).expect("ranking");
    let group = ProtectedGroup::from_table(table, attribute, protected_value).expect("group");
    let p = group.protected_proportion();
    let test = FairStarTest::new(k, p).expect("test");
    let before = test.evaluate(&group, &ranking).expect("before");
    let outcome = FairRerank::new(k, p)
        .expect("re-ranker")
        .rerank(&group, &ranking)
        .expect("re-rank");
    let after = test.evaluate(&group, &outcome.reranked).expect("after");

    writeln!(
        out,
        "{name:<32} {attribute}={protected_value:<18} k={k:<4} p={p:.3}\n\
         \x20 before: {}  (p-value {:.4}, protected in top-k {})\n\
         \x20 after:  {}  (p-value {:.4}, protected in top-k {})\n\
         \x20 cost: {} boosted item(s), max boost {} positions, score loss {:.4}, \
         Kendall tau to original {:.4}\n",
        if before.satisfied { "FAIR  " } else { "UNFAIR" },
        before.p_value,
        before.observed_counts.last().copied().unwrap_or(0),
        if after.satisfied { "FAIR  " } else { "UNFAIR" },
        after.p_value,
        after.observed_counts.last().copied().unwrap_or(0),
        outcome.boosted_into_top_k.len(),
        outcome.max_rank_boost,
        outcome.total_score_loss,
        outcome.kendall_tau_to_original,
    )
}

fn main() -> std::process::ExitCode {
    write_to_stdout(|out| {
        out.banner("Extension E1 — FA*IR re-ranking across the demo scenarios")?;

        // Scenario 1: CS departments, small departments shut out of the top-10.
        let cs = cs_table();
        audit_and_repair(
            out,
            "CS departments (97 rows)",
            &cs,
            &cs_scoring(),
            "DeptSizeBin",
            "small",
            10,
        )?;

        // Scenario 2: COMPAS — audit the non-protected group, which the injected
        // score skew pushes out of the highest-risk prefix.
        let compas = CompasConfig {
            rows: 2_000,
            seed: 7,
            ..CompasConfig::default()
        }
        .generate()
        .expect("compas");
        let compas_scoring =
            ScoringFunction::from_pairs([("decile_score", 0.7), ("priors_count", 0.3)])
                .expect("scoring");
        audit_and_repair(
            out,
            "COMPAS-like (2,000 rows)",
            &compas,
            &compas_scoring,
            "race",
            "Other",
            100,
        )?;

        // Scenario 3: German credit — young applicants pushed down by the score.
        let german = GermanCreditConfig {
            seed: 11,
            ..GermanCreditConfig::default()
        }
        .generate()
        .expect("german");
        let german_scoring = ScoringFunction::from_pairs([("credit_score", 1.0)]).expect("scoring");
        audit_and_repair(
            out,
            "German credit (1,000 rows)",
            &german,
            &german_scoring,
            "age_group",
            "young",
            50,
        )?;
        Ok(())
    })
}
