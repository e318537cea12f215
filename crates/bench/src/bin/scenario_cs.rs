//! Demonstration scenario 1 (paper §3): CS departments — the full walk-through
//! with the default scoring function and an alternative weighting, showing how
//! the label updates "as the user selects different ranking methods or sets
//! different weights".
//!
//! ```sh
//! cargo run -p rf-bench --bin scenario_cs
//! ```

use rf_bench::{cs_label_config, cs_table, write_to_stdout, Banner};
use rf_core::AnalysisPipeline;
use rf_ranking::ScoringFunction;
use std::sync::Arc;

fn main() -> std::process::ExitCode {
    write_to_stdout(|out| {
        let pipeline = AnalysisPipeline::sequential();
        let table = Arc::new(cs_table());

        out.banner("Scenario 1a — CS departments, default recipe (0.4/0.4/0.2)")?;
        let ctx = pipeline
            .prepare(Arc::clone(&table), Arc::new(cs_label_config()))
            .expect("prepare");
        let label = pipeline.render(&ctx).expect("label");
        writeln!(out, "{}", label.to_text())?;

        out.banner("Scenario 1b — what if the user weights GRE heavily? (0.1/0.1/0.8)")?;
        let alt_scoring =
            ScoringFunction::from_pairs([("PubCount", 0.1), ("Faculty", 0.1), ("GRE", 0.8)])
                .expect("valid scoring");
        let alt_config = cs_label_config();
        let alt_config = rf_core::LabelConfig {
            scoring: alt_scoring,
            ..alt_config
        };
        let alt_ctx = pipeline
            .prepare(table, Arc::new(alt_config))
            .expect("prepare");
        let alt_label = pipeline.render(&alt_ctx).expect("label");
        writeln!(out, "{}", alt_label.to_text())?;

        out.banner("Comparison")?;
        writeln!(out, "default recipe headline: {}", label.headline())?;
        writeln!(out, "GRE-heavy recipe headline: {}", alt_label.headline())?;
        let alt_top = alt_ctx.ranking.top_k_indices(10);
        let overlap = ctx
            .ranking
            .top_k_indices(10)
            .iter()
            .filter(|idx| alt_top.contains(idx))
            .count();
        writeln!(
            out,
            "top-10 overlap between the two recipes: {overlap}/10 departments"
        )?;
        Ok(())
    })
}
