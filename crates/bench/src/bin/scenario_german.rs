//! Demonstration scenario 3 (paper §3): German credit — 1,000 applicants
//! ranked by credit-worthiness, audited for sex and age group.
//!
//! ```sh
//! cargo run -p rf-bench --bin scenario_german
//! ```

use rf_bench::{german_credit_scenario, write_to_stdout, Banner};
use rf_core::NutritionalLabel;

fn main() -> std::process::ExitCode {
    write_to_stdout(|out| {
        out.banner("Scenario 3 — German credit (1,000 applicants)")?;
        let (table, config) = german_credit_scenario(1_000);
        let label = NutritionalLabel::generate(&table, &config).expect("label");
        writeln!(out, "{}", label.to_text())?;

        out.banner("Audit summary")?;
        for report in &label.fairness.reports {
            writeln!(out,
            "{} = {:<8}  FA*IR {}  Pairwise {} (θ = {:.3})  Proportion {} (top-k {:.2} vs all {:.2})",
            report.attribute,
            report.protected_value,
            if report.fair_star.satisfied { "fair  " } else { "UNFAIR" },
            if report.pairwise.fair { "fair  " } else { "UNFAIR" },
            report.pairwise.preference_probability,
            if report.proportion.fair { "fair  " } else { "UNFAIR" },
            report.proportion.top_k_proportion,
            report.proportion.overall_proportion,
        )?;
        }
        for report in &label.diversity.reports {
            if !report.missing_from_top_k.is_empty() {
                writeln!(
                    out,
                    "diversity: categories of `{}` missing from the top-{}: {}",
                    report.attribute,
                    report.k,
                    report.missing_from_top_k.join(", ")
                )?;
            }
        }
        Ok(())
    })
}
