//! Demonstration scenario 2 (paper §3): COMPAS criminal risk assessment at the
//! full ProPublica size (6,889 individuals), audited for race and sex, plus
//! the unbiased counterfactual for contrast.
//!
//! ```sh
//! cargo run -p rf-bench --bin scenario_compas
//! ```

use rf_bench::{compas_scenario, write_to_stdout, Banner};
use rf_core::NutritionalLabel;
use rf_datasets::CompasConfig;

fn main() -> std::process::ExitCode {
    write_to_stdout(|out| {
        out.banner("Scenario 2 — COMPAS criminal risk assessment (6,889 individuals)")?;
        let (table, config) = compas_scenario(6_889);
        let label = NutritionalLabel::generate(&table, &config).expect("label");
        writeln!(out, "{}", label.to_text())?;

        out.banner("Counterfactual: the same pipeline on an unbiased synthetic dataset")?;
        let unbiased_table = CompasConfig::default()
            .unbiased()
            .generate()
            .expect("unbiased dataset");
        let unbiased_label = NutritionalLabel::generate(&unbiased_table, &config).expect("label");

        for (name, l) in [
            ("biased (as published)", &label),
            ("unbiased counterfactual", &unbiased_label),
        ] {
            writeln!(out, "\n[{name}]")?;
            for report in &l.fairness.reports {
                writeln!(
                    out,
                    "  {} = {:<18} pairwise {:.3}  proportion top-k {:.2} vs all {:.2}  → {}",
                    report.attribute,
                    report.protected_value,
                    report.pairwise.preference_probability,
                    report.proportion.top_k_proportion,
                    report.proportion.overall_proportion,
                    if report.any_unfair() {
                        "UNFAIR"
                    } else {
                        "fair"
                    }
                )?;
            }
        }
        Ok(())
    })
}
