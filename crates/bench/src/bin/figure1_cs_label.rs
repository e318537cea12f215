//! Regenerates **Figure 1** of the paper: the complete Ranking Facts label
//! for the CS departments dataset, with the Ingredients and Fairness widgets
//! expanded (the two widgets the figure shows in detail).
//!
//! ```sh
//! cargo run -p rf-bench --bin figure1_cs_label
//! ```

use rf_bench::{cs_label, write_to_stdout, Banner};

fn main() -> std::process::ExitCode {
    write_to_stdout(|out| {
        out.banner("Figure 1 — Ranking Facts for the CS departments dataset")?;
        let label = cs_label();

        // The compact label (all six widgets).
        writeln!(out, "{}", label.to_text())?;

        // Expanded Ingredients widget (green box in the figure).
        out.banner("Expanded: Ingredients (attributes that strongly influence the ranking)")?;
        for ing in &label.ingredients.all_attributes {
            writeln!(
                out,
                "{:<12} rank association {:>6.3}   learned weight {}   {}",
                ing.attribute,
                ing.signed_association,
                ing.learned_weight
                    .map_or_else(|| "   n/a".to_string(), |w| format!("{w:>6.3}")),
                if ing.in_recipe {
                    "(declared in Recipe)"
                } else {
                    "(not in Recipe)"
                }
            )?;
        }
        writeln!(
            out,
            "Recipe attributes not material to the outcome: {}",
            if label.ingredients.recipe_attributes_not_material.is_empty() {
                "none".to_string()
            } else {
                label.ingredients.recipe_attributes_not_material.join(", ")
            }
        )?;

        // Expanded Fairness widget (blue box in the figure): the computation that
        // produced the fair/unfair labels.
        out.banner("Expanded: Fairness (computation behind the fair/unfair labels)")?;
        for report in &label.fairness.reports {
            writeln!(
                out,
                "\nProtected feature: {} = {} (population share {:.2})",
                report.attribute, report.protected_value, report.protected_proportion
            )?;
            writeln!(out,
            "  FA*IR       : p-value {:.4}, adjusted alpha {:.4}, {} (first violation at prefix {:?})",
            report.fair_star.p_value,
            report.fair_star.alpha_adjusted,
            if report.fair_star.satisfied { "FAIR" } else { "UNFAIR" },
            report.fair_star.first_violation_prefix,
        )?;
            writeln!(
                out,
                "  Pairwise    : P[protected preferred] = {:.3}, p-value {:.4}, {}",
                report.pairwise.preference_probability,
                report.pairwise.p_value,
                if report.pairwise.fair {
                    "FAIR"
                } else {
                    "UNFAIR"
                },
            )?;
            writeln!(out,
            "  Proportion  : top-{} share {:.2} vs over-all {:.2}, z = {:.2}, p-value {:.4}, {}",
            report.proportion.k,
            report.proportion.top_k_proportion,
            report.proportion.overall_proportion,
            report.proportion.z_statistic,
            report.proportion.p_value,
            if report.proportion.fair {
                "FAIR"
            } else {
                "UNFAIR"
            },
        )?;
            writeln!(
                out,
                "  Discounted  : rND {:.3}  rKL {:.3}  rRD {:.3}",
                report.discounted.rnd, report.discounted.rkl, report.discounted.rrd
            )?;
        }
        Ok(())
    })
}
