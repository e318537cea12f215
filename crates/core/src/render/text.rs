//! Plain-text rendering of the nutritional label.

use crate::label::NutritionalLabel;
use std::fmt::Write;

/// Renders the label as plain text, laid out like Figure 1 of the paper:
/// header, top-k ranking, then the Recipe, Ingredients, Stability, Fairness
/// and Diversity widgets.
#[must_use]
pub fn render_text(label: &NutritionalLabel) -> String {
    let mut out = String::with_capacity(4096);
    let title = label
        .dataset_name
        .as_deref()
        .unwrap_or("ranking")
        .to_string();
    let _ = writeln!(
        out,
        "==================== Ranking Facts ===================="
    );
    let _ = writeln!(out, "Dataset: {title}");
    let _ = writeln!(out, "Items ranked: {}", label.ranked_items);
    let _ = writeln!(out, "Headline: {}", label.headline());
    let _ = writeln!(out);

    // Top-k ranking.
    let _ = writeln!(out, "--- Top-{} ---", label.config.top_k);
    for row in &label.top_k_rows {
        let _ = writeln!(
            out,
            "{:>3}. {:<24} score {:.4}",
            row.rank, row.identifier, row.score
        );
    }
    let _ = writeln!(out);

    // Recipe.
    let _ = writeln!(
        out,
        "--- Recipe (normalization: {}) ---",
        label.recipe.normalization
    );
    for entry in &label.recipe.entries {
        let _ = writeln!(
            out,
            "{:<20} weight {:>6.3}  (normalized {:>6.3})",
            entry.attribute, entry.weight, entry.normalized_weight
        );
    }
    let _ = writeln!(out);

    // Detailed recipe statistics.
    let _ = writeln!(
        out,
        "--- Recipe details (top-{} vs over-all) ---",
        label.config.top_k
    );
    for detail in &label.recipe.details {
        let top_k = match &detail.top_k {
            Some(s) => format!("min {:.2} med {:.2} max {:.2}", s.min, s.median, s.max),
            None => "n/a".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<20} top-k: {top_k} | all: min {:.2} med {:.2} max {:.2}",
            detail.attribute, detail.overall.min, detail.overall.median, detail.overall.max,
        );
    }
    let _ = writeln!(out);

    // Ingredients.
    let _ = writeln!(
        out,
        "--- Ingredients (most material to the outcome; method: {}) ---",
        label.ingredients.method.as_str()
    );
    for ing in &label.ingredients.ingredients {
        let _ = writeln!(
            out,
            "{:<20} association {:>5.3}{}{}",
            ing.attribute,
            ing.rank_association,
            match ing.learned_weight {
                Some(w) => format!("  learned weight {w:>6.3}"),
                None => String::new(),
            },
            if ing.in_recipe { "  [in recipe]" } else { "" },
        );
    }
    if !label.ingredients.recipe_attributes_not_material.is_empty() {
        let _ = writeln!(
            out,
            "note: recipe attribute(s) not material to the outcome: {}",
            label.ingredients.recipe_attributes_not_material.join(", ")
        );
    }
    let _ = writeln!(out);

    // Stability.
    let _ = writeln!(out, "--- Stability ---");
    let _ = writeln!(
        out,
        "verdict: {}  (score {:.3}, threshold {:.2})",
        if label.stability.stable {
            "STABLE"
        } else {
            "UNSTABLE"
        },
        label.stability.stability_score,
        label.stability.slope.threshold,
    );
    let _ = writeln!(
        out,
        "top-{} slope {:.3} ({})   over-all slope {:.3} ({})",
        label.stability.slope.k,
        label.stability.slope.top_k.slope_magnitude,
        label.stability.slope.top_k.verdict.as_str(),
        label.stability.slope.overall.slope_magnitude,
        label.stability.slope.overall.verdict.as_str(),
    );
    for attr in &label.stability.per_attribute {
        let _ = writeln!(
            out,
            "  attribute {:<18} slope {:.3} ({})",
            attr.attribute,
            attr.slope_magnitude,
            attr.verdict.as_str()
        );
    }
    if let Some(mc) = &label.stability.monte_carlo {
        let _ = writeln!(
            out,
            "monte carlo ({} trials, data noise {:.1}%, weight noise {:.1}%): {}",
            mc.trials,
            label.config.monte_carlo.data_noise * 100.0,
            label.config.monte_carlo.weight_noise * 100.0,
            mc.verdict.as_str(),
        );
        if mc.truncated {
            let _ = writeln!(
                out,
                "  truncated by deadline: {} of {} requested trials completed",
                mc.trials, mc.trials_requested,
            );
        }
        let _ = writeln!(
            out,
            "  expected tau {:.3} (worst {:.3})   top-k overlap {:.3}   top-1 change rate {:.2}",
            mc.expected_kendall_tau,
            mc.worst_kendall_tau,
            mc.expected_top_k_overlap,
            mc.top_item_change_rate,
        );
    }
    let _ = writeln!(out);

    // Fairness.
    let _ = writeln!(
        out,
        "--- Fairness (k = {}, alpha = {}) ---",
        label.config.top_k, label.config.alpha
    );
    if label.fairness.reports.is_empty() {
        let _ = writeln!(out, "no sensitive attributes audited");
    }
    for report in &label.fairness.reports {
        let _ = writeln!(
            out,
            "{} = {} (proportion {:.2})",
            report.attribute, report.protected_value, report.protected_proportion
        );
        for outcome in report.outcomes() {
            let _ = writeln!(
                out,
                "  {:<12} {:<7} p = {:.4}",
                outcome.measure,
                outcome.verdict.as_str(),
                outcome.p_value
            );
        }
        let _ = writeln!(
            out,
            "  rND {:.3}  rKL {:.3}  rRD {:.3}",
            report.discounted.rnd, report.discounted.rkl, report.discounted.rrd
        );
    }
    let _ = writeln!(out);

    // Diversity.
    let _ = writeln!(out, "--- Diversity ---");
    if label.diversity.reports.is_empty() {
        let _ = writeln!(out, "no diversity attributes configured");
    }
    for report in &label.diversity.reports {
        let _ = writeln!(out, "{} (top-{} vs over-all)", report.attribute, report.k);
        for category in &report.overall.categories {
            let top_prop = report.top_k.proportion_of(&category.category);
            let _ = writeln!(
                out,
                "  {:<16} top-k {:>5.1}%   over-all {:>5.1}%",
                category.category,
                top_prop * 100.0,
                category.proportion * 100.0
            );
        }
        if !report.missing_from_top_k.is_empty() {
            let _ = writeln!(
                out,
                "  missing from the top-{}: {}",
                report.k,
                report.missing_from_top_k.join(", ")
            );
        }
    }
    let _ = writeln!(
        out,
        "========================================================"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::super::tests::sample_label;
    use super::*;

    #[test]
    fn text_contains_every_widget_section() {
        let text = render_text(&sample_label());
        for section in [
            "Ranking Facts",
            "--- Top-10 ---",
            "--- Recipe",
            "--- Ingredients",
            "--- Stability ---",
            "--- Fairness",
            "--- Diversity ---",
        ] {
            assert!(text.contains(section), "missing section {section}");
        }
    }

    #[test]
    fn text_lists_top_items_in_order() {
        let label = sample_label();
        let text = render_text(&label);
        let first = &label.top_k_rows[0].identifier;
        let second = &label.top_k_rows[1].identifier;
        let pos_first = text.find(first.as_str()).expect("best item listed");
        let pos_second = text.find(second.as_str()).expect("second item listed");
        assert!(pos_first < pos_second);
    }

    #[test]
    fn text_shows_fairness_verdicts_and_measures() {
        let text = render_text(&sample_label());
        assert!(text.contains("FA*IR"));
        assert!(text.contains("Pairwise"));
        assert!(text.contains("Proportion"));
        assert!(text.contains("fair"));
    }

    #[test]
    fn text_shows_diversity_proportions() {
        let text = render_text(&sample_label());
        assert!(text.contains('%'));
        assert!(text.contains("group"));
    }
}
