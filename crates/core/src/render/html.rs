//! HTML rendering of the nutritional label.
//!
//! Produces a standalone, dependency-free HTML page laid out like Figure 1 of
//! the paper: a header, the top-k ranking, and one card per widget (Recipe,
//! Ingredients, Stability, Fairness, Diversity), each with its detailed
//! table.  `rf-server` serves this page for the interactive demo flow.

use crate::label::NutritionalLabel;
use std::fmt::Write;

/// Escapes text for inclusion in HTML.
fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Renders the label as a standalone HTML page.
#[must_use]
pub fn render_html(label: &NutritionalLabel) -> String {
    let mut body = String::with_capacity(8192);
    let title = escape(label.dataset_name.as_deref().unwrap_or("ranking"));

    let _ = write!(
        body,
        "<header><h1>Ranking Facts</h1><p class=\"dataset\">{title} &mdash; {} items</p>\
         <p class=\"headline\">{}</p></header>",
        label.ranked_items,
        escape(&label.headline())
    );

    // Top-k ranking card.
    let _ = write!(body, "<section class=\"card ranking\"><h2>Top-{}</h2><table><tr><th>#</th><th>Item</th><th>Score</th></tr>", label.config.top_k);
    for row in &label.top_k_rows {
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{}</td><td>{:.4}</td></tr>",
            row.rank,
            escape(&row.identifier),
            row.score
        );
    }
    let _ = write!(body, "</table></section>");

    // Recipe card.
    let _ = write!(
        body,
        "<section class=\"card recipe\"><h2>Recipe</h2><p>normalization: {}</p><table><tr><th>Attribute</th><th>Weight</th><th>Normalized</th></tr>",
        escape(&label.recipe.normalization)
    );
    for entry in &label.recipe.entries {
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{:.3}</td><td>{:.3}</td></tr>",
            escape(&entry.attribute),
            entry.weight,
            entry.normalized_weight
        );
    }
    let _ = write!(body, "</table><h3>Details (top-{} vs over-all)</h3><table><tr><th>Attribute</th><th>top-k min/med/max</th><th>over-all min/med/max</th></tr>", label.config.top_k);
    for detail in &label.recipe.details {
        let top_k = match &detail.top_k {
            Some(s) => format!("{:.2} / {:.2} / {:.2}", s.min, s.median, s.max),
            None => "n/a".to_string(),
        };
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{top_k}</td><td>{:.2} / {:.2} / {:.2}</td></tr>",
            escape(&detail.attribute),
            detail.overall.min,
            detail.overall.median,
            detail.overall.max
        );
    }
    let _ = write!(body, "</table></section>");

    // Ingredients card.
    let _ = write!(
        body,
        "<section class=\"card ingredients\"><h2>Ingredients</h2><p class=\"method\">method: {}</p><table><tr><th>Attribute</th><th>Association</th><th>Learned weight</th><th>In recipe?</th></tr>",
        escape(label.ingredients.method.as_str())
    );
    for ing in &label.ingredients.ingredients {
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{:.3}</td><td>{}</td><td>{}</td></tr>",
            escape(&ing.attribute),
            ing.rank_association,
            ing.learned_weight
                .map_or_else(|| "&mdash;".to_string(), |w| format!("{w:.3}")),
            if ing.in_recipe { "yes" } else { "no" }
        );
    }
    let _ = write!(body, "</table>");
    if !label.ingredients.recipe_attributes_not_material.is_empty() {
        let _ = write!(
            body,
            "<p class=\"note\">Recipe attributes not material to the outcome: {}</p>",
            escape(&label.ingredients.recipe_attributes_not_material.join(", "))
        );
    }
    let _ = write!(body, "</section>");

    // Stability card.
    let verdict_class = if label.stability.stable {
        "stable"
    } else {
        "unstable"
    };
    let _ = write!(
        body,
        "<section class=\"card stability\"><h2>Stability</h2>\
         <p class=\"verdict {verdict_class}\">{} (score {:.3}, threshold {:.2})</p>\
         <table><tr><th>Slice</th><th>Slope</th><th>Verdict</th></tr>\
         <tr><td>top-{}</td><td>{:.3}</td><td>{}</td></tr>\
         <tr><td>over-all</td><td>{:.3}</td><td>{}</td></tr></table>",
        if label.stability.stable {
            "STABLE"
        } else {
            "UNSTABLE"
        },
        label.stability.stability_score,
        label.stability.slope.threshold,
        label.stability.slope.k,
        label.stability.slope.top_k.slope_magnitude,
        label.stability.slope.top_k.verdict.as_str(),
        label.stability.slope.overall.slope_magnitude,
        label.stability.slope.overall.verdict.as_str(),
    );
    let _ = write!(
        body,
        "<h3>Per-attribute</h3><table><tr><th>Attribute</th><th>Slope</th><th>Verdict</th></tr>"
    );
    for attr in &label.stability.per_attribute {
        let _ = write!(
            body,
            "<tr><td>{}</td><td>{:.3}</td><td>{}</td></tr>",
            escape(&attr.attribute),
            attr.slope_magnitude,
            attr.verdict.as_str()
        );
    }
    let _ = write!(body, "</table>");
    if let Some(mc) = &label.stability.monte_carlo {
        let _ = write!(
            body,
            "<h3>Monte-Carlo detail ({} trials, data noise {:.1}%, weight noise {:.1}%)</h3>\
             <table><tr><th>Expected tau</th><th>Worst tau</th><th>Top-k overlap</th>\
             <th>Top-1 change rate</th><th>Verdict</th></tr>\
             <tr><td>{:.3}</td><td>{:.3}</td><td>{:.3}</td><td>{:.2}</td><td>{}</td></tr></table>",
            mc.trials,
            label.config.monte_carlo.data_noise * 100.0,
            label.config.monte_carlo.weight_noise * 100.0,
            mc.expected_kendall_tau,
            mc.worst_kendall_tau,
            mc.expected_top_k_overlap,
            mc.top_item_change_rate,
            mc.verdict.as_str(),
        );
        if mc.truncated {
            let _ = write!(
                body,
                "<p class=\"truncated\">Truncated by deadline: {} of {} requested trials \
                 completed.</p>",
                mc.trials, mc.trials_requested,
            );
        }
    }
    let _ = write!(body, "</section>");

    // Fairness card.
    let _ = write!(body, "<section class=\"card fairness\"><h2>Fairness</h2>");
    if label.fairness.reports.is_empty() {
        let _ = write!(body, "<p>No sensitive attributes audited.</p>");
    } else {
        let _ = write!(
            body,
            "<table><tr><th>Attribute</th><th>Protected value</th><th>Measure</th><th>Verdict</th><th>p-value</th></tr>"
        );
        for (attribute, value, measure, verdict, p_value) in label.fairness.summary_rows() {
            let _ = write!(
                body,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td class=\"{}\">{}</td><td>{:.4}</td></tr>",
                escape(&attribute),
                escape(&value),
                escape(&measure),
                verdict.as_str(),
                verdict.as_str(),
                p_value
            );
        }
        let _ = write!(body, "</table>");
    }
    let _ = write!(body, "</section>");

    // Diversity card.
    let _ = write!(body, "<section class=\"card diversity\"><h2>Diversity</h2>");
    if label.diversity.reports.is_empty() {
        let _ = write!(body, "<p>No diversity attributes configured.</p>");
    } else {
        for report in &label.diversity.reports {
            let _ = write!(
                body,
                "<h3>{} (top-{} vs over-all)</h3><table><tr><th>Category</th><th>top-k</th><th>over-all</th></tr>",
                escape(&report.attribute),
                report.k
            );
            for category in &report.overall.categories {
                let _ = write!(
                    body,
                    "<tr><td>{}</td><td>{:.1}%</td><td>{:.1}%</td></tr>",
                    escape(&category.category),
                    report.top_k.proportion_of(&category.category) * 100.0,
                    category.proportion * 100.0
                );
            }
            let _ = write!(body, "</table>");
            if !report.missing_from_top_k.is_empty() {
                let _ = write!(
                    body,
                    "<p class=\"note\">Missing from the top-{}: {}</p>",
                    report.k,
                    escape(&report.missing_from_top_k.join(", "))
                );
            }
        }
    }
    let _ = write!(body, "</section>");

    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>Ranking Facts — {title}</title>\
         <style>{CSS}</style></head><body><main>{body}</main></body></html>"
    )
}

/// Minimal stylesheet approximating the card layout of Figure 1.
const CSS: &str = "\
body{font-family:system-ui,sans-serif;margin:0;background:#f4f4f6;color:#1d1d22}\
main{max-width:980px;margin:0 auto;padding:1.5rem}\
header h1{margin-bottom:0.1rem}\
.headline{color:#444}\
.card{background:#fff;border-radius:8px;padding:1rem 1.25rem;margin:1rem 0;box-shadow:0 1px 3px rgba(0,0,0,0.12)}\
.card h2{margin-top:0;border-bottom:1px solid #e2e2e8;padding-bottom:0.3rem}\
table{border-collapse:collapse;width:100%;margin:0.5rem 0}\
th,td{text-align:left;padding:0.25rem 0.5rem;border-bottom:1px solid #ececf1}\
.fair{color:#167a2f;font-weight:600}\
.unfair{color:#b3261e;font-weight:600}\
.verdict.stable{color:#167a2f;font-weight:600}\
.verdict.unstable{color:#b3261e;font-weight:600}\
.note{color:#6b4f00;background:#fff6d8;padding:0.4rem 0.6rem;border-radius:4px}\
.recipe h2{color:#167a2f}\
.fairness h2{color:#1a4f9c}\
";

#[cfg(test)]
mod tests {
    use super::super::tests::sample_label;
    use super::*;

    #[test]
    fn html_is_a_complete_document() {
        let html = render_html(&sample_label());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>"));
        assert!(html.contains("<style>"));
    }

    #[test]
    fn html_has_one_card_per_widget() {
        let html = render_html(&sample_label());
        for class in [
            "ranking",
            "recipe",
            "ingredients",
            "stability",
            "fairness",
            "diversity",
        ] {
            assert!(
                html.contains(&format!("class=\"card {class}\"")),
                "missing card {class}"
            );
        }
    }

    #[test]
    fn html_escapes_special_characters() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        // FA*IR measure name with no special chars passes through unchanged.
        assert_eq!(escape("FA*IR"), "FA*IR");
    }

    #[test]
    fn html_lists_fairness_rows() {
        let html = render_html(&sample_label());
        assert!(html.contains("FA*IR"));
        assert!(html.contains("Pairwise"));
        assert!(html.contains("Proportion"));
        assert!(html.contains("p-value"));
    }
}
