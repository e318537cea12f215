//! Integration tests for the three label renderers on realistic datasets.

use rf_core::{render_html, render_json, render_text, LabelConfig, NutritionalLabel};
use rf_datasets::CsDepartmentsConfig;
use rf_ranking::ScoringFunction;

fn label() -> NutritionalLabel {
    let table = CsDepartmentsConfig::default().generate().unwrap();
    let scoring =
        ScoringFunction::from_pairs([("PubCount", 0.4), ("Faculty", 0.4), ("GRE", 0.2)]).unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(10)
        .with_dataset_name("CS departments")
        .with_sensitive_attribute("DeptSizeBin", ["large", "small"])
        .with_diversity_attribute("DeptSizeBin")
        .with_diversity_attribute("Region");
    NutritionalLabel::generate(&table, &config).unwrap()
}

#[test]
fn text_render_contains_all_sections_and_items() {
    let label = label();
    let text = render_text(&label);
    for needle in [
        "Ranking Facts",
        "CS departments",
        "Recipe",
        "Ingredients",
        "Stability",
        "Fairness",
        "Diversity",
        "PubCount",
        "GRE",
    ] {
        assert!(text.contains(needle), "text output missing `{needle}`");
    }
    // Every top-10 identifier appears.
    for row in &label.top_k_rows {
        assert!(text.contains(&row.identifier));
    }
}

#[test]
fn html_render_is_well_formed_and_escaped() {
    let label = label();
    let html = render_html(&label);
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("</html>"));
    // Section cards for every widget.
    for class in [
        "recipe",
        "ingredients",
        "stability",
        "fairness",
        "diversity",
    ] {
        assert!(html.contains(&format!("class=\"card {class}\"")));
    }
    // Balanced table tags.
    assert_eq!(
        html.matches("<table>").count(),
        html.matches("</table>").count()
    );
    assert_eq!(
        html.matches("<section").count(),
        html.matches("</section>").count()
    );
}

#[test]
fn json_render_roundtrips_and_matches_label_content() {
    let label = label();
    let json = render_json(&label).unwrap();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value["dataset_name"], "CS departments");
    assert_eq!(
        value["top_k_rows"].as_array().unwrap().len(),
        label.top_k_rows.len()
    );
    assert_eq!(
        value["fairness"]["reports"].as_array().unwrap().len(),
        label.fairness.reports.len()
    );
    // Round-trip: serialize → parse → serialize reaches a fixpoint and the
    // structural content survives (float formatting may differ by ULPs).
    let parsed: NutritionalLabel = serde_json::from_str(&json).unwrap();
    assert_eq!(render_json(&parsed).unwrap(), json);
    assert_eq!(value["ranked_items"], 97);
    assert_eq!(parsed.ranked_items, label.ranked_items);
    assert_eq!(parsed.top_k_rows.len(), label.top_k_rows.len());
    for (back, row) in parsed.top_k_rows.iter().zip(&label.top_k_rows) {
        assert_eq!(
            (back.rank, back.row_index, &back.identifier),
            (row.rank, row.row_index, &row.identifier)
        );
    }
    assert_eq!(parsed.config, label.config);
}

#[test]
fn renders_survive_hostile_strings_in_data() {
    // Identifiers containing HTML-special characters must be escaped, not
    // injected, in the HTML output.
    use rf_table::{Column, Table};
    let table = Table::from_columns(vec![
        (
            "name",
            Column::from_strings(["<script>alert(1)</script>", "a & b", "\"quoted\"", "plain"]),
        ),
        ("score", Column::from_f64(vec![4.0, 3.0, 2.0, 1.0])),
        ("grp", Column::from_strings(["x", "y", "x", "y"])),
    ])
    .unwrap();
    let scoring = ScoringFunction::from_pairs([("score", 1.0)]).unwrap();
    let config = LabelConfig::new(scoring)
        .with_top_k(2)
        .with_sensitive_attribute("grp", ["x"])
        .with_diversity_attribute("grp");
    let label = NutritionalLabel::generate(&table, &config).unwrap();
    let html = label.to_html();
    assert!(!html.contains("<script>alert(1)</script>"));
    assert!(html.contains("&lt;script&gt;"));
    assert!(html.contains("a &amp; b"));
}
