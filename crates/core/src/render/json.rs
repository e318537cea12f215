//! JSON rendering of the nutritional label.
//!
//! The original web tool's back end hands each widget's data to the front end
//! as JSON; this renderer produces the equivalent document for the whole
//! label, so external tooling (or the bundled `rf-server`) can consume it.

use crate::error::LabelResult;
use crate::label::NutritionalLabel;

/// Serializes the complete label as pretty-printed JSON.
///
/// # Errors
/// Serialization failures (not expected for well-formed labels).
pub fn render_json(label: &NutritionalLabel) -> LabelResult<String> {
    Ok(serde_json::to_string_pretty(label)?)
}

#[cfg(test)]
mod tests {
    use super::super::tests::sample_label;
    use super::*;

    #[test]
    fn json_is_valid_and_contains_widgets() {
        let label = sample_label();
        let json = render_json(&label).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(value.get("recipe").is_some());
        assert!(value.get("ingredients").is_some());
        assert!(value.get("stability").is_some());
        assert!(value.get("fairness").is_some());
        assert!(value.get("diversity").is_some());
        assert_eq!(value["ranked_items"], 24);
        assert!(value.get("ranking").is_none());
        assert_eq!(value["dataset_name"], "sample");
    }

    #[test]
    fn json_roundtrip_is_a_fixpoint() {
        // Floating-point formatting may differ from the in-memory value by a
        // few ULPs, so exact struct equality after one round-trip is too
        // strict; instead require serialize → parse → serialize to be stable
        // and the structural fields to survive.
        let label = sample_label();
        let json = render_json(&label).unwrap();
        let parsed: crate::NutritionalLabel = serde_json::from_str(&json).unwrap();
        let json_again = render_json(&parsed).unwrap();
        assert_eq!(json, json_again);
        assert_eq!(parsed.ranked_items, label.ranked_items);
        assert_eq!(parsed.top_k_rows.len(), label.top_k_rows.len());
        for (back, row) in parsed.top_k_rows.iter().zip(&label.top_k_rows) {
            assert_eq!(
                (back.rank, back.row_index, &back.identifier),
                (row.rank, row.row_index, &row.identifier)
            );
        }
        assert_eq!(parsed.fairness.reports.len(), label.fairness.reports.len());
        assert_eq!(parsed.dataset_name, label.dataset_name);
    }

    #[test]
    fn json_fairness_rows_have_p_values() {
        let label = sample_label();
        let json = render_json(&label).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let reports = value["fairness"]["reports"].as_array().unwrap();
        assert_eq!(reports.len(), 2);
        for report in reports {
            assert!(report["fair_star"]["p_value"].is_number());
            assert!(report["pairwise"]["p_value"].is_number());
            assert!(report["proportion"]["p_value"].is_number());
        }
    }
}
