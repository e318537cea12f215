//! Per-attribute stability.
//!
//! "Alternatively, stability can be computed with respect to each scoring
//! attribute" (paper §2.2).  For every scoring attribute this module fits the
//! same rank-versus-value line as the headline estimator, but to the
//! attribute's own (min-max normalized) values in rank order.  An attribute
//! whose values barely change across adjacent ranks contributes instability:
//! small measurement noise in that attribute can swap items.

use crate::error::{StabilityError, StabilityResult};
use crate::slope::{StabilityVerdict, DEFAULT_SLOPE_THRESHOLD};
use rf_ranking::{Ranking, ScoringFunction};
use rf_stats::LinearFit;
use rf_table::{NormalizationMethod, Normalizer, Table};

/// Stability of one scoring attribute.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AttributeStability {
    /// Attribute name.
    pub attribute: String,
    /// Weight of the attribute in the scoring function.
    pub weight: f64,
    /// Slope magnitude of the attribute's normalized values against
    /// normalized rank, over the whole ranking.
    pub slope_magnitude: f64,
    /// R² of that fit (how linear the attribute's decay over ranks is).
    pub r_squared: f64,
    /// Verdict at the shared threshold.
    pub verdict: StabilityVerdict,
}

/// Computes per-attribute stability for every attribute of `scoring` on the
/// ranking it induced over `table`.
///
/// # Errors
/// Propagates table/normalization errors; requires at least two ranked items.
pub fn attribute_stability(
    table: &Table,
    scoring: &ScoringFunction,
    ranking: &Ranking,
) -> StabilityResult<Vec<AttributeStability>> {
    attribute_stability_with_threshold(table, scoring, ranking, DEFAULT_SLOPE_THRESHOLD)
}

/// Computes per-attribute stability with an explicit threshold.
///
/// # Errors
/// Propagates table/normalization errors; requires at least two ranked items
/// and a positive finite threshold.
pub fn attribute_stability_with_threshold(
    table: &Table,
    scoring: &ScoringFunction,
    ranking: &Ranking,
    threshold: f64,
) -> StabilityResult<Vec<AttributeStability>> {
    let matrix = normalized_values_in_rank_order(table, scoring, ranking)?;
    attribute_stability_from_normalized(scoring, &matrix, threshold)
}

/// The min-max-normalized values of every scoring attribute, reordered by
/// rank (missing values become `NaN`) — the shared intermediate of
/// per-attribute stability.
///
/// `rf-core`'s analysis context computes this matrix exactly once per label
/// and hands it to [`attribute_stability_from_normalized`], so the widget
/// fan-out never re-fits the normalizer.
///
/// # Errors
/// Propagates table/normalization errors; requires at least two ranked items.
pub fn normalized_values_in_rank_order(
    table: &Table,
    scoring: &ScoringFunction,
    ranking: &Ranking,
) -> StabilityResult<Vec<(String, Vec<f64>)>> {
    if ranking.len() < 2 {
        return Err(StabilityError::TooFewItems {
            available: ranking.len(),
            required: 2,
        });
    }
    let names: Vec<&str> = scoring.attribute_names();
    // Min-max normalization puts every attribute on the same [0, 1] scale so
    // that slope magnitudes are comparable across attributes, regardless of
    // the normalization the scoring function itself used.
    let normalizer = Normalizer::fit(table, &names, NormalizationMethod::MinMax)?;
    let mut matrix = Vec::with_capacity(names.len());
    for weight in scoring.weights() {
        let values = table.numeric_view(&weight.attribute)?;
        let transform = normalizer.column_transform(&weight.attribute)?;
        let values_in_rank_order: Vec<f64> = ranking
            .items()
            .iter()
            .map(|item| values.get(item.index).map(&transform).unwrap_or(f64::NAN))
            .collect();
        matrix.push((weight.attribute.clone(), values_in_rank_order));
    }
    Ok(matrix)
}

/// Fits the per-attribute stability lines to a precomputed normalized matrix
/// (see [`normalized_values_in_rank_order`]).
///
/// # Errors
/// Requires a positive finite threshold and at least two finite values per
/// attribute.
pub fn attribute_stability_from_normalized(
    scoring: &ScoringFunction,
    matrix: &[(String, Vec<f64>)],
    threshold: f64,
) -> StabilityResult<Vec<AttributeStability>> {
    if !(threshold.is_finite() && threshold > 0.0) {
        return Err(StabilityError::InvalidParameter {
            parameter: "threshold",
            message: format!("threshold must be positive and finite, got {threshold}"),
        });
    }
    // The x axis (normalized rank grid) is shared by every attribute's fit.
    let rows = matrix.first().map_or(0, |(_, values)| values.len());
    let x: Vec<f64> = (0..rows).map(|i| i as f64 / (rows - 1) as f64).collect();

    let mut out = Vec::with_capacity(matrix.len());
    for ((attribute, values_in_rank_order), weight) in matrix.iter().zip(scoring.weights()) {
        debug_assert_eq!(attribute, &weight.attribute, "matrix follows recipe order");
        debug_assert_eq!(values_in_rank_order.len(), rows, "uniform matrix columns");
        // Missing values would poison the fit; replace them with the slice
        // mean so a sparse attribute degrades gracefully instead of erroring.
        let finite: Vec<f64> = values_in_rank_order
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if finite.len() < 2 {
            return Err(StabilityError::TooFewItems {
                available: finite.len(),
                required: 2,
            });
        }
        let mean = finite.iter().sum::<f64>() / finite.len() as f64;
        let cleaned: Vec<f64> = values_in_rank_order
            .iter()
            .map(|v| if v.is_finite() { *v } else { mean })
            .collect();
        let (slope_magnitude, r_squared) = match LinearFit::fit(&x, &cleaned) {
            Ok(fit) => (fit.slope.abs(), fit.r_squared),
            Err(rf_stats::StatsError::ZeroVariance { .. }) => (0.0, 1.0),
            Err(err) => return Err(StabilityError::Stats(err)),
        };
        out.push(AttributeStability {
            attribute: attribute.clone(),
            weight: weight.weight,
            slope_magnitude,
            r_squared,
            verdict: StabilityVerdict::from_slope(slope_magnitude, threshold),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_table::Column;

    fn table() -> Table {
        // PubCount strongly separates items and drives the ranking; GRE varies
        // but is uncorrelated with the ranked outcome (the situation the paper
        // walks through in its demonstration scenario).
        let pub_count: Vec<f64> = (0..20).map(|i| 100.0 - 4.0 * i as f64).collect();
        let gre: Vec<f64> = (0..20).map(|i| 150.0 + (i % 2) as f64 * 10.0).collect();
        Table::from_columns(vec![
            ("PubCount", Column::from_f64(pub_count)),
            ("GRE", Column::from_f64(gre)),
        ])
        .unwrap()
    }

    #[test]
    fn discriminating_attribute_is_stable_weak_attribute_is_not() {
        let t = table();
        let scoring = ScoringFunction::from_pairs([("PubCount", 0.8), ("GRE", 0.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        let stats = attribute_stability(&t, &scoring, &ranking).unwrap();
        assert_eq!(stats.len(), 2);
        let pubs = stats.iter().find(|s| s.attribute == "PubCount").unwrap();
        let gre = stats.iter().find(|s| s.attribute == "GRE").unwrap();
        assert_eq!(pubs.verdict, StabilityVerdict::Stable);
        assert!(pubs.slope_magnitude > 0.9);
        // GRE's values are uncorrelated with rank, so its fitted slope is tiny.
        assert_eq!(gre.verdict, StabilityVerdict::Unstable);
        assert!(gre.slope_magnitude < 0.25);
        // Weights are carried through for the detailed widget.
        assert_eq!(pubs.weight, 0.8);
        assert_eq!(gre.weight, 0.0);
    }

    #[test]
    fn constant_attribute_reports_zero_slope() {
        let t = Table::from_columns(vec![
            ("a", Column::from_f64((0..10).map(f64::from).collect())),
            ("b", Column::from_f64(vec![5.0; 10])),
        ])
        .unwrap();
        let scoring = ScoringFunction::with_normalization(
            vec![
                rf_ranking::AttributeWeight::new("a", 1.0),
                rf_ranking::AttributeWeight::new("b", 1.0),
            ],
            NormalizationMethod::None,
        )
        .unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        // Normalizer for per-attribute stability uses min-max, which rejects
        // constant columns — the error should surface, not panic.
        let result = attribute_stability(&t, &scoring, &ranking);
        assert!(result.is_err());
    }

    #[test]
    fn missing_values_are_imputed_not_fatal() {
        let t = Table::from_columns(vec![(
            "a",
            Column::Float(vec![
                Some(10.0),
                Some(8.0),
                None,
                Some(4.0),
                Some(2.0),
                Some(0.0),
            ]),
        )])
        .unwrap();
        let scoring = ScoringFunction::from_pairs([("a", 1.0)])
            .unwrap()
            .with_missing_policy(rf_ranking::score::MissingValuePolicy::MeanImpute);
        let ranking = scoring.rank_table(&t).unwrap();
        let stats = attribute_stability(&t, &scoring, &ranking).unwrap();
        assert_eq!(stats.len(), 1);
        assert!(stats[0].slope_magnitude > 0.5);
    }

    #[test]
    fn threshold_and_size_validation() {
        let t = table();
        let scoring = ScoringFunction::from_pairs([("PubCount", 1.0)]).unwrap();
        let ranking = scoring.rank_table(&t).unwrap();
        assert!(attribute_stability_with_threshold(&t, &scoring, &ranking, 0.0).is_err());
        let tiny = Ranking::from_scores(&[1.0]).unwrap();
        assert!(attribute_stability(&t, &scoring, &tiny).is_err());
    }

    #[test]
    fn unknown_attribute_errors() {
        let t = table();
        let scoring = ScoringFunction::from_pairs([("Ghost", 1.0)]).unwrap();
        let ranking = Ranking::from_order(&(0..20).collect::<Vec<_>>()).unwrap();
        assert!(attribute_stability(&t, &scoring, &ranking).is_err());
    }
}
