//! Error type for label generation.

use std::fmt;

/// Result alias used throughout `rf-core`.
pub type LabelResult<T> = Result<T, LabelError>;

/// Errors produced while configuring or generating a nutritional label.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelError {
    /// The configuration is invalid (message explains which part).
    InvalidConfig {
        /// Description of the problem.
        message: String,
    },
    /// An underlying table error.
    Table(rf_table::TableError),
    /// An underlying ranking error.
    Ranking(rf_ranking::RankingError),
    /// An underlying fairness error.
    Fairness(rf_fairness::FairnessError),
    /// An underlying stability error.
    Stability(rf_stability::StabilityError),
    /// An underlying diversity error.
    Diversity(rf_diversity::DiversityError),
    /// An underlying statistics error.
    Stats(rf_stats::StatsError),
    /// Serialization of the label failed.
    Serialization {
        /// Description of the problem.
        message: String,
    },
    /// A pipeline job (a widget builder, or the single-flight leader a
    /// waiter was blocked on) panicked.  A builder's siblings still
    /// completed; the name says exactly which job failed.
    WidgetPanic {
        /// Name of the widget builder or job that panicked.
        widget: String,
    },
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelError::InvalidConfig { message } => {
                write!(f, "invalid label configuration: {message}")
            }
            LabelError::Table(err) => write!(f, "table error: {err}"),
            LabelError::Ranking(err) => write!(f, "ranking error: {err}"),
            LabelError::Fairness(err) => write!(f, "fairness error: {err}"),
            LabelError::Stability(err) => write!(f, "stability error: {err}"),
            LabelError::Diversity(err) => write!(f, "diversity error: {err}"),
            LabelError::Stats(err) => write!(f, "statistics error: {err}"),
            LabelError::Serialization { message } => {
                write!(f, "cannot serialize label: {message}")
            }
            LabelError::WidgetPanic { widget } => {
                write!(f, "pipeline job `{widget}` panicked")
            }
        }
    }
}

impl std::error::Error for LabelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LabelError::Table(err) => Some(err),
            LabelError::Ranking(err) => Some(err),
            LabelError::Fairness(err) => Some(err),
            LabelError::Stability(err) => Some(err),
            LabelError::Diversity(err) => Some(err),
            LabelError::Stats(err) => Some(err),
            _ => None,
        }
    }
}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for LabelError {
            fn from(err: $ty) -> Self {
                LabelError::$variant(err)
            }
        }
    };
}

impl_from!(Table, rf_table::TableError);
impl_from!(Ranking, rf_ranking::RankingError);
impl_from!(Fairness, rf_fairness::FairnessError);
impl_from!(Stability, rf_stability::StabilityError);
impl_from!(Diversity, rf_diversity::DiversityError);
impl_from!(Stats, rf_stats::StatsError);

impl From<serde_json::Error> for LabelError {
    fn from(err: serde_json::Error) -> Self {
        LabelError::Serialization {
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let err = LabelError::InvalidConfig {
            message: "top_k must be positive".to_string(),
        };
        assert!(err.to_string().contains("top_k"));
        assert!(err.source().is_none());

        let err: LabelError = rf_table::TableError::Empty { operation: "x" }.into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("table error"));
    }

    #[test]
    fn all_substrate_errors_convert() {
        let _: LabelError = rf_ranking::RankingError::EmptyRanking.into();
        let _: LabelError =
            rf_fairness::FairnessError::DegenerateGroup { which: "protected" }.into();
        let _: LabelError = rf_stability::StabilityError::TooFewItems {
            available: 0,
            required: 2,
        }
        .into();
        let _: LabelError = rf_diversity::DiversityError::InvalidK { k: 0, n: 0 }.into();
        let _: LabelError = rf_stats::StatsError::EmptyInput { operation: "x" }.into();
    }
}
