//! Error type for the diversity measures.

use std::fmt;

/// Result alias used throughout `rf-diversity`.
pub type DiversityResult<T> = Result<T, DiversityError>;

/// Errors produced while computing diversity measures.
#[derive(Debug, Clone, PartialEq)]
pub enum DiversityError {
    /// The categorical attribute has no non-missing values.
    EmptyAttribute {
        /// Attribute name.
        attribute: String,
    },
    /// The categorical attribute has no non-missing value among the top-k
    /// rows (it may have some below them).
    EmptyTopK {
        /// Attribute name.
        attribute: String,
        /// Audited prefix size.
        k: usize,
    },
    /// `k` (the prefix size) is invalid: zero or larger than the ranking.
    InvalidK {
        /// Requested prefix size.
        k: usize,
        /// Ranking size.
        n: usize,
    },
    /// A proportion vector did not sum to 1 (internal consistency violation).
    InvalidDistribution {
        /// Description of the problem.
        message: String,
    },
    /// An underlying table error.
    Table(rf_table::TableError),
    /// An underlying ranking error.
    Ranking(rf_ranking::RankingError),
}

impl fmt::Display for DiversityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiversityError::EmptyAttribute { attribute } => {
                write!(f, "attribute `{attribute}` has no non-missing values")
            }
            DiversityError::EmptyTopK { attribute, k } => {
                write!(
                    f,
                    "attribute `{attribute}` has no non-missing values among the top-{k} items"
                )
            }
            DiversityError::InvalidK { k, n } => {
                write!(f, "invalid prefix size k={k} for a ranking of {n} items")
            }
            DiversityError::InvalidDistribution { message } => {
                write!(f, "invalid distribution: {message}")
            }
            DiversityError::Table(err) => write!(f, "table error: {err}"),
            DiversityError::Ranking(err) => write!(f, "ranking error: {err}"),
        }
    }
}

impl std::error::Error for DiversityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiversityError::Table(err) => Some(err),
            DiversityError::Ranking(err) => Some(err),
            _ => None,
        }
    }
}

impl From<rf_table::TableError> for DiversityError {
    fn from(err: rf_table::TableError) -> Self {
        DiversityError::Table(err)
    }
}

impl From<rf_ranking::RankingError> for DiversityError {
    fn from(err: rf_ranking::RankingError) -> Self {
        DiversityError::Ranking(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = DiversityError::EmptyAttribute {
            attribute: "Region".to_string(),
        };
        assert!(e.to_string().contains("Region"));
        let e = DiversityError::EmptyTopK {
            attribute: "Region".to_string(),
            k: 10,
        };
        assert_eq!(
            e.to_string(),
            "attribute `Region` has no non-missing values among the top-10 items"
        );
        let e = DiversityError::InvalidK { k: 50, n: 10 };
        assert!(e.to_string().contains("k=50"));
    }

    #[test]
    fn conversions() {
        let e: DiversityError = rf_table::TableError::Empty { operation: "x" }.into();
        assert!(matches!(e, DiversityError::Table(_)));
        let e: DiversityError = rf_ranking::RankingError::EmptyRanking.into();
        assert!(matches!(e, DiversityError::Ranking(_)));
    }
}
