//! Binary protected-group membership.
//!
//! "We denote one or several values of the sensitive attribute as a
//! *protected feature*.  For example, for the sensitive attribute gender, the
//! assignment gender=F is a protected feature" (paper §2.3).  A
//! [`ProtectedGroup`] binds a sensitive attribute of a table to one of its
//! two values and exposes, for any ranking of that table, the membership
//! sequence in rank order — the only thing the fairness measures need.

use crate::error::{FairnessError, FairnessResult};
use rf_ranking::Ranking;
use rf_table::Table;

/// Membership of every row in a binary protected group.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProtectedGroup {
    /// Name of the sensitive attribute.
    pub attribute: String,
    /// The attribute value treated as protected.
    pub protected_value: String,
    /// The other value of the binary attribute.
    pub non_protected_value: String,
    /// `membership[i]` is `true` when row `i` belongs to the protected group.
    membership: Vec<bool>,
}

impl ProtectedGroup {
    /// Builds the membership vector for `protected_value` of the sensitive
    /// attribute `attribute` of `table`.
    ///
    /// The attribute must be binary (exactly two distinct non-missing values)
    /// and fully populated, mirroring the tool's documented limitation.
    ///
    /// # Errors
    /// * [`FairnessError::NonBinaryAttribute`] when the attribute does not
    ///   have exactly two distinct values.
    /// * [`FairnessError::UnknownProtectedValue`] when `protected_value` is
    ///   not one of them.
    /// * [`FairnessError::MissingGroupLabel`] when any row lacks a value.
    /// * [`FairnessError::DegenerateGroup`] when either group would be empty.
    pub fn from_table(
        table: &Table,
        attribute: &str,
        protected_value: &str,
    ) -> FairnessResult<Self> {
        let labels = table.categorical_view(attribute)?;
        // Missing labels are an error: every ranked item needs a group.
        if let Some(row) = labels.iter().position(|label| label.is_none()) {
            return Err(FairnessError::MissingGroupLabel { row });
        }
        let mut domain: Vec<String> = Vec::new();
        for label in labels.iter().flatten() {
            if !domain.iter().any(|v| *v == label) {
                domain.push(label.into_owned());
            }
        }
        if domain.len() != 2 {
            return Err(FairnessError::NonBinaryAttribute {
                attribute: attribute.to_string(),
                distinct: domain.len(),
            });
        }
        if !domain.iter().any(|v| v == protected_value) {
            return Err(FairnessError::UnknownProtectedValue {
                value: protected_value.to_string(),
                domain,
            });
        }
        let non_protected_value = domain
            .iter()
            .find(|v| v.as_str() != protected_value)
            .cloned()
            .expect("binary domain has another value");
        let membership: Vec<bool> = labels
            .iter()
            .map(|label| label.as_deref() == Some(protected_value))
            .collect();
        let protected_count = membership.iter().filter(|&&m| m).count();
        if protected_count == 0 {
            return Err(FairnessError::DegenerateGroup { which: "protected" });
        }
        if protected_count == membership.len() {
            return Err(FairnessError::DegenerateGroup {
                which: "non-protected",
            });
        }
        Ok(ProtectedGroup {
            attribute: attribute.to_string(),
            protected_value: protected_value.to_string(),
            non_protected_value,
            membership,
        })
    }

    /// Builds a group directly from a membership vector (used by synthetic
    /// workloads and tests).
    ///
    /// # Errors
    /// [`FairnessError::DegenerateGroup`] when either group is empty.
    pub fn from_membership(
        attribute: impl Into<String>,
        protected_value: impl Into<String>,
        membership: Vec<bool>,
    ) -> FairnessResult<Self> {
        let protected_count = membership.iter().filter(|&&m| m).count();
        if membership.is_empty() || protected_count == 0 {
            return Err(FairnessError::DegenerateGroup { which: "protected" });
        }
        if protected_count == membership.len() {
            return Err(FairnessError::DegenerateGroup {
                which: "non-protected",
            });
        }
        Ok(ProtectedGroup {
            attribute: attribute.into(),
            protected_value: protected_value.into(),
            non_protected_value: "other".to_string(),
            membership,
        })
    }

    /// Number of rows covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.membership.len()
    }

    /// `true` when no rows are covered (construction prevents this).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.membership.is_empty()
    }

    /// Whether row `index` belongs to the protected group.
    #[must_use]
    pub fn is_protected(&self, index: usize) -> bool {
        self.membership.get(index).copied().unwrap_or(false)
    }

    /// Number of protected rows in the whole dataset.
    #[must_use]
    pub fn protected_count(&self) -> usize {
        self.membership.iter().filter(|&&m| m).count()
    }

    /// Proportion of protected rows in the whole dataset.
    #[must_use]
    pub fn protected_proportion(&self) -> f64 {
        if self.membership.is_empty() {
            return 0.0;
        }
        self.protected_count() as f64 / self.membership.len() as f64
    }

    /// Protected-group membership of the ranked items, in rank order
    /// (best first).
    ///
    /// # Errors
    /// [`FairnessError::InvalidK`] when the ranking refers to rows outside the
    /// membership vector.
    pub fn membership_in_rank_order(&self, ranking: &Ranking) -> FairnessResult<Vec<bool>> {
        let mut out = Vec::with_capacity(ranking.len());
        for item in ranking.items() {
            if item.index >= self.membership.len() {
                return Err(FairnessError::InvalidK {
                    k: item.index,
                    n: self.membership.len(),
                });
            }
            out.push(self.membership[item.index]);
        }
        Ok(out)
    }

    /// Number of protected items among the top-k of `ranking`.
    ///
    /// # Errors
    /// Propagates [`ProtectedGroup::membership_in_rank_order`] errors and
    /// rejects `k == 0` or `k > n`.
    pub fn protected_in_top_k(&self, ranking: &Ranking, k: usize) -> FairnessResult<usize> {
        if k == 0 || k > ranking.len() {
            return Err(FairnessError::InvalidK {
                k,
                n: ranking.len(),
            });
        }
        let members = self.membership_in_rank_order(ranking)?;
        Ok(members[..k].iter().filter(|&&m| m).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_table::{Column, Table};

    fn table() -> Table {
        Table::from_columns(vec![
            ("name", Column::from_strings(["a", "b", "c", "d", "e", "f"])),
            (
                "size",
                Column::from_strings(["large", "small", "large", "small", "small", "large"]),
            ),
            (
                "score",
                Column::from_f64(vec![6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn builds_membership_from_table() {
        let g = ProtectedGroup::from_table(&table(), "size", "small").unwrap();
        assert_eq!(g.len(), 6);
        assert_eq!(g.protected_count(), 3);
        assert!((g.protected_proportion() - 0.5).abs() < 1e-12);
        assert!(!g.is_protected(0));
        assert!(g.is_protected(1));
        assert_eq!(g.non_protected_value, "large");
        assert!(!g.is_empty());
    }

    #[test]
    fn protected_value_must_exist() {
        let err = ProtectedGroup::from_table(&table(), "size", "medium").unwrap_err();
        assert!(matches!(err, FairnessError::UnknownProtectedValue { .. }));
    }

    #[test]
    fn non_binary_attribute_rejected() {
        let t = Table::from_columns(vec![(
            "region",
            Column::from_strings(["NE", "MW", "SA", "NE", "W"]),
        )])
        .unwrap();
        let err = ProtectedGroup::from_table(&t, "region", "NE").unwrap_err();
        assert!(matches!(
            err,
            FairnessError::NonBinaryAttribute { distinct: 4, .. }
        ));
    }

    #[test]
    fn single_valued_attribute_rejected() {
        let t = Table::from_columns(vec![("g", Column::from_strings(["x", "x", "x"]))]).unwrap();
        let err = ProtectedGroup::from_table(&t, "g", "x").unwrap_err();
        assert!(matches!(
            err,
            FairnessError::NonBinaryAttribute { distinct: 1, .. }
        ));
    }

    #[test]
    fn missing_labels_rejected() {
        let t = Table::from_columns(vec![(
            "g",
            Column::Str(vec![Some("a".to_string()), None, Some("b".to_string())]),
        )])
        .unwrap();
        let err = ProtectedGroup::from_table(&t, "g", "a").unwrap_err();
        assert!(matches!(err, FairnessError::MissingGroupLabel { row: 1 }));
    }

    #[test]
    fn boolean_attribute_works() {
        let t = Table::from_columns(vec![(
            "large",
            Column::from_bools(vec![true, false, true, false]),
        )])
        .unwrap();
        let g = ProtectedGroup::from_table(&t, "large", "false").unwrap();
        assert_eq!(g.protected_count(), 2);
        assert_eq!(g.non_protected_value, "true");
    }

    #[test]
    fn from_membership_validations() {
        assert!(ProtectedGroup::from_membership("g", "x", vec![]).is_err());
        assert!(ProtectedGroup::from_membership("g", "x", vec![true, true]).is_err());
        assert!(ProtectedGroup::from_membership("g", "x", vec![false, false]).is_err());
        let g = ProtectedGroup::from_membership("g", "x", vec![true, false]).unwrap();
        assert_eq!(g.protected_count(), 1);
    }

    #[test]
    fn membership_in_rank_order_follows_ranking() {
        let t = table();
        let g = ProtectedGroup::from_table(&t, "size", "small").unwrap();
        // Rank by score ascending (so worst score first) to exercise reordering.
        let scores = t.numeric_column("score").unwrap();
        let inverted: Vec<f64> = scores.iter().map(|s| -s).collect();
        let ranking = Ranking::from_scores(&inverted).unwrap();
        // Ranking order is rows 5,4,3,2,1,0 → sizes large, small, small, large, small, large.
        let members = g.membership_in_rank_order(&ranking).unwrap();
        assert_eq!(members, vec![false, true, true, false, true, false]);
        assert_eq!(g.protected_in_top_k(&ranking, 3).unwrap(), 2);
    }

    #[test]
    fn top_k_bounds_checked() {
        let t = table();
        let g = ProtectedGroup::from_table(&t, "size", "small").unwrap();
        let ranking = Ranking::from_scores(&t.numeric_column("score").unwrap()).unwrap();
        assert!(g.protected_in_top_k(&ranking, 0).is_err());
        assert!(g.protected_in_top_k(&ranking, 7).is_err());
        assert_eq!(g.protected_in_top_k(&ranking, 6).unwrap(), 3);
    }
}
