//! Typed columns with per-value nullability.
//!
//! A [`Column`] stores one attribute of the dataset.  Values may be missing
//! (`None`), mirroring the reality of the paper's demonstration datasets
//! (the NRC attributes joined onto CS Rankings are not available for every
//! department).

use crate::error::{TableError, TableResult};
use crate::schema::ColumnType;
use std::borrow::Cow;

/// A single cell value, used by row-oriented accessors and the CSV layer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Value {
    /// Missing value.
    Null,
    /// Floating point value.
    Float(f64),
    /// Integer value.
    Int(i64),
    /// String value.
    Str(String),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// The value as an `f64` if it is numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a display string; `""` for nulls.
    #[must_use]
    pub fn to_display(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Float(v) => format!("{v}"),
            Value::Int(v) => format!("{v}"),
            Value::Str(v) => v.clone(),
            Value::Bool(v) => format!("{v}"),
        }
    }

    /// `true` when the value is missing.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// A typed column of values with per-value nullability.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Column {
    /// Floating point column.
    Float(Vec<Option<f64>>),
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// String column.
    Str(Vec<Option<String>>),
    /// Boolean column.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// Creates a float column with no missing values.
    #[must_use]
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float(values.into_iter().map(Some).collect())
    }

    /// Creates an integer column with no missing values.
    #[must_use]
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::Int(values.into_iter().map(Some).collect())
    }

    /// Creates a string column with no missing values.
    #[must_use]
    pub fn from_strings<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Column::Str(values.into_iter().map(|s| Some(s.into())).collect())
    }

    /// Creates a boolean column with no missing values.
    #[must_use]
    pub fn from_bools(values: Vec<bool>) -> Self {
        Column::Bool(values.into_iter().map(Some).collect())
    }

    /// The storage type of the column.
    #[must_use]
    pub fn column_type(&self) -> ColumnType {
        match self {
            Column::Float(_) => ColumnType::Float,
            Column::Int(_) => ColumnType::Int,
            Column::Str(_) => ColumnType::Str,
            Column::Bool(_) => ColumnType::Bool,
        }
    }

    /// Number of values (including nulls).
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::Float(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// `true` when the column holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint of the column's values in bytes (element
    /// storage plus string contents).  Used by memory-bounded caches to
    /// account for retained data; an estimate, not an allocator measurement.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        match self {
            Column::Float(v) => v.len() * std::mem::size_of::<Option<f64>>(),
            Column::Int(v) => v.len() * std::mem::size_of::<Option<i64>>(),
            Column::Bool(v) => v.len() * std::mem::size_of::<Option<bool>>(),
            Column::Str(v) => {
                v.len() * std::mem::size_of::<Option<String>>()
                    + v.iter().flatten().map(String::len).sum::<usize>()
            }
        }
    }

    /// Number of missing values.
    #[must_use]
    pub fn null_count(&self) -> usize {
        match self {
            Column::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Str(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// The cell at `row` as a [`Value`]. Out-of-bounds rows return `None`.
    #[must_use]
    pub fn value(&self, row: usize) -> Option<Value> {
        if row >= self.len() {
            return None;
        }
        Some(match self {
            Column::Float(v) => v[row].map_or(Value::Null, Value::Float),
            Column::Int(v) => v[row].map_or(Value::Null, Value::Int),
            Column::Str(v) => v[row].clone().map_or(Value::Null, Value::Str),
            Column::Bool(v) => v[row].map_or(Value::Null, Value::Bool),
        })
    }

    /// Numeric view of the column: every non-null value converted to `f64`,
    /// in row order, with nulls skipped.  Returns an error for non-numeric
    /// columns.
    ///
    /// # Errors
    /// [`TableError::TypeMismatch`] when the column is not numeric.
    pub fn numeric_values(&self, name: &str) -> TableResult<Vec<f64>> {
        match self {
            Column::Float(v) => Ok(v.iter().filter_map(|x| *x).collect()),
            Column::Int(v) => Ok(v.iter().filter_map(|x| x.map(|i| i as f64)).collect()),
            other => Err(TableError::TypeMismatch {
                name: name.to_string(),
                expected: "a numeric column",
                actual: other.column_type().name(),
            }),
        }
    }

    /// Numeric view aligned with row indices: `Some(f64)` per row, `None`
    /// where the value is missing.  Returns an error for non-numeric columns.
    ///
    /// # Errors
    /// [`TableError::TypeMismatch`] when the column is not numeric.
    pub fn numeric_options(&self, name: &str) -> TableResult<Vec<Option<f64>>> {
        Ok(self.numeric_view(name)?.iter().collect())
    }

    /// Borrowed form of [`Column::numeric_options`]: the same row-aligned
    /// values, read in place instead of copied.
    ///
    /// # Errors
    /// [`TableError::TypeMismatch`] when the column is not numeric.
    pub fn numeric_view(&self, name: &str) -> TableResult<NumericView<'_>> {
        match self {
            Column::Float(v) => Ok(NumericView::Float(v)),
            Column::Int(v) => Ok(NumericView::Int(v)),
            other => Err(TableError::TypeMismatch {
                name: name.to_string(),
                expected: "a numeric column",
                actual: other.column_type().name(),
            }),
        }
    }

    /// Categorical view of the column: each row rendered as a string label,
    /// `None` where missing.  Booleans become `"true"`/`"false"`; integers are
    /// allowed here because users sometimes encode categories as small ints.
    /// Float columns are rejected.
    ///
    /// # Errors
    /// [`TableError::TypeMismatch`] when the column is a float column.
    pub fn categorical_labels(&self, name: &str) -> TableResult<Vec<Option<String>>> {
        Ok(self
            .categorical_view(name)?
            .iter()
            .map(|label| label.map(Cow::into_owned))
            .collect())
    }

    /// Borrowed form of [`Column::categorical_labels`]: the same labels,
    /// with string cells read in place instead of cloned.
    ///
    /// # Errors
    /// [`TableError::TypeMismatch`] when the column is a float column.
    pub fn categorical_view(&self, name: &str) -> TableResult<CategoricalView<'_>> {
        match self {
            Column::Str(v) => Ok(CategoricalView::Str(v)),
            Column::Bool(v) => Ok(CategoricalView::Bool(v)),
            Column::Int(v) => Ok(CategoricalView::Int(v)),
            Column::Float(_) => Err(TableError::TypeMismatch {
                name: name.to_string(),
                expected: "a categorical column",
                actual: "float",
            }),
        }
    }

    /// Returns a new column containing only the rows at `indices`
    /// (in the given order).  Out-of-range indices become nulls.
    #[must_use]
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Float(v) => Column::Float(
                indices
                    .iter()
                    .map(|&i| v.get(i).copied().flatten())
                    .collect(),
            ),
            Column::Int(v) => Column::Int(
                indices
                    .iter()
                    .map(|&i| v.get(i).copied().flatten())
                    .collect(),
            ),
            Column::Str(v) => Column::Str(
                indices
                    .iter()
                    .map(|&i| v.get(i).cloned().flatten())
                    .collect(),
            ),
            Column::Bool(v) => Column::Bool(
                indices
                    .iter()
                    .map(|&i| v.get(i).copied().flatten())
                    .collect(),
            ),
        }
    }
}

/// A numeric column read in place: row `i` is `Some(value as f64)`, or
/// `None` where the cell is missing.
#[derive(Debug, Clone, Copy)]
pub enum NumericView<'a> {
    /// A float column's cells.
    Float(&'a [Option<f64>]),
    /// An integer column's cells, widened to `f64` on read.
    Int(&'a [Option<i64>]),
}

impl<'a> NumericView<'a> {
    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            NumericView::Float(v) => v.len(),
            NumericView::Int(v) => v.len(),
        }
    }

    /// `true` when the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`, `None` where missing.
    ///
    /// # Panics
    /// When `row >= len()`.
    #[inline]
    #[must_use]
    pub fn get(&self, row: usize) -> Option<f64> {
        match self {
            NumericView::Float(v) => v[row],
            NumericView::Int(v) => v[row].map(|i| i as f64),
        }
    }

    /// Every row's value, in row order.
    pub fn iter(&self) -> impl Iterator<Item = Option<f64>> + 'a {
        let view = *self;
        (0..view.len()).map(move |row| view.get(row))
    }
}

/// A categorical column read in place: row `i` is its label — a string
/// cell borrowed, `"true"`/`"false"` for a boolean, an integer's decimal
/// form — or `None` where the cell is missing.
#[derive(Debug, Clone, Copy)]
pub enum CategoricalView<'a> {
    /// A string column's cells.
    Str(&'a [Option<String>]),
    /// A boolean column's cells.
    Bool(&'a [Option<bool>]),
    /// An integer column's cells.
    Int(&'a [Option<i64>]),
}

impl<'a> CategoricalView<'a> {
    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            CategoricalView::Str(v) => v.len(),
            CategoricalView::Bool(v) => v.len(),
            CategoricalView::Int(v) => v.len(),
        }
    }

    /// `true` when the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The label at `row`, `None` where missing.  Only an integer label is
    /// allocated.
    ///
    /// # Panics
    /// When `row >= len()`.
    #[must_use]
    pub fn get(&self, row: usize) -> Option<Cow<'a, str>> {
        match self {
            CategoricalView::Str(v) => v[row].as_deref().map(Cow::Borrowed),
            CategoricalView::Bool(v) => {
                v[row].map(|b| Cow::Borrowed(if b { "true" } else { "false" }))
            }
            CategoricalView::Int(v) => v[row].map(|i| Cow::Owned(i.to_string())),
        }
    }

    /// Every row's label, in row order.
    pub fn iter(&self) -> impl Iterator<Item = Option<Cow<'a, str>>> + 'a {
        let view = *self;
        (0..view.len()).map(move |row| view.get(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn value_numeric_conversion() {
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Str("x".to_string()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Bool(true).is_null());
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Null.to_display(), "");
        assert_eq!(Value::Int(7).to_display(), "7");
        assert_eq!(Value::Bool(false).to_display(), "false");
        assert_eq!(Value::Str("NE".to_string()).to_display(), "NE");
    }

    #[test]
    fn constructors_and_types() {
        assert_eq!(Column::from_f64(vec![1.0]).column_type(), ColumnType::Float);
        assert_eq!(Column::from_i64(vec![1]).column_type(), ColumnType::Int);
        assert_eq!(
            Column::from_strings(["a", "b"]).column_type(),
            ColumnType::Str
        );
        assert_eq!(
            Column::from_bools(vec![true]).column_type(),
            ColumnType::Bool
        );
    }

    #[test]
    fn len_and_null_count() {
        let col = Column::Float(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(col.len(), 3);
        assert!(!col.is_empty());
        assert_eq!(col.null_count(), 1);
    }

    #[test]
    fn value_accessor_maps_nulls() {
        let col = Column::Int(vec![Some(5), None]);
        assert_eq!(col.value(0), Some(Value::Int(5)));
        assert_eq!(col.value(1), Some(Value::Null));
        assert_eq!(col.value(2), None);
    }

    #[test]
    fn numeric_values_skips_nulls() {
        let col = Column::Float(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(col.numeric_values("x").unwrap(), vec![1.0, 3.0]);
        let col = Column::Int(vec![Some(2), None]);
        assert_eq!(col.numeric_values("x").unwrap(), vec![2.0]);
    }

    #[test]
    fn numeric_values_rejects_strings() {
        let col = Column::from_strings(["a"]);
        assert!(matches!(
            col.numeric_values("Region"),
            Err(TableError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn numeric_options_preserves_alignment() {
        let col = Column::Int(vec![Some(2), None, Some(4)]);
        assert_eq!(
            col.numeric_options("x").unwrap(),
            vec![Some(2.0), None, Some(4.0)]
        );
    }

    #[test]
    fn categorical_labels_for_various_types() {
        let col = Column::from_strings(["NE", "MW"]);
        assert_eq!(
            col.categorical_labels("Region").unwrap(),
            vec![Some("NE".to_string()), Some("MW".to_string())]
        );
        let col = Column::from_bools(vec![true, false]);
        assert_eq!(
            col.categorical_labels("Large").unwrap(),
            vec![Some("true".to_string()), Some("false".to_string())]
        );
        let col = Column::from_i64(vec![1, 2]);
        assert_eq!(
            col.categorical_labels("Code").unwrap(),
            vec![Some("1".to_string()), Some("2".to_string())]
        );
        let col = Column::from_f64(vec![1.0]);
        assert!(col.categorical_labels("Score").is_err());
    }

    /// The copying accessor the views replaced on the label path: the
    /// oracle for [`Column::categorical_view`].
    fn categorical_labels_by_copy(column: &Column) -> Option<Vec<Option<String>>> {
        match column {
            Column::Str(v) => Some(v.clone()),
            Column::Bool(v) => Some(v.iter().map(|x| x.map(|b| b.to_string())).collect()),
            Column::Int(v) => Some(v.iter().map(|x| x.map(|i| i.to_string())).collect()),
            Column::Float(_) => None,
        }
    }

    /// A column of `kind` (0 string, 1 bool, 2 int, 3 float) whose cells
    /// come from `cells`: a `0` is a missing cell.
    fn column_of(kind: usize, cells: &[(usize, i64)]) -> Column {
        let cell = |&(present, value): &(usize, i64)| (present != 0).then_some(value);
        match kind {
            0 => Column::Str(
                cells
                    .iter()
                    .map(|c| cell(c).map(|v| format!("c{v}")))
                    .collect(),
            ),
            1 => Column::Bool(cells.iter().map(|c| cell(c).map(|v| v % 2 == 0)).collect()),
            2 => Column::Int(cells.iter().map(cell).collect()),
            _ => Column::Float(
                cells
                    .iter()
                    .map(|c| cell(c).map(|v| v as f64 / 4.0))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn views_read_what_the_copying_accessors_return(
            kind in 0usize..4,
            cells in prop::collection::vec((0usize..4, -20i64..20), 0..200),
        ) {
            let column = column_of(kind, &cells);
            match categorical_labels_by_copy(&column) {
                Some(reference) => {
                    let view = column.categorical_view("c").unwrap();
                    prop_assert_eq!(view.len(), reference.len());
                    for (row, want) in reference.iter().enumerate() {
                        let label = view.get(row);
                        prop_assert_eq!(label.as_deref(), want.as_deref());
                    }
                    let collected: Vec<Option<String>> =
                        view.iter().map(|l| l.map(|l| l.into_owned())).collect();
                    prop_assert_eq!(&collected, &reference);
                    prop_assert_eq!(&column.categorical_labels("c").unwrap(), &reference);
                }
                None => prop_assert!(column.categorical_view("c").is_err()),
            }
            match column.numeric_view("n") {
                Ok(view) => {
                    let reference: Vec<Option<f64>> = match &column {
                        Column::Float(v) => v.clone(),
                        Column::Int(v) => v.iter().map(|x| x.map(|i| i as f64)).collect(),
                        _ => unreachable!("only numeric columns have a numeric view"),
                    };
                    prop_assert_eq!(view.iter().collect::<Vec<_>>(), reference.clone());
                    prop_assert_eq!(column.numeric_options("n").unwrap(), reference);
                }
                Err(_) => prop_assert!(kind < 2),
            }
        }
    }

    #[test]
    fn take_reorders_and_handles_out_of_range() {
        let col = Column::from_i64(vec![10, 20, 30]);
        let taken = col.take(&[2, 0, 9]);
        assert_eq!(taken, Column::Int(vec![Some(30), Some(10), None]));
    }
}
