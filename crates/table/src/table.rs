//! The [`Table`]: an ordered collection of named, typed columns.
//!
//! This is the in-memory representation of the dataset a user uploads to
//! Ranking Facts ("a fully populated table in CSV format", §3).  It supports
//! the operations the nutritional-label pipeline needs: column access by
//! name, row slicing (top-k vs. over-all), filtering, sorting by a computed
//! score, and previewing.

use crate::column::{CategoricalView, Column, NumericView, Value};
use crate::error::{TableError, TableResult};
use crate::schema::{ColumnType, Field, Schema};
use std::sync::Arc;

/// A columnar table: a schema plus one column per field, all of equal length.
///
/// Columns are stored behind `Arc`, so cloning a table — or copying a subset
/// of its columns into a derived table via [`Table::add_shared_column`] —
/// shares the cell storage instead of duplicating it.  The Monte-Carlo
/// stability perturber relies on this: a perturbed draw re-uses every
/// untouched column of the original table at the cost of one reference count.
/// `Column` has no interior mutability, so shared columns can never diverge.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl Table {
    /// Creates an empty table with no columns and no rows.
    #[must_use]
    pub fn new() -> Self {
        Table::default()
    }

    /// Builds a table from `(name, column)` pairs.
    ///
    /// # Errors
    /// Returns an error if column lengths differ or a name is duplicated.
    pub fn from_columns(columns: Vec<(impl Into<String>, Column)>) -> TableResult<Self> {
        let mut table = Table::new();
        for (name, column) in columns {
            table.add_column(name, column)?;
        }
        Ok(table)
    }

    /// Adds a column to the table.
    ///
    /// The first column added determines the row count; subsequent columns
    /// must match it.
    ///
    /// # Errors
    /// Returns an error if the name already exists or the length differs from
    /// the current row count.
    pub fn add_column(&mut self, name: impl Into<String>, column: Column) -> TableResult<()> {
        self.add_shared_column(name, Arc::new(column))
    }

    /// Adds an `Arc`-shared column to the table without copying its cells —
    /// the zero-copy path for derived tables (e.g. perturbed copies that keep
    /// most columns unchanged).
    ///
    /// # Errors
    /// Same as [`Table::add_column`].
    pub fn add_shared_column(
        &mut self,
        name: impl Into<String>,
        column: Arc<Column>,
    ) -> TableResult<()> {
        let name = name.into();
        if self.schema.contains(&name) {
            return Err(TableError::DuplicateColumn { name });
        }
        if !self.columns.is_empty() && column.len() != self.rows {
            return Err(TableError::ColumnLengthMismatch {
                name,
                len: column.len(),
                expected: self.rows,
            });
        }
        if self.columns.is_empty() {
            self.rows = column.len();
        }
        self.schema.push(Field::new(name, column.column_type()));
        self.columns.push(column);
        Ok(())
    }

    /// The table's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the table has no rows or no columns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.columns.is_empty()
    }

    /// Approximate heap footprint of the table in bytes: cell storage plus
    /// column names.  Memory-bounded caches use this to account for tables
    /// they keep alive.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        let cells: usize = self.columns.iter().map(|c| c.approx_heap_bytes()).sum();
        let names: usize = self.schema.fields().iter().map(|f| f.name.len()).sum();
        cells + names
    }

    /// The column with the given name.
    ///
    /// # Errors
    /// [`TableError::UnknownColumn`] if no such column exists.
    pub fn column(&self, name: &str) -> TableResult<&Column> {
        self.shared_column(name).map(Arc::as_ref)
    }

    /// The `Arc`-shared handle of the column with the given name, for callers
    /// that re-use the column in a derived table without copying it
    /// ([`Table::add_shared_column`]).
    ///
    /// # Errors
    /// [`TableError::UnknownColumn`] if no such column exists.
    pub fn shared_column(&self, name: &str) -> TableResult<&Arc<Column>> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::UnknownColumn {
                name: name.to_string(),
            })?;
        Ok(&self.columns[idx])
    }

    /// All columns in schema order (`Arc`-shared; deref to [`Column`]).
    #[must_use]
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Non-null numeric values of a column (nulls skipped).
    ///
    /// # Errors
    /// Unknown column or non-numeric column.
    pub fn numeric_column(&self, name: &str) -> TableResult<Vec<f64>> {
        self.column(name)?.numeric_values(name)
    }

    /// Row-aligned numeric values of a column (`None` where missing).
    ///
    /// # Errors
    /// Unknown column or non-numeric column.
    pub fn numeric_column_options(&self, name: &str) -> TableResult<Vec<Option<f64>>> {
        self.column(name)?.numeric_options(name)
    }

    /// Row-aligned numeric values of a column, read in place
    /// ([`Table::numeric_column_options`] without the copy).
    ///
    /// # Errors
    /// Unknown column or non-numeric column.
    pub fn numeric_view(&self, name: &str) -> TableResult<NumericView<'_>> {
        self.column(name)?.numeric_view(name)
    }

    /// Row-aligned categorical labels of a column (`None` where missing).
    ///
    /// # Errors
    /// Unknown column or float column.
    pub fn categorical_column(&self, name: &str) -> TableResult<Vec<Option<String>>> {
        self.column(name)?.categorical_labels(name)
    }

    /// Row-aligned categorical labels of a column, read in place
    /// ([`Table::categorical_column`] without cloning every string).
    ///
    /// # Errors
    /// Unknown column or float column.
    pub fn categorical_view(&self, name: &str) -> TableResult<CategoricalView<'_>> {
        self.column(name)?.categorical_view(name)
    }

    /// The full row at `index` as `(column name, value)` pairs.
    ///
    /// # Errors
    /// [`TableError::RowOutOfBounds`] when `index >= num_rows()`.
    pub fn row(&self, index: usize) -> TableResult<Vec<(String, Value)>> {
        if index >= self.rows {
            return Err(TableError::RowOutOfBounds {
                index,
                rows: self.rows,
            });
        }
        Ok(self
            .schema
            .fields()
            .iter()
            .zip(self.columns.iter())
            .map(|(f, c)| (f.name.clone(), c.value(index).unwrap_or(Value::Null)))
            .collect())
    }

    /// A new table containing only the rows at `indices`, in that order.
    /// Indices out of range produce null rows (callers validate first when
    /// that matters).
    #[must_use]
    pub fn take(&self, indices: &[usize]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.take(indices)))
            .collect();
        Table {
            schema: self.schema.clone(),
            columns,
            rows: indices.len(),
        }
    }

    /// The first `n` rows (or all rows when `n >= num_rows()`), preserving order.
    #[must_use]
    pub fn head(&self, n: usize) -> Table {
        let n = n.min(self.rows);
        let indices: Vec<usize> = (0..n).collect();
        self.take(&indices)
    }

    /// A new table with only the named columns, in the requested order.
    ///
    /// # Errors
    /// [`TableError::UnknownColumn`] for any missing name.
    pub fn select(&self, names: &[&str]) -> TableResult<Table> {
        let mut out = Table::new();
        for &name in names {
            let col = Arc::clone(self.shared_column(name)?);
            out.add_shared_column(name, col)?;
        }
        // A selection of zero columns keeps the row count for consistency.
        if names.is_empty() {
            out.rows = self.rows;
        }
        Ok(out)
    }

    /// Returns row indices sorted by the given numeric column.
    ///
    /// `descending = true` puts the largest values first (the usual "best
    /// first" ranking order).  Missing values always sort last regardless of
    /// direction.  Ties keep their original relative order (stable sort).
    ///
    /// # Errors
    /// Unknown column or non-numeric column.
    pub fn sort_indices_by(&self, name: &str, descending: bool) -> TableResult<Vec<usize>> {
        let values = self.numeric_column_options(name)?;
        let mut indices: Vec<usize> = (0..self.rows).collect();
        indices.sort_by(|&a, &b| {
            match (values[a], values[b]) {
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => std::cmp::Ordering::Greater, // nulls last
                (Some(_), None) => std::cmp::Ordering::Less,
                (Some(x), Some(y)) => {
                    let ord = x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal);
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                }
            }
        });
        Ok(indices)
    }

    /// A new table sorted by the given numeric column.
    ///
    /// # Errors
    /// Unknown column or non-numeric column.
    pub fn sort_by(&self, name: &str, descending: bool) -> TableResult<Table> {
        let indices = self.sort_indices_by(name, descending)?;
        Ok(self.take(&indices))
    }

    /// Appends a float column computed elsewhere (e.g. a score column).
    ///
    /// # Errors
    /// Duplicate name or length mismatch.
    pub fn with_float_column(
        &self,
        name: impl Into<String>,
        values: Vec<f64>,
    ) -> TableResult<Table> {
        let mut out = self.clone();
        out.add_column(name, Column::from_f64(values))?;
        Ok(out)
    }

    /// Plain-text preview of the first `n` rows, used by the design view
    /// ("The system generates a preview of the data", §3).
    #[must_use]
    pub fn preview(&self, n: usize) -> String {
        let mut out = String::new();
        let names = self.schema.names();
        out.push_str(&names.join(" | "));
        out.push('\n');
        out.push_str(&names.iter().map(|_| "---").collect::<Vec<_>>().join(" | "));
        out.push('\n');
        for row in 0..n.min(self.rows) {
            let cells: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.value(row).unwrap_or(Value::Null).to_display())
                .collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        out
    }

    /// Checks that a column exists and is numeric.
    ///
    /// # Errors
    /// Unknown column, or [`TableError::TypeMismatch`] when not numeric.
    pub fn require_numeric(&self, name: &str) -> TableResult<()> {
        let field = self
            .schema
            .field(name)
            .ok_or_else(|| TableError::UnknownColumn {
                name: name.to_string(),
            })?;
        if !field.column_type.is_numeric() {
            return Err(TableError::TypeMismatch {
                name: name.to_string(),
                expected: "a numeric column",
                actual: field.column_type.name(),
            });
        }
        Ok(())
    }

    /// Checks that a column exists and is categorical (string or bool).
    ///
    /// # Errors
    /// Unknown column, or [`TableError::TypeMismatch`] when not categorical.
    pub fn require_categorical(&self, name: &str) -> TableResult<()> {
        let field = self
            .schema
            .field(name)
            .ok_or_else(|| TableError::UnknownColumn {
                name: name.to_string(),
            })?;
        if !field.column_type.is_categorical() && field.column_type != ColumnType::Int {
            return Err(TableError::TypeMismatch {
                name: name.to_string(),
                expected: "a categorical column",
                actual: field.column_type.name(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn departments() -> Table {
        Table::from_columns(vec![
            ("Dept", Column::from_strings(["A", "B", "C", "D", "E"])),
            ("PubCount", Column::from_f64(vec![5.0, 3.0, 9.0, 1.0, 7.0])),
            ("Faculty", Column::from_i64(vec![50, 30, 90, 10, 70])),
            (
                "Region",
                Column::from_strings(["NE", "MW", "NE", "W", "SA"]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn build_and_shape() {
        let t = departments();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.num_columns(), 4);
        assert!(!t.is_empty());
        assert_eq!(
            t.schema().names(),
            vec!["Dept", "PubCount", "Faculty", "Region"]
        );
    }

    #[test]
    fn empty_table() {
        let t = Table::new();
        assert!(t.is_empty());
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut t = departments();
        let err = t.add_column("Dept", Column::from_f64(vec![1.0; 5]));
        assert!(matches!(err, Err(TableError::DuplicateColumn { .. })));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut t = departments();
        let err = t.add_column("Extra", Column::from_f64(vec![1.0, 2.0]));
        assert!(matches!(err, Err(TableError::ColumnLengthMismatch { .. })));
    }

    #[test]
    fn column_access() {
        let t = departments();
        assert_eq!(
            t.numeric_column("PubCount").unwrap(),
            vec![5.0, 3.0, 9.0, 1.0, 7.0]
        );
        assert_eq!(t.numeric_column("Faculty").unwrap()[2], 90.0);
        assert!(t.column("Nope").is_err());
        assert!(t.numeric_column("Region").is_err());
    }

    #[test]
    fn categorical_access() {
        let t = departments();
        let labels = t.categorical_column("Region").unwrap();
        assert_eq!(labels[0].as_deref(), Some("NE"));
        assert!(t.categorical_column("PubCount").is_err());
    }

    #[test]
    fn row_access() {
        let t = departments();
        let row = t.row(2).unwrap();
        assert_eq!(row[0], ("Dept".to_string(), Value::Str("C".to_string())));
        assert_eq!(row[1], ("PubCount".to_string(), Value::Float(9.0)));
        assert!(t.row(5).is_err());
    }

    #[test]
    fn head_and_take() {
        let t = departments();
        let top2 = t.head(2);
        assert_eq!(top2.num_rows(), 2);
        assert_eq!(top2.numeric_column("PubCount").unwrap(), vec![5.0, 3.0]);
        let reordered = t.take(&[4, 0]);
        assert_eq!(
            reordered.numeric_column("PubCount").unwrap(),
            vec![7.0, 5.0]
        );
        // head(n) with n > rows returns everything.
        assert_eq!(t.head(99).num_rows(), 5);
    }

    #[test]
    fn select_columns() {
        let t = departments();
        let sub = t.select(&["Faculty", "Dept"]).unwrap();
        assert_eq!(sub.schema().names(), vec!["Faculty", "Dept"]);
        assert_eq!(sub.num_rows(), 5);
        assert!(t.select(&["Missing"]).is_err());
    }

    #[test]
    fn sort_descending_and_ascending() {
        let t = departments();
        let desc = t.sort_by("PubCount", true).unwrap();
        assert_eq!(
            desc.numeric_column("PubCount").unwrap(),
            vec![9.0, 7.0, 5.0, 3.0, 1.0]
        );
        let asc = t.sort_by("PubCount", false).unwrap();
        assert_eq!(
            asc.numeric_column("PubCount").unwrap(),
            vec![1.0, 3.0, 5.0, 7.0, 9.0]
        );
    }

    #[test]
    fn sort_puts_nulls_last() {
        let t = Table::from_columns(vec![(
            "score",
            Column::Float(vec![Some(1.0), None, Some(3.0)]),
        )])
        .unwrap();
        let idx = t.sort_indices_by("score", true).unwrap();
        assert_eq!(idx, vec![2, 0, 1]);
        let idx = t.sort_indices_by("score", false).unwrap();
        assert_eq!(idx, vec![0, 2, 1]);
    }

    #[test]
    fn sort_is_stable_on_ties() {
        let t = Table::from_columns(vec![
            ("id", Column::from_i64(vec![0, 1, 2, 3])),
            ("score", Column::from_f64(vec![5.0, 5.0, 5.0, 6.0])),
        ])
        .unwrap();
        let idx = t.sort_indices_by("score", true).unwrap();
        assert_eq!(idx, vec![3, 0, 1, 2]);
    }

    #[test]
    fn with_float_column_appends() {
        let t = departments();
        let t2 = t
            .with_float_column("score", vec![0.1, 0.2, 0.3, 0.4, 0.5])
            .unwrap();
        assert_eq!(t2.num_columns(), 5);
        assert!(t2.numeric_column("score").is_ok());
        // Original unchanged.
        assert_eq!(t.num_columns(), 4);
    }

    #[test]
    fn preview_contains_header_and_rows() {
        let t = departments();
        let p = t.preview(2);
        assert!(p.contains("PubCount"));
        assert!(p.lines().count() >= 4); // header + separator + 2 rows
        assert!(p.contains("NE"));
    }

    #[test]
    fn require_helpers() {
        let t = departments();
        assert!(t.require_numeric("PubCount").is_ok());
        assert!(t.require_numeric("Region").is_err());
        assert!(t.require_numeric("Ghost").is_err());
        assert!(t.require_categorical("Region").is_ok());
        assert!(t.require_categorical("Faculty").is_ok()); // ints allowed as categories
        assert!(t.require_categorical("PubCount").is_err());
    }
}
