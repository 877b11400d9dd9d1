//! Single-table data sources, stored column-major.
//!
//! Rows arrive row-major (CSV import, generators) but the hot paths —
//! predicate scans, LIKE filters, keyword tokenization — each touch only a
//! few attributes of every tuple. Storing each attribute as its own
//! [`Value`] segment lets those paths walk one contiguous column instead of
//! striding across heterogeneous rows, and lets a 100k-source corpus drop
//! the per-row `Vec` header overhead (one allocation per column instead of
//! one per tuple).

use crate::{StoreError, Value};

/// A row is a vector of cells aligned with the table schema.
pub type Row = Vec<Value>;

/// A named single-table data source: an ordered list of attribute names and
/// one column segment per attribute.
///
/// The paper considers "the case where each schema contains a single table
/// with a set of attributes", so a source *is* a table. Attribute names are
/// kept verbatim (heterogeneity is the whole point); matching and
/// normalization happen upstream in `udi-similarity`.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    attributes: Vec<String>,
    /// One segment per attribute; all segments have length `len`.
    cols: Vec<Vec<Value>>,
    /// Row count, tracked explicitly so zero-arity tables still count rows.
    len: usize,
}

impl Table {
    /// Create an empty table. Panics if the attribute list contains
    /// duplicates — use [`Table::try_new`] for fallible construction.
    pub fn new<I, S>(name: impl Into<String>, attributes: I) -> Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        // udi-audit: allow(no-panic-in-lib, "documented panic: the infallible constructor variant; try_new is the fallible one")
        Table::try_new(name, attributes).expect("duplicate attribute name")
    }

    /// Create an empty table, rejecting duplicate attribute names.
    pub fn try_new<I, S>(name: impl Into<String>, attributes: I) -> Result<Table, StoreError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let name = name.into();
        let attributes: Vec<String> = attributes.into_iter().map(Into::into).collect();
        for (i, a) in attributes.iter().enumerate() {
            if attributes.get(..i).is_some_and(|head| head.contains(a)) {
                return Err(StoreError::DuplicateAttribute {
                    table: name,
                    attribute: a.clone(),
                });
            }
        }
        let cols = vec![Vec::new(); attributes.len()];
        Ok(Table {
            name,
            attributes,
            cols,
            len: 0,
        })
    }

    /// The source/table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute names in schema order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.len
    }

    /// The column segment at schema position `col`, if in range. This is
    /// the scan-friendly access path: one contiguous slice per attribute.
    pub fn column(&self, col: usize) -> Option<&[Value]> {
        self.cols.get(col).map(Vec::as_slice)
    }

    /// The column segment under `attribute` (exact name match).
    pub fn column_by_name(&self, attribute: &str) -> Option<&[Value]> {
        self.column(self.attribute_index(attribute)?)
    }

    /// The cell at (`row`, `col`) by position, if both are in range.
    pub fn value_at(&self, row: usize, col: usize) -> Option<&Value> {
        self.cols.get(col)?.get(row)
    }

    /// Materialize row `row` (cells cloned in schema order), if in range.
    pub fn row(&self, row: usize) -> Option<Row> {
        if row >= self.len {
            return None;
        }
        Some(
            self.cols
                .iter()
                .map(|c| c.get(row).cloned().unwrap_or(Value::Null))
                .collect(),
        )
    }

    /// Materialize every row (row-major copy of the table).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len)
            .map(|r| self.row(r).unwrap_or_default())
            .collect()
    }

    /// Position of an attribute in the schema, if present (exact match).
    pub fn attribute_index(&self, attribute: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a == attribute)
    }

    /// Whether the schema contains `attribute` (exact match).
    pub fn has_attribute(&self, attribute: &str) -> bool {
        self.attribute_index(attribute).is_some()
    }

    /// Append a row, validating arity.
    pub fn push_row(&mut self, row: Row) -> Result<(), StoreError> {
        if row.len() != self.attributes.len() {
            return Err(StoreError::ArityMismatch {
                table: self.name.clone(),
                expected: self.attributes.len(),
                got: row.len(),
            });
        }
        for (col, cell) in self.cols.iter_mut().zip(row) {
            col.push(cell);
        }
        self.len += 1;
        Ok(())
    }

    /// Append a row of string literals, parsing each cell with
    /// [`Value::parse`].
    pub fn push_raw_row<I, S>(&mut self, cells: I) -> Result<(), StoreError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let row: Row = cells
            .into_iter()
            .map(|c| Value::parse(c.as_ref()))
            .collect();
        self.push_row(row)
    }

    /// The cell at (`row`, `attribute`), if both exist.
    pub fn cell(&self, row: usize, attribute: &str) -> Option<&Value> {
        let col = self.attribute_index(attribute)?;
        self.value_at(row, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("people", ["name", "phone", "age"]);
        t.push_raw_row(["Alice", "123-4567", "34"]).unwrap();
        t.push_raw_row(["Bob", "", "41"]).unwrap();
        t
    }

    #[test]
    fn construction_and_lookup() {
        let t = sample();
        assert_eq!(t.name(), "people");
        assert_eq!(t.arity(), 3);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.attribute_index("phone"), Some(1));
        assert_eq!(t.attribute_index("Phone"), None, "lookup is exact");
        assert!(t.has_attribute("age"));
        assert!(!t.has_attribute("salary"));
    }

    #[test]
    fn raw_rows_are_parsed() {
        let t = sample();
        assert_eq!(t.cell(0, "age"), Some(&Value::Int(34)));
        assert_eq!(t.cell(1, "phone"), Some(&Value::Null));
        assert_eq!(t.cell(0, "name"), Some(&Value::text("Alice")));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sample();
        let err = t.push_row(vec![Value::text("x")]).unwrap_err();
        assert!(matches!(
            err,
            StoreError::ArityMismatch {
                got: 1,
                expected: 3,
                ..
            }
        ));
        assert_eq!(t.row_count(), 2, "failed push must not mutate");
        assert!(t.cols.iter().all(|c| c.len() == 2), "columns stay aligned");
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = Table::try_new("t", ["a", "b", "a"]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateAttribute { .. }));
    }

    #[test]
    fn cell_out_of_range_is_none() {
        let t = sample();
        assert_eq!(t.cell(9, "name"), None);
        assert_eq!(t.cell(0, "nope"), None);
        assert_eq!(t.value_at(0, 9), None);
        assert_eq!(t.row(2), None);
    }

    #[test]
    fn columns_are_contiguous_segments() {
        let t = sample();
        let ages = t.column(2).unwrap();
        assert_eq!(ages, &[Value::Int(34), Value::Int(41)]);
        assert_eq!(t.column_by_name("age").unwrap(), ages);
        assert_eq!(t.column(3), None);
        assert_eq!(t.column_by_name("salary"), None);
    }

    #[test]
    fn rows_materialize_in_schema_order() {
        let t = sample();
        assert_eq!(
            t.row(1).unwrap(),
            vec![Value::text("Bob"), Value::Null, Value::Int(41)]
        );
        let rows = t.to_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::text("Alice"));
    }

    #[test]
    fn zero_arity_tables_count_rows() {
        let mut t = Table::new("unit", Vec::<String>::new());
        t.push_row(vec![]).unwrap();
        t.push_row(vec![]).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.row(0), Some(vec![]));
        assert_eq!(t.to_rows(), vec![Vec::<Value>::new(); 2]);
    }
}
