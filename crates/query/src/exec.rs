//! Query execution against one source table under an attribute binding.
//!
//! After p-mapping reformulation, a query over the mediated schema becomes a
//! query over a concrete source with each query attribute *bound* to at most
//! one source attribute (one-to-one mappings, Definition 3.2). A query whose
//! referenced attribute is unbound produces no answers from that source
//! under that mapping — the source simply cannot contribute.

use std::collections::HashMap;

use udi_store::{Row, Table, Value};

use crate::ast::{Predicate, PredicateTest, Query};

/// An attribute binding: query attribute name → source attribute name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Binding {
    map: HashMap<String, String>,
}

impl Binding {
    /// Empty binding.
    pub fn new() -> Binding {
        Binding::default()
    }

    /// Bind query attribute `q` to source attribute `s`.
    pub fn bind(&mut self, q: impl Into<String>, s: impl Into<String>) -> &mut Binding {
        self.map.insert(q.into(), s.into());
        self
    }

    /// The source attribute bound to `q`, if any.
    pub fn get(&self, q: &str) -> Option<&str> {
        self.map.get(q).map(String::as_str)
    }

    /// The identity binding over a table's own attributes (used by the
    /// `Source` baseline, which poses queries directly on each source).
    pub fn identity(table: &Table) -> Binding {
        let mut b = Binding::new();
        for a in table.attributes() {
            b.bind(a.clone(), a.clone());
        }
        b
    }

    /// Number of bound attributes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no attribute is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Execute `query` on `table` under `binding`, returning the projected rows
/// (bag semantics, as SQL would).
///
/// Returns the empty bag when any referenced query attribute is unbound or
/// bound to an attribute missing from the table.
pub fn execute_with_binding(table: &Table, query: &Query, binding: &Binding) -> Vec<Row> {
    execute_with_binding_indexed(table, query, binding)
        .into_iter()
        .map(|(_, row)| row)
        .collect()
}

/// Like [`execute_with_binding`], but each projected row carries the index
/// of the source row that produced it. Row provenance is what by-tuple
/// semantics needs: under it, every *source tuple* independently selects a
/// mapping, so answer probabilities combine per producing row.
pub fn execute_with_binding_indexed(
    table: &Table,
    query: &Query,
    binding: &Binding,
) -> Vec<(usize, Row)> {
    // Resolve every referenced attribute to a column index up front.
    let resolve = |attr: &str| -> Option<usize> {
        binding.get(attr).and_then(|src| table.attribute_index(src))
    };
    let mut select_cols = Vec::with_capacity(query.select.len());
    for a in &query.select {
        match resolve(a) {
            Some(i) => select_cols.push(i),
            None => return Vec::new(),
        }
    }
    let mut pred_cols = Vec::with_capacity(query.predicates.len());
    for p in &query.predicates {
        match resolve(&p.attribute) {
            Some(i) => pred_cols.push(i),
            None => return Vec::new(),
        }
    }

    // Columnar scan: each referenced attribute is one contiguous segment,
    // so predicate evaluation strides a few slices instead of every row.
    let column = |c: usize| table.column(c).unwrap_or(&[]);
    let pred_slices: Vec<&[Value]> = pred_cols.iter().map(|&c| column(c)).collect();
    let select_slices: Vec<&[Value]> = select_cols.iter().map(|&c| column(c)).collect();

    let mut out = Vec::new();
    let mut tests: Vec<PredicateTest<'_>> =
        query.predicates.iter().map(Predicate::prepare).collect();
    'rows: for ri in 0..table.row_count() {
        for (test, col) in tests.iter_mut().zip(&pred_slices) {
            // Checked access: a short column (impossible for a well-formed
            // table) reads as no-match instead of panicking.
            let Some(v) = col.get(ri) else { continue 'rows };
            if !test.test(v) {
                continue 'rows;
            }
        }
        out.push((
            ri,
            select_slices
                .iter()
                .map(|s| s.get(ri).cloned().unwrap_or(Value::Null))
                .collect::<Vec<Value>>(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CompareOp, Predicate};
    use crate::parse::parse_query;

    fn table() -> Table {
        let mut t = Table::new("people", ["full_name", "tel", "years"]);
        t.push_raw_row(["Alice", "123-4567", "34"]).unwrap();
        t.push_raw_row(["Bob", "765-4321", "41"]).unwrap();
        t.push_raw_row(["Carol", "", "29"]).unwrap();
        t
    }

    fn binding() -> Binding {
        let mut b = Binding::new();
        b.bind("name", "full_name")
            .bind("phone", "tel")
            .bind("age", "years");
        b
    }

    #[test]
    fn projection_and_selection() {
        let q = parse_query("SELECT name FROM T WHERE age > 30").unwrap();
        let rows = execute_with_binding(&table(), &q, &binding());
        assert_eq!(
            rows,
            vec![vec![Value::text("Alice")], vec![Value::text("Bob")]]
        );
    }

    #[test]
    fn unbound_select_attribute_yields_nothing() {
        let q = parse_query("SELECT salary FROM T").unwrap();
        assert!(execute_with_binding(&table(), &q, &binding()).is_empty());
    }

    #[test]
    fn unbound_predicate_attribute_yields_nothing() {
        let q = parse_query("SELECT name FROM T WHERE salary > 10").unwrap();
        assert!(execute_with_binding(&table(), &q, &binding()).is_empty());
    }

    #[test]
    fn binding_to_missing_source_column_yields_nothing() {
        let q = parse_query("SELECT name FROM T").unwrap();
        let mut b = Binding::new();
        b.bind("name", "no_such_column");
        assert!(execute_with_binding(&table(), &q, &b).is_empty());
    }

    #[test]
    fn null_cells_fail_predicates_but_project_fine() {
        // Carol's phone is NULL: excluded by a phone predicate...
        let q = parse_query("SELECT name FROM T WHERE phone != 'x'").unwrap();
        let rows = execute_with_binding(&table(), &q, &binding());
        assert_eq!(rows.len(), 2);
        // ...but projected as NULL when selected without predicate.
        let q = parse_query("SELECT phone FROM T WHERE name = 'Carol'").unwrap();
        let rows = execute_with_binding(&table(), &q, &binding());
        assert_eq!(rows, vec![vec![Value::Null]]);
    }

    #[test]
    fn bag_semantics_keeps_duplicates() {
        let mut t = Table::new("t", ["a", "b"]);
        t.push_raw_row(["x", "1"]).unwrap();
        t.push_raw_row(["x", "2"]).unwrap();
        let q = Query::new(["a"], vec![]);
        let mut b = Binding::new();
        b.bind("a", "a");
        let rows = execute_with_binding(&t, &q, &b);
        assert_eq!(rows.len(), 2, "projection must not deduplicate");
    }

    #[test]
    fn like_and_numeric_predicates_compose() {
        let q = Query::new(
            ["name", "age"],
            vec![
                Predicate::new("name", CompareOp::Like, "%o%"),
                Predicate::new("age", CompareOp::Lt, 40_i64),
            ],
        );
        let rows = execute_with_binding(&table(), &q, &binding());
        assert_eq!(rows, vec![vec![Value::text("Carol"), Value::Int(29)]]);
    }

    #[test]
    fn indexed_execution_reports_provenance() {
        let q = parse_query("SELECT name FROM T WHERE age > 30").unwrap();
        let rows = execute_with_binding_indexed(&table(), &q, &binding());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 0, "Alice is row 0");
        assert_eq!(rows[1].0, 1, "Bob is row 1");
        assert_eq!(rows[0].1, vec![Value::text("Alice")]);
    }

    #[test]
    fn projected_text_cells_share_the_tables_bytes() {
        // Projection copies a pointer, never the text: a deep copy here
        // would put one allocation per cell back on the read path.
        let t = table();
        let q = parse_query("SELECT name FROM T WHERE age > 30").unwrap();
        let rows = execute_with_binding_indexed(&t, &q, &binding());
        assert_eq!(rows.len(), 2);
        let names = t.column(0).unwrap();
        for (ri, row) in &rows {
            let (Some(Value::Text(cell)), Some(Value::Text(projected))) =
                (names.get(*ri), row.first())
            else {
                panic!("text cells expected in row {ri}: {row:?}");
            };
            assert!(std::sync::Arc::ptr_eq(cell, projected), "row {ri}");
        }
    }

    #[test]
    fn identity_binding_covers_all_columns() {
        let t = table();
        let b = Binding::identity(&t);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get("tel"), Some("tel"));
        let q = parse_query("SELECT full_name FROM T").unwrap();
        assert_eq!(execute_with_binding(&t, &q, &b).len(), 3);
    }

    #[test]
    fn empty_select_returns_empty_tuples_per_matching_row() {
        // Degenerate but well-defined: zero projected columns.
        let q = Query::new(Vec::<String>::new(), vec![]);
        let rows = execute_with_binding(&table(), &q, &binding());
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(Vec::is_empty));
    }
}
