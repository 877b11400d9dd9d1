//! Query execution against one source table, on the columns a binding
//! fixes.
//!
//! After p-mapping reformulation, a query over the mediated schema becomes a
//! query over a concrete source with each query attribute *bound* to at most
//! one source attribute (one-to-one mappings, Definition 3.2). A binding is
//! lowered once, when a plan is compiled, to the table column of every
//! attribute the query reads, in clause order ([`Query::columns`],
//! [`AggregateQuery::columns`](crate::AggregateQuery::columns)). A binding
//! that leaves a referenced attribute unbound lowers to nothing — the source
//! simply cannot contribute under that mapping. Execution reads columns by
//! position and never looks a name up.

use udi_store::{Row, Table, Value};

use crate::ast::{Predicate, PredicateTest, Query};

/// Execute `query` on `table`, reading the columns [`Query::columns`]
/// resolved: the projected rows (bag semantics, as SQL would), each with
/// the index of the source row that produced it. Row provenance is what
/// by-tuple semantics needs: under it, every *source tuple* independently
/// selects a mapping, so answer probabilities combine per producing row.
///
/// `columns` that do not fit the query's clauses yield nothing. The answer
/// paths do not project: their accumulators read the selected cells in
/// place ([`SourceAccumulator::add_select`](crate::SourceAccumulator::add_select)).
pub fn execute(table: &Table, query: &Query, columns: &[usize]) -> Vec<(usize, Row)> {
    let Some((select, filter)) = columns.split_at_checked(query.select.len()) else {
        return Vec::new();
    };
    let select: Vec<&[Value]> = select.iter().map(|&c| column(table, c)).collect();
    scan(table, &query.predicates, filter)
        .map(|ri| {
            let row = select
                .iter()
                .map(|s| s.get(ri).cloned().unwrap_or(Value::Null))
                .collect();
            (ri, row)
        })
        .collect()
}

/// The predicate scan every executor shares: the index of every row of
/// `table`, in order, whose cell in `columns[i]` satisfies `predicates[i]`
/// for every `i`. Each referenced attribute is one contiguous segment, so
/// the scan strides a few slices instead of every row. A column count that
/// does not match the predicates scans nothing.
pub(crate) fn scan<'t>(
    table: &'t Table,
    predicates: &'t [Predicate],
    columns: &[usize],
) -> Scan<'t> {
    let fits = predicates.len() == columns.len();
    Scan {
        tests: predicates
            .iter()
            .zip(columns)
            .map(|(p, &c)| (p.prepare(), column(table, c)))
            .collect(),
        next: 0,
        end: if fits { table.row_count() } else { 0 },
    }
}

/// The rows a [`scan`] has yet to test.
pub(crate) struct Scan<'t> {
    tests: Vec<(PredicateTest<'t>, &'t [Value])>,
    next: usize,
    end: usize,
}

impl Iterator for Scan<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        'rows: while self.next < self.end {
            let ri = self.next;
            self.next += 1;
            for (test, col) in &mut self.tests {
                // Checked access: a short column (impossible for a
                // well-formed table) reads as no-match instead of
                // panicking.
                let Some(v) = col.get(ri) else { continue 'rows };
                if !test.test(v) {
                    continue 'rows;
                }
            }
            return Some(ri);
        }
        None
    }

    /// Exact when nothing is filtered: every remaining row matches.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end.saturating_sub(self.next);
        (if self.tests.is_empty() { left } else { 0 }, Some(left))
    }
}

/// Column `c` of `table`. A missing column reads as empty: its predicates
/// match nothing and its projections are NULL.
pub(crate) fn column(table: &Table, c: usize) -> &[Value] {
    table.column(c).unwrap_or(&[])
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

    const BINDING: [(&str, &str); 3] = [("name", "full_name"), ("phone", "tel"), ("age", "years")];

    /// The columns of `q` on [`table`] under a binding of query attribute
    /// names to source attribute names.
    fn bind(q: &Query, binding: &[(&str, &str)]) -> Option<Vec<usize>> {
        let t = table();
        q.columns(|a| t.attribute_index(binding.iter().find(|(x, _)| *x == a)?.1))
    }

    /// `q` on [`table`] under [`BINDING`]; the projected rows without
    /// provenance.
    fn run(q: &Query) -> Vec<Row> {
        let cols = bind(q, &BINDING).unwrap();
        execute(&table(), q, &cols)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    #[test]
    fn projection_and_selection() {
        let q = parse_query("SELECT name FROM T WHERE age > 30").unwrap();
        assert_eq!(
            run(&q),
            vec![vec![Value::text("Alice")], vec![Value::text("Bob")]]
        );
    }

    #[test]
    fn unbound_select_attribute_yields_nothing() {
        let q = parse_query("SELECT salary FROM T").unwrap();
        assert_eq!(bind(&q, &BINDING), None);
    }

    #[test]
    fn unbound_predicate_attribute_yields_nothing() {
        let q = parse_query("SELECT name FROM T WHERE salary > 10").unwrap();
        assert_eq!(bind(&q, &BINDING), None);
    }

    #[test]
    fn binding_to_missing_source_column_yields_nothing() {
        let q = parse_query("SELECT name FROM T").unwrap();
        assert_eq!(bind(&q, &[("name", "no_such_column")]), None);
    }

    #[test]
    fn columns_that_do_not_fit_the_query_yield_nothing() {
        let t = table();
        let q = parse_query("SELECT name FROM T WHERE age > 30").unwrap();
        assert!(execute(&t, &q, &[]).is_empty());
        assert!(execute(&t, &q, &[0]).is_empty());
        assert!(execute(&t, &q, &[0, 2, 1]).is_empty());
        assert_eq!(execute(&t, &q, &[0, 2]).len(), 2);
    }

    #[test]
    fn null_cells_fail_predicates_but_project_fine() {
        // Carol's phone is NULL: excluded by a phone predicate...
        let q = parse_query("SELECT name FROM T WHERE phone != 'x'").unwrap();
        assert_eq!(run(&q).len(), 2);
        // ...but projected as NULL when selected without predicate.
        let q = parse_query("SELECT phone FROM T WHERE name = 'Carol'").unwrap();
        assert_eq!(run(&q), vec![vec![Value::Null]]);
    }

    #[test]
    fn bag_semantics_keeps_duplicates() {
        let mut t = Table::new("t", ["a", "b"]);
        t.push_raw_row(["x", "1"]).unwrap();
        t.push_raw_row(["x", "2"]).unwrap();
        let q = Query::new(["a"], vec![]);
        let rows = execute(&t, &q, &[0]);
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
        assert_eq!(run(&q), vec![vec![Value::text("Carol"), Value::Int(29)]]);
    }

    #[test]
    fn indexed_execution_reports_provenance() {
        let q = parse_query("SELECT name FROM T WHERE age > 30").unwrap();
        let rows = execute(&table(), &q, &[0, 2]);
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
        let rows = execute(&t, &q, &[0, 2]);
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
        let q = parse_query("SELECT full_name FROM T WHERE tel != 'x'").unwrap();
        let cols = q.columns(|a| t.attribute_index(a)).unwrap();
        assert_eq!(cols, [0, 1]);
        assert_eq!(execute(&t, &q, &cols).len(), 2);
    }

    #[test]
    fn empty_select_returns_empty_tuples_per_matching_row() {
        // Degenerate but well-defined: zero projected columns.
        let q = Query::new(Vec::<String>::new(), vec![]);
        let rows = run(&q);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(Vec::is_empty));
    }

    /// The name-resolving executors the column form replaced, kept as the
    /// oracle: a binding maps query attribute names to source attribute
    /// names, and every call resolves each referenced attribute through it
    /// and `Table::attribute_index`. Predicates use the unprepared
    /// [`CompareOp::eval`](crate::CompareOp::eval) and aggregates their own
    /// fold.
    mod reference {
        use std::collections::BTreeMap;

        use udi_store::{Row, Table, Value};

        use crate::aggregate::{AggFunc, AggregateQuery};
        use crate::ast::{Predicate, Query};

        /// Query attribute name → source attribute name.
        pub(super) type Binding = BTreeMap<String, String>;

        fn resolve(table: &Table, binding: &Binding, attr: &str) -> Option<usize> {
            table.attribute_index(binding.get(attr)?)
        }

        fn cell(table: &Table, c: usize, ri: usize) -> Option<&Value> {
            table.column(c)?.get(ri)
        }

        /// Row indices passing every predicate, or `None` when a predicate
        /// attribute does not resolve.
        fn filter(table: &Table, preds: &[Predicate], binding: &Binding) -> Option<Vec<usize>> {
            let cols: Vec<usize> = preds
                .iter()
                .map(|p| resolve(table, binding, &p.attribute))
                .collect::<Option<_>>()?;
            let pass = |ri: usize| {
                preds
                    .iter()
                    .zip(&cols)
                    .all(|(p, &c)| cell(table, c, ri).is_some_and(|v| p.op.eval(v, &p.value)))
            };
            Some((0..table.row_count()).filter(|&ri| pass(ri)).collect())
        }

        pub(super) fn execute(table: &Table, q: &Query, binding: &Binding) -> Vec<(usize, Row)> {
            let select: Option<Vec<usize>> = q
                .select
                .iter()
                .map(|a| resolve(table, binding, a))
                .collect();
            let (Some(select), Some(rows)) = (select, filter(table, &q.predicates, binding)) else {
                return Vec::new();
            };
            rows.into_iter()
                .map(|ri| {
                    let row = select
                        .iter()
                        .map(|&c| cell(table, c, ri).cloned().unwrap_or(Value::Null))
                        .collect();
                    (ri, row)
                })
                .collect()
        }

        pub(super) fn execute_aggregate(
            table: &Table,
            q: &AggregateQuery,
            binding: &Binding,
        ) -> Vec<Row> {
            let group: Option<Vec<usize>> = q
                .group_by
                .iter()
                .map(|a| resolve(table, binding, a))
                .collect();
            let args: Option<Vec<Option<usize>>> = q
                .aggregates
                .iter()
                .map(|a| match &a.attribute {
                    None => Some(None),
                    Some(attr) => resolve(table, binding, attr).map(Some),
                })
                .collect();
            let (Some(group), Some(args), Some(rows)) =
                (group, args, filter(table, &q.predicates, binding))
            else {
                return Vec::new();
            };
            let mut groups: BTreeMap<Row, Vec<usize>> = BTreeMap::new();
            for ri in rows {
                let key = group
                    .iter()
                    .map(|&c| cell(table, c, ri).cloned().unwrap_or(Value::Null))
                    .collect();
                groups.entry(key).or_default().push(ri);
            }
            if groups.is_empty() && q.group_by.is_empty() {
                groups.insert(Vec::new(), Vec::new());
            }
            groups
                .into_iter()
                .map(|(mut key, rows)| {
                    for (a, arg) in q.aggregates.iter().zip(&args) {
                        let cells: Vec<Option<&Value>> = match arg {
                            None => vec![None; rows.len()],
                            Some(c) => rows.iter().map(|&ri| cell(table, *c, ri)).collect(),
                        };
                        key.push(fold(a.func, &cells));
                    }
                    key
                })
                .collect()
        }

        /// One aggregate over a group's cells, in row order (`None` is the
        /// `COUNT(*)` row marker or a missing cell).
        fn fold(func: AggFunc, cells: &[Option<&Value>]) -> Value {
            let present = || cells.iter().flatten().copied().filter(|v| !v.is_null());
            let numbers: Vec<f64> = cells.iter().flatten().filter_map(|v| v.as_f64()).collect();
            let sum = || numbers.iter().fold(0.0, |acc, x| acc + x);
            match func {
                AggFunc::Count => {
                    let n = cells.iter().filter(|v| v.is_none_or(|x| !x.is_null()));
                    Value::Int(n.count() as i64)
                }
                AggFunc::Sum if numbers.is_empty() => Value::Null,
                AggFunc::Sum => Value::float(sum()),
                AggFunc::Avg if numbers.is_empty() => Value::Null,
                AggFunc::Avg => Value::float(sum() / numbers.len() as f64),
                // The first of equal extremes wins.
                AggFunc::Min => present()
                    .reduce(|m, x| if x < m { x } else { m })
                    .cloned()
                    .unwrap_or(Value::Null),
                AggFunc::Max => present()
                    .reduce(|m, x| if x > m { x } else { m })
                    .cloned()
                    .unwrap_or(Value::Null),
            }
        }
    }

    /// The column executors against [`reference`], on random tables,
    /// bindings and queries. Query attributes come from a pool of four and
    /// bind to one of four source attributes, of which a table holds three
    /// or four, or to none: so queries select and filter one attribute,
    /// select nothing, and name attributes that are unbound or bound to a
    /// column the table lacks. Most bindings resolve, so most cases scan.
    mod columns_match_names {
        use proptest::prelude::*;
        use udi_store::{Row, Table, Value};

        use super::reference::{self, Binding};
        use crate::aggregate::{execute_aggregate, AggFunc, Aggregate, AggregateQuery};
        use crate::ast::{CompareOp, Predicate, Query};
        use crate::exec::execute;

        const QUERY_ATTRS: [&str; 4] = ["a", "b", "c", "d"];
        const SOURCE_ATTRS: [&str; 4] = ["s0", "s1", "s2", "s3"];

        fn cell() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                (0i64..4).prop_map(Value::Int),
                prop_oneof![Just(2.0), Just(0.5)].prop_map(Value::Float),
                prop_oneof![Just("ab"), Just("b"), Just("2")].prop_map(Value::text),
            ]
        }

        /// A table over three or four of the source attributes.
        fn table() -> impl Strategy<Value = Table> {
            (
                proptest::sample::subsequence(SOURCE_ATTRS.to_vec(), 3..5),
                proptest::collection::vec(proptest::collection::vec(cell(), 4), 0..10),
            )
                .prop_map(|(attrs, rows)| {
                    let mut t = Table::new("t", attrs.iter().copied());
                    for mut row in rows {
                        row.truncate(attrs.len());
                        t.push_row(row).unwrap();
                    }
                    t
                })
        }

        /// Each query attribute bound to a source attribute (four times in
        /// five), unbound, or bound to a name no table has.
        fn binding() -> impl Strategy<Value = Binding> {
            let target = || {
                let source = SOURCE_ATTRS.iter().chain(&SOURCE_ATTRS).copied().map(Some);
                let names: Vec<Option<&str>> = source.chain([None, Some("gone")]).collect();
                proptest::sample::select(names)
            };
            (target(), target(), target(), target()).prop_map(|(a, b, c, d)| {
                QUERY_ATTRS
                    .iter()
                    .zip([a, b, c, d])
                    .filter_map(|(q, s)| Some(((*q).to_owned(), s?.to_owned())))
                    .collect()
            })
        }

        fn attr() -> impl Strategy<Value = String> {
            proptest::sample::select(QUERY_ATTRS.to_vec()).prop_map(str::to_owned)
        }

        fn predicate() -> impl Strategy<Value = Predicate> {
            let op = proptest::sample::select(vec![
                CompareOp::Eq,
                CompareOp::Ne,
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
                CompareOp::Like,
            ]);
            let literal = prop_oneof![cell(), Just(Value::text("%b%")), Just(Value::text("_"))];
            (attr(), op, literal).prop_map(|(a, op, v)| Predicate::new(a, op, v))
        }

        fn query() -> impl Strategy<Value = Query> {
            (
                proptest::collection::vec(attr(), 0..4),
                proptest::collection::vec(predicate(), 0..3),
            )
                .prop_map(|(select, predicates)| Query::new(select, predicates))
        }

        fn aggregate_query() -> impl Strategy<Value = AggregateQuery> {
            let func = proptest::sample::select(vec![
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ]);
            let aggregate = (func, attr(), any::<bool>()).prop_map(|(func, a, star)| Aggregate {
                func,
                attribute: (func != AggFunc::Count || !star).then_some(a),
            });
            (
                proptest::collection::vec(attr(), 0..3),
                proptest::collection::vec(aggregate, 1..4),
                proptest::collection::vec(predicate(), 0..3),
            )
                .prop_map(|(group_by, aggregates, predicates)| AggregateQuery {
                    group_by,
                    aggregates,
                    predicates,
                    from: "t".to_owned(),
                })
        }

        /// `binding` as the column resolver the plans use.
        fn resolver<'a>(t: &'a Table, b: &'a Binding) -> impl Fn(&str) -> Option<usize> + 'a {
            |a| t.attribute_index(b.get(a)?)
        }

        /// Rows compared variant by variant (`Debug`, so `Int(2)` and
        /// `Float(2.0)` differ).
        fn exact<T: std::fmt::Debug>(rows: &[T]) -> Vec<String> {
            rows.iter().map(|r| format!("{r:?}")).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn select_columns_match_name_resolution(t in table(), b in binding(), q in query()) {
                let rows = q
                    .columns(resolver(&t, &b))
                    .map_or_else(Vec::new, |c| execute(&t, &q, &c));
                prop_assert_eq!(exact(&rows), exact(&reference::execute(&t, &q, &b)));
            }

            #[test]
            fn aggregate_columns_match_name_resolution(
                t in table(),
                b in binding(),
                q in aggregate_query(),
            ) {
                let rows: Vec<Row> = q
                    .columns(resolver(&t, &b))
                    .map_or_else(Vec::new, |c| execute_aggregate(&t, &q, &c));
                prop_assert_eq!(exact(&rows), exact(&reference::execute_aggregate(&t, &q, &b)));
            }
        }
    }
}
