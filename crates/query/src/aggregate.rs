//! Aggregate (GROUP BY) queries — an extension beyond the paper's
//! select–project workload.
//!
//! Semantics follow the paper's per-source union model: the aggregate is
//! evaluated *within each source* under each possible mapping (by-table),
//! and the resulting group rows are combined across mappings and sources
//! like any other answer tuples. There is no cross-source fusion — merging
//! counts across sources would require entity resolution, which is outside
//! the paper's scope (its §2 explicitly assumes independent sources and
//! defers derived-source handling).

use std::collections::BTreeMap;

use udi_store::{Row, Table, Value};

use crate::ast::{Predicate, PredicateTest};
use crate::exec::Binding;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(attr)` (non-NULL values).
    Count,
    /// Sum of numeric values (NULLs and non-numerics skipped).
    Sum,
    /// Mean of numeric values.
    Avg,
    /// Minimum value (SQL ordering).
    Min,
    /// Maximum value.
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate in the select list: `FUNC(attr)` or `COUNT(*)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// The attribute aggregated over; `None` only for `COUNT(*)`.
    pub attribute: Option<String>,
}

/// A grouped aggregate query:
/// `SELECT group_by..., aggregates... FROM t WHERE ... GROUP BY group_by...`.
///
/// With an empty `group_by`, the whole (filtered) table is one group.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateQuery {
    /// Grouping attributes, in output order (projected before aggregates).
    pub group_by: Vec<String>,
    /// Aggregates, projected after the grouping attributes.
    pub aggregates: Vec<Aggregate>,
    /// Conjunctive predicates, evaluated before grouping.
    pub predicates: Vec<Predicate>,
    /// Inert FROM name.
    pub from: String,
}

impl AggregateQuery {
    /// All attribute names the query references: group-by attributes,
    /// aggregate arguments, then predicate attributes; deduplicated in
    /// first-appearance order.
    pub fn referenced_attributes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for a in self.group_by.iter().map(String::as_str) {
            if !out.contains(&a) {
                out.push(a);
            }
        }
        for agg in &self.aggregates {
            if let Some(a) = agg.attribute.as_deref() {
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        for p in &self.predicates {
            let a = p.attribute.as_str();
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }
}

impl std::fmt::Display for AggregateQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut items: Vec<String> = self.group_by.clone();
        for a in &self.aggregates {
            match &a.attribute {
                Some(attr) => items.push(format!("{}({attr})", a.func.name())),
                None => items.push(format!("{}(*)", a.func.name())),
            }
        }
        write!(f, "SELECT {} FROM {}", items.join(", "), self.from)?;
        if !self.predicates.is_empty() {
            let preds: Vec<String> = self
                .predicates
                .iter()
                .map(|p| {
                    let rhs = match &p.value {
                        Value::Text(s) => format!("'{s}'"),
                        v => v.to_string(),
                    };
                    format!("{} {} {}", p.attribute, p.op.symbol(), rhs)
                })
                .collect();
            write!(f, " WHERE {}", preds.join(" AND "))?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY {}", self.group_by.join(", "))?;
        }
        Ok(())
    }
}

/// Running state of one aggregate over one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(u64),
    Sum(f64, bool),
    Avg(f64, u64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(f: AggFunc) -> AggState {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0.0, false),
            AggFunc::Avg => AggState::Avg(0.0, 0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Feed one cell (`None` = COUNT(*) row marker).
    fn feed(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(n) => {
                if v.is_none_or(|x| !x.is_null()) {
                    *n += 1;
                }
            }
            AggState::Sum(acc, any) => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *acc += x;
                    *any = true;
                }
            }
            AggState::Avg(acc, n) => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *acc += x;
                    *n += 1;
                }
            }
            AggState::Min(cur) => {
                if let Some(x) = v.filter(|x| !x.is_null()) {
                    if cur.as_ref().is_none_or(|c| x < c) {
                        *cur = Some(x.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(x) = v.filter(|x| !x.is_null()) {
                    if cur.as_ref().is_none_or(|c| x > c) {
                        *cur = Some(x.clone());
                    }
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Sum(acc, true) => Value::float(acc),
            AggState::Sum(_, false) => Value::Null,
            AggState::Avg(acc, n) if n > 0 => Value::float(acc / n as f64),
            AggState::Avg(..) => Value::Null,
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Execute an aggregate query on one table under an attribute binding.
/// Output rows are `group_by values ++ aggregate values`, ordered by group
/// key. Returns the empty result when any referenced attribute is unbound;
/// an ungrouped query over zero qualifying rows yields one row of empty
/// aggregates (`COUNT = 0`), matching SQL.
pub fn execute_aggregate_with_binding(
    table: &Table,
    query: &AggregateQuery,
    binding: &Binding,
) -> Vec<Row> {
    let resolve = |attr: &str| -> Option<usize> {
        binding.get(attr).and_then(|src| table.attribute_index(src))
    };
    let mut group_cols = Vec::with_capacity(query.group_by.len());
    for a in &query.group_by {
        match resolve(a) {
            Some(i) => group_cols.push(i),
            None => return Vec::new(),
        }
    }
    let mut agg_cols: Vec<Option<usize>> = Vec::with_capacity(query.aggregates.len());
    for a in &query.aggregates {
        match &a.attribute {
            None => agg_cols.push(None),
            Some(attr) => match resolve(attr) {
                Some(i) => agg_cols.push(Some(i)),
                None => return Vec::new(),
            },
        }
    }
    let mut pred_cols = Vec::with_capacity(query.predicates.len());
    for p in &query.predicates {
        match resolve(&p.attribute) {
            Some(i) => pred_cols.push(i),
            None => return Vec::new(),
        }
    }

    // Columnar scan over the referenced segments only.
    let column = |c: usize| table.column(c).unwrap_or(&[]);
    let pred_slices: Vec<&[Value]> = pred_cols.iter().map(|&c| column(c)).collect();
    let group_slices: Vec<&[Value]> = group_cols.iter().map(|&c| column(c)).collect();
    let agg_slices: Vec<Option<&[Value]>> = agg_cols.iter().map(|c| c.map(&column)).collect();

    let mut groups: BTreeMap<Row, Vec<AggState>> = BTreeMap::new();
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
        let key: Row = group_slices
            .iter()
            .map(|s| s.get(ri).cloned().unwrap_or(Value::Null))
            .collect();
        let states = groups.entry(key).or_insert_with(|| {
            query
                .aggregates
                .iter()
                .map(|a| AggState::new(a.func))
                .collect()
        });
        for (state, col) in states.iter_mut().zip(&agg_slices) {
            state.feed(col.and_then(|s| s.get(ri)));
        }
    }
    if groups.is_empty() && query.group_by.is_empty() {
        // SQL: an ungrouped aggregate over zero rows still yields one row.
        groups.insert(
            Vec::new(),
            query
                .aggregates
                .iter()
                .map(|a| AggState::new(a.func))
                .collect(),
        );
    }
    groups
        .into_iter()
        .map(|(mut key, states)| {
            key.extend(states.into_iter().map(AggState::finish));
            key
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CompareOp;

    fn table() -> Table {
        let mut t = Table::new("movies", ["genre", "rating", "title"]);
        t.push_raw_row(["Drama", "8", "A"]).unwrap();
        t.push_raw_row(["Drama", "6", "B"]).unwrap();
        t.push_raw_row(["Comedy", "7", "C"]).unwrap();
        t.push_raw_row(["Comedy", "", "D"]).unwrap(); // NULL rating
        t
    }

    fn binding() -> Binding {
        let mut b = Binding::new();
        b.bind("genre", "genre")
            .bind("rating", "rating")
            .bind("title", "title");
        b
    }

    fn q(group: &[&str], aggs: &[(AggFunc, Option<&str>)]) -> AggregateQuery {
        AggregateQuery {
            group_by: group.iter().map(|s| (*s).to_owned()).collect(),
            aggregates: aggs
                .iter()
                .map(|(f, a)| Aggregate {
                    func: *f,
                    attribute: a.map(str::to_owned),
                })
                .collect(),
            predicates: vec![],
            from: "t".to_owned(),
        }
    }

    #[test]
    fn count_star_per_group() {
        let rows = execute_aggregate_with_binding(
            &table(),
            &q(&["genre"], &[(AggFunc::Count, None)]),
            &binding(),
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::text("Comedy"), Value::Int(2)]);
        assert_eq!(rows[1], vec![Value::text("Drama"), Value::Int(2)]);
    }

    #[test]
    fn count_attr_skips_nulls() {
        let rows = execute_aggregate_with_binding(
            &table(),
            &q(&["genre"], &[(AggFunc::Count, Some("rating"))]),
            &binding(),
        );
        assert_eq!(rows[0], vec![Value::text("Comedy"), Value::Int(1)]);
    }

    #[test]
    fn sum_avg_min_max() {
        let rows = execute_aggregate_with_binding(
            &table(),
            &q(
                &["genre"],
                &[
                    (AggFunc::Sum, Some("rating")),
                    (AggFunc::Avg, Some("rating")),
                    (AggFunc::Min, Some("rating")),
                    (AggFunc::Max, Some("rating")),
                ],
            ),
            &binding(),
        );
        // Drama: sum 14, avg 7, min 6, max 8.
        assert_eq!(
            rows[1],
            vec![
                Value::text("Drama"),
                Value::Int(14),
                Value::Int(7),
                Value::Int(6),
                Value::Int(8),
            ]
        );
    }

    #[test]
    fn ungrouped_aggregate_is_one_row() {
        let rows = execute_aggregate_with_binding(
            &table(),
            &q(
                &[],
                &[(AggFunc::Count, None), (AggFunc::Max, Some("rating"))],
            ),
            &binding(),
        );
        assert_eq!(rows, vec![vec![Value::Int(4), Value::Int(8)]]);
    }

    #[test]
    fn ungrouped_over_empty_selection_yields_zero_count() {
        let mut query = q(
            &[],
            &[(AggFunc::Count, None), (AggFunc::Sum, Some("rating"))],
        );
        query
            .predicates
            .push(Predicate::new("genre", CompareOp::Eq, "Western"));
        let rows = execute_aggregate_with_binding(&table(), &query, &binding());
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn grouped_over_empty_selection_yields_nothing() {
        let mut query = q(&["genre"], &[(AggFunc::Count, None)]);
        query
            .predicates
            .push(Predicate::new("genre", CompareOp::Eq, "Western"));
        assert!(execute_aggregate_with_binding(&table(), &query, &binding()).is_empty());
    }

    #[test]
    fn unbound_attribute_yields_nothing() {
        let query = q(&["genre"], &[(AggFunc::Sum, Some("salary"))]);
        assert!(execute_aggregate_with_binding(&table(), &query, &binding()).is_empty());
    }

    #[test]
    fn predicates_filter_before_grouping() {
        let mut query = q(&["genre"], &[(AggFunc::Count, None)]);
        query
            .predicates
            .push(Predicate::new("rating", CompareOp::Ge, 7_i64));
        let rows = execute_aggregate_with_binding(&table(), &query, &binding());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::text("Comedy"), Value::Int(1)]);
        assert_eq!(rows[1], vec![Value::text("Drama"), Value::Int(1)]);
    }

    #[test]
    fn display_renders_sql() {
        let mut query = q(
            &["genre"],
            &[(AggFunc::Count, None), (AggFunc::Avg, Some("rating"))],
        );
        query
            .predicates
            .push(Predicate::new("rating", CompareOp::Gt, 5_i64));
        assert_eq!(
            query.to_string(),
            "SELECT genre, COUNT(*), AVG(rating) FROM t WHERE rating > 5 GROUP BY genre"
        );
    }

    #[test]
    fn referenced_attributes_cover_all_clauses() {
        let mut query = q(&["genre"], &[(AggFunc::Avg, Some("rating"))]);
        query
            .predicates
            .push(Predicate::new("title", CompareOp::Ne, "X"));
        assert_eq!(
            query.referenced_attributes(),
            vec!["genre", "rating", "title"]
        );
    }
}
