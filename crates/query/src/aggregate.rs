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

use crate::ast::{first_appearances, Predicate};
use crate::exec::{column, scan};

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
    /// Every attribute the query reads, in clause order: one per grouping
    /// attribute, one per aggregate argument (`COUNT(*)` has none), then
    /// one per predicate.
    fn clause_attributes(&self) -> impl Iterator<Item = &str> {
        let args = self
            .aggregates
            .iter()
            .filter_map(|a| a.attribute.as_deref());
        let filters = self.predicates.iter().map(|p| p.attribute.as_str());
        self.group_by
            .iter()
            .map(String::as_str)
            .chain(args)
            .chain(filters)
    }

    /// All attribute names the query references: group-by attributes,
    /// aggregate arguments, then predicate attributes; deduplicated in
    /// first-appearance order.
    pub fn referenced_attributes(&self) -> Vec<&str> {
        first_appearances(self.clause_attributes())
    }

    /// The table column of every attribute the query reads, in clause
    /// order, as [`execute_aggregate`] takes them. `None` when `resolve`
    /// leaves any attribute unbound (see
    /// [`Query::columns`](crate::Query::columns)).
    pub fn columns(&self, resolve: impl FnMut(&str) -> Option<usize>) -> Option<Vec<usize>> {
        self.clause_attributes().map(resolve).collect()
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

/// Execute an aggregate query on one table, reading the columns
/// [`AggregateQuery::columns`] resolved. Output rows are `group_by values
/// ++ aggregate values`, ordered by group key. An ungrouped query over zero
/// qualifying rows yields one row of empty aggregates (`COUNT = 0`),
/// matching SQL; `columns` that do not fit the query's clauses yield
/// nothing.
pub fn execute_aggregate(table: &Table, query: &AggregateQuery, columns: &[usize]) -> Vec<Row> {
    let n_args = query
        .aggregates
        .iter()
        .filter(|a| a.attribute.is_some())
        .count();
    let Some((group, rest)) = columns.split_at_checked(query.group_by.len()) else {
        return Vec::new();
    };
    let Some((args, filter)) = rest.split_at_checked(n_args) else {
        return Vec::new();
    };
    if filter.len() != query.predicates.len() {
        return Vec::new();
    }
    let group_slices: Vec<&[Value]> = group.iter().map(|&c| column(table, c)).collect();
    let mut args = args.iter();
    let agg_slices: Vec<Option<&[Value]>> = query
        .aggregates
        .iter()
        .map(|a| {
            a.attribute.as_ref()?;
            args.next().map(|&c| column(table, c))
        })
        .collect();

    let mut groups: BTreeMap<Row, Vec<AggState>> = BTreeMap::new();
    for ri in scan(table, &query.predicates, filter) {
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

    /// `query` on [`table`], every attribute bound to its own column.
    fn run(query: &AggregateQuery) -> Vec<Row> {
        let t = table();
        let cols = query.columns(|a| t.attribute_index(a)).unwrap();
        execute_aggregate(&t, query, &cols)
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
        let rows = run(&q(&["genre"], &[(AggFunc::Count, None)]));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::text("Comedy"), Value::Int(2)]);
        assert_eq!(rows[1], vec![Value::text("Drama"), Value::Int(2)]);
    }

    #[test]
    fn count_attr_skips_nulls() {
        let rows = run(&q(&["genre"], &[(AggFunc::Count, Some("rating"))]));
        assert_eq!(rows[0], vec![Value::text("Comedy"), Value::Int(1)]);
    }

    #[test]
    fn sum_avg_min_max() {
        let rows = run(&q(
            &["genre"],
            &[
                (AggFunc::Sum, Some("rating")),
                (AggFunc::Avg, Some("rating")),
                (AggFunc::Min, Some("rating")),
                (AggFunc::Max, Some("rating")),
            ],
        ));
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
        let rows = run(&q(
            &[],
            &[(AggFunc::Count, None), (AggFunc::Max, Some("rating"))],
        ));
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
        let rows = run(&query);
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn grouped_over_empty_selection_yields_nothing() {
        let mut query = q(&["genre"], &[(AggFunc::Count, None)]);
        query
            .predicates
            .push(Predicate::new("genre", CompareOp::Eq, "Western"));
        assert!(run(&query).is_empty());
    }

    #[test]
    fn unbound_attribute_yields_nothing() {
        let t = table();
        for query in [
            q(&["genre"], &[(AggFunc::Sum, Some("salary"))]),
            q(&["salary"], &[(AggFunc::Count, None)]),
            q(
                &[],
                &[(AggFunc::Count, None), (AggFunc::Max, Some("salary"))],
            ),
        ] {
            assert_eq!(query.columns(|a| t.attribute_index(a)), None, "{query}");
        }
    }

    #[test]
    fn columns_that_do_not_fit_the_query_yield_nothing() {
        // Not even the zero row of an ungrouped query.
        let ungrouped = q(&[], &[(AggFunc::Count, None)]);
        assert!(execute_aggregate(&table(), &ungrouped, &[0]).is_empty());
        let grouped = q(&["genre"], &[(AggFunc::Max, Some("rating"))]);
        assert!(execute_aggregate(&table(), &grouped, &[0]).is_empty());
        assert_eq!(execute_aggregate(&table(), &grouped, &[0, 1]).len(), 2);
    }

    #[test]
    fn predicates_filter_before_grouping() {
        let mut query = q(&["genre"], &[(AggFunc::Count, None)]);
        query
            .predicates
            .push(Predicate::new("rating", CompareOp::Ge, 7_i64));
        let rows = run(&query);
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
