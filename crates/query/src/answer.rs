//! Probabilistic answer sets under by-table semantics.
//!
//! Definition 3.3 / §2: a tuple's probability from one source is the sum of
//! the probabilities of the mappings (weighted by mediated-schema
//! probability) under which the rewritten query returns it; answers from
//! different sources combine by probabilistic disjunction
//! `1 − Π_i (1 − p_i)`, assuming source independence.
//!
//! The paper measures precision/recall on the answer list *without*
//! removing duplicates across sources ([`AnswerSet::flat`]) but ranks and
//! plots R-P curves on the deduplicated, disjunction-combined list
//! ([`AnswerSet::combined`]).

use udi_schema::float::clamp_prob;
use udi_store::{Row, SourceId, Table, Value};

use crate::ast::Query;
use crate::exec::{column, scan, Scan};
use crate::rows::{hash_cells, DistinctRows};

/// One answer tuple with its probability.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerTuple {
    /// Projected values, aligned with the query's select list.
    pub values: Row,
    /// Probability that this tuple is a correct answer.
    pub probability: f64,
}

/// What a cell past the end of its column reads as.
static NULL: Value = Value::Null;

/// Where one binding's tuples read their cells.
#[derive(Debug, Clone)]
enum BindingCells<'a> {
    /// A select binding: one column of the source table per projected
    /// attribute, so tuple `row` is entry `row` of each column. A cell past
    /// the end of its column reads as NULL.
    Columns(Vec<&'a [Value]>),
    /// An aggregate binding: the group rows it computed, each its own tuple.
    Rows(Vec<Row>),
}

/// Where one source's answer tuples read their cells: one
/// [`BindingCells`] per binding, so tuple `(binding, row)` is row `row` of
/// binding `binding`.
#[derive(Debug, Clone, Default)]
struct SourceCells<'a> {
    bindings: Vec<BindingCells<'a>>,
}

impl<'a> SourceCells<'a> {
    /// The cells of tuple `(binding, row)`, in select order.
    fn cells(&self, binding: usize, row: usize) -> impl Iterator<Item = &Value> + '_ {
        let (columns, cells): (&[&[Value]], &[Value]) = match self.bindings.get(binding) {
            Some(BindingCells::Columns(columns)) => (columns, &[]),
            Some(BindingCells::Rows(rows)) => (&[], rows.get(row).map_or(&[], Vec::as_slice)),
            None => (&[], &[]),
        };
        columns
            .iter()
            .map(move |c| c.get(row).unwrap_or(&NULL))
            .chain(cells)
    }

    /// [`DistinctRows::upsert`] for tuple `at`, hashed and compared by
    /// its cells: finds the first tuple among `tuples` with equal cells,
    /// or appends `at` with `value`.
    fn upsert<'t, V>(
        &self,
        tuples: &'t mut DistinctRows<(usize, usize), V>,
        at: (usize, usize),
        value: V,
    ) -> (usize, Option<&'t mut V>) {
        let hash = hash_cells(self.cells(at.0, at.1));
        let same = |&k: &(usize, usize)| self.cells(k.0, k.1).eq(self.cells(at.0, at.1));
        tuples.upsert_hashed(hash, at, value, same)
    }

    /// Adds a binding for the rows `query` selects from `table` under
    /// `columns` (as [`Query::columns`] resolves them): returns its index
    /// and the scan of those rows, or `None` when `columns` do not fit the
    /// query.
    fn add_select<'q>(
        &mut self,
        table: &'a Table,
        query: &'q Query,
        columns: &[usize],
    ) -> Option<(usize, Scan<'q>)>
    where
        'a: 'q,
    {
        let (select, filter) = columns.split_at_checked(query.select.len())?;
        let select = select.iter().map(|&c| column(table, c));
        self.bindings.push(BindingCells::Columns(select.collect()));
        Some((
            self.bindings.len() - 1,
            scan(table, &query.predicates, filter),
        ))
    }

    /// Adds a binding whose tuples are `rows`, each kept as it is; returns
    /// its index.
    fn add_rows(&mut self, rows: Vec<Row>) -> usize {
        self.bindings.push(BindingCells::Rows(rows));
        self.bindings.len() - 1
    }
}

/// One answer tuple by reference: the `(binding, row)` of the source's
/// cell store that first produced it, with its probability.
#[derive(Debug, Clone, Copy)]
struct TupleRef {
    binding: usize,
    row: usize,
    probability: f64,
}

/// Accumulates per-mapping results for a single source, by reference.
///
/// Each `add_*` call records that, under a mapping holding with
/// probability `p`, the rewritten query returned a bag of tuples: the rows
/// a select binding picks out of the source table
/// ([`add_select`](SourceAccumulator::add_select)), or the group rows an
/// aggregate computed ([`add_rows`](SourceAccumulator::add_rows)). A tuple
/// is kept as the `(binding, row)` that first produced it; it is hashed
/// and compared by reading its cells in place, so no row is projected and
/// no cell copied. Duplicate tuples within one mapping count once (a tuple
/// either is or is not an answer under that mapping); the same tuple under
/// different mappings accumulates their probabilities (by-table
/// semantics).
#[derive(Debug, Clone, Default)]
pub struct SourceAccumulator<'a> {
    cells: SourceCells<'a>,
    /// Each distinct tuple with its accumulated mass and the last binding
    /// that added to it.
    tuples: DistinctRows<(usize, usize), (f64, usize)>,
}

impl<'a> SourceAccumulator<'a> {
    /// Fresh accumulator.
    pub fn new() -> SourceAccumulator<'a> {
        SourceAccumulator::default()
    }

    /// Record, with probability `p`, the rows `query` selects from `table`
    /// under one binding: `columns` as [`Query::columns`] resolves them.
    /// `columns` that do not fit the query add nothing.
    pub fn add_select(&mut self, table: &'a Table, query: &Query, columns: &[usize], p: f64) {
        if p <= 0.0 {
            return;
        }
        if let Some((binding, rows)) = self.cells.add_select(table, query, columns) {
            self.add_mapping(binding, rows, p);
        }
    }

    /// Record the tuples `rows` (an aggregate's group rows) with
    /// probability `p`.
    pub fn add_rows(&mut self, rows: Vec<Row>, p: f64) {
        if p <= 0.0 {
            return;
        }
        let n = rows.len();
        let binding = self.cells.add_rows(rows);
        self.add_mapping(binding, 0..n, p);
    }

    /// Accumulate rows `rows` of `binding` with probability `p`; the
    /// binding doubles as the mapping stamp.
    fn add_mapping(&mut self, binding: usize, rows: impl Iterator<Item = usize>, p: f64) {
        self.tuples.reserve(rows.size_hint().0);
        for row in rows {
            let (_, old) = self
                .cells
                .upsert(&mut self.tuples, (binding, row), (p, binding));
            // A tuple stamped with this binding was already counted under
            // it: within-mapping duplicates add nothing.
            if let Some((q, last)) = old {
                if *last != binding {
                    *q += p;
                    *last = binding;
                }
            }
        }
    }

    /// Finish: the source's answer, tuples in first-seen order. Accumulated
    /// probabilities are clamped through [`clamp_prob`], which caps
    /// ulp-level float drift above 1 and (in debug builds) flags genuine
    /// excess beyond `PROB_EPS` as an upstream distribution bug.
    pub fn finish(self) -> SourceAnswer<'a> {
        let tuples = self.tuples.into_entries().into_iter();
        SourceAnswer::new(
            self.cells,
            tuples.map(|((binding, row), (p, _))| TupleRef {
                binding,
                row,
                probability: clamp_prob(p),
            }),
        )
    }
}

/// Accumulates per-mapping results for a single source under by-tuple
/// semantics, where every source row picks its mapping independently.
///
/// Each [`add_select`](TupleAccumulator::add_select) call records the rows
/// a select binding picks out of the source table under a mapping holding
/// with probability `p`; a row's index is its provenance. A (row, tuple)
/// pair's probability is the sum over the mappings producing it (capped at
/// 1); rows producing the same tuple then combine as independent events,
/// `1 − Π_r (1 − p_r)`. Tuples are kept by reference, as in
/// [`SourceAccumulator`].
#[derive(Debug, Clone, Default)]
pub struct TupleAccumulator<'a> {
    cells: SourceCells<'a>,
    /// Each distinct tuple with its combined probability, set by `finish`.
    tuples: DistinctRows<(usize, usize), Option<f64>>,
    /// Per (row index, position in `tuples`): total mass of the mappings
    /// under which that source row produces that tuple.
    per_row: DistinctRows<(usize, usize), f64>,
}

impl<'a> TupleAccumulator<'a> {
    /// Fresh accumulator.
    pub fn new() -> TupleAccumulator<'a> {
        TupleAccumulator::default()
    }

    /// Record, with probability `p`, the rows `query` selects from `table`
    /// under one binding: `columns` as [`Query::columns`] resolves them.
    /// `columns` that do not fit the query add nothing.
    pub fn add_select(&mut self, table: &'a Table, query: &Query, columns: &[usize], p: f64) {
        let Some((binding, rows)) = self.cells.add_select(table, query, columns) else {
            return;
        };
        for ri in rows {
            let (t, _) = self.cells.upsert(&mut self.tuples, (binding, ri), None);
            if let (_, Some(q)) = self.per_row.upsert((ri, t), p) {
                *q += p;
            }
        }
    }

    /// Finish: the source's answer, tuples in first-seen order. Each tuple
    /// folds its rows' probabilities in the order the (row, tuple) pairs
    /// were first seen.
    pub fn finish(self) -> SourceAnswer<'a> {
        let mut tuples = self.tuples;
        for ((_, t), p_r) in self.per_row.into_entries() {
            let p_r = p_r.min(1.0);
            if let Some(acc) = tuples.get_mut(t) {
                *acc = Some(match *acc {
                    Some(a) => 1.0 - (1.0 - a) * (1.0 - p_r),
                    None => p_r,
                });
            }
        }
        let tuples = tuples.into_entries().into_iter();
        SourceAnswer::new(
            self.cells,
            tuples.map(|((binding, row), probability)| TupleRef {
                binding,
                row,
                probability: probability.unwrap_or(0.0),
            }),
        )
    }
}

/// One source's answer by reference: its distinct tuples in first-seen
/// order, each a `(binding, row)` of the cell store the accumulator built
/// (the source table's columns, or an aggregate's group rows) with its
/// probability. Reading a tuple copies nothing; cells are cloned only by
/// [`to_tuples`](SourceAnswer::to_tuples).
#[derive(Debug, Clone, Default)]
pub struct SourceAnswer<'a> {
    cells: SourceCells<'a>,
    tuples: Vec<TupleRef>,
}

impl<'a> SourceAnswer<'a> {
    /// An answer over `cells` holding `tuples`, with no spare capacity:
    /// the accumulators' stores were sized for every row they saw, and
    /// most rows may have folded into earlier tuples.
    fn new(cells: SourceCells<'a>, tuples: impl ExactSizeIterator<Item = TupleRef>) -> Self {
        let mut exact = Vec::with_capacity(tuples.len());
        exact.extend(tuples);
        SourceAnswer {
            cells,
            tuples: exact,
        }
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the source produced no tuple.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Each tuple's probability and cells, in first-seen order, read in
    /// place.
    pub fn tuples(&self) -> impl Iterator<Item = (f64, impl Iterator<Item = &Value> + '_)> + '_ {
        self.tuples
            .iter()
            .map(|t| (t.probability, self.cells.cells(t.binding, t.row)))
    }

    /// The tuples as owned [`AnswerTuple`]s, in order: the one place a
    /// cell is cloned.
    pub fn to_tuples(&self) -> Vec<AnswerTuple> {
        let mut out = Vec::with_capacity(self.tuples.len());
        out.extend(self.tuples().map(|(probability, cells)| AnswerTuple {
            values: cells.cloned().collect(),
            probability,
        }));
        out
    }
}

/// Answers collected from every source for one query, by reference: the
/// [`AnswerSet`] a query produces, before any cell is cloned. It borrows
/// the source tables it read, so it lives no longer than the system
/// snapshot that answered; [`to_answer_set`](AnswerRefs::to_answer_set)
/// makes the owned set.
#[derive(Debug, Clone, Default)]
pub struct AnswerRefs<'a> {
    per_source: Vec<(SourceId, SourceAnswer<'a>)>,
}

impl<'a> AnswerRefs<'a> {
    /// No answers.
    pub fn new() -> AnswerRefs<'a> {
        AnswerRefs::default()
    }

    /// Attach one source's answer; an empty one is dropped, as
    /// [`AnswerSet::add_source`] drops it.
    pub fn add_source(&mut self, source: SourceId, answer: SourceAnswer<'a>) {
        if !answer.is_empty() {
            self.per_source.push((source, answer));
        }
    }

    /// Per-source view `(source, answer)`, in the order attached.
    pub fn by_source(&self) -> &[(SourceId, SourceAnswer<'a>)] {
        &self.per_source
    }

    /// The owned answer set: the same sources and tuples in the same
    /// order, each distinct tuple's cells cloned once.
    pub fn to_answer_set(&self) -> AnswerSet {
        let mut set = AnswerSet::new();
        for (source, answer) in &self.per_source {
            set.add_source(*source, answer.to_tuples());
        }
        set
    }
}

/// Answers collected from every source for one query.
#[derive(Debug, Clone, Default)]
pub struct AnswerSet {
    per_source: Vec<(SourceId, Vec<AnswerTuple>)>,
}

impl AnswerSet {
    /// Empty answer set.
    pub fn new() -> AnswerSet {
        AnswerSet::default()
    }

    /// Attach one source's answers.
    pub fn add_source(&mut self, source: SourceId, tuples: Vec<AnswerTuple>) {
        if !tuples.is_empty() {
            self.per_source.push((source, tuples));
        }
    }

    /// The flat answer list: every source's tuples concatenated, duplicates
    /// across sources retained (the paper's precision/recall view).
    pub fn flat(&self) -> Vec<&AnswerTuple> {
        self.per_source
            .iter()
            .flat_map(|(_, ts)| ts.iter())
            .collect()
    }

    /// Number of flat answers.
    pub fn len(&self) -> usize {
        self.per_source.iter().map(|(_, ts)| ts.len()).sum()
    }

    /// Whether no source produced answers.
    pub fn is_empty(&self) -> bool {
        self.per_source.is_empty()
    }

    /// Per-source view `(source, tuples)`.
    pub fn by_source(&self) -> &[(SourceId, Vec<AnswerTuple>)] {
        &self.per_source
    }

    /// Deduplicate across sources with probabilistic disjunction and rank by
    /// probability (descending, ties broken by tuple order for determinism).
    pub fn combined(&self) -> Vec<AnswerTuple> {
        let mut acc: DistinctRows<&Row, f64> = DistinctRows::new();
        for (_, tuples) in &self.per_source {
            for t in tuples {
                if let (_, Some(p)) = acc.upsert(&t.values, t.probability) {
                    // 1 - (1-p)(1-q) accumulated incrementally.
                    *p = 1.0 - (1.0 - *p) * (1.0 - t.probability);
                }
            }
        }
        let mut out: Vec<AnswerTuple> = acc
            .into_entries()
            .into_iter()
            .map(|(values, probability)| AnswerTuple {
                values: values.clone(),
                probability,
            })
            .collect();
        out.sort_by(|a, b| {
            b.probability
                .partial_cmp(&a.probability)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// The top-`k` combined answers.
    pub fn top_k(&self, k: usize) -> Vec<AnswerTuple> {
        let mut c = self.combined();
        c.truncate(k);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udi_store::Value;

    fn row(s: &str) -> Row {
        vec![Value::text(s)]
    }

    #[test]
    fn accumulator_sums_across_mappings() {
        let mut acc = SourceAccumulator::new();
        acc.add_rows(vec![row("a"), row("b")], 0.6);
        acc.add_rows(vec![row("a")], 0.3);
        let ts = acc.finish().to_tuples();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].values, row("a"));
        assert!((ts[0].probability - 0.9).abs() < 1e-12);
        assert!((ts[1].probability - 0.6).abs() < 1e-12);
    }

    #[test]
    fn accumulator_dedupes_within_one_mapping() {
        let mut acc = SourceAccumulator::new();
        acc.add_rows(vec![row("a"), row("a"), row("a")], 0.5);
        let ts = acc.finish().to_tuples();
        assert_eq!(ts.len(), 1);
        assert!((ts[0].probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rows_of_different_widths_stay_apart() {
        let mut acc = SourceAccumulator::new();
        acc.add_rows(vec![row("a"), vec![Value::text("a"), Value::Null]], 0.5);
        let ts = acc.finish().to_tuples();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].values, row("a"));
        assert_eq!(ts[1].values, vec![Value::text("a"), Value::Null]);
    }

    #[test]
    fn accumulator_ignores_zero_probability_mappings() {
        let mut acc = SourceAccumulator::new();
        acc.add_rows(vec![row("a")], 0.0);
        assert!(acc.finish().is_empty());
    }

    #[test]
    fn accumulator_caps_at_one() {
        let mut acc = SourceAccumulator::new();
        // Masses from one distribution can sum a few ulps past 1 — the
        // float-drift scenario clamp_prob exists for.
        acc.add_rows(vec![row("a")], 0.3);
        acc.add_rows(vec![row("a")], 0.7000000000000003);
        let ts = acc.finish().to_tuples();
        assert_eq!(ts[0].probability, 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds 1 by more than PROB_EPS")]
    fn accumulator_flags_distributions_summing_past_one() {
        // Excess far beyond PROB_EPS is not drift but an upstream bug; the
        // debug build refuses to paper over it.
        let mut acc = SourceAccumulator::new();
        acc.add_rows(vec![row("a")], 0.7);
        acc.add_rows(vec![row("a")], 0.7);
        let _ = acc.finish();
    }

    #[test]
    fn accumulator_dedup_is_fast_and_order_preserving_on_large_bags() {
        // 20k rows over 200 distinct values: the old O(n²) Vec::contains
        // scan made this pathological; the per-tuple mapping stamp keeps it
        // linear while preserving first-seen output order exactly.
        let rows: Vec<Row> = (0..20_000).map(|i| row(&format!("v{}", i % 200))).collect();
        let mut acc = SourceAccumulator::new();
        acc.add_rows(rows.clone(), 0.5);
        acc.add_rows(rows, 0.25);
        let ts = acc.finish().to_tuples();
        assert_eq!(ts.len(), 200);
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(t.values, row(&format!("v{i}")), "first-seen order");
            assert!((t.probability - 0.75).abs() < 1e-12);
        }
    }

    #[test]
    fn disjunction_across_sources() {
        let mut set = AnswerSet::new();
        set.add_source(
            SourceId(0),
            vec![AnswerTuple {
                values: row("x"),
                probability: 0.5,
            }],
        );
        set.add_source(
            SourceId(1),
            vec![AnswerTuple {
                values: row("x"),
                probability: 0.5,
            }],
        );
        let c = set.combined();
        assert_eq!(c.len(), 1);
        assert!((c[0].probability - 0.75).abs() < 1e-12);
        // Flat view keeps both.
        assert_eq!(set.flat().len(), 2);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn combined_is_ranked_descending() {
        let mut set = AnswerSet::new();
        set.add_source(
            SourceId(0),
            vec![
                AnswerTuple {
                    values: row("lo"),
                    probability: 0.2,
                },
                AnswerTuple {
                    values: row("hi"),
                    probability: 0.9,
                },
            ],
        );
        let c = set.combined();
        assert_eq!(c[0].values, row("hi"));
        assert_eq!(c[1].values, row("lo"));
    }

    #[test]
    fn top_k_truncates() {
        let mut set = AnswerSet::new();
        set.add_source(
            SourceId(0),
            vec![
                AnswerTuple {
                    values: row("a"),
                    probability: 0.2,
                },
                AnswerTuple {
                    values: row("b"),
                    probability: 0.9,
                },
                AnswerTuple {
                    values: row("c"),
                    probability: 0.5,
                },
            ],
        );
        let top = set.top_k(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].values, row("b"));
        assert_eq!(top[1].values, row("c"));
    }

    #[test]
    fn empty_answer_set() {
        let set = AnswerSet::new();
        assert!(set.is_empty());
        assert!(set.combined().is_empty());
        assert!(set.flat().is_empty());
        let mut set2 = AnswerSet::new();
        set2.add_source(SourceId(0), vec![]);
        assert!(set2.is_empty(), "empty source contributions are dropped");
    }

    /// The accumulators as they were before the distinct-row store, kept as
    /// oracles: a `BTreeSet` dedup pass plus a `HashMap<Row, _>` and an
    /// order `Vec` for by-table, the same pair keyed by `(row index, tuple)`
    /// for by-tuple, and again for the cross-source disjunction.
    mod reference {
        use std::collections::{BTreeSet, HashMap};

        use super::super::AnswerTuple;
        use udi_schema::float::clamp_prob;
        use udi_store::Row;

        pub fn by_table(mappings: &[(Vec<Row>, f64)]) -> Vec<AnswerTuple> {
            let mut probs: HashMap<Row, f64> = HashMap::new();
            let mut order: Vec<Row> = Vec::new();
            for (rows, p) in mappings {
                if *p <= 0.0 {
                    continue;
                }
                let mut seen: BTreeSet<&Row> = BTreeSet::new();
                for row in rows {
                    if !seen.insert(row) {
                        continue;
                    }
                    match probs.get_mut(row) {
                        Some(q) => *q += p,
                        None => {
                            probs.insert(row.clone(), *p);
                            order.push(row.clone());
                        }
                    }
                }
            }
            order
                .into_iter()
                .map(|values| {
                    let probability = clamp_prob(probs.get(&values).copied().unwrap_or(0.0));
                    AnswerTuple {
                        values,
                        probability,
                    }
                })
                .collect()
        }

        pub fn by_tuple(mappings: &[(Vec<(usize, Row)>, f64)]) -> Vec<AnswerTuple> {
            let mut per_row: HashMap<(usize, Row), f64> = HashMap::new();
            let mut order: Vec<(usize, Row)> = Vec::new();
            for (rows, p) in mappings {
                for key in rows {
                    match per_row.get_mut(key) {
                        Some(q) => *q += p,
                        None => {
                            per_row.insert(key.clone(), *p);
                            order.push(key.clone());
                        }
                    }
                }
            }
            let mut combined: HashMap<Row, f64> = HashMap::new();
            let mut tuple_order: Vec<Row> = Vec::new();
            for key in &order {
                let p_r = per_row.get(key).copied().unwrap_or(0.0).min(1.0);
                match combined.get_mut(&key.1) {
                    Some(acc) => *acc = 1.0 - (1.0 - *acc) * (1.0 - p_r),
                    None => {
                        combined.insert(key.1.clone(), p_r);
                        tuple_order.push(key.1.clone());
                    }
                }
            }
            tuple_order
                .into_iter()
                .map(|values| {
                    let probability = combined.get(&values).copied().unwrap_or(0.0);
                    AnswerTuple {
                        values,
                        probability,
                    }
                })
                .collect()
        }

        pub fn combined(per_source: &[Vec<AnswerTuple>]) -> Vec<AnswerTuple> {
            let mut acc: HashMap<Row, f64> = HashMap::new();
            let mut order: Vec<Row> = Vec::new();
            for tuples in per_source {
                for t in tuples {
                    match acc.get_mut(&t.values) {
                        Some(p) => *p = 1.0 - (1.0 - *p) * (1.0 - t.probability),
                        None => {
                            acc.insert(t.values.clone(), t.probability);
                            order.push(t.values.clone());
                        }
                    }
                }
            }
            let mut out: Vec<AnswerTuple> = order
                .into_iter()
                .map(|values| {
                    let probability = acc.get(&values).copied().unwrap_or(0.0);
                    AnswerTuple {
                        values,
                        probability,
                    }
                })
                .collect();
            out.sort_by(|a, b| {
                b.probability
                    .partial_cmp(&a.probability)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            out
        }
    }

    /// A table whose row holds `Int(2)` in column 0 and `Float(2.0)` in
    /// column 1: equal cells that print apart.
    fn two_twos() -> Table {
        let mut t = Table::new("s", ["i", "f"]);
        t.push_row(vec![Value::Int(2), Value::Float(2.0)]).unwrap();
        t
    }

    #[test]
    fn numerically_equal_tuples_keep_the_first_seen_cells() {
        let t = two_twos();
        let q = Query::new(["x"], vec![]);
        for (first, second, printed) in [(0, 1, "Int(2)"), (1, 0, "Float(2.0)")] {
            let mut acc = SourceAccumulator::new();
            acc.add_select(&t, &q, &[first], 0.25);
            acc.add_select(&t, &q, &[second], 0.5);
            let answer = acc.finish();
            let ts = answer.to_tuples();
            assert_eq!(ts.len(), 1, "Int(2) and Float(2.0) fold to one tuple");
            assert_eq!(format!("{:?}", ts[0].values), format!("[{printed}]"));
            assert_eq!(ts[0].probability, 0.75);
            let (p, cells) = answer.tuples().next().unwrap();
            assert_eq!(p, 0.75);
            assert_eq!(
                format!("{:?}", cells.collect::<Vec<_>>()),
                format!("[{printed}]")
            );
        }
    }

    #[test]
    fn answers_keep_no_capacity_for_folded_rows() {
        // 1,000 projected rows over 10 distinct tuples: the accumulator's
        // store is sized for 1,000, the answer for 10.
        let mut t = Table::new("s", ["v"]);
        for i in 0..1000 {
            t.push_row(vec![Value::text(format!("v{}", i % 10))])
                .unwrap();
        }
        let q = Query::new(["v"], vec![]);
        let mut acc = SourceAccumulator::new();
        acc.add_select(&t, &q, &[0], 0.5);
        let answer = acc.finish();
        assert_eq!(answer.len(), 10);
        assert!(answer.tuples.capacity() <= 2 * answer.len());
        let owned = answer.to_tuples();
        assert_eq!(owned.len(), 10);
        assert!(owned.capacity() <= 2 * owned.len(), "{}", owned.capacity());
        let mut refs = AnswerRefs::new();
        refs.add_source(SourceId(0), answer);
        let set = refs.to_answer_set();
        let (_, tuples) = &set.by_source()[0];
        assert!(
            tuples.capacity() <= 2 * tuples.len(),
            "{}",
            tuples.capacity()
        );
    }

    mod oracle {
        use super::super::*;
        use super::reference;
        use crate::ast::{CompareOp, Predicate};
        use crate::exec::execute;
        use proptest::prelude::*;
        use udi_store::Value;

        /// A cell drawn from a small domain, so rows repeat often. `Int(2)`
        /// and `Float(2.0)` compare (and hash) equal but print apart.
        fn cell() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                (0i64..4).prop_map(Value::Int),
                prop_oneof![Just(2.0), Just(0.5), Just(3.0)].prop_map(Value::Float),
                prop_oneof![Just("a"), Just("b")].prop_map(Value::text),
            ]
        }

        fn tuple(width: usize) -> impl Strategy<Value = Row> {
            proptest::collection::vec(cell(), width)
        }

        /// A tuple one or two cells wide: rows of different widths (`[a]`
        /// and `[a, Null]`) are different tuples.
        fn row() -> impl Strategy<Value = Row> {
            proptest::collection::vec(cell(), 1..3)
        }

        /// Up to four mappings, so the masses of one source sum to at most
        /// 1; zero-probability mappings included.
        fn prob() -> impl Strategy<Value = f64> {
            prop_oneof![Just(0.0), 0.0..0.25f64]
        }

        /// A source table of three columns over the small cell domain.
        fn table() -> impl Strategy<Value = Table> {
            proptest::collection::vec(tuple(3), 0..12).prop_map(|rows| {
                let mut t = Table::new("s", ["c0", "c1", "c2"]);
                for row in rows {
                    t.push_row(row).unwrap();
                }
                t
            })
        }

        /// A select over a table, one or two attributes wide and filtered
        /// on zero or one attribute, with up to four bindings: each
        /// binding's columns (select, then filter; a column may repeat, and
        /// different bindings select the same cells from different
        /// columns) and probability.
        type SelectCase = (Table, Query, Vec<(Vec<usize>, f64)>);

        fn select_case() -> impl Strategy<Value = SelectCase> {
            let binding = (proptest::collection::vec(0usize..3, 3), prob());
            (
                1usize..3,
                0usize..2,
                table(),
                proptest::collection::vec(binding, 0..5),
            )
                .prop_map(|(width, filters, table, mut bindings)| {
                    let predicates = (0..filters)
                        .map(|_| Predicate::new("f", CompareOp::Ne, "a"))
                        .collect();
                    for (columns, _) in &mut bindings {
                        columns.truncate(width + filters);
                    }
                    (table, Query::new(vec!["x"; width], predicates), bindings)
                })
        }

        /// The owned projection of every binding, with row provenance.
        fn projected(case: &SelectCase) -> Vec<(Vec<(usize, Row)>, f64)> {
            let (t, q, bindings) = case;
            bindings
                .iter()
                .map(|(columns, p)| (execute(t, q, columns), *p))
                .collect()
        }

        fn without_rows(mappings: &[(Vec<(usize, Row)>, f64)]) -> Vec<(Vec<Row>, f64)> {
            mappings
                .iter()
                .map(|(rows, p)| (rows.iter().map(|(_, r)| r.clone()).collect(), *p))
                .collect()
        }

        fn by_table<'a>(case: &'a SelectCase) -> SourceAnswer<'a> {
            let (t, q, bindings) = case;
            let mut acc = SourceAccumulator::new();
            for (columns, p) in bindings {
                acc.add_select(t, q, columns, *p);
            }
            acc.finish()
        }

        /// Tuples compared variant by variant (`Debug`, so `Int(2)` and
        /// `Float(2.0)` differ) and probabilities bit by bit.
        fn exact(ts: &[AnswerTuple]) -> Vec<(String, u64)> {
            ts.iter()
                .map(|t| (format!("{:?}", t.values), t.probability.to_bits()))
                .collect()
        }

        /// The answer read in place, compared like [`exact`].
        fn exact_refs(answer: &SourceAnswer<'_>) -> Vec<(String, u64)> {
            answer
                .tuples()
                .map(|(p, cells)| (format!("{:?}", cells.collect::<Vec<_>>()), p.to_bits()))
                .collect()
        }

        proptest! {
            #[test]
            fn source_accumulator_matches_reference(
                mappings in proptest::collection::vec(
                    (proptest::collection::vec(row(), 0..12), prob()),
                    0..5,
                ),
            ) {
                let mut acc = SourceAccumulator::new();
                for (rows, p) in &mappings {
                    acc.add_rows(rows.clone(), *p);
                }
                let answer = acc.finish();
                let expected = exact(&reference::by_table(&mappings));
                prop_assert_eq!(exact(&answer.to_tuples()), expected.clone());
                prop_assert_eq!(exact_refs(&answer), expected);
            }

            /// Select bindings read in place against the owned projection:
            /// the same tuples, first-seen cells and probability bits.
            #[test]
            fn select_accumulator_matches_reference(case in select_case()) {
                let answer = by_table(&case);
                let expected = exact(&reference::by_table(&without_rows(&projected(&case))));
                prop_assert_eq!(exact(&answer.to_tuples()), expected.clone());
                prop_assert_eq!(exact_refs(&answer), expected);
            }

            #[test]
            fn tuple_accumulator_matches_reference(case in select_case()) {
                let (t, q, bindings) = &case;
                let mut acc = TupleAccumulator::new();
                for (columns, p) in bindings {
                    acc.add_select(t, q, columns, *p);
                }
                let answer = acc.finish();
                let expected = exact(&reference::by_tuple(&projected(&case)));
                prop_assert_eq!(exact(&answer.to_tuples()), expected.clone());
                prop_assert_eq!(exact_refs(&answer), expected);
            }

            /// Sources answered by reference, made owned and combined,
            /// against the owned accumulators' disjunction.
            #[test]
            fn answers_by_reference_combine_like_the_reference(
                cases in proptest::collection::vec(select_case(), 0..4),
            ) {
                let mut refs = AnswerRefs::new();
                let mut per_source = Vec::new();
                for (i, case) in cases.iter().enumerate() {
                    refs.add_source(SourceId(i as u32), by_table(case));
                    per_source.push(reference::by_table(&without_rows(&projected(case))));
                }
                let set = refs.to_answer_set();
                let flat: Vec<AnswerTuple> = set.flat().into_iter().cloned().collect();
                prop_assert_eq!(exact(&flat), exact(&per_source.concat()));
                prop_assert_eq!(exact(&set.combined()), exact(&reference::combined(&per_source)));
            }

            #[test]
            fn combined_matches_reference(
                per_source in proptest::collection::vec(
                    proptest::collection::vec(
                        (
                            proptest::collection::vec(cell(), 1..3),
                            prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64],
                        ),
                        0..8,
                    ),
                    0..5,
                ),
            ) {
                let per_source: Vec<Vec<AnswerTuple>> = per_source
                    .into_iter()
                    .map(|ts| {
                        ts.into_iter()
                            .map(|(values, probability)| AnswerTuple { values, probability })
                            .collect()
                    })
                    .collect();
                let mut set = AnswerSet::new();
                for (i, ts) in per_source.iter().enumerate() {
                    set.add_source(SourceId(i as u32), ts.clone());
                }
                prop_assert_eq!(exact(&set.combined()), exact(&reference::combined(&per_source)));
            }
        }
    }
}
