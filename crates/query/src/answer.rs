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
use udi_store::{Row, SourceId};

use crate::rows::DistinctRows;

/// One answer tuple with its probability.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerTuple {
    /// Projected values, aligned with the query's select list.
    pub values: Row,
    /// Probability that this tuple is a correct answer.
    pub probability: f64,
}

/// Accumulates per-mapping results for a single source.
///
/// Each `add_mapping(rows, p)` call records that, under a mapping holding
/// with probability `p`, the rewritten query returned `rows`. Duplicate rows
/// within one mapping count once (a tuple either is or is not an answer
/// under that mapping); the same tuple under different mappings accumulates
/// their probabilities (by-table semantics).
#[derive(Debug, Clone, Default)]
pub struct SourceAccumulator {
    /// Each distinct tuple with its accumulated mass and the number of the
    /// last mapping that added to it.
    rows: DistinctRows<Row, (f64, u64)>,
    /// Number of the mapping being added (mappings count from 1).
    mapping: u64,
}

impl SourceAccumulator {
    /// Fresh accumulator.
    pub fn new() -> SourceAccumulator {
        SourceAccumulator::default()
    }

    /// Record the result bag of one possible mapping with probability `p`.
    /// The rows are moved into the accumulator; each is hashed once.
    pub fn add_mapping(&mut self, rows: impl IntoIterator<Item = Row>, p: f64) {
        if p <= 0.0 {
            return;
        }
        self.mapping += 1;
        let mapping = self.mapping;
        let rows = rows.into_iter();
        self.rows.reserve(rows.size_hint().0);
        for row in rows {
            // A tuple stamped with this mapping was already counted under
            // it: within-mapping duplicates add nothing.
            if let (_, Some((q, last))) = self.rows.upsert(row, (p, mapping)) {
                if *last != mapping {
                    *q += p;
                    *last = mapping;
                }
            }
        }
    }

    /// Finish: the source's answer tuples in first-seen order. Accumulated
    /// probabilities are clamped through [`clamp_prob`], which caps
    /// ulp-level float drift above 1 and (in debug builds) flags genuine
    /// excess beyond `PROB_EPS` as an upstream distribution bug.
    pub fn finish(self) -> Vec<AnswerTuple> {
        self.rows
            .into_entries()
            .into_iter()
            .map(|(values, (p, _))| AnswerTuple {
                values,
                probability: clamp_prob(p),
            })
            .collect()
    }

    /// Whether nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Accumulates per-mapping results for a single source under by-tuple
/// semantics, where every source row picks its mapping independently.
///
/// Each `add_mapping(rows, p)` call records the `(row index, tuple)` pairs
/// the rewritten query returned under a mapping holding with probability
/// `p`. A pair's probability is the sum over the mappings producing it
/// (capped at 1); rows producing the same tuple then combine as
/// independent events, `1 − Π_r (1 − p_r)`.
#[derive(Debug, Clone, Default)]
pub struct TupleAccumulator {
    /// Each distinct tuple with its combined probability, set by `finish`.
    tuples: DistinctRows<Row, Option<f64>>,
    /// Per (row index, position in `tuples`): total mass of the mappings
    /// under which that source row produces that tuple.
    per_row: DistinctRows<(usize, usize), f64>,
}

impl TupleAccumulator {
    /// Fresh accumulator.
    pub fn new() -> TupleAccumulator {
        TupleAccumulator::default()
    }

    /// Record the `(row index, tuple)` pairs of one possible mapping with
    /// probability `p`. The tuples are moved in; each is hashed once.
    pub fn add_mapping(&mut self, rows: Vec<(usize, Row)>, p: f64) {
        for (ri, tuple) in rows {
            let (t, _) = self.tuples.upsert(tuple, None);
            if let (_, Some(q)) = self.per_row.upsert((ri, t), p) {
                *q += p;
            }
        }
    }

    /// Finish: the source's answer tuples in first-seen order. Each tuple
    /// folds its rows' probabilities in the order the (row, tuple) pairs
    /// were first seen.
    pub fn finish(self) -> Vec<AnswerTuple> {
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
        tuples
            .into_entries()
            .into_iter()
            .map(|(values, probability)| AnswerTuple {
                values,
                probability: probability.unwrap_or(0.0),
            })
            .collect()
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
        acc.add_mapping(vec![row("a"), row("b")], 0.6);
        acc.add_mapping(vec![row("a")], 0.3);
        let ts = acc.finish();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].values, row("a"));
        assert!((ts[0].probability - 0.9).abs() < 1e-12);
        assert!((ts[1].probability - 0.6).abs() < 1e-12);
    }

    #[test]
    fn accumulator_dedupes_within_one_mapping() {
        let mut acc = SourceAccumulator::new();
        acc.add_mapping(vec![row("a"), row("a"), row("a")], 0.5);
        let ts = acc.finish();
        assert_eq!(ts.len(), 1);
        assert!((ts[0].probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accumulator_ignores_zero_probability_mappings() {
        let mut acc = SourceAccumulator::new();
        acc.add_mapping(vec![row("a")], 0.0);
        assert!(acc.is_empty());
    }

    #[test]
    fn accumulator_caps_at_one() {
        let mut acc = SourceAccumulator::new();
        // Masses from one distribution can sum a few ulps past 1 — the
        // float-drift scenario clamp_prob exists for.
        acc.add_mapping(vec![row("a")], 0.3);
        acc.add_mapping(vec![row("a")], 0.7000000000000003);
        let ts = acc.finish();
        assert_eq!(ts[0].probability, 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds 1 by more than PROB_EPS")]
    fn accumulator_flags_distributions_summing_past_one() {
        // Excess far beyond PROB_EPS is not drift but an upstream bug; the
        // debug build refuses to paper over it.
        let mut acc = SourceAccumulator::new();
        acc.add_mapping(vec![row("a")], 0.7);
        acc.add_mapping(vec![row("a")], 0.7);
        let _ = acc.finish();
    }

    #[test]
    fn accumulator_dedup_is_fast_and_order_preserving_on_large_bags() {
        // 20k rows over 200 distinct values: the old O(n²) Vec::contains
        // scan made this pathological; the per-tuple mapping stamp keeps it
        // linear while preserving first-seen output order exactly.
        let rows: Vec<Row> = (0..20_000).map(|i| row(&format!("v{}", i % 200))).collect();
        let mut acc = SourceAccumulator::new();
        acc.add_mapping(rows.clone(), 0.5);
        acc.add_mapping(rows, 0.25);
        let ts = acc.finish();
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

    mod oracle {
        use super::super::*;
        use super::reference;
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

        fn tuple() -> impl Strategy<Value = Row> {
            proptest::collection::vec(cell(), 1..3)
        }

        /// Up to four mappings, so the masses of one source sum to at most
        /// 1; zero-probability mappings included.
        fn prob() -> impl Strategy<Value = f64> {
            prop_oneof![Just(0.0), 0.0..0.25f64]
        }

        /// Tuples compared variant by variant (`Debug`, so `Int(2)` and
        /// `Float(2.0)` differ) and probabilities bit by bit.
        fn exact(ts: &[AnswerTuple]) -> Vec<(String, u64)> {
            ts.iter()
                .map(|t| (format!("{:?}", t.values), t.probability.to_bits()))
                .collect()
        }

        proptest! {
            #[test]
            fn source_accumulator_matches_reference(
                mappings in proptest::collection::vec(
                    (proptest::collection::vec(tuple(), 0..12), prob()),
                    0..5,
                ),
            ) {
                let mut acc = SourceAccumulator::new();
                for (rows, p) in &mappings {
                    acc.add_mapping(rows.clone(), *p);
                }
                prop_assert_eq!(exact(&acc.finish()), exact(&reference::by_table(&mappings)));
            }

            #[test]
            fn tuple_accumulator_matches_reference(
                mappings in proptest::collection::vec(
                    (proptest::collection::vec((0usize..6, tuple()), 0..12), prob()),
                    0..5,
                ),
            ) {
                let mut acc = TupleAccumulator::new();
                for (rows, p) in &mappings {
                    acc.add_mapping(rows.clone(), *p);
                }
                prop_assert_eq!(exact(&acc.finish()), exact(&reference::by_tuple(&mappings)));
            }

            #[test]
            fn combined_matches_reference(
                per_source in proptest::collection::vec(
                    proptest::collection::vec(
                        (tuple(), prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64]),
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
