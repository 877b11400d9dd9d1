//! Query answering: by-table semantics over the consolidated schema and —
//! for Theorem 6.2 — directly over the p-med-schema (Definition 3.3), plus
//! the top-mapping baseline and the by-tuple and aggregate extensions.
//!
//! Every path follows one recipe, written once in the private skeleton
//! behind [`UdiSystem::answer_with`]: pool each source's p-mapping into
//! bindings (compiled once into a [`PreparedQuery`] and cached by pooling
//! and query text, see [`crate::prepared`]), execute each source under its
//! bindings, and union the results in catalog order. The paths differ only
//! in how [`AnswerPath`] pools and how one source is executed.

use std::collections::BTreeMap;
use std::sync::Arc;

use udi_query::{
    execute, execute_aggregate, AggregateQuery, AnswerRefs, AnswerSet, ParseError, Query,
    SourceAccumulator, SourceAnswer, TupleAccumulator,
};
use udi_schema::{AttrId, Mapping, MediatedSchema};
use udi_store::Table;

use crate::prepared::{fan_out, Pooling, PreparedQuery, QueryPlan, SourceBindings};
use crate::system::UdiSystem;

/// The five answer paths. They differ only in how a source's p-mapping is
/// pooled (consolidated, per schema, or top mapping) and how one source is
/// executed (by-table, by-tuple, or aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerPath {
    /// Consolidated mediated schema ([`UdiSystem::answer`]).
    Consolidated,
    /// Full probabilistic mediated schema ([`UdiSystem::answer_with_pmed`]).
    Pmed,
    /// Top-1 mapping only ([`UdiSystem::answer_top_mapping`]).
    TopMapping,
    /// By-tuple semantics ([`UdiSystem::answer_by_tuple`]).
    ByTuple,
    /// Aggregate queries ([`UdiSystem::answer_aggregate`]).
    Aggregate,
}

impl AnswerPath {
    /// All five paths, in wire-name order used by benches and tests.
    pub const ALL: [AnswerPath; 5] = [
        AnswerPath::Consolidated,
        AnswerPath::Pmed,
        AnswerPath::TopMapping,
        AnswerPath::ByTuple,
        AnswerPath::Aggregate,
    ];

    /// Parses the wire name of a path.
    pub fn from_name(name: &str) -> Option<AnswerPath> {
        AnswerPath::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The wire name of this path; also the `path` field of its
    /// `query.answer` span.
    pub fn name(self) -> &'static str {
        match self {
            AnswerPath::Consolidated => "consolidated",
            AnswerPath::Pmed => "pmed",
            AnswerPath::TopMapping => "top_mapping",
            AnswerPath::ByTuple => "by_tuple",
            AnswerPath::Aggregate => "aggregate",
        }
    }

    /// How this path pools p-mappings — the plan-cache key. By-tuple and
    /// aggregate pool exactly like the consolidated path (only execution
    /// differs), so they share its plans.
    fn pooling(self) -> Pooling {
        match self {
            AnswerPath::Pmed => Pooling::Pmed,
            AnswerPath::TopMapping => Pooling::TopMapping,
            AnswerPath::Consolidated | AnswerPath::ByTuple | AnswerPath::Aggregate => {
                Pooling::Consolidated
            }
        }
    }
}

/// A parsed query in the grammar its path reads.
#[derive(Clone, Copy)]
enum Parsed<'q> {
    Select(&'q Query),
    Aggregate(&'q AggregateQuery),
}

impl<'q> Parsed<'q> {
    /// The rendered text, which keys the plan cache. An aggregate renders
    /// with its COUNT/GROUP BY, so it cannot collide with a select over
    /// the same attributes.
    fn text(self) -> String {
        match self {
            Parsed::Select(q) => q.to_string(),
            Parsed::Aggregate(q) => q.to_string(),
        }
    }

    /// The attributes the plan must resolve to mediated clusters.
    fn referenced_attributes(self) -> Vec<&'q str> {
        match self {
            Parsed::Select(q) => q.referenced_attributes(),
            Parsed::Aggregate(q) => q.referenced_attributes(),
        }
    }

    /// The query's clause-order columns under `resolve` (see
    /// [`Query::columns`]).
    fn columns(self, resolve: impl FnMut(&str) -> Option<usize>) -> Option<Vec<usize>> {
        match self {
            Parsed::Select(q) => q.columns(resolve),
            Parsed::Aggregate(q) => q.columns(resolve),
        }
    }
}

impl UdiSystem {
    /// Parse `text` in the grammar `path` reads (the aggregate grammar for
    /// [`AnswerPath::Aggregate`], the select grammar otherwise) and answer
    /// it on that path, with the `query.answer` span parented on `parent`
    /// (`0` opens a root span). Every `answer*` method is this call with
    /// the path fixed and the query already parsed.
    pub fn answer_with(
        &self,
        path: AnswerPath,
        text: &str,
        parent: u64,
    ) -> Result<AnswerSet, ParseError> {
        Ok(self.answer_refs(path, text, parent)?.to_answer_set())
    }

    /// [`answer_with`](UdiSystem::answer_with) by reference: the same
    /// answers, in the same order, with each tuple read in place from the
    /// snapshot's tables (or an aggregate's group rows) instead of cloned
    /// into an [`AnswerSet`]. The serving path renders these straight onto
    /// the wire; [`AnswerRefs::to_answer_set`] gives the owned set.
    pub fn answer_refs(
        &self,
        path: AnswerPath,
        text: &str,
        parent: u64,
    ) -> Result<AnswerRefs<'_>, ParseError> {
        Ok(match path {
            AnswerPath::Aggregate => {
                let q = udi_query::parse_aggregate_query(text)?;
                self.answer_on(path, Parsed::Aggregate(&q), parent)
            }
            _ => {
                let q = udi_query::parse_query(text)?;
                self.answer_on(path, Parsed::Select(&q), parent)
            }
        })
    }

    /// Answer `query` against the **consolidated** mediated schema with the
    /// consolidated p-mappings (the production path). Query attributes may
    /// be any source attribute covered by the mediated schema; a query
    /// referencing an unknown or unclustered (infrequent) attribute yields
    /// no answers from this path.
    ///
    /// The compiled plan is cached (see [`UdiSystem::prepare`]); repeated
    /// calls with the same query skip straight to execution.
    pub fn answer(&self, query: &Query) -> AnswerSet {
        self.answer_traced(query, 0)
    }

    /// [`answer`](UdiSystem::answer) with the `query.answer` span parented
    /// on `parent` — for serving layers that hold a per-request span open
    /// on another thread and want the whole query trace (down to the
    /// per-source `query.source` spans) hanging off it. `parent == 0`
    /// opens a root span, identical to [`answer`](UdiSystem::answer).
    pub fn answer_traced(&self, query: &Query, parent: u64) -> AnswerSet {
        self.answer_on(AnswerPath::Consolidated, Parsed::Select(query), parent)
            .to_answer_set()
    }

    /// Compile `query` for the production (consolidated) path and return
    /// the cached plan handle. `answer` and friends do this implicitly; an
    /// explicit `prepare` lets a serving loop warm the cache up front and
    /// inspect whether the query is answerable at all.
    ///
    /// The plan reflects the artifacts it was compiled from; any mutation
    /// (`add_source`, `remove_source`, `apply_feedback`) empties the cache,
    /// so the next answer recompiles automatically.
    pub fn prepare(&self, query: &Query) -> Arc<PreparedQuery> {
        self.plan_for(Pooling::Consolidated, Parsed::Select(query))
    }

    /// Answer `query` directly against the p-med-schema (Definition 3.3):
    /// per possible mediated schema `M_i`, per mapping, weighted by
    /// `Pr(M_i)`. Exists to make Theorem 6.2 executable — `answer` must
    /// return exactly the same answers.
    pub fn answer_with_pmed(&self, query: &Query) -> AnswerSet {
        self.answer_with_pmed_traced(query, 0)
    }

    /// [`answer_with_pmed`](UdiSystem::answer_with_pmed) with an explicit
    /// span parent (see [`answer_traced`](UdiSystem::answer_traced)).
    pub fn answer_with_pmed_traced(&self, query: &Query, parent: u64) -> AnswerSet {
        self.answer_on(AnswerPath::Pmed, Parsed::Select(query), parent)
            .to_answer_set()
    }

    /// Answer `query` using **only** the single highest-probability mapping
    /// of each source's consolidated p-mapping, taken as certain — the
    /// `TopMapping` baseline of §7.3. Compared with [`UdiSystem::answer`],
    /// this loses the probability mass of every alternative mapping (low
    /// recall) and bets everything on the top mapping being right (erratic
    /// precision), which is exactly the behaviour the paper reports.
    pub fn answer_top_mapping(&self, query: &Query) -> AnswerSet {
        self.answer_top_mapping_traced(query, 0)
    }

    /// [`answer_top_mapping`](UdiSystem::answer_top_mapping) with an
    /// explicit span parent (see [`answer_traced`](UdiSystem::answer_traced)).
    pub fn answer_top_mapping_traced(&self, query: &Query, parent: u64) -> AnswerSet {
        self.answer_on(AnswerPath::TopMapping, Parsed::Select(query), parent)
            .to_answer_set()
    }

    /// Answer `query` under **by-tuple** semantics (an extension; the
    /// paper evaluates by-table). Where by-table assumes one mapping is
    /// correct for a whole source table, by-tuple lets every *source row*
    /// select its own mapping independently (Dong, Halevy & Yu's second
    /// semantics for uncertain mappings). A tuple's probability from one
    /// source is `1 − Π_r (1 − p_r(t))` over the rows `r` that can produce
    /// it, where `p_r(t)` sums the probabilities of the mappings under
    /// which row `r` yields `t`.
    ///
    /// The two semantics agree whenever each answer tuple is producible by
    /// at most one row of each source; they diverge when distinct rows
    /// yield the same tuple under different mappings (by-table adds the
    /// mapping probabilities; by-tuple combines them as independent
    /// events).
    pub fn answer_by_tuple(&self, query: &Query) -> AnswerSet {
        self.answer_by_tuple_traced(query, 0)
    }

    /// [`answer_by_tuple`](UdiSystem::answer_by_tuple) with an explicit
    /// span parent (see [`answer_traced`](UdiSystem::answer_traced)).
    pub fn answer_by_tuple_traced(&self, query: &Query, parent: u64) -> AnswerSet {
        self.answer_on(AnswerPath::ByTuple, Parsed::Select(query), parent)
            .to_answer_set()
    }

    /// Answer a grouped aggregate query (an extension — the paper's
    /// workload is select–project only). By-table semantics carry over
    /// naturally: the aggregate is evaluated per source under each pooled
    /// mapping binding, the group rows inherit the binding's probability,
    /// and identical group rows combine across mappings and sources like
    /// ordinary answers. There is no cross-source fusion of aggregates
    /// (that would need entity resolution; the paper's union model treats
    /// sources independently).
    pub fn answer_aggregate(&self, query: &AggregateQuery) -> AnswerSet {
        self.answer_aggregate_traced(query, 0)
    }

    /// [`answer_aggregate`](UdiSystem::answer_aggregate) with an explicit
    /// span parent (see [`answer_traced`](UdiSystem::answer_traced)).
    pub fn answer_aggregate_traced(&self, query: &AggregateQuery, parent: u64) -> AnswerSet {
        self.answer_on(AnswerPath::Aggregate, Parsed::Aggregate(query), parent)
            .to_answer_set()
    }

    /// The answer skeleton every path runs: open the `query.answer` span,
    /// look up (or compile) the plan for the path's pooling, execute each
    /// source under its bindings, and count what was scanned and produced.
    /// The answers come back by reference; the library's `answer*` calls
    /// make them owned, the server renders them as they are.
    fn answer_on(&self, path: AnswerPath, query: Parsed<'_>, parent: u64) -> AnswerRefs<'_> {
        let mut span = self
            .engine()
            .recorder()
            .span_with_parent("query.answer", parent);
        span.field("path", path.name());
        let prepared = self.plan_for(path.pooling(), query);
        let Some(plan) = prepared.plan() else {
            return AnswerRefs::new();
        };
        let (answers, scanned, produced) = fan_out(self, plan, span.id(), |table, bindings| {
            execute_source(path, query, table, bindings)
        });
        span.count("query.tuples.scanned", scanned);
        span.count("query.answers.produced", produced);
        answers
    }

    /// Explain how `query` would be answered: per source, the distinct
    /// attribute bindings induced by the consolidated p-mapping, their
    /// pooled probabilities, and how many rows each contributes. This is
    /// the inspection surface for pay-as-you-go improvement — it shows an
    /// administrator exactly where probability mass goes before they
    /// correct anything.
    pub fn explain(&self, query: &Query) -> Explanation {
        let attrs = query.referenced_attributes();
        let Some(clusters) = self.resolve_attr_clusters(&attrs, self.consolidated()) else {
            return Explanation {
                query: query.to_string(),
                sources: Vec::new(),
            };
        };
        let mut sources = Vec::new();
        for (sid, table) in self.catalog().iter_sources() {
            let pooled = self.pool_consolidated(sid.0 as usize, &clusters);
            let mut bindings = Vec::new();
            let mut unmapped = 0.0;
            // Ranked for display: most probable binding first, signature
            // order breaking ties.
            let mut entries: Vec<(&Vec<Option<AttrId>>, &f64)> = pooled.iter().collect();
            entries.sort_by(|a, b| {
                b.1.partial_cmp(a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(b.0))
            });
            for (sig, &p) in entries {
                if p <= 0.0 {
                    continue;
                }
                if sig.iter().any(Option::is_none) {
                    unmapped += p;
                    continue;
                }
                let pairs: Vec<(String, String)> = attrs
                    .iter()
                    .zip(sig.iter())
                    .filter_map(|(a, id)| {
                        let name = self.schema_set().vocab().name((*id)?);
                        Some(((*a).to_owned(), name.to_owned()))
                    })
                    .collect();
                let n_rows = self
                    .lower(Parsed::Select(query), &attrs, sig, table)
                    .map_or(0, |columns| execute(table, query, &columns).len());
                bindings.push(BindingExplanation {
                    probability: p,
                    pairs,
                    n_rows,
                });
            }
            if !bindings.is_empty() || unmapped < 1.0 - 1e-12 {
                sources.push(SourceExplanation {
                    source: sid,
                    source_name: table.name().to_owned(),
                    bindings,
                    unmapped_probability: unmapped,
                });
            }
        }
        Explanation {
            query: query.to_string(),
            sources,
        }
    }

    /// Map each referenced query attribute to its cluster index in `med`.
    /// `None` when some attribute is unknown or unclustered.
    fn resolve_attr_clusters(&self, attrs: &[&str], med: &MediatedSchema) -> Option<Vec<usize>> {
        attrs
            .iter()
            .map(|a| med.cluster_of(self.schema_set().vocab().id_of(a)?))
            .collect()
    }

    /// Cache lookup for `(pooling, query text)`, compiling on miss.
    fn plan_for(&self, pooling: Pooling, query: Parsed<'_>) -> Arc<PreparedQuery> {
        self.plans()
            .get_or_compile(pooling, &query.text(), self.engine().recorder(), || {
                let attrs = query.referenced_attributes();
                match pooling {
                    Pooling::Consolidated => self.compile_consolidated(query, &attrs),
                    Pooling::Pmed => self.compile_pmed(query, &attrs),
                    Pooling::TopMapping => self.compile_top_mapping(query, &attrs),
                }
            })
    }

    /// Lower one pooled signature to the binding form execution reads: the
    /// column of `table` each attribute of `query` is bound to, in clause
    /// order. The signature names a source attribute per entry of `attrs`;
    /// its column is found through the attribute's vocabulary name. `None`
    /// when the signature leaves an attribute unbound or names a column
    /// `table` lacks — the source cannot answer under it.
    fn lower(
        &self,
        query: Parsed<'_>,
        attrs: &[&str],
        sig: &[Option<AttrId>],
        table: &Table,
    ) -> Option<Vec<usize>> {
        query.columns(|a| {
            let at = attrs.iter().position(|&x| x == a)?;
            let id = (*sig.get(at)?)?;
            table.attribute_index(self.schema_set().vocab().name(id))
        })
    }

    /// Lower one source's pooled signature map into execution-ready
    /// bindings: drop zero-mass signatures and those `lower` rejects.
    /// Iterates the `BTreeMap` in key order, so the binding list preserves
    /// exactly the order the sequential path used.
    fn pooled_to_bindings(
        &self,
        query: Parsed<'_>,
        attrs: &[&str],
        table: &Table,
        pooled: BTreeMap<Vec<Option<AttrId>>, f64>,
    ) -> SourceBindings {
        let mut out = Vec::with_capacity(pooled.len());
        for (sig, p) in pooled {
            if p <= 0.0 {
                continue;
            }
            if let Some(columns) = self.lower(query, attrs, &sig, table) {
                out.push((columns, p));
            }
        }
        out
    }

    /// Pool source `source`'s consolidated p-mapping by the binding
    /// signature each mapping induces on `clusters`.
    fn pool_consolidated(
        &self,
        source: usize,
        clusters: &[usize],
    ) -> BTreeMap<Vec<Option<AttrId>>, f64> {
        let mut pooled: BTreeMap<Vec<Option<AttrId>>, f64> = BTreeMap::new();
        for (m, p) in self.consolidated_pmapping(source).mappings() {
            *pooled.entry(binding_signature(m, clusters)).or_insert(0.0) += p;
        }
        pooled
    }

    /// Compile for the consolidated path: one pooled signature map per
    /// source from its consolidated p-mapping.
    fn compile_consolidated(&self, query: Parsed<'_>, attrs: &[&str]) -> Option<QueryPlan> {
        let clusters = self.resolve_attr_clusters(attrs, self.consolidated())?;
        let per_source = self
            .catalog()
            .iter_sources()
            .map(|(sid, table)| {
                let pooled = self.pool_consolidated(sid.0 as usize, &clusters);
                self.pooled_to_bindings(query, attrs, table, pooled)
            })
            .collect();
        Some(QueryPlan { per_source })
    }
    /// Compile for the p-med-schema path: pool across every possible
    /// schema, weighting each mapping by its schema's probability. A schema
    /// that cannot resolve the query contributes nothing; if none can, the
    /// query is unanswerable.
    fn compile_pmed(&self, query: Parsed<'_>, attrs: &[&str]) -> Option<QueryPlan> {
        let resolved: Vec<Option<Vec<usize>>> = self
            .pmed()
            .schemas()
            .iter()
            .map(|(m, _)| self.resolve_attr_clusters(attrs, m))
            .collect();
        if resolved.iter().all(Option::is_none) {
            return None;
        }
        let per_source = self
            .catalog()
            .iter_sources()
            .map(|(sid, table)| {
                let mut pooled: BTreeMap<Vec<Option<AttrId>>, f64> = BTreeMap::new();
                for (i, (_, p_schema)) in self.pmed().schemas().iter().enumerate() {
                    let Some(clusters) = resolved.get(i).and_then(Option::as_ref) else {
                        continue;
                    };
                    for (m, p) in self.pmapping(sid.0 as usize, i).mappings() {
                        *pooled.entry(binding_signature(m, clusters)).or_insert(0.0) +=
                            p * p_schema;
                    }
                }
                self.pooled_to_bindings(query, attrs, table, pooled)
            })
            .collect();
        Some(QueryPlan { per_source })
    }

    /// Compile for the top-mapping baseline: each source's single most
    /// probable mapping, taken as certain.
    fn compile_top_mapping(&self, query: Parsed<'_>, attrs: &[&str]) -> Option<QueryPlan> {
        let clusters = self.resolve_attr_clusters(attrs, self.consolidated())?;
        let per_source = self
            .catalog()
            .iter_sources()
            .map(|(sid, table)| {
                let pm = self.consolidated_pmapping(sid.0 as usize);
                let mut pooled: BTreeMap<Vec<Option<AttrId>>, f64> = BTreeMap::new();
                pooled.insert(binding_signature(pm.top_mapping(), &clusters), 1.0);
                self.pooled_to_bindings(query, attrs, table, pooled)
            })
            .collect();
        Some(QueryPlan { per_source })
    }
}

/// Execute one source under its pooled bindings — the only step in which
/// the paths' execution differs: by-tuple combines rows as independent
/// events (see [`UdiSystem::answer_by_tuple`]), every other path
/// accumulates by-table, and an aggregate differs from a select only in
/// that its tuples are the group rows it computed rather than rows of the
/// table. Each binding scans the whole table; a select's tuples stay in
/// the table, read by reference.
fn execute_source<'a>(
    path: AnswerPath,
    query: Parsed<'_>,
    table: &'a Table,
    bindings: &[(Vec<usize>, f64)],
) -> SourceAnswer<'a> {
    match (path, query) {
        (AnswerPath::ByTuple, Parsed::Select(q)) => {
            let mut acc = TupleAccumulator::new();
            for (columns, p) in bindings {
                acc.add_select(table, q, columns, *p);
            }
            acc.finish()
        }
        (_, Parsed::Select(q)) => {
            let mut acc = SourceAccumulator::new();
            for (columns, p) in bindings {
                acc.add_select(table, q, columns, *p);
            }
            acc.finish()
        }
        (_, Parsed::Aggregate(q)) => {
            let mut acc = SourceAccumulator::new();
            for (columns, p) in bindings {
                acc.add_rows(execute_aggregate(table, q, columns), *p);
            }
            acc.finish()
        }
    }
}

/// How one source would answer a query (see [`UdiSystem::explain`]).
#[derive(Debug, Clone)]
pub struct SourceExplanation {
    /// Which source.
    pub source: udi_store::SourceId,
    /// Its table name.
    pub source_name: String,
    /// Complete bindings, most probable first.
    pub bindings: Vec<BindingExplanation>,
    /// Probability mass of mappings that leave some query attribute
    /// unbound (the source then contributes nothing under them).
    pub unmapped_probability: f64,
}

/// One concrete attribute binding a source can answer under.
#[derive(Debug, Clone)]
pub struct BindingExplanation {
    /// Pooled probability of the mappings inducing this binding.
    pub probability: f64,
    /// `(query attribute, source attribute)` pairs.
    pub pairs: Vec<(String, String)>,
    /// Number of rows the rewritten query returns under this binding.
    pub n_rows: usize,
}

/// A full query explanation.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The query being explained (rendered).
    pub query: String,
    /// Per-source breakdowns; sources that cannot contribute at all are
    /// omitted.
    pub sources: Vec<SourceExplanation>,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.query)?;
        for s in &self.sources {
            writeln!(f, "  {} ({}):", s.source, s.source_name)?;
            for b in &s.bindings {
                let pairs: Vec<String> = b.pairs.iter().map(|(q, a)| format!("{q}→{a}")).collect();
                writeln!(
                    f,
                    "    p={:.3}  [{}]  {} rows",
                    b.probability,
                    pairs.join(", "),
                    b.n_rows
                )?;
            }
            if s.unmapped_probability > 1e-12 {
                writeln!(
                    f,
                    "    p={:.3}  (no complete binding)",
                    s.unmapped_probability
                )?;
            }
        }
        Ok(())
    }
}

/// The binding a mapping induces on the query's clusters: for each query
/// attribute's cluster, the unique source attribute mapped to it, if any.
/// Mappings inducing the same signature are probability-pooled before
/// execution (they are indistinguishable to the query), which keeps
/// answering fast even when p-mappings are large.
fn binding_signature(m: &Mapping, clusters: &[usize]) -> Vec<Option<AttrId>> {
    clusters.iter().map(|&j| m.source_of(j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::UdiConfig;
    use udi_query::parse_query;
    use udi_schema::{PMapping, PMedSchema};
    use udi_store::{Catalog, SourceId, Table, Value};

    /// Catalog with a single source: Example 2.1's S1 and its tuple.
    fn example_2_1() -> UdiSystem {
        let mut catalog = Catalog::new();
        let mut s1 = Table::new("S1", ["name", "hPhone", "hAddr", "oPhone", "oAddr"]);
        s1.push_raw_row([
            "Alice",
            "123-4567",
            "123, A Ave.",
            "765-4321",
            "456, B Ave.",
        ])
        .unwrap();
        // A second schema-only source so that `phone`/`address` exist in
        // the vocabulary (S2 of the example; its data is irrelevant here).
        let s2 = Table::new("S2", ["name", "phone", "address"]);
        catalog.add_source(s1).unwrap();
        catalog.add_source(s2).unwrap();

        // Hand-build the p-med-schema M = {M3: 0.5, M4: 0.5} of Example 2.1.
        // Vocabulary ids follow catalog order: name=0, hPhone=1, hAddr=2,
        // oPhone=3, oAddr=4, phone=5, address=6.
        let (name, h_p, h_a, o_p, o_a, phone, addr) = (
            AttrId(0),
            AttrId(1),
            AttrId(2),
            AttrId(3),
            AttrId(4),
            AttrId(5),
            AttrId(6),
        );
        let m3 = udi_schema::MediatedSchema::from_slices(&[
            &[name],
            &[phone, h_p],
            &[o_p],
            &[addr, h_a],
            &[o_a],
        ]);
        let m4 = udi_schema::MediatedSchema::from_slices(&[
            &[name],
            &[phone, o_p],
            &[h_p],
            &[addr, o_a],
            &[h_a],
        ]);
        let pmed = PMedSchema::new(vec![(m3.clone(), 0.5), (m4.clone(), 0.5)]);

        // Figure 1(a): pM between S1 and M3 (cluster indices per schema).
        let c3 = |a: AttrId| m3.cluster_of(a).unwrap();
        let pm_s1_m3 = PMapping::new(vec![
            (
                Mapping::new([
                    (name, c3(name)),
                    (h_p, c3(phone)),
                    (o_p, c3(o_p)),
                    (h_a, c3(addr)),
                    (o_a, c3(o_a)),
                ]),
                0.64,
            ),
            (
                Mapping::new([
                    (name, c3(name)),
                    (h_p, c3(phone)),
                    (o_p, c3(o_p)),
                    (o_a, c3(addr)),
                    (h_a, c3(o_a)),
                ]),
                0.16,
            ),
            (
                Mapping::new([
                    (name, c3(name)),
                    (o_p, c3(phone)),
                    (h_p, c3(o_p)),
                    (h_a, c3(addr)),
                    (o_a, c3(o_a)),
                ]),
                0.16,
            ),
            (
                Mapping::new([
                    (name, c3(name)),
                    (o_p, c3(phone)),
                    (h_p, c3(o_p)),
                    (o_a, c3(addr)),
                    (h_a, c3(o_a)),
                ]),
                0.04,
            ),
        ]);
        // Figure 1(b): pM between S1 and M4, mirror image.
        let c4 = |a: AttrId| m4.cluster_of(a).unwrap();
        let pm_s1_m4 = PMapping::new(vec![
            (
                Mapping::new([
                    (name, c4(name)),
                    (o_p, c4(phone)),
                    (h_p, c4(h_p)),
                    (o_a, c4(addr)),
                    (h_a, c4(h_a)),
                ]),
                0.64,
            ),
            (
                Mapping::new([
                    (name, c4(name)),
                    (o_p, c4(phone)),
                    (h_p, c4(h_p)),
                    (h_a, c4(addr)),
                    (o_a, c4(h_a)),
                ]),
                0.16,
            ),
            (
                Mapping::new([
                    (name, c4(name)),
                    (h_p, c4(phone)),
                    (o_p, c4(h_p)),
                    (o_a, c4(addr)),
                    (h_a, c4(h_a)),
                ]),
                0.16,
            ),
            (
                Mapping::new([
                    (name, c4(name)),
                    (h_p, c4(phone)),
                    (o_p, c4(h_p)),
                    (h_a, c4(addr)),
                    (o_a, c4(h_a)),
                ]),
                0.04,
            ),
        ]);
        // S2 maps identically under both schemas.
        let id_mapping = |med: &udi_schema::MediatedSchema| {
            Mapping::new([
                (name, med.cluster_of(name).unwrap()),
                (phone, med.cluster_of(phone).unwrap()),
                (addr, med.cluster_of(addr).unwrap()),
            ])
        };
        let pm_s2_m3 = PMapping::new(vec![(id_mapping(&m3), 1.0)]);
        let pm_s2_m4 = PMapping::new(vec![(id_mapping(&m4), 1.0)]);

        UdiSystem::from_parts(
            catalog,
            pmed,
            vec![vec![pm_s1_m3, pm_s1_m4], vec![pm_s2_m3, pm_s2_m4]],
        )
        .unwrap()
    }

    /// Figure 1(c): the four answers with probabilities .34/.34/.16/.16.
    #[test]
    fn example_2_1_reproduces_figure_1c() {
        let udi = example_2_1();
        let q = parse_query("SELECT name, phone, address FROM People").unwrap();
        let answers = udi.answer(&q).combined();
        assert_eq!(answers.len(), 4);
        let find = |phone: &str, addr: &str| -> f64 {
            answers
                .iter()
                .find(|t| t.values[1] == Value::text(phone) && t.values[2] == Value::text(addr))
                .map(|t| t.probability)
                .unwrap_or(0.0)
        };
        // Correct correlations: home-home and office-office get 0.34 each.
        assert!((find("123-4567", "123, A Ave.") - 0.34).abs() < 1e-9);
        assert!((find("765-4321", "456, B Ave.") - 0.34).abs() < 1e-9);
        // Cross pairings get 0.16.
        assert!((find("765-4321", "123, A Ave.") - 0.16).abs() < 1e-9);
        assert!((find("123-4567", "456, B Ave.") - 0.16).abs() < 1e-9);
    }

    /// Theorem 6.2 on the worked example: the consolidated path and the
    /// p-med-schema path agree on every query.
    #[test]
    fn consolidation_preserves_answers_on_example() {
        let udi = example_2_1();
        for sql in [
            "SELECT name, phone, address FROM P",
            "SELECT phone FROM P",
            "SELECT name, hPhone FROM P",
            "SELECT name FROM P WHERE phone = '123-4567'",
            "SELECT address FROM P WHERE name LIKE 'A%'",
            "SELECT oPhone, hAddr FROM P",
        ] {
            let q = parse_query(sql).unwrap();
            let a = udi.answer(&q).combined();
            let b = udi.answer_with_pmed(&q).combined();
            assert_eq!(a.len(), b.len(), "{sql}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.values, y.values, "{sql}");
                assert!((x.probability - y.probability).abs() < 1e-9, "{sql}");
            }
        }
    }

    #[test]
    fn unknown_attribute_yields_empty() {
        let udi = example_2_1();
        let q = parse_query("SELECT salary FROM P").unwrap();
        assert!(udi.answer(&q).is_empty());
        assert!(udi.answer_with_pmed(&q).is_empty());
    }

    #[test]
    fn predicates_filter_through_mappings() {
        let udi = example_2_1();
        let q = parse_query("SELECT name FROM P WHERE phone = '765-4321'").unwrap();
        let answers = udi.answer(&q).combined();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].values[0], Value::text("Alice"));
        // Office phone matching `phone` happens with probability
        // .5*(.16+.04) + .5*(.64+.16) = 0.5.
        assert!((answers[0].probability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn aggregate_answering_groups_within_sources() {
        // Three sources with heterogeneous genre labels; aggregate counts
        // per genre must flow through the p-mappings like any query.
        let mut catalog = Catalog::new();
        let mut t1 = Table::new("a", ["genre", "title"]);
        t1.push_raw_row(["Drama", "A"]).unwrap();
        t1.push_raw_row(["Drama", "B"]).unwrap();
        t1.push_raw_row(["Comedy", "C"]).unwrap();
        let mut t2 = Table::new("b", ["genres", "title"]);
        t2.push_raw_row(["Drama", "D"]).unwrap();
        let mut t3 = Table::new("c", ["genre", "title"]);
        t3.push_raw_row(["Comedy", "E"]).unwrap();
        catalog.add_source(t1).unwrap();
        catalog.add_source(t2).unwrap();
        catalog.add_source(t3).unwrap();
        let udi = UdiSystem::setup(catalog, UdiConfig::default()).unwrap();

        let q = udi_query::parse_aggregate_query("SELECT genre, COUNT(*) FROM t GROUP BY genre")
            .unwrap();
        let ans = udi.answer_aggregate(&q);
        // Source a: (Drama,2), (Comedy,1); source b via `genres` cluster:
        // (Drama,1); source c: (Comedy,1).
        let flat = ans.flat();
        let find = |genre: &str, n: i64| {
            flat.iter()
                .any(|t| t.values[0] == Value::text(genre) && t.values[1] == Value::Int(n))
        };
        assert!(find("Drama", 2), "source a groups");
        assert!(find("Comedy", 1));
        assert!(
            find("Drama", 1),
            "source b reached through the genres variant"
        );
        // Combined view merges identical (Comedy, 1) rows from a and c by
        // disjunction.
        let combined = ans.combined();
        let comedy1 = combined
            .iter()
            .find(|t| t.values[0] == Value::text("Comedy") && t.values[1] == Value::Int(1))
            .expect("present");
        assert!(comedy1.probability > 0.9);
    }

    #[test]
    fn aggregate_with_predicate_and_ungrouped() {
        let udi = example_2_1();
        let q = udi_query::parse_aggregate_query("SELECT COUNT(*) FROM p WHERE name = 'Alice'")
            .unwrap();
        let ans = udi.answer_aggregate(&q);
        // S1 contains Alice once; S2 has no rows.
        let flat = ans.flat();
        assert!(flat.iter().any(|t| t.values[0] == Value::Int(1)));
    }

    #[test]
    fn aggregate_over_unknown_attribute_is_empty() {
        let udi = example_2_1();
        let q = udi_query::parse_aggregate_query("SELECT COUNT(salary) FROM p").unwrap();
        assert!(udi.answer_aggregate(&q).is_empty());
    }

    #[test]
    fn by_tuple_agrees_with_by_table_on_single_row_sources() {
        // Every source of the Example 2.1 fixture has at most one row, so
        // no answer tuple can arise from two rows: the semantics coincide.
        let udi = example_2_1();
        for sql in [
            "SELECT name, phone, address FROM P",
            "SELECT phone FROM P",
            "SELECT name FROM P WHERE phone = '123-4567'",
        ] {
            let q = parse_query(sql).unwrap();
            let mut a = udi.answer(&q).combined();
            let mut b = udi.answer_by_tuple(&q).combined();
            a.sort_by(|x, y| x.values.cmp(&y.values));
            b.sort_by(|x, y| x.values.cmp(&y.values));
            assert_eq!(a.len(), b.len(), "{sql}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.values, y.values, "{sql}");
                assert!((x.probability - y.probability).abs() < 1e-9, "{sql}");
            }
        }
    }

    #[test]
    fn by_tuple_diverges_when_rows_overlap() {
        // One source, two rows; the p-mapping has two possible bindings
        // (0.6/0.4). Row 0 yields "x" under binding A, row 1 yields "x"
        // under binding B:
        //   by-table : P(x) = 0.6 + 0.4 = 1.0 (either mapping produces x)
        //   by-tuple : P(x) = 1 − (1−0.6)(1−0.4) = 0.76
        let mut catalog = Catalog::new();
        let mut t = Table::new("S", ["a", "b"]);
        t.push_raw_row(["x", "y"]).unwrap(); // row 0
        t.push_raw_row(["y", "x"]).unwrap(); // row 1
        catalog.add_source(t).unwrap();
        let (a, b) = (AttrId(0), AttrId(1));
        let med = udi_schema::MediatedSchema::from_slices(&[&[a], &[b]]);
        let pmed = PMedSchema::new(vec![(med, 1.0)]);
        // Mapping A: a→{a} (query attr a reads column a); mapping B: b→{a}.
        let pm = PMapping::new(vec![
            (Mapping::new([(a, 0)]), 0.6),
            (Mapping::new([(b, 0)]), 0.4),
        ]);
        let udi = UdiSystem::from_parts(catalog, pmed, vec![vec![pm]]).unwrap();
        let q = parse_query("SELECT a FROM S").unwrap();

        let by_table = udi.answer(&q).combined();
        let p_table: f64 = by_table
            .iter()
            .filter(|t| t.values[0] == Value::text("x"))
            .map(|t| t.probability)
            .sum();
        assert!((p_table - 1.0).abs() < 1e-9, "by-table: {p_table}");

        let by_tuple = udi.answer_by_tuple(&q).combined();
        let p_tuple: f64 = by_tuple
            .iter()
            .filter(|t| t.values[0] == Value::text("x"))
            .map(|t| t.probability)
            .sum();
        assert!((p_tuple - 0.76).abs() < 1e-9, "by-tuple: {p_tuple}");
    }

    #[test]
    fn plans_are_keyed_by_pooling_not_by_path() {
        for p in AnswerPath::ALL {
            assert_eq!(AnswerPath::from_name(p.name()), Some(p));
        }
        let mut udi = example_2_1();
        let sink = Arc::new(udi_obs::MemorySink::new());
        udi.set_sink(Some(sink.clone()));
        let q = parse_query("SELECT name, phone FROM P").unwrap();
        udi.answer(&q);
        udi.answer_by_tuple(&q);
        assert_eq!(
            udi.plan_cache_len(),
            1,
            "by-tuple shares the consolidated plan"
        );
        assert_eq!(sink.counter_total("query.plan.hit"), 1);
        udi.answer_with_pmed(&q);
        assert_eq!(udi.plan_cache_len(), 2);
        udi.answer_top_mapping(&q);
        assert_eq!(udi.plan_cache_len(), 3);
    }

    #[test]
    fn plan_bindings_are_columns_and_each_is_scanned_once() {
        let mut udi = example_2_1();
        let sink = Arc::new(udi_obs::MemorySink::new());
        udi.set_sink(Some(sink.clone()));
        let q = parse_query("SELECT hPhone, oPhone FROM P WHERE hPhone != 'x'").unwrap();
        let prepared = udi.prepare(&q);
        let plan = prepared.plan().expect("answerable");
        // S2's one phone binds hPhone or oPhone, never both at once: no
        // binding, no scan.
        assert_eq!(plan.per_source.len(), 2);
        assert!(plan.per_source[1].is_empty(), "{:?}", plan.per_source[1]);
        // S1 binds the two phones either way round, in clause order:
        // hPhone, oPhone, hPhone.
        let columns: Vec<&[usize]> = plan.per_source[0].iter().map(|(c, _)| &c[..]).collect();
        assert_eq!(columns, [&[1, 3, 1][..], &[3, 1, 3][..]]);
        udi.answer(&q);
        let expected: u64 = udi
            .catalog()
            .iter_sources()
            .map(|(sid, t)| (plan.per_source[sid.0 as usize].len() * t.row_count()) as u64)
            .sum();
        assert_eq!(expected, 2, "two bindings over S1's one row");
        assert_eq!(sink.counter_total("query.tuples.scanned"), expected);
    }

    #[test]
    fn lowering_needs_every_attribute_bound_to_a_column_of_the_table() {
        let udi = example_2_1();
        let q = parse_query("SELECT name FROM P WHERE phone = 'x'").unwrap();
        let attrs = q.referenced_attributes();
        let s1 = udi.catalog().source(SourceId(0)).unwrap();
        let lower = |sig: &[Option<AttrId>]| udi.lower(Parsed::Select(&q), &attrs, sig, s1);
        // name → name, phone → oPhone.
        assert_eq!(lower(&[Some(AttrId(0)), Some(AttrId(3))]), Some(vec![0, 3]));
        // An unbound select or predicate attribute lowers to nothing.
        assert_eq!(lower(&[None, Some(AttrId(3))]), None);
        assert_eq!(lower(&[Some(AttrId(0)), None]), None);
        // `phone` (id 5) is S2's attribute: S1 has no such column.
        assert_eq!(lower(&[Some(AttrId(0)), Some(AttrId(5))]), None);
    }

    #[test]
    fn explanation_accounts_for_all_probability_mass() {
        let udi = example_2_1();
        let q = parse_query("SELECT name, phone, address FROM P").unwrap();
        let ex = udi.explain(&q);
        assert!(ex.query.contains("SELECT name, phone, address"));
        assert_eq!(ex.sources.len(), 2);
        for s in &ex.sources {
            let total: f64 =
                s.bindings.iter().map(|b| b.probability).sum::<f64>() + s.unmapped_probability;
            assert!((total - 1.0).abs() < 1e-9, "{}", s.source_name);
            for b in &s.bindings {
                assert_eq!(b.pairs.len(), 3, "one pair per query attribute");
            }
        }
        // S1 has four distinct bindings (Figure 1's four pairings).
        let s1 = &ex.sources[0];
        assert_eq!(s1.bindings.len(), 4);
        // Bindings are ranked by probability.
        for w in s1.bindings.windows(2) {
            assert!(w[0].probability >= w[1].probability);
        }
        // Display renders without panicking and mentions the source.
        let text = ex.to_string();
        assert!(text.contains("S1"));
        assert!(text.contains("rows"));
    }

    #[test]
    fn explanation_of_unknown_attribute_is_empty() {
        let udi = example_2_1();
        let q = parse_query("SELECT salary FROM P").unwrap();
        assert!(udi.explain(&q).sources.is_empty());
    }

    #[test]
    fn end_to_end_setup_answers_heterogeneous_sources() {
        let mut catalog = Catalog::new();
        let mut t1 = Table::new("a", ["title", "year"]);
        t1.push_raw_row(["Metropolis", "1927"]).unwrap();
        let mut t2 = Table::new("b", ["title", "year(s)"]);
        t2.push_raw_row(["Casablanca", "1942"]).unwrap();
        let mut t3 = Table::new("c", ["title", "year"]);
        t3.push_raw_row(["Vertigo", "1958"]).unwrap();
        catalog.add_source(t1).unwrap();
        catalog.add_source(t2).unwrap();
        catalog.add_source(t3).unwrap();
        let udi = UdiSystem::setup(catalog, UdiConfig::default()).unwrap();
        let q = parse_query("SELECT title FROM movies WHERE year > 1930").unwrap();
        let combined = udi.answer(&q).combined();
        let titles: Vec<String> = combined.iter().map(|t| t.values[0].to_string()).collect();
        assert!(
            titles.contains(&"Casablanca".to_owned()),
            "year(s) matched to year: {titles:?}"
        );
        assert!(titles.contains(&"Vertigo".to_owned()));
        assert!(!titles.contains(&"Metropolis".to_owned()));
    }
}
