//! The incremental setup engine: the four pipeline stages decomposed into
//! cached, invalidatable artifacts.
//!
//! [`super::system::UdiSystem::setup`] and the incremental mutations
//! ([`UdiSystem::add_source`](crate::UdiSystem::add_source),
//! [`UdiSystem::remove_source`](crate::UdiSystem::remove_source),
//! [`UdiSystem::apply_feedback`](crate::UdiSystem::apply_feedback)) are all
//! thin drivers over one [`SetupEngine::refresh`], so the batch and
//! incremental paths cannot diverge: a refresh recomputes exactly the stage
//! artifacts whose inputs changed and reuses the rest, and the reused
//! artifacts are bit-identical to what a from-scratch setup would produce.
//!
//! Stage artifacts and their invalidation rules:
//!
//! | artifact                      | cached as                  | invalidated by |
//! |-------------------------------|----------------------------|----------------|
//! | schema set + attribute stats  | [`SchemaSet`] (maintained in place) | never — mutations edit it directly |
//! | pairwise similarities         | `sim_cache` keyed by attribute-id pair | feedback on the pair (overwritten, not dropped) |
//! | similarity graph              | recomputed each refresh (cheap: cache lookups) | — |
//! | enumerated mediated schemas   | `schemas_raw` + graph signature | any change to the graph's nodes/edges/weights/kinds |
//! | schema probabilities          | recomputed each refresh (Algorithm 2 is linear) | — |
//! | per-(source, schema) p-mappings | `rows[source][schema]`    | source marked dirty, or the schema's cluster content changed |
//! | per-group max-entropy solves  | [`SolveCache`] (canonical form) | never — keys are content-addressed |
//! | consolidated schema + mappings | recomputed each refresh (cheap) | — |
//!
//! Why the reuse is sound: a p-mapping for `(source, mediated schema)`
//! depends only on the source's attribute list, the schema's cluster
//! contents, and the pairwise similarities between them. Vocabulary ids are
//! append-only (and removal keeps them stable), similarities are pinned in
//! `sim_cache`, and mediated schemas are compared by value — so an
//! unchanged `(source, schema-content)` pair under unchanged similarities
//! must yield the identical mapping, and we reuse it without re-solving.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use udi_obs::{CounterSink, FanoutSink, Recorder, Sink, Span, Stopwatch};
use udi_schema::{
    assign_probabilities, build_similarity_graph_via, consolidate_schemas,
    enumerate_mediated_schemas, generate_pmapping_cached, AttrId, Consolidator, EdgeKind,
    FrozenMatrix, Mapping, MediatedSchema, PMapping, PMedSchema, SchemaSet, SimilarityGraph,
    SolveCache, Vocabulary,
};
use udi_similarity::{BlockIndex, Similarity};
use udi_store::{Catalog, Table};

use crate::feedback::Feedback;
use crate::pipeline::{CacheStats, SetupReport, SetupTimings, UdiConfig};
use crate::UdiError;

/// Content signature of the similarity graph: nodes plus every edge with
/// its exact weight bits and certainty class. Equal signatures ⇒ identical
/// graphs ⇒ the `2^u` schema enumeration would return the same list, so it
/// is skipped.
type GraphSignature = (Vec<AttrId>, Vec<(AttrId, AttrId, u64, bool)>);

/// A source's previous p-mapping row, taken out of the engine for moving:
/// `None` if the source was dirty, otherwise one `Option<PMapping>` slot per
/// old schema, emptied as reuse claims each column.
type TakenRow = Option<Vec<Option<PMapping>>>;

fn signature(graph: &SimilarityGraph) -> GraphSignature {
    (
        graph.nodes.clone(),
        graph
            .edges
            .iter()
            .map(|e| (e.a, e.b, e.weight.to_bits(), e.kind == EdgeKind::Certain))
            .collect(),
    )
}

/// The stage-artifact engine behind [`crate::UdiSystem`].
///
/// Owns the catalog and every intermediate product of the setup pipeline,
/// with enough bookkeeping to recompute only what a mutation invalidated.
/// All mutation entry points ([`add_source`](SetupEngine::add_source),
/// [`remove_source`](SetupEngine::remove_source),
/// [`apply_feedback`](SetupEngine::apply_feedback)) only *mark* work; the
/// actual recomputation happens in the next [`refresh`](SetupEngine::refresh).
///
/// `Clone` produces an independent engine over copied artifacts, with two
/// deliberate shares: the `stats` counter aggregate (an `Arc`) and the
/// recorder keep pointing at the original's sinks, so a cloned snapshot's
/// telemetry lands in the same place. The serve layer's clone-on-refresh
/// path relies on this — it clones the current snapshot, mutates the clone
/// off to the side, and publishes it atomically.
#[derive(Debug, Clone)]
pub struct SetupEngine {
    catalog: Catalog,
    config: UdiConfig,
    /// Accumulated human judgments, folded into `sim_cache` on refresh.
    feedback: Feedback,
    /// Stage 1 artifact, maintained in place by mutations.
    schema_set: SchemaSet,
    /// Pinned pairwise similarities, keyed `(min, max)`. Entries are only
    /// ever *overwritten* (by feedback), never dropped, so every artifact
    /// downstream sees one consistent similarity assignment. Ordered so
    /// that iteration (graph signatures, matrix freezing) is deterministic.
    sim_cache: BTreeMap<(AttrId, AttrId), f64>,
    /// n-gram blocking index over the vocabulary, keyed so that index key
    /// `k` is `AttrId(k)`. Vocabulary ids are append-only (and stable
    /// across source removals), so the index is only ever *extended* —
    /// `add_source` never invalidates previously computed postings, and an
    /// incremental refresh re-grams only the newly interned names.
    block: BlockIndex,
    /// Signature of the graph that produced `schemas_raw`.
    graph_sig: Option<GraphSignature>,
    /// Stage 2 artifact: enumerated candidate schemas, pre-probability, in
    /// enumeration order.
    schemas_raw: Vec<MediatedSchema>,
    /// The current p-med-schema (post-probability, sorted). `None` only
    /// before the first refresh.
    pmed: Option<PMedSchema>,
    /// Schema list of `pmed`, in `pmed.schemas()` order — the column order
    /// of `rows`.
    schema_list: Vec<MediatedSchema>,
    /// Stage 3 artifact: `rows[source][schema]`. `None` marks a source
    /// whose row must be (re)computed on the next refresh.
    rows: Vec<Option<Vec<PMapping>>>,
    /// Stage 4 artifacts.
    consolidated: Option<MediatedSchema>,
    cons_rows: Vec<PMapping>,
    /// Canonical-form memo of per-group max-entropy solves, shared across
    /// the whole catalog and across refreshes.
    solve_cache: SolveCache,
    /// Diagnostics of the most recent refresh.
    report: SetupReport,
    /// Always-on aggregate sink: authoritative `engine.*`/`maxent.*`
    /// counter totals, from which each report's [`CacheStats`] view is
    /// derived as a before/after delta.
    stats: Arc<CounterSink>,
    /// Telemetry recorder behind every span and counter the engine emits.
    /// Always enabled: it feeds at least `stats`, plus whatever sink
    /// [`set_sink`](SetupEngine::set_sink) installs.
    recorder: Recorder,
    /// Whether a user trace sink is installed (see
    /// [`set_sink`](SetupEngine::set_sink)) — gates per-source query spans,
    /// which are worth recording in a trace but too chatty for the
    /// always-on counter aggregate.
    user_sink: bool,
    /// Monotonic artifact generation: bumped by every mutation entry point
    /// and every successful refresh. Prepared query plans are compiled
    /// against one generation and silently recompiled when it moves — this
    /// is the plan-cache invalidation rule (see `crate::prepared`).
    generation: u64,
}

/// The schema set a fresh engine imports from `catalog`: sources in catalog
/// order, each attribute interned where it first appears. The snapshot
/// writer numbers attribute ids with it too, so they are the ids a reload
/// sees.
pub(crate) fn import_schema_set(catalog: &Catalog) -> SchemaSet {
    let mut schema_set = SchemaSet::default();
    for (_, table) in catalog.iter_sources() {
        schema_set.add_source(table.name(), table.attributes().iter().map(String::as_str));
    }
    schema_set
}

impl SetupEngine {
    /// Engine over `catalog` with no artifacts computed yet. Call
    /// [`refresh`](SetupEngine::refresh) to configure.
    pub fn new(catalog: Catalog, config: UdiConfig) -> SetupEngine {
        let schema_set = import_schema_set(&catalog);
        let rows = vec![None; catalog.source_count()];
        let stats = Arc::new(CounterSink::new());
        let recorder = Recorder::new(stats.clone());
        let mut solve_cache = SolveCache::new();
        solve_cache.set_recorder(recorder.clone());
        SetupEngine {
            catalog,
            config,
            feedback: Feedback::new(),
            schema_set,
            sim_cache: BTreeMap::new(),
            block: BlockIndex::bigram(),
            graph_sig: None,
            schemas_raw: Vec::new(),
            pmed: None,
            schema_list: Vec::new(),
            rows,
            consolidated: None,
            cons_rows: Vec::new(),
            solve_cache,
            report: SetupReport::default(),
            stats,
            recorder,
            user_sink: false,
            generation: 0,
        }
    }

    /// Install (or remove) a user trace sink. Engine telemetry — stage
    /// spans, per-row build spans, cache counters, solver observations —
    /// then fans out to `sink` in addition to the internal counter
    /// aggregate; pass `None` to go back to counters only.
    pub fn set_sink(&mut self, sink: Option<Arc<dyn Sink>>) {
        self.user_sink = sink.is_some();
        self.recorder = match sink {
            Some(user) => Recorder::new(Arc::new(FanoutSink::new(vec![user, self.stats.clone()]))),
            None => Recorder::new(self.stats.clone()),
        };
        self.solve_cache.set_recorder(self.recorder.clone());
    }

    /// Whether a user trace sink is currently installed. Query execution
    /// emits per-source spans only when tracing — they are diagnostic
    /// detail, not serving-path metrics.
    pub fn trace_enabled(&self) -> bool {
        self.user_sink
    }

    /// The current artifact generation. Moves on every mutation
    /// ([`add_source`](SetupEngine::add_source),
    /// [`remove_source`](SetupEngine::remove_source),
    /// [`apply_feedback`](SetupEngine::apply_feedback)) and every
    /// successful [`refresh`](SetupEngine::refresh); anything derived from
    /// the query-facing artifacts (prepared plans, external caches) is
    /// stale once the generation it was built under differs from this.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The engine's telemetry recorder. Query answering records its spans
    /// and counters through this, so one trace covers setup and queries.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Engine assembled from explicit parts (the
    /// [`crate::UdiSystem::from_parts`] path). The supplied p-med-schema and
    /// p-mappings are adopted verbatim; no graph signature is recorded, so
    /// the first subsequent mutation + refresh re-derives the schema from
    /// the similarity pipeline (replacing the manual parts).
    pub(crate) fn from_parts(
        catalog: Catalog,
        pmed: PMedSchema,
        pmappings: Vec<Vec<PMapping>>,
        config: UdiConfig,
    ) -> Result<SetupEngine, UdiError> {
        if catalog.source_count() == 0 {
            return Err(UdiError::EmptyCatalog);
        }
        if pmappings.len() != catalog.source_count() {
            return Err(UdiError::MappingRowMismatch {
                expected: catalog.source_count(),
                got: pmappings.len(),
            });
        }
        for (i, row) in pmappings.iter().enumerate() {
            if row.len() != pmed.len() {
                return Err(UdiError::MappingColumnMismatch {
                    source: i,
                    expected: pmed.len(),
                    got: row.len(),
                });
            }
        }
        let mut engine = SetupEngine::new(catalog, config);
        let schema_list: Vec<MediatedSchema> =
            pmed.schemas().iter().map(|(m, _)| m.clone()).collect();
        let consolidated = consolidate_schemas(&schema_list);
        let consolidator = Consolidator::new(&pmed, &consolidated);
        let cons_rows: Vec<PMapping> = pmappings
            .iter()
            .map(|per_schema| consolidator.consolidate(per_schema))
            .collect();
        // Timings are deliberately `None` on the manual-assembly path:
        // nothing was measured because nothing was computed beyond
        // consolidation. `n_frequent` is still derivable from the schema
        // set, so it is reported.
        engine.report = SetupReport {
            n_sources: engine.catalog.source_count(),
            n_attributes: engine.schema_set.vocab().len(),
            n_frequent: engine
                .schema_set
                .frequent_attributes(engine.config.params.theta)
                .len(),
            n_schemas: pmed.len(),
            n_mappings: pmappings.iter().flatten().map(PMapping::len).sum(),
            n_consolidated_mappings: cons_rows.iter().map(PMapping::len).sum(),
            ..SetupReport::default()
        };
        engine.schema_list = schema_list;
        engine.pmed = Some(pmed);
        engine.rows = pmappings.into_iter().map(Some).collect();
        engine.consolidated = Some(consolidated);
        engine.cons_rows = cons_rows;
        Ok(engine)
    }

    /// Register a new source. Only the new source's p-mapping row is marked
    /// for computation; existing artifacts are invalidated only if the new
    /// source actually changes the similarity graph (new frequent
    /// attributes, shifted frequencies) — [`refresh`](SetupEngine::refresh)
    /// detects that via the graph signature.
    /// `Err(UdiError::Store)` if the catalog's `u32` id space is exhausted;
    /// the engine is left untouched in that case (the catalog is registered
    /// first, before any engine-side state moves).
    pub fn add_source(&mut self, table: Table) -> Result<(), UdiError> {
        let name = table.name().to_owned();
        let attrs: Vec<String> = table.attributes().to_vec();
        self.catalog.add_source(table).map_err(UdiError::Store)?;
        self.schema_set
            .add_source(&name, attrs.iter().map(String::as_str));
        self.rows.push(None);
        self.generation += 1;
        Ok(())
    }

    /// Drop the source named `name`. Vocabulary ids stay stable (orphaned
    /// attributes fall out of the frequent set by frequency); surviving
    /// sources keep their cached rows unless the schema list changes.
    pub fn remove_source(&mut self, name: &str) -> Result<Table, UdiError> {
        let table = self.catalog.remove_source(name).map_err(UdiError::Store)?;
        let idx = self
            .schema_set
            .sources()
            .iter()
            .position(|s| s.name == name)
            .ok_or(UdiError::Internal(
                "schema set lost alignment with the catalog",
            ))?;
        self.schema_set.remove_source(name);
        self.rows.remove(idx);
        // The next refresh reuses the consolidation outright when schemas
        // and probabilities do not move; its rows must still line up with
        // the sources then.
        if idx < self.cons_rows.len() {
            self.cons_rows.remove(idx);
        }
        self.generation += 1;
        Ok(table)
    }

    /// Fold human judgments in: judged pairs are pinned to similarity 1/0
    /// in the similarity cache, and only the sources that contain a judged
    /// attribute are marked dirty. Downstream stages recompute on the next
    /// refresh exactly as far as the graph signature and schema list
    /// actually move.
    pub fn apply_feedback(&mut self, feedback: &Feedback) {
        let vocab = self.schema_set.vocab();
        // Mark sources containing a judged endpoint before merging, using
        // the *new* judgments only.
        let mut judged_attrs: BTreeSet<AttrId> = BTreeSet::new();
        for (a, b, _) in feedback.judgments() {
            if let Some(x) = vocab.id_of(a) {
                judged_attrs.insert(x);
            }
            if let Some(y) = vocab.id_of(b) {
                judged_attrs.insert(y);
            }
        }
        for (i, source) in self.schema_set.sources().iter().enumerate() {
            if source.attrs.iter().any(|a| judged_attrs.contains(a)) {
                if let Some(slot) = self.rows.get_mut(i) {
                    *slot = None;
                }
            }
        }
        self.feedback.merge(feedback);
        // Cached pair values are corrected eagerly as well, so the graph
        // signature comparison in the next refresh sees the post-feedback
        // world.
        apply_feedback_overrides(&self.feedback, &self.schema_set, &mut self.sim_cache);
        self.generation += 1;
    }

    /// Recompute every invalidated stage artifact under `measure`,
    /// reusing the rest. Idempotent: a refresh with nothing dirty reuses
    /// every row and answers every solve from cache.
    ///
    /// On error (e.g. a matching-count explosion) the query-facing
    /// artifacts — p-med-schema, consolidated schema and consolidated
    /// p-mappings — keep serving the state of the last successful refresh;
    /// the per-schema p-mapping rows are marked dirty and recomputed by
    /// the next successful refresh.
    pub fn refresh(&mut self, measure: &(dyn Similarity + Sync)) -> Result<(), UdiError> {
        if self.catalog.source_count() == 0 {
            return Err(UdiError::EmptyCatalog);
        }
        let params = self.config.params.clone();
        let mut timings = SetupTimings::default();
        let counters_before = self.stats.snapshot();
        let mut root = self.recorder.span("engine.refresh");
        root.field("n_sources", self.catalog.source_count());

        // Stage 1 — import. The schema set is maintained in place by the
        // mutations; here we only re-pin judged pairs (covers attributes
        // interned since the judgment arrived).
        let t0 = Stopwatch::start();
        let s1 = root.child("engine.import");
        apply_feedback_overrides(&self.feedback, &self.schema_set, &mut self.sim_cache);
        s1.close();
        timings.import = t0.elapsed();

        // Stage 2 — p-med-schema. The graph itself is cheap to rebuild
        // (cache lookups); the expensive 2^u enumeration is skipped when
        // the signature is unchanged. Probabilities (Algorithm 2) are
        // linear and always recomputed.
        let t1 = Stopwatch::start();
        let mut s2 = root.child("engine.med_schema");
        let wrapped = self.feedback.wrap(measure);
        let nodes = self.schema_set.frequent_attributes(params.theta);
        // Block: extend the n-gram index over any newly interned names and
        // narrow the quadratic frequent-pair space to candidates sharing a
        // gram. Pruned pairs stay out of the similarity cache, which the
        // frozen matrix reads as similarity 0 — the same treatment every
        // sub-threshold pair already gets, so the graph (and therefore the
        // enumeration) is unchanged on corpora where blocking is lossless.
        // Judged pairs bypass blocking entirely: stage 1 pins them straight
        // into the cache.
        let stage2_cands: Option<Vec<(u32, u32)>> = if self.config.blocking {
            let keys: Vec<u32> = nodes.iter().map(|a| a.0).collect();
            let all = keys.len().saturating_sub(1) * keys.len() / 2;
            Some(blocked(&s2, all, || {
                let vocab_len = self.schema_set.vocab().len();
                while self.block.len() < vocab_len {
                    let count = self.block.len();
                    let next = u32::try_from(count).map(AttrId).map_err(|_| {
                        UdiError::IdSpaceExhausted {
                            what: "blocking attr",
                            count,
                        }
                    })?;
                    self.block.insert(self.schema_set.vocab().name(next));
                }
                Ok(self.block.pairs_among(&keys))
            })?)
        } else {
            None
        };
        let ss = s2.child("setup.score");
        match &stage2_cands {
            Some(cands) => ensure_pairs(
                &mut self.sim_cache,
                self.schema_set.vocab(),
                &wrapped,
                cands.iter().map(|&(a, b)| (AttrId(a), AttrId(b))),
                &self.recorder,
            ),
            None => ensure_pairs(
                &mut self.sim_cache,
                self.schema_set.vocab(),
                &wrapped,
                nodes.iter().enumerate().flat_map(|(i, &a)| {
                    nodes
                        .get(i + 1..)
                        .unwrap_or(&[])
                        .iter()
                        .map(move |&b| (a, b))
                }),
                &self.recorder,
            ),
        }
        ss.close();
        let matrix = FrozenMatrix::from_entries(self.sim_cache.iter().map(|(&k, &v)| (k, v)));
        let graph = build_similarity_graph_via(&self.schema_set, &matrix, &params);
        let sig = signature(&graph);
        let mut schemas_reenumerated = false;
        if self.graph_sig.as_ref() != Some(&sig) {
            self.schemas_raw = enumerate_mediated_schemas(&graph, &params);
            self.graph_sig = Some(sig);
            schemas_reenumerated = true;
            self.recorder.count("engine.schemas.reenumerated", 1);
        }
        let mut weighted = assign_probabilities(self.schemas_raw.clone(), &self.schema_set);
        weighted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let pmed = PMedSchema::new(weighted);
        s2.field("n_schemas", pmed.len());
        s2.close();
        timings.med_schema = t1.elapsed();

        // Stage 3 — p-mapping rows. Reuse granularity is per
        // (source, schema-content): a clean source keeps every mapping
        // whose mediated schema also exists in the new list.
        let t2 = Stopwatch::start();
        let s3 = root.child("engine.pmappings");
        let stage3_id = s3.id();
        let new_list: Vec<MediatedSchema> = pmed.schemas().iter().map(|(m, _)| m.clone()).collect();
        let rows_computed_now: usize;
        let new_rows = {
            let all_attrs: Vec<AttrId> = self.schema_set.vocab().iter().map(|(id, _)| id).collect();
            let cluster_attrs: Vec<AttrId> = {
                let mut set = BTreeSet::new();
                for m in &new_list {
                    set.extend(m.attribute_set());
                }
                set.into_iter().collect()
            };
            // Mapping generation reads (source attribute, cluster attribute)
            // similarities; under blocking only gram-sharing pairs are
            // scored. The candidate stream is deterministic and catalog-
            // ordered: cluster attributes ascend (BTreeSet) and each one's
            // candidates ascend (the index emits them sorted).
            if self.config.blocking {
                let all = all_attrs.len() * cluster_attrs.len();
                let cands = blocked(&s3, all, || {
                    Ok(cluster_attrs
                        .iter()
                        .flat_map(|&c| {
                            self.block
                                .candidates_of(c.0)
                                .into_iter()
                                .map(move |a| (AttrId(a), c))
                        })
                        .collect())
                })?;
                let ss = s3.child("setup.score");
                ensure_pairs(
                    &mut self.sim_cache,
                    self.schema_set.vocab(),
                    &wrapped,
                    cands.into_iter(),
                    &self.recorder,
                );
                ss.close();
            } else {
                let ss = s3.child("setup.score");
                ensure_pairs(
                    &mut self.sim_cache,
                    self.schema_set.vocab(),
                    &wrapped,
                    all_attrs
                        .iter()
                        .flat_map(|&a| cluster_attrs.iter().map(move |&c| (a, c))),
                    &self.recorder,
                );
                ss.close();
            }
            let matrix = FrozenMatrix::from_entries(self.sim_cache.iter().map(|(&k, &v)| (k, v)));
            // udi-audit: allow(deterministic-iteration, "reuse-plan index: queried per new schema by key, never iterated")
            let old_pos: HashMap<&MediatedSchema, usize> = self
                .schema_list
                .iter()
                .enumerate()
                .map(|(i, m)| (m, i))
                .collect();
            // Per (source, schema): Some(old column) to reuse, None to
            // compute. Schemas are pairwise distinct, so each old column is
            // claimed by at most one new column — reused mappings can be
            // *moved*, not cloned (cloning thousands of surviving rows
            // costs more than the actual recomputation being avoided).
            let plan: Vec<Vec<Option<usize>>> = self
                .rows
                .iter()
                .map(|row| match row {
                    Some(_) => new_list.iter().map(|m| old_pos.get(m).copied()).collect(),
                    None => vec![None; new_list.len()],
                })
                .collect();
            let rows_reused: usize = plan
                .iter()
                .map(|r| r.iter().filter(|e| e.is_some()).count())
                .sum();
            rows_computed_now = plan
                .iter()
                .map(|r| r.iter().filter(|e| e.is_none()).count())
                .sum();
            if rows_reused > 0 {
                self.recorder
                    .count("engine.rows.reused", rows_reused as u64);
            }
            if rows_computed_now > 0 {
                self.recorder
                    .count("engine.rows.computed", rows_computed_now as u64);
            }

            let sources = self.schema_set.sources();
            let n = sources.len();
            // Take the old rows out for moving; on error below, the rows
            // are left all-dirty and the next refresh recomputes them.
            let mut work: Vec<(usize, TakenRow)> = std::mem::take(&mut self.rows)
                .into_iter()
                .map(|row| row.map(|v| v.into_iter().map(Some).collect()))
                .enumerate()
                .collect();
            let plan = &plan;
            let new_list_ref = &new_list;
            let matrix_ref = &matrix;
            let params_ref = &params;
            let solve_cache = &self.solve_cache;
            // Worker threads cannot carry the stage-3 `Span` guard; they
            // clone the recorder and parent their build spans on its id.
            let recorder = self.recorder.clone();
            let build_row = move |(i, mut old): (usize, TakenRow)| {
                new_list_ref
                    .iter()
                    .enumerate()
                    .map(|(j, med)| match plan.get(i).and_then(|row| row.get(j)).copied().flatten() {
                        Some(oj) => old
                            .as_mut()
                            .and_then(|row| row.get_mut(oj))
                            .and_then(Option::take)
                            .ok_or(UdiError::Internal(
                                "p-mapping reuse plan pointed at a missing or already-claimed column",
                            )),
                        None => match sources.get(i) {
                            Some(source) => {
                                let mut span =
                                    recorder.span_with_parent("engine.pmapping.build", stage3_id);
                                span.field("source", i);
                                span.field("schema", j);
                                generate_pmapping_cached(
                                    source,
                                    med,
                                    matrix_ref,
                                    params_ref,
                                    Some(solve_cache),
                                )
                                .map_err(UdiError::from)
                            }
                            None => Err(UdiError::Internal(
                                "p-mapping build pointed at a missing source",
                            )),
                        },
                    })
                    .collect::<Result<Vec<PMapping>, UdiError>>()
            };
            let built: Result<Vec<Vec<PMapping>>, UdiError> = if self.config.threads <= 1 || n < 2 {
                work.into_iter().map(build_row).collect()
            } else {
                let n_workers = self.config.threads.min(n);
                let chunk = n.div_ceil(n_workers);
                // Contiguous parts in catalog order, concatenated back in
                // the same order: the output does not depend on the worker
                // count, which is a wall-clock knob only.
                let mut parts: Vec<Vec<(usize, TakenRow)>> = Vec::new();
                while !work.is_empty() {
                    let take = chunk.min(work.len());
                    parts.push(work.drain(..take).collect());
                }
                let results: Vec<Result<Vec<Vec<PMapping>>, UdiError>> =
                    std::thread::scope(|scope| {
                        let build_row = &build_row;
                        let handles: Vec<_> = parts
                            .into_iter()
                            .map(|part| {
                                scope.spawn(move || part.into_iter().map(build_row).collect())
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| {
                                h.join().unwrap_or(Err(UdiError::Internal(
                                    "a p-mapping worker thread panicked",
                                )))
                            })
                            .collect()
                    });
                results
                    .into_iter()
                    .try_fold(Vec::with_capacity(n), |mut all, r| {
                        all.extend(r?);
                        Ok(all)
                    })
            };
            match built {
                Ok(rows) => rows,
                Err(e) => {
                    self.rows = vec![None; n];
                    return Err(e);
                }
            }
        };
        s3.close();
        timings.pmappings = t2.elapsed();

        // Stage 4 — recomputed whenever anything upstream moved (schema
        // probabilities shift whenever the catalog does, and they weight
        // every consolidated mapping), with the refinement table hoisted
        // out of the per-source loop via `Consolidator`. A refresh where
        // nothing moved — same schemas, bit-identical probabilities, every
        // row reused — keeps the previous consolidation outright.
        let t3 = Stopwatch::start();
        let s4 = root.child("engine.consolidate");
        let pmed_unchanged = !schemas_reenumerated
            && self.schema_list == new_list
            && self.pmed.as_ref().is_some_and(|old| {
                old.schemas()
                    .iter()
                    .zip(pmed.schemas())
                    .all(|((_, p0), (_, p1))| p0.to_bits() == p1.to_bits())
            });
        let reusable = (pmed_unchanged && rows_computed_now == 0)
            .then(|| self.consolidated.take())
            .flatten();
        let (consolidated, cons_rows) = match reusable {
            Some(prev) => (prev, std::mem::take(&mut self.cons_rows)),
            None => {
                let consolidated = consolidate_schemas(&new_list);
                let consolidator = Consolidator::new(&pmed, &consolidated);
                let cons_rows = new_rows
                    .iter()
                    .map(|per_schema| consolidator.consolidate(per_schema))
                    .collect();
                (consolidated, cons_rows)
            }
        };
        s4.close();
        timings.consolidation = t3.elapsed();

        // Commit — everything below is infallible, so an error above
        // leaves the previous artifacts fully intact. The CacheStats view
        // is derived from the sink: whatever the refresh recorded is what
        // the report says.
        let stats = cache_stats_between(&counters_before, &self.stats.snapshot());
        root.field("n_schemas", pmed.len());
        root.close();
        self.report = SetupReport {
            timings: Some(timings),
            n_sources: self.catalog.source_count(),
            n_attributes: self.schema_set.vocab().len(),
            n_frequent: nodes.len(),
            n_schemas: pmed.len(),
            n_mappings: new_rows.iter().flatten().map(PMapping::len).sum(),
            n_consolidated_mappings: cons_rows.iter().map(PMapping::len).sum(),
            cache: stats,
        };
        self.pmed = Some(pmed);
        self.schema_list = new_list;
        self.rows = new_rows.into_iter().map(Some).collect();
        self.consolidated = Some(consolidated);
        self.cons_rows = cons_rows;
        self.generation += 1;
        Ok(())
    }

    /// The source catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The setup configuration.
    pub fn config(&self) -> &UdiConfig {
        &self.config
    }

    /// Accumulated feedback.
    pub fn feedback(&self) -> &Feedback {
        &self.feedback
    }

    /// Replace the accumulated feedback without marking anything dirty —
    /// for snapshot restore, where the adopted artifacts already reflect
    /// the feedback. The judgments are re-pinned on the next refresh.
    pub(crate) fn set_feedback(&mut self, feedback: Feedback) {
        self.feedback = feedback;
    }

    /// The imported schema set.
    pub fn schema_set(&self) -> &SchemaSet {
        &self.schema_set
    }

    /// The current p-med-schema. Panics before the first successful
    /// refresh (the engine is only exposed configured).
    pub fn pmed(&self) -> &PMedSchema {
        // udi-audit: allow(no-panic-in-lib, "documented panic: UdiSystem only exposes a refreshed engine")
        self.pmed.as_ref().expect("engine not refreshed yet")
    }

    /// The p-mapping between source `src` and possible schema `schema`.
    /// Panics for a source added after the last successful refresh.
    pub fn pmapping(&self, src: usize, schema: usize) -> &PMapping {
        // udi-audit: allow(no-panic-in-lib, "documented panic: indexing a source added after the last refresh")
        &self.rows[src].as_ref().expect("source not yet configured")[schema]
    }

    /// The consolidated mediated schema.
    pub fn consolidated(&self) -> &MediatedSchema {
        self.consolidated
            .as_ref()
            // udi-audit: allow(no-panic-in-lib, "documented panic: UdiSystem only exposes a refreshed engine")
            .expect("engine not refreshed yet")
    }

    /// The consolidated p-mapping of source `src`. An out-of-range index
    /// reads as the trivial empty mapping (sources only gain rows through
    /// refresh, so the fallback is inert in practice).
    pub fn consolidated_pmapping(&self, src: usize) -> &PMapping {
        // udi-audit: allow(shared-mutable-static, "write-once fallback row; no observable mutation after init")
        static EMPTY: OnceLock<PMapping> = OnceLock::new();
        self.cons_rows
            .get(src)
            .unwrap_or_else(|| EMPTY.get_or_init(|| PMapping::new(vec![(Mapping::empty(), 1.0)])))
    }

    /// Diagnostics of the last refresh (or the manual assembly).
    pub fn report(&self) -> &SetupReport {
        &self.report
    }

    /// Cumulative hit/miss counters of the shared max-entropy solve cache.
    pub fn solve_cache_totals(&self) -> (u64, u64) {
        (self.solve_cache.hits(), self.solve_cache.misses())
    }
}

/// Pin every judged pair present in the vocabulary to 1/0 in the
/// similarity cache (latest judgment wins — `Feedback` already resolves
/// contradictions).
fn apply_feedback_overrides(
    feedback: &Feedback,
    set: &SchemaSet,
    sim_cache: &mut BTreeMap<(AttrId, AttrId), f64>,
) {
    let vocab = set.vocab();
    for (a, b, same) in feedback.judgments() {
        if let (Some(x), Some(y)) = (vocab.id_of(a), vocab.id_of(b)) {
            if x != y {
                sim_cache.insert((x.min(y), x.max(y)), if same { 1.0 } else { 0.0 });
            }
        }
    }
}

/// Run one blocking step under a `setup.block` child of `parent`: `step`
/// yields the candidate pairs kept out of `all` possible ones, and the span
/// and the `engine.block.candidates` / `engine.block.pruned` counters
/// record how many were kept and how many pruned.
fn blocked<T>(
    parent: &Span,
    all: usize,
    step: impl FnOnce() -> Result<Vec<T>, UdiError>,
) -> Result<Vec<T>, UdiError> {
    let mut span = parent.child("setup.block");
    let cands = step()?;
    let pruned = all.saturating_sub(cands.len());
    span.count("engine.block.candidates", cands.len() as u64);
    span.count("engine.block.pruned", pruned as u64);
    span.field("candidates", cands.len());
    span.field("pruned", pruned);
    Ok(cands)
}

/// Fill the similarity cache for every requested pair, counting hits and
/// misses. Identity pairs are skipped (both matrix flavors serve them
/// without a cache entry). Hit/miss totals are tallied locally and emitted
/// as two counter deltas at the end — one sink interaction per call, not
/// per pair, so the loop stays as hot as before instrumentation.
fn ensure_pairs(
    sim_cache: &mut BTreeMap<(AttrId, AttrId), f64>,
    vocab: &Vocabulary,
    measure: &dyn Similarity,
    pairs: impl Iterator<Item = (AttrId, AttrId)>,
    recorder: &Recorder,
) {
    let (mut hits, mut misses) = (0u64, 0u64);
    for (a, b) in pairs {
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        match sim_cache.entry(key) {
            std::collections::btree_map::Entry::Occupied(_) => hits += 1,
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(measure.similarity(vocab.name(key.0), vocab.name(key.1)));
                misses += 1;
            }
        }
    }
    if hits > 0 {
        recorder.count("engine.sim.hit", hits);
    }
    if misses > 0 {
        recorder.count("engine.sim.miss", misses);
    }
}

/// The [`CacheStats`] view of one refresh: the delta between two snapshots
/// of the engine's always-on counter sink.
fn cache_stats_between(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> CacheStats {
    let delta = |name: &str| -> u64 {
        after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
    };
    CacheStats {
        sim_hits: delta("engine.sim.hit") as usize,
        sim_misses: delta("engine.sim.miss") as usize,
        schemas_reenumerated: delta("engine.schemas.reenumerated") > 0,
        rows_reused: delta("engine.rows.reused") as usize,
        rows_computed: delta("engine.rows.computed") as usize,
        solve_hits: delta("maxent.solve.hit"),
        solve_misses: delta("maxent.solve.miss"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udi_store::Table;

    fn table(name: &str, attrs: &[&str]) -> Table {
        let mut t = Table::new(name, attrs.iter().copied());
        let row: Vec<String> = attrs.iter().map(|a| format!("{a}-val")).collect();
        t.push_raw_row(row).unwrap();
        t
    }

    fn people_catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, attrs) in [
            ("s1", vec!["name", "phone", "address"]),
            ("s2", vec!["name", "phone-no", "addr"]),
            ("s3", vec!["name", "phone", "address"]),
        ] {
            c.add_source(table(name, &attrs)).unwrap();
        }
        c
    }

    #[test]
    fn refresh_twice_is_all_cache_hits() {
        let measure = UdiConfig::default().measure.build();
        let mut e = SetupEngine::new(people_catalog(), UdiConfig::default());
        e.refresh(&*measure).unwrap();
        let first = e.report().cache;
        assert!(first.sim_misses > 0);
        assert!(first.rows_computed > 0);
        assert_eq!(first.rows_reused, 0);

        e.refresh(&*measure).unwrap();
        let second = e.report().cache;
        assert_eq!(second.sim_misses, 0, "all pair similarities pinned");
        assert_eq!(second.rows_computed, 0, "all rows reused");
        assert!(second.rows_reused > 0);
        assert!(!second.schemas_reenumerated, "graph signature unchanged");
        assert_eq!(second.solve_misses, 0);
    }

    #[test]
    fn add_source_recomputes_only_the_new_row() {
        let measure = UdiConfig::default().measure.build();
        let mut e = SetupEngine::new(people_catalog(), UdiConfig::default());
        e.refresh(&*measure).unwrap();
        let schemas_before = e.pmed().len();

        // A source whose attributes are all existing vocabulary: the graph
        // signature is untouched (same frequent set, same weights), so
        // only the new row is computed.
        e.add_source(table("s4", &["name", "phone"])).unwrap();
        e.refresh(&*measure).unwrap();
        let stats = e.report().cache;
        assert_eq!(e.report().n_sources, 4);
        assert_eq!(stats.rows_computed, schemas_before, "one new row");
        assert_eq!(stats.rows_reused, 3 * schemas_before, "old rows survive");
    }

    #[test]
    fn remove_source_drops_the_row_and_keeps_ids_stable() {
        let measure = UdiConfig::default().measure.build();
        let mut e = SetupEngine::new(people_catalog(), UdiConfig::default());
        e.refresh(&*measure).unwrap();
        let phone_no = e.schema_set().vocab().id_of("phone-no").unwrap();

        let dropped = e.remove_source("s2").unwrap();
        assert_eq!(dropped.name(), "s2");
        e.refresh(&*measure).unwrap();
        assert_eq!(e.report().n_sources, 2);
        assert_eq!(e.schema_set().vocab().id_of("phone-no"), Some(phone_no));
        assert_eq!(e.schema_set().frequency(phone_no), 0.0);
        assert!(e.remove_source("s2").is_err(), "already gone");
    }

    #[test]
    fn remove_source_keeps_consolidated_rows_aligned() {
        // Dropping s1 leaves s2 and s3 symmetric, so the schemas and their
        // probabilities stay bit-identical and the consolidation is reused;
        // each remaining source must keep its own consolidated row.
        let measure = UdiConfig::default().measure.build();
        let mut e = SetupEngine::new(people_catalog(), UdiConfig::default());
        e.refresh(&*measure).unwrap();
        e.remove_source("s1").unwrap();
        e.refresh(&*measure).unwrap();
        let vocab = e.schema_set().vocab();
        for (s, (_, t)) in e.catalog().iter_sources().enumerate() {
            for (m, _) in e.consolidated_pmapping(s).mappings() {
                for (a, _) in m.correspondences() {
                    let a = vocab.name(a);
                    assert!(t.attributes().iter().any(|x| x == a), "{a} in row {s}");
                }
            }
        }
    }

    #[test]
    fn feedback_dirties_only_touched_sources() {
        let measure = UdiConfig::default().measure.build();
        let mut e = SetupEngine::new(people_catalog(), UdiConfig::default());
        e.refresh(&*measure).unwrap();
        let n_schemas = e.pmed().len();

        // `address`/`addr` touches s1, s2, s3 minus... s1 and s3 have
        // `address`, s2 has `addr`: all three contain an endpoint here, so
        // judge a pair touching only s2 instead.
        let mut f = Feedback::new();
        f.confirm_different("phone-no", "addr");
        e.apply_feedback(&f);
        e.refresh(&*measure).unwrap();
        let stats = e.report().cache;
        // Only s2 contains phone-no/addr → at most one source recomputed
        // (times the current schema count), unless the judgment changed
        // the schema list itself.
        if !stats.schemas_reenumerated {
            assert_eq!(stats.rows_computed, e.pmed().len());
        }
        let _ = n_schemas;
    }

    #[test]
    fn refresh_on_empty_catalog_is_rejected() {
        let mut e = SetupEngine::new(Catalog::new(), UdiConfig::default());
        let measure = UdiConfig::default().measure.build();
        assert!(matches!(e.refresh(&*measure), Err(UdiError::EmptyCatalog)));
    }
}
