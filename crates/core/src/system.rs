//! The configured UDI system: a thin facade over the incremental
//! [`SetupEngine`].
//!
//! [`UdiSystem::setup`] is a one-shot drive of the engine; the incremental
//! entry points ([`UdiSystem::add_source`], [`UdiSystem::remove_source`],
//! [`UdiSystem::apply_feedback`]) mutate the engine's inputs and refresh,
//! recomputing only the stage artifacts the mutation invalidated. Both
//! paths run the identical stage code, so a system evolved incrementally
//! answers queries exactly like one set up from scratch on the same
//! catalog and feedback.

use udi_schema::{MediatedSchema, PMapping, PMedSchema, SchemaSet};
use udi_similarity::Similarity;
use udi_store::{Catalog, Table};

use crate::engine::SetupEngine;
use crate::feedback::Feedback;
use crate::pipeline::{SetupReport, UdiConfig};
use crate::prepared::PlanCache;
use crate::UdiError;

/// A fully configured data integration system: sources, probabilistic
/// mediated schema, p-mappings, and the consolidated schema exposed to
/// users.
///
/// `Clone` copies the engine's artifacts, with their caches (telemetry
/// sinks stay shared — see [`SetupEngine`]'s `Clone` notes), and starts
/// an empty plan cache: a clone is made to be mutated (the serve layer's
/// clone-mutate-publish refresh), and a mutation empties the cache anyway.
#[derive(Debug)]
pub struct UdiSystem {
    engine: SetupEngine,
    /// Prepared-query plans, keyed by `(pooling, query text)`. Every
    /// artifact mutation replaces the cache with an empty one
    /// ([`mutate`](UdiSystem::mutate)), so each plan is current — see
    /// [`crate::prepared`].
    plans: PlanCache,
}

impl Clone for UdiSystem {
    fn clone(&self) -> UdiSystem {
        UdiSystem::over(self.engine.clone())
    }
}

impl UdiSystem {
    /// Run the complete self-configuration pipeline with the configured
    /// similarity measure.
    pub fn setup(catalog: Catalog, config: UdiConfig) -> Result<UdiSystem, UdiError> {
        let measure = config.measure.build();
        Self::setup_inner(catalog, &*measure, config)
    }

    /// Run setup with a caller-supplied similarity measure (the pipeline
    /// treats the matcher as a black box, as §4.1 prescribes). The measure
    /// must be `Sync` so p-mapping generation can fan out across
    /// `config.threads` workers.
    ///
    /// This is a batch entry point: `measure` is not kept. A later
    /// mutation ([`add_source`](UdiSystem::add_source),
    /// [`remove_source`](UdiSystem::remove_source),
    /// [`apply_feedback`](UdiSystem::apply_feedback)) refreshes under the
    /// measure `config.measure` builds, mixing two similarity functions
    /// into one similarity cache unless the two agree.
    ///
    /// Blocking is force-disabled on this path, whatever `config` says:
    /// the n-gram index only scores pairs sharing a character bigram,
    /// which is justified for the built-in measures on realistic labels
    /// but can silently starve an arbitrary matcher — a
    /// [`Feedback::wrap`]ped measure, for instance, may score a pair high
    /// that shares no gram at all. Black-box measures are scored
    /// exhaustively, exactly like [`setup`](UdiSystem::setup) with
    /// `blocking: false`.
    pub fn setup_with_measure(
        catalog: Catalog,
        measure: &(dyn Similarity + Sync),
        mut config: UdiConfig,
    ) -> Result<UdiSystem, UdiError> {
        config.blocking = false;
        Self::setup_inner(catalog, measure, config)
    }

    fn setup_inner(
        catalog: Catalog,
        measure: &(dyn Similarity + Sync),
        config: UdiConfig,
    ) -> Result<UdiSystem, UdiError> {
        let mut engine = SetupEngine::new(catalog, config);
        engine.refresh(measure)?;
        Ok(UdiSystem::over(engine))
    }

    /// A system over `engine`, with an empty plan cache.
    fn over(engine: SetupEngine) -> UdiSystem {
        UdiSystem {
            engine,
            plans: PlanCache::new(),
        }
    }

    /// [`setup`](UdiSystem::setup) with a trace sink installed *before* the
    /// initial refresh, so the trace covers the whole configuration run:
    /// stage spans, per-row build spans, cache counters, and solver
    /// observations (see `OBSERVABILITY.md` for the span taxonomy).
    pub fn setup_observed(
        catalog: Catalog,
        config: UdiConfig,
        sink: std::sync::Arc<dyn udi_obs::Sink>,
    ) -> Result<UdiSystem, UdiError> {
        let measure = config.measure.build();
        let mut engine = SetupEngine::new(catalog, config);
        engine.set_sink(Some(sink));
        engine.refresh(&*measure)?;
        Ok(UdiSystem::over(engine))
    }

    /// Install (or, with `None`, remove) a trace sink on the underlying
    /// engine. Subsequent refreshes and queries record through it; the
    /// internal counter aggregate behind [`SetupReport`] stays on either
    /// way.
    pub fn set_sink(&mut self, sink: Option<std::sync::Arc<dyn udi_obs::Sink>>) {
        self.engine.set_sink(sink);
    }

    /// Assemble a system from explicitly supplied parts: a catalog, a
    /// p-med-schema, and one p-mapping per `(source, possible schema)` pair
    /// (`pmappings[source][schema]`). Consolidation runs automatically.
    ///
    /// This is the pay-as-you-go improvement hook: an administrator (or a
    /// feedback loop) can replace the automatically generated schema or
    /// mappings with corrected ones and keep the same query-answering
    /// machinery. It is also how the worked examples of the paper (Figure 1)
    /// are reproduced exactly.
    ///
    /// The report carries no timings (nothing beyond consolidation is
    /// computed, so there is nothing to measure); `n_frequent` is still
    /// derived from the imported schema set under the default θ. Note that
    /// a subsequent incremental mutation re-derives the mediated schema
    /// from the similarity pipeline, replacing the manual parts.
    pub fn from_parts(
        catalog: Catalog,
        pmed: PMedSchema,
        pmappings: Vec<Vec<PMapping>>,
    ) -> Result<UdiSystem, UdiError> {
        let engine = SetupEngine::from_parts(catalog, pmed, pmappings, UdiConfig::default())?;
        Ok(UdiSystem::over(engine))
    }

    /// Register a new source and re-configure incrementally: only the new
    /// source's p-mappings (and whatever the new source shifts — attribute
    /// frequencies, the similarity graph) are recomputed; every unaffected
    /// stage artifact is reused. The result is identical to a fresh
    /// [`setup`](UdiSystem::setup) over the extended catalog.
    ///
    /// On error the source stays registered but unconfigured; the query
    /// surface keeps serving the last successful state, and a later
    /// successful mutation completes the new source.
    pub fn add_source(&mut self, table: Table) -> Result<(), UdiError> {
        self.mutate(|engine| engine.add_source(table))
    }

    /// Drop the source named `name` and re-configure incrementally.
    /// Returns the removed table. Attribute ids stay stable; attributes
    /// now orphaned simply fall out of the frequent set.
    pub fn remove_source(&mut self, name: &str) -> Result<Table, UdiError> {
        self.mutate(|engine| engine.remove_source(name))
    }

    /// Fold human judgments in and re-configure incrementally: judged
    /// pairs are pinned to similarity 1/0, and only the artifacts they
    /// reach (graph → schemas → mappings of the touched sources) are
    /// recomputed. Equivalent to a fresh
    /// [`setup_with_measure`](UdiSystem::setup_with_measure) under
    /// [`Feedback::wrap`], at a fraction of the work.
    pub fn apply_feedback(&mut self, feedback: &Feedback) -> Result<(), UdiError> {
        self.mutate(|engine| {
            engine.apply_feedback(feedback);
            Ok(())
        })
    }

    /// Every mutation runs through here: apply `change` to the engine,
    /// refresh under `config.measure`, then empty the plan cache, on
    /// success and on error alike. This is the plan cache's one
    /// invalidation rule.
    fn mutate<T>(
        &mut self,
        change: impl FnOnce(&mut SetupEngine) -> Result<T, UdiError>,
    ) -> Result<T, UdiError> {
        let out = change(&mut self.engine).and_then(|value| {
            let measure = self.engine.config().measure.build();
            self.engine.refresh(&*measure).map(|()| value)
        });
        self.plans = PlanCache::new();
        out
    }

    /// The underlying incremental setup engine (read-only).
    pub fn engine(&self) -> &SetupEngine {
        &self.engine
    }

    /// The prepared-plan cache (see [`crate::prepared`]).
    pub(crate) fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Number of cached query plans — a diagnostic for tests and serving
    /// dashboards.
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }

    /// Install previously accumulated feedback without reconfiguring —
    /// used when loading a snapshot, where the supplied p-mappings already
    /// reflect the feedback.
    pub(crate) fn restore_feedback(&mut self, feedback: Feedback) {
        self.engine.set_feedback(feedback);
    }

    /// All feedback folded into the system so far.
    pub fn feedback(&self) -> &Feedback {
        self.engine.feedback()
    }

    /// The underlying source catalog.
    pub fn catalog(&self) -> &Catalog {
        self.engine.catalog()
    }

    /// The imported schema set (vocabulary + source schemas).
    pub fn schema_set(&self) -> &SchemaSet {
        self.engine.schema_set()
    }

    /// The probabilistic mediated schema.
    pub fn pmed(&self) -> &PMedSchema {
        self.engine.pmed()
    }

    /// The p-mapping between source `src` (catalog order) and possible
    /// mediated schema `schema` (`pmed().schemas()` order).
    pub fn pmapping(&self, src: usize, schema: usize) -> &PMapping {
        self.engine.pmapping(src, schema)
    }

    /// The consolidated deterministic mediated schema exposed to users.
    pub fn consolidated(&self) -> &MediatedSchema {
        self.engine.consolidated()
    }

    /// The consolidated (one-to-many) p-mapping for source `src`.
    pub fn consolidated_pmapping(&self, src: usize) -> &PMapping {
        self.engine.consolidated_pmapping(src)
    }

    /// Diagnostics of the most recent (re)configuration, including
    /// per-stage cache hit counters.
    pub fn report(&self) -> &SetupReport {
        self.engine.report()
    }

    /// The exposed mediated schema as `(representative name, members)`,
    /// one entry per consolidated mediated attribute. The representative is
    /// the member that occurs in the most sources ("in practice, we can use
    /// the most frequent source attribute to represent a mediated
    /// attribute"), ties broken lexicographically.
    pub fn exposed_schema(&self) -> Vec<(String, Vec<String>)> {
        let schema_set = self.schema_set();
        self.consolidated()
            .clusters()
            .iter()
            .map(|cluster| {
                let mut members: Vec<(f64, &str)> = cluster
                    .iter()
                    .map(|&a| (schema_set.frequency(a), schema_set.vocab().name(a)))
                    .collect();
                members.sort_by(|(fa, na), (fb, nb)| {
                    fb.partial_cmp(fa)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| na.cmp(nb))
                });
                let rep = members
                    .first()
                    .map(|(_, n)| (*n).to_owned())
                    .unwrap_or_default();
                let names = members.into_iter().map(|(_, n)| n.to_owned()).collect();
                (rep, names)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udi_store::{StoreError, Table};

    fn people_catalog() -> Catalog {
        let mut c = Catalog::new();
        let specs: &[(&str, &[&str])] = &[
            ("s1", &["name", "phone", "address"]),
            ("s2", &["name", "phone-no", "addr"]),
            ("s3", &["name", "phone", "address"]),
            ("s4", &["name", "phone", "city"]),
        ];
        for (name, attrs) in specs {
            let mut t = Table::new(*name, attrs.iter().copied());
            let row: Vec<String> = attrs.iter().map(|a| format!("{a}-val")).collect();
            t.push_raw_row(row).unwrap();
            c.add_source(t).unwrap();
        }
        c
    }

    #[test]
    fn setup_produces_consistent_structure() {
        let udi = UdiSystem::setup(people_catalog(), UdiConfig::default()).unwrap();
        assert_eq!(udi.report().n_sources, 4);
        for src in 0..4 {
            for schema in 0..udi.pmed().len() {
                assert!(udi.pmapping(src, schema).len() >= 1);
            }
            assert!(udi.consolidated_pmapping(src).len() >= 1);
        }
        // phone and phone-no should share a consolidated cluster.
        let vocab = udi.schema_set().vocab();
        let phone = vocab.id_of("phone").unwrap();
        let phone_no = vocab.id_of("phone-no").unwrap();
        assert_eq!(
            udi.consolidated().cluster_of(phone),
            udi.consolidated().cluster_of(phone_no)
        );
    }

    #[test]
    fn empty_catalog_is_rejected() {
        let err = UdiSystem::setup(Catalog::new(), UdiConfig::default()).unwrap_err();
        assert!(matches!(err, UdiError::EmptyCatalog));
    }

    #[test]
    fn from_parts_rejects_misshapen_mappings() {
        let udi = UdiSystem::setup(people_catalog(), UdiConfig::default()).unwrap();
        let pmed = udi.pmed().clone();
        let rows: Vec<Vec<PMapping>> = (0..4)
            .map(|s| {
                (0..pmed.len())
                    .map(|m| udi.pmapping(s, m).clone())
                    .collect()
            })
            .collect();

        // Wrong number of rows.
        let mut short = rows.clone();
        short.pop();
        let err = UdiSystem::from_parts(udi.catalog().clone(), pmed.clone(), short).unwrap_err();
        assert!(
            matches!(
                err,
                UdiError::MappingRowMismatch {
                    expected: 4,
                    got: 3
                }
            ),
            "{err}"
        );

        // Wrong number of columns in one row.
        let mut ragged = rows.clone();
        ragged[2].pop();
        let err = UdiSystem::from_parts(udi.catalog().clone(), pmed.clone(), ragged).unwrap_err();
        assert!(
            matches!(err, UdiError::MappingColumnMismatch { source: 2, .. }),
            "{err}"
        );

        // Well-formed parts reassemble, with counts in the report.
        let rebuilt = UdiSystem::from_parts(udi.catalog().clone(), pmed, rows).unwrap();
        assert_eq!(rebuilt.consolidated(), udi.consolidated());
        assert_eq!(rebuilt.report().n_frequent, udi.report().n_frequent);
        assert!(
            rebuilt.report().timings.is_none(),
            "manual assembly measures nothing"
        );
    }

    #[test]
    fn incremental_add_matches_batch_setup() {
        let mut catalog = people_catalog();
        let mut t = Table::new("s5", ["name", "phone", "zip"]);
        t.push_raw_row(["n", "p", "z"]).unwrap();
        catalog.add_source(t.clone()).unwrap();

        let batch = UdiSystem::setup(catalog, UdiConfig::default()).unwrap();

        let mut incr = UdiSystem::setup(people_catalog(), UdiConfig::default()).unwrap();
        incr.add_source(t).unwrap();

        assert_eq!(incr.pmed().len(), batch.pmed().len());
        for ((ma, pa), (mb, pb)) in incr.pmed().schemas().iter().zip(batch.pmed().schemas()) {
            assert_eq!(ma, mb);
            assert!((pa - pb).abs() < 1e-12);
        }
        assert_eq!(incr.consolidated(), batch.consolidated());
        for src in 0..5 {
            for schema in 0..batch.pmed().len() {
                assert_eq!(
                    incr.pmapping(src, schema).mappings(),
                    batch.pmapping(src, schema).mappings()
                );
            }
        }
    }

    #[test]
    fn remove_source_reconfigures() {
        let mut udi = UdiSystem::setup(people_catalog(), UdiConfig::default()).unwrap();
        let t = udi.remove_source("s2").unwrap();
        assert_eq!(t.name(), "s2");
        assert_eq!(udi.report().n_sources, 3);
        // phone-no left with s2; it must be gone from the consolidated
        // schema.
        let vocab = udi.schema_set().vocab();
        let phone_no = vocab.id_of("phone-no").unwrap();
        assert_eq!(udi.consolidated().cluster_of(phone_no), None);
        assert!(matches!(
            udi.remove_source("nope"),
            Err(UdiError::Store(StoreError::UnknownSourceName(_)))
        ));
    }

    #[test]
    fn failed_mutation_still_empties_the_plan_cache() {
        let mut catalog = Catalog::new();
        let mut t = Table::new("s1", ["name", "phone"]);
        t.push_raw_row(["Alice", "123"]).unwrap();
        catalog.add_source(t).unwrap();
        let mut udi = UdiSystem::setup(catalog, UdiConfig::default()).unwrap();
        udi.answer(&udi_query::parse_query("SELECT name FROM people").unwrap());
        assert_eq!(udi.plan_cache_len(), 1);
        // Removing the last source leaves nothing to configure: the
        // refresh fails, but the engine has moved, so the plan must go.
        assert!(matches!(
            udi.remove_source("s1"),
            Err(UdiError::EmptyCatalog)
        ));
        assert_eq!(udi.plan_cache_len(), 0);
    }

    #[test]
    fn exposed_schema_picks_most_frequent_representative() {
        let udi = UdiSystem::setup(people_catalog(), UdiConfig::default()).unwrap();
        let exposed = udi.exposed_schema();
        // `phone` occurs in 3 sources, `phone-no` in 1 → representative is
        // `phone`.
        let phone_entry = exposed
            .iter()
            .find(|(_, members)| members.iter().any(|m| m == "phone-no"))
            .expect("phone cluster present");
        assert_eq!(phone_entry.0, "phone");
    }

    #[test]
    fn custom_corpus_aware_measure_plugs_in() {
        // §4.1: the pipeline treats the matcher as a black box. Soft
        // TF-IDF needs the corpus up front, so it goes through
        // `setup_with_measure`.
        let catalog = people_catalog();
        let names: Vec<String> = catalog.attribute_universe().map(str::to_owned).collect();
        let measure = udi_similarity::SoftTfIdf::from_names(&names);
        let udi = UdiSystem::setup_with_measure(catalog, &measure, UdiConfig::default()).unwrap();
        assert!(udi.report().n_schemas >= 1);
        let vocab = udi.schema_set().vocab();
        let name = vocab.id_of("name").unwrap();
        assert!(udi.consolidated().cluster_of(name).is_some());
    }

    #[test]
    fn report_counts_are_plausible() {
        let udi = UdiSystem::setup(people_catalog(), UdiConfig::default()).unwrap();
        let r = udi.report();
        assert_eq!(r.n_attributes, 6); // name, phone, address, phone-no, addr, city
        assert!(r.n_frequent >= 3);
        assert!(r.n_schemas >= 1);
        assert!(
            r.n_mappings >= r.n_sources,
            "at least one mapping per source"
        );
        assert!(r.n_consolidated_mappings >= r.n_sources);
        // A fresh setup computes everything.
        assert_eq!(r.cache.rows_reused, 0);
        assert_eq!(r.cache.rows_computed, r.n_sources * r.n_schemas);
        assert!(r.cache.sim_misses > 0);
    }
}
