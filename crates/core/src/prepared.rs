//! The prepared-query serving layer: compile once, execute many times,
//! without the readers ever taking a lock.
//!
//! Every answer path used to redo the same per-query work on every call:
//! resolve the referenced attributes to mediated clusters, then — per
//! source — pool the p-mapping's mappings into distinct binding signatures
//! (`BTreeMap<Vec<Option<AttrId>>, f64>`). For a serving workload that
//! repeats queries over hundreds of sources, that preparation dominates and
//! is identical call after call. This module splits it out:
//!
//! * [`PreparedQuery`] — a query compiled against the current stage
//!   artifacts into execution-ready per-source bindings. Compilation
//!   filters incomplete signatures and zero-mass bindings up front and
//!   lowers each binding to the source columns the query reads (attribute
//!   id → vocabulary name → table column, once per compile), so execution
//!   touches only columns by position and probabilities.
//! * `PlanCache` (crate-private) — a **lock-free** map `(pooling, query
//!   text) → plan` consulted transparently by every `UdiSystem::answer*`
//!   call. The key is the *pooling*, not the answer path: paths that pool
//!   alike (consolidated, by-tuple, aggregate) share one plan.
//!   The structure is a fixed array of append-only bucket chains built
//!   from `OnceLock` links: lookups are plain atomic loads (wait-free, no
//!   mutex, no poisoning), inserts publish a new tail node with a single
//!   `OnceLock::set`. Nothing is ever unlinked — a recompile *shadows* the
//!   older node (lookups prefer the latest match) and artifact mutations
//!   reset the whole cache via `&mut UdiSystem`, which is what actually
//!   bounds stale growth. A plan carries the engine
//!   [`generation`](crate::SetupEngine::generation) it was compiled under;
//!   a generation mismatch is a miss, so the cache can never serve answers
//!   computed from replaced artifacts. Lookups emit `query.plan.hit` /
//!   `query.plan.miss` counters.
//! * `fan_out` (crate-private) — the executor: it runs a per-source step
//!   over every source, sequentially and in catalog order, and collects
//!   the answers by reference ([`AnswerRefs`]). It spawns no
//!   threads and takes no locks (the hot-path certificate proves it);
//!   concurrency comes from serving many requests at once, not from
//!   splitting one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use udi_query::{AnswerRefs, SourceAnswer};
use udi_store::{SourceId, Table};

use crate::system::UdiSystem;

/// Upper bound on cached plans (counting shadowed recompiles). Small: a
/// serving workload repeats a modest set of query shapes, and one plan is a
/// few bindings per source. The chains are append-only, so at the cap the
/// cache stops accepting new plans (callers still get their compiled plan,
/// it just isn't retained); any artifact mutation resets the cache and the
/// bound with it.
const PLAN_CACHE_CAP: usize = 256;

/// Bucket-chain count. Power of two, sized so chains stay short at the
/// cap; more buckets would only buy cache-line spread the workload can't
/// use.
const PLAN_CACHE_BUCKETS: usize = 16;

/// How a plan pools each source's p-mapping into bindings. Part of the
/// cache key: the same query text pools probability mass differently per
/// pooling (the consolidated p-mapping, the per-schema p-mappings weighted
/// by schema probability, or the top mapping alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pooling {
    /// Consolidated mediated schema + consolidated p-mappings.
    Consolidated,
    /// Directly against the p-med-schema (Definition 3.3), per possible
    /// schema weighted by its probability.
    Pmed,
    /// Only each source's single most probable mapping, taken as certain.
    TopMapping,
}

/// One source's execution-ready compiled form: every complete, positive-
/// mass binding the pooled p-mapping induces, in deterministic signature
/// order, each lowered to the table column of every attribute the query
/// reads, in clause order (`Query::columns`), with its pooled probability.
pub(crate) type SourceBindings = Vec<(Vec<usize>, f64)>;

/// The compiled body of a [`PreparedQuery`]: per-source bindings, indexed
/// by catalog position (= `SourceId.0`).
#[derive(Debug)]
pub(crate) struct QueryPlan {
    /// `per_source[i]` holds source `i`'s pooled bindings.
    pub(crate) per_source: Vec<SourceBindings>,
}

/// A query compiled against one generation of the engine's stage
/// artifacts. Obtained from [`UdiSystem::prepare`] (or transparently via
/// the plan cache inside every `answer*` call).
#[derive(Debug)]
pub struct PreparedQuery {
    /// Engine generation the plan was compiled under.
    generation: u64,
    /// `None` when some referenced attribute is unknown or unclustered —
    /// the query yields no answers until the artifacts change.
    plan: Option<QueryPlan>,
}

impl PreparedQuery {
    /// The engine [`generation`](crate::SetupEngine::generation) this plan
    /// was compiled under. The plan is current while the engine still
    /// reports the same generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the query can produce answers at all under this plan's
    /// artifacts (every referenced attribute resolved to a mediated
    /// cluster).
    pub fn is_answerable(&self) -> bool {
        self.plan.is_some()
    }

    /// Total pooled bindings across all sources — a size diagnostic.
    pub fn binding_count(&self) -> usize {
        self.plan
            .as_ref()
            .map(|p| p.per_source.iter().map(Vec::len).sum())
            .unwrap_or(0)
    }

    pub(crate) fn plan(&self) -> Option<&QueryPlan> {
        self.plan.as_ref()
    }
}

/// One link in a bucket chain. Immutable once published; `next` is set at
/// most once, so a reader walking the chain only ever performs `OnceLock::
/// get` — an atomic load.
#[derive(Debug)]
struct Node {
    key: (Pooling, String),
    value: Arc<PreparedQuery>,
    next: OnceLock<Box<Node>>,
}

impl Node {
    /// Whether a node with the same key appears later in this node's
    /// chain (a later recompile shadows this one).
    fn shadowed(&self) -> bool {
        let mut cur = self.next.get();
        while let Some(n) = cur {
            if n.key == self.key {
                return true;
            }
            cur = n.next.get();
        }
        false
    }
}

/// Lock-free plan cache, owned by [`UdiSystem`] next to the engine.
///
/// Keys are `(pooling, rendered query text)`, hashed (FNV-1a) onto a fixed
/// set of append-only chains; values carry their compile-time generation
/// and are treated as misses once the engine generation moves. Readers
/// never block: every traversal is a sequence of `OnceLock::get` atomic
/// loads, which is what lets `UdiSystem::answer*` certify lock-free under
/// the `effect-cert` audit pass. Writers publish with `OnceLock::set`;
/// two racing compiles of one key both succeed and the later append
/// shadows the earlier (both plans are identical by construction).
#[derive(Debug)]
pub(crate) struct PlanCache {
    buckets: [OnceLock<Box<Node>>; PLAN_CACHE_BUCKETS],
    /// Nodes appended so far, across all chains — enforces the cap.
    appended: AtomicUsize,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache {
            buckets: std::array::from_fn(|_| OnceLock::new()),
            appended: AtomicUsize::new(0),
        }
    }
}

/// FNV-1a over the pooling tag and query text — deterministic across runs
/// (unlike `RandomState`), cheap, and good enough to spread a few hundred
/// query strings over 16 chains.
fn bucket_of(pooling: Pooling, text: &str) -> usize {
    let tag: u8 = match pooling {
        Pooling::Consolidated => 1,
        Pooling::Pmed => 2,
        Pooling::TopMapping => 3,
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in std::iter::once(tag).chain(text.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % PLAN_CACHE_BUCKETS
}

impl PlanCache {
    /// Fresh, empty cache.
    pub(crate) fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Wait-free lookup: walk the bucket chain with atomic loads and
    /// return the **latest** value published for `(pooling, text)`, if any.
    fn lookup(&self, pooling: Pooling, text: &str) -> Option<Arc<PreparedQuery>> {
        let mut found: Option<&Arc<PreparedQuery>> = None;
        let mut cur = self
            .buckets
            .get(bucket_of(pooling, text))
            .and_then(|b| b.get());
        while let Some(node) = cur {
            if node.key.0 == pooling && node.key.1 == text {
                found = Some(&node.value);
            }
            cur = node.next.get();
        }
        found.cloned()
    }

    /// Publish `value` at the tail of its key's chain. Refuses (silently)
    /// once the cap is reached — the caller keeps its compiled plan, the
    /// cache just doesn't retain it.
    fn append(&self, key: (Pooling, String), value: Arc<PreparedQuery>) {
        // Reserve a slot first: `fetch_add` hands out at most
        // `PLAN_CACHE_CAP` previous values below the cap, so the node
        // count is exact even under racing inserts.
        if self.appended.fetch_add(1, Ordering::Relaxed) >= PLAN_CACHE_CAP {
            self.appended.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let mut node = Box::new(Node {
            key,
            value,
            next: OnceLock::new(),
        });
        let Some(mut slot) = self.buckets.get(bucket_of(node.key.0, &node.key.1)) else {
            return;
        };
        loop {
            match slot.set(node) {
                Ok(()) => return,
                Err(returned) => {
                    node = returned;
                    // The slot just observed full stays full forever
                    // (OnceLock is write-once), so this get() cannot fail.
                    let Some(tail) = slot.get() else { return };
                    slot = &tail.next;
                }
            }
        }
    }

    /// Look up the plan for `(pooling, text)` at `generation`, compiling
    /// (and caching) it on miss or staleness. Emits one `query.plan.hit` or
    /// `query.plan.miss` counter per call.
    pub(crate) fn get_or_compile(
        &self,
        pooling: Pooling,
        text: &str,
        generation: u64,
        recorder: &udi_obs::Recorder,
        compile: impl FnOnce() -> Option<QueryPlan>,
    ) -> Arc<PreparedQuery> {
        if let Some(hit) = self.lookup(pooling, text) {
            if hit.generation == generation {
                recorder.count("query.plan.hit", 1);
                return hit;
            }
        }
        recorder.count("query.plan.miss", 1);
        let prepared = Arc::new(PreparedQuery {
            generation,
            plan: compile(),
        });
        self.append((pooling, text.to_owned()), prepared.clone());
        prepared
    }

    /// Distinct cached keys (any generation) — for diagnostics and tests.
    /// Shadowed recompiles of a key count once. Wait-free, like `lookup`.
    pub(crate) fn len(&self) -> usize {
        let mut live = 0usize;
        for bucket in &self.buckets {
            let mut cur = bucket.get();
            while let Some(node) = cur {
                if !node.shadowed() {
                    live += 1;
                }
                cur = node.next.get();
            }
        }
        live
    }
}

impl Clone for PlanCache {
    /// Compacting clone: the plans themselves are shared (`Arc`); only the
    /// latest node per key is carried over, dropping shadowed recompiles.
    /// Used by the serve layer's clone-mutate-publish path so a new system
    /// snapshot starts with the old snapshot's warm cache.
    fn clone(&self) -> PlanCache {
        let fresh = PlanCache::new();
        for bucket in &self.buckets {
            let mut cur = bucket.get();
            while let Some(node) = cur {
                if !node.shadowed() {
                    fresh.append(node.key.clone(), node.value.clone());
                }
                cur = node.next.get();
            }
        }
        fresh
    }
}

/// Execute `per_source` over every source in the catalog, **sequentially**
/// and in catalog order, returning the merged [`AnswerRefs`] (borrowing
/// the snapshot's tables) plus the summed `(tuples scanned, answers
/// produced)` counters: each binding scans its whole table.
///
/// This is the executor behind every `UdiSystem::answer*` path: it spawns
/// no threads and takes no locks, so the `effect-cert` audit pass can
/// prove the whole read path quiescent. A plan/catalog shape mismatch
/// degrades to an empty binding set rather than panicking (counted as
/// `query.plan.shape_mismatch`). When a user trace sink is installed, each
/// source gets a `query.source` span parented on `parent`; without a sink
/// those spans are skipped to keep the hot path free of per-source sink
/// traffic.
pub(crate) fn fan_out<'a, F>(
    sys: &'a UdiSystem,
    plan: &QueryPlan,
    parent: u64,
    per_source: F,
) -> (AnswerRefs<'a>, u64, u64)
where
    F: Fn(&'a Table, &[(Vec<usize>, f64)]) -> SourceAnswer<'a>,
{
    let trace = sys.engine().trace_enabled();
    let recorder = sys.engine().recorder();
    // Every source runs before its answer moves into `AnswerRefs`: building
    // that list inside the loop measured ~1.3x slower read-hot p50 latency.
    // The results grow as the scans go, with no up-front size: sized
    // exactly for Car's 817 sources, read-hot peak RSS rose from 115 to
    // 127 MiB (glibc heap layout) at no gain in throughput.
    let mut results: Vec<(SourceId, SourceAnswer<'a>, u64)> = Vec::new();
    for (sid, table) in sys.catalog().iter_sources() {
        let idx = sid.0 as usize;
        let bindings = match plan.per_source.get(idx) {
            Some(b) => b.as_slice(),
            None => {
                recorder.count("query.plan.shape_mismatch", 1);
                &[]
            }
        };
        let s = (bindings.len() * table.row_count()) as u64;
        let answer = if trace {
            let mut span = recorder.span_with_parent("query.source", parent);
            span.field("source", idx);
            let answer = per_source(table, bindings);
            span.field("tuples_scanned", s);
            span.field("answers", answer.len());
            answer
        } else {
            per_source(table, bindings)
        };
        results.push((sid, answer, s));
    }
    let mut answers = AnswerRefs::new();
    let (mut scanned, mut produced) = (0u64, 0u64);
    for (sid, answer, s) in results {
        scanned += s;
        produced += answer.len() as u64;
        answers.add_source(sid, answer);
    }
    (answers, scanned, produced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn empty_plan() -> Option<QueryPlan> {
        Some(QueryPlan {
            per_source: Vec::new(),
        })
    }

    fn fill(cache: &PlanCache, n: usize, rec: &udi_obs::Recorder) {
        for i in 0..n {
            cache.get_or_compile(
                Pooling::Consolidated,
                &format!("q{i:04}"),
                1,
                rec,
                empty_plan,
            );
        }
    }

    #[test]
    fn hit_returns_the_cached_plan_without_recompiling() {
        let rec = udi_obs::Recorder::disabled();
        let cache = PlanCache::new();
        let first = cache.get_or_compile(Pooling::Consolidated, "q", 1, &rec, empty_plan);
        let second = cache.get_or_compile(Pooling::Consolidated, "q", 1, &rec, || {
            panic!("hit must not recompile")
        });
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_recompiles_of_one_key_shadow_not_duplicate() {
        let rec = udi_obs::Recorder::disabled();
        let cache = PlanCache::new();
        fill(&cache, 8, &rec);
        // Two concurrent compiles of the same absent key: the barrier
        // inside `compile` guarantees both pass the miss check before
        // either publishes, so both append — the later node shadows the
        // earlier and `len` still counts the key once.
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    cache.get_or_compile(Pooling::Consolidated, "race", 1, &rec, || {
                        barrier.wait();
                        empty_plan()
                    });
                });
            }
        });
        assert_eq!(cache.len(), 9, "shadowed recompiles must not inflate len");
        assert!(cache.lookup(Pooling::Consolidated, "race").is_some());
        assert!(cache.lookup(Pooling::Consolidated, "q0000").is_some());
    }

    #[test]
    fn fresh_key_at_cap_is_served_but_not_retained() {
        let rec = udi_obs::Recorder::disabled();
        let cache = PlanCache::new();
        fill(&cache, PLAN_CACHE_CAP, &rec);
        assert_eq!(cache.len(), PLAN_CACHE_CAP);
        // The chains are append-only: at the cap nothing is evicted and
        // nothing new is retained — the caller still gets a usable plan.
        let plan = cache.get_or_compile(Pooling::Consolidated, "zz-new", 1, &rec, empty_plan);
        assert!(plan.is_answerable());
        assert_eq!(cache.len(), PLAN_CACHE_CAP);
        assert!(cache.lookup(Pooling::Consolidated, "zz-new").is_none());
        assert!(cache.lookup(Pooling::Consolidated, "q0000").is_some());
    }

    #[test]
    fn stale_generation_is_a_miss_and_latest_shadows() {
        let rec = udi_obs::Recorder::disabled();
        let cache = PlanCache::new();
        cache.get_or_compile(Pooling::Consolidated, "q", 1, &rec, empty_plan);
        let v2 = cache.get_or_compile(Pooling::Consolidated, "q", 2, &rec, empty_plan);
        assert_eq!(v2.generation(), 2);
        assert_eq!(cache.len(), 1);
        let seen = cache.lookup(Pooling::Consolidated, "q").expect("cached");
        assert_eq!(seen.generation(), 2, "lookup must prefer the latest node");
    }

    #[test]
    fn clone_compacts_shadowed_nodes() {
        let rec = udi_obs::Recorder::disabled();
        let cache = PlanCache::new();
        cache.get_or_compile(Pooling::Consolidated, "q", 1, &rec, empty_plan);
        cache.get_or_compile(Pooling::Consolidated, "q", 2, &rec, empty_plan);
        fill(&cache, 4, &rec);
        let snap = cache.clone();
        assert_eq!(snap.len(), cache.len());
        assert_eq!(snap.appended.load(Ordering::Relaxed), snap.len());
        let seen = snap.lookup(Pooling::Consolidated, "q").expect("cached");
        assert_eq!(seen.generation(), 2);
    }
}
