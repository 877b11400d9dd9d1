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
//! * [`ChainMap`] — an append-only, weight-capped, **lock-free** map
//!   `(tag, text) → value`: a fixed array of append-only bucket chains
//!   built from `OnceLock` links. Lookups are plain atomic loads
//!   (wait-free, no mutex, no poisoning), appends reserve their weight and
//!   publish a new tail node with a single `OnceLock::set`, and a key
//!   appears at most once. Nothing is ever unlinked, and nothing needs to
//!   be: the owner replaces the whole map when what its values were
//!   computed from changes. Two caches are built on it: the plan cache
//!   below, and udi-serve's per-record answer cache (weight = bytes).
//! * `PlanCache` (crate-private) — the `ChainMap` `(pooling, query text)
//!   → plan`, weight 1 per plan, consulted transparently by every
//!   `UdiSystem::answer*` call. The key is the *pooling*, not the answer
//!   path: paths that pool alike (consolidated, by-tuple, aggregate)
//!   share one plan. The one invalidation rule is that every artifact
//!   mutation (`UdiSystem::add_source`, `remove_source`,
//!   `apply_feedback`) replaces the whole cache with an empty one, so a
//!   cached plan is always current. Lookups emit `query.plan.hit` /
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

/// Upper bound on cached plans. Small: a serving workload repeats a
/// modest set of query shapes, and one plan is a few bindings per source.
/// The chains are append-only, so at the cap the cache stops accepting new
/// plans (callers still get their compiled plan, it just isn't retained);
/// any artifact mutation resets the cache and the bound with it.
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

/// A query compiled against the engine's current stage artifacts.
/// Obtained from [`UdiSystem::prepare`] (or transparently via the plan
/// cache inside every `answer*` call).
#[derive(Debug)]
pub struct PreparedQuery {
    /// `None` when some referenced attribute is unknown or unclustered —
    /// the query yields no answers until the artifacts change.
    plan: Option<QueryPlan>,
}

impl PreparedQuery {
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
struct Node<T, V> {
    key: (T, Box<str>),
    value: V,
    next: Link<T, V>,
}

/// A chain's head, or a node's successor: set at most once.
type Link<T, V> = OnceLock<Box<Node<T, V>>>;

/// An append-only, weight-capped, **lock-free** map `(tag, text) → value`:
/// the structure under the plan cache (weight 1 per plan) and udi-serve's
/// per-record answer cache (weight = bytes held).
///
/// Keys are hashed (FNV-1a over the text) onto a fixed set of append-only
/// bucket chains built from `OnceLock` links. Readers never block: every
/// traversal is a sequence of `OnceLock::get` atomic loads (wait-free, no
/// mutex, no poisoning), which is what lets the read paths built on it
/// certify lock-free under the `effect-cert` audit pass. Writers reserve
/// their weight first, then publish a new tail node with one
/// `OnceLock::set`; of two racing appends of one key, the first to reach
/// the chain publishes and the other gives its reservation back. Nothing
/// is ever unlinked or evicted: the owner replaces the whole map when what
/// its values were computed from changes, and at the cap the map simply
/// stops retaining.
pub struct ChainMap<T, V> {
    buckets: Box<[Link<T, V>]>,
    /// Weight reserved so far, across all chains — enforces the cap.
    appended: AtomicUsize,
    cap: usize,
}

impl<T, V> std::fmt::Debug for ChainMap<T, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainMap")
            .field("len", &self.len())
            .field("weight", &self.weight())
            .field("cap", &self.cap)
            .finish()
    }
}

/// FNV-1a over the key text — deterministic across runs (unlike
/// `RandomState`), cheap, and good enough to spread query strings over
/// the chains (`buckets` > 0: `with_cap` builds at least one). Keys that
/// differ only in their tag share a chain.
fn bucket_of(text: &str, buckets: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % buckets
}

impl<T: Copy + Eq, V> ChainMap<T, V> {
    /// Wait-free lookup: walk the key's chain with atomic loads and return
    /// the value published for `(tag, text)`, if any.
    pub fn lookup(&self, tag: T, text: &str) -> Option<&V> {
        let mut cur = self
            .buckets
            .get(bucket_of(text, self.buckets.len()))
            .and_then(|b| b.get());
        while let Some(node) = cur {
            if node.key.0 == tag && *node.key.1 == *text {
                return Some(&node.value);
            }
            cur = node.next.get();
        }
        None
    }

    /// Publish `value()` under `(tag, text)` at the tail of its chain,
    /// unless the key is already there (a racing writer published first:
    /// the entry is dropped and its weight given back) or `weight` does
    /// not fit under the cap. The weight is reserved before the key and
    /// value are built, so a refused entry costs no allocation and the
    /// total stays within the cap even under racing appends. Returns
    /// `false` only when the cap refused the entry.
    pub fn append(&self, tag: T, text: &str, weight: usize, value: impl FnOnce() -> V) -> bool {
        let Some(mut slot) = self.buckets.get(bucket_of(text, self.buckets.len())) else {
            return false;
        };
        let reserved = self
            .appended
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
                w.checked_add(weight).filter(|&total| total <= self.cap)
            });
        if reserved.is_err() {
            return false;
        }
        let mut node = Box::new(Node {
            key: (tag, text.into()),
            value: value(),
            next: OnceLock::new(),
        });
        loop {
            match slot.set(node) {
                Ok(()) => return true,
                Err(returned) => {
                    node = returned;
                    // The slot just observed full stays full forever
                    // (OnceLock is write-once), so get() finds its node.
                    match slot.get() {
                        Some(tail) if tail.key != node.key => slot = &tail.next,
                        _ => {
                            self.appended.fetch_sub(weight, Ordering::Relaxed);
                            return true;
                        }
                    }
                }
            }
        }
    }
}

impl<T, V> ChainMap<T, V> {
    /// An empty map of `buckets` chains holding at most `cap` weight.
    pub fn with_cap(buckets: usize, cap: usize) -> ChainMap<T, V> {
        ChainMap {
            buckets: (0..buckets.max(1)).map(|_| OnceLock::new()).collect(),
            appended: AtomicUsize::new(0),
            cap,
        }
    }

    /// Published entries, one per key — for diagnostics and tests.
    /// Wait-free, like `lookup`.
    pub fn len(&self) -> usize {
        let mut nodes = 0usize;
        for bucket in self.buckets.iter() {
            let mut cur = bucket.get();
            while let Some(node) = cur {
                nodes += 1;
                cur = node.next.get();
            }
        }
        nodes
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.get().is_none())
    }

    /// Total weight of the published entries (plus any reservation an
    /// append in flight holds).
    pub fn weight(&self) -> usize {
        self.appended.load(Ordering::Relaxed)
    }
}

/// The plan cache, owned by [`UdiSystem`] next to the engine: plans keyed
/// by `(pooling, rendered query text)`, weight 1 each. The cache never
/// outlives the artifacts its plans were compiled from: `UdiSystem`
/// replaces it on every mutation.
pub(crate) type PlanCache = ChainMap<Pooling, Arc<PreparedQuery>>;

impl ChainMap<Pooling, Arc<PreparedQuery>> {
    /// Fresh, empty plan cache.
    pub(crate) fn new() -> PlanCache {
        ChainMap::with_cap(PLAN_CACHE_BUCKETS, PLAN_CACHE_CAP)
    }

    /// Look up the plan for `(pooling, text)`, compiling (and caching) it
    /// on a miss. At the cap the caller keeps its compiled plan; the cache
    /// just doesn't retain it. Emits one `query.plan.hit` or
    /// `query.plan.miss` counter per call.
    pub(crate) fn get_or_compile(
        &self,
        pooling: Pooling,
        text: &str,
        recorder: &udi_obs::Recorder,
        compile: impl FnOnce() -> Option<QueryPlan>,
    ) -> Arc<PreparedQuery> {
        if let Some(hit) = self.lookup(pooling, text) {
            recorder.count("query.plan.hit", 1);
            return hit.clone();
        }
        recorder.count("query.plan.miss", 1);
        let prepared = Arc::new(PreparedQuery { plan: compile() });
        self.append(pooling, text, 1, || prepared.clone());
        prepared
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
            cache.get_or_compile(Pooling::Consolidated, &format!("q{i:04}"), rec, empty_plan);
        }
    }

    #[test]
    fn hit_returns_the_cached_plan_without_recompiling() {
        let rec = udi_obs::Recorder::disabled();
        let cache = PlanCache::new();
        let first = cache.get_or_compile(Pooling::Consolidated, "q", &rec, empty_plan);
        let second = cache.get_or_compile(Pooling::Consolidated, "q", &rec, || {
            panic!("hit must not recompile")
        });
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_compiles_of_one_key_publish_one_node() {
        let rec = udi_obs::Recorder::disabled();
        let cache = PlanCache::new();
        fill(&cache, 8, &rec);
        // Two concurrent compiles of the same absent key: the barrier
        // inside `compile` guarantees both pass the miss check before
        // either publishes, so both append — the second finds the key on
        // its way to the tail and publishes nothing.
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    cache.get_or_compile(Pooling::Consolidated, "race", &rec, || {
                        barrier.wait();
                        empty_plan()
                    });
                });
            }
        });
        assert_eq!(cache.len(), 9, "one key, one node");
        assert_eq!(cache.appended.load(Ordering::Relaxed), cache.len());
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
        let plan = cache.get_or_compile(Pooling::Consolidated, "zz-new", &rec, empty_plan);
        assert!(plan.is_answerable());
        assert_eq!(cache.len(), PLAN_CACHE_CAP);
        assert!(cache.lookup(Pooling::Consolidated, "zz-new").is_none());
        assert!(cache.lookup(Pooling::Consolidated, "q0000").is_some());
    }
}
