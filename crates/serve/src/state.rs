//! Multi-tenant server state and request dispatch.
//!
//! Each tenant is an **immutable snapshot record**: an `Arc<UdiSystem>`
//! plus the tenant's writer gate. Readers
//! [`Tenant::snapshot`] the `Arc` — a plain reference-count bump, no lock
//! anywhere — and answer against it without ever blocking on a refresh.
//! Mutations go through [`ServeState::mutate_tenant`]: writers serialize
//! on the tenant's gate (shared across record replacements), clone the
//! current snapshot, apply the change off to the side (the expensive part
//! — re-running setup — happens while readers keep using the old
//! snapshot), and publish by replacing the whole `Arc<Tenant>` record in
//! the tenant map. A reader therefore always sees a complete snapshot,
//! old or new, never a torn one — and the read path is certified
//! **lock-free + io-free + spawn-free** by udi-audit's `effect-cert`
//! pass (`audit.toml [effects]`), not just by convention.
//!
//! Each record also owns an **answer cache** (see [`Tenant`]): a repeat
//! of a query on one record writes the stored reply bytes, and a publish
//! builds a new record and so starts an empty cache.
//!
//! [`handle_into`] is the server's dispatcher: it opens a `serve.request`
//! span whose id is the per-request trace id, and, on an answer-cache
//! miss, [`answer_into`] parents the library's `query.answer` span (and,
//! through it, the per-source `query.source` spans) onto that id — one
//! request, one connected trace tree; a hit's trace is the
//! `serve.request` span alone. [`answer_into`] runs
//! [`UdiSystem::answer_refs`] and streams the whole ok reply from the
//! answers by reference straight into the caller's buffer;
//! [`execute_answer`] runs [`UdiSystem::answer_with`] and renders a
//! [`Json`] tree from the owned set instead, kept as the oracle the
//! identity tests and benches compare the wire against. [`handle`] is the
//! matching `Json`-valued dispatcher, and never consults the answer cache.
//! The answer entries, [`Tenant::answer_into`] included, are certified
//! deterministic (`audit.toml [effects]`): everything reachable from them
//! sticks to order-stable containers and injected clocks. The dispatchers
//! themselves are deliberately *not* certified entries — the tenant-map
//! lookup takes the map lock; everything after the lookup routes through
//! the certified helpers ([`Tenant::answer_into`], [`stats_response`],
//! [`Tenant::snapshot`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use udi_core::{ChainMap, Feedback, UdiError, UdiSystem};
use udi_obs::{CounterSink, Recorder, Span};

use crate::json::Json;
use crate::proto::{
    error_response, ok_response, render_answers, reply_prefix_into, reply_tail_into, AnswerPath,
    Op, Request,
};

/// Byte cap of one record's answer cache: 8 MiB, a constant, not a knob.
/// The read-hot set of the Car workload is ~4 MiB of replies, and the cap
/// is what the cache can cost in resident memory when nothing repeats.
/// Every entry weighs its query text plus its stored reply prefix.
pub const ANSWER_CACHE_BYTES: usize = 8 << 20;

/// Bucket chains of one record's answer cache: a cap filled with the
/// smallest entries (~45 bytes: a short query and an empty reply) leaves
/// chains of ~200 nodes.
const ANSWER_CACHE_BUCKETS: usize = 1024;

/// One tenant, as an immutable published record.
///
/// A `Tenant` is never mutated in place: [`ServeState::mutate_tenant`]
/// builds a successor record and swaps the `Arc<Tenant>` in the tenant
/// map. That is what makes [`snapshot`](Tenant::snapshot) lock-free — a
/// reader holding any record (current or superseded) just bumps the
/// `Arc`'s reference count. The `gate`, shared by every record in a
/// tenant's lineage, serializes writers and holds their publish count (1
/// at registration); no read path touches it.
///
/// Each record also owns an **answer cache**, a udi-core `ChainMap` (the
/// structure under the plan cache) capped at [`ANSWER_CACHE_BYTES`]: the
/// reply prefix (the `answers` array through the `generation` field)
/// already rendered on its system, keyed by (answer path, query text).
/// The system never
/// changes under a record, so a stored prefix is always current, and a
/// publish — a new record — starts an empty cache with no hook, stamp or
/// check. A failed mutation publishes nothing and keeps the old record,
/// cache included, which is still correct.
#[derive(Debug)]
pub struct Tenant {
    system: Arc<UdiSystem>,
    gate: Arc<Mutex<u64>>,
    answers: ChainMap<AnswerPath, Box<str>>,
}

impl Tenant {
    /// A record serving `system`, with an empty answer cache.
    fn record(system: UdiSystem, gate: Arc<Mutex<u64>>) -> Arc<Tenant> {
        Arc::new(Tenant {
            system: Arc::new(system),
            gate,
            answers: ChainMap::with_cap(ANSWER_CACHE_BUCKETS, ANSWER_CACHE_BYTES),
        })
    }

    /// The tenant's current system snapshot — a reference-count bump,
    /// nothing else. Certified lock-free + io-free + spawn-free
    /// (`audit.toml [effects]`).
    pub fn snapshot(&self) -> Arc<UdiSystem> {
        Arc::clone(&self.system)
    }

    /// The engine generation of this record's system, the `generation`
    /// every reply about it carries.
    pub fn generation(&self) -> u64 {
        self.system.engine().generation()
    }

    /// Answers `query` on `path` against this record's system and appends
    /// the whole ok reply to `out`: the bytes the free [`answer_into`]
    /// writes. A repeat of a (path, query) on this record writes the
    /// stored reply prefix and only renders the per-request tail (`id`,
    /// `ok`, `path`); a miss renders as [`answer_into`] does and then
    /// keeps a copy of the prefix if the byte cap has room. Counts one
    /// `serve.answer_cache.hit` or `.miss` on `recorder`, plus `.full`
    /// when the cap refuses a prefix. A parse error appends nothing and
    /// caches nothing. Certified deterministic, lock-free, io-free and
    /// spawn-free (`audit.toml`).
    pub fn answer_into(
        &self,
        recorder: &Recorder,
        path: AnswerPath,
        query: &str,
        parent: u64,
        id: Option<i64>,
        out: &mut String,
    ) -> Result<(), udi_query::ParseError> {
        if let Some(prefix) = self.answers.lookup(path, query) {
            recorder.count("serve.answer_cache.hit", 1);
            out.push_str(prefix);
        } else {
            recorder.count("serve.answer_cache.miss", 1);
            let start = out.len();
            answer_prefix_into(&self.system, path, query, parent, out)?;
            let prefix = out.get(start..).unwrap_or_default();
            let weight = query.len() + prefix.len();
            if !self.answers.append(path, query, weight, || prefix.into()) {
                recorder.count("serve.answer_cache.full", 1);
            }
        }
        reply_tail_into(id, path, out);
        Ok(())
    }

    /// Reply prefixes this record's answer cache holds.
    pub fn answer_cache_len(&self) -> usize {
        self.answers.len()
    }

    /// Bytes this record's answer cache holds (query texts plus reply
    /// prefixes), at most [`ANSWER_CACHE_BYTES`].
    pub fn answer_cache_bytes(&self) -> usize {
        self.answers.weight()
    }
}

/// Shared server state: the tenant map plus the serving-layer recorder.
#[derive(Debug, Clone)]
pub struct ServeState {
    tenants: Arc<Mutex<BTreeMap<String, Arc<Tenant>>>>,
    counters: Arc<CounterSink>,
    recorder: Recorder,
}

impl Default for ServeState {
    fn default() -> ServeState {
        ServeState::new()
    }
}

impl ServeState {
    /// Fresh state with a counter-backed recorder.
    pub fn new() -> ServeState {
        let counters = Arc::new(CounterSink::new());
        let recorder = Recorder::new(counters.clone());
        ServeState {
            tenants: Arc::new(Mutex::new(BTreeMap::new())),
            counters,
            recorder,
        }
    }

    /// Registers (or replaces) a tenant serving `system`.
    pub fn register_tenant(&self, name: impl Into<String>, system: UdiSystem) {
        let tenant = Tenant::record(system, Arc::new(Mutex::new(1)));
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.into(), tenant);
    }

    /// Clone-mutate-publish: run `apply` on a private clone of `name`'s
    /// current snapshot, then publish the result by replacing the whole
    /// tenant record. Returns the tenant's publish count, or `None` for an
    /// unknown tenant. Writers serialize on the tenant's gate; readers
    /// keep answering on the old record throughout and are never blocked.
    pub fn mutate_tenant<E>(
        &self,
        name: &str,
        apply: impl FnOnce(&mut UdiSystem) -> Result<(), E>,
    ) -> Option<Result<u64, E>> {
        let gate = Arc::clone(&self.tenant(name)?.gate);
        let mut publishes = gate.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-read under the gate: another writer may have replaced the
        // record between our lookup and the lock.
        let mut next = (*self.tenant(name)?.system).clone();
        if let Err(e) = apply(&mut next) {
            return Some(Err(e));
        }
        *publishes += 1;
        let successor = Tenant::record(next, Arc::clone(&gate));
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_owned(), successor);
        Some(Ok(*publishes))
    }

    /// Looks up a tenant by name.
    pub fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// The serving-layer counters (`serve.requests`, `serve.shed`, ...).
    pub fn counters(&self) -> &Arc<CounterSink> {
        &self.counters
    }

    /// The serving-layer recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

/// Opens the request's `serve.request` span (whose id is the request's
/// trace id) and looks its tenant up. An unknown tenant comes back as the
/// error reply.
fn begin(state: &ServeState, req: &Request) -> Result<(Span, Arc<Tenant>), Json> {
    let mut span = state.recorder.span("serve.request");
    span.field("op", req.op.name());
    span.field("tenant", req.tenant.clone());
    state.recorder.count("serve.requests", 1);
    match state.tenant(&req.tenant) {
        Some(tenant) => Ok((span, tenant)),
        None => {
            state.recorder.count("serve.unknown_tenant", 1);
            Err(error_response(
                req.id,
                &format!("unknown tenant `{}`", req.tenant),
            ))
        }
    }
}

/// Dispatches one parsed request against the state, returning the response
/// value. This is the `Json`-tree form of [`handle_into`]: both render the
/// same bytes, and the server only uses the streaming one.
pub fn handle(state: &ServeState, req: &Request) -> Json {
    let (span, tenant) = match begin(state, req) {
        Ok(begun) => begun,
        Err(reply) => return reply,
    };
    match req.op {
        Op::Prepare => {
            let Some(query) = req.query.as_deref() else {
                return error_response(req.id, "missing query");
            };
            let sys = tenant.snapshot();
            match udi_query::parse_query(query) {
                Ok(q) => {
                    sys.prepare(&q);
                    let mut extra = BTreeMap::new();
                    extra.insert(
                        "plan_cache_len".to_owned(),
                        Json::Int(i64::try_from(sys.plan_cache_len()).unwrap_or(i64::MAX)),
                    );
                    ok_response(req.id, sys.engine().generation(), extra)
                }
                Err(e) => error_response(req.id, &e.to_string()),
            }
        }
        Op::Answer => {
            let Some(query) = req.query.as_deref() else {
                return error_response(req.id, "missing query");
            };
            let sys = tenant.snapshot();
            match execute_answer(&sys, req.path, query, span.id()) {
                Ok(answers) => {
                    let mut extra = BTreeMap::new();
                    extra.insert("answers".to_owned(), answers);
                    extra.insert("path".to_owned(), Json::Str(req.path.name().to_owned()));
                    ok_response(req.id, sys.engine().generation(), extra)
                }
                Err(e) => error_response(req.id, &e.to_string()),
            }
        }
        Op::AddSource => {
            let Some(table) = req.table.clone() else {
                return error_response(req.id, "missing table");
            };
            publish(state, req, |sys| sys.add_source(table))
        }
        Op::ApplyFeedback => {
            let mut fb = Feedback::new();
            for (a, b) in &req.same {
                fb.confirm_same(a, b);
            }
            for (a, b) in &req.different {
                fb.confirm_different(a, b);
            }
            publish(state, req, |sys| sys.apply_feedback(&fb))
        }
        Op::Stats => stats_response(state, &tenant, req.id),
    }
}

/// Runs a mutation request through [`ServeState::mutate_tenant`]. The ok
/// reply carries the published system's engine generation, as answers do.
fn publish(
    state: &ServeState,
    req: &Request,
    apply: impl FnOnce(&mut UdiSystem) -> Result<(), UdiError>,
) -> Json {
    let mut generation = 0;
    match state.mutate_tenant(&req.tenant, |sys| {
        apply(sys).map(|()| generation = sys.engine().generation())
    }) {
        Some(Ok(_)) => {
            state.recorder.count("serve.refresh", 1);
            ok_response(req.id, generation, BTreeMap::new())
        }
        Some(Err(e)) => error_response(req.id, &e.to_string()),
        None => error_response(req.id, &format!("unknown tenant `{}`", req.tenant)),
    }
}

/// Dispatches one parsed request and appends its response to `out` — the
/// server's dispatcher. An `answer` reply streams straight into `out`
/// through the tenant record's [`Tenant::answer_into`] (its answer cache,
/// then [`answer_into`] on a miss); every other reply (errors included)
/// renders the [`handle`] value. The bytes equal
/// `handle(state, req).render()`.
pub fn handle_into(state: &ServeState, req: &Request, out: &mut String) {
    if req.op != Op::Answer {
        handle(state, req).render_into(out);
        return;
    }
    let reply = match begin(state, req) {
        Ok((span, tenant)) => match req.query.as_deref() {
            Some(query) => {
                match tenant.answer_into(&state.recorder, req.path, query, span.id(), req.id, out) {
                    Ok(()) => return,
                    Err(e) => error_response(req.id, &e.to_string()),
                }
            }
            None => error_response(req.id, "missing query"),
        },
        Err(reply) => reply,
    };
    reply.render_into(out);
}

/// Builds the `stats` response for one tenant: the serving-layer counter
/// snapshot plus tenant facts (source count, plan-cache size, answer-cache
/// entries and bytes). Hoisted out of the dispatcher so the whole stats
/// read path is a certified entry — lock-free + io-free + spawn-free
/// (`audit.toml [effects]`): the counter snapshot is udi-obs (exempt
/// instrumentation), the tenant snapshot is an `Arc` clone, and both cache
/// sizes are wait-free chain walks or atomic loads.
pub fn stats_response(state: &ServeState, tenant: &Tenant, id: Option<i64>) -> Json {
    let sys = tenant.snapshot();
    let counters = state
        .counters
        .snapshot()
        .into_iter()
        .map(|(name, v)| {
            (
                name.to_owned(),
                Json::Int(i64::try_from(v).unwrap_or(i64::MAX)),
            )
        })
        .collect();
    let mut t = BTreeMap::new();
    t.insert(
        "sources".to_owned(),
        Json::Int(i64::try_from(sys.catalog().source_count()).unwrap_or(i64::MAX)),
    );
    t.insert(
        "plan_cache_len".to_owned(),
        Json::Int(i64::try_from(sys.plan_cache_len()).unwrap_or(i64::MAX)),
    );
    t.insert(
        "answer_cache_len".to_owned(),
        Json::Int(i64::try_from(tenant.answer_cache_len()).unwrap_or(i64::MAX)),
    );
    t.insert(
        "answer_cache_bytes".to_owned(),
        Json::Int(i64::try_from(tenant.answer_cache_bytes()).unwrap_or(i64::MAX)),
    );
    let mut extra = BTreeMap::new();
    extra.insert("counters".to_owned(), Json::Obj(counters));
    extra.insert("tenant".to_owned(), Json::Obj(t));
    ok_response(id, sys.engine().generation(), extra)
}

/// Parses and executes `query` on `path` against one snapshot, rendering
/// the wire `answers` array as a [`Json`] tree. The `parent` span id
/// parents the library's `query.answer` span so per-source work joins the
/// request's trace.
///
/// This is the crate's certified-deterministic oracle: given the same
/// snapshot and query text it renders the same bytes, on any path. The
/// server streams the same bytes through [`answer_into`] instead.
pub fn execute_answer(
    sys: &UdiSystem,
    path: AnswerPath,
    query: &str,
    parent: u64,
) -> Result<Json, udi_query::ParseError> {
    Ok(render_answers(&sys.answer_with(path, query, parent)?))
}

/// Parses and executes `query` on `path` against one snapshot and appends
/// the whole ok reply to `out`, the bytes
/// [`answer_reply_into`](crate::answer_reply_into) writes for
/// the library's [`AnswerSet`](udi_query::AnswerSet). The answers stay by
/// reference ([`UdiSystem::answer_refs`]): each tuple's cells are read
/// from the snapshot's tables as they are written, so no row is copied
/// and none freed afterwards. On a parse error nothing is appended. The
/// uncached serving read path (a tenant record's [`Tenant::answer_into`]
/// runs it on a miss): certified deterministic, lock-free, io-free and
/// spawn-free (`audit.toml`).
pub fn answer_into(
    sys: &UdiSystem,
    path: AnswerPath,
    query: &str,
    parent: u64,
    id: Option<i64>,
    out: &mut String,
) -> Result<(), udi_query::ParseError> {
    answer_prefix_into(sys, path, query, parent, out)?;
    reply_tail_into(id, path, out);
    Ok(())
}

/// The snapshot-and-query half of [`answer_into`]: appends the reply
/// prefix, `{"answers":[…],"generation":G`, which an answer cache stores.
fn answer_prefix_into(
    sys: &UdiSystem,
    path: AnswerPath,
    query: &str,
    parent: u64,
    out: &mut String,
) -> Result<(), udi_query::ParseError> {
    let answers = sys.answer_refs(path, query, parent)?;
    let sources = answers
        .by_source()
        .iter()
        .map(|(sid, answer)| (*sid, answer.tuples()));
    reply_prefix_into(sys.engine().generation(), sources, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;
    use udi_core::UdiConfig;
    use udi_store::{Catalog, Table};

    fn people_system() -> UdiSystem {
        let mut catalog = Catalog::new();
        let mut a = Table::new("s1", ["name", "phone"]);
        a.push_raw_row(["Alice", "123"]).unwrap();
        a.push_raw_row(["Bob", "456"]).unwrap();
        catalog.add_source(a).unwrap();
        let mut b = Table::new("s2", ["full_name", "tel"]);
        b.push_raw_row(["Alice", "999"]).unwrap();
        catalog.add_source(b).unwrap();
        UdiSystem::setup(catalog, UdiConfig::default()).unwrap()
    }

    fn state_with_tenant() -> ServeState {
        let state = ServeState::new();
        state.register_tenant("t0", people_system());
        state
    }

    #[test]
    fn answer_matches_library_bytes_on_every_path() {
        let state = state_with_tenant();
        let tenant = state.tenant("t0").unwrap();
        let sys = tenant.snapshot();
        for path in AnswerPath::ALL {
            let query = if path == AnswerPath::Aggregate {
                "SELECT COUNT(name) FROM people"
            } else {
                "SELECT name FROM people WHERE name = 'Alice'"
            };
            let req = parse_request(&format!(
                r#"{{"op":"answer","tenant":"t0","path":"{}","query":"{}"}}"#,
                path.name(),
                query
            ))
            .unwrap();
            let via_server = handle(&state, &req);
            let via_library = execute_answer(&sys, path, query, 0).unwrap();
            assert_eq!(
                via_server.get("answers").map(Json::render),
                Some(via_library.render()),
                "path {}",
                path.name()
            );
            assert_eq!(via_server.get("ok"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    fn unknown_tenant_is_an_error_response() {
        let state = state_with_tenant();
        let req = parse_request(r#"{"op":"stats","tenant":"ghost"}"#).unwrap();
        let resp = handle(&state, &req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(state.counters().get("serve.unknown_tenant"), 1);
    }

    #[test]
    fn add_source_publishes_a_new_generation_without_touching_readers() {
        let state = state_with_tenant();
        let tenant = state.tenant("t0").unwrap();
        let before = tenant.snapshot();
        let req = parse_request(
            r#"{"op":"add_source","tenant":"t0","table":{"name":"s3","attrs":["person","cell"],"rows":[["Eve","777"]]}}"#,
        )
        .unwrap();
        let resp = handle(&state, &req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        // The held reader still sees the old snapshot...
        assert_eq!(before.catalog().source_count(), 2);
        // ...while a re-fetched record sees the published successor (a
        // held `Tenant` is immutable — readers re-fetch to advance).
        let after = state.tenant("t0").unwrap();
        assert_eq!(after.snapshot().catalog().source_count(), 3);
        // The change and its refresh each move the engine generation.
        assert_eq!(after.generation(), 3);
        assert_eq!(resp.get("generation"), Some(&Json::Int(3)));
    }

    #[test]
    fn apply_feedback_merges_judgments() {
        let state = state_with_tenant();
        let req =
            parse_request(r#"{"op":"apply_feedback","tenant":"t0","same":[["name","full_name"]]}"#)
                .unwrap();
        let resp = handle(&state, &req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let tenant = state.tenant("t0").unwrap();
        assert_eq!(
            tenant.snapshot().feedback().judgment("name", "full_name"),
            Some(true)
        );
    }

    #[test]
    fn stats_reports_counters_and_tenant_facts() {
        let state = state_with_tenant();
        let answer =
            parse_request(r#"{"op":"answer","tenant":"t0","query":"SELECT name FROM people"}"#)
                .unwrap();
        handle(&state, &answer);
        let req = parse_request(r#"{"op":"stats","tenant":"t0","id":1}"#).unwrap();
        let resp = handle(&state, &req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("id"), Some(&Json::Int(1)));
        let counters = resp.get("counters").unwrap();
        assert_eq!(counters.get("serve.requests"), Some(&Json::Int(2)));
        let t = resp.get("tenant").unwrap();
        assert_eq!(t.get("sources"), Some(&Json::Int(2)));
    }

    /// `stats` reports the record's answer-cache size, and the hit, miss
    /// and full counters count the served path's lookups.
    #[test]
    fn stats_reports_the_answer_cache() {
        let state = state_with_tenant();
        let mut out = String::new();
        for line in [
            r#"{"op":"answer","tenant":"t0","query":"SELECT name FROM people"}"#,
            r#"{"op":"answer","tenant":"t0","id":1,"query":"SELECT name FROM people"}"#,
            r#"{"op":"answer","tenant":"t0","path":"pmed","query":"SELECT name FROM people"}"#,
            r#"{"op":"answer","tenant":"t0","query":"SELEKT"}"#,
        ] {
            handle_into(&state, &parse_request(line).unwrap(), &mut out);
        }
        assert_eq!(state.counters().get("serve.answer_cache.hit"), 1);
        assert_eq!(state.counters().get("serve.answer_cache.miss"), 3);
        assert_eq!(state.counters().get("serve.answer_cache.full"), 0);
        let tenant = state.tenant("t0").unwrap();
        assert_eq!(tenant.answer_cache_len(), 2, "a parse error is not kept");
        let bytes = tenant.answer_cache_bytes();
        assert!(bytes > 2 * "SELECT name FROM people".len(), "{bytes}");
        let req = parse_request(r#"{"op":"stats","tenant":"t0"}"#).unwrap();
        let t = handle(&state, &req).get("tenant").cloned().unwrap();
        assert_eq!(t.get("answer_cache_len"), Some(&Json::Int(2)));
        assert_eq!(t.get("answer_cache_bytes"), Some(&Json::Int(bytes as i64)));
    }

    #[test]
    fn prepare_populates_the_plan_cache() {
        let state = state_with_tenant();
        let req =
            parse_request(r#"{"op":"prepare","tenant":"t0","query":"SELECT name FROM people"}"#)
                .unwrap();
        let resp = handle(&state, &req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("plan_cache_len"), Some(&Json::Int(1)));
    }
}
