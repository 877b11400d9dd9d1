//! The streamed wire reply is byte-identical to the `Json`-tree oracle.
//!
//! The server renders an `answer` reply straight into its reply buffer
//! ([`answer_reply_into`]) instead of building `ok_response(id, g,
//! {answers: render_answers(set), path})` and rendering that. These tests
//! pin the two to the same bytes: a property over generated answer sets
//! (escapes, control and non-ASCII text, NaN / ±∞ / −0.0 / subnormal
//! floats, `i64::MIN`, nulls, empty sets, with and without an `id`), a
//! second property whose probabilities repeat in runs, and the dispatchers
//! on every answer path and every error reply.
//!
//! The server writes answers by reference ([`answer_into`]): cells are
//! read from the snapshot's tables as they are written, never collected
//! into the library's owned set. A third property pins those bytes to the
//! oracle over the library set, on all five paths, on a corpus whose
//! sources answer under several bindings; and the served path must emit
//! the library path's spans and counters.
//!
//! The dispatcher serves a repeat of a query on one tenant record from the
//! record's answer cache. The last tests pin a hit's bytes to a miss's and
//! to the oracle, show that a publish never serves a stale reply, that a
//! parse error is never kept, that a full cache still answers correctly,
//! and that racing misses of one key keep one entry.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, OnceLock};

use proptest::prelude::*;

use udi_core::{UdiConfig, UdiSystem};
use udi_datagen::{generate, Domain, GenConfig};
use udi_obs::{EventKind, MemorySink};
use udi_query::{parse_query, AnswerSet, AnswerTuple};
use udi_serve::{
    answer_into, answer_reply_into, handle, handle_into, handle_line, ok_response, parse_request,
    render_answers, AnswerPath, Json, ServeState, ANSWER_CACHE_BYTES,
};
use udi_store::{Catalog, SourceId, Table, Value};

/// The reply as the `Json`-tree oracle renders it.
fn oracle(id: Option<i64>, generation: u64, path: AnswerPath, set: &AnswerSet) -> String {
    let mut extra = BTreeMap::new();
    extra.insert("answers".to_owned(), render_answers(set));
    extra.insert("path".to_owned(), Json::Str(path.name().to_owned()));
    ok_response(id, generation, extra).render()
}

fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        prop::sample::select(vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 4.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            0.1,
            1.0 / 3.0,
            1e21,
            1e-7,
        ]),
        0.0f64..1.0,
    ]
}

fn text() -> impl Strategy<Value = String> {
    let chars: Vec<char> =
        "aZ0 /\"\\\n\r\t\u{8}\u{c}\u{0}\u{1}\u{1f}\u{7f}éß€中\u{2028}\u{1F600}\u{10FFFF}"
            .chars()
            .collect();
    prop::collection::vec(prop::sample::select(chars), 0..10)
        .prop_map(|cs| cs.into_iter().collect::<String>())
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        prop::sample::select(vec![i64::MIN, i64::MAX, 0, -1]).prop_map(Value::Int),
        float().prop_map(Value::Float),
        text().prop_map(Value::text),
    ]
}

/// Probabilities from a pool of four, so that equal-bit runs occur within
/// a source and across a source boundary, and `-0.0` often follows `0.0`
/// (equal by `==`, rendered differently).
fn pooled_probability() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![f64::NAN, -0.0, 0.0, 0.25])
}

fn tuples(
    probability: impl Strategy<Value = f64>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<AnswerTuple>> {
    prop::collection::vec(
        (probability, prop::collection::vec(value(), 0..4)).prop_map(|(probability, values)| {
            AnswerTuple {
                values,
                probability,
            }
        }),
        len,
    )
}

fn answer_set(tuples: impl Strategy<Value = Vec<AnswerTuple>>) -> impl Strategy<Value = AnswerSet> {
    prop::collection::vec((any::<u32>(), tuples), 0..5).prop_map(|sources| {
        let mut set = AnswerSet::new();
        for (sid, tuples) in sources {
            set.add_source(SourceId(sid), tuples);
        }
        set
    })
}

fn id() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        Just(None),
        any::<i64>().prop_map(Some),
        prop::sample::select(vec![Some(i64::MIN), Some(i64::MAX), Some(0)]),
    ]
}

fn generation() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        prop::sample::select(vec![0, 1, i64::MAX as u64, u64::MAX]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streamed_reply_equals_the_json_tree(
        set in answer_set(tuples(float(), 0..4)),
        id in id(),
        generation in generation(),
        path in prop::sample::select(AnswerPath::ALL.to_vec()),
    ) {
        // The reply appends: whatever the buffer already holds stays.
        let mut streamed = String::from("kept|");
        answer_reply_into(id, generation, path, &set, &mut streamed);
        prop_assert_eq!(
            streamed.strip_prefix("kept|"),
            Some(oracle(id, generation, path, &set).as_str())
        );
    }

    /// The renderer reuses the previous tuple's probability text when the
    /// bits repeat; runs of repeats and `-0.0`/`0.0` neighbours must still
    /// render as the oracle does.
    #[test]
    fn probability_runs_render_like_the_json_tree(
        set in answer_set(tuples(pooled_probability(), 0..8)),
        id in id(),
    ) {
        let mut streamed = String::new();
        answer_reply_into(id, 1, AnswerPath::Consolidated, &set, &mut streamed);
        prop_assert_eq!(streamed, oracle(id, 1, AnswerPath::Consolidated, &set));
    }
}

/// Empty answer sets, sources whose tuple list is empty (which
/// `add_source` drops) and tuples without values render identically too.
#[test]
fn empty_sets_render_identically() {
    let mut dropped = AnswerSet::new();
    dropped.add_source(SourceId(7), Vec::new());
    let mut no_values = AnswerSet::new();
    no_values.add_source(
        SourceId(0),
        vec![AnswerTuple {
            values: Vec::new(),
            probability: -0.0,
        }],
    );
    for set in [AnswerSet::new(), dropped, no_values] {
        for id in [None, Some(-3)] {
            let mut streamed = String::new();
            answer_reply_into(id, 4, AnswerPath::ByTuple, &set, &mut streamed);
            assert_eq!(streamed, oracle(id, 4, AnswerPath::ByTuple, &set));
        }
    }
}

/// A tenant whose cells need escaping on the wire.
fn state() -> ServeState {
    let mut catalog = Catalog::new();
    let mut a = Table::new("s1", ["name", "phone"]);
    a.push_raw_row(["Alice \"Al\" O\\Neil", "123"]).unwrap();
    a.push_raw_row(["Zoë\tTab", "4.5"]).unwrap();
    catalog.add_source(a).unwrap();
    let mut b = Table::new("s2", ["full_name", "tel"]);
    b.push_raw_row(["Bob\u{1}", "-0.0"]).unwrap();
    catalog.add_source(b).unwrap();
    let state = ServeState::new();
    state.register_tenant(
        "t0",
        UdiSystem::setup(catalog, UdiConfig::default()).unwrap(),
    );
    state
}

/// `handle_line` (the bytes a connection gets) equals the `Json`-valued
/// dispatcher's render on all five answer paths, with and without an
/// `id`, and on every error reply.
#[test]
fn handle_line_matches_handle_on_every_path_and_error() {
    let state = state();
    let mut lines = Vec::new();
    for path in AnswerPath::ALL {
        let query = if path == AnswerPath::Aggregate {
            "SELECT COUNT(name) FROM people"
        } else {
            "SELECT name, phone FROM people"
        };
        for id in ["", r#","id":-9223372036854775808"#] {
            lines.push(format!(
                r#"{{"op":"answer","tenant":"t0","path":"{}","query":"{query}"{id}}}"#,
                path.name()
            ));
        }
    }
    let answers = lines.len();
    // Unknown tenant, a query that fails to parse, and a select query on
    // the aggregate path (which fails the aggregate parser).
    lines.extend(
        [
            r#"{"op":"answer","tenant":"ghost","id":1,"query":"SELECT name FROM people"}"#,
            r#"{"op":"answer","tenant":"t0","id":2,"query":"SELEKT name"}"#,
            r#"{"op":"answer","tenant":"t0","id":3,"path":"aggregate","query":"SELECT name FROM people"}"#,
        ]
        .map(str::to_owned),
    );
    for (i, line) in lines.iter().enumerate() {
        let req = parse_request(line).unwrap();
        let served = handle_line(&state, line);
        assert_eq!(served, handle(&state, &req).render(), "{line}");
        let ok = served.contains(r#""ok":true"#);
        assert_eq!(ok, i < answers, "{served}");
        if ok {
            assert!(served.starts_with(r#"{"answers":[{"source":"#), "{served}");
        }
    }

    // An answer request without a query cannot come off the wire (the
    // parser rejects it), but the two dispatchers still agree on it.
    let mut missing = parse_request(&lines[0]).unwrap();
    missing.query = None;
    let mut out = String::new();
    handle_into(&state, &missing, &mut out);
    assert_eq!(out, handle(&state, &missing).render());
    assert_eq!(out, r#"{"error":"missing query","ok":false}"#);

    // Off the wire, the same request is a parse error.
    assert_eq!(
        handle_line(&state, r#"{"op":"answer","tenant":"t0"}"#),
        r#"{"error":"missing field `query`","ok":false}"#
    );
}

/// The People corpus (49 sources, 5–20 rows each). Home and office
/// phones and addresses are ambiguous, so under queries such as
/// `SELECT haddr, address` some sources answer under several bindings:
/// the by-reference accumulators then fold tuples of one source that
/// come from different columns.
fn people_system() -> UdiSystem {
    let gen = generate(
        Domain::People,
        &GenConfig {
            seed: 7,
            rows_min: 5,
            rows_max: 20,
            ..GenConfig::default()
        },
    );
    UdiSystem::setup(gen.catalog, UdiConfig::default()).unwrap()
}

/// One People system shared by the property's cases.
fn people() -> &'static UdiSystem {
    static PEOPLE: OnceLock<UdiSystem> = OnceLock::new();
    PEOPLE.get_or_init(people_system)
}

/// Attributes of the People corpus; `haddr` and `address` are the
/// ambiguous pair.
const PEOPLE_ATTRS: [&str; 8] = [
    "address", "haddr", "hphone", "ophone", "name", "title", "age", "city",
];

/// A query text for `path` over [`PEOPLE_ATTRS`]: on the select paths,
/// `SELECT attrs` with an optional filter; on the aggregate path, a
/// `COUNT` grouped by the first attribute, or ungrouped over it.
fn people_query(
    path: AnswerPath,
    attrs: &[&str],
    filter: Option<(&str, &str)>,
    grouped: bool,
) -> String {
    let filter = filter.map_or(String::new(), |(a, test)| format!(" WHERE {a} {test}"));
    let first = attrs.first().copied().unwrap_or("name");
    match path {
        AnswerPath::Aggregate if grouped => {
            format!("SELECT {first}, COUNT(*) FROM people{filter} GROUP BY {first}")
        }
        AnswerPath::Aggregate => format!("SELECT COUNT({first}) FROM people{filter}"),
        _ => format!("SELECT {} FROM people{filter}", attrs.join(", ")),
    }
}

/// `answer_into`'s bytes, appended after `kept|`, for `text` on `path`.
fn served(sys: &UdiSystem, path: AnswerPath, text: &str, id: Option<i64>) -> String {
    let mut out = String::from("kept|");
    answer_into(sys, path, text, 0, id, &mut out).unwrap();
    out
}

/// The oracle reply for `text` on `path` over the library's owned set.
fn library(sys: &UdiSystem, path: AnswerPath, text: &str, id: Option<i64>) -> String {
    let set = sys.answer_with(path, text, 0).unwrap();
    format!("kept|{}", oracle(id, sys.engine().generation(), path, &set))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Answers written by reference equal the `Json`-tree oracle over the
    /// library's owned set, on every path.
    #[test]
    fn served_answers_equal_the_library_oracle(
        path in prop::sample::select(AnswerPath::ALL.to_vec()),
        attrs in prop::collection::vec(prop::sample::select(PEOPLE_ATTRS.to_vec()), 1..4),
        filtered in any::<bool>(),
        filter_attr in prop::sample::select(PEOPLE_ATTRS.to_vec()),
        filter_test in prop::sample::select(vec!["!= 'x'", "LIKE '%a%'", "> 30"]),
        grouped in any::<bool>(),
        id in id(),
    ) {
        let filter = filtered.then_some((filter_attr, filter_test));
        let text = people_query(path, &attrs, filter, grouped);
        let sys = people();
        prop_assert_eq!(served(sys, path, &text, id), library(sys, path, &text, id), "{}", text);
    }
}

/// The property's corpus reaches the multi-binding case, and on it the
/// served bytes equal the oracle on all five paths.
#[test]
fn multi_binding_sources_are_served_like_the_library() {
    let sys = people();
    let q = parse_query("SELECT haddr, address FROM people").unwrap();
    let multi = sys
        .explain(&q)
        .sources
        .iter()
        .filter(|s| s.bindings.len() >= 2)
        .count();
    assert!(multi >= 2, "{multi} sources answer under several bindings");
    for path in AnswerPath::ALL {
        for grouped in [false, true] {
            let text = people_query(path, &["haddr", "address"], None, grouped);
            assert_eq!(
                served(sys, path, &text, Some(3)),
                library(sys, path, &text, Some(3)),
                "{text}"
            );
        }
    }
}

/// A query's trace with what varies between two runs of it taken out:
/// each `query.*` event's name, kind and fields, in order.
fn query_trace(sink: &MemorySink) -> Vec<String> {
    let events = sink.events();
    let query = events.iter().filter(|e| e.name.starts_with("query."));
    let trace = query.map(|e| {
        let fields: Vec<String> = e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let kind = match &e.kind {
            EventKind::SpanEnd { .. } => "end".to_owned(),
            other => format!("{other:?}"),
        };
        format!("{} {kind} {}", e.name, fields.join(","))
    });
    trace.collect()
}

/// Traced, the served path emits what the library path emits: one
/// `query.answer` span, one `query.source` span per source with the same
/// fields, and the same `query.tuples.scanned` / `query.answers.produced`
/// totals, on one query per path.
#[test]
fn served_and_library_paths_trace_alike() {
    let mut sys = people_system();
    let sink = Arc::new(MemorySink::new());
    sys.set_sink(Some(sink.clone()));
    let sources = sys.catalog().source_count();
    for path in AnswerPath::ALL {
        let text = people_query(path, &["haddr", "address"], None, true);
        // Compile first, so both traced runs hit the plan cache.
        sys.answer_with(path, &text, 0).unwrap();
        sink.clear();
        served(&sys, path, &text, None);
        let served_trace = query_trace(&sink);
        let served_counts = [
            sink.counter_total("query.tuples.scanned"),
            sink.counter_total("query.answers.produced"),
        ];
        assert_eq!(sink.spans_named("query.answer").len(), 1, "{text}");
        assert_eq!(sink.spans_named("query.source").len(), sources, "{text}");
        sink.clear();
        sys.answer_with(path, &text, 0).unwrap();
        assert_eq!(query_trace(&sink), served_trace, "{text}");
        assert_eq!(
            [
                sink.counter_total("query.tuples.scanned"),
                sink.counter_total("query.answers.produced"),
            ],
            served_counts,
            "{text}"
        );
        assert!(served_counts[0] > 0 && served_counts[1] > 0, "{text}");
    }
}

/// A fresh server state serving the People corpus as tenant `t0`.
fn people_state() -> ServeState {
    let state = ServeState::new();
    state.register_tenant("t0", people_system());
    state
}

/// One People state shared by the hit ≡ miss property's cases.
fn shared_people_state() -> &'static ServeState {
    static STATE: OnceLock<ServeState> = OnceLock::new();
    STATE.get_or_init(people_state)
}

/// An `answer` request line for tenant `t0`.
fn answer_line(path: AnswerPath, text: &str, id: Option<i64>) -> String {
    let id = id.map_or(String::new(), |id| format!(r#","id":{id}"#));
    format!(
        r#"{{"op":"answer","tenant":"t0","path":"{}","query":"{text}"{id}}}"#,
        path.name()
    )
}

/// The `Json`-valued dispatcher's reply to `line`, which never consults
/// the answer cache.
fn uncached(state: &ServeState, line: &str) -> String {
    handle(state, &parse_request(line).unwrap()).render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A repeat of a query is an answer-cache hit, and its bytes equal a
    /// miss's and the uncached dispatcher's, on every path, whatever `id`
    /// either request carries.
    #[test]
    fn answer_cache_hits_equal_misses_and_the_oracle(
        path in prop::sample::select(AnswerPath::ALL.to_vec()),
        attrs in prop::collection::vec(prop::sample::select(PEOPLE_ATTRS.to_vec()), 1..4),
        filtered in any::<bool>(),
        filter_attr in prop::sample::select(PEOPLE_ATTRS.to_vec()),
        filter_test in prop::sample::select(vec!["!= 'x'", "LIKE '%a%'", "> 30"]),
        grouped in any::<bool>(),
        first_id in id(),
        second_id in id(),
    ) {
        let filter = filtered.then_some((filter_attr, filter_test));
        let text = people_query(path, &attrs, filter, grouped);
        let state = shared_people_state();
        let first = answer_line(path, &text, first_id);
        let second = answer_line(path, &text, second_id);
        let served_first = handle_line(state, &first);
        let hits = state.counters().get("serve.answer_cache.hit");
        let served_second = handle_line(state, &second);
        prop_assert_eq!(state.counters().get("serve.answer_cache.hit"), hits + 1);
        prop_assert_eq!(&served_first, &uncached(state, &first), "{}", text);
        prop_assert_eq!(&served_second, &uncached(state, &second), "{}", text);
        prop_assert!(served_second.starts_with(r#"{"answers":["#), "{}", served_second);
    }
}

/// After an `add_source` and an `apply_feedback` publish, every reply —
/// cached before the publish or not — carries the new generation and the
/// new snapshot's answers: the new record starts with an empty cache.
#[test]
fn a_publish_never_serves_a_stale_reply() {
    let state = people_state();
    let queries = [
        (AnswerPath::Consolidated, "SELECT name FROM people"),
        (AnswerPath::Pmed, "SELECT name, hphone FROM people"),
        (AnswerPath::Aggregate, "SELECT COUNT(name) FROM people"),
    ];
    let warm = |state: &ServeState| -> Vec<String> {
        let replies: Vec<String> = queries
            .iter()
            .map(|&(path, text)| handle_line(state, &answer_line(path, text, Some(1))))
            .collect();
        for (&(path, text), reply) in queries.iter().zip(&replies) {
            let line = answer_line(path, text, Some(1));
            assert_eq!(&handle_line(state, &line), reply, "hit ≡ miss: {text}");
            assert_eq!(reply, &uncached(state, &line), "{text}");
        }
        replies
    };
    let before = warm(&state);
    let generation = state.tenant("t0").unwrap().generation();
    assert_eq!(
        state.tenant("t0").unwrap().answer_cache_len(),
        queries.len()
    );
    let publishes = [
        r#"{"op":"add_source","tenant":"t0","table":{"name":"late","attrs":["name","phone"],"rows":[["Zed Newcomer","555"]]}}"#,
        r#"{"op":"apply_feedback","tenant":"t0","same":[["hphone","ophone"]]}"#,
    ];
    let mut stale = before;
    let mut last = generation;
    for publish in publishes {
        assert!(handle_line(&state, publish).contains(r#""ok":true"#));
        let tenant = state.tenant("t0").unwrap();
        assert!(tenant.generation() > last, "{publish}");
        last = tenant.generation();
        assert_eq!(
            tenant.answer_cache_len(),
            0,
            "a publish starts an empty cache"
        );
        let fresh = warm(&state);
        let tag = format!(r#""generation":{last},"#);
        for (old, new) in stale.iter().zip(&fresh) {
            assert!(new.contains(&tag), "{new}");
            assert_ne!(old, new);
        }
        stale = fresh;
    }
    // The new source's row is among the new record's answers.
    assert!(stale[0].contains("Zed Newcomer"), "{}", stale[0]);
}

/// A query that fails to parse gets its error reply every time and is
/// never kept: a repeat is a miss again.
#[test]
fn a_parse_error_is_never_cached() {
    let state = people_state();
    let lines = [
        answer_line(AnswerPath::Consolidated, "SELEKT name", Some(2)),
        answer_line(AnswerPath::Aggregate, "SELECT name FROM people", None),
    ];
    for line in &lines {
        for _ in 0..2 {
            let reply = handle_line(&state, line);
            assert!(reply.contains(r#""ok":false"#), "{reply}");
            assert_eq!(reply, uncached(&state, line));
        }
    }
    let tenant = state.tenant("t0").unwrap();
    assert_eq!(tenant.answer_cache_len(), 0);
    assert_eq!(tenant.answer_cache_bytes(), 0);
    assert_eq!(state.counters().get("serve.answer_cache.miss"), 4);
    assert_eq!(state.counters().get("serve.answer_cache.hit"), 0);
}

/// Distinct queries with large replies fill the cache to its byte cap;
/// past it a new key is still answered correctly but not kept
/// (`serve.answer_cache.full`), and what the cache already holds still
/// hits. The corpus is People with long tables, so a few dozen replies
/// reach the cap.
#[test]
fn a_full_cache_answers_new_keys_without_keeping_them() {
    let gen = generate(
        Domain::People,
        &GenConfig {
            seed: 7,
            rows_min: 300,
            rows_max: 400,
            universe_size: 400,
            ..GenConfig::default()
        },
    );
    let state = ServeState::new();
    state.register_tenant(
        "t0",
        UdiSystem::setup(gen.catalog, UdiConfig::default()).unwrap(),
    );
    let tenant = state.tenant("t0").unwrap();
    let large = |i: usize| format!("SELECT name, city FROM people WHERE name != 'filler {i}'");
    let mut filled = 0;
    while state.counters().get("serve.answer_cache.full") == 0 {
        assert!(filled < 10_000, "the cap was never reached");
        handle_line(
            &state,
            &answer_line(AnswerPath::Consolidated, &large(filled), None),
        );
        filled += 1;
    }
    let kept = tenant.answer_cache_len();
    let bytes = tenant.answer_cache_bytes();
    assert!(kept > 1 && kept < filled, "{kept} of {filled}");
    assert!(bytes <= ANSWER_CACHE_BYTES, "{bytes}");
    let fresh = answer_line(AnswerPath::Consolidated, &large(filled), Some(5));
    let misses = state.counters().get("serve.answer_cache.miss");
    for _ in 0..2 {
        assert_eq!(handle_line(&state, &fresh), uncached(&state, &fresh));
    }
    assert_eq!(state.counters().get("serve.answer_cache.miss"), misses + 2);
    assert_eq!(tenant.answer_cache_len(), kept);
    assert_eq!(tenant.answer_cache_bytes(), bytes);
    let hits = state.counters().get("serve.answer_cache.hit");
    let first = answer_line(AnswerPath::Consolidated, &large(0), Some(6));
    assert_eq!(handle_line(&state, &first), uncached(&state, &first));
    assert_eq!(state.counters().get("serve.answer_cache.hit"), hits + 1);
}

/// Concurrent misses of one absent key all render the same reply, and the
/// cache keeps one entry for it: the barrier lets every caller pass the
/// lookup before any publishes, so all of them append, and the later ones
/// find the key on their way to the chain's tail.
#[test]
fn racing_misses_of_one_key_publish_one_node() {
    let state = people_state();
    let tenant = state.tenant("t0").unwrap();
    let text = "SELECT name, city FROM people";
    let callers = 4;
    let barrier = Barrier::new(callers);
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = String::new();
                    barrier.wait();
                    tenant
                        .answer_into(
                            state.recorder(),
                            AnswerPath::Consolidated,
                            text,
                            0,
                            Some(1),
                            &mut out,
                        )
                        .unwrap();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let expected = uncached(
        &state,
        &answer_line(AnswerPath::Consolidated, text, Some(1)),
    );
    assert!(replies.iter().all(|r| *r == expected));
    assert_eq!(tenant.answer_cache_len(), 1, "one key, one node");
    let prefix = expected.len() - r#","id":1,"ok":true,"path":"consolidated"}"#.len();
    assert_eq!(tenant.answer_cache_bytes(), text.len() + prefix);
}
