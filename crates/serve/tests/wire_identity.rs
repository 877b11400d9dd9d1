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

use std::collections::BTreeMap;

use proptest::prelude::*;

use udi_core::{UdiConfig, UdiSystem};
use udi_query::{AnswerSet, AnswerTuple};
use udi_serve::{
    answer_reply_into, handle, handle_into, handle_line, ok_response, parse_request,
    render_answers, AnswerPath, Json, ServeState,
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
