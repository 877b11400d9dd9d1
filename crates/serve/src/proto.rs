//! The line-delimited JSON wire protocol.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line. Requests name an `op` (`prepare`, `answer`,
//! `add_source`, `apply_feedback`, `stats`) and a `tenant`; `answer`
//! additionally picks one of the five query paths and carries the SQL text.
//! An optional client-chosen `id` is echoed on the response so clients can
//! pipeline requests over one connection.
//!
//! Responses for `answer` embed the [`AnswerSet`] in the library's
//! per-source catalog order, with probabilities in shortest-round-trip
//! formatting. [`render_answers`] builds that array as a [`Json`] tree —
//! the oracle the byte-identity tests run over the library result — and
//! one reply writer streams the whole reply straight into a buffer through
//! the same scalar renderers, from an owned set ([`answer_reply_into`]) or
//! from answers by reference ([`answer_into`](crate::answer_into)), so
//! "server answer == library answer" stays a string equality without the
//! tree on the serving path.

use std::collections::BTreeMap;

pub use udi_core::AnswerPath;
use udi_query::AnswerSet;
use udi_store::{SourceId, Table, Value};

use crate::json::{parse, render_float, render_int, render_string, Json, ParseJsonError};

/// The operation a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compile and cache the plan for a query without executing it.
    Prepare,
    /// Execute a query on one of the five paths.
    Answer,
    /// Register a new source table and refresh the tenant's snapshot.
    AddSource,
    /// Fold attribute-pair judgments in and refresh the tenant's snapshot.
    ApplyFeedback,
    /// Report server counters and per-tenant snapshot facts.
    Stats,
}

impl Op {
    fn from_name(name: &str) -> Option<Op> {
        match name {
            "prepare" => Some(Op::Prepare),
            "answer" => Some(Op::Answer),
            "add_source" => Some(Op::AddSource),
            "apply_feedback" => Some(Op::ApplyFeedback),
            "stats" => Some(Op::Stats),
            _ => None,
        }
    }

    /// The wire name of this operation.
    pub fn name(self) -> &'static str {
        match self {
            Op::Prepare => "prepare",
            Op::Answer => "answer",
            Op::AddSource => "add_source",
            Op::ApplyFeedback => "apply_feedback",
            Op::Stats => "stats",
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation to perform.
    pub op: Op,
    /// Which tenant's snapshot to run against.
    pub tenant: String,
    /// Client-chosen correlation id, echoed on the response.
    pub id: Option<i64>,
    /// Answer path for `answer` requests (default `consolidated`).
    pub path: AnswerPath,
    /// SQL text for `prepare` / `answer`.
    pub query: Option<String>,
    /// Table payload for `add_source`.
    pub table: Option<Table>,
    /// Same-concept judgments for `apply_feedback`.
    pub same: Vec<(String, String)>,
    /// Different-concept judgments for `apply_feedback`.
    pub different: Vec<(String, String)>,
}

/// Why a request line was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The line is not valid JSON.
    Json(ParseJsonError),
    /// The line parsed but is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    Missing(&'static str),
    /// A field is present but malformed; the string explains how.
    Bad(&'static str, String),
    /// The `op` field names no known operation.
    UnknownOp(String),
    /// The `path` field names no known answer path.
    UnknownPath(String),
    /// The line ran past the server's length cap (in bytes) before its
    /// newline; the server answers and closes the connection.
    TooLong(usize),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Json(e) => write!(f, "invalid json: {e}"),
            RequestError::NotAnObject => write!(f, "request must be a json object"),
            RequestError::Missing(field) => write!(f, "missing field `{field}`"),
            RequestError::Bad(field, why) => write!(f, "bad field `{field}`: {why}"),
            RequestError::UnknownOp(op) => write!(f, "unknown op `{op}`"),
            RequestError::UnknownPath(p) => write!(f, "unknown path `{p}`"),
            RequestError::TooLong(cap) => write!(f, "request line longer than {cap} bytes"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value = parse(line).map_err(RequestError::Json)?;
    let Json::Obj(_) = value else {
        return Err(RequestError::NotAnObject);
    };
    let op_name = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or(RequestError::Missing("op"))?;
    let op = Op::from_name(op_name).ok_or_else(|| RequestError::UnknownOp(op_name.to_owned()))?;
    let tenant = value
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or(RequestError::Missing("tenant"))?
        .to_owned();
    let id = value.get("id").and_then(Json::as_i64);
    let path = match value.get("path").and_then(Json::as_str) {
        Some(name) => {
            AnswerPath::from_name(name).ok_or_else(|| RequestError::UnknownPath(name.to_owned()))?
        }
        None => AnswerPath::Consolidated,
    };
    let query = value.get("query").and_then(Json::as_str).map(str::to_owned);
    if matches!(op, Op::Prepare | Op::Answer) && query.is_none() {
        return Err(RequestError::Missing("query"));
    }
    let table = match op {
        Op::AddSource => Some(table_from_json(
            value.get("table").ok_or(RequestError::Missing("table"))?,
        )?),
        _ => None,
    };
    let (same, different) = if op == Op::ApplyFeedback {
        let same = pairs_from_json(value.get("same"), "same")?;
        let different = pairs_from_json(value.get("different"), "different")?;
        if same.is_empty() && different.is_empty() {
            return Err(RequestError::Missing("same/different"));
        }
        (same, different)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(Request {
        op,
        tenant,
        id,
        path,
        query,
        table,
        same,
        different,
    })
}

/// Decodes `{"name": ..., "attrs": [...], "rows": [[...]]}` into a [`Table`].
fn table_from_json(value: &Json) -> Result<Table, RequestError> {
    let name = value
        .get("name")
        .and_then(Json::as_str)
        .ok_or(RequestError::Missing("table.name"))?;
    let attrs = match value.get("attrs") {
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) => out.push(s.to_owned()),
                    None => {
                        return Err(RequestError::Bad(
                            "table.attrs",
                            "attributes must be strings".to_owned(),
                        ))
                    }
                }
            }
            out
        }
        _ => return Err(RequestError::Missing("table.attrs")),
    };
    let mut table =
        Table::try_new(name, attrs).map_err(|e| RequestError::Bad("table.attrs", e.to_string()))?;
    let rows = match value.get("rows") {
        Some(Json::Arr(rows)) => rows,
        None => return Ok(table),
        _ => {
            return Err(RequestError::Bad(
                "table.rows",
                "rows must be an array of arrays".to_owned(),
            ))
        }
    };
    for row in rows {
        let Json::Arr(cells) = row else {
            return Err(RequestError::Bad(
                "table.rows",
                "each row must be an array".to_owned(),
            ));
        };
        let mut out = Vec::with_capacity(cells.len());
        for cell in cells {
            out.push(json_to_value(cell).ok_or_else(|| {
                RequestError::Bad(
                    "table.rows",
                    "cells must be null, numbers, or strings".to_owned(),
                )
            })?);
        }
        table
            .push_row(out)
            .map_err(|e| RequestError::Bad("table.rows", e.to_string()))?;
    }
    Ok(table)
}

fn pairs_from_json(
    value: Option<&Json>,
    field: &'static str,
) -> Result<Vec<(String, String)>, RequestError> {
    let items = match value {
        None => return Ok(Vec::new()),
        Some(Json::Arr(items)) => items,
        Some(_) => {
            return Err(RequestError::Bad(
                field,
                "must be an array of [a, b] string pairs".to_owned(),
            ))
        }
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Json::Arr(pair) => match (
                pair.first().and_then(Json::as_str),
                pair.get(1).and_then(Json::as_str),
            ) {
                (Some(a), Some(b)) if pair.len() == 2 => out.push((a.to_owned(), b.to_owned())),
                _ => {
                    return Err(RequestError::Bad(
                        field,
                        "each entry must be an [a, b] string pair".to_owned(),
                    ))
                }
            },
            _ => {
                return Err(RequestError::Bad(
                    field,
                    "each entry must be an [a, b] string pair".to_owned(),
                ))
            }
        }
    }
    Ok(out)
}

/// Maps a JSON cell to a store [`Value`]. Strings stay text verbatim —
/// typed JSON is already past the CSV-importer stage, so no re-parsing.
fn json_to_value(cell: &Json) -> Option<Value> {
    match cell {
        Json::Null => Some(Value::Null),
        Json::Int(i) => Some(Value::Int(*i)),
        Json::Float(f) => Some(Value::float(*f)),
        Json::Str(s) => Some(Value::text(s.as_str())),
        Json::Bool(_) | Json::Arr(_) | Json::Obj(_) => None,
    }
}

/// Renders a store value into its JSON answer form.
pub fn value_to_json(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Text(s) => Json::Str(s.to_string()),
    }
}

/// Renders an [`AnswerSet`] as the wire `answers` array, preserving the
/// library's per-source order and tuple order exactly:
/// `[{"source": id, "tuples": [{"values": [...], "p": prob}, ...]}, ...]`.
pub fn render_answers(set: &AnswerSet) -> Json {
    let sources = set
        .by_source()
        .iter()
        .map(|(sid, tuples)| {
            let rendered = tuples
                .iter()
                .map(|t| {
                    let mut obj = BTreeMap::new();
                    obj.insert(
                        "values".to_owned(),
                        Json::Arr(t.values.iter().map(value_to_json).collect()),
                    );
                    obj.insert("p".to_owned(), Json::Float(t.probability));
                    Json::Obj(obj)
                })
                .collect();
            let mut obj = BTreeMap::new();
            obj.insert("source".to_owned(), Json::Int(i64::from(sid.0)));
            obj.insert("tuples".to_owned(), Json::Arr(rendered));
            Json::Obj(obj)
        })
        .collect();
    Json::Arr(sources)
}

/// Appends the ok reply to an `answer` request to `out`:
/// `{"answers":[…],"generation":G,"id":I,"ok":true,"path":"P"}` (no `id`
/// key when `id` is `None`). The bytes equal
/// `ok_response(id, generation, {answers: render_answers(set), path})`
/// rendered, keys in the same sorted order, but no `Json` tree, per-tuple
/// map or per-cell `String` clone is built on the way. This is the entry
/// for an owned set; the server writes answers by reference through
/// [`answer_into`](crate::answer_into), and both run one writer.
pub fn answer_reply_into(
    id: Option<i64>,
    generation: u64,
    path: AnswerPath,
    set: &AnswerSet,
    out: &mut String,
) {
    let sources = set.by_source().iter().map(|(sid, tuples)| {
        let tuples = tuples.iter().map(|t| (t.probability, &t.values));
        (*sid, tuples)
    });
    reply_prefix_into(generation, sources, out);
    reply_tail_into(id, path, out);
}

/// The one answer-reply writer, in two halves split at the
/// `generation`/`id` seam. This half appends what depends only on the
/// snapshot and the query, `{"answers":[…],"generation":G`, over any
/// per-source list of tuples, each a probability and its cells in select
/// order: an owned [`AnswerSet`] ([`answer_reply_into`]) or answers by
/// reference ([`answer_into`](crate::answer_into)); a tenant's answer
/// cache stores exactly these bytes. A probability equal (by bits) to the
/// previous tuple's is copied, not formatted again: most sources answer
/// under one pooled binding, so ~97% of tuples repeat it.
pub(crate) fn reply_prefix_into<'v, T, C>(
    generation: u64,
    sources: impl IntoIterator<Item = (SourceId, T)>,
    out: &mut String,
) where
    T: IntoIterator<Item = (f64, C)>,
    C: IntoIterator<Item = &'v Value>,
{
    // The last probability rendered, keyed by its bits: `==` would
    // conflate `-0.0` with `0.0` (which render differently).
    let mut last_bits = None;
    let mut last_text = String::new();
    out.push_str(r#"{"answers":["#);
    for (i, (sid, tuples)) in sources.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"source":"#);
        render_int(i64::from(sid.0), out);
        out.push_str(r#","tuples":["#);
        for (j, (probability, cells)) in tuples.into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(r#"{"p":"#);
            let bits = probability.to_bits();
            if last_bits != Some(bits) {
                last_text.clear();
                render_float(probability, &mut last_text);
                last_bits = Some(bits);
            }
            out.push_str(&last_text);
            out.push_str(r#","values":["#);
            for (k, value) in cells.into_iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                render_value(value, out);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str(r#"],"generation":"#);
    render_int(wire_generation(generation), out);
}

/// The per-request half of the answer-reply writer, appended after
/// [`reply_prefix_into`]'s bytes: `,"id":I,"ok":true,"path":"P"}` (no
/// `id` key when `id` is `None`).
pub(crate) fn reply_tail_into(id: Option<i64>, path: AnswerPath, out: &mut String) {
    if let Some(id) = id {
        out.push_str(r#","id":"#);
        render_int(id, out);
    }
    out.push_str(r#","ok":true,"path":"#);
    render_string(path.name(), out);
    out.push('}');
}

/// Appends a store value as [`value_to_json`] would render it.
fn render_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Int(i) => render_int(*i, out),
        Value::Float(f) => render_float(*f, out),
        Value::Text(s) => render_string(s, out),
    }
}

/// An engine generation as the wire's `i64`, saturating.
fn wire_generation(generation: u64) -> i64 {
    i64::try_from(generation).unwrap_or(i64::MAX)
}

/// Assembles a success response. `extra` fields merge in after the
/// standard `id` / `ok` / `generation` keys.
pub fn ok_response(id: Option<i64>, generation: u64, extra: BTreeMap<String, Json>) -> Json {
    let mut obj = extra;
    if let Some(id) = id {
        obj.insert("id".to_owned(), Json::Int(id));
    }
    obj.insert("ok".to_owned(), Json::Bool(true));
    obj.insert(
        "generation".to_owned(),
        Json::Int(wire_generation(generation)),
    );
    Json::Obj(obj)
}

/// Assembles an error response.
pub fn error_response(id: Option<i64>, error: &str) -> Json {
    let mut obj = BTreeMap::new();
    if let Some(id) = id {
        obj.insert("id".to_owned(), Json::Int(id));
    }
    obj.insert("ok".to_owned(), Json::Bool(false));
    obj.insert("error".to_owned(), Json::Str(error.to_owned()));
    Json::Obj(obj)
}

/// The admission-control response written when the job queue is full.
/// Clients treat `shed: true` as "back off and retry".
pub fn shed_response() -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("ok".to_owned(), Json::Bool(false));
    obj.insert("error".to_owned(), Json::Str("overloaded".to_owned()));
    obj.insert("shed".to_owned(), Json::Bool(true));
    Json::Obj(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_answer_request() {
        let r = parse_request(
            r#"{"op":"answer","tenant":"t0","id":7,"path":"pmed","query":"SELECT name FROM people"}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Answer);
        assert_eq!(r.tenant, "t0");
        assert_eq!(r.id, Some(7));
        assert_eq!(r.path, AnswerPath::Pmed);
        assert_eq!(r.query.as_deref(), Some("SELECT name FROM people"));
    }

    #[test]
    fn path_defaults_to_consolidated() {
        let r = parse_request(r#"{"op":"answer","tenant":"t","query":"SELECT a FROM s"}"#).unwrap();
        assert_eq!(r.path, AnswerPath::Consolidated);
    }

    #[test]
    fn rejects_missing_and_unknown_fields() {
        assert_eq!(
            parse_request(r#"{"tenant":"t"}"#).unwrap_err(),
            RequestError::Missing("op")
        );
        assert_eq!(
            parse_request(r#"{"op":"fly","tenant":"t"}"#).unwrap_err(),
            RequestError::UnknownOp("fly".to_owned())
        );
        assert_eq!(
            parse_request(r#"{"op":"answer","tenant":"t","path":"sideways","query":"q"}"#)
                .unwrap_err(),
            RequestError::UnknownPath("sideways".to_owned())
        );
        assert_eq!(
            parse_request(r#"{"op":"answer","tenant":"t"}"#).unwrap_err(),
            RequestError::Missing("query")
        );
        assert!(parse_request("not json").is_err());
        assert_eq!(
            parse_request("[1,2]").unwrap_err(),
            RequestError::NotAnObject
        );
    }

    #[test]
    fn decodes_an_add_source_table() {
        let r = parse_request(
            r#"{"op":"add_source","tenant":"t","table":{"name":"cars","attrs":["make","year"],"rows":[["honda",2004],["ford",null]]}}"#,
        )
        .unwrap();
        let t = r.table.unwrap();
        assert_eq!(t.name(), "cars");
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell(0, "make"), Some(&Value::text("honda")));
        assert_eq!(t.cell(0, "year"), Some(&Value::Int(2004)));
        assert_eq!(t.cell(1, "year"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_tables() {
        for (line, field) in [
            (r#"{"op":"add_source","tenant":"t"}"#, "table"),
            (
                r#"{"op":"add_source","tenant":"t","table":{"attrs":["a"]}}"#,
                "table.name",
            ),
            (
                r#"{"op":"add_source","tenant":"t","table":{"name":"s"}}"#,
                "table.attrs",
            ),
        ] {
            match parse_request(line) {
                Err(RequestError::Missing(f)) => assert_eq!(f, field),
                other => panic!("expected Missing({field}), got {other:?}"),
            }
        }
        let bad_row = parse_request(
            r#"{"op":"add_source","tenant":"t","table":{"name":"s","attrs":["a"],"rows":[[1,2]]}}"#,
        );
        assert!(matches!(bad_row, Err(RequestError::Bad("table.rows", _))));
        let bad_cell = parse_request(
            r#"{"op":"add_source","tenant":"t","table":{"name":"s","attrs":["a"],"rows":[[true]]}}"#,
        );
        assert!(matches!(bad_cell, Err(RequestError::Bad("table.rows", _))));
    }

    #[test]
    fn decodes_feedback_pairs() {
        let r = parse_request(
            r#"{"op":"apply_feedback","tenant":"t","same":[["name","full_name"]],"different":[["phone","fax"]]}"#,
        )
        .unwrap();
        assert_eq!(r.same, vec![("name".to_owned(), "full_name".to_owned())]);
        assert_eq!(r.different, vec![("phone".to_owned(), "fax".to_owned())]);
        assert_eq!(
            parse_request(r#"{"op":"apply_feedback","tenant":"t"}"#).unwrap_err(),
            RequestError::Missing("same/different")
        );
    }

    #[test]
    fn renders_answers_in_catalog_order() {
        use udi_query::AnswerTuple;
        use udi_store::SourceId;
        let mut set = AnswerSet::new();
        set.add_source(
            SourceId(3),
            vec![AnswerTuple {
                values: vec![Value::text("a"), Value::Int(1)],
                probability: 0.5,
            }],
        );
        set.add_source(
            SourceId(1),
            vec![AnswerTuple {
                values: vec![Value::Null],
                probability: 1.0,
            }],
        );
        assert_eq!(
            render_answers(&set).render(),
            r#"[{"source":3,"tuples":[{"p":0.5,"values":["a",1]}]},{"source":1,"tuples":[{"p":1.0,"values":[null]}]}]"#
        );
    }

    #[test]
    fn response_shapes() {
        assert_eq!(
            ok_response(Some(4), 2, BTreeMap::new()).render(),
            r#"{"generation":2,"id":4,"ok":true}"#
        );
        assert_eq!(
            error_response(None, "boom").render(),
            r#"{"error":"boom","ok":false}"#
        );
        assert_eq!(
            shed_response().render(),
            r#"{"error":"overloaded","ok":false,"shed":true}"#
        );
    }
}
