//! Inputs: the Car corpus, the query streams of the two workloads, and
//! the `add_source` tables. Everything is a pure function of the corpus
//! seed and the workload seed.

use std::collections::BTreeSet;

use udi_datagen::{generate, Domain, GenConfig, GeneratedDomain};
use udi_query::{parse_aggregate_query, parse_query, Query};
use udi_serve::{AnswerPath, Json};
use udi_store::SourceId;

/// The tenant every request names.
pub const TENANT: &str = "bench";

/// Rows in each table an `add_source` publishes.
const PUBLISH_ROWS: usize = 8;

/// The traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop readers repeating the paper's 10-query workload.
    ReadHot,
    /// Two closed-loop readers walking distinct queries on all five paths.
    ReadCold,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "read-hot" => Some(Workload::ReadHot),
            "read-cold" => Some(Workload::ReadCold),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::ReadCold => "read-cold",
        }
    }
}

/// SplitMix64: one well-mixed 64-bit value per `(seed, i)`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The Car corpus with `sources` sources (the paper's Table 1 has 817).
pub fn corpus(seed: u64, sources: usize) -> GeneratedDomain {
    generate(
        Domain::Car,
        &GenConfig {
            n_sources: Some(sources),
            seed,
            ..GenConfig::default()
        },
    )
}

/// One `answer` request, pre-rendered except for its `id`.
#[derive(Debug, Clone)]
pub struct Request {
    /// The answer path.
    pub path: AnswerPath,
    /// The SQL text.
    pub query: String,
    head: String,
}

impl Request {
    fn new(path: AnswerPath, query: String) -> Request {
        let head = format!(
            r#"{{"op":"answer","tenant":"{TENANT}","path":"{}","query":{},"id":"#,
            path.name(),
            Json::Str(query.clone()).render()
        );
        Request { path, query, head }
    }

    /// The request line carrying `id`.
    pub fn line(&self, id: i64) -> String {
        format!("{}{id}}}", self.head)
    }
}

/// The query text parses on `path`.
fn parses(path: AnswerPath, text: &str) -> bool {
    match path {
        AnswerPath::Aggregate => parse_aggregate_query(text).is_ok(),
        _ => parse_query(text).is_ok(),
    }
}

/// The aggregate form of a select query: `COUNT` of its last select
/// attribute, grouped by the first when there are two or more.
fn aggregate_text(q: &Query) -> String {
    let plain = Query {
        select: Vec::new(),
        ..q.clone()
    }
    .to_string();
    // `plain` reads "SELECT  FROM T[ WHERE ...]"; keep everything from FROM.
    let from = plain.find(" FROM ").map_or("", |i| &plain[i..]);
    match q.select.as_slice() {
        [first, .., last] => format!("SELECT {first}, COUNT({last}){from} GROUP BY {first}"),
        [only] => format!("SELECT COUNT({only}){from}"),
        [] => format!("SELECT COUNT(*){from}"),
    }
}

/// The paper's §7.1 workload: 10 queries, fixed by the corpus, on the
/// consolidated path.
pub fn hot_requests(gen: &GeneratedDomain, corpus_seed: u64) -> Vec<Request> {
    udi_eval::generate_workload(gen, 10, corpus_seed.wrapping_add(1))
        .iter()
        .map(|q| Request::new(AnswerPath::Consolidated, q.to_string()))
        .collect()
}

/// A consolidated-path request moved to `path` (aggregates take the
/// query's aggregate form).
pub fn on_path(req: &Request, path: AnswerPath) -> Request {
    let text = match path {
        AnswerPath::Aggregate => {
            aggregate_text(&parse_query(&req.query).expect("hot queries parse"))
        }
        _ => req.query.clone(),
    };
    Request::new(path, text)
}

/// A stream of `n` distinct requests rotating through all five paths, so
/// no plan is ever looked up twice.
pub fn cold_requests(gen: &GeneratedDomain, seed: u64, n: usize) -> Vec<Request> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    let mut round = 0;
    while out.len() < n && round < 16 {
        for q in udi_eval::generate_workload(gen, n, mix(seed, round)) {
            let path = AnswerPath::ALL[out.len() % AnswerPath::ALL.len()];
            let text = match path {
                AnswerPath::Aggregate => aggregate_text(&q),
                _ => q.to_string(),
            };
            if parses(path, &text) && seen.insert(text.clone()) {
                out.push(Request::new(path, text));
                if out.len() == n {
                    break;
                }
            }
        }
        round += 1;
    }
    out
}

/// The `k`-th `add_source` of a run: the first rows of a corpus source
/// picked by the workload seed, under a fresh name. Returns the request
/// line without its `id` and closing brace.
pub fn publish_head(gen: &GeneratedDomain, seed: u64, k: u64) -> String {
    let n = gen.catalog.source_count().max(1) as u64;
    let idx = (mix(seed ^ 0xadd5, k) % n) as u32;
    let table = gen
        .catalog
        .source(SourceId(idx))
        .expect("index is below the source count");
    let attrs: Vec<Json> = table
        .attributes()
        .iter()
        .map(|a| Json::Str(a.clone()))
        .collect();
    let rows: Vec<Json> = table
        .to_rows()
        .iter()
        .take(PUBLISH_ROWS)
        .map(|row| Json::Arr(row.iter().map(udi_serve::proto::value_to_json).collect()))
        .collect();
    format!(
        r#"{{"op":"add_source","tenant":"{TENANT}","table":{{"name":"live-{seed}-{k}","attrs":{},"rows":{}}},"id":"#,
        Json::Arr(attrs).render(),
        Json::Arr(rows).render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_form_parses_and_groups() {
        let q = parse_query("SELECT make, model FROM T WHERE year > 2000").unwrap();
        let text = aggregate_text(&q);
        assert_eq!(
            text,
            "SELECT make, COUNT(model) FROM T WHERE year > 2000 GROUP BY make"
        );
        assert!(parses(AnswerPath::Aggregate, &text));
        let one = parse_query("SELECT make FROM T").unwrap();
        assert_eq!(aggregate_text(&one), "SELECT COUNT(make) FROM T");
    }

    #[test]
    fn request_lines_carry_the_id_last() {
        let r = Request::new(AnswerPath::Pmed, "SELECT a FROM T WHERE b = 'x'".to_owned());
        let line = r.line(42);
        let parsed = udi_serve::parse_request(&line).unwrap();
        assert_eq!(parsed.id, Some(42));
        assert_eq!(parsed.path, AnswerPath::Pmed);
        assert_eq!(
            parsed.query.as_deref(),
            Some("SELECT a FROM T WHERE b = 'x'")
        );
    }

    #[test]
    fn inputs_are_a_function_of_the_seeds() {
        let gen = corpus(2008, 12);
        let a = cold_requests(&gen, 5, 40);
        let b = cold_requests(&gen, 5, 40);
        assert_eq!(a.len(), 40);
        assert!(a.iter().zip(&b).all(|(x, y)| x.line(1) == y.line(1)));
        let distinct: BTreeSet<&str> = a.iter().map(|r| r.query.as_str()).collect();
        assert_eq!(distinct.len(), a.len());
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.path, AnswerPath::ALL[i % 5]);
        }
        assert_eq!(publish_head(&gen, 5, 1), publish_head(&gen, 5, 1));
        assert_ne!(publish_head(&gen, 5, 1), publish_head(&gen, 5, 2));
        let line = format!("{}1}}", publish_head(&gen, 5, 1));
        let table = udi_serve::parse_request(&line).unwrap().table.unwrap();
        assert!(table.row_count() <= PUBLISH_ROWS && table.row_count() > 0);
    }
}
