//! Query serving throughput over the prepared-plan layer (Car domain).
//!
//! The paper's setting is a serving one: setup happens once, then the
//! system answers a stream of queries. This experiment measures that
//! steady state the way udi-serve runs it — plans warm in the cache, and
//! 1..=`host_cores` concurrent callers each running sequential `answer`
//! over one shared system — as queries/sec over the standard workload on
//! the 817-source Car corpus, and verifies the serving layer's two
//! invariants along the way:
//!
//! * **byte identity** — at every caller count, every caller's warm-plan
//!   answers carry exactly the same values and probability bit patterns as
//!   the sequential cold-cache baseline;
//! * **scaling** — 4 callers deliver ≥ 2.5× the single-caller throughput
//!   (asserted in full mode on machines with ≥ 4 cores).
//!
//! The served path is measured next: 1 and 2 callers each running
//! `udi_serve::answer_into` (answers by reference, rendered straight into
//! a reused reply buffer), as replies/sec. Two callers is where sharing
//! the snapshot's cells costs: a path that bumps shared reference counts
//! slows down as callers are added, one that only reads does not. Before
//! timing, every hot query's `answer_into` reply is checked byte for byte
//! against `answer_reply_into` over the library's owned `AnswerSet`; a
//! difference exits non-zero.
//!
//! `answer_into` is the uncached path, so scan cost stays visible. The
//! server serves a repeat from the tenant record's answer cache: the last
//! throughput rows run `udi_serve::handle_into` on a registered tenant,
//! at 1 and 2 callers, where every request after the first of each query
//! is a hit. Their replies are checked against `answer_into`'s first.
//!
//! It then splits one sequential read into its layers, per query: the
//! library path (`answer`, then `answer_reply_into`, then the drop of the
//! answer set), the whole served reply (`answer_into` into a reused
//! buffer), the best time of each over repeated rounds, the reply bytes,
//! and the render time of each cell type (text, int, float, probability)
//! rendered alone. Full mode writes the split and the served throughput
//! to `results/BENCH_readpath.json`; smoke mode writes
//! `BENCH_readpath.json` in the working directory. Both record
//! `host_cores` and the build profile.
//!
//! `--smoke` runs a small corpus at 1–2 callers with no scaling assertion
//! — the CI configuration, proving the binary and both identity checks
//! work without paying for the full corpus. `--trace out.jsonl` records a
//! trace of the run. `--help` prints the flags; any other argument exits
//! 2 before any corpus is generated.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use udi_bench::{args_or_exit, banner, seed, sources_for, BenchObs};
use udi_core::{AnswerPath, UdiConfig, UdiSystem};
use udi_datagen::{generate, Domain, GenConfig};
use udi_eval::generate_workload;
use udi_obs::json::{render_float, render_int, render_string, Json};
use udi_query::{AnswerSet, Query};
use udi_serve::{answer_into, answer_reply_into, handle_into, parse_request, Request, ServeState};
use udi_store::Value;

/// Exact fingerprint of an answer set: source id, rendered values, raw
/// probability bits.
fn bits(set: &AnswerSet) -> Vec<(u32, String, u64)> {
    set.by_source()
        .iter()
        .flat_map(|(sid, ts)| {
            ts.iter()
                .map(|t| (sid.0, format!("{:?}", t.values), t.probability.to_bits()))
        })
        .collect()
}

/// One caller: a warm pass checked against `baseline`, then timed passes
/// until `window` has elapsed (at least two). Returns whether every answer
/// was identical and how many queries it executed, the checked pass
/// included.
fn caller(
    udi: &UdiSystem,
    queries: &[Query],
    baseline: &[Vec<(u32, String, u64)>],
    window: Duration,
) -> (bool, u64) {
    let identical = queries
        .iter()
        .zip(baseline)
        .all(|(q, expect)| &bits(&udi.answer(q)) == expect);
    let t0 = Instant::now();
    let (mut executed, mut passes) = (queries.len() as u64, 0u64);
    while t0.elapsed() < window || passes < 2 {
        for q in queries {
            std::hint::black_box(udi.answer(q));
            executed += 1;
        }
        passes += 1;
    }
    (identical, executed)
}

/// One served-path caller: `answer_into` over every query text into one
/// reused buffer until `window` has elapsed (at least two passes). Returns
/// how many replies it wrote.
fn served_caller(udi: &UdiSystem, texts: &[String], window: Duration) -> u64 {
    let mut out = String::new();
    let t0 = Instant::now();
    let (mut written, mut passes) = (0u64, 0u64);
    while t0.elapsed() < window || passes < 2 {
        for text in texts {
            out.clear();
            answer_into(udi, AnswerPath::Consolidated, text, 0, Some(1), &mut out)
                .expect("workload queries parse");
            std::hint::black_box(out.len());
            written += 1;
        }
        passes += 1;
    }
    written
}

/// One cache-on caller: `handle_into` over every request into one reused
/// buffer until `window` has elapsed (at least two passes). Returns how
/// many replies it wrote.
fn cached_caller(state: &ServeState, requests: &[Request], window: Duration) -> u64 {
    let mut out = String::new();
    let t0 = Instant::now();
    let (mut written, mut passes) = (0u64, 0u64);
    while t0.elapsed() < window || passes < 2 {
        for req in requests {
            out.clear();
            handle_into(state, req, &mut out);
            std::hint::black_box(out.len());
            written += 1;
        }
        passes += 1;
    }
    written
}

/// Replies/sec with 1 and then 2 threads each running `caller` (which
/// returns how many replies it wrote), printed under `label`.
fn replies_at_1_and_2(label: &str, caller: impl Fn() -> u64 + Sync) -> Vec<(usize, f64)> {
    println!("{:>8} {:>12} {:>9}", "callers", label, "speedup");
    let mut rows: Vec<(usize, f64)> = Vec::new();
    for callers in [1, 2] {
        let t0 = Instant::now();
        let written: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers).map(|_| scope.spawn(&caller)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .sum()
        });
        let qps = written as f64 / t0.elapsed().as_secs_f64();
        let speedup = qps / rows.first().map_or(qps, |&(_, q)| q);
        println!("{callers:>8} {qps:>12.1} {speedup:>8.2}x");
        rows.push((callers, qps));
    }
    rows
}

/// The `answer` request for `text` on the consolidated path, with id 1,
/// to tenant `TENANT`, as it comes off the wire.
fn answer_request(text: &str) -> Request {
    let mut line = String::from(r#"{"op":"answer","tenant":""#);
    line.push_str(TENANT);
    line.push_str(r#"","id":1,"query":"#);
    render_string(text, &mut line);
    line.push('}');
    parse_request(&line).expect("a well-formed request")
}

/// The tenant the cache-on rows register.
const TENANT: &str = "car";

/// Whether `handle_into` writes `answer_into`'s reply for every request,
/// on the miss that fills the answer cache and on the hit after it;
/// prints each query that differs.
fn cached_matches_served(state: &ServeState, udi: &UdiSystem, requests: &[Request]) -> bool {
    let mut same = true;
    for (i, req) in requests.iter().enumerate() {
        let text = req.query.as_deref().unwrap_or_default();
        let mut served = String::new();
        answer_into(udi, AnswerPath::Consolidated, text, 0, Some(1), &mut served)
            .expect("workload queries parse");
        for round in ["miss", "hit"] {
            let mut cached = String::new();
            handle_into(state, req, &mut cached);
            if cached != served {
                eprintln!("query {i} ({text}): handle_into ({round}) differs from answer_into");
                same = false;
            }
        }
    }
    same
}

/// Whether `answer_into` writes, for every query text, the bytes
/// `answer_reply_into` writes for the library's owned answer set; prints
/// each query that differs.
fn served_matches_library(udi: &UdiSystem, texts: &[String]) -> bool {
    let mut same = true;
    for (i, text) in texts.iter().enumerate() {
        let set = udi
            .answer_with(AnswerPath::Consolidated, text, 0)
            .expect("workload queries parse");
        let generation = udi.engine().generation();
        let mut library = String::new();
        answer_reply_into(
            Some(1),
            generation,
            AnswerPath::Consolidated,
            &set,
            &mut library,
        );
        let mut served = String::new();
        answer_into(udi, AnswerPath::Consolidated, text, 0, Some(1), &mut served)
            .expect("workload queries parse");
        if served != library {
            eprintln!("query {i} ({text}): answer_into differs from answer_reply_into");
            same = false;
        }
    }
    same
}

/// The cell types a reply renders, in report order.
const CELL_TYPES: [&str; 4] = ["text", "int", "float", "probability"];

/// One query's read path split into layers: best wall time per layer over
/// the rounds, in ms.
struct Split {
    query: String,
    tuples: usize,
    reply_bytes: usize,
    answer_ms: f64,
    reply_ms: f64,
    drop_ms: f64,
    /// The whole served reply: `answer_into` into a reused buffer.
    served_ms: f64,
    /// Per [`CELL_TYPES`] entry: cells rendered, best render ms.
    cells: [(usize, f64); 4],
}

impl Split {
    /// A split with every time `t`: ∞ to take minima into, 0 to sum into.
    fn new(query: String, t: f64) -> Split {
        Split {
            query,
            tuples: 0,
            reply_bytes: 0,
            answer_ms: t,
            reply_ms: t,
            drop_ms: t,
            served_ms: t,
            cells: [(0, t); 4],
        }
    }
}

/// Renders only the cells of type `CELL_TYPES[kind]` of `set`, as
/// `answer_reply_into` would, into `out`; returns how many it rendered.
/// Probabilities repeat the reply's memo: a run of equal bits is rendered
/// once.
fn render_cells(kind: usize, set: &AnswerSet, out: &mut String) -> usize {
    let mut count = 0;
    let mut last_bits = None;
    for (_, tuples) in set.by_source() {
        for t in tuples {
            if kind == 3 {
                count += 1;
                if last_bits != Some(t.probability.to_bits()) {
                    out.clear();
                    render_float(t.probability, out);
                    last_bits = Some(t.probability.to_bits());
                }
                continue;
            }
            for v in &t.values {
                match (kind, v) {
                    (0, Value::Text(s)) => render_string(s, out),
                    (1, Value::Int(i)) => render_int(*i, out),
                    (2, Value::Float(f)) => render_float(*f, out),
                    _ => continue,
                }
                count += 1;
            }
        }
    }
    count
}

/// Best-of-`rounds` layer split of each query's sequential read.
fn layer_split(udi: &UdiSystem, queries: &[Query], rounds: usize) -> Vec<Split> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut splits: Vec<Split> = queries
        .iter()
        .map(|q| Split::new(q.to_string(), f64::INFINITY))
        .collect();
    let mut out = String::new();
    for _ in 0..rounds {
        for (q, split) in queries.iter().zip(&mut splits) {
            let t = Instant::now();
            let set = udi.answer(q);
            split.answer_ms = split.answer_ms.min(ms(t));
            out.clear();
            let t = Instant::now();
            answer_reply_into(Some(1), 1, AnswerPath::Consolidated, &set, &mut out);
            split.reply_ms = split.reply_ms.min(ms(t));
            split.reply_bytes = out.len();
            split.tuples = set.len();
            for (kind, cell) in split.cells.iter_mut().enumerate() {
                out.clear();
                let t = Instant::now();
                let count = render_cells(kind, &set, &mut out);
                *cell = (count, cell.1.min(ms(t)));
            }
            let t = Instant::now();
            drop(set);
            split.drop_ms = split.drop_ms.min(ms(t));
            out.clear();
            let t = Instant::now();
            answer_into(
                udi,
                AnswerPath::Consolidated,
                &split.query,
                0,
                Some(1),
                &mut out,
            )
            .expect("workload queries parse");
            split.served_ms = split.served_ms.min(ms(t));
        }
    }
    splits
}

/// A duration in ms, kept to the microsecond.
fn ms_json(ms: f64) -> Json {
    Json::Float((ms * 1e3).round() / 1e3)
}

/// The split as a JSON document: per query, and summed over the queries.
fn split_json(
    splits: &[Split],
    served_qps: &[(usize, f64)],
    cached_qps: &[(usize, f64)],
    host_cores: usize,
    smoke: bool,
    sources: usize,
    rounds: usize,
) -> Json {
    let layers = |s: &Split| -> BTreeMap<String, Json> {
        let mut obj = BTreeMap::new();
        obj.insert("answer_ms".to_owned(), ms_json(s.answer_ms));
        obj.insert("answer_reply_into_ms".to_owned(), ms_json(s.reply_ms));
        obj.insert("drop_ms".to_owned(), ms_json(s.drop_ms));
        obj.insert("answer_into_ms".to_owned(), ms_json(s.served_ms));
        obj.insert("reply_bytes".to_owned(), Json::Int(s.reply_bytes as i64));
        obj.insert("tuples".to_owned(), Json::Int(s.tuples as i64));
        let cells = CELL_TYPES.iter().zip(&s.cells);
        obj.insert(
            "cells".to_owned(),
            Json::Obj(
                cells
                    .clone()
                    .map(|(k, &(n, _))| (k.to_string(), Json::Int(n as i64)))
                    .collect(),
            ),
        );
        obj.insert(
            "render_ms".to_owned(),
            Json::Obj(
                cells
                    .map(|(k, &(_, t))| (k.to_string(), ms_json(t)))
                    .collect(),
            ),
        );
        obj
    };
    let mut total = Split::new(String::new(), 0.0);
    for s in splits {
        total.tuples += s.tuples;
        total.reply_bytes += s.reply_bytes;
        total.answer_ms += s.answer_ms;
        total.reply_ms += s.reply_ms;
        total.drop_ms += s.drop_ms;
        total.served_ms += s.served_ms;
        for (sum, cell) in total.cells.iter_mut().zip(&s.cells) {
            *sum = (sum.0 + cell.0, sum.1 + cell.1);
        }
    }
    let per_query = splits
        .iter()
        .map(|s| {
            let mut obj = layers(s);
            obj.insert("query".to_owned(), Json::Str(s.query.clone()));
            Json::Obj(obj)
        })
        .collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut doc = BTreeMap::new();
    doc.insert(
        "schema".to_owned(),
        Json::Str("udi-exp-qps-readpath/v1".to_owned()),
    );
    doc.insert("host_cores".to_owned(), Json::Int(host_cores as i64));
    doc.insert("profile".to_owned(), Json::Str(profile.to_owned()));
    doc.insert("smoke".to_owned(), Json::Bool(smoke));
    doc.insert("sources".to_owned(), Json::Int(sources as i64));
    doc.insert("rounds".to_owned(), Json::Int(rounds as i64));
    doc.insert("queries".to_owned(), Json::Arr(per_query));
    let rows = |qps_at: &[(usize, f64)]| {
        let rows = qps_at.iter().map(|&(callers, qps)| {
            let mut obj = BTreeMap::new();
            obj.insert("callers".to_owned(), Json::Int(callers as i64));
            obj.insert("replies_per_s".to_owned(), Json::Float(qps.round()));
            Json::Obj(obj)
        });
        Json::Arr(rows.collect())
    };
    doc.insert("served_qps".to_owned(), rows(served_qps));
    doc.insert("served_cached_qps".to_owned(), rows(cached_qps));
    doc.insert("total".to_owned(), Json::Obj(layers(&total)));
    Json::Obj(doc)
}

const USAGE: &str = "usage: exp_qps [--smoke] [--trace PATH]
  --smoke       small corpus at 1-2 callers; writes BENCH_readpath.json here
                instead of results/BENCH_readpath.json
  --trace PATH  write a JSON-lines trace of the run";

fn main() {
    let args = args_or_exit(USAGE, &["--smoke"], &["--trace"]);
    let smoke = args.iter().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    banner(if smoke {
        "Query serving throughput — smoke mode"
    } else {
        "Query serving throughput at 1..=host_cores concurrent callers (Car domain)"
    });
    let obs = BenchObs::from_args();

    let n = if smoke { 40 } else { sources_for(Domain::Car) };
    let gen = generate(
        Domain::Car,
        &GenConfig {
            n_sources: Some(n),
            seed: seed(),
            ..GenConfig::default()
        },
    );
    println!("corpus: {n} Car sources; setting up once…");
    let t0 = Instant::now();
    let udi = match obs.sink() {
        Some(sink) => UdiSystem::setup_observed(gen.catalog.clone(), UdiConfig::default(), sink),
        None => UdiSystem::setup(gen.catalog.clone(), UdiConfig::default()),
    }
    .expect("setup");
    println!("setup in {:.1?}", t0.elapsed());
    println!("host_cores: {cores}");

    let queries = generate_workload(&gen, 10, seed().wrapping_add(1));

    // Sequential cold-cache baseline: the first pass compiles every plan
    // (misses), and its answers are the reference bit patterns every other
    // configuration must reproduce.
    let baseline: Vec<Vec<(u32, String, u64)>> =
        queries.iter().map(|q| bits(&udi.answer(q))).collect();
    println!(
        "plans compiled: {} cached, {} answers on the workload",
        udi.plan_cache_len(),
        baseline.iter().map(Vec::len).sum::<usize>()
    );
    println!();

    let caller_counts: Vec<usize> = if smoke {
        vec![1, 2]
    } else {
        (1..=cores).collect()
    };
    let window = if smoke {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(2)
    };

    println!(
        "{:>8} {:>12} {:>9} {:>10}",
        "callers", "queries/s", "speedup", "answers"
    );
    let mut qps_at: Vec<(usize, f64)> = Vec::new();
    for &callers in &caller_counts {
        let t0 = Instant::now();
        let results: Vec<(bool, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|_| scope.spawn(|| caller(&udi, &queries, &baseline, window)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let identical = results.iter().all(|&(same, _)| same);
        let executed: u64 = results.iter().map(|&(_, n)| n).sum();
        let qps = executed as f64 / elapsed;
        let speedup = qps / qps_at.first().map(|&(_, q)| q).unwrap_or(qps);
        println!(
            "{:>8} {:>12.1} {:>8.2}x {:>10}",
            callers,
            qps,
            speedup,
            if identical { "identical" } else { "DIFFER" }
        );
        assert!(
            identical,
            "answers at {callers} callers diverged from the sequential baseline"
        );
        qps_at.push((callers, qps));
    }

    println!();
    if smoke {
        println!("Smoke mode: scaling not asserted (corpus too small to amortize).");
    } else {
        let base = qps_at[0].1;
        let (top, top_qps) = qps_at.last().copied().unwrap_or((1, base));
        println!(
            "Headline: {:.2}x throughput at {top} callers vs 1 ({:.1} → {:.1} q/s), \
             answers byte-identical at every caller count.",
            top_qps / base,
            base,
            top_qps
        );
        match qps_at.iter().find(|&&(c, _)| c == 4) {
            Some(&(_, at4)) => assert!(
                at4 / base >= 2.5,
                "expected >=2.5x at 4 callers, got {:.2}x",
                at4 / base
            ),
            None => println!("(scaling assertion skipped: only {cores} cores available)"),
        }
    }

    // The served path: byte identity with the library's reply first, then
    // replies/sec at 1 and 2 callers.
    let texts: Vec<String> = queries.iter().map(Query::to_string).collect();
    println!();
    if !served_matches_library(&udi, &texts) {
        eprintln!("answer_into diverged from answer_reply_into on the library set");
        std::process::exit(1);
    }
    println!("answer_into replies equal answer_reply_into on every hot query");
    let served_qps = replies_at_1_and_2("replies/s", || served_caller(&udi, &texts, window));

    // The served path with the answer cache on: the system moves into a
    // registered tenant, whose record caches each reply's prefix.
    let state = ServeState::new();
    state.register_tenant(TENANT, udi);
    let udi = state.tenant(TENANT).expect("registered").snapshot();
    let requests: Vec<Request> = texts.iter().map(|t| answer_request(t)).collect();
    println!();
    if !cached_matches_served(&state, &udi, &requests) {
        eprintln!("handle_into diverged from answer_into");
        std::process::exit(1);
    }
    println!("handle_into replies (answer-cache miss and hit) equal answer_into");
    let cached_qps = replies_at_1_and_2("cached/s", || cached_caller(&state, &requests, window));

    // The layer split, best of `rounds` sequential reads per query.
    let rounds = if smoke { 5 } else { 20 };
    let splits = layer_split(&udi, &queries, rounds);
    println!();
    println!("Layer split, best of {rounds} rounds (ms; render ms per cell type alone):");
    println!(
        "{:>5} {:>9} {:>9} {:>7} {:>9} {:>10} {:>7} {:>7} {:>7} {:>7}",
        "query", "answer", "reply", "drop", "served", "bytes", "text", "int", "float", "prob"
    );
    for (i, s) in splits.iter().enumerate() {
        let [text, int, float, prob] = s.cells.map(|(_, t)| t);
        println!(
            "{:>5} {:>9.3} {:>9.3} {:>7.3} {:>9.3} {:>10} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            i,
            s.answer_ms,
            s.reply_ms,
            s.drop_ms,
            s.served_ms,
            s.reply_bytes,
            text,
            int,
            float,
            prob
        );
    }
    let doc = split_json(&splits, &served_qps, &cached_qps, cores, smoke, n, rounds);
    let out_path = if smoke {
        "BENCH_readpath.json"
    } else {
        "results/BENCH_readpath.json"
    };
    if let Err(e) = std::fs::write(out_path, doc.render() + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    println!("peak RSS: {}", udi_obs::fmt_rss(udi_obs::peak_rss_bytes()));
    obs.finish();
}
