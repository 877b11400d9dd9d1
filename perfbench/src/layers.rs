//! The traced run's per-layer numbers.
//!
//! Two sources, both outside the program: the spans and counters the
//! library already emits (read through a `MemorySink` installed with
//! `UdiSystem::setup_observed` / `set_sink`), and timings of calls into
//! each layer's public functions made from here, each wrapped in a span of
//! the benchmark's own so the probe trace nests the library's spans under
//! the call that caused them.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use udi_core::UdiSystem;
use udi_datagen::GeneratedDomain;
use udi_obs::{Event, MemorySink, Recorder};
use udi_query::{parse_aggregate_query, parse_query, AggregateQuery, AnswerSet, Query};
use udi_serve::{handle_line, ok_response, parse_request, render_answers, AnswerPath, Json};

use crate::stats::{median, percentile, self_times_us};
use crate::workload::{publish_head, Request, TENANT};
use crate::{Args, Metrics, Phase};

/// Probe repetitions per request line when the line's plan stays cached.
const WARM_REPS: usize = 3;
/// Request lines probed through `handle_line`.
const PROBE_LINES: usize = 10;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Metrics read off the sink at one point of the run, with the events
/// they came from (for the trace file).
pub struct Layers {
    metrics: Metrics,
    events: Vec<Event>,
}

/// Moves the sink's events out, leaving it empty for the next phase.
fn drain(sink: &MemorySink, metrics: Metrics) -> Layers {
    let events = sink.events();
    sink.clear();
    Layers { metrics, events }
}

/// Stage timings, blocking candidates and solve-cache reuse of the setup
/// the traced run just performed. Drains `sink`.
pub fn setup_layers(sys: &UdiSystem, sink: &MemorySink) -> Layers {
    let t = sys.report().timings.unwrap_or_default();
    let (hits, misses) = sys.engine().solve_cache_totals();
    let pairs = sink.counter_total("engine.block.candidates");
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    drain(
        sink,
        vec![
            ("setup.med_schema_ms", ms(t.med_schema), "ms"),
            ("setup.pmappings_ms", ms(t.pmappings), "ms"),
            ("setup.consolidation_ms", ms(t.consolidation), "ms"),
            ("similarity.pairs_scored", pairs as f64, "count"),
            (
                "maxent.solve_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
        ],
    )
}

/// Plan-cache reuse and per-source scan cost over the traced half of the
/// window, from the library's own spans and counters. Drains `sink`.
pub fn window_layers(sink: &MemorySink) -> Layers {
    let hits = sink.counter_total("query.plan.hit");
    let misses = sink.counter_total("query.plan.miss");
    let spans = sink.spans();
    let source_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "query.source")
        .map(|s| s.dur_us as f64)
        .collect();
    let answers = spans.iter().filter(|s| s.name == "query.answer").count();
    let scanned = sink.counter_total("query.tuples.scanned");
    let produced = sink.counter_total("query.answers.produced");
    drain(
        sink,
        vec![
            (
                "core.plan_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
            (
                "query.source_mean_us",
                source_us.iter().sum::<f64>() / source_us.len().max(1) as f64,
                "us",
            ),
            (
                "query.source_p99_us",
                percentile(&source_us, 0.99).map_or(0.0, |p| p.value),
                "us",
            ),
            (
                "query.sources_per_answer",
                source_us.len() as f64 / answers.max(1) as f64,
                "count",
            ),
            (
                "query.rows_scanned_per_answer",
                scanned as f64 / produced.max(1) as f64,
                "ratio",
            ),
        ],
    )
}

/// A parsed request: the select paths share one AST, aggregates another.
enum Parsed {
    Select(Query),
    Aggregate(AggregateQuery),
}

fn parse(req: &Request) -> Parsed {
    match req.path {
        AnswerPath::Aggregate => {
            Parsed::Aggregate(parse_aggregate_query(&req.query).expect("generated queries parse"))
        }
        _ => Parsed::Select(parse_query(&req.query).expect("generated queries parse")),
    }
}

/// The `UdiSystem` answer call behind `path`, parented on `parent`.
fn answer(sys: &UdiSystem, path: AnswerPath, q: &Parsed, parent: u64) -> AnswerSet {
    match (path, q) {
        (AnswerPath::Consolidated, Parsed::Select(q)) => sys.answer_traced(q, parent),
        (AnswerPath::Pmed, Parsed::Select(q)) => sys.answer_with_pmed_traced(q, parent),
        (AnswerPath::TopMapping, Parsed::Select(q)) => sys.answer_top_mapping_traced(q, parent),
        (AnswerPath::ByTuple, Parsed::Select(q)) => sys.answer_by_tuple_traced(q, parent),
        (_, Parsed::Aggregate(q)) => sys.answer_aggregate_traced(q, parent),
        (AnswerPath::Aggregate, Parsed::Select(_)) => unreachable!("parse() pairs paths"),
    }
}

/// Inputs of the probe phase.
pub struct ProbeInput<'a> {
    /// Command-line arguments.
    pub args: &'a Args,
    /// The corpus (for the refresh probe's table).
    pub gen: &'a GeneratedDomain,
    /// The server's state; the server is idle during the probes.
    pub state: &'a udi_serve::ServeState,
    /// The workload's request list.
    pub requests: &'a [Request],
    /// First request the window did not send (the cold stream's cursor).
    pub probe_from: usize,
    /// The trace sink installed on the served system.
    pub sink: &'a Arc<MemorySink>,
    /// The untraced half of the window.
    pub untraced: &'a Phase,
    /// The traced half of the window.
    pub traced: &'a Phase,
    /// Set-up layers.
    pub setup: Layers,
    /// The traced half's layers.
    pub window: Layers,
}

/// Per-layer metrics of a traced run; writes the run's spans to
/// `<out>/trace-<workload>-<seed>.jsonl`.
pub fn probe(input: &ProbeInput<'_>) -> Metrics {
    let args = input.args;
    let sink = input.sink;
    let mut metrics: Metrics = Vec::new();

    // Calls into each layer from here, with the server idle.
    let snapshot = input.state.tenant(TENANT).expect("tenant").snapshot();
    let generation = snapshot.engine().generation();
    let rec = Recorder::new(sink.clone());
    let cold = args.workload == crate::Workload::ReadCold;

    // Plan lookup as the workload sees it. The hot plans are cached. On
    // read-cold, `prepare` runs on lines nobody has sent, which miss; it
    // goes on until the plan cache stops keeping new plans, the state a
    // full window leaves it in (the window sends more distinct queries
    // than the cache holds), so that every later probe misses too.
    let mut plan = Vec::new();
    let time_prepare = |q: &Query| {
        let _s = rec.span("core.plan");
        let t = Instant::now();
        snapshot.prepare(q);
        ms(t)
    };
    let lines: Vec<&Request> = if cold {
        let mut next = input.probe_from;
        let mut full = false;
        while !(full && plan.len() >= PROBE_LINES) {
            let Some(req) = input.requests.get(next) else {
                break;
            };
            next += 1;
            if let Parsed::Select(q) = parse(req) {
                let before = snapshot.plan_cache_len();
                plan.push(time_prepare(&q));
                full = snapshot.plan_cache_len() == before;
            }
        }
        input.requests.iter().skip(next).take(PROBE_LINES).collect()
    } else {
        let lines: Vec<&Request> = input.requests.iter().take(PROBE_LINES).collect();
        for req in &lines {
            if let Parsed::Select(q) = parse(req) {
                plan.push(time_prepare(&q));
            }
        }
        lines
    };
    let reps = if cold { 1 } else { WARM_REPS };
    let mut handle = Vec::new();
    let mut parse_request_us = Vec::new();
    let mut parse_us = Vec::new();
    let mut render = Vec::new();
    let mut answer_ms = Vec::new();
    let mut free_ms = Vec::new();
    let mut kib = Vec::new();
    for (i, req) in lines.iter().enumerate() {
        let id = i as i64 + 1;
        let line = req.line(id);
        for _ in 0..reps {
            let root = rec.span("bench.probe");
            let t = Instant::now();
            let reply = {
                let _s = root.child("serve.handle");
                handle_line(input.state, &line)
            };
            let t_handle = ms(t);
            assert!(reply.contains(r#""ok":true"#), "probe failed: {reply:.300}");
            kib.push(reply.len() as f64 / 1024.0);

            let t = Instant::now();
            {
                let _s = root.child("serve.parse_request");
                parse_request(&line).expect("probe line parses");
            }
            let t_preq = ms(t);
            let t = Instant::now();
            let parsed = {
                let _s = root.child("query.parse");
                parse(req)
            };
            let t_parse = ms(t);
            let t = Instant::now();
            let set = {
                let s = root.child("core.answer");
                answer(&snapshot, req.path, &parsed, s.id())
            };
            let t_answer = ms(t);
            let t = Instant::now();
            let bytes = {
                let _s = root.child("serve.render");
                let mut extra = BTreeMap::new();
                extra.insert("answers".to_owned(), render_answers(&set));
                extra.insert("path".to_owned(), Json::Str(req.path.name().to_owned()));
                ok_response(Some(id), generation, extra).render()
            };
            let t_render = ms(t);
            // `handle_line` also frees the answer set before it returns.
            let t = Instant::now();
            {
                let _s = root.child("core.answer.free");
                drop(set);
            }
            free_ms.push(ms(t));
            assert_eq!(
                bytes, reply,
                "in-process layers must rebuild the served reply"
            );
            handle.push(t_handle);
            parse_request_us.push(t_preq * 1e3);
            parse_us.push(t_parse * 1e3);
            render.push(t_render);
            answer_ms.push(t_answer);
        }
    }
    let handle_ms = median(&handle).unwrap_or(0.0);

    // Clone-mutate, as `ServeState::mutate_tenant` does per publish, then
    // every answer path on the clone's fresh plan cache: first call
    // (compile + execute) against warm calls (execute).
    let t = Instant::now();
    let mut clone = {
        let _s = rec.span("serve.clone");
        (*snapshot).clone()
    };
    let clone_ms = ms(t);
    let table = parse_request(&format!(
        "{}1}}",
        publish_head(input.gen, args.seed, 1 << 20)
    ))
    .expect("publish line parses")
    .table
    .expect("add_source carries a table");
    let t = Instant::now();
    {
        let _s = rec.span("core.refresh");
        clone.add_source(table).expect("add_source");
    }
    let refresh_ms = ms(t);
    let report = clone.report();
    let refresh_t = report.timings.unwrap_or_default();
    let reused = report.cache.rows_reused as f64;
    let reused_ratio = reused / (reused + report.cache.rows_computed as f64).max(1.0);

    // Every probe line on every path (hot), or each cold line on its own
    // path. Consolidated, by-tuple and aggregate share the consolidated
    // plan key, so the compile cost is read where the key is new.
    let path_probes: Vec<Request> = if cold {
        lines.iter().map(|r| (*r).clone()).collect()
    } else {
        AnswerPath::ALL
            .iter()
            .flat_map(|&path| lines.iter().map(move |r| crate::workload::on_path(r, path)))
            .collect()
    };
    let mut warm: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut compile = Vec::new();
    for req in &path_probes {
        let parsed = parse(req);
        let s = rec.span("core.answer.first");
        let t = Instant::now();
        answer(&clone, req.path, &parsed, s.id());
        let first = ms(t);
        drop(s);
        let s = rec.span("core.answer.warm");
        let t = Instant::now();
        answer(&clone, req.path, &parsed, s.id());
        let w = ms(t);
        drop(s);
        if cold || req.path != AnswerPath::ByTuple {
            compile.push(first - w);
        }
        warm.entry(req.path.name()).or_default().push(w);
    }
    drop(clone);

    // Self time of every span the probes produced, the library's included.
    let probe_spans = sink.spans();
    let selfs = self_times_us(&probe_spans);
    let mut table: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut answer_self = Vec::new();
    let probe_ids: std::collections::BTreeSet<u64> = probe_spans
        .iter()
        .filter(|s| s.name == "core.answer")
        .map(|s| s.id)
        .collect();
    for (s, &own) in probe_spans.iter().zip(&selfs) {
        let e = table.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us;
        e.2 += own;
        if s.name == "query.answer" && probe_ids.contains(&s.parent) {
            answer_self.push(own as f64 / 1e3);
        }
    }
    println!("probe spans: count, total ms, self ms");
    for (name, (n, total, own)) in &table {
        println!(
            "  {name:<24} {n:>6} {:>10.2} {:>10.2}",
            *total as f64 / 1e3,
            *own as f64 / 1e3
        );
    }
    // One request taken apart: over the probe calls, the parts should add
    // up to the whole `handle_line` time. The plan lookup (and, on a miss,
    // the compile) runs inside `core.answer`.
    let total = |v: &[f64]| v.iter().sum::<f64>();
    let calls = handle.len();
    let parts = [
        ("serve.parse_request", total(&parse_request_us) / 1e3),
        ("query.parse", total(&parse_us) / 1e3),
        ("core.answer", total(&answer_ms)),
        ("serve.render", total(&render)),
        ("core.answer.free", total(&free_ms)),
    ];
    let covered: f64 = parts.iter().map(|(_, v)| v).sum();
    let coverage_pct = covered / total(&handle) * 100.0;
    println!(
        "serve.handle: {:.3} ms over {calls} calls; the layers below cover {coverage_pct:.1}%",
        total(&handle)
    );
    for (name, v) in parts {
        println!("  {name:<20} {v:>10.3} ms");
    }
    write_trace(input, &sink.events());

    let qps_untraced = input.untraced.qps();
    let qps_traced = input.traced.qps();
    let wire_ms = median(&input.untraced.latencies()).unwrap_or(0.0) - handle_ms;
    let warm_ms = |path: AnswerPath| median(warm.get(path.name()).map_or(&[][..], Vec::as_slice));

    metrics.extend([
        ("serve.handle_ms", handle_ms, "ms"),
        ("serve.wire_ms", wire_ms, "ms"),
        ("serve.render_ms", median(&render).unwrap_or(0.0), "ms"),
        ("serve.response_kib", median(&kib).unwrap_or(0.0), "KiB"),
        (
            "serve.parse_request_us",
            median(&parse_request_us).unwrap_or(0.0),
            "us",
        ),
        ("serve.clone_ms", clone_ms, "ms"),
        ("serve.handle_coverage_pct", coverage_pct, "%"),
        ("core.plan_ms", median(&plan).unwrap_or(0.0), "ms"),
        ("core.compile_ms", median(&compile).unwrap_or(0.0), "ms"),
    ]);
    for path in AnswerPath::ALL {
        let name = match path {
            AnswerPath::Consolidated => "core.answer_ms.consolidated",
            AnswerPath::Pmed => "core.answer_ms.pmed",
            AnswerPath::TopMapping => "core.answer_ms.top_mapping",
            AnswerPath::ByTuple => "core.answer_ms.by_tuple",
            AnswerPath::Aggregate => "core.answer_ms.aggregate",
        };
        metrics.push((name, warm_ms(path).unwrap_or(0.0), "ms"));
    }
    metrics.extend([
        ("core.refresh_ms", refresh_ms, "ms"),
        (
            "core.refresh.pmappings_ms",
            refresh_t.pmappings.as_secs_f64() * 1e3,
            "ms",
        ),
        (
            "core.refresh.consolidation_ms",
            refresh_t.consolidation.as_secs_f64() * 1e3,
            "ms",
        ),
        ("core.refresh.rows_reused_ratio", reused_ratio, "ratio"),
        ("query.parse_us", median(&parse_us).unwrap_or(0.0), "us"),
        (
            "query.answer.self_ms",
            median(&answer_self).unwrap_or(0.0),
            "ms",
        ),
    ]);
    metrics.extend(input.setup.metrics.iter().copied());
    metrics.extend(input.window.metrics.iter().copied());
    metrics.push((
        "obs.trace_overhead_pct",
        (qps_untraced - qps_traced) / qps_untraced * 100.0,
        "%",
    ));
    metrics
}

/// Writes the setup, traced-window and probe events as JSON lines. The
/// per-source spans are left out: one per source per request is hundreds
/// of thousands of lines, and their summary is already in the metrics.
fn write_trace(input: &ProbeInput<'_>, probes: &[Event]) {
    let args = input.args;
    let path = args.out.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let kept = input
            .setup
            .events
            .iter()
            .chain(&input.window.events)
            .chain(probes)
            .filter(|e| e.name != "query.source");
        for e in kept {
            writeln!(out, "{}", e.to_json())?;
        }
        out.flush()
    });
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
