//! Closed-loop load generation against `udi-serve` (Car domain).
//!
//! Stands the multi-tenant query server up in-process, drives it over real
//! TCP with N closed-loop clients (one outstanding request each), and
//! reports sustained queries/sec plus client-observed p50/p95/p99 latency.
//! Three phases:
//!
//! 1. **Identity** — every answer path is exercised once over the wire and
//!    the response's `answers` fragment must be byte-identical to the
//!    library path rendered through the same serializer. The server adds
//!    transport, not semantics.
//! 2. **Steady state** — N clients hammer the warm plan cache for a fixed
//!    window; latencies are measured client-side (the serving path itself
//!    reads no clocks).
//! 3. **Refresh under load** — while the clients keep running, the main
//!    thread publishes `add_source` mutations. Readers must never block on
//!    a refresh: every in-flight response stays well-formed (`ok` or a
//!    load-shed), and the tenant's generation advances at least once per
//!    mutation.
//!
//! Results are persisted to `results/BENCH_qps.json` (override with
//! `--out PATH`), schema `udi-exp-serve/v2`: v1 plus the host's core count
//! (`host_cores`) and the build profile (`profile`), without which two
//! artifacts cannot be compared. `--smoke` shrinks the corpus, client
//! count, and measure window to CI size. `--trace out.jsonl` records the
//! tenant's setup trace. `--help` prints the flags; any other argument
//! exits 2 before any corpus is generated.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use udi_bench::{arg_value, args_or_exit, banner, seed, sources_for, BenchObs};
use udi_core::{UdiConfig, UdiSystem};
use udi_datagen::{generate, Domain, GenConfig};
use udi_eval::generate_workload;
use udi_serve::{execute_answer, AnswerPath, ServeState, Server, ServerConfig};
use udi_store::Table;

/// One blocking request/response exchange on an established connection.
fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("write request");
    stream.write_all(b"\n").expect("write newline");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    response.trim_end().to_owned()
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// Escapes a query string into a JSON string literal body.
fn escape(q: &str) -> String {
    udi_serve::Json::Str(q.to_owned()).render()
}

struct ClientResult {
    latencies_us: Vec<u64>,
    requests: u64,
    shed: u64,
}

const USAGE: &str = "usage: exp_serve [--smoke] [--out PATH] [--trace PATH]
  --smoke       small corpus, few clients, short window
  --out PATH    artefact path (default results/BENCH_qps.json)
  --trace PATH  write a JSON-lines trace of the tenant's setup";

fn main() {
    let args = args_or_exit(USAGE, &["--smoke"], &["--out", "--trace"]);
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_qps.json".to_owned());
    banner(if smoke {
        "udi-serve closed-loop load — smoke mode"
    } else {
        "udi-serve closed-loop load (Car domain)"
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
    println!("corpus: {n} Car sources; setting the tenant up once…");
    let t0 = Instant::now();
    let system = match obs.sink() {
        Some(sink) => UdiSystem::setup_observed(gen.catalog.clone(), UdiConfig::default(), sink),
        None => UdiSystem::setup(gen.catalog.clone(), UdiConfig::default()),
    }
    .expect("setup");
    println!("setup in {:.1?}", t0.elapsed());

    let state = ServeState::new();
    state.register_tenant("bench", system);
    let server = Server::start(state.clone(), ServerConfig::default()).expect("start server");
    let addr = server.addr();
    let host_cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(2);
    // `ServerConfig::default()` runs one worker per core.
    let workers = host_cores;
    println!("serving on {addr} with {workers} workers");

    let queries: Vec<String> = generate_workload(&gen, 10, seed().wrapping_add(1))
        .iter()
        .map(|q| q.to_string())
        .collect();
    let agg_query = {
        let probe = generate_workload(&gen, 1, seed().wrapping_add(1));
        let attr = probe[0].select.first().cloned().unwrap_or_default();
        format!("SELECT COUNT({attr}) FROM T")
    };

    // Phase 1: byte identity on every path, over the wire.
    let tenant = state.tenant("bench").expect("tenant");
    let snapshot = tenant.snapshot();
    let (mut stream, mut reader) = connect(addr);
    for path in AnswerPath::ALL {
        let q = if path == AnswerPath::Aggregate {
            agg_query.as_str()
        } else {
            queries[0].as_str()
        };
        let request = format!(
            r#"{{"op":"answer","tenant":"bench","path":"{}","query":{}}}"#,
            path.name(),
            escape(q)
        );
        let response = exchange(&mut stream, &mut reader, &request);
        let parsed = udi_serve::json::parse(&response).expect("response json");
        let via_server = parsed
            .get("answers")
            .unwrap_or_else(|| panic!("no answers in {response}"))
            .render();
        let via_library = execute_answer(&snapshot, path, q, 0)
            .expect("library answer")
            .render();
        assert_eq!(
            via_server,
            via_library,
            "path {} diverged from the library",
            path.name()
        );
        println!(
            "identity ok on path {:>13}: {} bytes",
            path.name(),
            via_server.len()
        );
    }
    drop(snapshot);

    // Phase 2 + 3: closed-loop clients, then mutations injected mid-window.
    let clients = if smoke { 2 } else { 8 };
    let window = if smoke {
        Duration::from_millis(700)
    } else {
        Duration::from_secs(6)
    };
    let stop = Arc::new(AtomicBool::new(false));
    println!("\ndriving {clients} closed-loop clients for {window:.1?}…");

    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let queries = queries.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let mut result = ClientResult {
                    latencies_us: Vec::with_capacity(1 << 14),
                    requests: 0,
                    shed: 0,
                };
                let mut i = c; // stagger the starting query per client
                while !stop.load(Ordering::Relaxed) {
                    let q = &queries[i % queries.len()];
                    i += 1;
                    let request = format!(
                        r#"{{"op":"answer","tenant":"bench","id":{},"query":{}}}"#,
                        result.requests,
                        escape(q)
                    );
                    let t = Instant::now();
                    let response = exchange(&mut stream, &mut reader, &request);
                    let us = t.elapsed().as_micros() as u64;
                    result.requests += 1;
                    if response.contains(r#""shed":true"#) {
                        result.shed += 1;
                    } else {
                        assert!(
                            response.contains(r#""ok":true"#),
                            "client {c} got a failed response: {response}"
                        );
                        result.latencies_us.push(us);
                    }
                }
                result
            })
        })
        .collect();

    // Phase 3: refresh under load. Clone small corpus tables under fresh
    // names and publish them while the clients keep reading.
    let mutations = if smoke { 3 } else { 5 };
    let load_start = Instant::now();
    std::thread::sleep(window / 4);
    let gen_before = state.tenant("bench").expect("tenant").generation();
    let (mut mstream, mut mreader) = connect(addr);
    let mut refresh_total = Duration::ZERO;
    for m in 0..mutations {
        let src: &Table = gen
            .catalog
            .source(udi_store::SourceId((m % n) as u32))
            .expect("corpus table");
        let rows: String = src
            .to_rows()
            .iter()
            .take(8)
            .map(|row| {
                let cells: Vec<String> = row
                    .iter()
                    .map(|v| udi_serve::proto::value_to_json(v).render())
                    .collect();
                format!("[{}]", cells.join(","))
            })
            .collect::<Vec<_>>()
            .join(",");
        let attrs: Vec<String> = src.attributes().iter().map(|a| escape(a)).collect();
        let request = format!(
            r#"{{"op":"add_source","tenant":"bench","table":{{"name":"live_{m}","attrs":[{}],"rows":[{}]}}}}"#,
            attrs.join(","),
            rows
        );
        let t = Instant::now();
        let response = exchange(&mut mstream, &mut mreader, &request);
        refresh_total += t.elapsed();
        assert!(
            response.contains(r#""ok":true"#),
            "mutation {m} failed: {response}"
        );
    }
    let gen_after = state.tenant("bench").expect("tenant").generation();
    assert!(
        gen_after >= gen_before + mutations as u64,
        "{mutations} mutations must advance the generation at least {mutations} steps \
         (got {gen_before} → {gen_after})"
    );
    println!(
        "published {mutations} refreshes under load ({:.1?} total build time), generation {} → {}",
        refresh_total, gen_before, gen_after
    );

    while load_start.elapsed() < window {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    let mut latencies: Vec<u64> = Vec::new();
    let mut requests = 0u64;
    let mut shed = 0u64;
    for h in handles {
        let r = h.join().expect("client thread");
        latencies.extend(r.latencies_us);
        requests += r.requests;
        shed += r.shed;
    }
    let elapsed = load_start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
    let qps = requests as f64 / elapsed;

    println!();
    println!(
        "{:>10} {:>10} {:>8} {:>10} {:>10} {:>10}",
        "requests", "qps", "shed", "p50", "p95", "p99"
    );
    println!(
        "{:>10} {:>10.1} {:>8} {:>8}us {:>8}us {:>8}us",
        requests, qps, shed, p50, p95, p99
    );

    // Server-side counter cross-check through the stats op.
    let stats = exchange(
        &mut stream,
        &mut reader,
        r#"{"op":"stats","tenant":"bench"}"#,
    );
    let parsed = udi_serve::json::parse(&stats).expect("stats json");
    let served = parsed
        .get("counters")
        .and_then(|c| c.get("serve.requests"))
        .and_then(udi_serve::Json::as_i64)
        .unwrap_or(0);
    println!(
        "server counters: {served} requests handled, shed counter {}",
        state.counters().get("serve.shed")
    );
    assert!(
        served as u64 >= requests,
        "server handled {served} < client-observed {requests}"
    );

    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let json = format!(
        "{{\n  \"schema\": \"udi-exp-serve/v2\",\n  \"host_cores\": {host_cores},\n  \"profile\": \"{profile}\",\n  \"smoke\": {smoke},\n  \"clients\": {clients},\n  \"workers\": {workers},\n  \"sources\": {n},\n  \"duration_s\": {elapsed:.3},\n  \"requests\": {requests},\n  \"shed\": {shed},\n  \"qps\": {qps:.1},\n  \"p50_us\": {p50},\n  \"p95_us\": {p95},\n  \"p99_us\": {p99},\n  \"refreshes\": {mutations},\n  \"identity\": true\n}}\n"
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    println!("peak RSS: {}", udi_obs::fmt_rss(udi_obs::peak_rss_bytes()));
    obs.finish();
}
