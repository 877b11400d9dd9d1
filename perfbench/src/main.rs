//! Serving benchmark for `udi-serve` over the Car corpus.
//!
//! Stands a real `udi-serve` server up in-process over the 817-source Car
//! corpus and drives it over TCP from two closed-loop client threads (one
//! connection per core of a two-core host). Answer bytes are checked
//! against the library's `execute_answer` on the same snapshot generation.
//! See `METRICS.md` for the workloads and what each metric should move.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-hot --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload half untraced and half traced, probes each layer's public
//! functions from here, and prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! The command exits non-zero on a wrong answer.

mod client;
mod drive;
mod layers;
mod stats;
mod workload;

use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use udi_core::{UdiConfig, UdiSystem};
use udi_obs::MemorySink;
use udi_serve::{ServeState, Server, ServerConfig};

use drive::{
    count_wrong, expect_all, expected_digest, publish_loop, read_loop, sample, Expected, Order,
    ReaderLog,
};
use stats::{median, percentile, Tally};
use workload::{cold_requests, corpus, hot_requests, publish_head, Request, Workload, TENANT};

/// Car sources, as in the paper's Table 1.
const SOURCES: usize = 817;
/// Setups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Client connections, one per core of the two-core reference host.
const READERS: u64 = 2;
/// Read and write socket timeout of a reader connection.
const READ_TIMEOUT: Duration = Duration::from_secs(20);
/// Socket timeout of the publisher connection (a publish rebuilds).
const PUBLISH_TIMEOUT: Duration = Duration::from_secs(60);
/// Publishes of the traced run; the first brings the allocator to steady
/// state and is not timed.
const TRACED_PUBLISHES: u64 = 2;
/// Length of the `read-cold` request stream.
const COLD_STREAM: usize = 4000;
/// `read-cold` answers checked against the library after the window.
const COLD_SAMPLE: usize = 30;

const USAGE: &str = "usage: udi-perfbench --workload read-hot|read-cold --seed N \
--seconds S --trace 0|1 [--corpus-seed N] [--out DIR]";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which traffic mix.
    pub workload: Workload,
    /// Workload seed: query order, the cold stream, the published tables.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Corpus seed (the corpus is fixed across workload seeds).
    pub corpus_seed: u64,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::ReadHot,
            seed: 0,
            seconds: 0.0,
            trace: false,
            corpus_seed: 2008,
            out: PathBuf::from("perfbench/out"),
        };
        let mut required = 0;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    args.workload = Workload::from_name(value).ok_or_else(bad)?;
                    required |= 1;
                }
                "--seed" => {
                    args.seed = value.parse().map_err(|_| bad())?;
                    required |= 2;
                }
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad())?;
                    if !args.seconds.is_finite() || args.seconds <= 0.0 {
                        return Err(bad());
                    }
                    required |= 4;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    };
                    required |= 8;
                }
                "--corpus-seed" => args.corpus_seed = value.parse().map_err(|_| bad())?,
                "--out" => args.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if required != 15 {
            return Err("--workload, --seed, --seconds and --trace are required".to_owned());
        }
        Ok(args)
    }
}

/// A metric as printed: value and unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What one window of serving traffic produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// One log per reader connection.
    pub readers: Vec<ReaderLog>,
    /// Window length, start to the last reply, seconds.
    pub elapsed_s: f64,
}

impl Phase {
    /// Successful answers per second.
    pub fn qps(&self) -> f64 {
        let ok: u64 = self.readers.iter().map(|r| r.tally.ok).sum();
        ok as f64 / self.elapsed_s
    }

    /// Every reader's latencies, ms.
    pub fn latencies(&self) -> Vec<f64> {
        self.readers
            .iter()
            .flat_map(|r| r.lat_ms.iter().copied())
            .collect()
    }
}

/// One measured window of the workload's traffic: `READERS` closed-loop
/// clients until `seconds` have passed. `cursor` is the next unused entry
/// of the cold stream.
fn serve_window(
    args: &Args,
    addr: std::net::SocketAddr,
    requests: &[Request],
    cursor: &AtomicUsize,
    seconds: f64,
    phase: u64,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let readers: Vec<ReaderLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|c| {
                let order = match args.workload {
                    Workload::ReadCold => Order::Shared(cursor),
                    Workload::ReadHot => Order::Rounds(workload::mix(args.seed, phase * 16 + c)),
                };
                s.spawn(move || read_loop(addr, requests, order, deadline, READ_TIMEOUT))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    let last = readers.iter().filter_map(|r| r.finished).max();
    Phase {
        elapsed_s: last.map_or(seconds, |t| (t - start).as_secs_f64()),
        readers,
    }
}

/// Everything a run measured, for the report.
struct Outcome {
    metrics: Metrics,
    tally: Tally,
    correct: bool,
}

fn run(args: &Args) -> Outcome {
    let gen = corpus(args.corpus_seed, SOURCES);
    println!(
        "host: {{\"host_cores\":{},\"profile\":\"{}\",\"workload\":\"{}\",\"corpus_seed\":{},\
\"workload_seed\":{},\"sources\":{},\"rows\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\"}}",
        host_cores(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload.name(),
        args.corpus_seed,
        args.seed,
        gen.catalog.source_count(),
        gen.catalog.total_rows(),
        args.seconds,
        u8::from(args.trace),
        git_commit(),
    );

    // Set-up: repeated untraced for `setup_s`; once, observed, when traced.
    let sink = Arc::new(MemorySink::new());
    let mut setup_s = Vec::new();
    let mut system = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(system.take());
        let t = Instant::now();
        let built = if args.trace {
            UdiSystem::setup_observed(gen.catalog.clone(), UdiConfig::default(), sink.clone())
        } else {
            UdiSystem::setup(gen.catalog.clone(), UdiConfig::default())
        };
        setup_s.push(t.elapsed().as_secs_f64());
        system = Some(built.expect("setup of the Car corpus"));
    }
    let mut system = system.expect("at least one setup");
    println!("setup: {setup_s:.3?} s");
    let setup_layers = args.trace.then(|| layers::setup_layers(&system, &sink));
    system.set_sink(None);

    let requests = match args.workload {
        Workload::ReadHot => hot_requests(&gen, args.corpus_seed),
        Workload::ReadCold => cold_requests(&gen, args.seed, COLD_STREAM),
    };
    let state = ServeState::new();
    state.register_tenant(TENANT, system);
    let mut server = Server::start(state.clone(), ServerConfig::default()).expect("start server");
    let addr = server.addr();
    let first = state.tenant(TENANT).expect("tenant");
    let (generation0, sources0) = (
        first.generation(),
        first.snapshot().catalog().source_count(),
    );
    let mut expected = Expected::new();
    if args.workload == Workload::ReadHot {
        // Also compiles the hot plans: the window starts warm.
        expect_all(&first.snapshot(), &requests, &mut expected);
    }
    drop(first);

    let cursor = AtomicUsize::new(0);
    let (mut mutations, mut published) = (0u64, 0u64);
    let mut phases = Vec::new();
    let mut window_layers = None;
    if args.trace {
        // Half the window untraced, half traced. Each half serves a system
        // installed by clone-mutate-publish (the sink is set on the clone),
        // so both halves run on equally fresh copies.
        let half = args.seconds / 2.0;
        for (phase, traced) in [(0, None), (1, Some(sink.clone()))] {
            let traced: Option<Arc<dyn udi_obs::Sink>> = traced.map(|s| s as _);
            state
                .mutate_tenant::<Infallible>(TENANT, |s| {
                    s.set_sink(traced);
                    Ok(())
                })
                .expect("tenant")
                .expect("infallible");
            mutations += 1;
            phases.push(serve_window(args, addr, &requests, &cursor, half, phase));
        }
        window_layers = Some(layers::window_layers(&sink));
    } else {
        phases.push(serve_window(
            args,
            addr,
            &requests,
            &cursor,
            args.seconds,
            0,
        ));
    }
    let peak_rss_mib = udi_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64;

    let mut tally = Tally::default();
    for r in phases.iter().flat_map(|p| &p.readers) {
        tally.merge(&r.tally);
    }

    // Answer check against the library on the reply's generation: every
    // answer on read-hot (digests computed before the window), a fixed
    // sample on read-cold (computed now; no generation was published).
    let seen: Vec<&drive::Seen> = phases
        .iter()
        .flat_map(|p| p.readers.iter().flat_map(|r| r.seen.iter()))
        .collect();
    let (checked, wrong) = match args.workload {
        Workload::ReadHot => (seen.len(), count_wrong(seen.iter().copied(), &expected)),
        Workload::ReadCold => {
            let snapshot = state.tenant(TENANT).expect("tenant").snapshot();
            let generation = snapshot.engine().generation();
            let picked = sample(&seen, COLD_SAMPLE);
            for s in &picked {
                let d = expected_digest(&snapshot, &requests[s.req]);
                expected.insert((s.req, generation), d);
            }
            (picked.len(), count_wrong(picked, &expected))
        }
    };
    tally.demote_to_wrong(wrong);
    println!(
        "answers checked against the library: {checked} of {}, wrong: {wrong}",
        seen.len()
    );

    let metrics = if let Some(setup) = setup_layers {
        let mut metrics = layers::probe(&layers::ProbeInput {
            args,
            gen: &gen,
            state: &state,
            requests: &requests,
            probe_from: cursor.load(std::sync::atomic::Ordering::Relaxed),
            sink: &sink,
            untraced: &phases[0],
            traced: &phases[1],
            setup,
            window: window_layers.expect("traced run"),
        });
        // The write path end to end: `add_source` over TCP until the new
        // generation is visible, with the readers idle.
        let publishes = publish_loop(
            addr,
            |k| publish_head(&gen, args.seed, k),
            TRACED_PUBLISHES,
            PUBLISH_TIMEOUT,
        );
        tally.merge(&publishes.tally);
        mutations += publishes.tally.ok;
        published += publishes.tally.ok;
        println!("publish latencies: {:.1?} ms", publishes.latency_ms);
        let timed = publishes.latency_ms.last().copied().unwrap_or(0.0);
        metrics.push(("serve.publish_ms", timed, "ms"));
        metrics
    } else {
        let phase = &phases[0];
        let lat = phase.latencies();
        let p50 = percentile(&lat, 0.5);
        let p95 = percentile(&lat, 0.95);
        report_percentile("read_p50_ms", p50, lat.len());
        report_percentile("read_p95_ms", p95, lat.len());
        // A tail percentile read off too few samples is not reported as
        // one: fall back to the largest sample and say so.
        let p95 = p95.map(|p| p.value).unwrap_or_else(|| {
            eprintln!("warning: fewer than 10 samples beyond p95; reporting the maximum");
            lat.iter().copied().fold(0.0, f64::max)
        });
        println!(
            "fail_frac {} of {} operations",
            tally.fail_frac(),
            tally.attempted()
        );
        vec![
            ("setup_s", median(&setup_s).unwrap_or(0.0), "s"),
            ("read_qps", phase.qps(), "req/s"),
            ("read_p50_ms", p50.map_or(0.0, |p| p.value), "ms"),
            ("read_p95_ms", p95, "ms"),
            ("ok_frac", 1.0 - tally.fail_frac(), "ratio"),
            ("peak_rss_mib", peak_rss_mib, "MiB"),
        ]
    };

    // Accounting: the final generation and source count are the initial
    // ones plus the mutations and publishes that succeeded.
    let last = state.tenant(TENANT).expect("tenant");
    let (generation1, sources1) = (last.generation(), last.snapshot().catalog().source_count());
    let accounted =
        generation1 == generation0 + mutations && sources1 as u64 == sources0 as u64 + published;
    println!(
        "tenant generation {generation0} -> {generation1} over {mutations} mutations, \
sources {sources0} -> {sources1} over {published} publishes"
    );
    println!("operations {tally:?}");
    drop(last);
    server.shutdown();

    let correct = tally.correct() && accounted;
    Outcome {
        metrics,
        tally,
        correct,
    }
}

fn report_percentile(name: &str, p: Option<stats::Percentile>, n: usize) {
    match p {
        Some(p) => println!(
            "{name}: {:.3} ms ({} samples, {} beyond)",
            p.value, p.samples, p.beyond
        ),
        None => println!("{name}: too few samples ({n})"),
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&args);
    for (name, value, unit) in &out.metrics {
        println!("{name:>34} {value:>14.4} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.correct,
        out.tally.attempted(),
        out.tally.failed(),
        metrics.join(",")
    );
    if !out.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = Args::parse(&argv(
            "--workload read-cold --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ReadCold);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert_eq!(a.corpus_seed, 2008);
        assert!(Args::parse(&argv("--workload read-hot --seed 1 --seconds 10")).is_err());
        assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload read-hot --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload read-hot --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
