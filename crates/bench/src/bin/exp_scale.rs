//! Massive-corpus setup: blocked vs all-pairs scoring at 1k–100k sources.
//!
//! The paper's corpus topped out at 817 sources per domain, where
//! exhaustive pairwise attribute scoring is affordable. This experiment
//! drives the setup pipeline over the synthetic scale corpus
//! (`udi_datagen::scale`) whose vocabulary keeps growing with the source
//! count, and measures what the n-gram block index buys:
//!
//! * **blocked** — the default path: only candidate pairs sharing a
//!   character bigram are scored;
//! * **all-pairs** — `blocking: false`, the pre-blocking exhaustive path.
//!
//! The headline claim (asserted in the full run): blocked setup over
//! **10k** sources finishes in less wall-clock than all-pairs setup over
//! **2k**, and blocked setup over **100k** sources completes within an
//! 8 GB memory budget (peak RSS is recorded per entry).
//!
//! Results are persisted to `results/BENCH_scale.json` (override with
//! `--out PATH`). Flags:
//!
//! * `--smoke` — 1k sources only (both paths), for CI;
//! * `--baseline PATH` — regression gate: fail if the blocked path's
//!   *normalized* setup time (blocked ÷ all-pairs at 1k, a
//!   machine-portable ratio) regressed more than 20% vs the recorded
//!   baseline;
//! * `--trace out.jsonl` — structured trace (`setup.block`,
//!   `setup.score`, per-shard spans).

use std::time::Instant;

use udi_bench::{banner, seed, BenchObs};
use udi_core::{UdiConfig, UdiSystem};
use udi_datagen::{scale_catalog, ScaleConfig};
use udi_obs::json::{self, Json};
use udi_obs::{fmt_rss, peak_rss_bytes};

/// One measured setup run.
struct Entry {
    mode: &'static str,
    sources: usize,
    gen_ms: f64,
    setup_ms: f64,
    /// Per-stage split of `setup_ms` (import, med-schema, p-mappings,
    /// consolidation), from the engine's own timings.
    stages: [f64; 4],
    attrs: usize,
    pairs_scored: usize,
    peak_rss: Option<u64>,
}

fn run_one(obs: &BenchObs, n: usize, blocking: bool) -> Entry {
    let cfg = ScaleConfig {
        n_sources: n,
        seed: seed(),
        ..ScaleConfig::default()
    };
    let t0 = Instant::now();
    let catalog = scale_catalog(&cfg);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;

    let ucfg = UdiConfig {
        blocking,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8),
        ..UdiConfig::default()
    };
    let t1 = Instant::now();
    let system = match obs.sink() {
        Some(sink) => UdiSystem::setup_observed(catalog, ucfg, sink),
        None => UdiSystem::setup(catalog, ucfg),
    }
    .expect("setup");
    let setup_ms = t1.elapsed().as_secs_f64() * 1e3;
    let report = system.report();
    let stages = report
        .timings
        .map(|t| {
            [
                t.import.as_secs_f64() * 1e3,
                t.med_schema.as_secs_f64() * 1e3,
                t.pmappings.as_secs_f64() * 1e3,
                t.consolidation.as_secs_f64() * 1e3,
            ]
        })
        .unwrap_or_default();
    Entry {
        mode: if blocking { "blocked" } else { "all-pairs" },
        sources: n,
        gen_ms,
        setup_ms,
        stages,
        attrs: report.n_attributes,
        pairs_scored: report.cache.sim_misses,
        // VmHWM is a process-lifetime high-water mark; entries run in
        // increasing memory order so each reading approximates its own run.
        peak_rss: peak_rss_bytes(),
    }
}

fn print_entry(e: &Entry) {
    println!(
        "{:>10} {:>8} {:>10.0}ms {:>10.0}ms {:>8} {:>10} {:>10}   [imp {:.0} med {:.0} pmap {:.0} cons {:.0}]",
        e.mode,
        e.sources,
        e.gen_ms,
        e.setup_ms,
        e.attrs,
        e.pairs_scored,
        fmt_rss(e.peak_rss),
        e.stages[0],
        e.stages[1],
        e.stages[2],
        e.stages[3],
    );
}

/// Hand-rolled JSON writer (flat schema, stable key order) — keeps the
/// artifact diffable and greppable without a serializer in the loop.
fn render_json(smoke: bool, entries: &[Entry], norm_blocked_1k: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"udi-exp-scale/v1\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"norm_blocked_1k\": {norm_blocked_1k:.4},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"sources\": {}, \"gen_ms\": {:.1}, \
             \"setup_ms\": {:.1}, \"attrs\": {}, \"pairs_scored\": {}, \
             \"peak_rss_bytes\": {}}}{}\n",
            e.mode,
            e.sources,
            e.gen_ms,
            e.setup_ms,
            e.attrs,
            e.pairs_scored,
            e.peak_rss
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".to_owned()),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse `--flag` / `--flag VALUE` / `--flag=VALUE` style arguments.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let eq = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_owned());
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path =
        arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_scale.json".to_owned());
    let baseline = arg_value(&args, "--baseline");

    banner(if smoke {
        "Massive-corpus setup, smoke run (1k sources)"
    } else {
        "Massive-corpus setup: blocked vs all-pairs (1k-100k sources)"
    });
    let obs = BenchObs::from_args();

    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "mode", "#src", "gen", "setup", "attrs", "pairs", "peak RSS"
    );

    // Increasing memory order (see `Entry::peak_rss`).
    let plan: Vec<(usize, bool)> = match std::env::var("UDI_SCALE_ENTRIES") {
        // Ad-hoc probing: UDI_SCALE_ENTRIES="blocked:10000,all-pairs:2000".
        Ok(spec) => spec
            .split(',')
            .filter_map(|e| {
                let (mode, n) = e.split_once(':')?;
                Some((n.trim().parse().ok()?, mode.trim() == "blocked"))
            })
            .collect(),
        Err(_) if smoke => vec![(1_000, true), (1_000, false)],
        Err(_) => vec![
            (1_000, true),
            (1_000, false),
            (2_000, false),
            (10_000, true),
            (100_000, true),
        ],
    };
    // Unrecorded warm-up: the first setup in a process pays one-off costs
    // (allocator growth, lazy page-ins) that would skew the first entry.
    let _ = run_one(&obs, 200, true);

    let mut entries = Vec::new();
    for (n, blocking) in plan {
        let e = run_one(&obs, n, blocking);
        print_entry(&e);
        entries.push(e);
    }

    let setup_of = |mode: &str, n: usize| {
        entries
            .iter()
            .find(|e| e.mode == mode && e.sources == n)
            .map(|e| e.setup_ms)
    };
    let norm_blocked_1k = match (setup_of("blocked", 1_000), setup_of("all-pairs", 1_000)) {
        (Some(b), Some(a)) => b / a,
        _ => f64::NAN,
    };
    println!();
    println!(
        "blocked/all-pairs setup ratio at 1k sources: {norm_blocked_1k:.3} \
         (machine-portable regression metric)"
    );

    if let (Some(blocked_10k), Some(allpairs_2k)) =
        (setup_of("blocked", 10_000), setup_of("all-pairs", 2_000))
    {
        println!(
            "Headline: blocked setup at 10k sources ({blocked_10k:.0}ms) vs \
             all-pairs at 2k ({allpairs_2k:.0}ms)"
        );
        assert!(
            blocked_10k < allpairs_2k,
            "blocked 10k setup ({blocked_10k:.0}ms) must beat all-pairs 2k \
             ({allpairs_2k:.0}ms)"
        );
        let rss_100k = entries
            .iter()
            .find(|e| e.sources == 100_000)
            .and_then(|e| e.peak_rss);
        if let Some(b) = rss_100k {
            assert!(
                b < 8 << 30,
                "100k-source setup exceeded the 8 GiB budget: {}",
                fmt_rss(Some(b))
            );
        }
    }

    if let Err(e) = std::fs::write(&out_path, render_json(smoke, &entries, norm_blocked_1k)) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("results written to {out_path}");

    if let Some(path) = baseline {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let base = match json::parse(&text) {
            Ok(doc) => doc.get("norm_blocked_1k").and_then(Json::as_f64),
            Err(e) => {
                eprintln!("baseline {path} is not valid JSON: {e}");
                std::process::exit(2);
            }
        };
        let Some(base) = base else {
            eprintln!("baseline {path} has no numeric norm_blocked_1k field");
            std::process::exit(2);
        };
        println!("baseline ratio {base:.3}, current {norm_blocked_1k:.3}");
        assert!(
            norm_blocked_1k <= base * 1.2,
            "blocked setup regressed >20% vs baseline: ratio {norm_blocked_1k:.3} \
             vs baseline {base:.3}"
        );
        println!("regression gate passed (within 20% of baseline)");
    }

    println!("peak RSS: {}", fmt_rss(peak_rss_bytes()));
    obs.finish();
}
