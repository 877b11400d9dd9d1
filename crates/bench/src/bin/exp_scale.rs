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
//!   `setup.score`, and one `engine.pmapping.build` span per
//!   recomputed (source, schema) p-mapping).

use std::time::Instant;

use udi_bench::{banner, seed, BenchObs};
use udi_core::{UdiConfig, UdiSystem};
use udi_datagen::{scale_catalog, ScaleConfig};
use udi_obs::json::{self, Json};
use udi_obs::{fmt_rss, peak_rss_bytes, resident_rss_bytes};

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
    /// Resident set size right after setup, with the system still held:
    /// what the built artefacts occupy, where `peak_rss` also counts the
    /// transient peak of building them.
    resting_rss: Option<u64>,
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
    let resting_rss = resident_rss_bytes();
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
        resting_rss,
    }
}

fn print_entry(e: &Entry) {
    println!(
        "{:>10} {:>8} {:>10.0}ms {:>10.0}ms {:>8} {:>10} {:>10} {:>10}   [imp {:.0} med {:.0} pmap {:.0} cons {:.0}]",
        e.mode,
        e.sources,
        e.gen_ms,
        e.setup_ms,
        e.attrs,
        e.pairs_scored,
        fmt_rss(e.peak_rss),
        fmt_rss(e.resting_rss),
        e.stages[0],
        e.stages[1],
        e.stages[2],
        e.stages[3],
    );
}

/// A byte count as a JSON number, or `null` when it was not measured.
fn json_bytes(bytes: Option<u64>) -> String {
    bytes.map_or_else(|| "null".to_owned(), |b| b.to_string())
}

/// Hand-rolled JSON writer (flat schema, stable key order) — keeps the
/// artifact diffable and greppable without a serializer in the loop.
/// `norm_blocked_1k` is `null` when the plan has no 1k blocked/all-pairs
/// pair to divide.
fn render_json(smoke: bool, entries: &[Entry], norm_blocked_1k: Option<f64>) -> String {
    let norm = norm_blocked_1k.map_or_else(|| "null".to_owned(), |r| format!("{r:.4}"));
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"udi-exp-scale/v1\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"norm_blocked_1k\": {norm},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"sources\": {}, \"gen_ms\": {:.1}, \
             \"setup_ms\": {:.1}, \"attrs\": {}, \"pairs_scored\": {}, \
             \"peak_rss_bytes\": {}, \"resting_rss_bytes\": {}}}{}\n",
            e.mode,
            e.sources,
            e.gen_ms,
            e.setup_ms,
            e.attrs,
            e.pairs_scored,
            json_bytes(e.peak_rss),
            json_bytes(e.resting_rss),
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

/// The `norm_blocked_1k` ratio of a baseline document: `Ok(None)` for a
/// recorded `null` (the baseline run had no 1k pair), an error if the
/// document is not JSON or has no such field.
fn baseline_ratio(text: &str) -> Result<Option<f64>, String> {
    let doc = json::parse(text).map_err(|e| format!("is not valid JSON: {e}"))?;
    match doc.get("norm_blocked_1k") {
        Some(Json::Null) => Ok(None),
        Some(ratio) => ratio
            .as_f64()
            .map(Some)
            .ok_or_else(|| "has no numeric norm_blocked_1k field".to_owned()),
        None => Err("has no numeric norm_blocked_1k field".to_owned()),
    }
}

/// What the `--baseline` gate compares: `Ok(None)` when the baseline
/// recorded `null` (its run had no 1k pair, so there is nothing to hold
/// this run to), `Ok(Some((base, current)))` otherwise. A usable baseline
/// with no ratio from this run is an error: the gate was asked for and
/// cannot be applied.
fn gate_ratios(baseline: &str, current: Option<f64>) -> Result<Option<(f64, f64)>, String> {
    let Some(base) = baseline_ratio(baseline)? else {
        return Ok(None);
    };
    match current {
        Some(current) => Ok(Some((base, current))),
        None => Err("cannot gate this run: its plan has no 1k blocked/all-pairs pair".to_owned()),
    }
}

/// The `--baseline` regression gate: fail if the blocked path's normalized
/// setup time regressed more than 20% against the baseline file's. Exits 2
/// when the gate cannot be applied; skips only a baseline that recorded
/// `null`.
fn gate_against_baseline(path: &str, current: Option<f64>) {
    let ratios = match std::fs::read_to_string(path) {
        Ok(text) => gate_ratios(&text, current),
        Err(e) => Err(format!("cannot be read: {e}")),
    };
    let (base, current) = match ratios {
        Ok(Some(ratios)) => ratios,
        Ok(None) => {
            println!("regression gate skipped: baseline {path} recorded no 1k setup ratio");
            return;
        }
        Err(e) => {
            eprintln!("baseline {path}: {e}");
            std::process::exit(2);
        }
    };
    println!("baseline ratio {base:.3}, current {current:.3}");
    assert!(
        current <= base * 1.2,
        "blocked setup regressed >20% vs baseline: ratio {current:.3} \
         vs baseline {base:.3}"
    );
    println!("regression gate passed (within 20% of baseline)");
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
        "{:>10} {:>8} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "mode", "#src", "gen", "setup", "attrs", "pairs", "peak RSS", "rest RSS"
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
        (Some(b), Some(a)) => Some(b / a),
        _ => None,
    };
    println!();
    match norm_blocked_1k {
        Some(r) => println!(
            "blocked/all-pairs setup ratio at 1k sources: {r:.3} \
             (machine-portable regression metric)"
        ),
        None => println!("no 1k blocked/all-pairs pair in this plan: no setup ratio"),
    }

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
        gate_against_baseline(&path, norm_blocked_1k);
    }

    println!("peak RSS: {}", fmt_rss(peak_rss_bytes()));
    obs.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(mode: &'static str, sources: usize) -> Entry {
        Entry {
            mode,
            sources,
            gen_ms: 1.0,
            setup_ms: 2.0,
            stages: [0.0; 4],
            attrs: 3,
            pairs_scored: 4,
            peak_rss: Some(5 << 20),
            resting_rss: None,
        }
    }

    #[test]
    fn a_plan_without_the_1k_pair_renders_strict_json() {
        let entries = [entry("blocked", 10_000), entry("blocked", 30_000)];
        let text = render_json(false, &entries, None);
        let doc = json::parse(&text).expect("strict JSON");
        assert_eq!(doc.get("norm_blocked_1k"), Some(&Json::Null));
        assert_eq!(baseline_ratio(&text), Ok(None), "the gate skips it");
        let Some(Json::Arr(rows)) = doc.get("entries") else {
            panic!("entries array in {text}");
        };
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row.get("resting_rss_bytes"), Some(&Json::Null));
            assert_eq!(row.get("peak_rss_bytes"), Some(&Json::Int(5 << 20)));
        }
    }

    #[test]
    fn a_measured_ratio_round_trips_through_the_baseline_reader() {
        let entries = [entry("blocked", 1_000), entry("all-pairs", 1_000)];
        let text = render_json(true, &entries, Some(0.25));
        assert_eq!(baseline_ratio(&text), Ok(Some(0.25)));
        assert!(baseline_ratio("{}").is_err(), "a missing field is an error");
        assert!(baseline_ratio("{\"norm_blocked_1k\": NaN}").is_err());
    }

    #[test]
    fn the_gate_skips_only_a_null_baseline() {
        let measured = "{\"norm_blocked_1k\": 0.2}";
        let unmeasured = "{\"norm_blocked_1k\": null}";
        assert_eq!(gate_ratios(measured, Some(0.3)), Ok(Some((0.2, 0.3))));
        assert_eq!(gate_ratios(unmeasured, Some(0.3)), Ok(None));
        assert_eq!(gate_ratios(unmeasured, None), Ok(None));
        // Asked to gate a run that measured no ratio: an error, not a pass.
        assert!(gate_ratios(measured, None).is_err());
        assert!(gate_ratios("{}", Some(0.3)).is_err());
    }
}
