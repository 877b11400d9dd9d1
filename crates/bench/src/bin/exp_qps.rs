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
//! `--smoke` runs a small corpus at 1–2 callers with no scaling assertion
//! — the CI configuration, proving the binary and the identity check work
//! without paying for the full corpus.

use std::time::{Duration, Instant};

use udi_bench::{banner, seed, sources_for, BenchObs};
use udi_core::{UdiConfig, UdiSystem};
use udi_datagen::{generate, Domain, GenConfig};
use udi_eval::generate_workload;
use udi_query::{AnswerSet, Query};

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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
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
    println!("peak RSS: {}", udi_obs::fmt_rss(udi_obs::peak_rss_bytes()));
    obs.finish();
}
