//! Table 1 — "Number of tables in each domain and keywords that identify
//! the domain. Each domain contains 50 to 800 data sources."
//!
//! Prints the corpus statistics of the generated substitute alongside the
//! paper's source counts and keyword filters.

use udi_bench::{banner, seed, sources_for, BenchObs};
use udi_datagen::{generate, Domain, GenConfig};

fn main() {
    banner("Table 1: domain corpora");
    let obs = BenchObs::from_args();
    // Table 1 never runs the setup pipeline, so with --trace the only
    // events are the binary-local per-domain generation spans below.
    let recorder = obs.recorder();
    println!(
        "{:<8} {:>6} {:>8} {:>10} {:>10}  Keywords",
        "Domain", "#Src", "#Attrs", "#Frequent", "#Rows"
    );
    for domain in Domain::all() {
        let n = sources_for(domain);
        let mut span = recorder.span("bench.datagen");
        span.field("domain", domain.name());
        span.field("n_sources", n);
        let gen = generate(
            domain,
            &GenConfig {
                n_sources: Some(n),
                seed: seed(),
                ..GenConfig::default()
            },
        );
        span.field("n_rows", gen.catalog.total_rows() as u64);
        span.close();
        let frequent = gen
            .catalog
            .attribute_universe()
            .filter(|a| gen.catalog.attribute_frequency(a) >= 0.10)
            .count();
        println!(
            "{:<8} {:>6} {:>8} {:>10} {:>10}  {}",
            domain.name(),
            gen.catalog.source_count(),
            gen.catalog.attribute_count(),
            frequent,
            gen.catalog.total_rows(),
            domain.keywords()
        );
    }
    println!();
    println!("Paper reference: Movie 161, Car 817, People 49, Course 647, Bib 649 sources.");
    obs.finish();
}
