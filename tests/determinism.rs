//! Whole-pipeline determinism regression: two `UdiSystem::setup` runs over
//! the same generated catalog must produce *byte-identical* systems.
//!
//! This is the invariant the `deterministic-iteration` audit lint protects:
//! the paper's probabilistic identities (Algorithm 2 weights, Theorem 5.2
//! distributions) are checked against exact expectations elsewhere in the
//! suite, and any hash-order nondeterminism in schema enumeration, solver
//! input assembly, or consolidation would make those checks flaky instead
//! of red. Byte comparison of the serialized snapshot is the strongest
//! cheap form of "the same system": it covers the catalog, the
//! p-med-schema and every p-mapping probability bit (floats render
//! shortest-round-trip).

use udi::core::{UdiConfig, UdiSystem};
use udi::datagen::{generate, Domain, GenConfig};

fn build(seed: u64, threads: usize) -> UdiSystem {
    let gen = generate(
        Domain::Bib,
        &GenConfig {
            n_sources: Some(40),
            seed,
            ..GenConfig::default()
        },
    );
    let config = UdiConfig {
        threads,
        ..UdiConfig::default()
    };
    UdiSystem::setup(gen.catalog, config).expect("setup")
}

#[test]
fn identical_seeds_yield_byte_identical_systems() {
    for seed in [7u64, 1234] {
        let a = build(seed, 1).to_json();
        let b = build(seed, 1).to_json();
        assert_eq!(a, b, "seed {seed}: two runs diverged");
    }
}

#[test]
fn thread_count_does_not_perturb_the_snapshot() {
    let seq = build(99, 1).to_json();
    let par = build(99, 4).to_json();
    assert_eq!(seq, par, "parallel setup diverged from sequential");
}

#[test]
fn incremental_refresh_is_deterministic() {
    // Same mutation sequence twice: add a source post-setup, refresh, and
    // compare. Exercises the engine's incremental reuse paths (row moves,
    // cache hits), which are the likeliest home of order dependence.
    let run = || {
        let gen = generate(
            Domain::Bib,
            &GenConfig {
                n_sources: Some(30),
                seed: 4242,
                ..GenConfig::default()
            },
        );
        let mut catalog = gen.catalog;
        let first = catalog
            .iter_sources()
            .next()
            .map(|(_, t)| t.name().to_owned())
            .expect("non-empty");
        let extra = catalog.remove_source(&first).expect("present");
        let mut sys = UdiSystem::setup(catalog, UdiConfig::default()).expect("setup");
        sys.add_source(extra).expect("re-add");
        sys.to_json()
    };
    assert_eq!(run(), run(), "incremental path diverged");
}
