//! The prepared-plan cache must be invisible in the output: on every
//! answer path, a warm plan and a cold one must produce answers
//! **byte-identical** (probabilities compared via `f64::to_bits`). The plan
//! cache must also never survive an artifact mutation — `add_source` moves
//! the engine generation, so the next answer recompiles against the new
//! catalog.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use udi::core::{AnswerPath, UdiConfig, UdiSystem};
use udi::datagen::{generate, Domain, GenConfig};
use udi::eval::generate_workload;
use udi::obs::MemorySink;
use udi::query::{AnswerSet, Query};
use udi::store::Table;

/// Exact fingerprint of an answer set: source id, rendered values, and the
/// raw bit pattern of every probability.
fn bits(set: &AnswerSet) -> Vec<(u32, String, u64)> {
    set.by_source()
        .iter()
        .flat_map(|(sid, ts)| {
            ts.iter()
                .map(|t| (sid.0, format!("{:?}", t.values), t.probability.to_bits()))
        })
        .collect()
}

fn car_fixture(n_sources: usize, seed: u64) -> (udi::datagen::GeneratedDomain, Vec<Query>) {
    let gen = generate(
        Domain::Car,
        &GenConfig {
            n_sources: Some(n_sources),
            seed,
            ..GenConfig::default()
        },
    );
    let queries = generate_workload(&gen, 8, seed.wrapping_add(1));
    (gen, queries)
}

/// `query` as text for `path`: aggregates count rows per value of the
/// first selected attribute, under the same predicates.
fn text_on(path: AnswerPath, query: &Query) -> String {
    let text = query.to_string();
    match (path, query.select.first(), text.find(" FROM ")) {
        (AnswerPath::Aggregate, Some(first), Some(from)) => {
            format!("SELECT {first}, COUNT(*){} GROUP BY {first}", &text[from..])
        }
        _ => text,
    }
}

#[test]
fn cold_and_warm_plans_answer_identically_on_every_path() {
    let (gen, queries) = car_fixture(25, 7);
    // Never answered, so every clone of it starts with an empty plan cache.
    let pristine = UdiSystem::setup(gen.catalog.clone(), UdiConfig::default()).expect("setup");
    for path in AnswerPath::ALL {
        let mut udi = pristine.clone();
        let sink = Arc::new(MemorySink::new());
        udi.set_sink(Some(sink.clone()));
        for q in &queries {
            let text = text_on(path, q);
            let cold = bits(&udi.answer_with(path, &text, 0).expect("parses"));
            let hits = sink.counter_total("query.plan.hit");
            let warm = bits(&udi.answer_with(path, &text, 0).expect("parses"));
            assert_eq!(
                sink.counter_total("query.plan.hit"),
                hits + 1,
                "second call reuses the plan: {} {text}",
                path.name()
            );
            assert_eq!(
                cold,
                warm,
                "warm plan changed answers: {} {text}",
                path.name()
            );
        }
    }
}

#[test]
fn mutations_invalidate_cached_plans() {
    let (gen, queries) = car_fixture(12, 42);
    let mut incr = UdiSystem::setup(gen.catalog.clone(), UdiConfig::default()).expect("setup");
    // Warm every plan against the original catalog.
    for q in &queries {
        incr.answer(q);
        incr.answer_with_pmed(q);
    }
    assert!(incr.plan_cache_len() > 0, "plans were cached");

    let mut extra = Table::new("extra-cars", ["model", "make", "price"]);
    extra.push_raw_row(["Falcon", "Ford", "1000"]).expect("row");
    incr.add_source(extra.clone()).expect("add_source");

    // A batch system over the extended catalog is the ground truth; a
    // stale plan (compiled for one source fewer) could not reproduce it.
    let mut catalog = gen.catalog.clone();
    catalog.add_source(extra).unwrap();
    let batch = UdiSystem::setup(catalog, UdiConfig::default()).expect("setup");
    for q in &queries {
        assert_eq!(bits(&incr.answer(q)), bits(&batch.answer(q)), "{q}");
        assert_eq!(
            bits(&incr.answer_with_pmed(q)),
            bits(&batch.answer_with_pmed(q)),
            "pmed: {q}"
        );
    }
}

#[test]
fn plan_cache_counters_and_source_spans_are_observable() {
    use std::sync::Arc;
    use udi::obs::MemorySink;

    let (gen, queries) = car_fixture(6, 3);
    let mut udi = UdiSystem::setup(gen.catalog.clone(), UdiConfig::default()).expect("setup");
    let sink = Arc::new(MemorySink::new());
    udi.set_sink(Some(sink.clone()));

    let q = &queries[0];
    udi.answer(q);
    udi.answer(q);
    assert_eq!(
        sink.counter_total("query.plan.miss"),
        1,
        "first call compiles"
    );
    assert_eq!(
        sink.counter_total("query.plan.hit"),
        1,
        "second call reuses"
    );
    assert!(udi.plan_cache_len() >= 1);

    // With a trace sink installed, execution emits one span per source,
    // parented under the query.answer span.
    let spans = sink.spans();
    let parent = spans
        .iter()
        .find(|s| s.name == "query.answer")
        .expect("query.answer span")
        .id;
    let per_source: Vec<_> = spans.iter().filter(|s| s.name == "query.source").collect();
    assert_eq!(per_source.len(), 2 * gen.catalog.source_count());
    assert!(per_source.iter().any(|s| s.parent == parent));

    // A mutation moves the generation: the next call must miss again.
    let mut extra = Table::new("extra-cars", ["model", "make", "price"]);
    extra.push_raw_row(["Falcon", "Ford", "1000"]).expect("row");
    udi.add_source(extra).expect("add_source");
    udi.answer(q);
    assert_eq!(
        sink.counter_total("query.plan.miss"),
        2,
        "stale plan recompiled"
    );
}

/// Shared fixture for the property: setup is expensive, so build one
/// never-answered system (cloned per case for a cold cache) and one
/// serving system whose cache warms up across cases.
fn shared() -> &'static (UdiSystem, UdiSystem, Vec<Query>) {
    static FX: OnceLock<(UdiSystem, UdiSystem, Vec<Query>)> = OnceLock::new();
    FX.get_or_init(|| {
        let (gen, queries) = car_fixture(18, 1234);
        let pristine = UdiSystem::setup(gen.catalog.clone(), UdiConfig::default()).expect("setup");
        let serving = pristine.clone();
        (pristine, serving, queries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any workload query on any answer path, a cold plan (a fresh
    /// cache) and a warm one (the serving system, whose cache every
    /// earlier case and the first call here have populated) give
    /// byte-identical answers.
    #[test]
    fn any_path_is_byte_identical_cold_and_warm(qi in 0usize..8, path in prop::sample::select(AnswerPath::ALL.to_vec())) {
        let (pristine, serving, queries) = shared();
        let text = text_on(path, &queries[qi]);
        let cold = bits(&pristine.clone().answer_with(path, &text, 0).expect("parses"));
        let first = bits(&serving.answer_with(path, &text, 0).expect("parses"));
        let warm = bits(&serving.answer_with(path, &text, 0).expect("parses"));
        prop_assert_eq!(&cold, &first, "{} {}", path.name(), text);
        prop_assert_eq!(&cold, &warm, "{} {}", path.name(), text);
    }
}
