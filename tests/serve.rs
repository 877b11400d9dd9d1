//! Serving-layer invariants: snapshot swaps are atomic, refreshes never
//! block readers, and the wire path is byte-identical to the library path.
//!
//! The contract under test (DESIGN.md §13): a tenant is an immutable
//! snapshot record; readers take an `Arc` snapshot (no lock) and answer
//! against a complete generation — old or new, never a torn mix — while
//! mutations clone, rebuild off to the side, and publish atomically by
//! replacing the record in the tenant map. The proptest
//! interleaves random mutations with concurrent answers through the server
//! dispatcher and checks every observable answer against a library-built
//! mirror of some published generation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use udi::core::{Feedback, UdiConfig, UdiSystem};
use udi::serve::{
    execute_answer, handle, parse_request, AnswerPath, Json, ServeState, Server, ServerConfig,
};
use udi::store::{Catalog, Table};

const PROBE: &str = "SELECT name FROM people";

fn base_system() -> UdiSystem {
    let mut catalog = Catalog::new();
    let mut a = Table::new("s1", ["name", "phone"]);
    a.push_raw_row(["Alice", "123"]).unwrap();
    a.push_raw_row(["Bob", "456"]).unwrap();
    catalog.add_source(a).unwrap();
    let mut b = Table::new("s2", ["full_name", "tel"]);
    b.push_raw_row(["Carol", "999"]).unwrap();
    catalog.add_source(b).unwrap();
    UdiSystem::setup(catalog, UdiConfig::default()).unwrap()
}

/// A source that maps onto the mediated schema verbatim, so adding it
/// observably changes the probe's answers.
fn extra_source(i: usize) -> Table {
    let mut t = Table::new(format!("live{i}"), ["name", "phone"]);
    t.push_raw_row([format!("Eve{i}"), format!("{i}{i}{i}")])
        .unwrap();
    t
}

fn render_probe(sys: &UdiSystem) -> String {
    execute_answer(sys, AnswerPath::Consolidated, PROBE, 0)
        .unwrap()
        .render()
}

/// Readers racing a snapshot swap over real TCP must only ever observe a
/// complete generation: every response's answers fragment equals the
/// library render of generation 0 or generation 1, nothing in between.
#[test]
fn concurrent_readers_see_whole_generations_only() {
    let state = ServeState::new();
    state.register_tenant("t", base_system());
    let tenant = state.tenant("t").unwrap();

    // Library-built expectations for both generations.
    let expect_g0 = render_probe(&tenant.snapshot());
    let mut successor = (*tenant.snapshot()).clone();
    successor.add_source(extra_source(0)).unwrap();
    let expect_g1 = render_probe(&successor);
    assert_ne!(expect_g0, expect_g1, "mutation must be observable");
    drop(successor);

    let server = Server::start(state.clone(), ServerConfig::default()).unwrap();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                use std::io::{BufRead, BufReader, Write};
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut seen = Vec::new();
                let mut completed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let line = format!(
                        r#"{{"op":"answer","tenant":"t","query":"{PROBE}"}}{}"#,
                        "\n"
                    );
                    stream.write_all(line.as_bytes()).unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    let parsed = udi::serve::json::parse(response.trim_end()).unwrap();
                    assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)), "{response}");
                    let answers = parsed.get("answers").unwrap().render();
                    if !seen.contains(&answers) {
                        seen.push(answers);
                    }
                    completed += 1;
                }
                (seen, completed)
            })
        })
        .collect();

    // Let readers observe generation 0, then publish generation 1 through
    // the wire while they keep reading.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let req = parse_request(
        r#"{"op":"add_source","tenant":"t","table":{"name":"live0","attrs":["name","phone"],"rows":[["Eve0","000"]]}}"#,
    )
    .unwrap();
    let resp = handle(&state, &req);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);

    let mut total = 0;
    for r in readers {
        let (seen, completed) = r.join().unwrap();
        total += completed;
        for answers in seen {
            assert!(
                answers == expect_g0 || answers == expect_g1,
                "reader observed a torn generation:\n{answers}\nexpected either\n{expect_g0}\nor\n{expect_g1}"
            );
        }
    }
    assert!(total > 0, "readers made no progress");
    // After the publish, a re-fetched record serves generation 1.
    assert_eq!(
        render_probe(&state.tenant("t").unwrap().snapshot()),
        expect_g1
    );
}

/// A refresh must never block readers: while a mutation holds the
/// tenant's gate and rebuilds off to the side, snapshot loads and renders
/// keep completing against the old generation. The mutation itself waits
/// until the reader has made that progress, so the test does not depend on
/// the reader being scheduled inside a few-millisecond rebuild; a reader
/// that blocks on the gate fails the test at the deadline instead of
/// hanging it.
#[test]
fn refresh_in_progress_does_not_block_readers() {
    const LOADS: u64 = 256;
    const DEADLINE: Duration = Duration::from_secs(30);

    let mut catalog = Catalog::new();
    for i in 0..10 {
        let mut t = Table::new(format!("s{i}"), ["name", "phone", "address", "year"]);
        t.push_raw_row([
            format!("P{i}"),
            format!("{i}00"),
            format!("{i} Main St"),
            "2008".to_owned(),
        ])
        .unwrap();
        catalog.add_source(t).unwrap();
    }
    let state = ServeState::new();
    state.register_tenant(
        "t",
        UdiSystem::setup(catalog, UdiConfig::default()).unwrap(),
    );
    let tenant = state.tenant("t").unwrap();

    let began = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let loads = Arc::new(AtomicU64::new(0));
    let renders = Arc::new(AtomicU64::new(0));

    let reader = {
        let tenant = tenant.clone();
        let began = began.clone();
        let done = done.clone();
        let loads = loads.clone();
        let renders = renders.clone();
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !done.load(Ordering::Acquire) {
                // Only work started after the mutation took the gate
                // counts. Render only occasionally so the loop's cadence
                // is dominated by loads, the invariant under test.
                let during = began.load(Ordering::Acquire);
                let sys = tenant.snapshot();
                if during {
                    loads.fetch_add(1, Ordering::Release);
                }
                if i.is_multiple_of(64) {
                    assert!(!render_probe(&sys).is_empty());
                    if during {
                        renders.fetch_add(1, Ordering::Release);
                    }
                }
                i += 1;
            }
        })
    };

    let mut feedback = Feedback::new();
    feedback.confirm_same("name", "address");
    feedback.confirm_different("phone", "year");
    let published = state.mutate_tenant("t", |sys| {
        began.store(true, Ordering::Release);
        let start = Instant::now();
        while (loads.load(Ordering::Acquire) < LOADS || renders.load(Ordering::Acquire) == 0)
            && start.elapsed() < DEADLINE
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        sys.apply_feedback(&feedback)
    });
    done.store(true, Ordering::Release);
    reader.join().unwrap();

    assert!(matches!(published, Some(Ok(2))), "{published:?}");
    let (loads, renders) = (
        loads.load(Ordering::Acquire),
        renders.load(Ordering::Acquire),
    );
    assert!(
        loads >= LOADS && renders > 0,
        "{loads} snapshot loads and {renders} renders completed in {DEADLINE:?} while a \
         mutation held the gate — readers blocked"
    );
    assert_eq!(
        state
            .tenant("t")
            .unwrap()
            .snapshot()
            .feedback()
            .judgment("name", "address"),
        Some(true)
    );
}

/// One mutation op for the interleaving property.
#[derive(Debug, Clone)]
enum Mutation {
    AddSource(usize),
    Feedback(&'static str, &'static str, bool),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..1000).prop_map(Mutation::AddSource),
        (0usize..4, 1usize..4, any::<bool>()).prop_map(|(a, off, same)| {
            // Offset keeps the pair distinct without a filter.
            const POOL: [&str; 4] = ["name", "phone", "full_name", "tel"];
            Mutation::Feedback(POOL[a], POOL[(a + off) % 4], same)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleave random mutations with concurrent answers: after every
    /// mutation published through the server dispatcher, the served answer
    /// must be byte-identical to a library mirror that applied the same
    /// mutations directly — and a racing reader thread must only ever see
    /// well-formed, complete-generation responses.
    #[test]
    fn interleaved_mutations_and_answers_stay_consistent(
        ops in prop::collection::vec(mutation_strategy(), 1..5)
    ) {
        let state = ServeState::new();
        state.register_tenant("t", base_system());
        let tenant = state.tenant("t").unwrap();
        let mut mirror = (*tenant.snapshot()).clone();

        // Racing reader through the dispatcher: every response it sees
        // must be ok and parse back to the bytes it was rendered from.
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let state = state.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let req = parse_request(
                    &format!(r#"{{"op":"answer","tenant":"t","query":"{PROBE}"}}"#)
                ).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let resp = handle(&state, &req);
                    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
                    let rendered = resp.render();
                    let reparsed = udi::serve::json::parse(&rendered).unwrap();
                    assert_eq!(reparsed.render(), rendered);
                }
            })
        };

        for op in &ops {
            let req_line = match op {
                Mutation::AddSource(i) => {
                    mirror.add_source(extra_source(*i)).unwrap();
                    format!(
                        r#"{{"op":"add_source","tenant":"t","table":{{"name":"live{i}","attrs":["name","phone"],"rows":[["Eve{i}","{i}{i}{i}"]]}}}}"#
                    )
                }
                Mutation::Feedback(a, b, same) => {
                    let mut fb = udi::core::Feedback::new();
                    if *same { fb.confirm_same(a, b); } else { fb.confirm_different(a, b); }
                    mirror.apply_feedback(&fb).unwrap();
                    let field = if *same { "same" } else { "different" };
                    format!(
                        r#"{{"op":"apply_feedback","tenant":"t","{field}":[["{a}","{b}"]]}}"#
                    )
                }
            };
            let req = parse_request(&req_line).unwrap();
            let resp = handle(&state, &req);
            prop_assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "mutation failed");

            // Served answer after the publish == library mirror, bytewise,
            // on every path that takes a select query.
            let snapshot = state.tenant("t").unwrap().snapshot();
            for path in [AnswerPath::Consolidated, AnswerPath::Pmed, AnswerPath::ByTuple] {
                let served = execute_answer(&snapshot, path, PROBE, 0).unwrap().render();
                let mirrored = execute_answer(&mirror, path, PROBE, 0).unwrap().render();
                prop_assert_eq!(served, mirrored, "path {} diverged", path.name());
            }
        }

        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
    }
}
