//! The deliberate-violation fixture workspace under `testdata/violations`
//! must yield exactly its expected diagnostic set — at least one finding
//! per workspace pass and per effect class, the suppressed root absent,
//! severities as configured.
//!
//! Keep in sync with `testdata/violations/crates/{alpha,beta}/src/`.

use std::path::Path;

use udi_audit::lints::{
    Severity, CRATE_LAYERING, DEAD_EXPORT, EFFECT_CERT, ERROR_DISCARD, LOCK_ORDER_CYCLE,
    NO_RAW_TIME, SHARED_MUTABLE_STATIC, UNUSED_ALLOW,
};
use udi_audit::{all_lints, audit_workspace, AuditReport};

fn fixture_report() -> AuditReport {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/violations");
    audit_workspace(&root, &all_lints()).expect("fixture audit runs")
}

#[test]
fn fixture_yields_exactly_the_expected_diagnostics() {
    let report = fixture_report();
    let got: Vec<(&str, &str, u32, Severity)> = report
        .diagnostics
        .iter()
        .map(|d| (d.path.as_str(), d.lint, d.line, d.severity))
        .collect();
    let alpha = "crates/alpha/src/lib.rs";
    let beta = "crates/beta/src/lib.rs";
    let expected: Vec<(&str, &str, u32, Severity)> = vec![
        ("audit.ratchet", DEAD_EXPORT, 3, Severity::Error), // stale entry (helper is live)
        (
            "crates/alpha/Cargo.toml",
            CRATE_LAYERING,
            7,
            Severity::Error,
        ), // back-edge
        (alpha, EFFECT_CERT, 20, Severity::Error),          // hot_tally: unwrap under guard
        ("crates/beta/Cargo.toml", CRATE_LAYERING, 8, Severity::Error), // undeclared gamma
        (beta, SHARED_MUTABLE_STATIC, 7, Severity::Error),
        (beta, EFFECT_CERT, 15, Severity::Error), // entry: panic-free
        (beta, EFFECT_CERT, 24, Severity::Error), // idx: an index panics too
        (beta, LOCK_ORDER_CYCLE, 31, Severity::Error), // take_ab/take_ba inversion
        (beta, EFFECT_CERT, 52, Severity::Error), // certified → seed → HashMap
        (beta, ERROR_DISCARD, 68, Severity::Error), // discards: let _ =
        (beta, ERROR_DISCARD, 73, Severity::Warning), // discards_old (ratcheted)
        (beta, DEAD_EXPORT, 82, Severity::Error), // never_used
        (beta, DEAD_EXPORT, 85, Severity::Warning), // old_debt (ratcheted)
        (beta, UNUSED_ALLOW, 87, Severity::Error), // stale allow
        (beta, EFFECT_CERT, 92, Severity::Error), // hot_read → lock_helper
        (beta, EFFECT_CERT, 102, Severity::Error), // hot_plan → io_helper
        (beta, EFFECT_CERT, 115, Severity::Warning), // hot_merge spawn (ratcheted)
        (beta, EFFECT_CERT, 125, Severity::Error), // hot_stream channel
        // hot_render: the file read in udi-alpha::codec fails io-free; the
        // lock in udi-alpha::sink is exempt, so lock-free holds.
        (beta, EFFECT_CERT, 133, Severity::Error),
        (beta, EFFECT_CERT, 140, Severity::Error), // certified_clock: deterministic
        (beta, NO_RAW_TIME, 141, Severity::Error), // ... and its `Instant` site
        (beta, EFFECT_CERT, 145, Severity::Error), // certified_env: deterministic
    ];
    assert_eq!(
        got,
        expected,
        "full rendering:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("{d}\n"))
            .collect::<String>()
    );
    assert_eq!(report.errors().count(), 19);
    assert_eq!(report.warnings().count(), 3);
    assert!(!report.is_clean());
}

#[test]
fn hot_path_cert_names_budget_chain_and_site() {
    let report = fixture_report();
    let blocking = [
        "lock-free",
        "io-free",
        "spawn-free",
        "channel-free",
        "poison-free",
    ];
    let certs: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == EFFECT_CERT && blocking.iter().any(|b| d.message.contains(b)))
        .collect();
    assert_eq!(certs.len(), 6, "{certs:?}");

    // Lock violation goes through a helper, so the chain note rides along.
    let lock = certs
        .iter()
        .find(|d| d.message.contains("lock-free"))
        .expect("lock diagnostic");
    assert_eq!(
        lock.message,
        "declared lock-free entry `udi-beta::hot_read` can reach a lock acquisition"
    );
    assert_eq!(
        lock.notes[0],
        "call chain: udi-beta::hot_read → udi-beta::lock_helper"
    );
    assert!(
        lock.notes[1]
            .starts_with("site: `.lock()` guard acquisition at crates/beta/src/lib.rs:97:"),
        "{:?}",
        lock.notes
    );

    // The poison violation sits in the root itself — a one-hop chain, and
    // the site names the guard variable.
    let poison = certs
        .iter()
        .find(|d| d.message.contains("poison-free"))
        .expect("poison diagnostic");
    assert_eq!(
        poison.message,
        "declared poison-free entry `udi-alpha::hot_tally` can reach a panic under a held lock \
         guard (mutex poison)"
    );
    assert_eq!(poison.notes[0], "call chain: udi-alpha::hot_tally");
    assert!(
        poison.notes[1].starts_with("site: `.unwrap()` while guard `g` is held (poisons the lock)"),
        "{:?}",
        poison.notes
    );

    // `safe_tally` drops its guard before the unwrap: declared poison-free
    // and certifies clean. The spawn inside beta's #[cfg(test)] mod must
    // not fail `hot_stream`'s spawn-free budget either: its only finding
    // is the channel construction.
    assert!(
        !certs.iter().any(|d| d.message.contains("safe_tally")),
        "path-sensitive guard kill ignored: {certs:?}"
    );
    let stream: Vec<_> = certs
        .iter()
        .filter(|d| d.message.contains("hot_stream"))
        .collect();
    assert_eq!(stream.len(), 1, "{stream:?}");
    assert!(stream[0].message.contains("channel-free"), "{stream:?}");

    // The ratcheted spawn entry downgrades to a warning.
    let merge = certs
        .iter()
        .find(|d| d.message.contains("hot_merge"))
        .expect("spawn diagnostic");
    assert_eq!(merge.severity, Severity::Warning);
    assert!(merge.message.ends_with("(ratcheted)"), "{}", merge.message);
}

#[test]
fn reachability_diagnostic_carries_the_full_call_chain() {
    let report = fixture_report();
    let entry = report
        .diagnostics
        .iter()
        .find(|d| d.lint == EFFECT_CERT && d.message.contains("`udi-beta::entry`"))
        .expect("entry diagnostic");
    assert_eq!(
        entry.message,
        "declared panic-free entry `udi-beta::entry` can reach a panic"
    );
    assert_eq!(
        entry.notes[0],
        "call chain: udi-beta::entry → udi-beta::mid → udi-alpha::risky"
    );
    assert_eq!(
        entry.notes[1],
        "site: `.unwrap()` at crates/alpha/src/lib.rs:11:13"
    );
    let idx = report
        .diagnostics
        .iter()
        .find(|d| d.message.contains("`udi-beta::idx`"))
        .expect("index diagnostic");
    assert_eq!(idx.severity, Severity::Error);
    assert_eq!(
        idx.notes[1],
        "site: `[…]` index at crates/beta/src/lib.rs:25:6"
    );
}

#[test]
fn lock_order_cycle_reports_both_edges_with_provenance() {
    // A → B is a direct second acquisition inside `take_ab`; B → A goes
    // through `helper_ba`, so its note must carry the call chain.
    let report = fixture_report();
    let cycle = report
        .diagnostics
        .iter()
        .find(|d| d.lint == LOCK_ORDER_CYCLE)
        .expect("cycle diagnostic");
    assert_eq!(
        cycle.message,
        "lock-order cycle: udi-beta::A → udi-beta::B → udi-beta::A"
    );
    assert_eq!(
        cycle.notes[0],
        "`udi-beta::take_ab` acquires `udi-beta::B` at crates/beta/src/lib.rs:31:16 \
         while holding `udi-beta::A`"
    );
    assert!(
        cycle.notes[1].contains("calls into `udi-beta::helper_ba`"),
        "{:?}",
        cycle.notes
    );
    assert_eq!(
        cycle.notes[2],
        "call chain: udi-beta::take_ba → udi-beta::helper_ba"
    );
}

#[test]
fn determinism_failure_names_chain_and_site() {
    let report = fixture_report();
    let certs: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == EFFECT_CERT && d.message.contains("deterministic"))
        .collect();
    assert_eq!(certs.len(), 3, "{certs:?}");
    let (hash, clock, env) = (certs[0], certs[1], certs[2]);
    assert_eq!(
        hash.message,
        "declared deterministic entry `udi-beta::certified` can reach hash-ordered iteration"
    );
    assert_eq!(
        hash.notes[0],
        "call chain: udi-beta::certified → udi-beta::seed"
    );
    assert_eq!(
        hash.notes[1],
        "site: `HashMap` at crates/beta/src/lib.rs:57:30"
    );
    assert_eq!(
        clock.message,
        "declared deterministic entry `udi-beta::certified_clock` can reach a raw clock read"
    );
    assert_eq!(
        clock.notes[1],
        "site: `Instant` at crates/beta/src/lib.rs:141:16"
    );
    assert_eq!(
        env.message,
        "declared deterministic entry `udi-beta::certified_env` can reach an environment read"
    );
    assert_eq!(
        env.notes[1],
        "site: `env::var` at crates/beta/src/lib.rs:146:15"
    );
}

#[test]
fn error_discard_distinguishes_let_from_bare_statement() {
    let report = fixture_report();
    let discards: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == ERROR_DISCARD)
        .collect();
    assert_eq!(discards.len(), 2);
    assert_eq!(
        discards[0].message,
        "`let _ =` discards the `Result` of `udi-beta::fallible`"
    );
    assert_eq!(
        discards[1].message,
        "bare statement drops the `Result` of `udi-beta::fallible` (ratcheted)"
    );
    assert_eq!(discards[1].severity, Severity::Warning);
}

#[test]
fn allowed_root_is_suppressed() {
    // `suppressed_root` reaches the same unwrap as `entry` but carries a
    // reasoned allow(effect-cert) — it must not appear at all, and
    // the directive must not be flagged unused. Likewise the two
    // shared-mutable-static allows on the lock-order scaffolding statics.
    let report = fixture_report();
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("suppressed_root")),
        "suppressed root leaked into diagnostics"
    );
    let unused: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == UNUSED_ALLOW)
        .collect();
    assert_eq!(
        unused.len(),
        1,
        "only the deliberate stale allow: {unused:?}"
    );
    assert_eq!(unused[0].line, 87);
}

#[test]
fn json_rendering_is_parseable_shape() {
    let report = fixture_report();
    let json = report.to_json();
    assert!(json.starts_with("{\"files_scanned\":4,"), "{json}");
    assert!(json.contains("\"errors\":19"), "{json}");
    assert!(json.contains("\"warnings\":3"), "{json}");
    assert!(json.contains("\"lint\":\"effect-cert\""), "{json}");
    // Per-lint counts ride in the summary for CI dashboards.
    assert!(json.contains("\"by_lint\":{"), "{json}");
    assert!(json.contains("\"lock-order-cycle\":1"), "{json}");
    assert!(json.contains("\"error-discard\":2"), "{json}");
    assert!(json.contains("\"effect-cert\":11"), "{json}");
    // Notes with special characters survive escaping (the → arrow is
    // plain UTF-8; quotes and backslashes are escaped).
    assert!(json.contains("call chain: udi-beta::entry"), "{json}");
    assert_eq!(json.matches("\"severity\":\"warning\"").count(), 3);
}

#[test]
fn fixture_lexes_each_file_once() {
    let report = fixture_report();
    assert_eq!(report.files_scanned, 4);
    assert_eq!(report.lex_count, report.files_scanned);
}
