//! The deliberate-violation fixture workspace under `testdata/violations`
//! must yield exactly its expected diagnostic set — one finding per
//! workspace pass, the suppressed root absent, severities as configured.
//!
//! Keep in sync with `testdata/violations/crates/{alpha,beta}/src/`.

use std::path::Path;

use udi_audit::lints::{
    Severity, CRATE_LAYERING, DEAD_EXPORT, DETERMINISM_CERT, ERROR_DISCARD, HOT_PATH_CERT,
    LOCK_ORDER_CYCLE, PANIC_REACHABILITY, SHARED_MUTABLE_STATIC, STATIC_MUT, UNUSED_ALLOW,
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
        (alpha, HOT_PATH_CERT, 20, Severity::Error),        // hot_tally: unwrap under guard
        ("crates/beta/Cargo.toml", CRATE_LAYERING, 8, Severity::Error), // undeclared gamma
        (beta, STATIC_MUT, 5, Severity::Error),
        (beta, SHARED_MUTABLE_STATIC, 7, Severity::Error),
        (beta, PANIC_REACHABILITY, 15, Severity::Error), // entry
        (beta, PANIC_REACHABILITY, 24, Severity::Warning), // idx (warn mode)
        (beta, LOCK_ORDER_CYCLE, 31, Severity::Error),   // take_ab/take_ba inversion
        (beta, DETERMINISM_CERT, 52, Severity::Error),   // certified → seed → HashMap
        (beta, ERROR_DISCARD, 68, Severity::Error),      // discards: let _ =
        (beta, ERROR_DISCARD, 73, Severity::Warning),    // discards_old (ratcheted)
        (beta, DEAD_EXPORT, 82, Severity::Error),        // never_used
        (beta, DEAD_EXPORT, 85, Severity::Warning),      // old_debt (ratcheted)
        (beta, UNUSED_ALLOW, 87, Severity::Error),       // stale allow
        (beta, HOT_PATH_CERT, 92, Severity::Error),      // hot_read → lock_helper
        (beta, HOT_PATH_CERT, 102, Severity::Error),     // hot_plan → io_helper
        (beta, HOT_PATH_CERT, 115, Severity::Warning),   // hot_merge spawn (ratcheted)
        (beta, HOT_PATH_CERT, 125, Severity::Error),     // hot_stream channel
        // hot_render: the file read in udi-alpha::codec fails io-free; the
        // lock in udi-alpha::sink is exempt, so lock-free holds.
        (beta, HOT_PATH_CERT, 133, Severity::Error),
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
    assert_eq!(report.errors().count(), 16);
    assert_eq!(report.warnings().count(), 4);
    assert!(!report.is_clean());
}

#[test]
fn hot_path_cert_names_budget_chain_and_site() {
    let report = fixture_report();
    let certs: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == HOT_PATH_CERT)
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

    // The poison violation sits in the root itself — no chain note, and
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
    assert!(
        poison.notes[0].starts_with("site: `.unwrap()` while guard `g` is held (poisons the lock)"),
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
        .find(|d| d.lint == PANIC_REACHABILITY && d.severity == Severity::Error)
        .expect("entry diagnostic");
    assert_eq!(
        entry.notes[0],
        "call chain: udi-beta::entry → udi-beta::mid → udi-alpha::risky"
    );
    assert_eq!(
        entry.notes[1],
        "panics at crates/alpha/src/lib.rs:11:13 (`unwrap`)"
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
    let cert = report
        .diagnostics
        .iter()
        .find(|d| d.lint == DETERMINISM_CERT)
        .expect("determinism diagnostic");
    assert_eq!(
        cert.message,
        "declared deterministic entry `udi-beta::certified` can reach hash-ordered iteration"
    );
    assert_eq!(
        cert.notes[0],
        "call chain: udi-beta::certified → udi-beta::seed"
    );
    assert_eq!(
        cert.notes[1],
        "site: `HashMap` at crates/beta/src/lib.rs:57:30 (hash-ordered iteration)"
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
    // reasoned allow(panic-reachability) — it must not appear at all, and
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
    assert!(json.contains("\"errors\":16"), "{json}");
    assert!(json.contains("\"warnings\":4"), "{json}");
    assert!(json.contains("\"lint\":\"panic-reachability\""), "{json}");
    // Per-lint counts ride in the summary for CI dashboards.
    assert!(json.contains("\"by_lint\":{"), "{json}");
    assert!(json.contains("\"lock-order-cycle\":1"), "{json}");
    assert!(json.contains("\"determinism-cert\":1"), "{json}");
    assert!(json.contains("\"error-discard\":2"), "{json}");
    assert!(json.contains("\"hot-path-cert\":6"), "{json}");
    // Notes with special characters survive escaping (the → arrow is
    // plain UTF-8; quotes and backslashes are escaped).
    assert!(json.contains("call chain: udi-beta::entry"), "{json}");
    assert_eq!(json.matches("\"severity\":\"warning\"").count(), 4);
}

#[test]
fn fixture_lexes_each_file_once() {
    let report = fixture_report();
    assert_eq!(report.files_scanned, 4);
    assert_eq!(report.lex_count, report.files_scanned);
}
