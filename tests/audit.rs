//! Workspace audit gate: `cargo test` fails if any source file violates a
//! UDI invariant lint or workspace pass. The same check runs as a
//! standalone binary (`cargo run -p udi-audit -- --deny-all`) in CI; this
//! test wires it into the tier-1 suite so a violation cannot land through
//! either door.

use std::sync::Arc;

use udi_audit::{all_lints, audit_workspace_observed, find_workspace_root};
use udi_obs::{MemorySink, Recorder, TraceSummary};

#[test]
fn workspace_tree_is_audit_clean() {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let sink = Arc::new(MemorySink::new());
    let rec = Recorder::new(sink.clone());
    let report = audit_workspace_observed(&root, &all_lints(), &rec).expect("audit ran");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walker broken?",
        report.files_scanned
    );
    if !report.is_clean() {
        let mut msg = String::from("udi-audit violations:\n");
        for d in &report.diagnostics {
            msg.push_str(&format!("{d}\n"));
        }
        panic!("{msg}");
    }

    // The lex-once contract: the whole audit — file lints, call graph,
    // CFG construction, and all six workspace passes — lexes each file
    // exactly once.
    assert_eq!(
        report.lex_count, report.files_scanned,
        "token streams must be shared across passes, not re-lexed"
    );

    // Per-pass timings flow through udi-obs: every stage span must be
    // present in the trace exactly once.
    let summary = TraceSummary::from_events(&sink.events());
    for span in [
        "audit.load",
        "audit.pass.file-lints",
        "audit.graph.call",
        "audit.cfg.build",
        "audit.pass.crate-layering",
        "audit.pass.concurrency",
        "audit.pass.lock-order",
        "audit.pass.effect-cert",
        "audit.pass.error-discard",
        "audit.pass.dead-exports",
    ] {
        let stat = summary
            .span(span)
            .unwrap_or_else(|| panic!("missing audit span `{span}` in obs trace"));
        assert_eq!(stat.count, 1, "span `{span}` recorded {} times", stat.count);
    }
}
