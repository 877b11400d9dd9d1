//! `udi-audit` CLI: lint the workspace tree, exit nonzero on violations.
//!
//! ```text
//! cargo run -p udi-audit -- --deny-all            # CI gate
//! cargo run -p udi-audit -- --list                # lint taxonomy
//! cargo run -p udi-audit -- --allow float-eq      # run all but one lint
//! cargo run -p udi-audit -- --root /path/to/tree  # explicit root
//! cargo run -p udi-audit -- --format json         # machine-readable
//! cargo run -p udi-audit -- --timings             # per-pass spans to stderr
//! cargo run -p udi-audit -- --bench-out B.json    # per-pass cost artifact
//! ```
//!
//! Exit codes: `0` clean (warnings allowed), `1` errors found, `2` usage,
//! I/O, or config error.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use udi_audit::{all_lints, audit_workspace_observed, find_workspace_root, LINTS};
use udi_obs::{MemorySink, Recorder, TraceSummary};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut disabled: BTreeSet<String> = BTreeSet::new();
    let mut deny_all = false;
    let mut quiet = false;
    let mut json = false;
    let mut timings = false;
    let mut bench_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root needs a directory argument"),
            },
            "--allow" => match args.next() {
                Some(l) => {
                    if !udi_audit::lints::is_known_lint(&l) {
                        return usage_error(&format!("unknown lint `{l}` (see --list)"));
                    }
                    disabled.insert(l);
                }
                None => return usage_error("--allow needs a lint name argument"),
            },
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                Some(other) => {
                    return usage_error(&format!("--format must be text|json, got `{other}`"))
                }
                None => return usage_error("--format needs text|json"),
            },
            "--deny-all" => deny_all = true,
            "--quiet" => quiet = true,
            "--timings" => timings = true,
            "--bench-out" => match args.next() {
                Some(p) => bench_out = Some(PathBuf::from(p)),
                None => return usage_error("--bench-out needs a file argument"),
            },
            "--list" => {
                for lint in LINTS {
                    println!("{:<26} {}", lint.name, lint.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "udi-audit: workspace static-analysis engine for UDI invariants\n\n\
                     usage: udi-audit [--root DIR] [--deny-all] [--allow LINT]... \
                     [--format text|json] [--quiet] [--timings] [--bench-out FILE] [--list]\n\n\
                     All lints run by default; --allow disables one, --deny-all re-enables\n\
                     everything (the CI configuration). Pass configuration (layering,\n\
                     effect budgets, ratchet path) comes from audit.toml at the\n\
                     workspace root. Exit codes: 0 clean (warnings allowed), 1 errors,\n\
                     2 usage/I-O/config error."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let mut enabled = all_lints();
    if !deny_all {
        enabled.retain(|l| !disabled.contains(*l));
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => return usage_error("no workspace root found (pass --root)"),
    };

    let sink = Arc::new(MemorySink::new());
    // The bench artifact is built from the same spans --timings prints,
    // so either flag turns the recorder on.
    let rec = if timings || bench_out.is_some() {
        Recorder::new(sink.clone())
    } else {
        Recorder::disabled()
    };

    let started = std::time::Instant::now();
    let report = match audit_workspace_observed(&root, &enabled, &rec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("udi-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let total_us = started.elapsed().as_micros();

    if timings {
        let summary = TraceSummary::from_events(&sink.events());
        let mut names: Vec<_> = summary.span_names().collect();
        names.sort();
        for name in names {
            if let Some(stat) = summary.span(name) {
                eprintln!("udi-audit: {name:<28} {:>8} us", stat.total_us);
            }
        }
        // Wall-clock total for the CI budget gate (spans nest, so their
        // sum over-counts; this is the number CI compares).
        eprintln!("udi-audit: {:<28} {total_us:>8} us", "total");
    }

    if let Some(path) = &bench_out {
        let summary = TraceSummary::from_events(&sink.events());
        let mut names: Vec<_> = summary.span_names().collect();
        names.sort_unstable();
        let passes = names
            .iter()
            .filter_map(|name| {
                summary
                    .span(name)
                    .map(|st| format!("    \"{name}\": {}", st.total_us))
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let lints = report
            .by_lint()
            .iter()
            .map(|(l, n)| format!("    \"{l}\": {n}"))
            .collect::<Vec<_>>()
            .join(",\n");
        let artifact = format!(
            "{{\n  \"schema\": \"udi-audit-bench/v1\",\n  \"files_scanned\": {},\n  \
             \"lints_enabled\": {},\n  \"errors\": {},\n  \"warnings\": {},\n  \
             \"total_us\": {total_us},\n  \"pass_us\": {{\n{passes}\n  }},\n  \
             \"by_lint\": {{\n{lints}\n  }}\n}}\n",
            report.files_scanned,
            enabled.len(),
            report.errors().count(),
            report.warnings().count(),
        );
        if let Err(e) = std::fs::write(path, artifact) {
            eprintln!(
                "udi-audit: cannot write bench artifact {}: {e}",
                path.display()
            );
            return ExitCode::from(2);
        }
    }

    if json {
        println!("{}", report.to_json());
        return if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let errors = report.errors().count();
    let warnings = report.warnings().count();
    if !quiet {
        for d in &report.diagnostics {
            println!("{d}\n");
        }
    }
    if report.is_clean() {
        if !quiet {
            if warnings > 0 {
                println!(
                    "udi-audit: clean — {} files, {} lints, {warnings} warning(s)",
                    report.files_scanned,
                    enabled.len()
                );
            } else {
                println!(
                    "udi-audit: clean — {} files, {} lints",
                    report.files_scanned,
                    enabled.len()
                );
            }
        }
        ExitCode::SUCCESS
    } else {
        println!(
            "udi-audit: {errors} error(s), {warnings} warning(s) across {} scanned file(s)",
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("udi-audit: {msg}");
    eprintln!(
        "usage: udi-audit [--root DIR] [--deny-all] [--allow LINT]... [--format text|json] \
         [--quiet] [--timings] [--bench-out FILE] [--list]"
    );
    ExitCode::from(2)
}
