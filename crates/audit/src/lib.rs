#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `udi-audit` — a zero-dependency static analysis engine enforcing the
//! workspace's probability, determinism, panic-freedom, and layering
//! invariants.
//!
//! UDI's correctness claims are probabilistic identities: p-med-schema
//! weights (Algorithm 2), maximum-entropy p-mapping distributions
//! (Theorem 5.2), and consolidation equivalence (Theorem 6.2). Those
//! identities silently degrade under hash-order nondeterminism, ad-hoc
//! float comparison, and panic-on-bad-input library code. This crate turns
//! the conventions that protect them into machine-checked rules, in the
//! same house style as `udi-obs`: hand-rolled, dependency-free, and wired
//! into both CI and the workspace test suite.
//!
//! The pipeline has two tiers sharing one token stream per file:
//!
//! 1. **File-local lints** ([`lints`]): token-pattern matchers over the
//!    hand-rolled Rust [`lexer`] output (nested block comments, raw
//!    strings, char literals vs. lifetimes).
//! 2. **Workspace passes**: a recursive-descent item [`parser`] extracts
//!    fns, impls, statics and `use` paths per file; [`graph`] assembles a
//!    call graph (with receiver-typed method resolution) and a
//!    crate-dependency edge list; [`mod@cfg`] builds a per-function control
//!    flow graph from each body's token range and [`dataflow`] runs
//!    gen/kill analyses over it. The passes then check transitive
//!    panic-reachability, the crate layering contract from `audit.toml`
//!    ([`config`]), concurrency rules, lock-acquisition-order cycles,
//!    determinism certification of the declared entry points,
//!    discarded `Result`s, and dead exports against the shared
//!    [`ratchet`] file.
//!
//! Every file is lexed exactly once per audit ([`Workspace::lex_count`]
//! asserts it); each pass is timed through a `udi-obs` span
//! (`audit.pass.*`). Diagnostics are rustc-style `file:line:col` with
//! `note:` context lines (e.g. full call chains), and any error-severity
//! finding makes the binary exit nonzero.
//!
//! See `AUDIT.md` at the repository root for the lint taxonomy and the
//! escape-hatch policy, and `DESIGN.md` §10 for the layering contract.
//!
//! # Example
//!
//! ```
//! use udi_audit::{audit_source, all_lints, CodeKind, FileClass};
//!
//! let class = FileClass { crate_name: "udi-core".into(), kind: CodeKind::Lib };
//! let diags = audit_source(
//!     "demo.rs",
//!     &class,
//!     "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
//!     &all_lints(),
//! );
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].lint, "no-panic-in-lib");
//! assert_eq!((diags[0].line, diags[0].col), (1, 37));
//! ```

pub mod cfg;
pub mod classify;
pub mod config;
pub mod dataflow;
pub mod effects;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod parser;
mod passes;
pub mod ratchet;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use udi_obs::json::render_string;

pub use classify::{classify, collect_sources, CodeKind, FileClass};
pub use config::{load_config, parse_config, Config, IndexMode};
pub use lints::{all_lints, audit_source, Diagnostic, LintInfo, Severity, LINTS};

use lexer::{lex, Token};
use parser::Item;

/// A failure of the audit *process* itself (I/O, bad config), as opposed
/// to audit findings.
#[derive(Debug)]
pub enum AuditError {
    /// A file or directory could not be read.
    Io(PathBuf, std::io::Error),
    /// `audit.toml` did not parse.
    Config {
        /// Path of the offending config file.
        path: PathBuf,
        /// 1-based line of the problem.
        line: u32,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Io(p, e) => write!(f, "cannot read {}: {e}", p.display()),
            AuditError::Config {
                path,
                line,
                message,
            } => {
                write!(f, "{}:{line}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// One lexed + parsed source file of the workspace.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Owning crate and code kind.
    pub class: FileClass,
    /// The file's full token stream — lexed once, shared by every lint
    /// and pass.
    pub tokens: Vec<Token>,
    /// The item model parsed from `tokens`.
    pub items: Vec<Item>,
}

/// The whole workspace, loaded once.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Every classifiable `.rs` file, in sorted path order.
    pub files: Vec<SourceFile>,
    /// How many times [`lexer::lex`] ran while loading — the lex-once
    /// contract means this always equals `files.len()`.
    pub lex_count: usize,
}

/// Read, lex, and parse every classifiable `.rs` file under `root`.
pub fn load_workspace(root: &Path) -> Result<Workspace, AuditError> {
    let sources = collect_sources(root).map_err(|e| AuditError::Io(root.to_path_buf(), e))?;
    let mut files = Vec::with_capacity(sources.len());
    let mut lex_count = 0usize;
    for (rel, class) in sources {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs).map_err(|e| AuditError::Io(abs.clone(), e))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let tokens = lex(&src);
        lex_count += 1;
        let items = parser::parse_items(&tokens);
        files.push(SourceFile {
            rel: rel_str,
            class,
            tokens,
            items,
        });
    }
    Ok(Workspace {
        root: root.to_path_buf(),
        files,
        lex_count,
    })
}

/// Outcome of a whole-workspace audit.
#[derive(Debug)]
pub struct AuditReport {
    /// Every finding, sorted by path, line, column, lint.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of lex runs (must equal `files_scanned`; see
    /// [`Workspace::lex_count`]).
    pub lex_count: usize,
}

impl AuditReport {
    /// Error-severity findings — these gate CI.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings (ratcheted debt, warn-mode indexing).
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// True when no *error* was found. Warnings do not dirty the tree —
    /// they are the visible, frozen debt the ratchet tracks.
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Per-lint finding counts (errors and warnings together), keyed by
    /// lint name in sorted order. Feeds both the JSON report and the
    /// `--bench-out` CI artifact.
    pub fn by_lint(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut m = std::collections::BTreeMap::new();
        for d in &self.diagnostics {
            *m.entry(d.lint).or_insert(0) += 1;
        }
        m
    }

    /// Machine-readable rendering: one JSON object with summary counts
    /// (total and per-lint) and a `diagnostics` array. Stable field
    /// order; strings go through the workspace codec's renderer.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.diagnostics.len() * 160);
        out.push_str(&format!(
            "{{\"files_scanned\":{},\"lex_count\":{},\"errors\":{},\"warnings\":{},\"by_lint\":{{",
            self.files_scanned,
            self.lex_count,
            self.errors().count(),
            self.warnings().count(),
        ));
        for (i, (lint, n)) in self.by_lint().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_string(lint, &mut out);
            out.push_str(&format!(":{n}"));
        }
        out.push_str("},\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"severity\":\"{}\",\"lint\":",
                d.severity.word()
            ));
            render_string(d.lint, &mut out);
            out.push_str(",\"path\":");
            render_string(&d.path, &mut out);
            out.push_str(&format!(
                ",\"line\":{},\"col\":{},\"message\":",
                d.line, d.col
            ));
            render_string(&d.message, &mut out);
            out.push_str(",\"notes\":[");
            for (j, n) in d.notes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                render_string(n, &mut out);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Run every enabled lint and pass over a loaded workspace.
///
/// Each stage runs under a `udi-obs` span (`audit.pass.file-lints`,
/// `audit.graph.call`, `audit.cfg.build`,
/// `audit.pass.panic-reachability`, `audit.pass.crate-layering`,
/// `audit.pass.concurrency`, `audit.pass.lock-order`,
/// `audit.pass.determinism`, `audit.pass.hot-path-cert`,
/// `audit.pass.error-discard`, `audit.pass.dead-exports`) so a
/// [`udi_obs::TraceSummary`] of the recorder shows where audit time goes.
pub fn run_audit(
    ws: &Workspace,
    cfg: &Config,
    enabled: &BTreeSet<&str>,
    rec: &udi_obs::Recorder,
) -> Result<AuditReport, AuditError> {
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut directives: Vec<Vec<lints::AllowDirective>> = Vec::with_capacity(ws.files.len());

    {
        let _span = rec.span("audit.pass.file-lints");
        for file in &ws.files {
            let mut ds =
                lints::parse_directives(&file.rel, &file.tokens, enabled, &mut diagnostics);
            diagnostics.extend(lints::run_file_lints(
                &file.rel,
                &file.class,
                &file.tokens,
                &mut ds,
                enabled,
            ));
            directives.push(ds);
        }
    }

    let need_graph = [
        lints::PANIC_REACHABILITY,
        lints::LOCK_ORDER_CYCLE,
        lints::DETERMINISM_CERT,
        lints::ERROR_DISCARD,
        lints::HOT_PATH_CERT,
    ]
    .iter()
    .any(|l| enabled.contains(l));
    let call_graph = if need_graph {
        let _span = rec.span("audit.graph.call");
        graph::build_call_graph(&ws.files)
    } else {
        graph::CallGraph::default()
    };

    // Per-function CFGs, built once and shared by the dataflow passes.
    let need_cfg = [
        lints::LOCK_ORDER_CYCLE,
        lints::ERROR_DISCARD,
        lints::HOT_PATH_CERT,
    ]
    .iter()
    .any(|l| enabled.contains(l));
    let cfgs: Vec<Option<cfg::Cfg>> = if need_cfg {
        let _span = rec.span("audit.cfg.build");
        call_graph
            .fns
            .iter()
            .map(|node| {
                let body = node.body.clone()?;
                let file = ws.files.get(node.file)?;
                Some(cfg::build_cfg(&file.tokens, body))
            })
            .collect()
    } else {
        vec![None; call_graph.fns.len()]
    };

    // The ratchet file is shared by every ratcheting pass.
    let ratchet_path = cfg.ratchet.as_deref();
    let ratchet = match ratchet_path {
        Some(rel) => {
            ratchet::Ratchet::parse(&std::fs::read_to_string(ws.root.join(rel)).unwrap_or_default())
        }
        None => ratchet::Ratchet::default(),
    };

    if enabled.contains(lints::PANIC_REACHABILITY) {
        let _span = rec.span("audit.pass.panic-reachability");
        diagnostics.extend(passes::panic_reach::run(
            ws,
            cfg,
            &call_graph,
            &mut directives,
        ));
    }

    if enabled.contains(lints::CRATE_LAYERING) && !cfg.layers.is_empty() {
        let _span = rec.span("audit.pass.crate-layering");
        let mut edges = graph::manifest_deps(&ws.root)?;
        edges.extend(graph::use_deps(&ws.files));
        diagnostics.extend(passes::layering::run(cfg, &edges));
    }

    let conc = [lints::STATIC_MUT, lints::SHARED_MUTABLE_STATIC];
    if conc.iter().any(|l| enabled.contains(l)) {
        let _span = rec.span("audit.pass.concurrency");
        let mut found =
            passes::concurrency::run(ws, &cfg.interior_mutable_allowed, &mut directives);
        found.retain(|d| enabled.contains(d.lint));
        diagnostics.extend(found);
    }

    if enabled.contains(lints::LOCK_ORDER_CYCLE) {
        let _span = rec.span("audit.pass.lock-order");
        diagnostics.extend(passes::lock_order::run(
            ws,
            cfg,
            &call_graph,
            &cfgs,
            &ratchet,
            ratchet_path,
            &mut directives,
        ));
    }

    if enabled.contains(lints::DETERMINISM_CERT) {
        let _span = rec.span("audit.pass.determinism");
        diagnostics.extend(passes::determinism::run(
            ws,
            cfg,
            &call_graph,
            &ratchet,
            ratchet_path,
            &mut directives,
        ));
    }

    if enabled.contains(lints::HOT_PATH_CERT) {
        let _span = rec.span("audit.pass.hot-path-cert");
        diagnostics.extend(passes::hot_path::run(
            ws,
            cfg,
            &call_graph,
            &cfgs,
            &ratchet,
            ratchet_path,
            &mut directives,
        ));
    }

    if enabled.contains(lints::ERROR_DISCARD) {
        let _span = rec.span("audit.pass.error-discard");
        diagnostics.extend(passes::error_discard::run(
            ws,
            cfg,
            &call_graph,
            &cfgs,
            &ratchet,
            ratchet_path,
            &mut directives,
        ));
    }

    if enabled.contains(lints::DEAD_EXPORT) {
        if let Some(ratchet_rel) = ratchet_path {
            let _span = rec.span("audit.pass.dead-exports");
            diagnostics.extend(passes::dead_exports::run(
                ws,
                ratchet_rel,
                &ratchet,
                &mut directives,
            ));
        }
    }

    if enabled.contains(lints::UNUSED_ALLOW) {
        for (file, ds) in ws.files.iter().zip(directives.iter_mut()) {
            // A directive for a lint the caller disabled is trivially
            // "used": the run never gave it a chance to suppress.
            for d in ds.iter_mut() {
                if !enabled.contains(d.lint.as_str()) {
                    d.used = true;
                }
            }
            diagnostics.extend(lints::unused_allow_diags(&file.rel, ds));
        }
    }

    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.lint).cmp(&(b.path.as_str(), b.line, b.col, b.lint))
    });
    Ok(AuditReport {
        diagnostics,
        files_scanned: ws.files.len(),
        lex_count: ws.lex_count,
    })
}

/// Audit every classifiable `.rs` file under `root` with the given lint
/// set ([`all_lints`] for everything), reading `audit.toml` if present.
/// Convenience wrapper around [`load_workspace`] + [`run_audit`] with a
/// disabled recorder.
pub fn audit_workspace(root: &Path, enabled: &BTreeSet<&str>) -> Result<AuditReport, AuditError> {
    audit_workspace_observed(root, enabled, &udi_obs::Recorder::disabled())
}

/// [`audit_workspace`] with per-pass timing spans emitted through `rec`.
pub fn audit_workspace_observed(
    root: &Path,
    enabled: &BTreeSet<&str>,
    rec: &udi_obs::Recorder,
) -> Result<AuditReport, AuditError> {
    let ws = {
        let _span = rec.span("audit.load");
        load_workspace(root)?
    };
    let cfg = load_config(root)?;
    run_audit(&ws, &cfg, enabled, rec)
}

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
