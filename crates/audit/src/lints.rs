//! The lint pass: domain-specific rules over the token stream, with
//! scoped escape hatches.
//!
//! Each lint is a pattern over [`Token`]s plus an
//! applicability predicate over [`FileClass`].
//! Code inside `#[cfg(test)]` modules and `#[test]` functions is exempt
//! from every lint (the invariants protect *shipped* probability code, not
//! assertions about it).
//!
//! # Escape hatches
//!
//! A violation can be accepted explicitly — with a mandatory reason:
//!
//! ```text
//! // udi-audit: allow(no-panic-in-lib, "documented invariant: engine is only exposed configured")
//! ```
//!
//! The directive covers its own line when it trails code, otherwise the
//! next line of code. A directive without a reason, with an unknown lint
//! name, or that suppresses nothing is itself a violation
//! (`malformed-allow` / `unused-allow`) — the allow inventory is the
//! grep-able tech-debt ledger, so it must stay accurate.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::classify::{CodeKind, FileClass};
use crate::effects::{clock_site, hash_site, panic_site, print_site, significant, Near};
use crate::lexer::{lex, Token, TokenKind};
use crate::parser::is_comment;

/// `unwrap()/expect()/panic!/…` forbidden in library code of the
/// panic-free crates.
pub const NO_PANIC_IN_LIB: &str = "no-panic-in-lib";
/// `HashMap`/`HashSet` forbidden in probability-producing library code.
pub const DETERMINISTIC_ITERATION: &str = "deterministic-iteration";
/// `==`/`!=` against float literals forbidden in probability code.
pub const FLOAT_EQ: &str = "float-eq";
/// `Instant`/`SystemTime` forbidden outside `udi-obs` and bench code.
pub const NO_RAW_TIME: &str = "no-raw-time";
/// `println!`/`eprintln!`/`dbg!` forbidden in library code.
pub const NO_STRAY_IO: &str = "no-stray-io";
/// A `udi-audit:` directive that does not parse, names an unknown lint, or
/// omits the mandatory reason.
pub const MALFORMED_ALLOW: &str = "malformed-allow";
/// An allow directive that suppressed nothing — stale tech debt.
pub const UNUSED_ALLOW: &str = "unused-allow";
/// A crate dependency that violates the declared layer order.
pub const CRATE_LAYERING: &str = "crate-layering";
/// A non-`const` interior-mutable static outside the sanctioned crates.
pub const SHARED_MUTABLE_STATIC: &str = "shared-mutable-static";
/// A cycle in the workspace lock-acquisition-order graph (deadlock risk).
pub const LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
/// A dropped `Result` (`let _ = …` or a bare expression statement of a
/// fallible call) in library code.
pub const ERROR_DISCARD: &str = "error-discard";
/// A `pub` item with zero intra-workspace references.
pub const DEAD_EXPORT: &str = "dead-export";
/// An entry point whose transitive effect summary contains an effect its
/// `[effects]` budget bans (panics, nondeterminism, locks, blocking I/O,
/// spawns, channels, poisoning panics).
pub const EFFECT_CERT: &str = "effect-cert";

/// Name and one-line rationale of one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Lint name as used in diagnostics and allow directives.
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// Every lint the engine knows, in severity-independent display order.
pub const LINTS: &[LintInfo] = &[
    LintInfo {
        name: NO_PANIC_IN_LIB,
        summary: "library code of the panic-free crates must propagate UdiError, not panic \
                  (unwrap/expect/panic!/unreachable!/todo!/unimplemented!)",
    },
    LintInfo {
        name: DETERMINISTIC_ITERATION,
        summary: "HashMap/HashSet iteration order is nondeterministic; probability-producing \
                  crates (core, schema, maxent, query) must use BTreeMap/BTreeSet (or justify \
                  lookup-only use)",
    },
    LintInfo {
        name: FLOAT_EQ,
        summary: "==/!= against float literals breaks under rounding; compare via epsilon \
                  helpers (udi_schema::float)",
    },
    LintInfo {
        name: NO_RAW_TIME,
        summary: "Instant/SystemTime outside udi-obs and bench code splinters the timing \
                  source; use udi_obs spans or udi_obs::Stopwatch",
    },
    LintInfo {
        name: NO_STRAY_IO,
        summary: "println!/eprintln!/dbg! in library crates bypasses the obs sinks; emit \
                  events or return data instead",
    },
    LintInfo {
        name: MALFORMED_ALLOW,
        summary: "udi-audit directives must be `allow(<lint>, \"<reason>\")` with a known \
                  lint and a non-empty reason",
    },
    LintInfo {
        name: UNUSED_ALLOW,
        summary: "an allow directive that suppresses nothing is stale and must be removed",
    },
    LintInfo {
        name: CRATE_LAYERING,
        summary: "crate dependencies must respect the layer order declared in audit.toml; \
                  back-edges and undeclared crates fail",
    },
    LintInfo {
        name: SHARED_MUTABLE_STATIC,
        summary: "non-const interior-mutable statics outside udi-obs's sanctioned sink \
                  registry are hidden cross-thread channels; pass state explicitly",
    },
    LintInfo {
        name: LOCK_ORDER_CYCLE,
        summary: "two code paths acquiring the same locks in opposite orders deadlock under \
                  the parallel serving layer; acquisition order must be a DAG (chains reported)",
    },
    LintInfo {
        name: ERROR_DISCARD,
        summary: "`let _ = fallible()` or a bare `fallible();` statement silently drops a \
                  Result in library code; handle or propagate it",
    },
    LintInfo {
        name: DEAD_EXPORT,
        summary: "pub items nothing in the workspace references; existing debt is frozen \
                  in the ratchet file, new debt fails",
    },
    LintInfo {
        name: EFFECT_CERT,
        summary: "entry points under an audit.toml [effects] budget must not transitively \
                  reach what it bans: panics (panic-free), hash order, clock or env reads \
                  (deterministic), locks, blocking I/O, spawns, channels, poisoning panics \
                  (the readers-never-block budgets); chain and site reported",
    },
];

/// True if `name` is a known lint.
pub fn is_known_lint(name: &str) -> bool {
    LINTS.iter().any(|l| l.name == name)
}

/// The full lint set, as an enabled-set for [`audit_source`].
pub fn all_lints() -> BTreeSet<&'static str> {
    LINTS.iter().map(|l| l.name).collect()
}

/// How severe a finding is: errors gate CI, warnings are visible debt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails the audit (nonzero exit, red CI).
    Error,
    /// Reported and counted, but does not fail the audit. Used for
    /// ratcheted debt.
    Warning,
}

impl Severity {
    /// `"error"` / `"warning"` — the word diagnostics and JSON print.
    pub fn word(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One reported violation, rustc-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which lint fired.
    pub lint: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Extra context lines (call chains, ratchet hints), rendered as
    /// `note:` lines under the location.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// An error diagnostic with no notes.
    pub fn error(
        path: &str,
        line: u32,
        col: u32,
        lint: &'static str,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            path: path.to_owned(),
            line,
            col,
            lint,
            severity: Severity::Error,
            message,
            notes: Vec::new(),
        }
    }

    /// A warning diagnostic with no notes.
    pub fn warning(
        path: &str,
        line: u32,
        col: u32,
        lint: &'static str,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(path, line, col, lint, message)
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}[udi-audit::{}]: {}",
            self.severity.word(),
            self.lint,
            self.message
        )?;
        write!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

/// Crates whose library code must be panic-free (propagate `UdiError`).
pub const PANIC_FREE_CRATES: &[&str] = &[
    "udi-core",
    "udi-schema",
    "udi-maxent",
    "udi-query",
    "udi-store",
    "udi-audit",
    "udi-serve",
];

/// Probability-producing crates where map iteration order reaches
/// p-mapping enumeration, consolidation, or answer sets (udi-query
/// executes and accumulates every answer).
pub const DETERMINISTIC_CRATES: &[&str] = &["udi-core", "udi-schema", "udi-maxent", "udi-query"];

/// Crates whose floats are probabilities (or derived from them).
pub const FLOAT_EQ_CRATES: &[&str] = &[
    "udi-core",
    "udi-schema",
    "udi-maxent",
    "udi-query",
    "udi-baselines",
    "udi-eval",
];

/// Crates allowed to read the clock directly.
pub const RAW_TIME_EXEMPT_CRATES: &[&str] = &["udi-obs", "udi-bench"];

/// Crates allowed to print directly (the bench harness narrates runs).
pub const STRAY_IO_EXEMPT_CRATES: &[&str] = &["udi-bench"];

/// A parsed `udi-audit: allow(...)` directive.
#[derive(Debug)]
pub(crate) struct AllowDirective {
    pub(crate) lint: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
    /// The line of code this directive covers.
    pub(crate) target_line: u32,
    pub(crate) used: bool,
}

/// Mark the directive covering `(lint, line)` used and return whether one
/// exists. Presence alone sanctions the line; `used` feeds the
/// `unused-allow` sweep.
pub(crate) fn allow_covers(directives: &mut [AllowDirective], lint: &str, line: u32) -> bool {
    let mut found = false;
    for d in directives.iter_mut() {
        if d.lint == lint && d.target_line == line {
            d.used = true;
            found = true;
        }
    }
    found
}

/// Audit one file's source text. `path` is used only for reporting.
///
/// This is the single-file convenience entry (it lexes `src` itself); the
/// workspace runner lexes once into a [`crate::Workspace`] and shares the
/// token stream across every lint and pass instead.
pub fn audit_source(
    path: &str,
    class: &FileClass,
    src: &str,
    enabled: &BTreeSet<&str>,
) -> Vec<Diagnostic> {
    let tokens = lex(src);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut directives = parse_directives(path, &tokens, enabled, &mut diags);
    diags.extend(run_file_lints(
        path,
        class,
        &tokens,
        &mut directives,
        enabled,
    ));
    if enabled.contains(UNUSED_ALLOW) {
        diags.extend(unused_allow_diags(path, &directives));
    }
    diags.sort_by_key(|d| (d.line, d.col, d.lint));
    diags
}

/// Diagnostics for every still-unused directive of one file.
pub(crate) fn unused_allow_diags(path: &str, directives: &[AllowDirective]) -> Vec<Diagnostic> {
    directives
        .iter()
        .filter(|d| !d.used)
        .map(|d| {
            Diagnostic::error(
                path,
                d.line,
                d.col,
                UNUSED_ALLOW,
                format!(
                    "allow({}) suppresses nothing on line {} — remove the stale directive",
                    d.lint, d.target_line
                ),
            )
        })
        .collect()
}

/// Run the token-pattern (file-local) lints over a pre-lexed stream,
/// marking matching allow directives used. The `unused-allow` sweep is the
/// caller's job, after every pass has had a chance to use a directive.
pub(crate) fn run_file_lints(
    path: &str,
    class: &FileClass,
    tokens: &[Token],
    directives: &mut [AllowDirective],
    enabled: &BTreeSet<&str>,
) -> Vec<Diagnostic> {
    // Every token-pattern lint polices library code only.
    if class.kind != CodeKind::Lib {
        return Vec::new();
    }
    let test_regions = test_regions(tokens);
    let in_test = |i: usize| test_regions.iter().any(|r| r.contains(&i));
    let use_spans = use_spans(tokens);
    let in_use = |i: usize| use_spans.iter().any(|r| r.contains(&i));

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut candidates: Vec<(usize, &'static str, String)> = Vec::new();
    let crate_name = class.crate_name.as_str();
    // Each lint's crate perimeter, decided once per file.
    let panic_free = PANIC_FREE_CRATES.contains(&crate_name);
    let deterministic = DETERMINISTIC_CRATES.contains(&crate_name);
    let float_eq = FLOAT_EQ_CRATES.contains(&crate_name);
    let raw_time = !RAW_TIME_EXEMPT_CRATES.contains(&crate_name);
    let stray_io = !STRAY_IO_EXEMPT_CRATES.contains(&crate_name);

    let sig = significant(tokens, 0..tokens.len());
    for (s, &i) in sig.iter().enumerate() {
        // Every lint fires on an identifier or a comparison operator.
        let candidate = tokens.get(i).is_some_and(|t| {
            t.kind == TokenKind::Ident
                || (t.kind == TokenKind::Punct && matches!(t.text.as_str(), "==" | "!="))
        });
        let Some(n) = Near::at(tokens, &sig, s).filter(|_| candidate && !in_test(i)) else {
            continue;
        };
        let tok = n.tok;

        // no-panic-in-lib
        if panic_free && panic_site(&n).is_some() {
            let message = if n.next.is_some_and(|t| t.text == "!") {
                format!(
                    "`{}!` panics; library code of `{}` must return an error instead",
                    tok.text, crate_name
                )
            } else {
                format!(
                    "`{}` can panic; library code of `{}` must propagate `UdiError` \
                     (or carry a reasoned allow)",
                    tok.text, crate_name
                )
            };
            candidates.push((i, NO_PANIC_IN_LIB, message));
        }

        // deterministic-iteration
        if deterministic && hash_site(&n).is_some() && !in_use(i) {
            candidates.push((
                i,
                DETERMINISTIC_ITERATION,
                format!(
                    "`{}` iteration order is nondeterministic and `{}` produces probabilities; \
                     use BTreeMap/BTreeSet, or allow with a reason why order cannot leak",
                    tok.text, crate_name
                ),
            ));
        }

        // float-eq
        if float_eq && tok.kind == TokenKind::Punct && (tok.text == "==" || tok.text == "!=") {
            let float = |t: Option<&Token>| {
                matches!(t.map(|t| t.kind), Some(TokenKind::Num { float: true }))
            };
            if float(n.prev) || float(n.next) {
                candidates.push((
                    i,
                    FLOAT_EQ,
                    format!(
                        "`{}` against a float literal is exact-bit comparison; use the epsilon \
                         helpers in `udi_schema::float`",
                        tok.text
                    ),
                ));
            }
        }

        // no-raw-time
        if raw_time && clock_site(&n).is_some() {
            candidates.push((
                i,
                NO_RAW_TIME,
                format!(
                    "`{}` outside udi-obs splinters the timing source; use udi_obs spans or \
                     `udi_obs::Stopwatch`",
                    tok.text
                ),
            ));
        }

        // no-stray-io
        if stray_io && print_site(&n).is_some() {
            candidates.push((
                i,
                NO_STRAY_IO,
                format!(
                    "`{}!` bypasses the obs sinks; emit an event, return the data, or move \
                     the printing to a binary",
                    tok.text
                ),
            ));
        }
    }

    for (i, lint, message) in candidates {
        if !enabled.contains(lint) {
            continue;
        }
        let Some(tok) = tokens.get(i) else { continue };
        if !allow_covers(directives, lint, tok.line) {
            diags.push(Diagnostic::error(path, tok.line, tok.col, lint, message));
        }
    }

    diags
}

/// Doc comments are documentation, not directives: a `udi-audit:` mention
/// in `///`/`//!`/`/**`/`/*!` text (say, this crate's own docs) must not
/// act as an escape hatch.
fn is_doc_comment(t: &Token) -> bool {
    t.text.starts_with("///")
        || t.text.starts_with("//!")
        || t.text.starts_with("/**")
        || t.text.starts_with("/*!")
}

/// Extract `udi-audit:` directives from comment tokens; malformed ones are
/// reported into `diags` directly.
pub(crate) fn parse_directives(
    path: &str,
    tokens: &[Token],
    enabled: &BTreeSet<&str>,
    diags: &mut Vec<Diagnostic>,
) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !is_comment(tok) || is_doc_comment(tok) {
            continue;
        }
        let Some(at) = tok.text.find("udi-audit:") else {
            continue;
        };
        let body = tok.text.get(at + "udi-audit:".len()..).unwrap_or("").trim();
        let malformed = |msg: &str, diags: &mut Vec<Diagnostic>| {
            if enabled.contains(MALFORMED_ALLOW) {
                diags.push(Diagnostic::error(
                    path,
                    tok.line,
                    tok.col,
                    MALFORMED_ALLOW,
                    msg.to_owned(),
                ));
            }
        };
        let Some(args) = body
            .strip_prefix("allow(")
            .and_then(|r| r.trim_end().strip_suffix(')'))
        else {
            malformed(
                "directive must be `udi-audit: allow(<lint>, \"<reason>\")`",
                diags,
            );
            continue;
        };
        let Some((lint, reason)) = args.split_once(',') else {
            malformed(
                "escape hatch needs a reason: `allow(<lint>, \"<reason>\")`",
                diags,
            );
            continue;
        };
        let lint = lint.trim();
        if !is_known_lint(lint) {
            malformed(&format!("unknown lint `{lint}` in allow directive"), diags);
            continue;
        }
        let reason = reason.trim();
        let quoted = reason.len() >= 2 && reason.starts_with('"') && reason.ends_with('"');
        if !quoted || reason.len() == 2 {
            malformed("the allow reason must be a non-empty quoted string", diags);
            continue;
        }
        // A trailing comment covers its own line; a standalone comment
        // covers the next line of code.
        let trailing = tokens
            .get(..i)
            .unwrap_or(&[])
            .iter()
            .any(|t| t.line == tok.line && !is_comment(t));
        let target_line = if trailing {
            tok.line
        } else {
            tokens
                .get(i + 1..)
                .unwrap_or(&[])
                .iter()
                .find(|t| !is_comment(t))
                .map(|t| t.line)
                .unwrap_or(tok.line)
        };
        out.push(AllowDirective {
            lint: lint.to_owned(),
            line: tok.line,
            col: tok.col,
            target_line,
            used: false,
        });
    }
    out
}

/// Token-index ranges covered by `#[cfg(test)]` / `#[test]` / `#[bench]`
/// items (attribute through the matching closing brace).
pub(crate) fn test_regions(tokens: &[Token]) -> Vec<Range<usize>> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_hash = tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "#");
        if is_hash && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            let attr_start = i;
            let (attr_tokens, after) = attribute_body(tokens, i + 1);
            if is_test_attribute(&attr_tokens) {
                if let Some(end) = item_end(tokens, after) {
                    regions.push(attr_start..end);
                    i = end;
                    continue;
                }
            }
            i = after;
        } else {
            i += 1;
        }
    }
    regions
}

/// Texts inside an attribute's brackets; returns `(texts, index after `]`)`.
/// `open` is the index of the `[`.
fn attribute_body(tokens: &[Token], open: usize) -> (Vec<String>, usize) {
    let mut texts = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while let Some(t) = tokens.get(i) {
        if t.kind == TokenKind::Punct && t.text == "[" {
            depth += 1;
        } else if t.kind == TokenKind::Punct && t.text == "]" {
            depth -= 1;
            if depth == 0 {
                return (texts, i + 1);
            }
        } else if depth > 0 && !is_comment(t) {
            texts.push(t.text.clone());
        }
        i += 1;
    }
    (texts, i)
}

fn is_test_attribute(texts: &[String]) -> bool {
    let joined: String = texts.concat();
    if joined == "test" || joined == "bench" || joined.ends_with("::test") {
        return true;
    }
    // cfg(test), cfg(any(test, …)), cfg(all(test, …)) — but not
    // cfg(not(test)).
    joined.starts_with("cfg(") && joined.contains("test") && !joined.contains("not(test")
}

/// Given the index just after a test attribute, find the index just past
/// the end of the annotated item (the matching `}` of its body, or the `;`
/// of a bodiless item). Skips any further attributes in between.
fn item_end(tokens: &[Token], mut i: usize) -> Option<usize> {
    // Skip stacked attributes (#[test] #[ignore] fn …).
    while tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "#")
        && tokens.get(i + 1).is_some_and(|t| t.text == "[")
    {
        let (_, after) = attribute_body(tokens, i + 1);
        i = after;
    }
    // Find the item's opening brace (or a terminating semicolon for
    // bodiless items like `#[cfg(test)] mod tests;`).
    let mut j = i;
    loop {
        let t = tokens.get(j)?;
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => break,
                ";" => return Some(j + 1),
                _ => {}
            }
        }
        j += 1;
    }
    // Match braces from the opening brace.
    let mut depth = 0i32;
    while let Some(t) = tokens.get(j) {
        if t.kind == TokenKind::Punct {
            if t.text == "{" {
                depth += 1;
            } else if t.text == "}" {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
        }
        j += 1;
    }
    Some(tokens.len())
}

/// Token-index ranges of `use` declarations (so importing `HashMap` is not
/// double-reported alongside each usage site).
fn use_spans(tokens: &[Token]) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while let Some(t) = tokens.get(i) {
        let at_item_position = i == 0
            || tokens
                .get(..i)
                .unwrap_or(&[])
                .iter()
                .rev()
                .find(|t| !is_comment(t))
                .is_none_or(|p| matches!(p.text.as_str(), ";" | "{" | "}" | "]" | ")" | "pub"));
        if t.kind == TokenKind::Ident && t.text == "use" && at_item_position {
            let start = i;
            while tokens.get(i).is_some_and(|t| t.text != ";") {
                i += 1;
            }
            spans.push(start..i + 1);
        }
        i += 1;
    }
    spans
}
