//! Error-discard lint: dropped `Result`s in library code.
//!
//! A discarded `Result` is the quiet failure mode of a pay-as-you-go
//! system — a refresh that half-ran, a sink write that vanished. Two
//! statement shapes drop one:
//!
//! ```text
//! let _ = fallible();     // explicit discard
//! fallible();             // bare expression statement
//! ```
//!
//! The pass is CFG-driven: it looks at [`crate::cfg::StmtKind::Let`]
//! statements with a `_` pattern and at semicolon-terminated expression
//! statements, and flags them when the statement's value is a **certain**
//! call (structurally resolved — the method-name over-approximation is
//! too noisy for a correctness lint) whose every target declares a
//! `Result` return. "The statement's value" is checked structurally: the
//! call's closing parenthesis must be the last token before the `;`, and
//! the tokens before the callee must be a plain path/receiver — so
//! `fallible().ok();`, `fallible()?;`, and `let ok = fallible().is_ok();`
//! are all fine.
//!
//! Ratchet key: the containing fn's id-path. Escape hatch:
//! `allow(error-discard, "…")` on the statement's first line.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::cfg::{Cfg, StmtKind};
use crate::classify::CodeKind;
use crate::graph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::lints::{allow_covers, AllowDirective, Diagnostic, Severity, ERROR_DISCARD};
use crate::parser::is_comment;
use crate::ratchet::Ratchet;
use crate::Workspace;

/// Run the pass. `cfgs` is indexed like `graph.fns`.
pub fn run(
    ws: &Workspace,
    graph: &CallGraph,
    cfgs: &[Option<Cfg>],
    ratchet: &Ratchet,
    ratchet_path: Option<&str>,
    directives: &mut [Vec<AllowDirective>],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut used_keys: BTreeSet<String> = BTreeSet::new();

    for (f, node) in graph.fns.iter().enumerate() {
        if node.in_test || node.kind != CodeKind::Lib {
            continue;
        }
        let (Some(file), Some(fcfg)) = (
            ws.files.get(node.file),
            cfgs.get(f).and_then(|c| c.as_ref()),
        ) else {
            continue;
        };
        let calls = graph.calls.get(f).map(Vec::as_slice).unwrap_or(&[]);
        for (_, stmt) in fcfg.stmts() {
            let value_range: Option<(Range<usize>, bool)> = match &stmt.kind {
                StmtKind::Let { discard: true, .. } => {
                    // Value starts after the (first depth-0) `=`.
                    find_eq(&file.tokens, stmt.span.clone()).map(|eq| (eq + 1..stmt.span.end, true))
                }
                StmtKind::Expr { semi: true } => Some((stmt.span.clone(), false)),
                _ => None,
            };
            let Some((range, is_let)) = value_range else {
                continue;
            };
            // The certain call whose result is the statement's value.
            let Some((call_tok, callee_names)) = discarded_call(&file.tokens, range, calls, graph)
            else {
                continue;
            };
            let Some(t) = file.tokens.get(call_tok) else {
                continue;
            };
            if directives
                .get_mut(node.file)
                .is_some_and(|ds| allow_covers(ds, ERROR_DISCARD, stmt.line))
            {
                continue;
            }
            let rel = file.rel.as_str();
            let shape = if is_let {
                "`let _ =` discards"
            } else {
                "bare statement drops"
            };
            let mut d = Diagnostic::error(
                rel,
                stmt.line,
                stmt.col,
                ERROR_DISCARD,
                format!("{shape} the `Result` of `{callee_names}`"),
            );
            d.notes.push(format!(
                "call at {rel}:{}:{} — handle the error, propagate with `?`, or carry a \
                 reasoned allow(error-discard)",
                t.line, t.col
            ));
            if ratchet.line_of(ERROR_DISCARD, &node.id_path).is_some() {
                d.severity = Severity::Warning;
                d.message.push_str(" (ratcheted)");
                used_keys.insert(node.id_path.clone());
            }
            diags.push(d);
        }
    }

    if let Some(rp) = ratchet_path {
        for (key, line) in ratchet.entries_for(ERROR_DISCARD) {
            if !used_keys.contains(key) {
                let mut d = Diagnostic::error(
                    rp,
                    line,
                    1,
                    ERROR_DISCARD,
                    format!("stale ratchet entry: `{key}` no longer discards a Result"),
                );
                d.notes
                    .push("delete the line — the ratchet only shrinks".to_owned());
                diags.push(d);
            }
        }
    }
    diags
}

/// First `=` (exactly, not `==`/`=>`/`+=`) at bracket depth 0 in the span.
fn find_eq(tokens: &[Token], span: Range<usize>) -> Option<usize> {
    let mut depth = 0i64;
    let hi = span.end.min(tokens.len());
    for (i, t) in tokens.iter().enumerate().take(hi).skip(span.start) {
        if is_comment(t) {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth == 0 && t.kind == TokenKind::Punct => return Some(i),
            _ => {}
        }
    }
    None
}

/// If the value expression in `range` is a certain call of only
/// `Result`-returning targets whose result is dropped, return the call
/// token and a display name.
fn discarded_call(
    tokens: &[Token],
    range: Range<usize>,
    calls: &[crate::graph::CallSite],
    graph: &CallGraph,
) -> Option<(usize, String)> {
    let range = range.start..range.end.min(tokens.len());
    // Candidate call sites inside the range, certain only.
    for cs in calls.iter().filter(|c| c.certain && range.contains(&c.tok)) {
        // Every certain target at this token must return Result.
        let targets: Vec<usize> = calls
            .iter()
            .filter(|c| c.certain && c.tok == cs.tok)
            .map(|c| c.callee)
            .collect();
        if !targets
            .iter()
            .all(|&g| graph.fns.get(g).is_some_and(|nd| nd.returns_result))
        {
            continue;
        }
        // Prefix before the callee must be a plain path/receiver (no
        // operators: `x + fallible()` is not a discard of the call).
        let plain_prefix = tokens
            .get(range.start..cs.tok)
            .unwrap_or(&[])
            .iter()
            .filter(|t| !is_comment(t))
            .all(|t| {
                matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent)
                    || matches!(t.text.as_str(), "." | "::" | "&" | "<" | ">" | "mut")
            });
        if !plain_prefix {
            continue;
        }
        // The call's `(`…`)` group: its close must be the last
        // significant token before the final `;` (or the range end).
        let mut k = cs.tok + 1;
        while tokens.get(k).is_some_and(is_comment) {
            k += 1;
        }
        if tokens.get(k).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        let mut depth = 0i64;
        let mut close = None;
        for (j, t) in tokens.iter().enumerate().take(range.end).skip(k) {
            if is_comment(t) {
                continue;
            }
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let close = close?;
        let tail_ok = tokens
            .get(close + 1..range.end)
            .unwrap_or(&[])
            .iter()
            .filter(|t| !is_comment(t))
            .all(|t| t.text == ";");
        if !tail_ok {
            continue; // `?;`, `.ok();`, `.is_err()` chains, …
        }
        let name = graph.display(*targets.first()?);
        return Some((cs.tok, name));
    }
    None
}
