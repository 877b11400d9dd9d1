//! Concurrency lint for the parallel serving layer, scoped to lib code
//! outside test regions.
//!
//! **shared-mutable-static** — a `static` whose type is interior-mutable
//! (`Mutex`, `RwLock`, atomics, `OnceLock`, …) is ambient shared state.
//! Only crates listed under `[concurrency] interior-mutable-allowed` in
//! `audit.toml` (by default `udi-obs`, whose global sink registry is the
//! sanctioned singleton) may declare them. Error elsewhere.
//!
//! There is no `static mut` rule: every lib crate carries
//! `#![forbid(unsafe_code)]`, and a `static mut` can be neither read nor
//! written without `unsafe`.
//!
//! Guard-discipline checking lives in [`crate::passes::lock_order`]: an
//! acquisition-order cycle analysis over per-function CFGs, not a
//! guard-held-across-call heuristic.

use crate::classify::CodeKind;
use crate::lexer::{Token, TokenKind};
use crate::lints::{allow_covers, test_regions, AllowDirective, Diagnostic, SHARED_MUTABLE_STATIC};
use crate::parser::is_comment;
use crate::Workspace;

/// Types whose presence in a static's type makes it shared-mutable.
const INTERIOR_MUTABLE_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyCell",
    "LazyLock",
];

/// Run the pass.
pub fn run(
    ws: &Workspace,
    allowed_crates: &[String],
    directives: &mut [Vec<AllowDirective>],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Token scan per lib file.
    for (fi, file) in ws.files.iter().enumerate() {
        if file.class.kind != CodeKind::Lib {
            continue;
        }
        let tokens = &file.tokens;
        let regions = test_regions(tokens);
        let in_test = |i: usize| regions.iter().any(|r| r.contains(&i));
        let crate_ok = allowed_crates.iter().any(|c| c == &file.class.crate_name);
        for (i, tok) in tokens.iter().enumerate() {
            if tok.kind != TokenKind::Ident || tok.text != "static" || in_test(i) {
                continue;
            }
            let mut j = i + 1;
            while tokens.get(j).is_some_and(is_comment) {
                j += 1;
            }
            let Some(next) = tokens.get(j) else { continue };
            if next.kind != TokenKind::Ident || crate_ok {
                continue;
            }
            // Scan the declared type (between `:` and `=`/`;` at depth 0)
            // for interior-mutable type names.
            let mut depth = 0i32;
            let mut seen_colon = false;
            let mut hit: Option<&Token> = None;
            for t in tokens.get(j + 1..).unwrap_or(&[]) {
                match (t.kind, t.text.as_str()) {
                    (TokenKind::Punct, "<" | "(" | "[") => depth += 1,
                    (TokenKind::Punct, ">" | ")" | "]") => depth -= 1,
                    (TokenKind::Punct, ":") if depth == 0 => seen_colon = true,
                    (TokenKind::Punct, "=" | ";") if depth <= 0 => break,
                    (TokenKind::Ident, name)
                        if seen_colon
                            && (INTERIOR_MUTABLE_TYPES.contains(&name)
                                || name.starts_with("Atomic")) =>
                    {
                        hit = Some(t);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(ty) = hit else { continue };
            let allowed = directives
                .get_mut(fi)
                .is_some_and(|ds| allow_covers(ds, SHARED_MUTABLE_STATIC, tok.line));
            if allowed {
                continue;
            }
            let mut d = Diagnostic::error(
                &file.rel,
                tok.line,
                tok.col,
                SHARED_MUTABLE_STATIC,
                format!(
                    "interior-mutable static (`{}`) outside the sanctioned crates",
                    ty.text
                ),
            );
            d.notes.push(format!(
                "only {:?} may hold ambient shared state; pass state explicitly or move it there",
                allowed_crates
            ));
            diags.push(d);
        }
    }
    diags
}
