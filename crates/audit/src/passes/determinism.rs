//! Determinism certification: a transitive proof that the declared entry
//! points (`audit.toml [determinism] entry-points`) cannot reach
//! nondeterministic behavior through the workspace call graph.
//!
//! The file-local `deterministic-iteration` / `no-raw-time` lints only
//! police the crates named in their static perimeter. This pass closes
//! the gap *semantically*: starting from each entry point's fn node it
//! walks **all** call edges (the uncertain method-name edges included —
//! over-approximation is the safe direction for a certificate) and fails
//! the entry if any reachable lib fn body contains:
//!
//! - hash-ordered containers (`HashMap` / `HashSet` / `RandomState`),
//! - raw clock reads (`Instant` / `SystemTime`),
//! - environment reads (`env::var` and friends).
//!
//! A site already sanctioned by a reasoned file-local allow
//! (`deterministic-iteration`, `no-raw-time`) is trusted: the allow's
//! stated reason is exactly a claim that order/time cannot leak.
//! Crates in `exempt-crates` (the timing authority) are out of scope.
//!
//! Ratchet key: the entry point's id-path. An entry that matches no
//! workspace fn is itself an error — a certificate over nothing is not
//! a certificate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use super::node_exempt;
use crate::classify::CodeKind;
use crate::config::Config;
use crate::graph::CallGraph;
use crate::lexer::TokenKind;
use crate::lints::{
    allow_covers, AllowDirective, Diagnostic, Severity, DETERMINISM_CERT, DETERMINISTIC_ITERATION,
    NO_RAW_TIME,
};
use crate::parser::is_comment;
use crate::ratchet::Ratchet;
use crate::Workspace;

/// One nondeterminism source found in a fn body.
struct Site {
    what: String,
    kind: &'static str,
    line: u32,
    col: u32,
}

/// Run the pass. Disabled (empty result) when no entry points are
/// configured.
pub fn run(
    ws: &Workspace,
    cfg: &Config,
    graph: &CallGraph,
    ratchet: &Ratchet,
    ratchet_path: Option<&str>,
    directives: &mut [Vec<AllowDirective>],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if cfg.determinism_entries.is_empty() {
        return diags;
    }
    let n = graph.fns.len();
    let cfg_path = cfg.source.as_deref().unwrap_or("audit.toml");

    // Nondeterminism sites per fn (lib, non-test, non-exempt crates).
    let mut sites: Vec<Vec<Site>> = (0..n).map(|_| Vec::new()).collect();
    for (f, node) in graph.fns.iter().enumerate() {
        if node.in_test
            || node.kind != CodeKind::Lib
            || node_exempt(&cfg.determinism_exempt, ws, node)
        {
            continue;
        }
        let (Some(body), Some(file)) = (node.body.clone(), ws.files.get(node.file)) else {
            continue;
        };
        for i in body.clone() {
            let Some(t) = file.tokens.get(i) else {
                continue;
            };
            if t.kind != TokenKind::Ident {
                continue;
            }
            let found: Option<(&str, String)> = match t.text.as_str() {
                "HashMap" | "HashSet" | "RandomState" => {
                    Some(("hash-ordered iteration", t.text.clone()))
                }
                "Instant" | "SystemTime" => Some(("raw clock read", t.text.clone())),
                "var" | "vars" | "var_os" | "vars_os" => {
                    // `env::var(…)` — require the qualified spelling.
                    let sig_prev = |from: usize| {
                        (body.start..from)
                            .rev()
                            .find(|&k| file.tokens.get(k).is_some_and(|t| !is_comment(t)))
                    };
                    let is_env = sig_prev(i)
                        .filter(|&p| file.tokens.get(p).is_some_and(|t| t.text == "::"))
                        .and_then(&sig_prev)
                        .is_some_and(|p| file.tokens.get(p).is_some_and(|t| t.text == "env"));
                    is_env.then(|| ("environment read", format!("env::{}", t.text)))
                }
                _ => None,
            };
            let Some((kind, what)) = found else { continue };
            // A reasoned file-local allow on the site line is an explicit
            // claim that this use cannot leak — trust it (presence only;
            // the file lints own those directives' used-ness).
            let sanctioned = directives.get(node.file).is_some_and(|ds| {
                ds.iter().any(|d| {
                    d.target_line == t.line
                        && matches!(
                            d.lint.as_str(),
                            x if x == DETERMINISTIC_ITERATION
                                || x == NO_RAW_TIME
                                || x == DETERMINISM_CERT
                        )
                })
            });
            if sanctioned {
                // determinism-cert allows at a site are used here.
                if let Some(ds) = directives.get_mut(node.file) {
                    allow_covers(ds, DETERMINISM_CERT, t.line);
                }
                continue;
            }
            if let Some(list) = sites.get_mut(f) {
                list.push(Site {
                    what,
                    kind,
                    line: t.line,
                    col: t.col,
                });
            }
        }
    }

    // Forward adjacency over all edges, test callees excluded.
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (f, calls) in graph.calls.iter().enumerate() {
        if graph.fns.get(f).is_none_or(|nd| nd.in_test) {
            continue;
        }
        for cs in calls {
            if graph.fns.get(cs.callee).is_some_and(|c| !c.in_test) {
                if let Some(out) = adj.get_mut(f) {
                    out.insert(cs.callee);
                }
            }
        }
    }

    let mut found_keys: BTreeSet<String> = BTreeSet::new();
    for entry in &cfg.determinism_entries {
        let roots: Vec<usize> = graph
            .fns
            .iter()
            .enumerate()
            .filter(|(_, nd)| !nd.in_test && nd.id_path == *entry)
            .map(|(f, _)| f)
            .collect();
        if roots.is_empty() {
            diags.push(Diagnostic::error(
                cfg_path,
                1,
                1,
                DETERMINISM_CERT,
                format!("determinism entry point `{entry}` matches no workspace fn"),
            ));
            continue;
        }
        for root in roots {
            // BFS with parents for the shortest witness chain.
            let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
            let mut queue = VecDeque::from([root]);
            let mut seen = BTreeSet::from([root]);
            let mut hit: Option<usize> = None;
            while let Some(v) = queue.pop_front() {
                if sites.get(v).is_some_and(|l| !l.is_empty()) {
                    hit = Some(v);
                    break;
                }
                for &w in adj.get(v).into_iter().flatten() {
                    if seen.insert(w) {
                        parent.insert(w, v);
                        queue.push_back(w);
                    }
                }
            }
            let Some(hit) = hit else { continue };
            let Some(node) = graph.fns.get(root) else {
                continue;
            };
            let rel = ws
                .files
                .get(node.file)
                .map(|fl| fl.rel.as_str())
                .unwrap_or("?");
            let allowed = directives
                .get_mut(node.file)
                .is_some_and(|ds| allow_covers(ds, DETERMINISM_CERT, node.line));
            if allowed {
                continue;
            }
            let mut chain = vec![hit];
            let mut cur = hit;
            while let Some(&p) = parent.get(&cur) {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            let chain_text = chain
                .iter()
                .map(|&g| graph.display(g))
                .collect::<Vec<_>>()
                .join(" → ");
            let Some(site) = sites.get(hit).and_then(|l| l.first()) else {
                continue;
            };
            let site_rel = graph
                .fns
                .get(hit)
                .and_then(|nd| ws.files.get(nd.file))
                .map(|fl| fl.rel.as_str())
                .unwrap_or("?");
            let mut d = Diagnostic::error(
                rel,
                node.line,
                node.col,
                DETERMINISM_CERT,
                format!(
                    "declared deterministic entry `{entry}` can reach {}",
                    site.kind
                ),
            );
            if chain.len() > 1 {
                d.notes.push(format!("call chain: {chain_text}"));
            }
            d.notes.push(format!(
                "site: `{}` at {site_rel}:{}:{} ({})",
                site.what, site.line, site.col, site.kind
            ));
            d.notes.push(
                "replace with order-stable/injected alternatives, or carry a reasoned \
                 file-local allow at the site"
                    .to_owned(),
            );
            if ratchet.line_of(DETERMINISM_CERT, entry).is_some() {
                d.severity = Severity::Warning;
                d.message.push_str(" (ratcheted)");
            }
            found_keys.insert(entry.clone());
            diags.push(d);
        }
    }

    if let Some(rp) = ratchet_path {
        for (key, line) in ratchet.entries_for(DETERMINISM_CERT) {
            if !found_keys.contains(key) {
                let mut d = Diagnostic::error(
                    rp,
                    line,
                    1,
                    DETERMINISM_CERT,
                    format!("stale ratchet entry: entry point `{key}` now certifies clean"),
                );
                d.notes
                    .push("delete the line — the ratchet only shrinks".to_owned());
                diags.push(d);
            }
        }
    }
    diags
}
