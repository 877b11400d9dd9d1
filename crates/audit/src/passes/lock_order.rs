//! Lock-order deadlock detection over per-function CFGs and the certain
//! call graph.
//!
//! Not a guard-across-call heuristic: only actual acquisition-order
//! inversions are reported, via a three-stage analysis:
//!
//! 1. **Lock identities.** Every `.lock()` / `.borrow_mut()` /
//!    empty-argument `.read()` / `.write()` is resolved to a lock
//!    identity from its receiver: `self.field` becomes
//!    `crate::Type.field`, a static or `udi_x::PATH` receiver becomes a
//!    crate-qualified path, and a plain local/param receiver gets a
//!    function-scoped identity (which participates intra-procedurally
//!    only — a local name says nothing about which mutex another
//!    function means).
//! 2. **CFG-accurate held ranges.** A `let`-bound guard generates a
//!    "held" fact at its statement block, killed at `drop(name)` and at
//!    the end of its lexical scope; [`crate::dataflow::forward_may`]
//!    propagates facts along real control flow, so a guard taken in one
//!    `if` arm is never "held" in the sibling arm. Temporaries are held
//!    to the end of their statement.
//! 3. **Order edges.** Acquiring M while holding L adds edge `L → M`;
//!    calling (certainly) a function whose transitive-acquire set
//!    contains M does the same, with the full call chain kept for the
//!    report.
//! 4. **Cycles.** Any strongly-connected component of the order graph
//!    (including a self-loop — re-acquiring a held lock) is a deadlock
//!    risk, reported once with per-edge evidence.
//!
//! Ratchet key: the cycle's sorted lock set joined with `<->`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use super::node_exempt;
use crate::cfg::{Cfg, StmtKind};
use crate::classify::CodeKind;
use crate::config::Config;
use crate::dataflow::{forward_may, BitSet};
use crate::graph::scc::{reconstruct_cycle, sccs};
use crate::graph::{crate_of_alias, CallGraph, FnNode};
use crate::lexer::{Token, TokenKind};
use crate::lints::{allow_covers, AllowDirective, Diagnostic, LOCK_ORDER_CYCLE};
use crate::parser::is_comment;
use crate::ratchet::Ratchet;
use crate::Workspace;

/// Methods whose return value is treated as a lock guard. `read`/`write`
/// only count with an empty argument list (to avoid `io::Read::read(&mut
/// buf)` false positives).
pub(crate) const LOCK_METHODS: &[&str] = &["lock", "borrow_mut", "read", "write"];

/// One lock acquisition inside a function body.
struct Acq {
    /// Interned lock id.
    lock: usize,
    /// Token index of the method name.
    tok: usize,
    line: u32,
    col: u32,
    /// CFG block of the containing statement.
    block: usize,
    /// Guard binding (`let g = …`); `None` for temporaries.
    bound: Option<String>,
    /// `let _ = …` — guard dropped on the spot.
    discard: bool,
}

/// How a function comes to acquire a lock (for chain rendering).
#[derive(Clone, Copy)]
enum Prov {
    /// Acquired directly at this site.
    Direct { line: u32, col: u32 },
    /// Acquired by calling `callee`.
    Via { callee: usize },
}

/// One acquisition-order edge with its evidence.
struct Edge {
    fnid: usize,
    line: u32,
    col: u32,
    /// Interprocedural: the (certain) callee whose transitive set holds
    /// the acquired lock.
    via: Option<usize>,
}

/// Run the pass. `cfgs` is indexed like `graph.fns`.
pub fn run(
    ws: &Workspace,
    cfg: &Config,
    graph: &CallGraph,
    cfgs: &[Option<Cfg>],
    ratchet: &Ratchet,
    ratchet_path: Option<&str>,
    directives: &mut [Vec<AllowDirective>],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = graph.fns.len();

    // Interned lock identities. `global[l]` — whether identity `l` is
    // meaningful across functions.
    let mut lock_ids: Vec<String> = Vec::new();
    let mut lock_global: Vec<bool> = Vec::new();
    let mut intern: BTreeMap<String, usize> = BTreeMap::new();
    let intern_lock = |id: String,
                       global: bool,
                       lock_ids: &mut Vec<String>,
                       lock_global: &mut Vec<bool>,
                       intern: &mut BTreeMap<String, usize>| {
        *intern.entry(id.clone()).or_insert_with(|| {
            lock_ids.push(id);
            lock_global.push(global);
            lock_ids.len() - 1
        })
    };

    // Pass A: per-fn acquisitions.
    let mut acqs: Vec<Vec<Acq>> = (0..n).map(|_| Vec::new()).collect();
    for (f, node) in graph.fns.iter().enumerate() {
        if node.in_test
            || node.kind != CodeKind::Lib
            || node_exempt(&cfg.lock_order_exempt, ws, node)
        {
            continue;
        }
        let (Some(body), Some(file), Some(fcfg)) = (
            node.body.clone(),
            ws.files.get(node.file),
            cfgs.get(f).and_then(|c| c.as_ref()),
        ) else {
            continue;
        };
        for i in body.clone() {
            let Some(t) = file.tokens.get(i) else {
                continue;
            };
            if t.kind != TokenKind::Ident || !LOCK_METHODS.contains(&t.text.as_str()) {
                continue;
            }
            if !is_guard_call(&file.tokens, body.clone(), i) {
                continue;
            }
            let Some((id, global)) = receiver_identity(&file.tokens, body.start, i, node) else {
                continue;
            };
            let lock = intern_lock(id, global, &mut lock_ids, &mut lock_global, &mut intern);
            let block = fcfg.block_of_token(i).unwrap_or(crate::cfg::ENTRY);
            let (bound, discard) = match fcfg.blocks.get(block).and_then(|b| b.stmt.as_ref()) {
                Some(s) => match &s.kind {
                    StmtKind::Let { name, discard } => (name.clone(), *discard),
                    _ => (None, false),
                },
                None => (None, false),
            };
            if let Some(list) = acqs.get_mut(f) {
                list.push(Acq {
                    lock,
                    tok: i,
                    line: t.line,
                    col: t.col,
                    block,
                    bound,
                    discard,
                });
            }
        }
    }

    // Pass B: transitive global acquisitions over certain edges.
    let mut ta: Vec<BTreeMap<usize, Prov>> = vec![BTreeMap::new(); n];
    for (f, list) in acqs.iter().enumerate() {
        for a in list {
            if lock_global.get(a.lock).copied().unwrap_or(false) {
                if let Some(map) = ta.get_mut(f) {
                    map.entry(a.lock).or_insert(Prov::Direct {
                        line: a.line,
                        col: a.col,
                    });
                }
            }
        }
    }
    loop {
        let mut updates: Vec<(usize, usize, Prov)> = Vec::new();
        for f in 0..n {
            if graph.fns.get(f).is_none_or(|nd| nd.in_test) {
                continue;
            }
            for cs in graph.calls.get(f).map(Vec::as_slice).unwrap_or(&[]) {
                if !cs.certain || graph.fns.get(cs.callee).is_none_or(|c| c.in_test) {
                    continue;
                }
                for &lock in ta.get(cs.callee).into_iter().flat_map(BTreeMap::keys) {
                    if !ta.get(f).is_some_and(|m| m.contains_key(&lock)) {
                        updates.push((f, lock, Prov::Via { callee: cs.callee }));
                    }
                }
            }
        }
        if updates.is_empty() {
            break;
        }
        let mut changed = false;
        for (f, lock, prov) in updates {
            let Some(map) = ta.get_mut(f) else { continue };
            if let std::collections::btree_map::Entry::Vacant(e) = map.entry(lock) {
                e.insert(prov);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass C: order edges, evidence kept for the first sighting.
    let mut edges: BTreeMap<(usize, usize), Edge> = BTreeMap::new();
    for (f, node) in graph.fns.iter().enumerate() {
        if acqs.get(f).is_none_or(Vec::is_empty) {
            continue;
        }
        if node.in_test
            || node.kind != CodeKind::Lib
            || node_exempt(&cfg.lock_order_exempt, ws, node)
        {
            continue;
        }
        let (Some(body), Some(file), Some(fcfg)) = (
            node.body.clone(),
            ws.files.get(node.file),
            cfgs.get(f).and_then(|c| c.as_ref()),
        ) else {
            continue;
        };
        // Facts: let-bound, non-discard acquisitions.
        let facts: Vec<usize> = acqs
            .get(f)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .filter(|(_, a)| a.bound.is_some() && !a.discard)
            .map(|(k, _)| k)
            .collect();
        let nb = fcfg.blocks.len();
        let mut gen = vec![BitSet::new(facts.len()); nb];
        let mut kill = vec![BitSet::new(facts.len()); nb];
        for (bit, &k) in facts.iter().enumerate() {
            let Some(a) = acqs.get(f).and_then(|l| l.get(k)) else {
                continue;
            };
            if let Some(gs) = gen.get_mut(a.block) {
                gs.insert(bit);
            }
            let scope = scope_end(&file.tokens, body.clone(), a.tok);
            for (b, blk) in fcfg.blocks.iter().enumerate() {
                let Some(s) = &blk.stmt else { continue };
                let dead = s.span.start >= scope
                    || a.bound
                        .as_ref()
                        .is_some_and(|name| drops_name(&file.tokens, s.span.clone(), name));
                if dead {
                    if let Some(ks) = kill.get_mut(b) {
                        ks.insert(bit);
                    }
                }
            }
        }
        let flow = forward_may(fcfg, facts.len(), &gen, &kill);

        // Events per block, in token order.
        enum Ev {
            Acq(usize),
            Call(usize, usize, u32, u32), // (callee, tok, line, col)
        }
        let mut events: BTreeMap<usize, Vec<(usize, Ev)>> = BTreeMap::new();
        for (k, a) in acqs
            .get(f)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            events.entry(a.block).or_default().push((a.tok, Ev::Acq(k)));
        }
        for cs in graph.calls.get(f).map(Vec::as_slice).unwrap_or(&[]) {
            if !cs.certain || graph.fns.get(cs.callee).is_none_or(|c| c.in_test) {
                continue;
            }
            if ta.get(cs.callee).is_none_or(BTreeMap::is_empty) {
                continue;
            }
            let Some(b) = fcfg.block_of_token(cs.tok) else {
                continue;
            };
            let (line, col) = file
                .tokens
                .get(cs.tok)
                .map(|t| (t.line, t.col))
                .unwrap_or((0, 0));
            events
                .entry(b)
                .or_default()
                .push((cs.tok, Ev::Call(cs.callee, cs.tok, line, col)));
        }

        for (b, evs) in events.iter_mut() {
            evs.sort_by_key(|(tok, _)| *tok);
            // Held at block entry, from the dataflow facts.
            let mut held: BTreeSet<usize> = flow
                .input
                .get(*b)
                .map(|s| {
                    s.iter()
                        .filter_map(|bit| {
                            let k = facts.get(bit).copied()?;
                            Some(acqs.get(f)?.get(k)?.lock)
                        })
                        .collect()
                })
                .unwrap_or_default();
            for (_, ev) in evs.iter() {
                match ev {
                    Ev::Acq(k) => {
                        let Some(a) = acqs.get(f).and_then(|l| l.get(*k)) else {
                            continue;
                        };
                        for &l in held.iter() {
                            edges.entry((l, a.lock)).or_insert(Edge {
                                fnid: f,
                                line: a.line,
                                col: a.col,
                                via: None,
                            });
                        }
                        if !a.discard {
                            held.insert(a.lock);
                        }
                    }
                    Ev::Call(callee, call_tok, line, col) => {
                        // The callee's own acquisition is not "while
                        // holding" its own lock: skip calls whose token
                        // coincides with an acquisition (`self.lock()`).
                        if acqs
                            .get(f)
                            .is_some_and(|l| l.iter().any(|a| a.tok == *call_tok))
                        {
                            continue;
                        }
                        for &l in held.iter() {
                            for &m in ta.get(*callee).into_iter().flat_map(BTreeMap::keys) {
                                edges.entry((l, m)).or_insert(Edge {
                                    fnid: f,
                                    line: *line,
                                    col: *col,
                                    via: Some(*callee),
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // Pass D: cycles = SCCs of the order graph (plus self-loops).
    let nlocks = lock_ids.len();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nlocks];
    for &(l, m) in edges.keys() {
        if let Some(out) = adj.get_mut(l) {
            out.insert(m);
        }
    }
    let comps = sccs(nlocks, &adj);
    let mut found_keys: BTreeSet<String> = BTreeSet::new();
    for comp in comps {
        let is_cycle = comp.len() > 1
            || comp
                .iter()
                .any(|&l| adj.get(l).is_some_and(|out| out.contains(&l)));
        if !is_cycle {
            continue;
        }
        let Some(cycle) = reconstruct_cycle(&comp, &adj) else {
            continue;
        };
        let mut names: Vec<&str> = comp
            .iter()
            .map(|&l| lock_ids.get(l).map(String::as_str).unwrap_or("?"))
            .collect();
        names.sort_unstable();
        let key = names.join("<->");
        found_keys.insert(key.clone());

        let path_text = cycle
            .iter()
            .map(|&l| lock_ids.get(l).map(String::as_str).unwrap_or("?"))
            .collect::<Vec<_>>()
            .join(" → ");
        let mut notes = Vec::new();
        let mut anchor: Option<(&str, u32, u32, usize)> = None;
        let lock_name = |l: usize| lock_ids.get(l).map(String::as_str).unwrap_or("?");
        for w in cycle.windows(2) {
            let &[from, to] = w else { continue };
            let Some(e) = edges.get(&(from, to)) else {
                continue;
            };
            let rel = graph
                .fns
                .get(e.fnid)
                .and_then(|nd| ws.files.get(nd.file))
                .map(|fl| fl.rel.as_str())
                .unwrap_or("?");
            if anchor.is_none() {
                anchor = Some((rel, e.line, e.col, e.fnid));
            }
            match e.via {
                None => notes.push(format!(
                    "`{}` acquires `{}` at {rel}:{}:{} while holding `{}`",
                    graph.display(e.fnid),
                    lock_name(to),
                    e.line,
                    e.col,
                    lock_name(from),
                )),
                Some(callee) => {
                    let (chain, site) = render_chain(graph, &ta, callee, to);
                    let chain_text = std::iter::once(graph.display(e.fnid))
                        .chain(chain.iter().map(|&g| graph.display(g)))
                        .collect::<Vec<_>>()
                        .join(" → ");
                    notes.push(format!(
                        "while holding `{}`, {rel}:{} calls into `{}` which acquires `{}`{}",
                        lock_name(from),
                        e.line,
                        graph.display(callee),
                        lock_name(to),
                        site.map(|(l, c)| format!(" (site {l}:{c})"))
                            .unwrap_or_default(),
                    ));
                    notes.push(format!("call chain: {chain_text}"));
                }
            }
        }
        let Some((rel, line, col, fnid)) = anchor else {
            continue;
        };
        let file_idx = graph.fns.get(fnid).map(|nd| nd.file).unwrap_or(usize::MAX);
        let allowed = directives
            .get_mut(file_idx)
            .is_some_and(|ds| allow_covers(ds, LOCK_ORDER_CYCLE, line));
        if allowed {
            continue;
        }
        let mut d = Diagnostic::error(
            rel,
            line,
            col,
            LOCK_ORDER_CYCLE,
            format!("lock-order cycle: {path_text}"),
        );
        d.notes = notes;
        d.notes.push(
            "pick one global acquisition order for these locks (or narrow a guard's scope)"
                .to_owned(),
        );
        if ratchet.line_of(LOCK_ORDER_CYCLE, &key).is_some() {
            d.severity = crate::lints::Severity::Warning;
            d.message.push_str(" (ratcheted)");
        }
        diags.push(d);
    }

    // Stale ratchet entries for this lint.
    if let Some(rp) = ratchet_path {
        for (key, line) in ratchet.entries_for(LOCK_ORDER_CYCLE) {
            if !found_keys.contains(key) {
                let mut d = Diagnostic::error(
                    rp,
                    line,
                    1,
                    LOCK_ORDER_CYCLE,
                    format!("stale ratchet entry: lock-order cycle `{key}` no longer exists"),
                );
                d.notes
                    .push("delete the line — the ratchet only shrinks".to_owned());
                diags.push(d);
            }
        }
    }
    diags
}

/// `.method()` with an empty argument list, preceded by `.`.
pub(crate) fn is_guard_call(tokens: &[Token], body: Range<usize>, i: usize) -> bool {
    let prev = tokens
        .get(body.start..i)
        .unwrap_or(&[])
        .iter()
        .rev()
        .find(|t| !is_comment(t));
    if !prev.is_some_and(|p| p.kind == TokenKind::Punct && p.text == ".") {
        return false;
    }
    let mut it = tokens
        .get(i + 1..)
        .unwrap_or(&[])
        .iter()
        .filter(|t| !is_comment(t));
    let open = it.next();
    let close = it.next();
    open.is_some_and(|t| t.text == "(") && close.is_some_and(|t| t.text == ")")
}

/// Resolve the receiver chain of the lock call at token `i` to a lock
/// identity. Returns `(identity, global)`; `None` for complex receivers
/// (`foo().lock()`, `(x).lock()`, …).
fn receiver_identity(
    tokens: &[Token],
    body_start: usize,
    i: usize,
    node: &FnNode,
) -> Option<(String, bool)> {
    // Walk back over `ident (sep ident)*` where sep is `.` or `::`.
    let sig_prev = |from: usize| -> Option<usize> {
        (body_start..from)
            .rev()
            .find(|&k| tokens.get(k).is_some_and(|t| !is_comment(t)))
    };
    let mut segs: Vec<(String, String)> = Vec::new(); // (ident, sep before it or "")
    let mut k = sig_prev(i)?; // the `.` before the method
    loop {
        let id = sig_prev(k)?;
        let t = tokens.get(id)?;
        if !matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
            return None; // `)`, `]`, literal… — complex receiver
        }
        let sep = tokens.get(k)?.text.clone();
        segs.push((t.text.clone(), sep));
        match sig_prev(id) {
            Some(p)
                if tokens
                    .get(p)
                    .is_some_and(|t| matches!(t.text.as_str(), "." | "::")) =>
            {
                k = p
            }
            _ => {
                segs.last_mut()?.1 = String::new();
                break;
            }
        }
    }
    segs.reverse();
    let first = segs.first()?.0.clone();
    let tail = |segs: &[(String, String)], mut id: String| {
        for (seg, sep) in segs.get(1..).unwrap_or(&[]) {
            id.push_str(if sep == "::" { "::" } else { "." });
            id.push_str(seg);
        }
        id
    };
    if first == "self" {
        let ty = node.self_ty.as_deref()?;
        let id = tail(&segs, format!("{}::{}", node.crate_name, ty));
        Some((id, true))
    } else if let Some(c) = crate_of_alias(&first, &node.crate_name) {
        Some((tail(&segs, c), true))
    } else if first.chars().next().is_some_and(char::is_uppercase) {
        let id = tail(&segs, format!("{}::{}", node.crate_name, first));
        Some((id, true))
    } else {
        // Local/param receiver: function-scoped, intra-procedural only.
        let id = tail(&segs, format!("{}::{}", node.id_path, first));
        Some((id, false))
    }
}

/// Token index where the lexical block enclosing `from` closes.
pub(crate) fn scope_end(tokens: &[Token], body: Range<usize>, from: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in tokens
        .iter()
        .enumerate()
        .take(body.end.min(tokens.len()))
        .skip(from)
    {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    body.end
}

/// Whether a statement span contains `drop(name)`.
pub(crate) fn drops_name(tokens: &[Token], span: Range<usize>, name: &str) -> bool {
    let sig: Vec<&Token> = tokens
        .get(span.start..span.end.min(tokens.len()))
        .unwrap_or(&[])
        .iter()
        .filter(|t| !is_comment(t))
        .collect();
    sig.windows(4).any(|w| {
        matches!(w, [a, b, c, d]
            if a.text == "drop" && b.text == "(" && c.text == *name && d.text == ")")
    })
}

/// Shortest provenance chain from `f` to the function that directly
/// acquires `lock`; returns the intermediate fns (starting at `f`) and
/// the acquisition site.
fn render_chain(
    graph: &CallGraph,
    ta: &[BTreeMap<usize, Prov>],
    f: usize,
    lock: usize,
) -> (Vec<usize>, Option<(u32, u32)>) {
    let mut chain = vec![f];
    let mut cur = f;
    for _ in 0..graph.fns.len() {
        match ta.get(cur).and_then(|m| m.get(&lock)) {
            Some(Prov::Direct { line, col }) => return (chain, Some((*line, *col))),
            Some(Prov::Via { callee }) => {
                cur = *callee;
                chain.push(cur);
            }
            None => break,
        }
    }
    (chain, None)
}
