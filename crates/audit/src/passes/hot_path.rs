//! Hot-path certificates: a transitive proof that the serving layer's
//! readers never block.
//!
//! `audit.toml [effects]` declares per-budget entry points (`lock-free`,
//! `io-free`, `spawn-free`, `channel-free`, `poison-free`). For each
//! entry this pass checks the interprocedural effect summary computed by
//! [`crate::effects`] — per-fn local effect sites folded bottom-up over
//! the SCC-condensed call graph — against the union of the budgets the
//! entry appears in. Like the determinism certificate, the walk uses
//! **all** call edges (uncertain method-name edges included): a
//! certificate must over-approximate.
//!
//! On failure the report carries the shortest call chain from the entry
//! to the first function with an offending *local* site, plus the site
//! itself — the same `note:` shape `determinism-cert` renders. Sites
//! sanctioned by a reasoned file-local `allow(hot-path-cert, …)` are
//! trusted; crates in `exempt-crates` (the obs layer, whose sink
//! registry locks by design) contribute no sites at all.
//!
//! Ratchet key: the entry point's id-path. An entry that matches no
//! workspace fn is itself an error — a certificate over nothing is not
//! a certificate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use super::node_exempt;
use crate::cfg::Cfg;
use crate::classify::CodeKind;
use crate::config::Config;
use crate::effects::{local_effects, solve, Effect, EffectSet, EffectSite};
use crate::graph::CallGraph;
use crate::lints::{allow_covers, AllowDirective, Diagnostic, Severity, HOT_PATH_CERT};
use crate::ratchet::Ratchet;
use crate::Workspace;

/// The budget name an effect violates, for the message.
fn budget_word(e: Effect) -> &'static str {
    match e {
        Effect::Locks => "lock-free",
        Effect::BlocksIo => "io-free",
        Effect::Spawns => "spawn-free",
        Effect::Channels => "channel-free",
        Effect::PanicsViaPoison => "poison-free",
    }
}

/// Human phrase for what the entry can reach.
fn describe(e: Effect) -> &'static str {
    match e {
        Effect::Locks => "a lock acquisition",
        Effect::BlocksIo => "blocking I/O",
        Effect::Spawns => "a thread spawn",
        Effect::Channels => "a channel construction",
        Effect::PanicsViaPoison => "a panic under a held lock guard (mutex poison)",
    }
}

/// Run the pass. Disabled (empty result) when no `[effects]` budget
/// names any entry point.
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

    // entry id-path → union of banned effects across the budgets.
    let mut budgets: BTreeMap<&str, EffectSet> = BTreeMap::new();
    let lists: [(&[String], Effect); 5] = [
        (&cfg.effects_lock_free, Effect::Locks),
        (&cfg.effects_io_free, Effect::BlocksIo),
        (&cfg.effects_spawn_free, Effect::Spawns),
        (&cfg.effects_channel_free, Effect::Channels),
        (&cfg.effects_poison_free, Effect::PanicsViaPoison),
    ];
    for (list, effect) in lists {
        for entry in list {
            budgets.entry(entry.as_str()).or_default().insert(effect);
        }
    }
    if budgets.is_empty() {
        return diags;
    }
    let n = graph.fns.len();
    let cfg_path = cfg.source.as_deref().unwrap_or("audit.toml");

    // Local effect sites per fn (lib, non-test, non-exempt crates), with
    // allow-sanctioned sites removed up front so they shape neither the
    // summaries nor the witness chains.
    let mut sites: Vec<Vec<EffectSite>> = (0..n).map(|_| Vec::new()).collect();
    for (f, node) in graph.fns.iter().enumerate() {
        if node.in_test || node.kind != CodeKind::Lib || node_exempt(&cfg.effects_exempt, ws, node)
        {
            continue;
        }
        let (Some(body), Some(file)) = (node.body.clone(), ws.files.get(node.file)) else {
            continue;
        };
        let fcfg = cfgs.get(f).and_then(|c| c.as_ref());
        for site in local_effects(&file.tokens, body, fcfg) {
            let sanctioned = directives
                .get_mut(node.file)
                .is_some_and(|ds| allow_covers(ds, HOT_PATH_CERT, site.line));
            if !sanctioned {
                if let Some(list) = sites.get_mut(f) {
                    list.push(site);
                }
            }
        }
    }
    let local: Vec<EffectSet> = sites
        .iter()
        .map(|ss| {
            let mut fx = EffectSet::EMPTY;
            for s in ss {
                fx.insert(s.effect);
            }
            fx
        })
        .collect();

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
    let summary = solve(n, &adj, &local);

    let mut found_keys: BTreeSet<String> = BTreeSet::new();
    for (entry, banned) in &budgets {
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
                HOT_PATH_CERT,
                format!("hot-path entry point `{entry}` matches no workspace fn"),
            ));
            continue;
        }
        for root in roots {
            let violated = summary
                .get(root)
                .map(|s| s.intersect(*banned))
                .unwrap_or(EffectSet::EMPTY);
            if violated.is_empty() {
                continue;
            }
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
                .is_some_and(|ds| allow_covers(ds, HOT_PATH_CERT, node.line));
            if allowed {
                continue;
            }
            for effect in violated.iter() {
                let Some((chain, site)) = witness(&adj, &sites, root, effect) else {
                    continue;
                };
                let chain_text = chain
                    .iter()
                    .map(|&g| graph.display(g))
                    .collect::<Vec<_>>()
                    .join(" → ");
                let site_rel = chain
                    .last()
                    .and_then(|&g| graph.fns.get(g))
                    .and_then(|nd| ws.files.get(nd.file))
                    .map(|fl| fl.rel.as_str())
                    .unwrap_or("?");
                let mut d = Diagnostic::error(
                    rel,
                    node.line,
                    node.col,
                    HOT_PATH_CERT,
                    format!(
                        "declared {} entry `{entry}` can reach {}",
                        budget_word(effect),
                        describe(effect)
                    ),
                );
                if chain.len() > 1 {
                    d.notes.push(format!("call chain: {chain_text}"));
                }
                d.notes.push(format!(
                    "site: {} at {site_rel}:{}:{}",
                    site.what, site.line, site.col
                ));
                d.notes.push(
                    "move the effect off the read path (snapshot/precompute), or carry a \
                     reasoned file-local allow at the site"
                        .to_owned(),
                );
                if ratchet.line_of(HOT_PATH_CERT, entry).is_some() {
                    d.severity = Severity::Warning;
                    d.message.push_str(" (ratcheted)");
                }
                found_keys.insert((*entry).to_owned());
                diags.push(d);
            }
        }
    }

    if let Some(rp) = ratchet_path {
        for (key, line) in ratchet.entries_for(HOT_PATH_CERT) {
            if !found_keys.contains(key) {
                let mut d = Diagnostic::error(
                    rp,
                    line,
                    1,
                    HOT_PATH_CERT,
                    format!("stale ratchet entry: hot-path entry `{key}` now certifies clean"),
                );
                d.notes
                    .push("delete the line — the ratchet only shrinks".to_owned());
                diags.push(d);
            }
        }
    }
    diags
}

/// BFS from `root` to the nearest fn with a local site of `effect`;
/// returns the call chain (root first) and that site.
fn witness<'a>(
    adj: &[BTreeSet<usize>],
    sites: &'a [Vec<EffectSite>],
    root: usize,
    effect: Effect,
) -> Option<(Vec<usize>, &'a EffectSite)> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::from([root]);
    let mut seen = BTreeSet::from([root]);
    let mut hit: Option<(usize, &EffectSite)> = None;
    while let Some(v) = queue.pop_front() {
        if let Some(s) = sites
            .get(v)
            .and_then(|ss| ss.iter().find(|s| s.effect == effect))
        {
            hit = Some((v, s));
            break;
        }
        for &w in adj.get(v).into_iter().flatten() {
            if seen.insert(w) {
                parent.insert(w, v);
                queue.push_back(w);
            }
        }
    }
    let (hit, site) = hit?;
    let mut chain = vec![hit];
    let mut cur = hit;
    while let Some(&p) = parent.get(&cur) {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    Some((chain, site))
}
