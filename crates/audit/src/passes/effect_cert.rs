//! Effect certificates: a transitive proof that each entry point under
//! an `audit.toml [effects]` budget cannot reach what the budget bans.
//!
//! | budget | entries | bans |
//! |---|---|---|
//! | `panic-free` | every pub lib fn of the listed crates | [`Effect::Panics`] |
//! | `deterministic` | listed fns | hash order, clock reads, env reads |
//! | `lock-free` / `io-free` / `spawn-free` / `channel-free` / `poison-free` | listed fns | the one blocking effect each names |
//!
//! Each fn's local sites come from [`crate::effects::local_effects`];
//! [`crate::effects::solve`] folds them bottom-up over the SCC-condensed
//! call graph. The walk uses **all** call edges (uncertain method-name
//! edges included): a certificate must over-approximate. Which sites
//! count depends on the class, exactly as each certificate has always
//! been scoped:
//!
//! - panic sites count in every non-test fn, with no exemption;
//! - nondeterminism sites count in lib code outside `deterministic-exempt`;
//! - blocking sites count in lib code outside `blocking-exempt`.
//!
//! A site is sanctioned by a reasoned `allow(effect-cert, …)` on its
//! line, and also — presence only, the file lint owns the directive's
//! used-ness — by the file-local allow of its class: `no-panic-in-lib`
//! for panics, `deterministic-iteration` / `no-raw-time` for
//! nondeterminism. An `allow(effect-cert, …)` on an entry fn's own line
//! suppresses that entry.
//!
//! Each failure is reported once per banned effect the entry reaches,
//! with the shortest call chain to the nearest fn holding such a site and
//! the site itself. Ratchet key: the entry fn's id-path. A listed entry
//! that matches no workspace fn is itself an error — a certificate over
//! nothing is not a certificate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::cfg::Cfg;
use crate::classify::CodeKind;
use crate::config::{is_exempt, Config};
use crate::effects::{local_effects, solve, Effect, EffectSet, EffectSite};
use crate::graph::CallGraph;
use crate::lints::{
    allow_covers, AllowDirective, Diagnostic, Severity, DETERMINISTIC_ITERATION, EFFECT_CERT,
    NO_PANIC_IN_LIB, NO_RAW_TIME,
};
use crate::ratchet::Ratchet;
use crate::Workspace;

/// Run the pass. Disabled (empty result) when no budget names an entry.
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
    let cfg_path = cfg.source.as_deref().unwrap_or("audit.toml");

    // Banned effects per fn: the union over the budgets it is an entry of.
    let mut banned = vec![EffectSet::EMPTY; n];
    for (node, b) in graph.fns.iter().zip(banned.iter_mut()) {
        let panic_root = node.is_pub
            && node.kind == CodeKind::Lib
            && !node.in_test
            && node.body.is_some()
            && cfg.panic_free.contains(&node.crate_name);
        if panic_root {
            b.insert(Effect::Panics);
        }
    }
    let listed = [
        (&cfg.deterministic, EffectSet::NONDETERMINISM),
        (&cfg.lock_free, EffectSet::singleton(Effect::Locks)),
        (&cfg.io_free, EffectSet::singleton(Effect::BlocksIo)),
        (&cfg.spawn_free, EffectSet::singleton(Effect::Spawns)),
        (&cfg.channel_free, EffectSet::singleton(Effect::Channels)),
        (
            &cfg.poison_free,
            EffectSet::singleton(Effect::PanicsViaPoison),
        ),
    ];
    for (entries, bans) in listed {
        for entry in entries {
            let mut matched = false;
            for (node, b) in graph.fns.iter().zip(banned.iter_mut()) {
                if !node.in_test && node.id_path == *entry {
                    *b = b.union(bans);
                    matched = true;
                }
            }
            if !matched {
                let budget = bans.iter().next().map_or("?", Effect::budget);
                diags.push(Diagnostic::error(
                    cfg_path,
                    1,
                    1,
                    EFFECT_CERT,
                    format!("{budget} entry point `{entry}` matches no workspace fn"),
                ));
            }
        }
    }
    if banned.iter().all(|b| b.is_empty()) {
        return diags;
    }

    // Local sites per non-test fn, with sanctioned sites removed up front
    // so they shape neither the summaries nor the witness chains.
    let mut sites: Vec<Vec<EffectSite>> = (0..n).map(|_| Vec::new()).collect();
    for (f, node) in graph.fns.iter().enumerate() {
        let (false, Some(body), Some(file)) =
            (node.in_test, node.body.clone(), ws.files.get(node.file))
        else {
            continue;
        };
        let mut scope = EffectSet::singleton(Effect::Panics);
        if node.kind == CodeKind::Lib {
            if !is_exempt(&cfg.deterministic_exempt, &node.crate_name, &file.rel) {
                scope = scope.union(EffectSet::NONDETERMINISM);
            }
            if !is_exempt(&cfg.blocking_exempt, &node.crate_name, &file.rel) {
                scope = scope.union(EffectSet::BLOCKING);
            }
        }
        let fcfg = cfgs.get(f).and_then(|c| c.as_ref());
        let ds: &mut [AllowDirective] = directives.get_mut(node.file).map_or(&mut [], |d| d);
        let kept = local_effects(&file.tokens, body, fcfg, scope)
            .into_iter()
            .filter(|site| !sanctioned(ds, site))
            .collect();
        if let Some(slot) = sites.get_mut(f) {
            *slot = kept;
        }
    }
    let local: Vec<EffectSet> = sites
        .iter()
        .map(|ss| {
            ss.iter().fold(EffectSet::EMPTY, |fx, s| {
                fx.union(EffectSet::singleton(s.effect))
            })
        })
        .collect();

    // Forward adjacency over all edges, test callees excluded.
    let adj: Vec<BTreeSet<usize>> = graph
        .calls
        .iter()
        .zip(&graph.fns)
        .map(|(calls, node)| {
            let live = |c: usize| !node.in_test && graph.fns.get(c).is_some_and(|nd| !nd.in_test);
            calls
                .iter()
                .map(|cs| cs.callee)
                .filter(|&c| live(c))
                .collect()
        })
        .collect();
    let summary = solve(n, &adj, &local);

    let mut found_keys: BTreeSet<&str> = BTreeSet::new();
    for (root, node) in graph.fns.iter().enumerate() {
        let violated = match (banned.get(root), summary.get(root)) {
            (Some(b), Some(s)) => b.intersect(*s),
            _ => continue,
        };
        if violated.is_empty() {
            continue;
        }
        let allowed = directives
            .get_mut(node.file)
            .is_some_and(|ds| allow_covers(ds, EFFECT_CERT, node.line));
        if allowed {
            continue;
        }
        let rel = ws.files.get(node.file).map_or("?", |fl| fl.rel.as_str());
        let entry = node.id_path.as_str();
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
                .map_or("?", |fl| fl.rel.as_str());
            let mut d = Diagnostic::error(
                rel,
                node.line,
                node.col,
                EFFECT_CERT,
                format!(
                    "declared {} entry `{entry}` can reach {}",
                    effect.budget(),
                    effect.describe()
                ),
            );
            d.notes.push(format!("call chain: {chain_text}"));
            d.notes.push(format!(
                "site: {} at {site_rel}:{}:{}",
                site.what, site.line, site.col
            ));
            d.notes.push(
                "move the effect off the certified path, or carry a reasoned file-local \
                 allow at the site"
                    .to_owned(),
            );
            if ratchet.line_of(EFFECT_CERT, entry).is_some() {
                d.severity = Severity::Warning;
                d.message.push_str(" (ratcheted)");
            }
            found_keys.insert(entry);
            diags.push(d);
        }
    }

    if let Some(rp) = ratchet_path {
        for (key, line) in ratchet.entries_for(EFFECT_CERT) {
            if !found_keys.contains(key) {
                let mut d = Diagnostic::error(
                    rp,
                    line,
                    1,
                    EFFECT_CERT,
                    format!("stale ratchet entry: entry `{key}` now certifies clean"),
                );
                d.notes
                    .push("delete the line — the ratchet only shrinks".to_owned());
                diags.push(d);
            }
        }
    }
    diags
}

/// Whether a reasoned allow on the site's line sanctions it. The
/// `effect-cert` allow is marked used; a class's file-local allow counts
/// by presence only.
fn sanctioned(directives: &mut [AllowDirective], site: &EffectSite) -> bool {
    let cert = allow_covers(directives, EFFECT_CERT, site.line);
    let local: &[&str] = match site.effect {
        Effect::Panics => &[NO_PANIC_IN_LIB],
        e if EffectSet::NONDETERMINISM.contains(e) => &[DETERMINISTIC_ITERATION, NO_RAW_TIME],
        _ => &[],
    };
    cert || directives
        .iter()
        .any(|d| d.target_line == site.line && local.contains(&d.lint.as_str()))
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
    while let Some(v) = queue.pop_front() {
        if let Some(site) = sites
            .get(v)
            .and_then(|ss| ss.iter().find(|s| s.effect == effect))
        {
            let mut chain = vec![v];
            let mut cur = v;
            while let Some(&p) = parent.get(&cur) {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            return Some((chain, site));
        }
        for &w in adj.get(v).into_iter().flatten() {
            if seen.insert(w) {
                parent.insert(w, v);
                queue.push_back(w);
            }
        }
    }
    None
}
