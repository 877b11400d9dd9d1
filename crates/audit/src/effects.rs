//! Interprocedural effect inference: which blocking or concurrency
//! effects can each workspace function perform, transitively?
//!
//! The serving layer's contract is that *readers never block*: answering
//! a query must not take a lock, touch the filesystem or network, spawn
//! a thread, build a channel, or panic while holding a guard (poisoning
//! the mutex for every later caller). The file-local lints can police
//! spellings; proving the contract needs a whole-program view. This
//! module provides it in three layers:
//!
//! 1. **Effect lattice.** [`EffectSet`] is a five-element powerset
//!    lattice ordered by inclusion: [`Effect::Locks`],
//!    [`Effect::BlocksIo`], [`Effect::Spawns`], [`Effect::Channels`],
//!    [`Effect::PanicsViaPoison`]. Join is set union; the analysis is a
//!    *may* analysis, so bigger means "can do more".
//! 2. **Local extraction.** [`local_effects`] scans one fn body's token
//!    range for effect sites. Lock acquisition reuses the lock-order
//!    pass's guard-call detector; `PanicsViaPoison` is path-sensitive —
//!    it runs the same gen/kill guard-range dataflow
//!    ([`crate::dataflow::forward_may`] over the fn's CFG), so a panic
//!    site *after* `drop(guard)` or outside the guard's lexical scope
//!    does not count. Test code never reaches extraction at all (callers
//!    skip `in_test` fns), which is the other path-sensitivity rule: an
//!    effect inside `#[cfg(test)]` doesn't leak into a certificate.
//! 3. **Interprocedural solve.** [`solve`] condenses the call graph into
//!    its component DAG ([`crate::graph::scc::condense`]) and walks the
//!    reverse-topological order front-to-back: a component's summary is
//!    the union of its members' local effects and its callee components'
//!    summaries (already final when visited — mutual recursion inside a
//!    component is handled by the condensation itself, so one pass is
//!    the fixpoint). The result is deterministic (BTree-ordered
//!    everywhere) and monotone: adding a call edge can only grow
//!    summaries, never shrink them.
//!
//! The `hot-path-cert` pass (`crate::passes`) layers the `audit.toml`
//! `[effects]` budgets on top and reports certificate failures with full
//! call chains, in the same shape as the determinism certificate.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::cfg::Cfg;
use crate::cfg::StmtKind;
use crate::dataflow::{forward_may, BitSet};
use crate::graph::scc::condense;
use crate::lexer::{Token, TokenKind};
use crate::lints::{PANIC_MACROS, PANIC_METHODS};
use crate::parser::is_comment;
use crate::passes::lock_order::{drops_name, is_guard_call, scope_end, LOCK_METHODS};

/// One element of the effect lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Acquires a lock guard (`.lock()`, `.borrow_mut()`, empty-argument
    /// `.read()` / `.write()`).
    Locks,
    /// Performs blocking I/O: filesystem (`std::fs`, `File`,
    /// `OpenOptions`), sockets (`TcpStream` and friends), standard
    /// streams, or the print-macro family.
    BlocksIo,
    /// Spawns a thread (`thread::spawn`, scoped spawns, builders).
    Spawns,
    /// Constructs an mpsc channel (`channel()` / `sync_channel()`).
    Channels,
    /// Can panic at a statement where a lock guard is live — poisoning
    /// the mutex for every subsequent acquirer.
    PanicsViaPoison,
}

impl Effect {
    /// Every effect, in lattice display order.
    pub const ALL: [Effect; 5] = [
        Effect::Locks,
        Effect::BlocksIo,
        Effect::Spawns,
        Effect::Channels,
        Effect::PanicsViaPoison,
    ];

    /// Stable kebab-case name, used in diagnostics and docs.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Locks => "locks",
            Effect::BlocksIo => "blocks-io",
            Effect::Spawns => "spawns",
            Effect::Channels => "channels",
            Effect::PanicsViaPoison => "panics-via-poison",
        }
    }

    fn bit(self) -> u8 {
        match self {
            Effect::Locks => 1,
            Effect::BlocksIo => 1 << 1,
            Effect::Spawns => 1 << 2,
            Effect::Channels => 1 << 3,
            Effect::PanicsViaPoison => 1 << 4,
        }
    }
}

/// A set of [`Effect`]s — the lattice element attached to each fn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct EffectSet(u8);

impl EffectSet {
    /// The bottom element: no effects.
    pub const EMPTY: EffectSet = EffectSet(0);

    /// The set containing exactly `e`.
    pub fn singleton(e: Effect) -> EffectSet {
        EffectSet(e.bit())
    }

    /// Add `e` in place.
    pub fn insert(&mut self, e: Effect) {
        self.0 |= e.bit();
    }

    /// Membership test.
    pub fn contains(self, e: Effect) -> bool {
        self.0 & e.bit() != 0
    }

    /// Lattice join (set union).
    #[must_use]
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Intersection — the hot-path pass uses it to mask a summary
    /// against an entry's banned set.
    #[must_use]
    pub fn intersect(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 & other.0)
    }

    /// True when no effect is present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Lattice order: every effect of `self` is in `other`.
    pub fn is_subset(self, other: EffectSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Members in display order.
    pub fn iter(self) -> impl Iterator<Item = Effect> {
        Effect::ALL.into_iter().filter(move |e| self.contains(*e))
    }
}

impl std::fmt::Display for EffectSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "pure");
        }
        let names: Vec<&str> = self.iter().map(Effect::name).collect();
        write!(f, "{}", names.join("+"))
    }
}

/// One effect occurrence inside a fn body, with reporting context.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Which lattice element the site contributes.
    pub effect: Effect,
    /// Human-readable description of the offending construct.
    pub what: String,
    /// 1-based line of the site.
    pub line: u32,
    /// 1-based column of the site.
    pub col: u32,
}

/// Type idents whose mere construction/use in a body marks blocking I/O.
const IO_TYPES: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
];

/// `std::io` stream accessors (`io::stdout()` …).
const IO_STREAMS: &[&str] = &["stdin", "stdout", "stderr"];

/// Print-family macros (blocking writes to the standard streams).
const IO_PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Scan one fn body for effect sites. `fcfg` enables the path-sensitive
/// `PanicsViaPoison` analysis; without a CFG that effect is skipped
/// entirely (never over-approximated — a certificate must not fail on
/// facts the engine cannot ground).
///
/// The caller owns the skip policy (test fns, non-lib files, exempt
/// crates) and any allow-directive sanctioning.
pub fn local_effects(tokens: &[Token], body: Range<usize>, fcfg: Option<&Cfg>) -> Vec<EffectSite> {
    let mut sites = Vec::new();
    let sig_prev = |from: usize| {
        (body.start..from)
            .rev()
            .find(|&k| tokens.get(k).is_some_and(|t| !is_comment(t)))
    };
    let sig_next = |from: usize| {
        (from + 1..body.end.min(tokens.len()))
            .find(|&k| tokens.get(k).is_some_and(|t| !is_comment(t)))
    };

    for i in body.clone() {
        let Some(t) = tokens.get(i) else { continue };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text.as_str();
        let followed_by =
            |s: &str| sig_next(i).is_some_and(|k| tokens.get(k).is_some_and(|t| t.text == s));
        let preceded_by =
            |s: &str| sig_prev(i).is_some_and(|k| tokens.get(k).is_some_and(|t| t.text == s));

        // Locks: guard-returning method calls, same detector as the
        // lock-order pass.
        if LOCK_METHODS.contains(&text) && is_guard_call(tokens, body.clone(), i) {
            sites.push(EffectSite {
                effect: Effect::Locks,
                what: format!("`.{text}()` guard acquisition"),
                line: t.line,
                col: t.col,
            });
            continue;
        }

        // BlocksIo: filesystem / socket types, std stream handles,
        // print-family macros, `fs::` paths.
        let io = if IO_TYPES.contains(&text) {
            Some(format!("`{text}` (blocking I/O handle)"))
        } else if IO_STREAMS.contains(&text) && preceded_by("::") && followed_by("(") {
            Some(format!("`io::{text}()` (standard stream)"))
        } else if text == "fs" && followed_by("::") {
            Some("`fs::…` (filesystem access)".to_owned())
        } else if IO_PRINT_MACROS.contains(&text) && followed_by("!") {
            Some(format!("`{text}!` (blocking stream write)"))
        } else {
            None
        };
        if let Some(what) = io {
            sites.push(EffectSite {
                effect: Effect::BlocksIo,
                what,
                line: t.line,
                col: t.col,
            });
            continue;
        }

        // Spawns: any `spawn(…)` call (free, builder, or scoped) plus the
        // `thread::scope` entry itself.
        if text == "spawn" && followed_by("(") {
            sites.push(EffectSite {
                effect: Effect::Spawns,
                what: "`spawn(…)` (thread spawn)".to_owned(),
                line: t.line,
                col: t.col,
            });
            continue;
        }
        if text == "scope" && followed_by("(") {
            let thread_qualified = sig_prev(i)
                .filter(|&k| tokens.get(k).is_some_and(|t| t.text == "::"))
                .and_then(sig_prev)
                .is_some_and(|k| tokens.get(k).is_some_and(|t| t.text == "thread"));
            if thread_qualified {
                sites.push(EffectSite {
                    effect: Effect::Spawns,
                    what: "`thread::scope` (scoped spawn region)".to_owned(),
                    line: t.line,
                    col: t.col,
                });
                continue;
            }
        }

        // Channels: mpsc constructors.
        if matches!(text, "channel" | "sync_channel") && followed_by("(") {
            sites.push(EffectSite {
                effect: Effect::Channels,
                what: format!("`{text}(…)` (mpsc channel construction)"),
                line: t.line,
                col: t.col,
            });
        }
    }

    if let Some(fcfg) = fcfg {
        sites.extend(poison_sites(tokens, body, fcfg));
    }
    sites.sort_by_key(|s| (s.line, s.col, s.effect));
    sites
}

/// Path-sensitive `PanicsViaPoison`: a panic-capable token at a statement
/// where a `let`-bound lock guard is live at entry. Reuses the lock-order
/// pass's guard-range dataflow — the fact is generated at the binding
/// statement and killed both at `drop(name)` and past the binding's
/// lexical scope, then propagated along real control flow by
/// [`forward_may`]. A panic in the *same* statement as the acquisition
/// (`m.lock().unwrap()`) is not a poison panic: the guard is still inside
/// the `Result` when `unwrap` decides.
fn poison_sites(tokens: &[Token], body: Range<usize>, fcfg: &Cfg) -> Vec<EffectSite> {
    // Guard facts: let-bound, non-discard guard-call acquisitions.
    struct Guard {
        name: String,
        block: usize,
        tok: usize,
    }
    let mut guards: Vec<Guard> = Vec::new();
    for i in body.clone() {
        let Some(t) = tokens.get(i) else { continue };
        if t.kind != TokenKind::Ident
            || !LOCK_METHODS.contains(&t.text.as_str())
            || !is_guard_call(tokens, body.clone(), i)
        {
            continue;
        }
        let Some(block) = fcfg.block_of_token(i) else {
            continue;
        };
        let Some(StmtKind::Let {
            name: Some(name),
            discard: false,
        }) = fcfg
            .blocks
            .get(block)
            .and_then(|b| b.stmt.as_ref())
            .map(|s| s.kind.clone())
        else {
            continue;
        };
        guards.push(Guard {
            name,
            block,
            tok: i,
        });
    }
    if guards.is_empty() {
        return Vec::new();
    }

    let nb = fcfg.blocks.len();
    let mut gen = vec![BitSet::new(guards.len()); nb];
    let mut kill = vec![BitSet::new(guards.len()); nb];
    for (bit, g) in guards.iter().enumerate() {
        if let Some(gs) = gen.get_mut(g.block) {
            gs.insert(bit);
        }
        let scope = scope_end(tokens, body.clone(), g.tok);
        for (b, blk) in fcfg.blocks.iter().enumerate() {
            let Some(s) = &blk.stmt else { continue };
            if s.span.start >= scope || drops_name(tokens, s.span.clone(), &g.name) {
                if let Some(ks) = kill.get_mut(b) {
                    ks.insert(bit);
                }
            }
        }
    }
    let flow = forward_may(fcfg, guards.len(), &gen, &kill);

    let sig_prev = |from: usize| {
        (body.start..from)
            .rev()
            .find(|&k| tokens.get(k).is_some_and(|t| !is_comment(t)))
    };
    let sig_next = |from: usize| {
        (from + 1..body.end.min(tokens.len()))
            .find(|&k| tokens.get(k).is_some_and(|t| !is_comment(t)))
    };
    let mut sites = Vec::new();
    for i in body.clone() {
        let Some(t) = tokens.get(i) else { continue };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text.as_str();
        let at = |k: usize, s: &str| tokens.get(k).is_some_and(|t| t.text == s);
        let method = PANIC_METHODS.contains(&text)
            && sig_prev(i).is_some_and(|k| at(k, "."))
            && sig_next(i).is_some_and(|k| at(k, "("));
        let mac = PANIC_MACROS.contains(&text) && sig_next(i).is_some_and(|k| at(k, "!"));
        if !method && !mac {
            continue;
        }
        let Some(b) = fcfg.block_of_token(i) else {
            continue;
        };
        let Some(held) = flow.input.get(b) else {
            continue;
        };
        let Some(first) = held.iter().next() else {
            continue;
        };
        let spelled = if mac {
            format!("`{text}!`")
        } else {
            format!("`.{text}()`")
        };
        sites.push(EffectSite {
            effect: Effect::PanicsViaPoison,
            what: format!(
                "{spelled} while guard `{}` is held (poisons the lock)",
                guards.get(first).map(|g| g.name.as_str()).unwrap_or("?")
            ),
            line: t.line,
            col: t.col,
        });
    }
    sites
}

/// Interprocedural fixpoint: fold per-fn local effect sets bottom-up over
/// the call graph.
///
/// `adj[f]` is the callee set of fn `f` (any edge kind — a *may*
/// analysis wants the over-approximation); `local[f]` its local effects.
/// Returns the transitive summary per fn. Functions in the same strongly
/// connected component share one summary; components are solved callees
/// first along [`condense`]'s reverse-topological order, so a single
/// sweep reaches the fixpoint.
pub fn solve(n: usize, adj: &[BTreeSet<usize>], local: &[EffectSet]) -> Vec<EffectSet> {
    debug_assert_eq!(adj.len(), n);
    debug_assert_eq!(local.len(), n);
    let c = condense(n, adj);
    let mut comp_fx = vec![EffectSet::EMPTY; c.members.len()];
    for &comp in &c.topo {
        let mut fx = EffectSet::EMPTY;
        for &m in c.members.get(comp).map(Vec::as_slice).unwrap_or(&[]) {
            fx = fx.union(local.get(m).copied().unwrap_or(EffectSet::EMPTY));
        }
        for &succ in c.comp_adj.get(comp).into_iter().flatten() {
            fx = fx.union(comp_fx.get(succ).copied().unwrap_or(EffectSet::EMPTY));
        }
        if let Some(slot) = comp_fx.get_mut(comp) {
            *slot = fx;
        }
    }
    (0..n)
        .map(|f| {
            c.comp
                .get(f)
                .and_then(|&cp| comp_fx.get(cp))
                .copied()
                .unwrap_or(EffectSet::EMPTY)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use crate::lexer::lex;

    fn set(effects: &[Effect]) -> EffectSet {
        let mut s = EffectSet::EMPTY;
        for &e in effects {
            s.insert(e);
        }
        s
    }

    fn graph(n: usize, edges: &[(usize, usize)]) -> Vec<BTreeSet<usize>> {
        let mut adj = vec![BTreeSet::new(); n];
        for &(a, b) in edges {
            adj[a].insert(b);
        }
        adj
    }

    /// Lex `src` (one fn), return tokens + the body token range + CFG.
    fn body_of(src: &str) -> (Vec<Token>, Range<usize>, Cfg) {
        let tokens = lex(src);
        let open = tokens.iter().position(|t| t.text == "{").expect("body");
        let body = open..tokens.len();
        let cfg = build_cfg(&tokens, body.clone());
        (tokens, body, cfg)
    }

    #[test]
    fn lattice_ops_behave() {
        let mut s = EffectSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Effect::Locks);
        s.insert(Effect::Spawns);
        assert!(s.contains(Effect::Locks));
        assert!(!s.contains(Effect::BlocksIo));
        assert!(EffectSet::singleton(Effect::Locks).is_subset(s));
        assert!(!s.is_subset(EffectSet::singleton(Effect::Locks)));
        let joined = s.union(EffectSet::singleton(Effect::Channels));
        assert_eq!(joined.iter().count(), 3);
        assert_eq!(s.to_string(), "locks+spawns");
        assert_eq!(EffectSet::EMPTY.to_string(), "pure");
        assert_eq!(
            joined.intersect(set(&[Effect::Channels, Effect::BlocksIo])),
            EffectSet::singleton(Effect::Channels)
        );
    }

    #[test]
    fn local_extraction_finds_each_effect_class() {
        let (tokens, body, _) = body_of(
            "fn f(&self) {\n\
             let _g = self.m.lock();\n\
             let h = File::open(p);\n\
             std::thread::spawn(|| {});\n\
             let (tx, rx) = std::sync::mpsc::channel();\n\
             println!(\"x\");\n\
             }",
        );
        let sites = local_effects(&tokens, body, None);
        let effects: Vec<Effect> = sites.iter().map(|s| s.effect).collect();
        assert!(effects.contains(&Effect::Locks));
        assert!(effects.contains(&Effect::BlocksIo));
        assert!(effects.contains(&Effect::Spawns));
        assert!(effects.contains(&Effect::Channels));
    }

    #[test]
    fn read_with_arguments_is_not_a_lock() {
        let (tokens, body, _) = body_of("fn f() { file.read(&mut buf); }");
        assert!(local_effects(&tokens, body, None).is_empty());
    }

    #[test]
    fn panic_under_live_guard_is_poison() {
        let (tokens, body, cfg) = body_of(
            "fn f(&self) {\n\
             let g = self.m.lock();\n\
             self.x.get(k).unwrap();\n\
             }",
        );
        let sites = local_effects(&tokens, body, Some(&cfg));
        assert!(
            sites.iter().any(|s| s.effect == Effect::PanicsViaPoison),
            "panic with guard held must register: {sites:?}"
        );
    }

    #[test]
    fn drop_kills_the_guard_range() {
        let (tokens, body, cfg) = body_of(
            "fn f(&self) {\n\
             let g = self.m.lock();\n\
             drop(g);\n\
             self.x.get(k).unwrap();\n\
             }",
        );
        let sites = local_effects(&tokens, body, Some(&cfg));
        assert!(
            !sites.iter().any(|s| s.effect == Effect::PanicsViaPoison),
            "drop(g) before the panic site must kill the fact: {sites:?}"
        );
    }

    #[test]
    fn acquisition_statement_itself_is_not_poison() {
        let (tokens, body, cfg) = body_of("fn f(&self) { let g = self.m.lock().unwrap(); }");
        let sites = local_effects(&tokens, body, Some(&cfg));
        assert!(!sites.iter().any(|s| s.effect == Effect::PanicsViaPoison));
    }

    #[test]
    fn solve_propagates_up_a_chain() {
        // 0 → 1 → 2, only 2 has a local effect.
        let adj = graph(3, &[(0, 1), (1, 2)]);
        let local = vec![
            EffectSet::EMPTY,
            EffectSet::EMPTY,
            EffectSet::singleton(Effect::BlocksIo),
        ];
        let s = solve(3, &adj, &local);
        assert!(s[0].contains(Effect::BlocksIo));
        assert!(s[1].contains(Effect::BlocksIo));
        assert!(!s[2].contains(Effect::Locks));
    }

    #[test]
    fn solve_handles_cycles_as_one_component() {
        // 0 ↔ 1 mutual recursion; 1 → 2; 2 locks, 0 spawns.
        let adj = graph(3, &[(0, 1), (1, 0), (1, 2)]);
        let local = vec![
            EffectSet::singleton(Effect::Spawns),
            EffectSet::EMPTY,
            EffectSet::singleton(Effect::Locks),
        ];
        let s = solve(3, &adj, &local);
        assert_eq!(s[0], set(&[Effect::Spawns, Effect::Locks]));
        assert_eq!(s[0], s[1], "an SCC shares one summary");
        assert_eq!(s[2], EffectSet::singleton(Effect::Locks));
    }

    #[test]
    fn solve_is_monotone_in_edges() {
        let local = vec![
            EffectSet::EMPTY,
            EffectSet::singleton(Effect::Channels),
            EffectSet::singleton(Effect::Locks),
        ];
        let before = solve(3, &graph(3, &[(0, 1)]), &local);
        let after = solve(3, &graph(3, &[(0, 1), (0, 2)]), &local);
        for f in 0..3 {
            assert!(before[f].is_subset(after[f]));
        }
    }
}
