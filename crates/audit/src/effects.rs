//! Interprocedural effect inference: which effects can each workspace
//! function perform, transitively?
//!
//! Every transitive certificate udi-audit issues has the same shape: an
//! entry point must not reach a class of sites through the call graph.
//!
//! - **panic-free**: the pub lib fns of the listed crates never reach
//!   `unwrap`/`expect`, a panic macro, or a bounds-checked index;
//! - **deterministic**: the declared entries never reach hash-ordered
//!   iteration, a raw clock read, or an environment read, so same-corpus
//!   runs stay bit-identical;
//! - **lock-free**, **io-free**, **spawn-free**, **channel-free**,
//!   **poison-free**: the serving layer's readers never block, and never
//!   panic while holding a guard (poisoning the mutex for every later
//!   caller).
//!
//! This module proves all of them with one analysis in three layers:
//!
//! 1. **Effect lattice.** [`EffectSet`] is the powerset of the nine
//!    [`Effect`]s, ordered by inclusion. Join is set union; the analysis
//!    is a *may* analysis, so bigger means "can do more".
//! 2. **Local extraction.** [`local_effects`] scans one fn body's token
//!    range for effect sites. Each class has one site classifier
//!    ([`panic_site`], [`index_site`], [`hash_site`], [`clock_site`],
//!    [`env_site`], [`print_site`], …), and the file-local lints call the
//!    same classifiers, so a lint and its certificate never disagree on
//!    what a site is. Lock acquisition reuses the lock-order pass's
//!    guard-call detector; `PanicsViaPoison` is path-sensitive — it runs
//!    the same gen/kill guard-range dataflow
//!    ([`crate::dataflow::forward_may`] over the fn's CFG), so a panic
//!    site *after* `drop(guard)` or outside the guard's lexical scope
//!    does not count. Test code never reaches extraction at all (callers
//!    skip `in_test` fns): an effect inside `#[cfg(test)]` doesn't leak
//!    into a certificate.
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
//! The `effect-cert` pass (`crate::passes`) layers the `audit.toml`
//! `[effects]` budgets on top and reports each failure with its shortest
//! call chain and the offending site.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::cfg::Cfg;
use crate::cfg::StmtKind;
use crate::dataflow::{forward_may, BitSet};
use crate::graph::scc::condense;
use crate::lexer::{Token, TokenKind};
use crate::parser::is_comment;
use crate::passes::lock_order::{drops_name, is_guard_call, scope_end, LOCK_METHODS};

/// One element of the effect lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Can panic: `.unwrap()` / `.expect(…)` and friends, a panic macro,
    /// or a bounds-checked index `expr[…]`.
    Panics,
    /// Touches a hash-ordered container (`HashMap`, `HashSet`,
    /// `RandomState`), whose iteration order varies run to run.
    HashOrder,
    /// Reads a raw clock (`Instant`, `SystemTime`).
    ReadsClock,
    /// Reads the process environment (`env::var` and friends).
    ReadsEnv,
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
    pub const ALL: [Effect; 9] = [
        Effect::Panics,
        Effect::HashOrder,
        Effect::ReadsClock,
        Effect::ReadsEnv,
        Effect::Locks,
        Effect::BlocksIo,
        Effect::Spawns,
        Effect::Channels,
        Effect::PanicsViaPoison,
    ];

    /// Stable kebab-case name, used in diagnostics and docs.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Panics => "panics",
            Effect::HashOrder => "hash-order",
            Effect::ReadsClock => "reads-clock",
            Effect::ReadsEnv => "reads-env",
            Effect::Locks => "locks",
            Effect::BlocksIo => "blocks-io",
            Effect::Spawns => "spawns",
            Effect::Channels => "channels",
            Effect::PanicsViaPoison => "panics-via-poison",
        }
    }

    /// The `audit.toml` `[effects]` budget that bans this effect.
    pub fn budget(self) -> &'static str {
        match self {
            Effect::Panics => "panic-free",
            Effect::HashOrder | Effect::ReadsClock | Effect::ReadsEnv => "deterministic",
            Effect::Locks => "lock-free",
            Effect::BlocksIo => "io-free",
            Effect::Spawns => "spawn-free",
            Effect::Channels => "channel-free",
            Effect::PanicsViaPoison => "poison-free",
        }
    }

    /// What an entry that has this effect can reach, for diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            Effect::Panics => "a panic",
            Effect::HashOrder => "hash-ordered iteration",
            Effect::ReadsClock => "a raw clock read",
            Effect::ReadsEnv => "an environment read",
            Effect::Locks => "a lock acquisition",
            Effect::BlocksIo => "blocking I/O",
            Effect::Spawns => "a thread spawn",
            Effect::Channels => "a channel construction",
            Effect::PanicsViaPoison => "a panic under a held lock guard (mutex poison)",
        }
    }

    const fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// A set of [`Effect`]s — the lattice element attached to each fn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct EffectSet(u16);

impl EffectSet {
    /// The bottom element: no effects.
    pub const EMPTY: EffectSet = EffectSet(0);

    /// What the `deterministic` budget bans, and what
    /// `deterministic-exempt` lifts.
    pub const NONDETERMINISM: EffectSet =
        EffectSet::of(&[Effect::HashOrder, Effect::ReadsClock, Effect::ReadsEnv]);

    /// The serving layer's blocking classes, which `blocking-exempt`
    /// lifts.
    pub const BLOCKING: EffectSet = EffectSet::of(&[
        Effect::Locks,
        Effect::BlocksIo,
        Effect::Spawns,
        Effect::Channels,
        Effect::PanicsViaPoison,
    ]);

    /// The set of the listed effects.
    pub const fn of(mut effects: &[Effect]) -> EffectSet {
        let mut bits = 0;
        while let [first, rest @ ..] = effects {
            bits |= first.bit();
            effects = rest;
        }
        EffectSet(bits)
    }

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

    /// Intersection — the certificate pass uses it to mask a summary
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

/// One token with its significant (non-comment) neighbours: all the
/// context a site classifier reads.
#[derive(Debug, Clone, Copy)]
pub struct Near<'a> {
    /// The significant token before `prev`.
    pub before: Option<&'a Token>,
    /// The previous significant token.
    pub prev: Option<&'a Token>,
    /// The token being classified.
    pub tok: &'a Token,
    /// The next significant token.
    pub next: Option<&'a Token>,
}

impl<'a> Near<'a> {
    /// The token at slot `s` of `sig`, a [`significant`] index list into
    /// `tokens`. Neighbours stop at the ends of `sig`.
    pub fn at(tokens: &'a [Token], sig: &[usize], s: usize) -> Option<Near<'a>> {
        let get = |k: usize| sig.get(k).and_then(|&i| tokens.get(i));
        Some(Near {
            before: s.checked_sub(2).and_then(get),
            prev: s.checked_sub(1).and_then(get),
            tok: get(s)?,
            next: get(s + 1),
        })
    }

    /// The token's text if it is a plain identifier.
    fn ident(&self) -> Option<&'a str> {
        (self.tok.kind == TokenKind::Ident).then_some(self.tok.text.as_str())
    }
}

/// Indices of the significant (non-comment) tokens in `range`.
pub fn significant(tokens: &[Token], range: Range<usize>) -> Vec<usize> {
    (range.start..range.end.min(tokens.len()))
        .filter(|&i| tokens.get(i).is_some_and(|t| !is_comment(t)))
        .collect()
}

fn is(t: Option<&Token>, text: &str) -> bool {
    t.is_some_and(|t| t.text == text)
}

/// Methods that panic on `None` / `Err`.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
/// Macros that panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

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

/// [`Effect::Panics`] by call: a `.unwrap()`-style method call, an
/// `Option::unwrap`-style path, or a panic macro. Returns the spelling.
pub fn panic_site(n: &Near) -> Option<String> {
    let name = n.ident()?;
    if PANIC_MACROS.contains(&name) && is(n.next, "!") {
        Some(format!("`{name}!`"))
    } else if !PANIC_METHODS.contains(&name) {
        None
    } else if is(n.prev, ".") && is(n.next, "(") {
        Some(format!("`.{name}()`"))
    } else {
        is(n.prev, "::").then(|| format!("`::{name}`"))
    }
}

/// [`Effect::Panics`] by indexing: `expr[…]`, a bounds-checked access —
/// the token before the `[` ends an expression. `#[attr]` and `vec![…]`
/// do not count: their `[` follows `#` / `!`.
pub fn index_site(n: &Near) -> Option<String> {
    if n.tok.kind != TokenKind::Punct || n.tok.text != "[" {
        return None;
    }
    let p = n.prev?;
    let ends_expr = matches!(p.kind, TokenKind::Ident | TokenKind::RawIdent)
        && !matches!(
            p.text.as_str(),
            "mut" | "return" | "in" | "as" | "else" | "match" | "let" | "ref" | "box"
        )
        || (p.kind == TokenKind::Punct && matches!(p.text.as_str(), ")" | "]"));
    ends_expr.then(|| "`[…]` index".to_owned())
}

/// [`Effect::HashOrder`]: a hash-ordered container or hasher type.
pub fn hash_site(n: &Near) -> Option<String> {
    let name = n.ident()?;
    matches!(name, "HashMap" | "HashSet" | "RandomState").then(|| format!("`{name}`"))
}

/// [`Effect::ReadsClock`]: a raw clock type.
pub fn clock_site(n: &Near) -> Option<String> {
    let name = n.ident()?;
    matches!(name, "Instant" | "SystemTime").then(|| format!("`{name}`"))
}

/// [`Effect::ReadsEnv`]: `env::var(…)` and friends, qualified spelling
/// only (a bare `var` is any local).
pub fn env_site(n: &Near) -> Option<String> {
    let name = n.ident()?;
    let qualified = is(n.prev, "::") && is(n.before, "env");
    (matches!(name, "var" | "vars" | "var_os" | "vars_os") && qualified)
        .then(|| format!("`env::{name}`"))
}

/// The print-macro part of [`Effect::BlocksIo`] (the part the
/// `no-stray-io` lint polices).
pub fn print_site(n: &Near) -> Option<String> {
    let name = n.ident()?;
    (IO_PRINT_MACROS.contains(&name) && is(n.next, "!")).then(|| format!("`{name}!`"))
}

/// [`Effect::BlocksIo`]: filesystem / socket types, std stream handles,
/// `fs::` paths and the print macros.
fn io_site(n: &Near) -> Option<String> {
    let name = n.ident()?;
    if IO_TYPES.contains(&name) {
        Some(format!("`{name}` (blocking I/O handle)"))
    } else if IO_STREAMS.contains(&name) && is(n.prev, "::") && is(n.next, "(") {
        Some(format!("`io::{name}()` (standard stream)"))
    } else if name == "fs" && is(n.next, "::") {
        Some("`fs::…` (filesystem access)".to_owned())
    } else {
        print_site(n).map(|m| format!("{m} (blocking stream write)"))
    }
}

/// [`Effect::Spawns`]: any `spawn(…)` call (free, builder, or scoped) and
/// the `thread::scope` entry itself.
fn spawn_site(n: &Near) -> Option<String> {
    match n.ident()? {
        "spawn" if is(n.next, "(") => Some("`spawn(…)` (thread spawn)".to_owned()),
        "scope" if is(n.next, "(") && is(n.prev, "::") && is(n.before, "thread") => {
            Some("`thread::scope` (scoped spawn region)".to_owned())
        }
        _ => None,
    }
}

/// [`Effect::Channels`]: the mpsc constructors.
fn channel_site(n: &Near) -> Option<String> {
    let name = n.ident()?;
    (matches!(name, "channel" | "sync_channel") && is(n.next, "("))
        .then(|| format!("`{name}(…)` (mpsc channel construction)"))
}

/// Every token-local classifier with the effect it reports. Locks and
/// poison need the body range and the CFG; [`local_effects`] runs those.
type Classifier = fn(&Near) -> Option<String>;
const CLASSIFIERS: [(Effect, Classifier); 8] = [
    (Effect::Panics, panic_site),
    (Effect::Panics, index_site),
    (Effect::HashOrder, hash_site),
    (Effect::ReadsClock, clock_site),
    (Effect::ReadsEnv, env_site),
    (Effect::BlocksIo, io_site),
    (Effect::Spawns, spawn_site),
    (Effect::Channels, channel_site),
];

/// Scan one fn body for the sites of the effects in `scope`. `fcfg`
/// enables the path-sensitive `PanicsViaPoison` analysis; without a CFG
/// that effect is skipped entirely (never over-approximated — a
/// certificate must not fail on facts the engine cannot ground).
///
/// The caller owns the skip policy (test fns, exemptions, which classes
/// count in which code) through `scope`, and any allow-directive
/// sanctioning.
pub fn local_effects(
    tokens: &[Token],
    body: Range<usize>,
    fcfg: Option<&Cfg>,
    scope: EffectSet,
) -> Vec<EffectSite> {
    let sig = significant(tokens, body.clone());
    let mut sites = Vec::new();
    for (s, &i) in sig.iter().enumerate() {
        // Every site is an identifier or an index bracket.
        let candidate = tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident || t.text == "[");
        let Some(n) = Near::at(tokens, &sig, s).filter(|_| candidate) else {
            continue;
        };
        // Locks: guard-returning method calls, same detector as the
        // lock-order pass.
        let lock = scope.contains(Effect::Locks)
            && n.ident().is_some_and(|t| LOCK_METHODS.contains(&t))
            && is_guard_call(tokens, body.clone(), i);
        let found = if lock {
            Some((
                Effect::Locks,
                format!("`.{}()` guard acquisition", n.tok.text),
            ))
        } else {
            CLASSIFIERS
                .iter()
                .filter(|(e, _)| scope.contains(*e))
                .find_map(|(e, classify)| classify(&n).map(|what| (*e, what)))
        };
        if let Some((effect, what)) = found {
            sites.push(EffectSite {
                effect,
                what,
                line: n.tok.line,
                col: n.tok.col,
            });
        }
    }

    // A poison panic needs a held guard, so only a body that locks can
    // have one.
    let locks = sites.iter().any(|s| s.effect == Effect::Locks);
    if let (Some(fcfg), true) = (fcfg, locks && scope.contains(Effect::PanicsViaPoison)) {
        sites.extend(poison_sites(tokens, body, &sig, fcfg));
    }
    sites.sort_by_key(|s| (s.line, s.col, s.effect));
    sites
}

/// Path-sensitive `PanicsViaPoison`: a [`panic_site`] at a statement
/// where a `let`-bound lock guard is live at entry. Reuses the lock-order
/// pass's guard-range dataflow — the fact is generated at the binding
/// statement and killed both at `drop(name)` and past the binding's
/// lexical scope, then propagated along real control flow by
/// [`forward_may`]. A panic in the *same* statement as the acquisition
/// (`m.lock().unwrap()`) is not a poison panic: the guard is still inside
/// the `Result` when `unwrap` decides.
fn poison_sites(
    tokens: &[Token],
    body: Range<usize>,
    sig: &[usize],
    fcfg: &Cfg,
) -> Vec<EffectSite> {
    // Guard facts: let-bound, non-discard guard-call acquisitions.
    struct Guard {
        name: String,
        block: usize,
        tok: usize,
    }
    let mut guards: Vec<Guard> = Vec::new();
    for &i in sig {
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

    let mut sites = Vec::new();
    for (s, &i) in sig.iter().enumerate() {
        let Some(n) = Near::at(tokens, sig, s) else {
            continue;
        };
        let Some(spelled) = panic_site(&n) else {
            continue;
        };
        let Some(first) = fcfg
            .block_of_token(i)
            .and_then(|b| flow.input.get(b))
            .and_then(|held| held.iter().next())
        else {
            continue;
        };
        sites.push(EffectSite {
            effect: Effect::PanicsViaPoison,
            what: format!(
                "{spelled} while guard `{}` is held (poisons the lock)",
                guards.get(first).map(|g| g.name.as_str()).unwrap_or("?")
            ),
            line: n.tok.line,
            col: n.tok.col,
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

    const ALL: EffectSet = EffectSet::of(&Effect::ALL);

    fn effects_of(src: &str, scope: EffectSet) -> Vec<Effect> {
        let (tokens, body, cfg) = body_of(src);
        local_effects(&tokens, body, Some(&cfg), scope)
            .iter()
            .map(|s| s.effect)
            .collect()
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
        let sites = local_effects(&tokens, body, None, ALL);
        let effects: Vec<Effect> = sites.iter().map(|s| s.effect).collect();
        assert!(effects.contains(&Effect::Locks));
        assert!(effects.contains(&Effect::BlocksIo));
        assert!(effects.contains(&Effect::Spawns));
        assert!(effects.contains(&Effect::Channels));
    }

    #[test]
    fn panic_sites_are_collected_per_fn() {
        let f = effects_of(
            "fn f(x: Option<u8>, v: &[u8]) -> u8 { x.unwrap() + v[0] }",
            ALL,
        );
        assert_eq!(f, [Effect::Panics, Effect::Panics]);
        assert_eq!(
            effects_of("fn g() { panic!(\"no\") }", ALL),
            [Effect::Panics]
        );
        assert_eq!(
            effects_of("fn h() { Option::unwrap(x); }", ALL),
            [Effect::Panics]
        );
        assert!(effects_of("fn clean() { x.unwrap_or(0); }", ALL).is_empty());
    }

    #[test]
    fn attribute_and_macro_brackets_are_not_index_sites() {
        let src = "fn f() -> Vec<u8> { #[allow(unused)] let v = vec![1, 2]; v }";
        assert!(effects_of(src, ALL).is_empty());
    }

    #[test]
    fn nondeterminism_sites_need_their_spelling() {
        let src = "fn f() {\n\
                   let m: HashMap<u8, u8> = HashMap::new();\n\
                   let t = Instant::now();\n\
                   let home = std::env::var(\"HOME\");\n\
                   let local = var(\"x\");\n\
                   }";
        assert_eq!(
            effects_of(src, ALL),
            [
                Effect::HashOrder,
                Effect::HashOrder,
                Effect::ReadsClock,
                Effect::ReadsEnv
            ]
        );
    }

    #[test]
    fn scope_limits_which_classes_are_collected() {
        let src = "fn f(&self) {\n\
                   let g = self.m.lock();\n\
                   let t = Instant::now();\n\
                   self.x.get(k).unwrap();\n\
                   }";
        assert_eq!(
            effects_of(src, EffectSet::singleton(Effect::Panics)),
            [Effect::Panics]
        );
        assert_eq!(
            effects_of(src, EffectSet::BLOCKING),
            [Effect::Locks, Effect::PanicsViaPoison]
        );
        assert_eq!(
            effects_of(src, EffectSet::NONDETERMINISM),
            [Effect::ReadsClock]
        );
    }

    #[test]
    fn read_with_arguments_is_not_a_lock() {
        let (tokens, body, _) = body_of("fn f() { file.read(&mut buf); }");
        assert!(local_effects(&tokens, body, None, ALL).is_empty());
    }

    #[test]
    fn panic_under_live_guard_is_poison() {
        let (tokens, body, cfg) = body_of(
            "fn f(&self) {\n\
             let g = self.m.lock();\n\
             self.x.get(k).unwrap();\n\
             }",
        );
        let sites = local_effects(&tokens, body, Some(&cfg), ALL);
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
        let sites = local_effects(&tokens, body, Some(&cfg), ALL);
        assert!(
            !sites.iter().any(|s| s.effect == Effect::PanicsViaPoison),
            "drop(g) before the panic site must kill the fact: {sites:?}"
        );
    }

    #[test]
    fn acquisition_statement_itself_is_not_poison() {
        let (tokens, body, cfg) = body_of("fn f(&self) { let g = self.m.lock().unwrap(); }");
        let sites = local_effects(&tokens, body, Some(&cfg), ALL);
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
