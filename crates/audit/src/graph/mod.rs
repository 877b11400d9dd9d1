//! Whole-workspace graphs: the function **call graph** and the
//! **crate-dependency** edge set.
//!
//! Name resolution is deliberately lint-grade. Calls are resolved by
//! identifier against the set of functions the [`crate::parser`] extracted:
//!
//! - `foo(…)` resolves within the calling crate, then through the file's
//!   `use` imports of workspace crates;
//! - `recv.foo(…)` resolves to *every* workspace method named `foo`
//!   (receiver types are unknown without type inference — this
//!   over-approximates, which for the effect certificates is the safe
//!   direction);
//! - `Type::foo(…)` resolves through the workspace type `Type`,
//!   `udi_x::path::foo(…)` through the crate alias, `Self::foo(…)`
//!   through the enclosing `impl`.
//!
//! Unresolved names (std, closures, locals) produce no edge: the graph
//! only ever connects functions the workspace defines, so chains in
//! diagnostics are always fully showable.

pub mod scc;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::Path;

use crate::classify::CodeKind;
use crate::effects::{panic_site, significant, Near};
use crate::lexer::{Token, TokenKind};
use crate::parser::{is_comment, Item, ItemKind, Vis};
use crate::{AuditError, SourceFile};

/// One function node in the call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the defining file in the workspace file list.
    pub file: usize,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// Function name.
    pub name: String,
    /// `impl`/`trait` type the fn is a method of, if any.
    pub self_ty: Option<String>,
    /// `pub` as written (not module-path-effective).
    pub is_pub: bool,
    /// Defined under a test attribute.
    pub in_test: bool,
    /// Code class of the defining file.
    pub kind: CodeKind,
    /// 1-based definition position.
    pub line: u32,
    /// 1-based definition column.
    pub col: u32,
    /// Token range of the body in the defining file, if the fn has one.
    pub body: Option<Range<usize>>,
    /// Token range of the signature (item start through the body's `{`,
    /// or the whole item for bodiless fns).
    pub sig: Range<usize>,
    /// The declared return type mentions `Result` — the fn is fallible
    /// as far as the error-discard pass cares.
    pub returns_result: bool,
    /// `crate::module::(Type::)name` — stable display/ratchet id.
    pub id_path: String,
}

/// One resolved call inside a function body.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// Token index of the callee name in the calling file.
    pub tok: usize,
    /// Callee node id.
    pub callee: usize,
    /// `true` when the resolution is structural (qualified path or plain
    /// call); `false` for the method-name over-approximation, where
    /// `x.len()` resolves to *every* workspace method called `len`.
    /// Reachability uses all edges (over-approximation is the safe
    /// direction there); precision-sensitive lints filter on this flag.
    pub certain: bool,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function nodes, in file order.
    pub fns: Vec<FnNode>,
    /// Per-fn resolved calls, sorted by token position.
    pub calls: Vec<Vec<CallSite>>,
}

impl CallGraph {
    /// Callee-id adjacency (deduplicated) for plain reachability walks.
    pub fn edges(&self, f: usize) -> BTreeSet<usize> {
        self.calls
            .get(f)
            .map(|cs| cs.iter().map(|c| c.callee).collect())
            .unwrap_or_default()
    }

    /// Human-readable name of fn `f`: `crate::Type::name` or `crate::name`.
    pub fn display(&self, f: usize) -> String {
        self.fns
            .get(f)
            .map(|n| n.id_path.clone())
            .unwrap_or_default()
    }
}

/// One `crate → crate` dependency edge with its declaration site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DepEdge {
    /// Depending crate.
    pub from: String,
    /// Depended-upon crate.
    pub to: String,
    /// Workspace-relative file the edge was read from (`Cargo.toml` or a
    /// source file's `use`).
    pub path: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// `udi_obs` → `udi-obs`; `crate`/`self`/`super` → the current crate.
/// `None` for anything that is not a workspace crate alias.
pub fn crate_of_alias(seg: &str, current: &str) -> Option<String> {
    match seg {
        "crate" | "self" | "super" => Some(current.to_owned()),
        "udi" => Some("udi".to_owned()),
        s if s.starts_with("udi_") => Some(s.replace('_', "-")),
        _ => None,
    }
}

/// Extract the names a `use` declaration binds from a workspace crate, as
/// `(bound name, source crate)` pairs. Non-workspace imports yield nothing.
fn use_imports(file: &SourceFile, item: &Item, out: &mut BTreeMap<String, String>) {
    let toks: Vec<&Token> = file
        .tokens
        .get(item.span.clone())
        .unwrap_or(&[])
        .iter()
        .filter(|t| !is_comment(t))
        .collect();
    // Leading segment after `use` (skipping a root `::`).
    let mut lead = None;
    for t in toks.iter().skip(1) {
        if matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
            lead = Some(t.text.as_str());
            break;
        }
        if t.text != "::" {
            break;
        }
    }
    let Some(source) = lead.and_then(|l| crate_of_alias(l, &file.class.crate_name)) else {
        return;
    };
    // Terminal names: an ident directly followed by `,`, `}`, `;`, or `as`
    // (in which case the alias after `as` is the bound name instead).
    for (k, t) in toks.iter().enumerate() {
        if !matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) || t.text == "as" {
            continue;
        }
        match toks.get(k + 1).map(|n| n.text.as_str()) {
            Some("," | "}" | ";") => {
                // `self` re-binds the path segment before it, unless this
                // ident is itself an `as` alias (which can't be `self`).
                let after_as = toks.get(k.wrapping_sub(1)).map(|p| p.text.as_str()) == Some("as");
                if t.text != "self" || after_as {
                    out.insert(t.text.clone(), source.clone());
                }
            }
            Some("as") => {} // the alias will be recorded instead
            _ => {}
        }
    }
}

/// Build the workspace call graph from the loaded files.
pub fn build_call_graph(files: &[SourceFile]) -> CallGraph {
    let mut g = CallGraph::default();

    // Pass 1: nodes and resolution indexes.
    let mut by_crate_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut by_type_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut type_names: BTreeSet<String> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        for item in &file.items {
            match &item.kind {
                ItemKind::Struct | ItemKind::Enum | ItemKind::Union | ItemKind::Trait => {
                    type_names.insert(item.name.clone());
                }
                ItemKind::Fn => {
                    let id = g.fns.len();
                    let crate_name = file.class.crate_name.clone();
                    let mut id_path = crate_name.clone();
                    for m in &item.module_path {
                        id_path.push_str("::");
                        id_path.push_str(m);
                    }
                    if let Some(ty) = &item.self_ty {
                        id_path.push_str("::");
                        id_path.push_str(ty);
                    }
                    id_path.push_str("::");
                    id_path.push_str(&item.name);
                    by_crate_name
                        .entry((crate_name.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                    if let Some(ty) = &item.self_ty {
                        by_type_name
                            .entry((ty.clone(), item.name.clone()))
                            .or_default()
                            .push(id);
                        methods.entry(item.name.clone()).or_default().push(id);
                    }
                    let sig_end = item.body.as_ref().map(|b| b.start).unwrap_or(item.span.end);
                    let sig = item.span.start..sig_end;
                    g.fns.push(FnNode {
                        file: fi,
                        crate_name,
                        name: item.name.clone(),
                        self_ty: item.self_ty.clone(),
                        is_pub: item.vis == Vis::Pub,
                        in_test: item.in_test,
                        kind: file.class.kind,
                        line: item.line,
                        col: item.col,
                        body: item.body.clone(),
                        returns_result: sig_returns_result(&file.tokens, sig.clone()),
                        sig,
                        id_path,
                    });
                }
                _ => {}
            }
        }
    }

    // Per-file workspace imports.
    let mut imports: Vec<BTreeMap<String, String>> = Vec::with_capacity(files.len());
    for file in files {
        let mut map = BTreeMap::new();
        for item in &file.items {
            if item.kind == ItemKind::Use {
                use_imports(file, item, &mut map);
            }
        }
        imports.push(map);
    }

    // Pass 2: body scans for calls.
    g.calls = vec![Vec::new(); g.fns.len()];
    for f in 0..g.fns.len() {
        let Some(node) = g.fns.get(f) else {
            continue;
        };
        let Some(body) = node.body.clone() else {
            continue;
        };
        let Some(file) = files.get(node.file) else {
            continue;
        };
        let empty = BTreeMap::new();
        let imp = imports.get(node.file).unwrap_or(&empty);
        let params = param_types(&file.tokens, node.sig.clone(), &type_names);
        let calls = scan_body(
            file,
            body,
            &node.crate_name,
            node.self_ty.as_deref(),
            &params,
            imp,
            &by_crate_name,
            &by_type_name,
            &methods,
            &type_names,
        );
        if let Some(slot) = g.calls.get_mut(f) {
            *slot = calls;
        }
    }
    g
}

#[allow(clippy::too_many_arguments)]
fn scan_body(
    file: &SourceFile,
    body: Range<usize>,
    crate_name: &str,
    self_ty: Option<&str>,
    params: &BTreeMap<String, String>,
    imports: &BTreeMap<String, String>,
    by_crate_name: &BTreeMap<(String, String), Vec<usize>>,
    by_type_name: &BTreeMap<(String, String), Vec<usize>>,
    methods: &BTreeMap<String, Vec<usize>>,
    type_names: &BTreeSet<String>,
) -> Vec<CallSite> {
    let mut calls: Vec<CallSite> = Vec::new();
    // Receiver types known at the current scan position: fn params up
    // front, `let` bindings added as the linear scan passes them (a
    // later shadowing rebind simply overwrites — linear approximation).
    let mut locals: BTreeMap<String, String> = params.clone();
    // Significant-token slots of the body.
    let sig = significant(&file.tokens, body);
    let tok = |s: usize| -> Option<&Token> { sig.get(s).and_then(|&i| file.tokens.get(i)) };
    let text = |s: usize| -> Option<&str> { tok(s).map(|t| t.text.as_str()) };

    let push_targets =
        |calls: &mut Vec<CallSite>, tok_idx: usize, ids: Option<&Vec<usize>>, certain: bool| {
            if let Some(ids) = ids {
                for &callee in ids {
                    calls.push(CallSite {
                        tok: tok_idx,
                        callee,
                        certain,
                    });
                }
            }
        };

    for s in 0..sig.len() {
        let Some(t) = tok(s) else { continue };
        let tok_idx = sig.get(s).copied().unwrap_or(0);

        if !matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
            continue;
        }
        let name = t.text.as_str();
        let prev = if s > 0 { text(s - 1) } else { None };
        let next = text(s + 1);

        // `let (mut)? x: Type = …` / `let x = Type::ctor(…)` — record the
        // binding's workspace type for receiver-typed method resolution.
        if name == "let" {
            let mut n = s + 1;
            while text(n) == Some("mut") {
                n += 1;
            }
            let bound = tok(n)
                .filter(|t| matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
                .map(|t| t.text.clone());
            if let Some(bound) = bound.filter(|b| b != "_") {
                match text(n + 1) {
                    Some(":") => {
                        // Annotated type up to `=` or `;` at depth zero.
                        let mut ty_toks: Vec<&Token> = Vec::new();
                        let mut depth = 0i64;
                        let mut k = n + 2;
                        while let Some(tk) = tok(k) {
                            match tk.text.as_str() {
                                "(" | "[" | "{" | "<" => depth += 1,
                                ")" | "]" | "}" | ">" => depth -= 1,
                                "=" | ";" if depth <= 0 => break,
                                _ => {}
                            }
                            ty_toks.push(tk);
                            k += 1;
                        }
                        if let Some(ty) = workspace_type_of(&ty_toks, type_names) {
                            locals.insert(bound, ty);
                        }
                    }
                    Some("=") => {
                        // `let x = Type::new(…)` / `let x = Type { … }`.
                        let ctor = tok(n + 2)
                            .filter(|t| matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
                            .filter(|t| type_names.contains(&t.text))
                            .filter(|_| matches!(text(n + 3), Some("::" | "{")));
                        if let Some(ctor) = ctor {
                            locals.insert(bound, ctor.text.clone());
                        }
                    }
                    _ => {}
                }
            }
            continue;
        }

        if next != Some("(") {
            continue;
        }

        // `.unwrap()` / `Option::unwrap(…)` are std calls, never edges
        // into a workspace fn that happens to share the name.
        if Near::at(&file.tokens, &sig, s).is_some_and(|n| panic_site(&n).is_some()) {
            continue;
        }

        match prev {
            Some(".") => {
                // Method call. When the receiver is `self` or a
                // param/local with a known workspace type, and that type
                // provably defines the method, the edge is demoted from
                // the method-name over-approximation to a certain edge.
                // A receiver preceded by `.`/`::`/`)`/`]` is a field or
                // chain result — type unknown, keep the fallback.
                let recv_ty: Option<&str> = if s >= 2 {
                    let simple = s < 3 || !matches!(text(s - 3), Some("." | "::" | ")" | "]"));
                    tok(s - 2)
                        .filter(|_| simple)
                        .filter(|r| matches!(r.kind, TokenKind::Ident | TokenKind::RawIdent))
                        .and_then(|r| {
                            if r.text == "self" {
                                self_ty
                            } else {
                                locals.get(&r.text).map(String::as_str)
                            }
                        })
                } else {
                    None
                };
                let demoted =
                    recv_ty.and_then(|ty| by_type_name.get(&(ty.to_owned(), name.to_owned())));
                match demoted {
                    Some(ids) => push_targets(&mut calls, tok_idx, Some(ids), true),
                    None => push_targets(&mut calls, tok_idx, methods.get(name), false),
                }
            }
            Some("::") => {
                // Qualified call. Find the nearest path segment (skipping
                // one turbofish group if present), and the leading one.
                let mut q = s.wrapping_sub(2);
                if text(q) == Some(">") || text(q) == Some(">>") {
                    // `Type::<T>::new` — walk back over the angle group.
                    let mut depth = 0i64;
                    loop {
                        match text(q) {
                            Some(">") => depth += 1,
                            Some(">>") => depth += 2,
                            Some("<") => depth -= 1,
                            Some("<<") => depth -= 2,
                            None => break,
                            _ => {}
                        }
                        if depth <= 0 || q == 0 {
                            break;
                        }
                        q -= 1;
                    }
                    q = q.wrapping_sub(1); // the segment before `::<`
                    if text(q) == Some("::") {
                        q = q.wrapping_sub(1);
                    }
                }
                let nearest = tok(q)
                    .filter(|t| matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
                    .map(|t| t.text.as_str());
                // Leading segment of the whole path.
                let mut lead = nearest;
                let mut k = q;
                while k >= 2 && text(k - 1) == Some("::") {
                    k -= 2;
                    if let Some(t) = tok(k) {
                        if matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
                            lead = Some(t.text.as_str());
                            continue;
                        }
                    }
                    break;
                }
                let resolved: Option<&Vec<usize>> = match nearest {
                    Some("Self") => {
                        self_ty.and_then(|ty| by_type_name.get(&(ty.to_owned(), name.to_owned())))
                    }
                    Some(seg) if type_names.contains(seg) => {
                        by_type_name.get(&(seg.to_owned(), name.to_owned()))
                    }
                    _ => match lead.and_then(|l| {
                        crate_of_alias(l, crate_name).or_else(|| {
                            imports
                                .get(l)
                                .cloned()
                                .filter(|_| l.starts_with(char::is_lowercase))
                        })
                    }) {
                        Some(c) => by_crate_name.get(&(c, name.to_owned())),
                        None => lead
                            .filter(|l| imports.contains_key(*l) && type_names.contains(*l))
                            .and_then(|l| by_type_name.get(&(l.to_owned(), name.to_owned()))),
                    },
                };
                push_targets(&mut calls, tok_idx, resolved, true);
            }
            Some("fn") => {} // a nested fn definition, not a call
            _ => {
                // Plain call: same crate first, then imported workspace fns.
                let same = by_crate_name.get(&(crate_name.to_owned(), name.to_owned()));
                if same.is_some() {
                    push_targets(&mut calls, tok_idx, same, true);
                } else if let Some(c) = imports.get(name) {
                    push_targets(
                        &mut calls,
                        tok_idx,
                        by_crate_name.get(&(c.clone(), name.to_owned())),
                        true,
                    );
                }
            }
        }
    }
    calls.sort_by_key(|c| (c.tok, c.callee));
    calls.dedup_by_key(|c| (c.tok, c.callee));
    calls
}

/// The workspace type a value of the given type tokens dispatches
/// methods on: sees through `&`/`mut`/lifetimes/`dyn` and one layer of
/// `Arc`/`Rc`/`Box` (which `Deref` to their payload), then takes the last
/// path segment before any generic arguments. `None` unless that segment
/// is a type the workspace defines (so `Vec<Row>` is *not* `Row`).
fn workspace_type_of(ts: &[&Token], type_names: &BTreeSet<String>) -> Option<String> {
    let mut i = 0;
    let strip = |ts: &[&Token], mut i: usize| {
        while let Some(&t) = ts.get(i) {
            if matches!(t.text.as_str(), "&" | "&&" | "mut" | "*" | "const" | "dyn")
                || t.kind == TokenKind::Lifetime
            {
                i += 1;
            } else {
                break;
            }
        }
        i
    };
    i = strip(ts, i);
    while ts
        .get(i)
        .is_some_and(|t| matches!(t.text.as_str(), "Arc" | "Rc" | "Box"))
        && ts.get(i + 1).is_some_and(|t| t.text == "<")
    {
        i = strip(ts, i + 2);
    }
    let mut last = None;
    while let Some(&t) = ts.get(i) {
        if !matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
            break;
        }
        last = Some(t.text.as_str());
        if ts.get(i + 1).is_some_and(|t| t.text == "::") {
            i += 2;
        } else {
            break;
        }
    }
    last.filter(|n| type_names.contains(*n)).map(str::to_owned)
}

/// Parse `name: Type` pairs out of a fn signature's parameter list,
/// keeping only params whose type resolves to a workspace type.
fn param_types(
    tokens: &[Token],
    sig: Range<usize>,
    type_names: &BTreeSet<String>,
) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let ts: Vec<&Token> = tokens
        .get(sig.start..sig.end.min(tokens.len()))
        .unwrap_or(&[])
        .iter()
        .filter(|t| !is_comment(t))
        .collect();
    let Some(fn_pos) = ts.iter().position(|t| t.text == "fn") else {
        return out;
    };
    let Some(open) = ts
        .get(fn_pos..)
        .unwrap_or(&[])
        .iter()
        .position(|t| t.text == "(")
        .map(|p| fn_pos + p)
    else {
        return out;
    };
    // Split the param list on `,` at paren depth 1 / angle depth 0.
    let mut depth = 0i64;
    let mut angle = 0i64;
    let mut param_start = open + 1;
    let mut k = open;
    while let Some(cur) = ts.get(k) {
        let txt = cur.text.as_str();
        match txt {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" => angle += 1,
            "<<" => angle += 2,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            _ => {}
        }
        let boundary = (txt == "," && depth == 1 && angle <= 0) || depth == 0;
        if boundary && k > open {
            let param = ts.get(param_start..k).unwrap_or(&[]);
            // `name: Type`, skipping `mut` and any `self` receiver form.
            let mut p = 0;
            while param.get(p).is_some_and(|t| t.text == "mut") {
                p += 1;
            }
            if let (Some(name), Some(colon)) = (param.get(p), param.get(p + 1)) {
                if matches!(name.kind, TokenKind::Ident | TokenKind::RawIdent)
                    && name.text != "self"
                    && colon.text == ":"
                {
                    if let Some(ty) =
                        workspace_type_of(param.get(p + 2..).unwrap_or(&[]), type_names)
                    {
                        out.insert(name.text.clone(), ty);
                    }
                }
            }
            param_start = k + 1;
        }
        if depth == 0 && k > open {
            break; // closed the param list
        }
        k += 1;
    }
    out
}

/// Whether a fn signature's return type mentions `Result` (covers both
/// bare and fully-qualified spellings).
fn sig_returns_result(tokens: &[Token], sig: Range<usize>) -> bool {
    let ts: Vec<&Token> = tokens
        .get(sig.start..sig.end.min(tokens.len()))
        .unwrap_or(&[])
        .iter()
        .filter(|t| !is_comment(t))
        .collect();
    let Some(arrow) = ts.iter().position(|t| t.text == "->") else {
        return false;
    };
    ts.get(arrow + 1..)
        .unwrap_or(&[])
        .iter()
        .take_while(|t| !matches!(t.text.as_str(), "{" | ";" | "where"))
        .any(|t| t.text == "Result")
}

/// Parse `Cargo.toml` `[dependencies]` sections of the root package and
/// every `crates/*` member into `udi-* → udi-*` edges. Dev-dependencies
/// are deliberately excluded: the layering contract governs what shipped
/// code may link against, not what tests may exercise.
pub fn manifest_deps(root: &Path) -> Result<Vec<DepEdge>, AuditError> {
    let mut manifests: Vec<std::path::PathBuf> = vec![root.join("Cargo.toml")];
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut members: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for m in members {
            let manifest = m.join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    let mut edges = Vec::new();
    for manifest in manifests {
        let text =
            std::fs::read_to_string(&manifest).map_err(|e| AuditError::Io(manifest.clone(), e))?;
        let rel = manifest
            .strip_prefix(root)
            .unwrap_or(&manifest)
            .to_string_lossy()
            .replace('\\', "/");
        let mut section = String::new();
        let mut package_name: Option<String> = None;
        let mut deps: Vec<(String, u32)> = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if let Some(h) = line.strip_prefix('[') {
                section = h.trim_end_matches(']').trim().to_owned();
                continue;
            }
            if section == "package" && package_name.is_none() {
                if let Some(v) = line.strip_prefix("name") {
                    let v = v.trim_start().trim_start_matches('=').trim();
                    package_name = Some(v.trim_matches('"').to_owned());
                }
            }
            if section == "dependencies" {
                let key: &str = line
                    .split(['=', '.', ' ', '\t'])
                    .next()
                    .unwrap_or("")
                    .trim();
                if key.starts_with("udi-") {
                    deps.push((key.to_owned(), ln as u32 + 1));
                }
            }
        }
        let from = package_name.unwrap_or_default();
        if from.is_empty() {
            continue;
        }
        for (to, line) in deps {
            edges.push(DepEdge {
                from: from.clone(),
                to,
                path: rel.clone(),
                line,
            });
        }
    }
    edges.sort();
    edges.dedup();
    Ok(edges)
}

/// Derive `use udi_x::…` edges from source files (lib and bin code only —
/// tests, benches, and examples are dev context, like dev-dependencies).
pub fn use_deps(files: &[SourceFile]) -> Vec<DepEdge> {
    let mut edges = Vec::new();
    for file in files {
        if !matches!(file.class.kind, CodeKind::Lib | CodeKind::Bin) {
            continue;
        }
        for item in &file.items {
            if item.kind != ItemKind::Use || item.in_test {
                continue;
            }
            // Leading segment of the use path.
            let lead = file
                .tokens
                .get(item.span.clone())
                .unwrap_or(&[])
                .iter()
                .filter(|t| !is_comment(t))
                .skip(1)
                .find(|t| matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent));
            let Some(lead) = lead else { continue };
            if !lead.text.starts_with("udi_") && lead.text != "udi" {
                continue; // `crate::`/`self::` are not cross-crate edges
            }
            let Some(to) = crate_of_alias(&lead.text, &file.class.crate_name) else {
                continue;
            };
            if to == file.class.crate_name {
                continue;
            }
            edges.push(DepEdge {
                from: file.class.crate_name.clone(),
                to,
                path: file.rel.clone(),
                line: lead.line,
            });
        }
    }
    edges.sort();
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::FileClass;
    use crate::lexer::lex;
    use crate::parser::parse_items;

    fn file(crate_name: &str, rel: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let items = parse_items(&tokens);
        SourceFile {
            rel: rel.to_owned(),
            class: FileClass {
                crate_name: crate_name.to_owned(),
                kind: CodeKind::Lib,
            },
            tokens,
            items,
        }
    }

    #[test]
    fn plain_calls_resolve_within_crate() {
        let files = vec![file(
            "udi-a",
            "crates/a/src/lib.rs",
            "pub fn top() { helper() } fn helper() { leaf() } fn leaf() {}",
        )];
        let g = build_call_graph(&files);
        assert_eq!(g.fns.len(), 3);
        let top = g.fns.iter().position(|f| f.name == "top").unwrap();
        let helper = g.fns.iter().position(|f| f.name == "helper").unwrap();
        let leaf = g.fns.iter().position(|f| f.name == "leaf").unwrap();
        assert!(g.edges(top).contains(&helper));
        assert!(g.edges(helper).contains(&leaf));
        assert!(g.edges(leaf).is_empty());
    }

    #[test]
    fn cross_crate_calls_resolve_through_imports() {
        let files = vec![
            file(
                "udi-a",
                "crates/a/src/lib.rs",
                "use udi_b::helper;\npub fn top() { helper() }",
            ),
            file("udi-b", "crates/b/src/lib.rs", "pub fn helper() {}"),
        ];
        let g = build_call_graph(&files);
        let top = g.fns.iter().position(|f| f.name == "top").unwrap();
        let helper = g.fns.iter().position(|f| f.name == "helper").unwrap();
        assert!(g.edges(top).contains(&helper));
    }

    #[test]
    fn qualified_paths_resolve_through_crate_alias_and_types() {
        let files = vec![
            file(
                "udi-a",
                "crates/a/src/lib.rs",
                "pub fn top() { udi_b::util::helper(); Widget::new(); }",
            ),
            file(
                "udi-b",
                "crates/b/src/lib.rs",
                "pub fn helper() {} pub struct Widget; impl Widget { pub fn new() -> Widget { Widget } }",
            ),
        ];
        let g = build_call_graph(&files);
        let top = g.fns.iter().position(|f| f.name == "top").unwrap();
        let helper = g.fns.iter().position(|f| f.name == "helper").unwrap();
        let new = g.fns.iter().position(|f| f.name == "new").unwrap();
        assert!(g.edges(top).contains(&helper));
        assert!(g.edges(top).contains(&new));
    }

    #[test]
    fn method_calls_over_approximate_by_name() {
        let files = vec![
            file(
                "udi-a",
                "crates/a/src/lib.rs",
                "pub fn top(s: S) { s.go() } pub struct S;",
            ),
            file(
                "udi-b",
                "crates/b/src/lib.rs",
                "pub struct T; impl T { pub fn go(&self) {} }",
            ),
        ];
        let g = build_call_graph(&files);
        let top = g.fns.iter().position(|f| f.name == "top").unwrap();
        let go = g.fns.iter().position(|f| f.name == "go").unwrap();
        assert!(g.edges(top).contains(&go));
    }

    #[test]
    fn use_dep_edges_from_sources() {
        let files = vec![file(
            "udi-a",
            "crates/a/src/lib.rs",
            "use udi_b::Thing;\nuse crate::local;\npub fn f(_t: Thing) {}",
        )];
        let edges = use_deps(&files);
        assert_eq!(edges.len(), 1);
        assert_eq!(
            (edges[0].from.as_str(), edges[0].to.as_str()),
            ("udi-a", "udi-b")
        );
    }
}
