//! Property tests for udi-audit's recursive-descent item parser, plus
//! call-chain rendering tests for the panic-free effect certificate on a
//! synthetic in-memory workspace.
//!
//! The parser invariant under test: for any soup of well-formed items —
//! interleaved with doc comments, attributes, test modules, and
//! adversarial string literals containing braces — every generated item is
//! recovered with its name, kind, visibility, and test-scope intact, and
//! the parser never panics or derails onto later items.

use proptest::prelude::*;

use udi_audit::config::Config;
use udi_audit::lexer::lex;
use udi_audit::lints::EFFECT_CERT;
use udi_audit::parser::{parse_items, Item, ItemKind, Vis};
use udi_audit::{all_lints, run_audit, CodeKind, FileClass, SourceFile, Workspace};

/// One generated item with the facts the parser must recover.
#[derive(Debug, Clone)]
struct GenItem {
    src: String,
    name: String,
    kind: ItemKind,
    vis: Vis,
}

/// Instantiate template `template` with a unique per-soup index so names
/// cannot collide. Each template stresses a different parser path:
/// brace-bearing strings inside fn bodies, attributes before structs,
/// tuple structs, enums with struct variants, doc comments that mention
/// `fn`, and nested inline modules.
fn materialize(idx: usize, template: usize, public: bool) -> GenItem {
    let name = format!("zz_item{idx}");
    let ty_name = format!("ZzType{idx}");
    let (vis_kw, vis) = if public {
        ("pub ", Vis::Pub)
    } else {
        ("", Vis::Private)
    };
    match template {
        0 => GenItem {
            src: format!(
                "{vis_kw}fn {name}(x: u32) -> u32 {{ let s = \"}} adversarial {{\"; x + s.len() as u32 }}"
            ),
            name,
            kind: ItemKind::Fn,
            vis,
        },
        1 => GenItem {
            src: format!("#[derive(Debug)]\n{vis_kw}struct {ty_name} {{ field: u32 }}"),
            name: ty_name,
            kind: ItemKind::Struct,
            vis,
        },
        2 => GenItem {
            src: format!("{vis_kw}struct {ty_name}(u32, Vec<String>);"),
            name: ty_name,
            kind: ItemKind::Struct,
            vis,
        },
        3 => GenItem {
            src: format!("{vis_kw}enum {ty_name} {{ A, B(u32), C {{ x: u8 }} }}"),
            name: ty_name,
            kind: ItemKind::Enum,
            vis,
        },
        4 => {
            let upper = name.to_uppercase();
            GenItem {
                src: format!("{vis_kw}const {upper}: u32 = 7;"),
                name: upper,
                kind: ItemKind::Const,
                vis,
            }
        }
        5 => {
            let upper = name.to_uppercase();
            GenItem {
                src: format!("{vis_kw}static {upper}: &str = \"static {{ }} text\";"),
                name: upper,
                kind: ItemKind::Static { mutable: false },
                vis,
            }
        }
        6 => GenItem {
            src: format!("{vis_kw}type {ty_name} = Result<Vec<u32>, String>;"),
            name: ty_name,
            kind: ItemKind::TypeAlias,
            vis,
        },
        7 => GenItem {
            src: format!("{vis_kw}trait {ty_name} {{ fn m(&self) -> u32 {{ 1 }} }}"),
            name: ty_name,
            kind: ItemKind::Trait,
            vis,
        },
        8 => GenItem {
            src: format!(
                "/// Doc comment with fn fake() {{ }} inside.\n{vis_kw}mod {name} {{ pub fn nested_{name}() {{}} }}"
            ),
            name,
            kind: ItemKind::Mod,
            vis,
        },
        _ => GenItem {
            src: format!("{vis_kw}fn {name}<'a, T: Clone>(v: &'a [T]) -> usize {{ v.len() }}"),
            name,
            kind: ItemKind::Fn,
            vis,
        },
    }
}

fn find<'a>(items: &'a [Item], name: &str) -> Option<&'a Item> {
    items.iter().find(|i| i.name == name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn item_soup_round_trips(
        picks in prop::collection::vec((0usize..10, any::<bool>()), 1..12),
        wrap_tail_in_test_mod in any::<bool>(),
    ) {
        let gens: Vec<GenItem> = picks
            .iter()
            .enumerate()
            .map(|(i, (template, public))| materialize(i, *template, *public))
            .collect();

        let n_plain = if wrap_tail_in_test_mod { gens.len() / 2 } else { gens.len() };
        let mut src = String::from("//! generated soup\n");
        for g in &gens[..n_plain] {
            src.push_str(&g.src);
            src.push('\n');
        }
        if wrap_tail_in_test_mod {
            src.push_str("#[cfg(test)]\nmod tests {\n");
            for g in &gens[n_plain..] {
                src.push_str(&g.src);
                src.push('\n');
            }
            src.push_str("}\n");
        }

        let tokens = lex(&src);
        let items = parse_items(&tokens);

        for (i, g) in gens.iter().enumerate() {
            let item = find(&items, &g.name);
            prop_assert!(item.is_some(), "item `{}` not recovered from:\n{}", &g.name, &src);
            let item = item.unwrap();
            prop_assert_eq!(&item.kind, &g.kind, "kind of `{}` in:\n{}", &g.name, &src);
            prop_assert_eq!(item.vis, g.vis, "vis of `{}` in:\n{}", &g.name, &src);
            let expect_test = wrap_tail_in_test_mod && i >= n_plain;
            prop_assert_eq!(item.in_test, expect_test, "in_test of `{}` in:\n{}", &g.name, &src);
            if expect_test {
                prop_assert_eq!(item.module_path.as_slice(), &["tests".to_owned()][..]);
            } else {
                prop_assert!(item.module_path.is_empty());
            }
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_text(text in "[ -~\n]{0,400}") {
        // Total garbage must not panic the lexer or parser.
        let tokens = lex(&text);
        let _ = parse_items(&tokens);
    }
}

// ------------------------------------------------- call-chain rendering

fn mem_file(crate_name: &str, rel: &str, src: &str) -> SourceFile {
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

fn reach_config(crates: &[&str]) -> Config {
    Config {
        panic_free: crates.iter().map(|s| (*s).to_owned()).collect(),
        ..Config::default()
    }
}

fn synthetic_workspace(files: Vec<SourceFile>) -> Workspace {
    let lex_count = files.len();
    Workspace {
        root: std::path::PathBuf::from("."),
        files,
        lex_count,
    }
}

#[test]
fn call_chain_renders_shortest_path_root_first() {
    let ws = synthetic_workspace(vec![
        mem_file(
            "udi-core",
            "crates/core/src/lib.rs",
            "pub fn outer() -> u32 { inner() }\nfn inner() -> u32 { udi_similarity::boom() }\n",
        ),
        // udi-similarity is outside the panic-free crate list, so the only
        // diagnostic for this unwrap is the reachability finding on the
        // udi-core root.
        mem_file(
            "udi-similarity",
            "crates/similarity/src/lib.rs",
            "pub fn boom() -> u32 { Some(1).unwrap() }\n",
        ),
    ]);
    let report = run_audit(
        &ws,
        &reach_config(&["udi-core"]),
        &all_lints(),
        &udi_obs::Recorder::disabled(),
    )
    .expect("runs");
    let reach: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == EFFECT_CERT)
        .collect();
    assert_eq!(reach.len(), 1, "{:?}", report.diagnostics);
    let d = reach[0];
    assert_eq!(d.path, "crates/core/src/lib.rs");
    assert_eq!(
        d.notes[0],
        "call chain: udi-core::outer → udi-core::inner → udi-similarity::boom"
    );
    assert_eq!(
        d.message,
        "declared panic-free entry `udi-core::outer` can reach a panic"
    );
    assert_eq!(
        d.notes[1],
        "site: `.unwrap()` at crates/similarity/src/lib.rs:1:32"
    );
}

#[test]
fn direct_panic_renders_single_hop_chain() {
    // The local no-panic-in-lib lint fires on the same site; the
    // certificate must still render a one-element chain.
    let ws = synthetic_workspace(vec![mem_file(
        "udi-core",
        "crates/core/src/lib.rs",
        "pub fn direct() { panic!(\"no\") }\n",
    )]);
    let report = run_audit(
        &ws,
        &reach_config(&["udi-core"]),
        &all_lints(),
        &udi_obs::Recorder::disabled(),
    )
    .expect("runs");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.lint == EFFECT_CERT)
        .expect("certificate diagnostic");
    assert_eq!(d.notes[0], "call chain: udi-core::direct");
    assert_eq!(d.notes[1], "site: `panic!` at crates/core/src/lib.rs:1:19");
}
