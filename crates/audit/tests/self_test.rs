//! Fixture tests for the audit engine: known-bad snippets must fire the
//! expected lint at the expected line and column, and known-good snippets —
//! including the adversarial ones (raw strings containing `unwrap()`, block
//! comments containing `panic!`, test modules) — must stay silent.

use udi_audit::lints::{
    DETERMINISTIC_ITERATION, FLOAT_EQ, MALFORMED_ALLOW, NO_PANIC_IN_LIB, NO_RAW_TIME, NO_STRAY_IO,
    UNUSED_ALLOW,
};
use udi_audit::{all_lints, audit_source, CodeKind, Diagnostic, FileClass};

fn lib_of(crate_name: &str) -> FileClass {
    FileClass {
        crate_name: crate_name.into(),
        kind: CodeKind::Lib,
    }
}

fn audit(crate_name: &str, src: &str) -> Vec<Diagnostic> {
    audit_source("fixture.rs", &lib_of(crate_name), src, &all_lints())
}

fn audit_kind(crate_name: &str, kind: CodeKind, src: &str) -> Vec<Diagnostic> {
    let class = FileClass {
        crate_name: crate_name.into(),
        kind,
    };
    audit_source("fixture.rs", &class, src, &all_lints())
}

/// `(lint, line, col)` triples for compact assertions.
fn coords(diags: &[Diagnostic]) -> Vec<(&'static str, u32, u32)> {
    diags.iter().map(|d| (d.lint, d.line, d.col)).collect()
}

// ---------------------------------------------------------------- known bad

#[test]
fn unwrap_fires_at_exact_position() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(coords(&audit("udi-core", src)), [(NO_PANIC_IN_LIB, 2, 7)]);
}

#[test]
fn expect_and_panic_macros_fire() {
    let src = "\
pub fn f(x: Option<u32>) -> u32 {
    let y = x.expect(\"boom\");
    if y > 9 {
        panic!(\"too big\");
    }
    unreachable!()
}
";
    assert_eq!(
        coords(&audit("udi-schema", src)),
        [
            (NO_PANIC_IN_LIB, 2, 15),
            (NO_PANIC_IN_LIB, 4, 9),
            (NO_PANIC_IN_LIB, 6, 5),
        ]
    );
}

#[test]
fn todo_and_unimplemented_fire() {
    let src = "pub fn f() {\n    todo!()\n}\npub fn g() {\n    unimplemented!()\n}\n";
    assert_eq!(
        coords(&audit("udi-maxent", src)),
        [(NO_PANIC_IN_LIB, 2, 5), (NO_PANIC_IN_LIB, 5, 5)]
    );
}

#[test]
fn hashmap_type_and_constructor_fire_in_deterministic_crates() {
    let src = "\
use std::collections::HashMap;
pub fn f() -> HashMap<u32, u32> {
    HashMap::new()
}
";
    // The `use` line is exempt (importing is not iterating); the type
    // position and the constructor both fire.
    for krate in ["udi-core", "udi-query"] {
        assert_eq!(
            coords(&audit(krate, src)),
            [
                (DETERMINISTIC_ITERATION, 2, 15),
                (DETERMINISTIC_ITERATION, 3, 5),
            ],
            "{krate}"
        );
    }
}

#[test]
fn hashset_fires_too() {
    let src = "use std::collections::HashSet;\npub fn f(s: &HashSet<u8>) -> bool {\n    s.is_empty()\n}\n";
    assert_eq!(
        coords(&audit("udi-schema", src)),
        [(DETERMINISTIC_ITERATION, 2, 14)]
    );
}

#[test]
fn hashmap_is_fine_outside_deterministic_crates() {
    let src = "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n";
    assert_eq!(audit("udi-store", src), []);
}

#[test]
fn float_equality_fires_on_float_operands() {
    let src = "pub fn f(p: f64) -> bool {\n    p == 0.0\n}\n";
    assert_eq!(coords(&audit("udi-core", src)), [(FLOAT_EQ, 2, 7)]);
    let src_ne = "pub fn f(p: f64) -> bool {\n    0.5 != p\n}\n";
    assert_eq!(coords(&audit("udi-eval", src_ne)), [(FLOAT_EQ, 2, 9)]);
}

#[test]
fn integer_equality_is_fine() {
    let src = "pub fn f(n: usize) -> bool {\n    n == 0 && n != 3\n}\n";
    assert_eq!(audit("udi-core", src), []);
}

#[test]
fn raw_time_fires_outside_obs() {
    let src = "use std::time::Instant;\npub fn f() {\n    let _t = Instant::now();\n}\n";
    assert_eq!(
        coords(&audit("udi-core", src)),
        [(NO_RAW_TIME, 1, 16), (NO_RAW_TIME, 3, 14)]
    );
    let sys = "pub fn f() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n";
    assert_eq!(
        coords(&audit("udi-store", sys)),
        [(NO_RAW_TIME, 1, 26), (NO_RAW_TIME, 2, 16)]
    );
}

#[test]
fn raw_time_is_allowed_in_obs() {
    let src = "use std::time::Instant;\npub fn f() {\n    let _t = Instant::now();\n}\n";
    assert_eq!(audit("udi-obs", src), []);
}

#[test]
fn stray_io_fires_in_lib_code() {
    let src =
        "pub fn f() {\n    println!(\"debug\");\n    eprintln!(\"oops\");\n    dbg!(1 + 1);\n}\n";
    assert_eq!(
        coords(&audit("udi-core", src)),
        [
            (NO_STRAY_IO, 2, 5),
            (NO_STRAY_IO, 3, 5),
            (NO_STRAY_IO, 4, 5),
        ]
    );
}

// --------------------------------------------------------------- known good

#[test]
fn test_code_bin_code_and_bench_code_are_exempt() {
    let src = "fn main() {\n    let x: Option<u32> = None;\n    x.unwrap();\n    println!(\"{:?}\", std::time::Instant::now());\n}\n";
    for kind in [
        CodeKind::Bin,
        CodeKind::Test,
        CodeKind::Bench,
        CodeKind::Example,
    ] {
        assert_eq!(audit_kind("udi-core", kind, src), [], "{kind:?}");
    }
}

#[test]
fn cfg_test_modules_inside_lib_files_are_exempt() {
    let src = "\
pub fn safe() -> u32 {
    42
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        assert!(m.is_empty());
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
    }
}
";
    assert_eq!(audit("udi-core", src), []);
}

#[test]
fn panicky_text_inside_strings_and_comments_is_invisible() {
    let src = "\
// This comment says unwrap() and panic! and HashMap.
/* block comment: x.unwrap() /* nested: panic!() */ still fine */
pub fn f() -> &'static str {
    \"call .unwrap() and panic!()\"
}
pub fn g() -> &'static str {
    r#\"raw string with x.unwrap() and HashMap::new() and == 0.0\"#
}
";
    assert_eq!(audit("udi-core", src), []);
}

#[test]
fn unwrap_or_variants_are_not_unwrap() {
    let src = "\
pub fn f(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}
pub fn g(x: Option<u32>) -> u32 {
    x.unwrap_or_else(|| 1)
}
pub fn h(x: Option<u32>) -> u32 {
    x.unwrap_or_default()
}
";
    assert_eq!(audit("udi-core", src), []);
}

#[test]
fn lifetime_quotes_do_not_break_the_lexer() {
    // A lifetime immediately before code that would be hidden if the `'a`
    // were mis-lexed as an unterminated char literal.
    let src = "pub fn f<'a>(x: &'a Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(coords(&audit("udi-core", src)), [(NO_PANIC_IN_LIB, 2, 7)]);
}

// ------------------------------------------------------------ escape hatch

#[test]
fn trailing_allow_suppresses_own_line() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // udi-audit: allow(no-panic-in-lib, \"fixture\")\n}\n";
    assert_eq!(audit("udi-core", src), []);
}

#[test]
fn standalone_allow_covers_next_code_line() {
    let src = "\
pub fn f(x: Option<u32>) -> u32 {
    // udi-audit: allow(no-panic-in-lib, \"fixture\")
    x.unwrap()
}
";
    assert_eq!(audit("udi-core", src), []);
}

#[test]
fn allow_does_not_leak_past_its_target_line() {
    let src = "\
pub fn f(x: Option<u32>, y: Option<u32>) -> u32 {
    // udi-audit: allow(no-panic-in-lib, \"fixture\")
    let a = x.unwrap();
    a + y.unwrap()
}
";
    assert_eq!(coords(&audit("udi-core", src)), [(NO_PANIC_IN_LIB, 4, 11)]);
}

#[test]
fn allow_without_reason_is_malformed() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // udi-audit: allow(no-panic-in-lib)\n}\n";
    let diags = audit("udi-core", src);
    // The directive is rejected (malformed) and therefore does NOT
    // suppress the violation it sits on.
    let lints: Vec<&str> = diags.iter().map(|d| d.lint).collect();
    assert!(lints.contains(&MALFORMED_ALLOW), "{lints:?}");
    assert!(lints.contains(&NO_PANIC_IN_LIB), "{lints:?}");
}

#[test]
fn allow_of_unknown_lint_is_malformed() {
    let src = "pub fn f() {} // udi-audit: allow(no-such-lint, \"why\")\n";
    let diags = audit("udi-core", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].lint, MALFORMED_ALLOW);
}

#[test]
fn allow_that_suppresses_nothing_is_flagged_unused() {
    let src = "\
pub fn f() -> u32 {
    // udi-audit: allow(no-panic-in-lib, \"stale: the unwrap below was removed\")
    42
}
";
    let diags = audit("udi-core", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].lint, UNUSED_ALLOW);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn doc_comments_mentioning_directives_are_not_directives() {
    let src = "\
/// Escape hatch syntax: `// udi-audit: allow(float-eq, \"reason\")`.
pub fn documented() -> u32 {
    7
}
";
    assert_eq!(audit("udi-core", src), []);
}

#[test]
fn diagnostics_render_rustc_style() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let diags = audit("udi-core", src);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("error[udi-audit::no-panic-in-lib]:"),
        "{rendered}"
    );
    assert!(rendered.contains("fixture.rs:2:7"), "{rendered}");
}

// ------------------------------------------------------- whole-tree gating

#[test]
fn disabled_lints_are_skipped() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let mut enabled = all_lints();
    enabled.remove(NO_PANIC_IN_LIB);
    assert_eq!(
        audit_source("fixture.rs", &lib_of("udi-core"), src, &enabled),
        []
    );
}
