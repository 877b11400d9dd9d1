//! `audit.toml` — the checked-in contract the workspace passes enforce.
//!
//! The parser is a deliberately tiny TOML subset (sections, `key = value`
//! with strings, integers, booleans, and flat string arrays): enough for a
//! config file that is itself reviewed in PRs, with zero dependencies.
//!
//! ```toml
//! [layers]
//! udi-obs = 0
//! udi-core = 4
//!
//! [panic-reachability]
//! crates = ["udi-core"]
//! index-sites = "off"          # off | warn | error
//!
//! [concurrency]
//! interior-mutable-allowed = ["udi-obs"]
//!
//! [determinism]
//! entry-points = ["udi-core::SetupEngine::refresh"]
//! exempt-crates = ["udi-obs"]
//!
//! [effects]
//! exempt-crates = ["udi-obs::sink"]   # a crate, or one module of it
//! lock-free = ["udi-serve::execute_answer"]
//! io-free = ["udi-core::UdiSystem::answer"]
//! spawn-free = ["udi-core::UdiSystem::answer"]
//!
//! [lock-order]
//! exempt-crates = []
//!
//! [error-discard]
//! exempt-crates = []
//!
//! [dead-exports]
//! ratchet = "audit.ratchet"
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use crate::lints::PANIC_FREE_CRATES;
use crate::AuditError;

/// How `expr[…]` indexing participates in panic-reachability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// Indexing is not a panic source (the default: dense math kernels
    /// index heavily, and bounds are the paper algorithms' own loop
    /// invariants).
    Off,
    /// Reachable indexing is reported as a warning.
    Warn,
    /// Reachable indexing is an error.
    Error,
}

/// The parsed layering / pass configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate → layer number. A crate may depend only on strictly lower
    /// layers. Empty map disables the layering pass.
    pub layers: BTreeMap<String, u32>,
    /// Crates whose `pub` lib fns must not reach a panic.
    pub reach_crates: Vec<String>,
    /// Indexing severity for panic-reachability.
    pub index_sites: IndexMode,
    /// Crates allowed to hold non-`const` interior-mutable statics.
    pub interior_mutable_allowed: Vec<String>,
    /// `fn` id-paths (`crate::(Type::)name`) the determinism pass
    /// certifies transitively. Empty disables the pass.
    pub determinism_entries: Vec<String>,
    /// Crates, or `crate::module`s, exempt from determinism sites (the
    /// timing authority reads the clock by design). See [`is_exempt`].
    pub determinism_exempt: Vec<String>,
    /// Crates, or `crate::module`s, exempt from the lock-order pass.
    pub lock_order_exempt: Vec<String>,
    /// Crates, or `crate::module`s, exempt from the error-discard pass.
    pub error_discard_exempt: Vec<String>,
    /// Crates, or `crate::module`s, whose bodies the effect-inference
    /// engine treats as effect-free (the obs layer's sink registry locks
    /// by design).
    pub effects_exempt: Vec<String>,
    /// `fn` id-paths that must certify lock-free.
    pub effects_lock_free: Vec<String>,
    /// `fn` id-paths that must certify free of blocking I/O.
    pub effects_io_free: Vec<String>,
    /// `fn` id-paths that must certify spawn-free.
    pub effects_spawn_free: Vec<String>,
    /// `fn` id-paths that must certify channel-free.
    pub effects_channel_free: Vec<String>,
    /// `fn` id-paths that must certify free of poisoning panics.
    pub effects_poison_free: Vec<String>,
    /// Workspace-relative path of the dead-export ratchet file. `None`
    /// disables the dead-export pass.
    pub ratchet: Option<String>,
    /// Workspace-relative path this config was read from (for diagnostics).
    pub source: Option<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            layers: BTreeMap::new(),
            reach_crates: PANIC_FREE_CRATES.iter().map(|s| (*s).to_owned()).collect(),
            index_sites: IndexMode::Off,
            interior_mutable_allowed: vec!["udi-obs".to_owned()],
            determinism_entries: Vec::new(),
            determinism_exempt: vec!["udi-obs".to_owned()],
            lock_order_exempt: Vec::new(),
            error_discard_exempt: Vec::new(),
            effects_exempt: vec!["udi-obs".to_owned()],
            effects_lock_free: Vec::new(),
            effects_io_free: Vec::new(),
            effects_spawn_free: Vec::new(),
            effects_channel_free: Vec::new(),
            effects_poison_free: Vec::new(),
            ratchet: None,
            source: None,
        }
    }
}

/// Whether an `exempt-crates` list covers a fn of `crate_name` defined in
/// the workspace file `rel`. An entry names a whole crate (`udi-obs`) or
/// one top-level module of it (`udi-obs::sink`: the file `src/sink.rs` or
/// the directory `src/sink/`), so a crate whose sanctioned effects live
/// in a few modules keeps the rest under the certificates.
pub fn is_exempt(list: &[String], crate_name: &str, rel: &str) -> bool {
    let module = rel
        .split('/')
        .skip_while(|c| *c != "src")
        .nth(1)
        .map(|m| m.strip_suffix(".rs").unwrap_or(m));
    list.iter().any(|e| match e.split_once("::") {
        None => e == crate_name,
        Some((c, m)) => c == crate_name && module == Some(m),
    })
}

/// Load `root/audit.toml`; a missing file yields [`Config::default`].
pub fn load_config(root: &Path) -> Result<Config, AuditError> {
    let path = root.join("audit.toml");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(Config::default());
    };
    parse_config(&text, "audit.toml").map_err(|(line, msg)| AuditError::Config {
        path: path.clone(),
        line,
        message: msg,
    })
}

/// One parsed TOML value of the supported subset.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    Array(Vec<String>),
}

/// Parse the config text. Errors are `(1-based line, message)`.
pub fn parse_config(text: &str, source: &str) -> Result<Config, (u32, String)> {
    let mut cfg = Config {
        source: Some(source.to_owned()),
        ..Config::default()
    };
    let mut section = String::new();
    for (ln0, raw) in text.lines().enumerate() {
        let ln = ln0 as u32 + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix('[') {
            let Some(name) = h.strip_suffix(']') else {
                return Err((ln, format!("unterminated section header `{line}`")));
            };
            section = name.trim().to_owned();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err((ln, format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim().trim_matches('"');
        let value = parse_value(value.trim()).map_err(|m| (ln, m))?;
        match (section.as_str(), key) {
            ("layers", crate_name) => {
                let Value::Int(layer) = value else {
                    return Err((ln, format!("layer of `{crate_name}` must be an integer")));
                };
                if !(0..=64).contains(&layer) {
                    return Err((ln, format!("layer of `{crate_name}` out of range 0..=64")));
                }
                cfg.layers.insert(crate_name.to_owned(), layer as u32);
            }
            ("panic-reachability", "crates") => {
                let Value::Array(a) = value else {
                    return Err((ln, "`crates` must be an array of crate names".to_owned()));
                };
                cfg.reach_crates = a;
            }
            ("panic-reachability", "index-sites") => {
                let Value::Str(s) = value else {
                    return Err((ln, "`index-sites` must be a string".to_owned()));
                };
                cfg.index_sites = match s.as_str() {
                    "off" => IndexMode::Off,
                    "warn" => IndexMode::Warn,
                    "error" => IndexMode::Error,
                    other => {
                        return Err((
                            ln,
                            format!("`index-sites` must be off|warn|error, got `{other}`"),
                        ))
                    }
                };
            }
            ("determinism", "entry-points") => {
                let Value::Array(a) = value else {
                    return Err((ln, "`entry-points` must be an array of fn paths".to_owned()));
                };
                cfg.determinism_entries = a;
            }
            ("determinism", "exempt-crates") => {
                let Value::Array(a) = value else {
                    return Err((ln, "`exempt-crates` must be an array".to_owned()));
                };
                cfg.determinism_exempt = a;
            }
            ("lock-order", "exempt-crates") => {
                let Value::Array(a) = value else {
                    return Err((ln, "`exempt-crates` must be an array".to_owned()));
                };
                cfg.lock_order_exempt = a;
            }
            ("error-discard", "exempt-crates") => {
                let Value::Array(a) = value else {
                    return Err((ln, "`exempt-crates` must be an array".to_owned()));
                };
                cfg.error_discard_exempt = a;
            }
            (
                "effects",
                key @ ("exempt-crates" | "lock-free" | "io-free" | "spawn-free" | "channel-free"
                | "poison-free"),
            ) => {
                let Value::Array(a) = value else {
                    return Err((ln, format!("`{key}` must be an array of fn paths")));
                };
                match key {
                    "exempt-crates" => cfg.effects_exempt = a,
                    "lock-free" => cfg.effects_lock_free = a,
                    "io-free" => cfg.effects_io_free = a,
                    "spawn-free" => cfg.effects_spawn_free = a,
                    "channel-free" => cfg.effects_channel_free = a,
                    _ => cfg.effects_poison_free = a,
                }
            }
            ("concurrency", "interior-mutable-allowed") => {
                let Value::Array(a) = value else {
                    return Err((ln, "`interior-mutable-allowed` must be an array".to_owned()));
                };
                cfg.interior_mutable_allowed = a;
            }
            ("dead-exports", "ratchet") => {
                let Value::Str(s) = value else {
                    return Err((ln, "`ratchet` must be a path string".to_owned()));
                };
                cfg.ratchet = Some(s);
            }
            (sec, key) => {
                return Err((
                    ln,
                    format!("unknown config key `{key}` in section `[{sec}]`"),
                ));
            }
        }
    }
    Ok(cfg)
}

/// Strip a `#` comment that is outside any string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return line.get(..i).unwrap_or(line),
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> Result<Value, String> {
    if v == "true" {
        return Ok(Value::Bool(true));
    }
    if v == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(s) = v.strip_prefix('"') {
        let Some(s) = s.strip_suffix('"') else {
            return Err(format!("unterminated string `{v}`"));
        };
        return Ok(Value::Str(s.to_owned()));
    }
    if let Some(body) = v.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(format!("unterminated array `{v}`"));
        };
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some(s) = part.strip_prefix('"').and_then(|p| p.strip_suffix('"')) else {
                return Err(format!("array elements must be quoted strings: `{part}`"));
            };
            items.push(s.to_owned());
        }
        return Ok(Value::Array(items));
    }
    v.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("cannot parse value `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_round_trip() {
        let text = r#"
# layering contract
[layers]
udi-obs = 0
udi-core = 4    # serving layer

[panic-reachability]
crates = ["udi-core", "udi-query"]
index-sites = "warn"

[concurrency]
interior-mutable-allowed = ["udi-obs"]

[determinism]
entry-points = ["udi-core::SetupEngine::refresh", "udi-core::UdiSystem::answer"]
exempt-crates = ["udi-obs", "udi-bench"]

[effects]
exempt-crates = ["udi-obs", "udi-z"]
lock-free = ["udi-serve::execute_answer"]
io-free = ["udi-core::UdiSystem::answer", "udi-serve::execute_answer"]
spawn-free = ["udi-core::UdiSystem::answer"]
channel-free = ["udi-serve::execute_answer"]
poison-free = ["udi-serve::execute_answer"]

[lock-order]
exempt-crates = ["udi-x"]

[error-discard]
exempt-crates = ["udi-y"]

[dead-exports]
ratchet = "audit.ratchet"
"#;
        let cfg = parse_config(text, "audit.toml").expect("parses");
        assert_eq!(cfg.layers.get("udi-obs"), Some(&0));
        assert_eq!(cfg.layers.get("udi-core"), Some(&4));
        assert_eq!(cfg.reach_crates, vec!["udi-core", "udi-query"]);
        assert_eq!(cfg.index_sites, IndexMode::Warn);
        assert_eq!(
            cfg.determinism_entries,
            vec![
                "udi-core::SetupEngine::refresh",
                "udi-core::UdiSystem::answer"
            ]
        );
        assert_eq!(cfg.determinism_exempt, vec!["udi-obs", "udi-bench"]);
        assert_eq!(cfg.lock_order_exempt, vec!["udi-x"]);
        assert_eq!(cfg.error_discard_exempt, vec!["udi-y"]);
        assert_eq!(cfg.effects_exempt, vec!["udi-obs", "udi-z"]);
        assert_eq!(cfg.effects_lock_free, vec!["udi-serve::execute_answer"]);
        assert_eq!(
            cfg.effects_io_free,
            vec!["udi-core::UdiSystem::answer", "udi-serve::execute_answer"]
        );
        assert_eq!(cfg.effects_spawn_free, vec!["udi-core::UdiSystem::answer"]);
        assert_eq!(cfg.effects_channel_free, vec!["udi-serve::execute_answer"]);
        assert_eq!(cfg.effects_poison_free, vec!["udi-serve::execute_answer"]);
        assert_eq!(cfg.ratchet.as_deref(), Some("audit.ratchet"));
    }

    #[test]
    fn defaults_when_sections_absent() {
        let cfg = parse_config("", "audit.toml").expect("parses");
        assert!(cfg.layers.is_empty());
        assert_eq!(cfg.index_sites, IndexMode::Off);
        assert!(cfg.ratchet.is_none());
        assert!(!cfg.reach_crates.is_empty());
        assert_eq!(cfg.effects_exempt, vec!["udi-obs"]);
        assert!(cfg.effects_lock_free.is_empty());
        assert!(cfg.effects_io_free.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_config("[layers]\nudi-core = \"high\"\n", "audit.toml").unwrap_err();
        assert_eq!(err.0, 2);
        let err = parse_config("[nope]\nkey = 1\n", "audit.toml").unwrap_err();
        assert_eq!(err.0, 2);
        assert!(err.1.contains("unknown config key"));
    }

    #[test]
    fn exemptions_name_a_crate_or_one_of_its_modules() {
        let list = vec!["udi-a".to_owned(), "udi-b::sink".to_owned()];
        assert!(is_exempt(&list, "udi-a", "crates/a/src/json.rs"));
        assert!(is_exempt(&list, "udi-b", "crates/b/src/sink.rs"));
        assert!(is_exempt(&list, "udi-b", "crates/b/src/sink/mod.rs"));
        assert!(!is_exempt(&list, "udi-b", "crates/b/src/json.rs"));
        assert!(!is_exempt(&list, "udi-b", "crates/b/src/lib.rs"));
        assert!(!is_exempt(&list, "udi-b", "crates/b/src/sinks.rs"));
        assert!(!is_exempt(&list, "udi-c", "crates/c/src/sink.rs"));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = parse_config("[dead-exports]\nratchet = \"a#b\"\n", "t").expect("parses");
        assert_eq!(cfg.ratchet.as_deref(), Some("a#b"));
    }
}
