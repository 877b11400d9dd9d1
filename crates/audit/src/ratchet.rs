//! The generalized ratchet file shared by every ratchet-aware pass.
//!
//! A ratchet freezes *pre-existing* debt: a finding whose key is listed
//! is reported as a warning (visible, counted, allowed to exist), an
//! unlisted finding is an error (new debt is rejected), and a listed key
//! that no longer matches any finding is itself an error — the file only
//! ever shrinks.
//!
//! Line format, one entry per line, `#` comments allowed:
//!
//! ```text
//! # legacy dead-export form (no lint prefix)
//! udi-beta::old_debt
//! # general form: <lint> <key>
//! error-discard udi-beta::discards_old
//! lock-order-cycle udi-beta::A<->udi-beta::B
//! ```
//!
//! Keys are pass-specific but always stable across unrelated edits:
//! dead-export and error-discard use item/fn id-paths, effect-cert uses
//! the entry point's id-path, lock-order-cycle the sorted lock set.

use std::collections::BTreeMap;

use crate::lints::{is_known_lint, DEAD_EXPORT};

/// A parsed ratchet file.
#[derive(Debug, Default)]
pub struct Ratchet {
    /// `(lint, key) → 1-based line` of each entry.
    entries: BTreeMap<(String, String), u32>,
}

impl Ratchet {
    /// Parse a ratchet file body. A line whose first whitespace-separated
    /// field is a known lint name is `<lint> <key>`; any other non-empty
    /// line is a legacy dead-export key.
    pub fn parse(text: &str) -> Ratchet {
        let mut entries = BTreeMap::new();
        for (ln0, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (lint, key) = match line.split_once(char::is_whitespace) {
                Some((first, rest)) if is_known_lint(first) => {
                    (first.to_owned(), rest.trim().to_owned())
                }
                _ => (DEAD_EXPORT.to_owned(), line.to_owned()),
            };
            if key.is_empty() {
                continue;
            }
            entries.entry((lint, key)).or_insert(ln0 as u32 + 1);
        }
        Ratchet { entries }
    }

    /// The 1-based line of entry `(lint, key)`, if listed.
    pub fn line_of(&self, lint: &str, key: &str) -> Option<u32> {
        self.entries
            .get(&(lint.to_owned(), key.to_owned()))
            .copied()
    }

    /// All `(key, line)` entries of one lint, in key order.
    pub fn entries_for<'a>(&'a self, lint: &str) -> Vec<(&'a str, u32)> {
        let lint = lint.to_owned();
        self.entries
            .iter()
            .filter(move |((l, _), _)| *l == lint)
            .map(|((_, k), &line)| (k.as_str(), line))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::ERROR_DISCARD;

    #[test]
    fn legacy_and_prefixed_lines_coexist() {
        let r = Ratchet::parse(
            "# comment\n\
             udi-beta::old_debt\n\
             error-discard udi-beta::discards_old # trailing\n\
             lock-order-cycle udi-a::A<->udi-a::B\n",
        );
        assert_eq!(r.line_of(DEAD_EXPORT, "udi-beta::old_debt"), Some(2));
        assert_eq!(r.line_of(ERROR_DISCARD, "udi-beta::discards_old"), Some(3));
        assert_eq!(
            r.line_of("lock-order-cycle", "udi-a::A<->udi-a::B"),
            Some(4)
        );
        assert_eq!(r.line_of(ERROR_DISCARD, "udi-beta::old_debt"), None);
        assert_eq!(r.entries_for(ERROR_DISCARD).len(), 1);
    }

    #[test]
    fn unknown_first_field_is_a_dead_export_key() {
        // A hypothetical key containing a space still round-trips as
        // dead-export because `not-a-lint` is not a lint name.
        let r = Ratchet::parse("not-a-lint thing\n");
        assert_eq!(r.line_of(DEAD_EXPORT, "not-a-lint thing"), Some(1));
    }
}
