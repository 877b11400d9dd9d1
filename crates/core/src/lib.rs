#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! UDI — the self-configuring, pay-as-you-go data integration system of
//! SIGMOD'08 (§7.1 calls it "UDI").
//!
//! Given a catalog of single-table data sources, [`UdiSystem::setup`] runs
//! the full automatic configuration pipeline with **no human input**:
//!
//! 1. import source schemas and attribute statistics;
//! 2. build the probabilistic mediated schema (Algorithms 1–2);
//! 3. generate a maximum-entropy p-mapping between every source and every
//!    possible mediated schema (§5);
//! 4. consolidate into one deterministic mediated schema with one-to-many
//!    p-mappings (§6) — the schema exposed to users.
//!
//! [`UdiSystem::answer`] then evaluates select–project queries under
//! by-table semantics, ranks answers by probability, and combines sources
//! by probabilistic disjunction. [`UdiSystem::answer_with_pmed`] answers the
//! same query directly against the p-med-schema (Definition 3.3), which
//! makes Theorem 6.2 ("consolidation preserves answers") executable.
//!
//! # Quickstart
//!
//! ```
//! use udi_core::UdiSystem;
//! use udi_query::parse_query;
//! use udi_store::{Catalog, Table};
//!
//! let mut catalog = Catalog::new();
//! for (name, attrs, row) in [
//!     ("s1", vec!["name", "phone"], vec!["Alice", "123-4567"]),
//!     ("s2", vec!["name", "phone-no"], vec!["Bob", "765-4321"]),
//!     ("s3", vec!["name", "phone"], vec!["Carol", "555-0000"]),
//! ] {
//!     let mut t = Table::new(name, attrs);
//!     t.push_raw_row(row).unwrap();
//!     catalog.add_source(t).unwrap();
//! }
//! let udi = UdiSystem::setup(catalog, Default::default()).unwrap();
//! let q = parse_query("SELECT name, phone FROM people").unwrap();
//! let answers = udi.answer(&q).combined();
//! assert_eq!(answers.len(), 3, "phone-no is matched to phone automatically");
//! ```

pub mod answer;
pub mod engine;
pub mod feedback;
pub mod persist;
pub mod pipeline;
pub mod prepared;
pub mod system;

pub use answer::{AnswerPath, BindingExplanation, Explanation, SourceExplanation};
pub use engine::SetupEngine;
pub use feedback::{suggest_questions, Feedback, FeedbackMeasure, Question};
pub use persist::PersistError;
pub use pipeline::{CacheStats, MeasureKind, SetupReport, SetupTimings, UdiConfig};
pub use prepared::{ChainMap, PreparedQuery};
pub use system::UdiSystem;

/// Errors surfaced by system setup or query answering.
#[derive(Debug)]
pub enum UdiError {
    /// p-mapping construction failed (state explosion or solver failure).
    MaxEnt(udi_schema::MaxEntError),
    /// Storage-layer failure.
    Store(udi_store::StoreError),
    /// Setup was asked to run over an empty catalog.
    EmptyCatalog,
    /// [`UdiSystem::from_parts`] was given the wrong number of p-mapping
    /// rows (one row per source is required).
    MappingRowMismatch {
        /// Sources in the catalog.
        expected: usize,
        /// Rows supplied.
        got: usize,
    },
    /// [`UdiSystem::from_parts`] was given a row with the wrong number of
    /// p-mappings (one per possible mediated schema is required).
    MappingColumnMismatch {
        /// Index of the offending source row.
        source: usize,
        /// Possible schemas in the p-med-schema.
        expected: usize,
        /// p-mappings supplied in that row.
        got: usize,
    },
    /// A typed id space (source ids, blocking attribute ids) ran out of
    /// `u32` room. Surfaced as an error instead of silently wrapping and
    /// corrupting positional lookups.
    IdSpaceExhausted {
        /// Which id space overflowed (e.g. `"source"`, `"blocking attr"`).
        what: &'static str,
        /// The count that no longer fits.
        count: usize,
    },
    /// An internal invariant of the setup engine was violated — a bug in
    /// UDI itself, not in the caller's input. The payload names the broken
    /// invariant.
    Internal(&'static str),
}

impl std::fmt::Display for UdiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdiError::MaxEnt(e) => write!(f, "p-mapping construction failed: {e}"),
            UdiError::Store(e) => write!(f, "storage error: {e}"),
            UdiError::EmptyCatalog => write!(f, "cannot set up integration over zero sources"),
            UdiError::MappingRowMismatch { expected, got } => write!(
                f,
                "expected one p-mapping row per source ({expected}), got {got}"
            ),
            UdiError::MappingColumnMismatch { source, expected, got } => write!(
                f,
                "source {source}: expected one p-mapping per possible schema ({expected}), got {got}"
            ),
            UdiError::IdSpaceExhausted { what, count } => {
                write!(f, "{what} id space exhausted at {count} entries")
            }
            UdiError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl std::error::Error for UdiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UdiError::MaxEnt(e) => Some(e),
            UdiError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<udi_schema::MaxEntError> for UdiError {
    fn from(e: udi_schema::MaxEntError) -> Self {
        UdiError::MaxEnt(e)
    }
}

impl From<udi_store::StoreError> for UdiError {
    fn from(e: udi_store::StoreError) -> Self {
        UdiError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = UdiError::EmptyCatalog;
        assert!(e.to_string().contains("zero sources"));
        assert!(e.source().is_none());
        let e = UdiError::MaxEnt(udi_schema::MaxEntError::Explosion { cap: 5 });
        assert!(e.to_string().contains("cap of 5"));
        assert!(e.source().is_some());
    }
}
