#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! In-memory relational substrate for UDI.
//!
//! The SIGMOD'08 evaluation stored each web-extracted source as a single
//! MySQL table and used MySQL's keyword search engine for the keyword
//! baselines. This crate replaces that substrate with an embedded,
//! dependency-free engine:
//!
//! - [`Value`]: typed cells (null / integer / float / text) with SQL-flavored
//!   comparison semantics, including the string-vs-numeric comparison
//!   artifact the paper observes in the Course domain;
//! - [`Table`]: a named single-table source schema plus its rows;
//! - [`Catalog`]: the set of registered sources with the attribute universe
//!   and per-attribute source frequencies that Algorithm 1 consumes;
//! - [`KeywordIndex`]: an inverted index over cell tokens and attribute
//!   names backing the `KeywordNaive` / `KeywordStruct` / `KeywordStrict`
//!   baselines.
//!
//! # Quickstart
//!
//! ```
//! use udi_store::{Catalog, Table, Value};
//!
//! let mut t = Table::new("s1", ["name", "phone"]);
//! t.push_row(vec![Value::text("Alice"), Value::text("123-4567")]).unwrap();
//!
//! let mut catalog = Catalog::new();
//! let sid = catalog.add_source(t).unwrap();
//! assert_eq!(catalog.source(sid).unwrap().row_count(), 1);
//! assert_eq!(catalog.attribute_frequency("phone"), 1.0);
//! ```

pub mod catalog;
pub mod csv;
pub mod keyword;
pub mod shard;
pub mod table;
pub mod value;

pub use catalog::{Catalog, SourceId, DEFAULT_SHARD_CAPACITY};
pub use csv::CsvError;
pub use keyword::{KeywordIndex, RowRef};
pub use shard::Shard;
pub use table::{Row, Table};
pub use value::{like_match, LikePattern, Value};

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A row's arity does not match the table schema.
    ArityMismatch {
        /// Table the row was pushed into.
        table: String,
        /// Number of columns the schema declares.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// The table declares the same attribute name twice.
    DuplicateAttribute {
        /// Table with the duplicate.
        table: String,
        /// The repeated attribute name.
        attribute: String,
    },
    /// Lookup of an unknown attribute.
    UnknownAttribute {
        /// Table that was searched.
        table: String,
        /// The missing attribute name.
        attribute: String,
    },
    /// Lookup of an unknown source id.
    UnknownSource(u32),
    /// Removal of an unknown source name.
    UnknownSourceName(String),
    /// The catalog already holds `u32::MAX` sources, so the next positional
    /// [`SourceId`] would not fit in its `u32` representation. The payload is
    /// the source count at which registration was refused.
    SourceIdOverflow(usize),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(
                    f,
                    "row arity {got} does not match schema of `{table}` ({expected} columns)"
                )
            }
            StoreError::DuplicateAttribute { table, attribute } => {
                write!(
                    f,
                    "table `{table}` declares attribute `{attribute}` more than once"
                )
            }
            StoreError::UnknownAttribute { table, attribute } => {
                write!(f, "table `{table}` has no attribute `{attribute}`")
            }
            StoreError::UnknownSource(id) => write!(f, "no source with id {id}"),
            StoreError::UnknownSourceName(name) => write!(f, "no source named `{name}`"),
            StoreError::SourceIdOverflow(count) => write!(
                f,
                "catalog holds {count} sources; the next source id would overflow u32"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = StoreError::ArityMismatch {
            table: "t".into(),
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("arity 3"));
        let e = StoreError::UnknownAttribute {
            table: "t".into(),
            attribute: "x".into(),
        };
        assert!(e.to_string().contains("`x`"));
        let e = StoreError::UnknownSource(7);
        assert!(e.to_string().contains('7'));
        let e = StoreError::DuplicateAttribute {
            table: "t".into(),
            attribute: "a".into(),
        };
        assert!(e.to_string().contains("more than once"));
        let e = StoreError::SourceIdOverflow(4_294_967_296);
        assert!(e.to_string().contains("4294967296"));
        assert!(e.to_string().contains("overflow"));
    }
}
