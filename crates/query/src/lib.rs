#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Select–project queries over single-table sources, with probabilistic
//! answers.
//!
//! UDI "accepts select-project queries on the exposed mediated schema and
//! returns answers ranked by their probabilities" (§7.1; joins are out of
//! scope because every source is a single table). This crate provides:
//!
//! - [`Query`] / [`Predicate`]: the AST — a select list plus a conjunction
//!   of comparison predicates (`=, ≠, <, ≤, >, ≥, LIKE` as in §7.1);
//! - [`parse_query`]: a small SQL parser for the
//!   `SELECT ... FROM ... WHERE ...` fragment the paper's workload uses;
//! - [`Query::columns`] / [`AggregateQuery::columns`]: the one binding
//!   form — the table column of every attribute a query reads, resolved
//!   once from an attribute binding (query attribute → source column),
//!   which is how a rewritten query runs after p-mapping reformulation;
//! - [`execute`] / [`execute_aggregate`]: evaluation of a query against one
//!   source table on those columns, sharing one predicate scan;
//! - [`AnswerSet`]: by-table probabilistic answers — per-source tuple
//!   probabilities are summed over the mappings that produce the tuple, and
//!   sources combine by probabilistic disjunction `1 − Π(1 − p_i)` (§2);
//! - [`SourceAccumulator`] / [`TupleAccumulator`] / [`AnswerRefs`]: the
//!   same answers by reference — each tuple is the `(binding, row)` that
//!   first produced it, read in place from the source table (or an
//!   aggregate's group rows) until an owned [`AnswerSet`] is asked for.
//!
//! # Quickstart
//!
//! ```
//! use udi_store::{Table, Value};
//! use udi_query::{execute, parse_query};
//!
//! let mut t = Table::new("s", ["full_name", "tel"]);
//! t.push_raw_row(["Alice", "123-4567"]).unwrap();
//! t.push_raw_row(["Bob", "765-4321"]).unwrap();
//!
//! let q = parse_query("SELECT name, phone FROM people WHERE name = 'Alice'").unwrap();
//! // Bind name → full_name and phone → tel, then run on columns.
//! let binding = [("name", "full_name"), ("phone", "tel")];
//! let columns = q
//!     .columns(|a| {
//!         let (_, s) = binding.iter().find(|(q, _)| *q == a)?;
//!         t.attribute_index(s)
//!     })
//!     .unwrap();
//! assert_eq!(columns, [0, 1, 0]);
//! let rows = execute(&t, &q, &columns);
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].1[1], Value::text("123-4567"));
//! ```

pub mod aggregate;
pub mod answer;
pub mod ast;
pub mod exec;
pub mod parse;
mod rows;

pub use aggregate::{execute_aggregate, AggFunc, Aggregate, AggregateQuery};
pub use answer::{
    AnswerRefs, AnswerSet, AnswerTuple, SourceAccumulator, SourceAnswer, TupleAccumulator,
};
pub use ast::{CompareOp, Predicate, Query};
pub use exec::execute;
pub use parse::{parse_aggregate_query, parse_query, ParseError};
