//! Whole-workspace semantic passes over the parsed item model and graphs.
//!
//! Unlike the token-pattern lints in [`crate::lints`] (which see one file
//! at a time), every pass here sees the whole [`crate::Workspace`]: the
//! call graph, the crate-dependency edges, the per-file item models, and
//! (for the dataflow passes) the per-function CFGs from [`crate::cfg`].
//! Each pass returns plain [`Diagnostic`]s; the orchestrator in
//! [`crate::run_audit`] times each one through `udi-obs` and merges the
//! results.

pub mod concurrency;
pub mod dead_exports;
pub mod effect_cert;
pub mod error_discard;
pub mod layering;
pub mod lock_order;
