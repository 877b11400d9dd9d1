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
pub mod determinism;
pub mod error_discard;
pub mod hot_path;
pub mod layering;
pub mod lock_order;
pub mod panic_reach;

use crate::config::is_exempt;
use crate::graph::FnNode;
use crate::Workspace;

/// Whether `node` lies in a crate or module an `exempt-crates` list names
/// (see [`is_exempt`]).
fn node_exempt(list: &[String], ws: &Workspace, node: &FnNode) -> bool {
    let rel = ws.files.get(node.file).map_or("", |f| f.rel.as_str());
    is_exempt(list, &node.crate_name, rel)
}
