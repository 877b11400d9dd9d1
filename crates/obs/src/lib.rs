#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `udi-obs` — a hand-rolled, zero-dependency tracing and metrics layer for
//! the UDI workspace.
//!
//! The setup engine, the max-entropy solver, and the query paths all emit
//! structured [`Event`]s — hierarchical spans with wall-clock timing,
//! monotonic counters, and scalar observations — through a pluggable
//! [`Sink`]. Three sinks ship with the crate:
//!
//! - disabled recording ([`Recorder::disabled`]): every call is an inlined
//!   no-op on an `Option` that is `None` — the instrumented hot paths cost
//!   nothing when nobody is listening;
//! - [`MemorySink`]: collects events in memory, with helpers to reconstruct
//!   the span tree, total counters, and build [`Histogram`]s — the sink
//!   unit and integration tests use;
//! - [`JsonLinesSink`]: writes one JSON object per event to a file, the
//!   format behind the bench binaries' `--trace out.jsonl` flag (see
//!   `OBSERVABILITY.md` at the repository root for how to read a trace).
//!
//! [`CounterSink`] is a fourth, aggregate-only sink: it keeps per-name
//! counter totals and ignores spans, which is how `udi-core` derives its
//! `CacheStats` view without retaining events. [`FanoutSink`] composes
//! sinks, and [`TraceSummary`] renders the per-span-name timing table the
//! bench binaries print at exit.
//!
//! [`json`] is the workspace's one JSON codec (value type, panic-free
//! parser, deterministic renderer). Trace events render through it, and so
//! do the serve protocol, system snapshots and the audit report.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use udi_obs::{MemorySink, Recorder};
//!
//! let sink = Arc::new(MemorySink::new());
//! let rec = Recorder::new(sink.clone());
//! {
//!     let setup = rec.span("setup");
//!     let stage = setup.child("stage.import");
//!     stage.count("attrs.seen", 42);
//!     rec.observe("solver.residual", 1e-9);
//! }
//! assert_eq!(sink.counter_total("attrs.seen"), 42);
//! assert!(sink.verify_nesting().is_ok());
//! assert_eq!(sink.spans().len(), 2);
//! ```

mod clock;
mod event;
mod hist;
pub mod json;
mod recorder;
mod rss;
mod sink;
mod summary;

pub use clock::Stopwatch;
pub use event::{Event, EventKind, Field};
pub use hist::Histogram;
pub use recorder::{Recorder, Span};
pub use rss::{fmt_rss, peak_rss_bytes, resident_rss_bytes};
pub use sink::{CounterSink, FanoutSink, JsonLinesSink, MemorySink, NullSink, Sink, SpanRecord};
pub use summary::TraceSummary;
