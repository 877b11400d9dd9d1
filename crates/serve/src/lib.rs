#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `udi-serve`: the multi-tenant query server over snapshot-swapped
//! [`UdiSystem`](udi_core::UdiSystem)s.
//!
//! The paper's setting is a *service*: many tenants, each with their own
//! growing source corpus, querying a mediated schema that refreshes as
//! sources and feedback arrive. This crate turns the library into that
//! service without taking any dependencies:
//!
//! - **Protocol** ([`proto`], and the workspace codec [`udi_obs::json`]
//!   re-exported as [`json`]): line-delimited JSON over TCP.
//!   One request line in, one response line out; answers stream through
//!   the same deterministic scalar renderers as the `Json`-tree oracle the
//!   identity tests run over library results, so a server answer is
//!   byte-identical to the library's.
//! - **State** ([`state`]): immutable per-tenant snapshot records,
//!   replaced wholesale on mutation so reads stay lock-free.
//!   Readers load an `Arc` and never block; mutations clone the snapshot,
//!   re-run setup off to the side, and publish atomically
//!   (clone-mutate-publish). Each record caches the reply prefixes it
//!   has rendered, so a publish starts an empty answer cache.
//!   [`Tenant::answer_into`] (the served path, cache included),
//!   [`answer_into`] (its uncached fallback) and [`execute_answer`] (their
//!   `Json`-tree oracle) are the certified deterministic entry points.
//! - **Server** ([`server`]): thread-per-core blocking workers behind a
//!   bounded admission queue; when the queue fills, readers shed load at
//!   the edge with an `overloaded` response instead of buffering latency.
//!   Sockets run with `TCP_NODELAY`, each reply leaves in one write, and
//!   replies keep request order per connection.
//!
//! Observability: every request opens a `serve.request` span whose id
//! parents the library's `query.answer` / `query.source` spans, so a
//! request's full fan-out shows up as one trace tree. Counters
//! (`serve.requests`, `serve.shed`, `serve.refresh`, ...) surface through
//! the `stats` op.
//!
//! # Quickstart
//!
//! ```
//! use udi_core::{UdiConfig, UdiSystem};
//! use udi_serve::{ServeState, Server, ServerConfig};
//! use udi_store::{Catalog, Table};
//!
//! let mut catalog = Catalog::new();
//! let mut t = Table::new("s1", ["name", "phone"]);
//! t.push_raw_row(["Alice", "123-4567"]).unwrap();
//! catalog.add_source(t).unwrap();
//! let system = UdiSystem::setup(catalog, UdiConfig::default()).unwrap();
//!
//! let state = ServeState::new();
//! state.register_tenant("acme", system);
//! let server = Server::start(state, ServerConfig::default()).unwrap();
//! // Clients connect to server.addr() and write lines like
//! //   {"op":"answer","tenant":"acme","query":"SELECT name FROM people"}
//! drop(server); // shuts down listener and workers
//! ```

pub mod proto;
pub mod server;
pub mod state;

pub use proto::{
    answer_reply_into, error_response, ok_response, parse_request, render_answers, shed_response,
    AnswerPath, Op, Request, RequestError,
};
pub use server::{handle_line, Server, ServerConfig};
pub use state::{
    answer_into, execute_answer, handle, handle_into, stats_response, ServeState, Tenant,
    ANSWER_CACHE_BYTES,
};
pub use udi_obs::json;
pub use udi_obs::json::{Json, ParseJsonError};
