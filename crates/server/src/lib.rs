//! # socialscope-server
//!
//! A real serving front for the SocialScope engines: a hand-rolled,
//! dependency-free HTTP/1.1 layer over `std::net::TcpListener` (no async
//! runtime) that admits single-seeker query and tag-event requests,
//! micro-batches queries by resolved keyword set within a configurable
//! deadline window, and serves each flushed batch through the clustered
//! engine's `query_batch_opts` — with [`BatchOptions::deadline`] carrying
//! the *remaining* per-request SLO budget, so time spent waiting in the
//! batching window counts against the engine's budget, not on top of it.
//!
//! [`BatchOptions::deadline`]: socialscope_content::BatchOptions::deadline
//!
//! The moving parts:
//!
//! * [`http`] — incremental request reader and response writer with hard
//!   size caps; hostile input gets a clean typed `4xx`, never a panic.
//! * The batcher (internal) — groups admitted queries by
//!   `(normalized keyword set, k)` and flushes when the oldest member has
//!   waited the window or the batch hits its size cap. A zero window is
//!   per-request serving through the identical machinery.
//! * [`spawn`] / [`ServerHandle`] — the accept loop, per-connection
//!   handler threads, and the serving-worker pool (each worker owns a
//!   persistent `BatchScratchPool`; a panicking worker is isolated via
//!   `catch_unwind` and poison-free locks).
//!
//! The wire schema ([`wire`]) lives in `socialscope_content` so every
//! layer — server, bench load generator, external clients — shares one
//! set of versioned request/response types; this crate re-exports it.
//!
//! ## Endpoints
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `POST /query` | Admit a [`wire::QueryRequest`]; blocks until its micro-batch is served. Deadline-expired members return HTTP 200 with `degraded: true` and whatever ranking was completed — degradation is in-band, not an error. |
//! | `POST /apply` | Transactional tag-event ingestion in two phases: staged beside the readers, committed under the write lock. Any rejection (capacity, injected fault, stale stage) leaves the engine untouched and returns a typed `409 apply_rejected`. |
//! | `GET /health` | Liveness plus the wire version. |
//! | `GET /stats` | Monotonic serving counters (queries, applies, degraded, batches), the apply stage/commit clocks, and the engine's memory profile. |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod http;

mod batcher;
mod server;

pub use server::{spawn, ServerConfig, ServerHandle};
pub use socialscope_content::wire;
