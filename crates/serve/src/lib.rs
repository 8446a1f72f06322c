//! # sato-serve — the always-on annotation service
//!
//! Everything below `SatoService` in this workspace answers the question
//! "given a frozen artifact and a corpus, what are the semantic types?".
//! This crate answers the production question that follows it: keep that
//! artifact resident and hot, accept annotation requests from many
//! concurrent clients, and serve them at high throughput *without* giving
//! up the batching efficiency that [`SatoPredictor::predict_corpus_batched`]
//! gets from amortising one forward pass over many columns.
//!
//! ```text
//!            submit() / submit_corpus() / submit_colstore_bytes()
//!  clients ──────────────────────────────┐
//!                                        ▼
//!                       ┌──────────────────────────────┐
//!                       │  bounded queue (queue_depth) │──▶ Overloaded
//!                       └──────────────┬───────────────┘    (admission)
//!                                      ▼
//!                       ┌──────────────────────────────┐
//!                       │  batcher: expire deadlines,  │──▶ Expired
//!                       │  coalesce columns across     │    (pre-batch)
//!                       │  requests until batch_cols   │
//!                       └──────────────┬───────────────┘
//!                                      ▼
//!                       ┌──────────────────────────────┐
//!                       │  Arc<SatoPredictor> (pinned  │◀── swap_predictor
//!                       │  per round; hot-swappable)   │    load_artifact
//!                       └──────────────┬───────────────┘
//!                                      ▼
//!                       ┌──────────────────────────────┐
//!                       │  splitter: predictions back  │
//!                       │  per request, hash-tagged    │
//!                       └──────────────┬───────────────┘
//!  clients ◀───────────────────────────┘
//!            AnnotationResponse { predictions, artifact_hash, latency }
//! ```
//!
//! ## Guarantees
//!
//! - **Bit-identical serving.** Every evaluation stage of the frozen
//!   network is row-independent, so coalescing columns from *different*
//!   requests into one shared micro-batch produces exactly the bytes that
//!   [`SatoPredictor::predict_corpus_batched`] would produce for each
//!   request alone (on the artifact that served it). The integration
//!   proptest suite (`service_serving.rs`) checks this across all model
//!   variants, arbitrary request interleavings and
//!   mid-stream hot-swaps.
//! - **Admission control.** The queue is bounded; beyond
//!   [`ServiceConfig::queue_depth`] pending requests, submissions fail fast
//!   with [`ServeError::Overloaded`] instead of stretching tail latency.
//! - **Deadlines cost nothing.** An expired request is dropped at batch
//!   formation — before feature extraction or any forward pass — and
//!   answered with [`ServeError::Expired`].
//! - **Zero-downtime hot-swap.** [`SatoService::swap_predictor`] (or
//!   [`SatoService::load_artifact`] from a `SATOART1` file) atomically
//!   replaces the serving artifact under a pointer-sized critical section.
//!   Rounds already formed drain on the artifact they started with; every
//!   response is tagged with the content hash of the artifact that actually
//!   served it, so clients can attribute every prediction to an exact
//!   model version.
//! - **Validated swaps roll back.** [`SatoService::load_artifact`] retries
//!   transient I/O with backoff, then smoke-predicts a canary table on the
//!   candidate before the pointer swap. A truncated, corrupt or
//!   panic-at-first-predict artifact is rejected with
//!   [`ServeError::Swap`] — counted in [`ServiceStats::swap_rollbacks`] —
//!   and the incumbent keeps serving as if nothing happened.
//! - **Index-on-annotate (opt-in).** With
//!   [`ServiceConfig::index_on_annotate`] set, every annotated column's
//!   embedding is also inserted — keyed `(table_id, col_idx)`, idempotent,
//!   no second forward pass — into an in-process ANN index
//!   ([`sato_index::HnswIndex`]), so the lake becomes searchable
//!   ([`SatoService::search_index`]) as a side effect of being annotated.
//!   The index is keyed to the artifact that embedded its vectors:
//!   hot-swaps invalidate it cleanly, and a `SATOIDX1` sidecar only loads
//!   ([`SatoService::load_index`]) next to the artifact it was built from —
//!   anything else rolls back with the incumbent index untouched
//!   ([`ServiceStats::index_rollbacks`]). Indexing failures never fail
//!   annotation.
//! - **Failure is per-request, never per-service.** The batcher runs under
//!   a supervisor: every round is panic-contained, a panicking round is
//!   bisected to quarantine the single poison-pill request (answered
//!   [`ServeError::Poisoned`], counted in [`ServiceStats::quarantined`])
//!   while the innocent requests are re-served bit-identically, and a
//!   worker that dies anyway is restarted with capped exponential backoff
//!   ([`ServiceStats::worker_restarts`]). All locks recover from
//!   poisoning, so `submit`/`stats`/`shutdown` keep working across worker
//!   crashes; a liveness heartbeat ([`ServiceStats::heartbeat_age_us`])
//!   makes a stalled worker observable. Deterministic fault injection for
//!   all of this lives behind the `faults` feature (see the `sato-faults`
//!   crate and the README fault-injection cookbook).
//!
//! ## Example
//!
//! ```no_run
//! use sato_serve::{SatoService, ServiceConfig, RequestOptions};
//! # fn demo(predictor: sato::SatoPredictor, table: sato_tabular::table::Table) {
//! let service = SatoService::start(predictor, ServiceConfig::default());
//! let handle = service.submit_table(table, RequestOptions::default()).unwrap();
//! let response = handle.wait().unwrap();
//! println!("served by artifact {:016x}", response.artifact_hash);
//! let stats = service.shutdown();
//! println!("p99 latency: {:.0} µs", stats.p99_us());
//! # }
//! ```
//!
//! [`SatoPredictor`]: sato::SatoPredictor
//! [`SatoPredictor::predict_corpus_batched`]: sato::SatoPredictor::predict_corpus_batched

#![warn(missing_docs)]

pub mod service;
pub mod stats;

pub use service::{
    AnnotationResponse, RequestOptions, ResponseHandle, SatoService, ServeError, ServiceConfig,
    MAX_CONSECUTIVE_RESTARTS, SWAP_LOAD_ATTEMPTS,
};
pub use stats::{LatencySnapshot, ServiceStats, FILL_BUCKETS, LATENCY_BUCKETS};

// Re-exported so service clients can configure and query the
// annotate-time index without naming `sato-index` themselves.
pub use sato_index::{ColumnRef, HnswConfig, IndexError, Neighbor};
