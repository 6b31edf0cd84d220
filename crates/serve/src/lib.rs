//! Async similarity serving for NeuTraj.
//!
//! This crate wraps [`neutraj_model::SimilarityDb`] in a service built
//! for concurrent callers:
//!
//! * **Lock-free read snapshots** — the corpus is an immutable
//!   [`Snapshot`] behind an `Arc`; writers build the next epoch
//!   copy-on-write — sharing with the old one whatever the new rows do
//!   not change — and publish it with a pointer swap, so readers never
//!   block on insert work ([`snapshot`] module docs carry the protocol).
//! * **Sharded parallel scans** — a snapshot holds `S` round-robin
//!   [`SimilarityDb`](neutraj_model::SimilarityDb) partitions scanned
//!   independently and merged under the scan's `(dist, index)` total
//!   order; in exact mode the merge is bit-identical to the unsharded
//!   scan (the module docs carry the proof).
//! * **Adaptive micro-batching** — concurrent single queries coalesce in
//!   one deadline-bounded FIFO queue and dispatch through the lockstep
//!   batched embed and the exact int8 cascade (one pass over the int8
//!   codes per batch, the rows it cannot rule out rescored in `f64`),
//!   bit-identical to answering each query alone ([`service`] module
//!   docs carry the scheduling policy).
//!
//! The typed surface ([`ServeRequest`] / [`ServeResponse`] /
//! [`ServeError`], with [`QuerySpec`] — the owned form of the library's
//! one query builder) is shared by the service, the CLI, and library
//! callers, and the service route never panics on request input.
//!
//! The service is additionally **overload- and failure-hardened**
//! (`DESIGN.md` §14): bounded admission with typed
//! [`ServeError::Overloaded`] shedding, per-request deadlines with
//! cooperative cancellation, panic-isolated shard scans with
//! quarantine + backoff re-admission (partial answers, never rewritten
//! specs), and
//! crash-recoverable snapshots sealed through the checksummed `NTFILE01`
//! envelope ([`persist`] module docs carry the codec).
//!
//! ```no_run
//! use neutraj_serve::{QuerySpec, ServeRequest, ServiceConfig, SimilarityService};
//! # fn demo(model: neutraj_model::NeuTrajModel,
//! #         corpus: Vec<neutraj_trajectory::Trajectory>,
//! #         query: neutraj_trajectory::Trajectory) {
//! let service =
//!     SimilarityService::new(model, corpus, &ServiceConfig::default()).unwrap();
//! let answer = service
//!     .query(ServeRequest::new(0, query, QuerySpec::new(10)))
//!     .unwrap();
//! println!("top-10 at epoch {}: {:?}", answer.epoch, answer.neighbors);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;
pub mod request;
pub mod service;
pub mod snapshot;

pub use request::{QuerySpec, ServeError, ServeRequest, ServeResponse};
pub use service::{sequential_reference, ScanFaultHook, ServiceConfig, SimilarityService};
pub use snapshot::{ShardConfig, Snapshot};
