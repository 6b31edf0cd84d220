//! # neutraj-eval
//!
//! Evaluation metrics and the shared experiment harness behind every
//! table and figure of the paper's evaluation (§VII). The `neutraj-bench`
//! crate's per-table binaries are thin wrappers over this crate; having
//! the logic here keeps it unit-testable and reusable from user code.
//!
//! * [`metrics`] — top-k hitting ratio `HR@k`, cross recall `R10@50` and
//!   the distance distortions `δ_H10`/`δ_R10` (§VII-A.4).
//! * [`ann`] — recall@k of an approximate neighbour list against its
//!   exact truth (`bench_query`'s IVF and graph recall gauges).
//! * [`harness`] — corpus construction and split, exact ground truth,
//!   and the one fit → rank → score path every accuracy number takes
//!   (learned presets and the AP baseline).
//! * [`sweeps`] — one model per value of a training knob (Figs. 7–8).
//! * [`report`] — fixed-width table emission for the binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ann;
pub mod harness;
pub mod metrics;
pub mod report;
pub mod sweeps;

pub use ann::mean_overlap_at_k;
pub use harness::{DatasetKind, ExperimentWorld, GroundTruth, WorldConfig};
pub use metrics::SearchQuality;
