//! # neutraj-trajectory
//!
//! Trajectory data model and synthetic workload generators for NeuTraj-RS,
//! a Rust reproduction of *"Computing Trajectory Similarity in Linear Time:
//! A Generic Seed-Guided Neural Metric Learning Approach"* (ICDE 2019).
//!
//! This crate is the substrate every other crate builds on. It provides:
//!
//! * [`Point`], [`BoundingBox`] and [`Trajectory`] — the geometric core.
//! * [`Grid`] — the `P × Q` spatial discretization used by the paper's
//!   spatial-attention memory (50 m cells over a city-centre extent in the
//!   paper; fully configurable here).
//! * [`Dataset`] — a corpus of trajectories with deterministic
//!   train/validation/test splitting and the preprocessing the paper
//!   applies (centre-area clipping, minimum-length filtering).
//! * [`gen`] — synthetic workload generators that stand in for the Geolife
//!   and Porto GPS corpora, plus a road-network random-walk simulator used
//!   by the paper's zero-shot experiment (Fig. 10). See `DESIGN.md` §3 for
//!   the substitution rationale.
//! * [`io`] — a dependency-free CSV reader/writer and a compact binary
//!   codec for trajectory corpora.
//! * [`rng`] and [`cursor`] — the workspace's one seeded generator and
//!   its one little-endian byte cursor; the workspace has no external
//!   crates, so every crate's random draws and `NT*` codecs come from
//!   these two modules.
//!
//! All randomized components take explicit `u64` seeds and are fully
//! deterministic given the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
pub mod cursor;
mod dataset;
mod error;
pub mod gen;
mod grid;
pub mod io;
mod point;
pub mod rng;
pub mod stats;
pub mod timed;
mod traj;

pub use bbox::BoundingBox;
pub use dataset::{Dataset, Split, SplitRatios};
pub use error::TrajError;

/// Former name of [`TrajError`], kept as an alias for downstream code.
pub type TrajectoryError = TrajError;
pub use grid::{Grid, GridCell, GridSeq};
pub use point::Point;
pub use traj::Trajectory;

/// Convenient result alias for fallible trajectory operations.
pub type Result<T> = std::result::Result<T, TrajError>;
