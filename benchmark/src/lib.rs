//! Hermetic, seed-driven benchmark of NeuTraj-RS.
//!
//! One command runs a named workload from a `--seed`, checks every
//! answer, and prints every declared metric with its unit; `--trace 1`
//! runs the workload again with a span around each call into a layer and
//! prints the per-layer metrics instead. Layers are measured **from
//! outside**, through their public functions: the benchmark changes no
//! file of the repository. `README.md` has the method and the tables.

pub mod host;
pub mod inputs;
pub mod names;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The rustflags this build was compiled with (see `build.rs`).
pub const RUSTFLAGS: &str = env!("BENCH_RUSTFLAGS");
