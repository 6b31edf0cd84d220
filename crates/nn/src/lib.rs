//! # neutraj-nn
//!
//! A minimal, from-scratch neural-network substrate for NeuTraj-RS.
//!
//! The allowed dependency set contains no ML framework, so every forward
//! *and* backward pass here is hand-derived and verified against central
//! finite differences (see the `grad_check` tests in each module).
//!
//! Contents:
//!
//! * [`linalg`] — dense row-major `f64` matrices and the handful of BLAS-1/2
//!   kernels recurrent nets need.
//! * [`activation`] — the one `exp`/`tanh`/`sigmoid` every cell uses:
//!   IEEE-exact operations only (no libm), one portable slice loop plus
//!   an AVX-512 arm.
//! * [`LstmCell`] — a standard LSTM used by the Siamese baseline and the
//!   NT-No-SAM ablation.
//! * [`GruCell`] — a GRU backbone option (the paper notes SAM can augment
//!   "existing RNN architectures (GRU, LSTM)").
//! * [`SpatialMemory`] / [`WriteLog`] — the `P × Q × d` grid memory tensor
//!   **M** (§IV-A) and the buffered write log of the two-phase parallel
//!   training protocol.
//! * [`SamTapes`] — the BPTT tape of a training batch: per step the *ids*
//!   of the memory rows the attention read, not copies of them, in storage
//!   reused from batch to batch.
//! * [`Workspace`] — reusable scratch buffers threaded through every cell's
//!   entry points, so steady-state training does zero per-timestep heap
//!   allocation.
//! * [`SamLstmCell`] / [`SamLstmEncoder`] — the SAM-augmented LSTM of
//!   §IV-B/§IV-C: four sigmoid gates (forget/input/spatial/output), tanh
//!   candidate, an attention *read* over the `(2w+1)²` scan window and a
//!   gated sparse *write* back into the memory; the encoder is the cell
//!   plus the memory, scan width and batch tapes it runs against.
//! * [`Adam`] — the Adam optimizer (§V-B trains with Adam + BPTT).
//!
//! Each cell is one recurrent pass with two entry points, both taking a
//! `&mut Workspace`: `forward_batch` (many sequences in lockstep; with its
//! optional recording — LSTM/GRU caches, SAM tapes and write logs — it is
//! the training forward, without it inference) and `backward`. The
//! per-sequence loops it replaced survive as `#[cfg(test)]` oracles.
//!
//! Design notes (mirrors `DESIGN.md` §2):
//!
//! * Everything is `f64`. At the scales the reproduction runs (d ≤ 128,
//!   sequences ≤ a few hundred steps) this is fast enough on CPU, and it
//!   makes gradient checking trustworthy.
//! * Memory writes happen during the forward pass but gradients do **not**
//!   flow through stored memory slots: the read matrix `G_t` is treated as
//!   a constant. Gradients *do* flow through the attention weights into
//!   the intermediate cell state `ĉ_t`. This matches the reference
//!   implementation of the paper, which detaches the memory tensor.

// `deny` rather than `forbid`: the hand-written vector arms — the
// micro-kernels in `simd.rs`, the AVX-512 `exp`/`tanh`/`sigmoid` lanes in
// `activation.rs` — opt back in with scoped `#[allow(unsafe_code)]`;
// every other module stays unsafe-free, and `target_feature` never leaks
// into safe code (the dispatchers are safe fns that check bounds first).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
mod adam;
pub mod gradcheck;
mod gru;
pub mod linalg;
mod lstm;
mod memory;
mod sam;
pub mod simd;
mod tape;
mod workspace;

pub use adam::{Adam, AdamState};
pub use gru::{GruCache, GruCell, GruGrads};
pub use lstm::{LstmCache, LstmCell, LstmGrads};
pub use memory::{SpatialMemory, WriteLog};
pub use sam::{SamGrads, SamLstmCell, SamLstmEncoder, SamSeqRef};
pub use tape::{SamTape, SamTapeMut, SamTapeRef, SamTapes};
pub use workspace::Workspace;
