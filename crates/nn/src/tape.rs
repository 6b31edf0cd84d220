//! The BPTT tape of the SAM-LSTM: what a training forward keeps per step
//! for the backward pass, for one sequence or a whole batch.
//!
//! # Layout
//!
//! A tape set is two flat buffers — one `f64`, one `u32` — cut into one
//! contiguous span per sequence, in input order. Inside a span of `T`
//! steps every quantity is its own dense `T × width` row-major matrix
//! (so `Z` and `[ĉ; mix]` can be handed to a GEMM as they lie):
//!
//! | `f64` block | width | |
//! |---|---|---|
//! | `z`      | `zlen` | `z_t = [x; y; h_{t-1}; 1]` |
//! | `gates`  | `5d`   | activated `[f, i, s, o, g]` |
//! | `ccat`   | `2d`   | `[ĉ_t; mix_t]` (Eq. 3 and the attention mix) |
//! | `c_his`  | `d`    | `tanh(W_his·ccat + b_his)` |
//! | `c`      | `d`    | cell state (Eq. 4) |
//! | `tanh_c` | `d`    | `tanh(c_t)` |
//! | `attn`   | `kmax` | post-softmax attention, first `K_t` used |
//! | `local`  | `d`    | the sequence-local row written at step `t` |
//!
//! | `u32` block | width | |
//! |---|---|---|
//! | `ids`  | `kmax` | row ids of the attention window, first `K_t` used |
//! | `klen` | `1`    | `K_t` |
//!
//! A window is **named, not copied**: `ids` holds, per window cell, either
//! the id of a [`SpatialMemory`] row (stable for the memory's epoch — see
//! the memory module) or [`LOCAL_ROW`]` | i` for row `i` of the span's own
//! `local` block, one of the sequence's pending writes. That is ≤ 100
//! bytes a step where the copied window was 6.4 KB at `d = 32`, `w = 2`.
//!
//! # Lifetime
//!
//! [`SamTapes::layout`] re-cuts the buffers for a new batch without
//! freeing, zeroing or shrinking them (the forward overwrites everything
//! the backward reads) and stamps the set; a [`SamTapeRef`] handed out
//! under an older stamp is refused. Each span also records the memory
//! epoch its forward ran under, which the backward checks against the
//! memory it is given.

use crate::memory::{fresh_stamp, SpatialMemory, LOCAL_ROW};

/// Field widths of one tape step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct TapeShape {
    /// Hidden dimensionality `d`.
    pub d: usize,
    /// Width of `z = [x; y; h; 1]`, `d + 3`.
    pub zlen: usize,
    /// Largest attention window, `(2w+1)²`.
    pub kmax: usize,
}

impl TapeShape {
    pub(crate) fn new(d: usize, scan_width: u32) -> Self {
        let side = 2 * scan_width as usize + 1;
        Self {
            d,
            zlen: d + 3,
            kmax: side * side,
        }
    }

    /// `f64` values per step.
    fn f_step(&self) -> usize {
        self.zlen + 11 * self.d + self.kmax
    }

    /// `u32` values per step.
    fn u_step(&self) -> usize {
        self.kmax + 1
    }
}

/// One sequence's place in the buffers.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    f0: usize,
    u0: usize,
    len: usize,
    /// Memory epoch the forward ran under; 0 until a forward has run.
    epoch: u64,
}

/// Storage for the BPTT tapes of a batch of sequences (see the module
/// docs). Owned by whoever runs the batch — the encoder, for training —
/// and reused from batch to batch.
#[derive(Debug, Clone, Default)]
pub struct SamTapes {
    shape: TapeShape,
    f: Vec<f64>,
    u: Vec<u32>,
    spans: Vec<Span>,
    stamp: u64,
}

/// Names one sequence's tape in a [`SamTapes`] set as laid out by one
/// `SamTapes::layout` call; dead once the set is laid out again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamTapeRef {
    index: usize,
    stamp: u64,
}

impl SamTapes {
    /// Lays the set out for sequences of the given lengths, in order:
    /// spans sized by points, nothing freed or cleared. Every tape and
    /// [`SamTapeRef`] of the previous layout is dead afterwards.
    pub(crate) fn layout(&mut self, shape: TapeShape, lens: impl Iterator<Item = usize>) {
        self.shape = shape;
        self.spans.clear();
        let (mut f0, mut u0) = (0, 0);
        for len in lens {
            self.spans.push(Span {
                f0,
                u0,
                len,
                epoch: 0,
            });
            f0 += len * shape.f_step();
            u0 += len * shape.u_step();
        }
        if self.f.len() < f0 {
            self.f.resize(f0, 0.0);
        }
        if self.u.len() < u0 {
            self.u.resize(u0, 0);
        }
        self.stamp = fresh_stamp();
    }

    /// Total timesteps of the current layout.
    pub fn points(&self) -> usize {
        self.spans.iter().map(|s| s.len).sum()
    }

    /// Bytes the current layout occupies (not the buffers' capacity).
    pub fn bytes(&self) -> usize {
        self.points() * (self.shape.f_step() * 8 + self.shape.u_step() * 4)
    }

    /// Frees the buffers; the next layout allocates afresh.
    pub fn release(&mut self) {
        *self = Self::default();
    }

    /// The handle of sequence `index` under the current layout.
    pub fn tape_ref(&self, index: usize) -> SamTapeRef {
        assert!(index < self.spans.len(), "tape index out of range");
        SamTapeRef {
            index,
            stamp: self.stamp,
        }
    }

    /// The recorded tape `r` names. Panics when the set has been laid out
    /// again since `r` was handed out — the storage now holds another
    /// batch's steps.
    pub fn get(&self, r: SamTapeRef) -> SamTape<'_> {
        assert_eq!(
            r.stamp, self.stamp,
            "SAM tape used after the batch that recorded it ended (its storage was laid out again)"
        );
        self.tape(r.index)
    }

    /// The recorded tape of sequence `index`.
    pub(crate) fn tape(&self, index: usize) -> SamTape<'_> {
        let span = self.spans[index];
        let s = self.shape;
        SamTape {
            shape: s,
            len: span.len,
            epoch: span.epoch,
            f: &self.f[span.f0..span.f0 + span.len * s.f_step()],
            u: &self.u[span.u0..span.u0 + span.len * s.u_step()],
        }
    }

    /// One exclusive tape per sequence, in input order — disjoint slices,
    /// so phase-A workers fill them concurrently.
    pub fn tapes_mut(&mut self) -> Vec<SamTapeMut<'_>> {
        let s = self.shape;
        let (mut f, mut u) = (self.f.as_mut_slice(), self.u.as_mut_slice());
        self.spans
            .iter_mut()
            .map(|span| {
                let (ft, fr) = std::mem::take(&mut f).split_at_mut(span.len * s.f_step());
                let (ut, ur) = std::mem::take(&mut u).split_at_mut(span.len * s.u_step());
                (f, u) = (fr, ur);
                SamTapeMut {
                    shape: s,
                    span,
                    f: ft,
                    u: ut,
                }
            })
            .collect()
    }
}

/// Exclusive access to one sequence's tape, for the forward to fill.
#[derive(Debug)]
pub struct SamTapeMut<'a> {
    shape: TapeShape,
    span: &'a mut Span,
    f: &'a mut [f64],
    u: &'a mut [u32],
}

/// The `T × width` blocks of a tape being written.
pub(crate) struct TapeFields<'a> {
    pub z: &'a mut [f64],
    pub gates: &'a mut [f64],
    pub ccat: &'a mut [f64],
    pub c_his: &'a mut [f64],
    pub c: &'a mut [f64],
    pub tanh_c: &'a mut [f64],
    pub attn: &'a mut [f64],
    pub local: &'a mut [f64],
    pub ids: &'a mut [u32],
    pub klen: &'a mut [u32],
}

impl SamTapeMut<'_> {
    pub(crate) fn shape(&self) -> TapeShape {
        self.shape
    }

    pub(crate) fn len(&self) -> usize {
        self.span.len
    }

    /// Splits the span into its blocks and stamps it with the epoch of
    /// the memory the forward is about to read.
    pub(crate) fn fields(&mut self, epoch: u64) -> TapeFields<'_> {
        let (s, t) = (self.shape, self.span.len);
        self.span.epoch = epoch;
        let mut rest = &mut *self.f;
        let mut cut = |width: usize| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(t * width);
            rest = tail;
            head
        };
        let (ids, klen) = self.u.split_at_mut(t * s.kmax);
        TapeFields {
            z: cut(s.zlen),
            gates: cut(5 * s.d),
            ccat: cut(2 * s.d),
            c_his: cut(s.d),
            c: cut(s.d),
            tanh_c: cut(s.d),
            attn: cut(s.kmax),
            local: cut(s.d),
            ids,
            klen,
        }
    }
}

/// A recorded tape of one sequence.
#[derive(Debug, Clone, Copy)]
pub struct SamTape<'a> {
    shape: TapeShape,
    len: usize,
    epoch: u64,
    f: &'a [f64],
    u: &'a [u32],
}

impl<'a> SamTape<'a> {
    /// Number of recorded timesteps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tape holds no steps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn shape(&self) -> TapeShape {
        self.shape
    }

    /// Memory epoch the forward ran under.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The whole `T × width` block starting `before` widths-per-step into
    /// the span.
    fn block(&self, before: usize, width: usize) -> &'a [f64] {
        &self.f[self.len * before..self.len * (before + width)]
    }

    fn step(&self, before: usize, width: usize, t: usize) -> &'a [f64] {
        &self.block(before, width)[t * width..(t + 1) * width]
    }

    /// `Z`, `T × zlen`.
    pub(crate) fn z_all(&self) -> &'a [f64] {
        self.block(0, self.shape.zlen)
    }

    /// Activated gates of step `t`, `5d`.
    pub(crate) fn gates(&self, t: usize) -> &'a [f64] {
        self.step(self.shape.zlen, 5 * self.shape.d, t)
    }

    /// `[ĉ; mix]` of every step, `T × 2d`.
    pub(crate) fn ccat_all(&self) -> &'a [f64] {
        self.block(self.shape.zlen + 5 * self.shape.d, 2 * self.shape.d)
    }

    pub(crate) fn c_his(&self, t: usize) -> &'a [f64] {
        self.step(self.shape.zlen + 7 * self.shape.d, self.shape.d, t)
    }

    pub(crate) fn c(&self, t: usize) -> &'a [f64] {
        self.step(self.shape.zlen + 8 * self.shape.d, self.shape.d, t)
    }

    pub(crate) fn tanh_c(&self, t: usize) -> &'a [f64] {
        self.step(self.shape.zlen + 9 * self.shape.d, self.shape.d, t)
    }

    /// Attention-window size `K_t` of step `t` (clipped at grid borders).
    pub fn window_size(&self, t: usize) -> usize {
        self.u[self.len * self.shape.kmax + t] as usize
    }

    /// Post-softmax attention weights of step `t`.
    pub fn attn(&self, t: usize) -> &'a [f64] {
        let s = self.shape;
        &self.step(s.zlen + 10 * s.d, s.kmax, t)[..self.window_size(t)]
    }

    /// Row ids of step `t`'s window, in window order.
    pub(crate) fn ids(&self, t: usize) -> &'a [u32] {
        &self.u[t * self.shape.kmax..][..self.window_size(t)]
    }

    /// The sequence-local rows, `T × d`.
    fn local(&self) -> &'a [f64] {
        self.block(
            self.shape.zlen + 10 * self.shape.d + self.shape.kmax,
            self.shape.d,
        )
    }

    /// The row `id` names: a memory row, or one of this tape's local rows.
    #[inline]
    pub(crate) fn row(&self, memory: &'a SpatialMemory, id: u32) -> &'a [f64] {
        named_row(memory, self.local(), id)
    }
}

/// The `memory.dim()`-wide row a window id names: row `id` of the memory,
/// or — with [`LOCAL_ROW`] set — that row of a tape's `local` block.
#[inline]
pub(crate) fn named_row<'a>(memory: &'a SpatialMemory, local: &'a [f64], id: u32) -> &'a [f64] {
    let d = memory.dim();
    if id & LOCAL_ROW == 0 {
        &memory.all_rows()[id as usize * d..][..d]
    } else {
        &local[(id & !LOCAL_ROW) as usize * d..][..d]
    }
}
