//! The SAM-augmented LSTM (§IV-B, §IV-C) — the paper's first novel module.
//!
//! Relative to a standard LSTM the unit adds:
//!
//! * a fourth sigmoid gate, the **spatial gate** `s_t` (Eq. 1);
//! * an attention **read** over the memory window around the current grid
//!   cell, producing the historical state `c_t^his`, blended into the cell
//!   state as `c_t = ĉ_t + s_t ⊙ c_t^his` (Eq. 4);
//! * a gated sparse **write** of `c_t` back into the memory slot of the
//!   current cell: `M(X_g) ← σ(s_t)·c_t + (1-σ(s_t))·M(X_g)` (§IV-C.2;
//!   note the paper applies σ to the already-activated gate, which keeps
//!   write weights in (0.5, 0.73) — we follow the paper text literally).
//!
//! Gradients flow through the read path (attention weights depend on
//! `ĉ_t`) but the gathered memory rows `G_t` are treated as constants and
//! writes are not backpropagated — see the crate docs.
//!
//! # Reading and writing the memory
//!
//! The one forward, [`SamLstmCell::forward_batch`], reads an immutable
//! memory, so many threads may share one. Without recording it is
//! inference. Recording, it is phase A of the two-phase training
//! protocol: every sequence fills its tape and records its writes into a
//! [`WriteLog`] of its own, and sees its own pending writes as local rows
//! of its tape, so within-sequence read-after-write semantics stay
//! intact. Phase B ([`SamLstmEncoder::commit`]) replays the logs in input
//! order on one thread. A sequential writing forward is the same thing
//! with the commit right behind it — a batch of one.
//!
//! # The tape
//!
//! A recording forward fills a [`SamTape`](crate::tape::SamTape): per
//! step the usual activations and, for the attention window, the **ids**
//! of the rows it read — not the rows. Every forward, recording or not,
//! scores and mixes the rows where they lie ([`crate::simd::dot_rows`]),
//! and the backward pass reads the same ids, so it needs the memory too.
//! The memory keeps named rows unchanged until its epoch ends (see
//! [`crate::SpatialMemory`]).

use crate::activation::{sigmoid_slice, tanh_slice};
use crate::linalg::{
    activate_gates, add_assign, axpy, dot, softmax_backward, softmax_inplace, Mat, PackedNt,
};
use crate::memory::{SpatialMemory, WriteLog, LOCAL_ROW};
use crate::simd::dot_rows;
use crate::tape::{named_row, SamTape, SamTapeMut, SamTapes, TapeFields, TapeShape};
use crate::workspace::{lockstep, prep, scratch, Workspace};
use neutraj_obs::simd::SimdLevel;

/// One borrowed sequence for [`SamLstmCell::forward_batch`]: normalized
/// coordinates plus the `(col, row)` grid cell of every point.
pub type SamSeqRef<'a> = (&'a [(f64, f64)], &'a [(u32, u32)]);

/// Parameters of the SAM-augmented LSTM cell.
///
/// `p` fuses the five weight blocks of Eqs. 1–2 into one
/// `(5d) × (d + 3)` matrix over `z = [x; y; h_{t-1}; 1]`; row blocks in
/// order: forget `f`, input `i`, spatial `s`, output `o` (sigmoid) and
/// candidate `g` (tanh). `w_his`/`b_his` are the attention projection of
/// §IV-C.1 (`d × 2d` and `d`).
#[derive(Debug, Clone)]
pub struct SamLstmCell {
    dim: usize,
    /// Fused recurrent weights.
    pub p: Mat,
    /// Attention projection weights (`W_his`).
    pub w_his: Mat,
    /// Attention projection bias (`b_his`).
    pub b_his: Vec<f64>,
}

/// Gradients of a [`SamLstmCell`].
#[derive(Debug, Clone)]
pub struct SamGrads {
    /// Gradient of the fused recurrent weights.
    pub p: Mat,
    /// Gradient of `W_his`.
    pub w_his: Mat,
    /// Gradient of `b_his`.
    pub b_his: Vec<f64>,
}

impl SamGrads {
    /// Zero gradients shaped like `cell`.
    pub fn zeros_like(cell: &SamLstmCell) -> Self {
        Self {
            p: Mat::zeros(cell.p.rows(), cell.p.cols()),
            w_his: Mat::zeros(cell.w_his.rows(), cell.w_his.cols()),
            b_his: vec![0.0; cell.b_his.len()],
        }
    }

    /// Resets all gradients to zero.
    pub fn fill_zero(&mut self) {
        self.p.fill_zero();
        self.w_his.fill_zero();
        self.b_his.fill(0.0);
    }

    /// Accumulates another gradient buffer into this one (used to merge
    /// per-group partial gradients in a fixed order).
    pub fn merge(&mut self, other: &SamGrads) {
        self.p.add_from(&other.p);
        self.w_his.add_from(&other.w_his);
        crate::linalg::add_assign(&mut self.b_his, &other.b_his);
    }
}

/// The attention read of §IV-C.1 at cell `(col, row)`, half-width `w`:
/// names the window's rows in `ids` and scores them against `ĉ` where
/// they lie; with `own` — a sequence's write log and the local rows it has
/// filled — puts that sequence's pending writes over the cells it has
/// touched and scores those; then `attn ← softmax(scores)` and
/// `mix ← Σ_k attn_k·row_k`, row by row in window order. Returns `K`, the
/// length of `ids` and `attn` that is used.
#[allow(clippy::too_many_arguments)]
fn read_window(
    level: SimdLevel,
    memory: &SpatialMemory,
    own: Option<(&WriteLog, &[f64])>,
    (col, row, w): (u32, u32, u32),
    c_hat: &[f64],
    ids: &mut [u32],
    attn: &mut [f64],
    mix: &mut [f64],
) -> usize {
    let d = c_hat.len();
    let kwin = memory.window_ids(col, row, w, ids);
    let (ids, attn) = (&mut ids[..kwin], &mut attn[..kwin]);
    dot_rows(level, c_hat, memory.all_rows(), ids, attn);
    let local = match own {
        Some((log, local)) => {
            log.overlay_ids(memory, col, row, w, ids, |k, at| {
                attn[k] = dot(c_hat, &local[at * d..(at + 1) * d]);
            });
            local
        }
        None => &[],
    };
    finish_attention(attn);
    mix.fill(0.0);
    for (&id, &av) in ids.iter().zip(attn.iter()) {
        axpy(mix, av, named_row(memory, local, id));
    }
    kwin
}

/// Scores of named rows ([`dot_rows`], [`dot`]) to attention weights.
/// Both fold from `−0.0` where a GEMM accumulator
/// ([`crate::linalg::matmul_nt`]) starts at `+0.0`; the sums differ only
/// when every product is `−0.0`, and adding `+0.0` maps exactly that case
/// onto the GEMM's result (a GEMM sum is never `−0.0`), so a window scores
/// as the product `ĉ·Gᵀ` would. **Scores start at `+0.0`**.
fn finish_attention(scores: &mut [f64]) {
    for s in scores.iter_mut() {
        *s += 0.0;
    }
    softmax_inplace(scores);
}

impl SamLstmCell {
    /// New cell with Xavier weights, zero biases, forget bias 1 and
    /// spatial-gate bias −2.
    ///
    /// The negative spatial bias starts the unit close to a plain LSTM
    /// (`s_t ≈ 0.12`): early in training the memory holds embeddings
    /// produced by near-random parameters, and reading them at half
    /// strength (σ(0) = 0.5) injects enough noise to slow convergence.
    /// The gate learns to open as the memory becomes informative.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0);
        let mut p = Mat::xavier(5 * dim, dim + 3, seed);
        let bias_col = dim + 2;
        for r in 0..5 * dim {
            *p.get_mut(r, bias_col) = 0.0;
        }
        for r in 0..dim {
            *p.get_mut(r, bias_col) = 1.0; // forget gate block
        }
        for r in 2 * dim..3 * dim {
            *p.get_mut(r, bias_col) = -2.0; // spatial gate block
        }
        Self {
            dim,
            p,
            w_his: Mat::xavier(dim, 2 * dim, seed ^ 0xA5A5_5A5A),
            b_his: vec![0.0; dim],
        }
    }

    /// Hidden dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.p.rows() * self.p.cols() + self.w_his.rows() * self.w_his.cols() + self.b_his.len()
    }

    fn tape_shape(&self, scan_width: u32) -> TapeShape {
        TapeShape::new(self.dim, scan_width)
    }

    /// Lays `tapes` out for a batch of sequences of the given lengths
    /// under this cell's shape (see [`SamTapes`]).
    pub fn layout_tapes(
        &self,
        tapes: &mut SamTapes,
        scan_width: u32,
        lens: impl Iterator<Item = usize>,
    ) {
        tapes.layout(self.tape_shape(scan_width), lens);
    }

    /// The recurrent pass over many sequences in lockstep (the `lockstep`
    /// loop of `workspace.rs`). Each timestep runs two GEMMs over the
    /// active prefix — the fused gates (`(active × zlen)·Pᵀ`) and the
    /// attention projection (`(active × 2d)·W_hisᵀ`), both over weight
    /// panels packed once per call (`linalg::PackedNt`) — and each `tanh`
    /// over the whole active block, while each slot's attention read
    /// scores the memory's own rows (nothing is gathered). Returns the
    /// final hidden states in input order; a sequence's state depends on
    /// that sequence (and the memory) alone, whatever else is in the batch.
    ///
    /// The memory is only read. With `record` — one tape span (laid out
    /// for the sequence's length by [`Self::layout_tapes`]) and one write
    /// log per sequence, in input order — the pass is phase A of training:
    /// each step is taped into its sequence's span, each log is cleared
    /// and then receives its sequence's gated writes (§IV-C.2), and a
    /// sequence's reads see its own pending writes. Commit the logs in
    /// input order to apply them. Panics on empty sequences, coord/cell
    /// length mismatch, or tapes laid out for other lengths or another
    /// cell.
    pub fn forward_batch(
        &self,
        seqs: &[SamSeqRef<'_>],
        memory: &SpatialMemory,
        scan_width: u32,
        record: Option<(&mut [SamTapeMut<'_>], &mut [WriteLog])>,
        ws: &mut Workspace,
    ) -> Vec<Vec<f64>> {
        for (coords, cells) in seqs {
            assert_eq!(coords.len(), cells.len(), "coords/cells length mismatch");
        }
        assert_eq!(memory.dim(), self.dim, "memory dim mismatch");
        let shape = self.tape_shape(scan_width);
        let (d, zlen, kmax) = (shape.d, shape.zlen, shape.kmax);
        let b = seqs.len();
        let mut record = record.map(|(tapes, logs)| {
            assert_eq!(tapes.len(), b, "one tape per sequence");
            assert_eq!(logs.len(), b, "one write log per sequence");
            logs.iter_mut().for_each(WriteLog::clear);
            let fields: Vec<TapeFields<'_>> = tapes
                .iter_mut()
                .zip(seqs)
                .map(|(tape, (coords, _))| {
                    assert_eq!(tape.len(), coords.len(), "tape laid out for another length");
                    assert_eq!(tape.shape(), shape, "tape laid out for another cell");
                    tape.fields(memory.epoch())
                })
                .collect();
            (fields, logs)
        });
        let Workspace {
            bh,
            bz,
            bc,
            bgates,
            bcat,
            bhis,
            t1,
            ids,
            win,
            panels,
            panels2,
            ..
        } = ws;
        let level = neutraj_obs::simd::level();
        let p = PackedNt::new(&self.p, b, panels);
        let w_his = PackedNt::new(&self.w_his, b, panels2);
        let c = prep(bc, b * d);
        let gates = prep(bgates, b * 5 * d);
        let ccat = prep(bcat, b * 2 * d);
        let c_his = prep(bhis, b * d);
        let write_w = prep(t1, d);
        let (ids, attn) = (scratch(ids, kmax), prep(win, kmax));
        let step = |t: usize, slots: &[usize], z: &[f64], h: &mut [f64]| {
            let active = slots.len();
            p.matmul(level, z, &mut gates[..active * 5 * d], active);
            for (s, &i) in slots.iter().enumerate() {
                let a = &mut gates[s * 5 * d..(s + 1) * 5 * d];
                activate_gates(a, 4 * d);
                let (gf, gi, gg) = (&a[..d], &a[d..2 * d], &a[4 * d..]);
                // Eq. 3: intermediate cell state, then the read (§IV-C.1)
                // into the other half of `[ĉ; mix]`.
                let (ch, mx) = ccat[s * 2 * d..(s + 1) * 2 * d].split_at_mut(d);
                let cs = &c[s * d..(s + 1) * d];
                for k in 0..d {
                    ch[k] = gf[k] * cs[k] + gi[k] * gg[k];
                }
                let (col, row) = seqs[i].1[t];
                let at = (col, row, scan_width);
                match &mut record {
                    Some((fields, logs)) => {
                        let f = &mut fields[i];
                        let own = Some((&logs[i], &f.local[..t * d]));
                        let span = t * kmax..(t + 1) * kmax;
                        let (ids, attn) = (&mut f.ids[span.clone()], &mut f.attn[span]);
                        f.klen[t] = read_window(level, memory, own, at, ch, ids, attn, mx) as u32;
                    }
                    None => {
                        read_window(level, memory, None, at, ch, ids, attn, mx);
                    }
                }
            }
            w_his.matmul(
                level,
                &ccat[..active * 2 * d],
                &mut c_his[..active * d],
                active,
            );
            // Each transcendental runs over the whole active block.
            let (n, his) = (active * d, &mut c_his[..active * d]);
            for row in his.chunks_exact_mut(d) {
                add_assign(row, &self.b_his);
            }
            tanh_slice(his);
            // Eq. 4: blend; Eq. 6: hidden state.
            for s in 0..active {
                let gs_gate = &gates[s * 5 * d + 2 * d..s * 5 * d + 3 * d];
                for k in 0..d {
                    c[s * d + k] = ccat[s * 2 * d + k] + gs_gate[k] * his[s * d + k];
                }
            }
            h.copy_from_slice(&c[..n]);
            tanh_slice(h);
            for (s, &i) in slots.iter().enumerate() {
                let (a, hs) = (
                    &gates[s * 5 * d..(s + 1) * 5 * d],
                    &mut h[s * d..(s + 1) * d],
                );
                if let Some((fields, logs)) = &mut record {
                    // Tape the step (`hs` is `tanh c` yet), then the write
                    // (§IV-C.2), outside the gradient tape.
                    let (f, cs) = (&mut fields[i], &c[s * d..(s + 1) * d]);
                    f.z[t * zlen..(t + 1) * zlen].copy_from_slice(&z[s * zlen..(s + 1) * zlen]);
                    f.gates[t * 5 * d..(t + 1) * 5 * d].copy_from_slice(a);
                    f.ccat[t * 2 * d..(t + 1) * 2 * d]
                        .copy_from_slice(&ccat[s * 2 * d..(s + 1) * 2 * d]);
                    f.c_his[t * d..(t + 1) * d].copy_from_slice(&his[s * d..(s + 1) * d]);
                    f.c[t * d..(t + 1) * d].copy_from_slice(cs);
                    f.tanh_c[t * d..(t + 1) * d].copy_from_slice(hs);
                    write_w.copy_from_slice(&a[2 * d..3 * d]);
                    sigmoid_slice(write_w);
                    let (col, row) = seqs[i].1[t];
                    logs[i].record(memory, col, row, write_w, cs, f.local);
                }
                for (hv, &o) in hs.iter_mut().zip(&a[3 * d..4 * d]) {
                    *hv *= o;
                }
            }
        };
        lockstep(b, |i| seqs[i].0, d, bh, bz, step)
    }

    /// BPTT from the gradient of the final hidden state, accumulating
    /// parameter gradients into `grads`, using `ws` for all scratch.
    ///
    /// `memory` is the one the forward read: the tape names its rows.
    /// Panics when the memory has left the epoch the tape was recorded
    /// under — the rows it names have been folded away, reset or edited,
    /// and reading whatever lies there now would be silently wrong.
    ///
    /// The per-step gate and attention-projection gradients `da_t`,
    /// `dpre_his_t` are kept for the whole sequence and the weight
    /// gradients applied once at the end, `dP += Σ_t da_t ⊗ z_t` and
    /// `dW_his += Σ_t dpre_his_t ⊗ [ĉ_t; mix_t]`, as ordered GEMMs
    /// ([`Mat::outer_acc_rows_rev`]): each gradient element receives the
    /// terms it used to, in the order the step loop walks (last step
    /// first), only without a trip through memory per step.
    pub fn backward(
        &self,
        tape: SamTape<'_>,
        memory: &SpatialMemory,
        d_h_final: &[f64],
        grads: &mut SamGrads,
        ws: &mut Workspace,
    ) {
        let d = self.dim;
        assert_eq!(d_h_final.len(), d);
        assert_eq!(tape.shape().d, d, "cache dim mismatch");
        assert_eq!(
            tape.epoch(),
            memory.epoch(),
            "SAM tape used after the batch that recorded it ended \
             (the memory rows it names were folded, reset or edited)"
        );
        let level = neutraj_obs::simd::level();
        let steps = tape.len();
        let dh = prep(&mut ws.h, d);
        dh.copy_from_slice(d_h_final);
        let dc = prep(&mut ws.c, d);
        let da_all = scratch(&mut ws.da_all, steps * 5 * d);
        let dpre_all = scratch(&mut ws.dpre_all, steps * d);
        let dccat = prep(&mut ws.dcat, 2 * d);
        let d_c_hat = prep(&mut ws.t2, d);
        let d_s = prep(&mut ws.t3, d);
        let d_o = prep(&mut ws.t4, d);
        for t in (0..steps).rev() {
            let gates = tape.gates(t);
            let (gf, gi, gs, go, gg) = (
                &gates[..d],
                &gates[d..2 * d],
                &gates[2 * d..3 * d],
                &gates[3 * d..4 * d],
                &gates[4 * d..],
            );
            let tanh_c = tape.tanh_c(t);
            let c_his = tape.c_his(t);
            let c_prev: Option<&[f64]> = if t > 0 { Some(tape.c(t - 1)) } else { None };
            let da = &mut da_all[t * 5 * d..(t + 1) * 5 * d];
            let dpre_his = &mut dpre_all[t * d..(t + 1) * d];
            // h = o ⊙ tanh(c); c = ĉ + s ⊙ c_his;
            // c_his = tanh(W_his·ccat + b_his).
            for k in 0..d {
                d_o[k] = dh[k] * tanh_c[k];
                let d_c_total = dc[k] + dh[k] * go[k] * (1.0 - tanh_c[k] * tanh_c[k]);
                d_c_hat[k] = d_c_total;
                d_s[k] = d_c_total * c_his[k];
                dpre_his[k] = d_c_total * gs[k] * (1.0 - c_his[k] * c_his[k]);
            }
            add_assign(&mut grads.b_his, dpre_his);
            self.w_his
                .matvec_t_cols_into_with_level(level, dpre_his, 0, dccat);
            for k in 0..d {
                d_c_hat[k] += dccat[k];
            }
            let d_mix = &dccat[d..2 * d];
            // mix = Gᵀ A ⇒ dA[k] = G[k]·dmix, over the rows the forward
            // named: memory rows in one call, local rows one by one.
            let ids = tape.ids(t);
            let kwin = ids.len();
            let mem_ids = scratch(&mut ws.ids, kwin);
            for (m, &id) in mem_ids.iter_mut().zip(ids) {
                *m = if id & LOCAL_ROW == 0 { id } else { 0 };
            }
            let d_attn = prep(&mut ws.win, kwin);
            dot_rows(level, d_mix, memory.all_rows(), mem_ids, d_attn);
            for (da_k, &id) in d_attn.iter_mut().zip(ids) {
                if id & LOCAL_ROW != 0 {
                    *da_k = dot(d_mix, tape.row(memory, id));
                }
                // A GEMM row starts at +0.0 (see `finish_attention`).
                *da_k += 0.0;
            }
            // A = softmax(scores).
            let d_scores = prep(&mut ws.win2, kwin);
            softmax_backward(tape.attn(t), d_attn, d_scores);
            // scores[k] = G[k]·ĉ ⇒ dĉ += Σ d_scores[k]·G[k].
            for (&id, &dsv) in ids.iter().zip(d_scores.iter()) {
                if dsv == 0.0 {
                    continue;
                }
                let row_k = tape.row(memory, id);
                for k in 0..d {
                    d_c_hat[k] += dsv * row_k[k];
                }
            }
            // ĉ = f ⊙ c_prev + i ⊙ g.
            for k in 0..d {
                let cp = c_prev.map_or(0.0, |c| c[k]);
                let d_f = d_c_hat[k] * cp;
                let d_i = d_c_hat[k] * gg[k];
                let d_g = d_c_hat[k] * gi[k];
                dc[k] = d_c_hat[k] * gf[k]; // dc for step t-1
                da[k] = d_f * gf[k] * (1.0 - gf[k]);
                da[d + k] = d_i * gi[k] * (1.0 - gi[k]);
                da[2 * d + k] = d_s[k] * gs[k] * (1.0 - gs[k]);
                da[3 * d + k] = d_o[k] * go[k] * (1.0 - go[k]);
                da[4 * d + k] = d_g * (1.0 - gg[k] * gg[k]);
            }
            self.p.matvec_t_cols_into_with_level(level, da, 2, dh);
        }
        grads
            .w_his
            .outer_acc_rows_rev_with_level(level, dpre_all, tape.ccat_all());
        grads
            .p
            .outer_acc_rows_rev_with_level(level, da_all, tape.z_all());
    }
}

/// Full SAM encoder: cell + its spatial memory + scan width, and the
/// tape storage of the training batch in flight.
#[derive(Debug)]
pub struct SamLstmEncoder {
    /// The recurrent cell.
    pub cell: SamLstmCell,
    /// The spatial memory tensor **M**.
    pub memory: SpatialMemory,
    /// Scan half-width `w` (paper's optimum: 2).
    pub scan_width: u32,
    /// BPTT tapes of the current training batch ([`Self::begin_batch`]),
    /// reused from batch to batch. Empty outside training.
    pub tapes: SamTapes,
}

/// A clone is the model — parameters and memory — without the batch in
/// flight: tapes belong to the encoder that recorded them.
impl Clone for SamLstmEncoder {
    fn clone(&self) -> Self {
        Self {
            cell: self.cell.clone(),
            memory: self.memory.clone(),
            scan_width: self.scan_width,
            tapes: SamTapes::default(),
        }
    }
}

impl SamLstmEncoder {
    /// New encoder over a `cols × rows` grid.
    pub fn new(dim: usize, cols: usize, rows: usize, scan_width: u32, seed: u64) -> Self {
        Self {
            cell: SamLstmCell::new(dim, seed),
            memory: SpatialMemory::new(cols, rows, dim),
            scan_width,
            tapes: SamTapes::default(),
        }
    }

    /// Starts a training batch over sequences of the given lengths: the
    /// previous batch ends — its version rows are folded into the dense
    /// memory layout and its tapes die — and [`Self::tapes`] is laid out
    /// anew, one span per sequence in input order. Phase-A workers then
    /// fill [`SamTapes::tapes_mut`] and their write logs through a
    /// recording [`SamLstmCell::forward_batch`] against [`Self::memory`],
    /// and [`Self::commit`] applies the logs in input order.
    pub fn begin_batch(&mut self, lens: impl Iterator<Item = usize>) {
        self.memory.fold();
        self.cell
            .layout_tapes(&mut self.tapes, self.scan_width, lens);
    }

    /// Ends training: folds the last batch's version rows and frees the
    /// tape storage. What readers see does not change — only what the
    /// encoder holds on to.
    pub fn end_training(&mut self) {
        self.memory.fold();
        self.tapes.release();
    }

    /// Phase B: replays a sequence's buffered writes against the live
    /// memory. Call once per sequence, in batch input order.
    pub fn commit(&mut self, log: &WriteLog) {
        self.memory.commit(log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use crate::linalg::dot;
    use crate::workspace::lockstep_tests;

    type ToySeq = (Vec<(f64, f64)>, Vec<(u32, u32)>);

    fn toy_seq() -> ToySeq {
        let coords = vec![(0.5, 0.5), (1.4, 0.6), (2.5, 1.5), (3.1, 2.2)];
        let cells = vec![(0, 0), (1, 0), (2, 1), (3, 2)];
        (coords, cells)
    }

    /// `toy_seq`'s coordinates over cells no window of half-width ≤ 2 of
    /// it reaches from a later one: the sequence never reads its own
    /// writes, so its tape is the whole derivative of its output.
    fn detached_seq() -> ToySeq {
        (toy_seq().0, vec![(0, 0), (3, 0), (0, 3), (3, 3)])
    }

    /// One sequence through the recording [`SamLstmCell::forward_batch`]
    /// into a tape set of its own, its writes committed right behind it
    /// (as version rows — the tape stays valid): the sequential writing
    /// pass.
    fn run_ws(
        cell: &SamLstmCell,
        coords: &[(f64, f64)],
        cells: &[(u32, u32)],
        memory: &mut SpatialMemory,
        scan_width: u32,
        ws: &mut Workspace,
    ) -> (Vec<f64>, SamTapes) {
        let mut tapes = SamTapes::default();
        cell.layout_tapes(&mut tapes, scan_width, std::iter::once(coords.len()));
        let mut log = WriteLog::new();
        let mut spans = tapes.tapes_mut();
        let record = Some((&mut spans[..], std::slice::from_mut(&mut log)));
        let h = cell.forward_batch(&[(coords, cells)], memory, scan_width, record, ws);
        drop(spans);
        memory.commit(&log);
        (h.into_iter().next().unwrap(), tapes)
    }

    /// [`run_ws`] with a fresh workspace.
    fn run(
        cell: &SamLstmCell,
        coords: &[(f64, f64)],
        cells: &[(u32, u32)],
        memory: &mut SpatialMemory,
        scan_width: u32,
    ) -> (Vec<f64>, SamTapes) {
        run_ws(
            cell,
            coords,
            cells,
            memory,
            scan_width,
            &mut Workspace::new(),
        )
    }

    /// One sequence through the read-only forward.
    fn read(
        cell: &SamLstmCell,
        (coords, cells): &ToySeq,
        memory: &SpatialMemory,
        w: u32,
    ) -> Vec<f64> {
        let seq = [(coords.as_slice(), cells.as_slice())];
        let ws = &mut Workspace::new();
        cell.forward_batch(&seq, memory, w, None, ws).pop().unwrap()
    }

    /// An encoder's cell, memory and scan width: [`run`] with `write`,
    /// else [`read`].
    fn run_enc(enc: &mut SamLstmEncoder, seq: &ToySeq, write: bool) -> Vec<f64> {
        if write {
            run(&enc.cell, &seq.0, &seq.1, &mut enc.memory, enc.scan_width).0
        } else {
            read(&enc.cell, seq, &enc.memory, enc.scan_width)
        }
    }

    fn backward(
        cell: &SamLstmCell,
        tapes: &SamTapes,
        mem: &SpatialMemory,
        d_h: &[f64],
    ) -> SamGrads {
        let mut grads = SamGrads::zeros_like(cell);
        cell.backward(tapes.tape(0), mem, d_h, &mut grads, &mut Workspace::new());
        grads
    }

    fn warmed_memory(dim: usize) -> SpatialMemory {
        // A memory with non-trivial contents so the attention read has
        // signal (an all-zero memory makes G constant-zero and hides bugs).
        let mut m = SpatialMemory::new(6, 6, dim);
        for col in 0..6u32 {
            for row in 0..6u32 {
                let v: Vec<f64> = (0..dim)
                    .map(|k| ((col + 2 * row) as f64 * 0.1 + k as f64 * 0.05).sin() * 0.5)
                    .collect();
                m.write(col, row, &[1.0; 64][..dim], &v);
            }
        }
        m
    }

    #[test]
    fn forward_shapes() {
        let (coords, cells) = toy_seq();
        let mut enc = SamLstmEncoder::new(8, 6, 6, 2, 1);
        let (h, tapes) = run(&enc.cell, &coords, &cells, &mut enc.memory, 2);
        assert_eq!(h.len(), 8);
        assert_eq!(tapes.points(), 4);
        assert!(h.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn writes_change_memory_reads_do_not() {
        let seq = toy_seq();
        let mut enc = SamLstmEncoder::new(4, 6, 6, 1, 2);
        assert_eq!(enc.memory.occupancy(), 0.0);
        let _ = run_enc(&mut enc, &seq, false);
        assert_eq!(enc.memory.occupancy(), 0.0, "read-only pass wrote");
        let _ = run_enc(&mut enc, &seq, true);
        assert!(enc.memory.occupancy() > 0.0, "training pass did not write");
    }

    #[test]
    fn memory_contents_influence_embedding() {
        let seq = toy_seq();
        let mut enc = SamLstmEncoder::new(4, 6, 6, 1, 3);
        let h_cold = run_enc(&mut enc, &seq, false);
        enc.memory = warmed_memory(4);
        let h_warm = run_enc(&mut enc, &seq, false);
        assert_ne!(h_cold, h_warm, "memory had no effect on the embedding");
    }

    #[test]
    fn scan_width_zero_reads_single_cell() {
        let (coords, cells) = toy_seq();
        let mut enc = SamLstmEncoder::new(4, 6, 6, 0, 4);
        enc.memory = warmed_memory(4);
        let (h, tapes) = run(&enc.cell, &coords, &cells, &mut enc.memory, 0);
        let tape = tapes.tape(0);
        assert_eq!(h.len(), 4);
        assert!((0..tape.len()).all(|t| tape.window_size(t) == 1));
        // Softmax over one score is exactly 1.
        assert!((0..tape.len()).all(|t| (tape.attn(t)[0] - 1.0).abs() < 1e-15));
    }

    /// The tape as it was before row ids — every step's window copied out
    /// (`g_rows`, 25 rows a step), the memory written in place behind each
    /// step, and the weight gradients applied as one rank-1 sweep per step
    /// — kept as the oracle the id tape, the reused tape storage and the
    /// ordered-GEMM gradients are checked against, bit for bit.
    mod oracle {
        use super::super::*;
        use crate::linalg::matmul_nt;
        use crate::workspace::lockstep_tests::bits;

        pub struct CopyTape {
            len: usize,
            zlen: usize,
            z: Vec<f64>,
            gates: Vec<f64>,
            c_hat: Vec<f64>,
            c: Vec<f64>,
            tanh_c: Vec<f64>,
            mix: Vec<f64>,
            c_his: Vec<f64>,
            k_off: Vec<usize>,
            g_rows: Vec<f64>,
            pub attn: Vec<f64>,
        }

        impl CopyTape {
            pub fn attn(&self, t: usize) -> &[f64] {
                &self.attn[self.k_off[t]..self.k_off[t + 1]]
            }

            /// `h`, then every step's fields, as bits — laid out like
            /// [`super::tape_bits`] lays out an id tape.
            pub fn bits(&self, h: &[f64]) -> Vec<u64> {
                let (zlen, d) = (self.zlen, self.zlen - 3);
                let mut parts: Vec<&[f64]> = vec![h];
                for t in 0..self.len {
                    let (k0, k1) = (self.k_off[t], self.k_off[t + 1]);
                    parts.extend([
                        &self.z[t * zlen..(t + 1) * zlen],
                        &self.gates[t * 5 * d..(t + 1) * 5 * d],
                        &self.c_hat[t * d..(t + 1) * d],
                        &self.mix[t * d..(t + 1) * d],
                        &self.c_his[t * d..(t + 1) * d],
                        &self.c[t * d..(t + 1) * d],
                        &self.tanh_c[t * d..(t + 1) * d],
                        &self.attn[k0..k1],
                        &self.g_rows[k0 * d..k1 * d],
                    ]);
                }
                bits(parts)
            }
        }

        /// Sequential forward over `memory`; `write` mutates it in place
        /// after every step, so later steps read the sequence's own writes.
        pub fn forward(
            cell: &SamLstmCell,
            coords: &[(f64, f64)],
            cells: &[(u32, u32)],
            memory: &mut SpatialMemory,
            scan_width: u32,
            write: bool,
        ) -> (Vec<f64>, CopyTape) {
            let d = cell.dim;
            let zlen = d + 3;
            let mut tape = CopyTape {
                len: 0,
                zlen,
                z: Vec::new(),
                gates: Vec::new(),
                c_hat: Vec::new(),
                c: Vec::new(),
                tanh_c: Vec::new(),
                mix: Vec::new(),
                c_his: Vec::new(),
                k_off: vec![0],
                g_rows: Vec::new(),
                attn: Vec::new(),
            };
            let (mut h, mut c) = (vec![0.0; d], vec![0.0; d]);
            let (mut write_w, mut ccat) = (vec![0.0; d], vec![0.0; 2 * d]);
            for (t, &(x, y)) in coords.iter().enumerate() {
                let (col, row) = cells[t];
                tape.z.push(x);
                tape.z.push(y);
                tape.z.extend_from_slice(&h);
                tape.z.push(1.0);
                tape.gates.resize((t + 1) * 5 * d, 0.0);
                {
                    let a = &mut tape.gates[t * 5 * d..];
                    cell.p.matvec_into(&tape.z[t * zlen..(t + 1) * zlen], a);
                    activate_gates(a, 4 * d);
                }
                let a = &tape.gates[t * 5 * d..(t + 1) * 5 * d];
                let (gf, gi, gs, go, gg) = (
                    &a[..d],
                    &a[d..2 * d],
                    &a[2 * d..3 * d],
                    &a[3 * d..4 * d],
                    &a[4 * d..],
                );
                tape.c_hat.resize((t + 1) * d, 0.0);
                {
                    let c_hat = &mut tape.c_hat[t * d..];
                    for k in 0..d {
                        c_hat[k] = gf[k] * c[k] + gi[k] * gg[k];
                    }
                }
                let c_hat = &tape.c_hat[t * d..(t + 1) * d];
                let (g, kwin) = memory.gather(col, row, scan_width);
                tape.g_rows.extend_from_slice(&g);
                let off = *tape.k_off.last().unwrap();
                tape.k_off.push(off + kwin);
                tape.attn.resize(off + kwin, 0.0);
                tape.mix.resize((t + 1) * d, 0.0);
                let (attn, mix) = (&mut tape.attn[off..], &mut tape.mix[t * d..]);
                matmul_nt(c_hat, &g, attn, 1, kwin, d);
                softmax_inplace(attn);
                for (row, &av) in g.chunks_exact(d).zip(attn.iter()) {
                    axpy(mix, av, row);
                }
                ccat[..d].copy_from_slice(c_hat);
                ccat[d..].copy_from_slice(&tape.mix[t * d..(t + 1) * d]);
                tape.c_his.resize((t + 1) * d, 0.0);
                {
                    let c_his = &mut tape.c_his[t * d..];
                    cell.w_his.matvec_into(&ccat, c_his);
                    add_assign(c_his, &cell.b_his);
                    tanh_slice(c_his);
                }
                let c_his = &tape.c_his[t * d..(t + 1) * d];
                for k in 0..d {
                    c[k] = c_hat[k] + gs[k] * c_his[k];
                }
                tape.c.extend_from_slice(&c);
                tape.tanh_c.extend_from_slice(&c);
                let tanh_c = &mut tape.tanh_c[t * d..];
                tanh_slice(tanh_c);
                for k in 0..d {
                    h[k] = go[k] * tanh_c[k];
                }
                if write {
                    write_w.copy_from_slice(gs);
                    sigmoid_slice(&mut write_w);
                    memory.write(col, row, &write_w, &c);
                }
                tape.len += 1;
            }
            (h, tape)
        }

        pub fn backward(cell: &SamLstmCell, tape: &CopyTape, d_h: &[f64], grads: &mut SamGrads) {
            let d = cell.dim;
            let zlen = tape.zlen;
            let mut dh = d_h.to_vec();
            let mut dc = vec![0.0; d];
            let mut da = vec![0.0; 5 * d];
            let mut dz = vec![0.0; zlen];
            let (mut ccat, mut dccat) = (vec![0.0; 2 * d], vec![0.0; 2 * d]);
            let (mut dpre_his, mut d_c_hat) = (vec![0.0; d], vec![0.0; d]);
            let (mut d_s, mut d_o) = (vec![0.0; d], vec![0.0; d]);
            for t in (0..tape.len).rev() {
                let gates = &tape.gates[t * 5 * d..(t + 1) * 5 * d];
                let (gf, gi, gs, go, gg) = (
                    &gates[..d],
                    &gates[d..2 * d],
                    &gates[2 * d..3 * d],
                    &gates[3 * d..4 * d],
                    &gates[4 * d..],
                );
                let tanh_c = &tape.tanh_c[t * d..(t + 1) * d];
                let c_his = &tape.c_his[t * d..(t + 1) * d];
                let c_prev = (t > 0).then(|| &tape.c[(t - 1) * d..t * d]);
                for k in 0..d {
                    d_o[k] = dh[k] * tanh_c[k];
                    let d_c_total = dc[k] + dh[k] * go[k] * (1.0 - tanh_c[k] * tanh_c[k]);
                    d_c_hat[k] = d_c_total;
                    d_s[k] = d_c_total * c_his[k];
                    dpre_his[k] = d_c_total * gs[k] * (1.0 - c_his[k] * c_his[k]);
                }
                ccat[..d].copy_from_slice(&tape.c_hat[t * d..(t + 1) * d]);
                ccat[d..].copy_from_slice(&tape.mix[t * d..(t + 1) * d]);
                grads.w_his.outer_acc(&dpre_his, &ccat);
                add_assign(&mut grads.b_his, &dpre_his);
                dccat.fill(0.0);
                cell.w_his.matvec_t_into(&dpre_his, &mut dccat);
                for k in 0..d {
                    d_c_hat[k] += dccat[k];
                }
                let d_mix = &dccat[d..2 * d];
                let (k0, k1) = (tape.k_off[t], tape.k_off[t + 1]);
                let g_rows = &tape.g_rows[k0 * d..k1 * d];
                let mut d_attn = vec![0.0; k1 - k0];
                matmul_nt(d_mix, g_rows, &mut d_attn, 1, k1 - k0, d);
                let mut d_scores = vec![0.0; k1 - k0];
                softmax_backward(tape.attn(t), &d_attn, &mut d_scores);
                for (ki, &dsv) in d_scores.iter().enumerate() {
                    if dsv == 0.0 {
                        continue;
                    }
                    let row_k = &g_rows[ki * d..(ki + 1) * d];
                    for k in 0..d {
                        d_c_hat[k] += dsv * row_k[k];
                    }
                }
                for k in 0..d {
                    let cp = c_prev.map_or(0.0, |c| c[k]);
                    let d_f = d_c_hat[k] * cp;
                    let d_i = d_c_hat[k] * gg[k];
                    let d_g = d_c_hat[k] * gi[k];
                    dc[k] = d_c_hat[k] * gf[k];
                    da[k] = d_f * gf[k] * (1.0 - gf[k]);
                    da[d + k] = d_i * gi[k] * (1.0 - gi[k]);
                    da[2 * d + k] = d_s[k] * gs[k] * (1.0 - gs[k]);
                    da[3 * d + k] = d_o[k] * go[k] * (1.0 - go[k]);
                    da[4 * d + k] = d_g * (1.0 - gg[k] * gg[k]);
                }
                grads.p.outer_acc(&da, &tape.z[t * zlen..(t + 1) * zlen]);
                dz.fill(0.0);
                cell.p.matvec_t_into(&da, &mut dz);
                dh.copy_from_slice(&dz[2..2 + d]);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn grad_bits(g: &SamGrads) -> [Vec<u64>; 3] {
        [
            bits(g.p.as_slice()),
            bits(g.w_his.as_slice()),
            bits(&g.b_his),
        ]
    }

    /// `h`, then every step of `tape` — the window as the rows its ids
    /// name in `memory` — as bits, laid out like
    /// [`oracle::CopyTape::bits`].
    fn tape_bits(h: &[f64], tape: SamTape<'_>, memory: &SpatialMemory) -> Vec<u64> {
        let TapeShape { d, zlen, .. } = tape.shape();
        let mut parts: Vec<&[f64]> = vec![h];
        for t in 0..tape.len() {
            parts.extend([
                &tape.z_all()[t * zlen..(t + 1) * zlen],
                tape.gates(t),
                &tape.ccat_all()[t * 2 * d..(t + 1) * 2 * d],
                tape.c_his(t),
                tape.c(t),
                tape.tanh_c(t),
                tape.attn(t),
            ]);
            parts.extend(tape.ids(t).iter().map(|&id| tape.row(memory, id)));
        }
        lockstep_tests::bits(parts)
    }

    /// Sequences on the 6×6 grid of `warmed_memory` whose `w = 2` windows
    /// are interior (K = 25), edge (15, 20) and corner (9, 12, 16), that
    /// linger in a cell and cross their own path — so steps read the
    /// sequence's own pending writes — and that overlap each other.
    fn crossing_seqs() -> Vec<ToySeq> {
        let paths: [&[(u32, u32)]; 3] = [
            &[
                (2, 2),
                (2, 2),
                (3, 2),
                (3, 3),
                (2, 3),
                (2, 2),
                (1, 1),
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 2),
                (3, 2),
            ],
            &[
                (5, 5),
                (5, 4),
                (4, 4),
                (3, 3),
                (3, 2),
                (2, 2),
                (2, 1),
                (2, 0),
                (3, 0),
                (3, 0),
            ],
            &[
                (0, 3),
                (1, 3),
                (2, 3),
                (2, 2),
                (2, 3),
                (3, 3),
                (4, 3),
                (5, 3),
                (5, 2),
                (5, 5),
            ],
        ];
        paths
            .iter()
            .enumerate()
            .map(|(i, cells)| {
                let coords = cells
                    .iter()
                    .enumerate()
                    .map(|(t, &(c, r))| {
                        let jitter = 0.07 * (t as f64 + i as f64).sin();
                        (
                            (c as f64 + 0.5 + jitter) / 3.0 - 1.0,
                            (r as f64 + 0.5 - jitter) / 3.0 - 1.0,
                        )
                    })
                    .collect();
                (coords, cells.to_vec())
            })
            .collect()
    }

    fn d_h(d: usize, i: usize) -> Vec<f64> {
        (0..d)
            .map(|k| 0.9 - 0.23 * k as f64 + 0.1 * i as f64)
            .collect()
    }

    /// The id tape against the copied-window tape: same final state, same
    /// attention weights at every step, same three gradients, bit for bit
    /// — with writes (the sequence's own rows overlaid on the windows), at
    /// d ∈ {5, 8, 32}; read-only, which records nothing, the same final
    /// state. The kernels under it are checked per `SimdLevel` in
    /// `linalg`/`simd`; this test runs at the process level, which the
    /// `NEUTRAJ_NO_SIMD=1` leg flips.
    #[test]
    fn id_tape_bit_identical_to_the_copied_window_tape() {
        for d in [5, 8, 32] {
            let cell = SamLstmCell::new(d, 41 + d as u64);
            for (i, seq @ (coords, cells)) in crossing_seqs().iter().enumerate() {
                for write in [false, true] {
                    let mut mem = warmed_memory(d);
                    let mut mem_o = mem.clone();
                    let (h_o, tape_o) = oracle::forward(&cell, coords, cells, &mut mem_o, 2, write);
                    if !write {
                        let h = read(&cell, seq, &mem, 2);
                        assert_eq!(bits(&h), bits(&h_o), "d={d} seq {i} read-only");
                        continue;
                    }
                    let (h, tapes) = run(&cell, coords, cells, &mut mem, 2);
                    let tape = tapes.tape(0);
                    assert_eq!(bits(&h), bits(&h_o), "d={d} seq {i} write={write}");
                    let sizes: Vec<usize> = (0..tape.len()).map(|t| tape.window_size(t)).collect();
                    if i == 0 {
                        assert!(
                            [25, 20, 16, 12, 9].iter().all(|k| sizes.contains(k)),
                            "{sizes:?}"
                        );
                    }
                    for t in 0..tape.len() {
                        assert_eq!(
                            bits(tape.attn(t)),
                            bits(tape_o.attn(t)),
                            "d={d} seq {i} t={t}"
                        );
                    }
                    assert_eq!(mem, mem_o, "memory after the pass, write={write}");
                    let (mut g, mut g_o) =
                        (SamGrads::zeros_like(&cell), SamGrads::zeros_like(&cell));
                    // Accumulate twice: the second pass adds onto non-zero
                    // gradients, like the second sequence of a group.
                    for _ in 0..2 {
                        cell.backward(tape, &mem, &d_h(d, i), &mut g, &mut Workspace::new());
                        oracle::backward(&cell, &tape_o, &d_h(d, i), &mut g_o);
                    }
                    assert_eq!(
                        grad_bits(&g),
                        grad_bits(&g_o),
                        "d={d} seq {i} write={write}"
                    );
                }
            }
        }
    }

    /// The batch protocol on shared tape storage: two sequences of a round
    /// read the round-start snapshot in one lockstep batch, their logs are
    /// committed in order, a later round reads and commits over the same
    /// cells — and only then does the backward run. Every tape must still
    /// read the rows its forward read. Run twice on the same storage: the
    /// second batch reuses (dirty) buffers after a fold.
    #[test]
    fn backward_after_later_rounds_committed_over_the_same_cells() {
        for d in [5, 8, 32] {
            let cell = SamLstmCell::new(d, 7);
            let seqs = crossing_seqs();
            let refs: Vec<SamSeqRef<'_>> = seqs
                .iter()
                .map(|(c, g)| (c.as_slice(), g.as_slice()))
                .collect();
            let mut mem = warmed_memory(d);
            let mut tapes = SamTapes::default();
            let mut ws = Workspace::new();
            for batch in 0..2 {
                mem.fold();
                cell.layout_tapes(&mut tapes, 2, seqs.iter().map(|(c, _)| c.len()));
                let round_start = mem.clone();
                let mut spans = tapes.tapes_mut();
                let mut logs = [WriteLog::new(), WriteLog::new(), WriteLog::new()];
                let (spans_1, spans_2) = spans.split_at_mut(2);
                let (logs_1, logs_2) = logs.split_at_mut(2);
                // Round 1: sequences 0 and 1 against the same snapshot.
                let rec = Some((spans_1, &mut *logs_1));
                let mut hs = cell.forward_batch(&refs[..2], &mem, 2, rec, &mut ws);
                mem.commit(&logs_1[0]);
                mem.commit(&logs_1[1]);
                // Round 2: sequence 2 reads version rows and writes more.
                let after_round_1 = mem.clone();
                let rec = Some((spans_2, &mut *logs_2));
                hs.extend(cell.forward_batch(&refs[2..], &mem, 2, rec, &mut ws));
                mem.commit(&logs_2[0]);

                let (mut g, mut g_o) = (SamGrads::zeros_like(&cell), SamGrads::zeros_like(&cell));
                for (i, (coords, cells)) in seqs.iter().enumerate() {
                    let mut snapshot = if i < 2 {
                        round_start.clone()
                    } else {
                        after_round_1.clone()
                    };
                    let (h_o, tape_o) =
                        oracle::forward(&cell, coords, cells, &mut snapshot, 2, true);
                    assert_eq!(bits(&hs[i]), bits(&h_o), "d={d} batch {batch} seq {i}");
                    let r = tapes.tape_ref(i);
                    cell.backward(tapes.get(r), &mem, &d_h(d, i), &mut g, &mut ws);
                    oracle::backward(&cell, &tape_o, &d_h(d, i), &mut g_o);
                    assert_eq!(
                        grad_bits(&g),
                        grad_bits(&g_o),
                        "d={d} batch {batch} seq {i}"
                    );
                }
                assert!(
                    tapes.bytes() / tapes.points() <= 4096,
                    "a step's tape outgrew 4 KiB"
                );
            }
        }
    }

    fn recorded() -> (SamLstmCell, SpatialMemory, SamTapes) {
        let (coords, cells) = toy_seq();
        let cell = SamLstmCell::new(4, 5);
        let mut mem = warmed_memory(4);
        let (_, tapes) = run(&cell, &coords, &cells, &mut mem, 1);
        (cell, mem, tapes)
    }

    #[test]
    #[should_panic(expected = "after the batch that recorded it ended")]
    fn tape_refuses_a_folded_memory() {
        let (cell, mut mem, tapes) = recorded();
        mem.fold();
        backward(&cell, &tapes, &mem, &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "after the batch that recorded it ended")]
    fn tape_refuses_a_reset_memory() {
        let (cell, mut mem, tapes) = recorded();
        mem.reset();
        backward(&cell, &tapes, &mem, &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "after the batch that recorded it ended")]
    fn tape_refuses_a_memory_edited_in_place() {
        let (cell, mut mem, tapes) = recorded();
        mem.write(5, 5, &[0.5; 4], &[1.0; 4]);
        backward(&cell, &tapes, &mem, &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "after the batch that recorded it ended")]
    fn tape_ref_dies_when_the_storage_is_laid_out_again() {
        let cell = SamLstmCell::new(4, 5);
        let mut tapes = SamTapes::default();
        cell.layout_tapes(&mut tapes, 1, [3usize, 4].into_iter());
        let r = tapes.tape_ref(1);
        cell.layout_tapes(&mut tapes, 1, [3usize, 4].into_iter());
        let _ = tapes.get(r);
    }

    /// Version rows are an implementation detail of the batch in flight:
    /// the read-only forward (of one and of a batch), a clone and a further
    /// training forward all read current values through them, with no
    /// fold in between.
    #[test]
    fn readers_see_current_values_while_version_rows_are_live() {
        let d = 8;
        let seqs = crossing_seqs();
        let mut enc = SamLstmEncoder::new(d, 6, 6, 2, 3);
        enc.memory = warmed_memory(d);
        let mut dense = enc.memory.clone();
        for seq @ (coords, cells) in &seqs {
            let h = run_enc(&mut enc, seq, true);
            let (h_o, _) = oracle::forward(&enc.cell, coords, cells, &mut dense, 2, true);
            assert_eq!(bits(&h), bits(&h_o));
        }
        assert_eq!(enc.memory, dense);
        let mut reference = SamLstmEncoder {
            cell: enc.cell.clone(),
            memory: dense,
            scan_width: 2,
            tapes: SamTapes::default(),
        };
        let refs: Vec<SamSeqRef<'_>> = seqs
            .iter()
            .map(|(c, g)| (c.as_slice(), g.as_slice()))
            .collect();
        let mut ws = Workspace::new();
        assert_eq!(
            enc.cell.forward_batch(&refs, &enc.memory, 2, None, &mut ws),
            reference
                .cell
                .forward_batch(&refs, &reference.memory, 2, None, &mut ws)
        );
        for seq in &seqs {
            let want = run_enc(&mut reference, seq, false);
            assert_eq!(run_enc(&mut enc, seq, false), want);
            assert_eq!(run_enc(&mut enc.clone(), seq, false), want);
        }
        let before = run_enc(&mut enc, &seqs[0], false);
        enc.end_training();
        assert_eq!(run_enc(&mut enc, &seqs[0], false), before);
        assert_eq!(enc.memory, reference.memory);
    }

    /// The read as it was before the vector kernels — gathered rows, one
    /// scalar `dot` chain per row, softmax, row-by-row mix — kept as the
    /// oracle for [`read_window`].
    fn read_oracle(g: &[f64], c_hat: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let d = c_hat.len();
        let mut attn: Vec<f64> = g.chunks_exact(d).map(|row| dot(row, c_hat)).collect();
        softmax_inplace(&mut attn);
        let mut mix = vec![0.0; d];
        for (row, &av) in g.chunks_exact(d).zip(&attn) {
            for k in 0..d {
                mix[k] += av * row[k];
            }
        }
        (attn, mix)
    }

    /// The id read equals the gather-and-dot loop bit for bit on interior
    /// (K = 25), edge (K = 15) and corner (K = 9) windows of a warmed
    /// memory, dense and again while version rows are live.
    #[test]
    fn id_read_bit_identical_to_gather_dot_loop() {
        let level = neutraj_obs::simd::level();
        for d in [5, 8, 32] {
            let mut mem = warmed_memory(d);
            let c_hat: Vec<f64> = (0..d).map(|k| (0.7 * k as f64).cos() * 1.5).collect();
            for versions in [false, true] {
                if versions {
                    let (mut log, mut local) = (WriteLog::new(), vec![0.0; 2 * d]);
                    for (col, row) in [(1, 2), (2, 2)] {
                        log.record(&mem, col, row, &vec![0.5; d], &c_hat, &mut local);
                    }
                    mem.commit(&log);
                }
                for ((col, row), kwin) in [((2, 2), 25), ((0, 2), 15), ((0, 0), 9)] {
                    let (g, k) = mem.gather(col, row, 2);
                    assert_eq!(k, kwin);
                    let (attn, mix) = read_oracle(&g, &c_hat);
                    let (mut ids, mut a, mut m) = ([0; 25], [f64::NAN; 25], vec![f64::NAN; d]);
                    let at = (col, row, 2);
                    assert_eq!(
                        read_window(level, &mem, None, at, &c_hat, &mut ids, &mut a, &mut m),
                        k
                    );
                    assert_eq!(
                        bits(&a[..k]),
                        bits(&attn),
                        "d={d} K={k} versions={versions}"
                    );
                    assert_eq!(bits(&m), bits(&mix), "d={d} K={k} versions={versions}");
                }
            }
        }
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh() {
        let (coords, cells) = toy_seq();
        let cell = SamLstmCell::new(4, 31);
        let w = vec![0.3, -0.9, 0.5, 0.1];

        let mut mem = warmed_memory(4);
        let (h_fresh, tapes_fresh) = run(&cell, &coords, &cells, &mut mem, 1);
        let grads_fresh = backward(&cell, &tapes_fresh, &mem, &w);

        // Dirty the workspace with an unrelated sequence first.
        let mut ws = Workspace::new();
        let dirty: Vec<(f64, f64)> = (0..9)
            .map(|i| (i as f64 * 0.3, 1.0 - i as f64 * 0.1))
            .collect();
        let dirty_cells: Vec<(u32, u32)> = (0..9).map(|i| (i % 6, (i * 2) % 6)).collect();
        let _ = run_ws(
            &cell,
            &dirty,
            &dirty_cells,
            &mut warmed_memory(4),
            2,
            &mut ws,
        );
        let mut mem = warmed_memory(4);
        let (h_reuse, tapes_reuse) = run_ws(&cell, &coords, &cells, &mut mem, 1, &mut ws);
        let mut grads_reuse = SamGrads::zeros_like(&cell);
        cell.backward(tapes_reuse.tape(0), &mem, &w, &mut grads_reuse, &mut ws);

        assert_eq!(h_fresh, h_reuse);
        assert_eq!(grads_fresh.p.as_slice(), grads_reuse.p.as_slice());
        assert_eq!(grads_fresh.w_his.as_slice(), grads_reuse.w_his.as_slice());
        assert_eq!(grads_fresh.b_his, grads_reuse.b_his);
    }

    /// The analytic gradient of `w · h_T` over [`detached_seq`] on a warmed
    /// memory, from its tape — which names no local row, so the read-only
    /// forward is the function it differentiates.
    fn detached_grads(cell: &SamLstmCell, scan_width: u32, w: &[f64]) -> SamGrads {
        let (coords, cells) = detached_seq();
        let mut mem = warmed_memory(cell.dim());
        let (_, tapes) = run(cell, &coords, &cells, &mut mem, scan_width);
        let tape = tapes.tape(0);
        assert!((0..tape.len()).all(|t| tape.ids(t).iter().all(|id| id & LOCAL_ROW == 0)));
        backward(cell, &tapes, &mem, w)
    }

    /// `w · h_T` of the read-only forward over [`detached_seq`].
    fn detached_objective(cell: &SamLstmCell, scan_width: u32, w: &[f64]) -> f64 {
        let mem = warmed_memory(cell.dim());
        dot(w, &read(cell, &detached_seq(), &mem, scan_width))
    }

    /// Gradient check for the fused recurrent weights `P` through the full
    /// read-attention path, with a warmed memory so attention is active.
    #[test]
    fn grad_check_p() {
        let d = 4;
        let cell = SamLstmCell::new(d, 17);
        let w: Vec<f64> = (0..d).map(|i| 0.8 - 0.4 * i as f64).collect();
        let grads = detached_grads(&cell, 1, &w);

        let analytic = grads.p.as_slice().to_vec();
        let mut params = cell.p.as_slice().to_vec();
        let base = cell.clone();
        check_gradient(&mut params, &analytic, 1e-6, 1e-4, |p| {
            let mut probe = base.clone();
            probe.p = Mat::from_vec(5 * d, 2 + d + 1, p.to_vec());
            detached_objective(&probe, 1, &w)
        });
    }

    /// Gradient check for the attention projection `W_his`/`b_his`.
    #[test]
    fn grad_check_attention_projection() {
        let d = 4;
        let cell = SamLstmCell::new(d, 23);
        let w = vec![1.0, -1.0, 0.5, 0.25];
        let grads = detached_grads(&cell, 2, &w);

        let base = cell.clone();
        let analytic = grads.w_his.as_slice().to_vec();
        let mut params = cell.w_his.as_slice().to_vec();
        check_gradient(&mut params, &analytic, 1e-6, 1e-4, |p| {
            let mut probe = base.clone();
            probe.w_his = Mat::from_vec(d, 2 * d, p.to_vec());
            detached_objective(&probe, 2, &w)
        });
        let analytic = grads.b_his.clone();
        let mut params = cell.b_his.clone();
        check_gradient(&mut params, &analytic, 1e-6, 1e-4, |p| {
            let mut probe = base.clone();
            probe.b_his = p.to_vec();
            detached_objective(&probe, 2, &w)
        });
    }

    /// A sequence that does read its own writes still gets a finite,
    /// non-zero gradient: within a sequence the write at step t affects
    /// later reads only through the memory, which is deliberately outside
    /// the tape (the gradient checks above use a sequence that never
    /// reads its own writes, so the two semantics agree there).
    #[test]
    fn gradient_semantics_memory_detached() {
        let d = 3;
        let (coords, cells) = toy_seq();
        let cell = SamLstmCell::new(d, 29);
        let w = vec![0.7, -0.3, 1.1];
        // Forward in write mode (training), gradients computed on its cache.
        let mut mem = warmed_memory(d);
        let (h_write, tapes) = run(&cell, &coords, &cells, &mut mem, 1);
        let tape = tapes.tape(0);
        assert!((0..tape.len()).any(|t| tape.ids(t).iter().any(|id| id & LOCAL_ROW != 0)));
        let grads = backward(&cell, &tapes, &mem, &w);
        // The gradient is finite and nonzero — training signal exists.
        assert!(grads.p.as_slice().iter().any(|g| *g != 0.0));
        assert!(grads.p.as_slice().iter().all(|g| g.is_finite()));
        assert!(h_write.iter().all(|v| v.is_finite()));
    }

    /// The lockstep forward against the copied-window oracle on every
    /// shape the lockstep loop branches on: read-only, the final states;
    /// recording (each sequence against its own copy of the memory, its
    /// writes applied in place), the final states and every taped step
    /// with the window rows its ids name.
    #[test]
    fn batched_forward_bit_identical_to_scalar() {
        let cell = SamLstmCell::new(5, 37);
        let mem = warmed_memory(5);
        lockstep_tests::matches_scalar(
            |seqs, ws| {
                let refs: Vec<SamSeqRef<'_>> = seqs
                    .iter()
                    .map(|(c, g)| (c.as_slice(), g.as_slice()))
                    .collect();
                cell.forward_batch(&refs, &mem, 1, None, ws)
                    .iter()
                    .map(|h| bits(h))
                    .collect()
            },
            |(coords, cells)| {
                bits(&oracle::forward(&cell, coords, cells, &mut mem.clone(), 1, false).0)
            },
        );
        lockstep_tests::matches_scalar(
            |seqs, ws| {
                let refs: Vec<SamSeqRef<'_>> = seqs
                    .iter()
                    .map(|(c, g)| (c.as_slice(), g.as_slice()))
                    .collect();
                let mut tapes = SamTapes::default();
                cell.layout_tapes(&mut tapes, 1, seqs.iter().map(|(c, _)| c.len()));
                let mut logs = vec![WriteLog::new(); seqs.len()];
                let mut spans = tapes.tapes_mut();
                let hs =
                    cell.forward_batch(&refs, &mem, 1, Some((&mut spans[..], &mut logs[..])), ws);
                drop(spans);
                hs.iter()
                    .enumerate()
                    .map(|(i, h)| tape_bits(h, tapes.tape(i), &mem))
                    .collect()
            },
            |(coords, cells)| {
                let (h, tape) = oracle::forward(&cell, coords, cells, &mut mem.clone(), 1, true);
                tape.bits(&h)
            },
        );
    }

    #[test]
    fn batched_forward_narrower_than_pack_min_m_packs_nothing() {
        let cell = SamLstmCell::new(5, 37);
        let mem = warmed_memory(5);
        lockstep_tests::packs_only_wide_batches(
            |seqs, ws| {
                let refs: Vec<SamSeqRef<'_>> = seqs
                    .iter()
                    .map(|(c, g)| (c.as_slice(), g.as_slice()))
                    .collect();
                cell.forward_batch(&refs, &mem, 1, None, ws)
            },
            2,
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_cells_panic() {
        let mut enc = SamLstmEncoder::new(4, 6, 6, 1, 0);
        let _ = run_enc(&mut enc, &(vec![(0.0, 0.0)], vec![]), false);
    }
}
