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
//! # Memory access modes
//!
//! Training used to require `&mut SpatialMemory`, serializing the whole
//! batch. [`MemoryMode::Buffered`] is phase A of the two-phase protocol:
//! the forward reads an immutable memory snapshot (shareable across
//! threads) and records its writes into a per-sequence [`WriteLog`] whose
//! overlay keeps within-sequence read-after-write semantics intact. Phase
//! B ([`SamLstmEncoder::commit`]) replays the logs in input order on one
//! thread.

use crate::activation::{sigmoid_slice, tanh_slice};
use crate::linalg::{
    activate_gates, add_assign, axpy, matmul_nt, softmax_backward, softmax_inplace, Mat,
};
use crate::memory::{SpatialMemory, WriteLog};
use crate::workspace::{lockstep_order, prep, Workspace};
use crate::Encoder;

/// One borrowed sequence for the batched frozen forward: normalized
/// coordinates plus the `(col, row)` grid cell of every point.
pub type SamSeqRef<'a> = (&'a [(f64, f64)], &'a [(u32, u32)]);

/// How a forward pass accesses the spatial memory.
#[derive(Debug)]
pub enum MemoryMode<'a> {
    /// Read-only access (inference); many threads may share one memory.
    Frozen(&'a SpatialMemory),
    /// Read-write access (sequential training): cell states are written
    /// back to the live memory at every step.
    Train(&'a mut SpatialMemory),
    /// Phase A of two-phase training: reads go through `log`'s overlay on
    /// the frozen `base` snapshot (so the sequence sees its own pending
    /// writes exactly as [`MemoryMode::Train`] would), and writes are
    /// buffered in `log` for a later ordered [`SpatialMemory::commit`].
    Buffered {
        /// Immutable batch-start snapshot of the memory.
        base: &'a SpatialMemory,
        /// This sequence's pending writes.
        log: &'a mut WriteLog,
    },
}

impl MemoryMode<'_> {
    fn memory(&self) -> &SpatialMemory {
        match self {
            MemoryMode::Frozen(m) => m,
            MemoryMode::Train(m) => m,
            MemoryMode::Buffered { base, .. } => base,
        }
    }
}

/// Parameters of the SAM-augmented LSTM cell.
///
/// `p` fuses the five weight blocks of Eqs. 1–2 into one
/// `(5d) × (in + d + 1)` matrix over `z = [x; h_{t-1}; 1]`; row blocks in
/// order: forget `f`, input `i`, spatial `s`, output `o` (sigmoid) and
/// candidate `g` (tanh). `w_his`/`b_his` are the attention projection of
/// §IV-C.1 (`d × 2d` and `d`).
#[derive(Debug, Clone)]
pub struct SamLstmCell {
    dim: usize,
    in_dim: usize,
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

/// Forward cache of a sequence for BPTT.
///
/// Flat struct-of-arrays layout: every per-step quantity lives in one
/// contiguous row-major buffer (`T × len` for the fixed-size quantities;
/// ragged with the `k_off` prefix-sum index for the per-step attention
/// window, whose size `K_t ≤ (2w+1)²` shrinks at grid borders).
#[derive(Debug, Clone)]
pub struct SamCache {
    len: usize,
    d: usize,
    zlen: usize,
    /// `z_t = [x; h_{t-1}; 1]`, `T × zlen`.
    z: Vec<f64>,
    /// Activated gates `[f, i, s, o, g]`, `T × 5d`.
    gates: Vec<f64>,
    /// Intermediate cell state `ĉ_t` (Eq. 3), `T × d`.
    c_hat: Vec<f64>,
    /// Final cell state `c_t` (Eq. 4), `T × d`.
    c: Vec<f64>,
    /// `tanh(c_t)`, `T × d`.
    tanh_c: Vec<f64>,
    /// Attention mix `G_tᵀ·A`, `T × d`.
    mix: Vec<f64>,
    /// `c_t^his = tanh(W_his·[ĉ; mix] + b_his)`, `T × d`.
    c_his: Vec<f64>,
    /// Window-size prefix sums: step `t` owns attention indices
    /// `k_off[t]..k_off[t+1]` (and `G` rows `k_off[t]*d..k_off[t+1]*d`).
    k_off: Vec<usize>,
    /// Gathered window rows `G_t` (ragged `K_t × d` blocks), copied
    /// because the memory mutates after the step.
    g_rows: Vec<f64>,
    /// Attention weights `A` (post-softmax, ragged).
    attn: Vec<f64>,
}

impl Default for SamCache {
    fn default() -> Self {
        Self::with_capacity(0, 0, 0, 0)
    }
}

impl SamCache {
    fn with_capacity(t: usize, d: usize, zlen: usize, scan_width: u32) -> Self {
        let kmax = ((2 * scan_width + 1) * (2 * scan_width + 1)) as usize;
        let mut k_off = Vec::with_capacity(t + 1);
        k_off.push(0);
        Self {
            len: 0,
            d,
            zlen,
            z: Vec::with_capacity(t * zlen),
            gates: Vec::with_capacity(t * 5 * d),
            c_hat: Vec::with_capacity(t * d),
            c: Vec::with_capacity(t * d),
            tanh_c: Vec::with_capacity(t * d),
            mix: Vec::with_capacity(t * d),
            c_his: Vec::with_capacity(t * d),
            k_off,
            g_rows: Vec::with_capacity(t * kmax * d),
            attn: Vec::with_capacity(t * kmax),
        }
    }

    /// Number of cached timesteps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no steps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Attention-window size `K_t` of step `t` (clipped at grid borders).
    pub fn window_size(&self, t: usize) -> usize {
        self.k_off[t + 1] - self.k_off[t]
    }

    /// Post-softmax attention weights of step `t`.
    pub fn attn(&self, t: usize) -> &[f64] {
        &self.attn[self.k_off[t]..self.k_off[t + 1]]
    }

    /// Gathered window rows of step `t` (`K_t × d` row-major).
    fn g_rows(&self, t: usize) -> &[f64] {
        &self.g_rows[self.k_off[t] * self.d..self.k_off[t + 1] * self.d]
    }
}

/// The attention read of §IV-C.1 over the window rows `G` (`K × d`,
/// handed over as the contiguous runs they occupy — one gathered block,
/// or the memory's own rows): `attn ← softmax(G·ĉ)`, `mix ← Gᵀ·attn`.
///
/// The scores are an `m = 1` [`matmul_nt`] per run — four window rows per
/// vector, each score still the single ascending chain over `d` — and
/// `mix` accumulates row by row in window order, so the result does not
/// depend on how the window is cut into runs.
fn attention_read<'a>(
    runs: impl Iterator<Item = &'a [f64]> + Clone,
    c_hat: &[f64],
    attn: &mut [f64],
    mix: &mut [f64],
) {
    let d = c_hat.len();
    let mut at = 0;
    for run in runs.clone() {
        let n = run.len() / d;
        matmul_nt(c_hat, run, &mut attn[at..at + n], 1, n, d);
        at += n;
    }
    debug_assert_eq!(at, attn.len());
    softmax_inplace(attn);
    mix.fill(0.0);
    for (row, &av) in runs.flat_map(|run| run.chunks_exact(d)).zip(attn.iter()) {
        axpy(mix, av, row);
    }
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
    pub fn new(in_dim: usize, dim: usize, seed: u64) -> Self {
        assert!(dim > 0 && in_dim > 0);
        let mut p = Mat::xavier(5 * dim, in_dim + dim + 1, seed);
        let bias_col = in_dim + dim;
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
            in_dim,
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

    /// Runs the cell over a sequence of coordinates + grid cells with a
    /// mutable memory; `write = true` enables training-mode writes.
    pub fn forward(
        &self,
        coords: &[(f64, f64)],
        cells: &[(u32, u32)],
        memory: &mut SpatialMemory,
        scan_width: u32,
        write: bool,
    ) -> (Vec<f64>, SamCache) {
        let mode = if write {
            MemoryMode::Train(memory)
        } else {
            MemoryMode::Frozen(memory)
        };
        self.forward_with(coords, cells, mode, scan_width)
    }

    /// [`Self::forward_with_ws`] with a one-shot workspace.
    pub fn forward_with(
        &self,
        coords: &[(f64, f64)],
        cells: &[(u32, u32)],
        mode: MemoryMode<'_>,
        scan_width: u32,
    ) -> (Vec<f64>, SamCache) {
        self.forward_with_ws(coords, cells, mode, scan_width, &mut Workspace::new())
    }

    /// Runs the cell over a sequence of coordinates + grid cells.
    ///
    /// The memory is read at every step; in [`MemoryMode::Train`] the
    /// step's cell state is also written back, in [`MemoryMode::Buffered`]
    /// it is recorded in the write log. [`MemoryMode::Frozen`] borrows the
    /// memory immutably, so inference-time embedding is read-only and can
    /// run on many threads over one shared memory.
    ///
    /// Panics on empty input or mismatched coord/cell lengths.
    pub fn forward_with_ws(
        &self,
        coords: &[(f64, f64)],
        cells: &[(u32, u32)],
        mut mode: MemoryMode<'_>,
        scan_width: u32,
        ws: &mut Workspace,
    ) -> (Vec<f64>, SamCache) {
        assert!(!coords.is_empty(), "cannot encode an empty sequence");
        assert_eq!(coords.len(), cells.len(), "coords/cells length mismatch");
        assert_eq!(mode.memory().dim(), self.dim, "memory dim mismatch");
        let d = self.dim;
        let zlen = self.in_dim + d + 1;
        let mut cache = SamCache::with_capacity(coords.len(), d, zlen, scan_width);
        let h = prep(&mut ws.h, d);
        let c = prep(&mut ws.c, d);
        let write_w = prep(&mut ws.t1, d);
        let ccat = prep(&mut ws.cat, 2 * d);
        for (t, &(x, y)) in coords.iter().enumerate() {
            let (col, row) = cells[t];
            cache.z.push(x);
            cache.z.push(y);
            cache.z.extend_from_slice(h);
            cache.z.push(1.0);
            cache.gates.resize((t + 1) * 5 * d, 0.0);
            {
                let a = &mut cache.gates[t * 5 * d..];
                self.p.matvec_into(&cache.z[t * zlen..(t + 1) * zlen], a);
                activate_gates(a, 4 * d);
            }
            let a = &cache.gates[t * 5 * d..(t + 1) * 5 * d];
            let (gf, gi, gs, go, gg) = (
                &a[..d],
                &a[d..2 * d],
                &a[2 * d..3 * d],
                &a[3 * d..4 * d],
                &a[4 * d..],
            );
            // Eq. 3: intermediate cell state.
            cache.c_hat.resize((t + 1) * d, 0.0);
            {
                let c_hat = &mut cache.c_hat[t * d..];
                for k in 0..d {
                    c_hat[k] = gf[k] * c[k] + gi[k] * gg[k];
                }
            }
            let c_hat = &cache.c_hat[t * d..(t + 1) * d];
            // Read (§IV-C.1). Buffered mode reads through the log's
            // overlay so the sequence sees its own earlier writes.
            let kwin = match &mode {
                MemoryMode::Frozen(m) => m.gather_append(col, row, scan_width, &mut cache.g_rows),
                MemoryMode::Train(m) => m.gather_append(col, row, scan_width, &mut cache.g_rows),
                MemoryMode::Buffered { base, log } => {
                    log.gather_append(base, col, row, scan_width, &mut cache.g_rows)
                }
            };
            let off = *cache.k_off.last().expect("k_off starts with 0");
            cache.k_off.push(off + kwin);
            let g_rows = &cache.g_rows[off * d..(off + kwin) * d];
            cache.attn.resize(off + kwin, 0.0);
            cache.mix.resize((t + 1) * d, 0.0);
            attention_read(
                std::iter::once(g_rows),
                c_hat,
                &mut cache.attn[off..],
                &mut cache.mix[t * d..],
            );
            ccat[..d].copy_from_slice(c_hat);
            ccat[d..].copy_from_slice(&cache.mix[t * d..(t + 1) * d]);
            cache.c_his.resize((t + 1) * d, 0.0);
            {
                let c_his = &mut cache.c_his[t * d..];
                self.w_his.matvec_into(ccat, c_his);
                add_assign(c_his, &self.b_his);
                tanh_slice(c_his);
            }
            // Eq. 4: blend; Eq. 6: hidden state.
            let c_his = &cache.c_his[t * d..(t + 1) * d];
            for k in 0..d {
                c[k] = c_hat[k] + gs[k] * c_his[k];
            }
            cache.c.extend_from_slice(c);
            cache.tanh_c.extend_from_slice(c);
            let tanh_c = &mut cache.tanh_c[t * d..];
            tanh_slice(tanh_c);
            for k in 0..d {
                h[k] = go[k] * tanh_c[k];
            }
            // Write (§IV-C.2), outside the gradient tape.
            if !matches!(mode, MemoryMode::Frozen(_)) {
                write_w.copy_from_slice(gs);
                sigmoid_slice(write_w);
            }
            match &mut mode {
                MemoryMode::Train(memory) => memory.write(col, row, write_w, c),
                MemoryMode::Buffered { base, log } => log.record(base, col, row, write_w, c),
                MemoryMode::Frozen(_) => {}
            }
            cache.len += 1;
        }
        (h.to_vec(), cache)
    }

    /// Lockstep batched read-only inference over many sequences (the SAM
    /// analogue of [`crate::LstmCell::forward_coords_batch_ws`]). Each
    /// timestep runs two GEMMs over the active prefix — the fused gates
    /// (`(active × zlen)·Pᵀ`) and the attention projection
    /// (`(active × 2d)·W_hisᵀ`) — and each `tanh` over the whole active
    /// block, while the per-slot attention read scores the memory's own
    /// rows (nothing is gathered). Every output element is produced by
    /// the same operations in the same order as in
    /// [`Self::forward_with_ws`], so results are **bit-identical** to the
    /// per-sequence [`MemoryMode::Frozen`] forward. Results are returned
    /// in input order.
    ///
    /// Inference only: the memory is never written and no BPTT cache is
    /// produced. Panics on empty sequences or coord/cell length mismatch.
    pub fn forward_frozen_batch_ws(
        &self,
        seqs: &[SamSeqRef<'_>],
        memory: &SpatialMemory,
        scan_width: u32,
        ws: &mut Workspace,
    ) -> Vec<Vec<f64>> {
        if seqs.is_empty() {
            return Vec::new();
        }
        assert!(
            seqs.iter().all(|(c, _)| !c.is_empty()),
            "cannot encode an empty sequence"
        );
        for (coords, cells) in seqs {
            assert_eq!(coords.len(), cells.len(), "coords/cells length mismatch");
        }
        assert_eq!(memory.dim(), self.dim, "memory dim mismatch");
        assert_eq!(self.in_dim, 2, "coordinate forward needs in_dim == 2");
        let d = self.dim;
        let zlen = self.in_dim + d + 1;
        let order = lockstep_order(seqs.iter().map(|(c, _)| c.len()));
        let b = seqs.len();
        let max_len = seqs[order[0]].0.len();
        let h = prep(&mut ws.bh, b * d);
        let c = prep(&mut ws.bc, b * d);
        let z = prep(&mut ws.bz, b * zlen);
        let gates = prep(&mut ws.bgates, b * 5 * d);
        let c_hat = prep(&mut ws.bchat, b * d);
        let mix = prep(&mut ws.bmix, b * d);
        let ccat = prep(&mut ws.bcat, b * 2 * d);
        let c_his = prep(&mut ws.bhis, b * d);
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); b];
        let mut active = b;
        for t in 0..max_len {
            while seqs[order[active - 1]].0.len() <= t {
                active -= 1;
                out[order[active]] = h[active * d..(active + 1) * d].to_vec();
            }
            for s in 0..active {
                let (x, y) = seqs[order[s]].0[t];
                let zr = &mut z[s * zlen..(s + 1) * zlen];
                zr[0] = x;
                zr[1] = y;
                zr[2..2 + d].copy_from_slice(&h[s * d..(s + 1) * d]);
                zr[2 + d] = 1.0;
            }
            matmul_nt(
                &z[..active * zlen],
                self.p.as_slice(),
                &mut gates[..active * 5 * d],
                active,
                5 * d,
                zlen,
            );
            for s in 0..active {
                let a = &mut gates[s * 5 * d..(s + 1) * 5 * d];
                activate_gates(a, 4 * d);
                let (gf, gi, gg) = (&a[..d], &a[d..2 * d], &a[4 * d..]);
                // Eq. 3: intermediate cell state.
                let ch = &mut c_hat[s * d..(s + 1) * d];
                let cs = &c[s * d..(s + 1) * d];
                for k in 0..d {
                    ch[k] = gf[k] * cs[k] + gi[k] * gg[k];
                }
                // Read (§IV-C.1), on the memory's rows where they lie.
                let (col, row) = seqs[order[s]].1[t];
                let runs = memory.window_runs(col, row, scan_width);
                let kwin = runs.clone().map(<[f64]>::len).sum::<usize>() / d;
                let mx = &mut mix[s * d..(s + 1) * d];
                attention_read(runs, ch, prep(&mut ws.win, kwin), mx);
                let cc = &mut ccat[s * 2 * d..(s + 1) * 2 * d];
                cc[..d].copy_from_slice(ch);
                cc[d..].copy_from_slice(mx);
            }
            matmul_nt(
                &ccat[..active * 2 * d],
                self.w_his.as_slice(),
                &mut c_his[..active * d],
                active,
                d,
                2 * d,
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
                    c[s * d + k] = c_hat[s * d + k] + gs_gate[k] * his[s * d + k];
                }
            }
            h[..n].copy_from_slice(&c[..n]);
            tanh_slice(&mut h[..n]);
            for s in 0..active {
                let go = &gates[s * 5 * d + 3 * d..s * 5 * d + 4 * d];
                for (hv, &o) in h[s * d..(s + 1) * d].iter_mut().zip(go) {
                    *hv *= o;
                }
            }
        }
        for s in 0..active {
            out[order[s]] = h[s * d..(s + 1) * d].to_vec();
        }
        out
    }

    /// [`Self::backward_ws`] with a one-shot workspace.
    pub fn backward(&self, cache: &SamCache, d_h_final: &[f64], grads: &mut SamGrads) {
        self.backward_ws(cache, d_h_final, grads, &mut Workspace::new());
    }

    /// BPTT from the gradient of the final hidden state, accumulating
    /// parameter gradients into `grads`, using `ws` for all scratch.
    pub fn backward_ws(
        &self,
        cache: &SamCache,
        d_h_final: &[f64],
        grads: &mut SamGrads,
        ws: &mut Workspace,
    ) {
        let d = self.dim;
        assert_eq!(d_h_final.len(), d);
        assert_eq!(cache.d, d, "cache dim mismatch");
        let zlen = cache.zlen;
        let dh = prep(&mut ws.h, d);
        dh.copy_from_slice(d_h_final);
        let dc = prep(&mut ws.c, d);
        let da = prep(&mut ws.gates, 5 * d);
        let dz = prep(&mut ws.z, zlen);
        let ccat = prep(&mut ws.cat, 2 * d);
        let dccat = prep(&mut ws.dcat, 2 * d);
        let dpre_his = prep(&mut ws.t1, d);
        let d_c_hat = prep(&mut ws.t2, d);
        let d_s = prep(&mut ws.t3, d);
        let d_o = prep(&mut ws.t4, d);
        for t in (0..cache.len).rev() {
            let gates = &cache.gates[t * 5 * d..(t + 1) * 5 * d];
            let (gf, gi, gs, go, gg) = (
                &gates[..d],
                &gates[d..2 * d],
                &gates[2 * d..3 * d],
                &gates[3 * d..4 * d],
                &gates[4 * d..],
            );
            let tanh_c = &cache.tanh_c[t * d..(t + 1) * d];
            let c_his = &cache.c_his[t * d..(t + 1) * d];
            let c_hat = &cache.c_hat[t * d..(t + 1) * d];
            let c_prev: Option<&[f64]> = if t > 0 {
                Some(&cache.c[(t - 1) * d..t * d])
            } else {
                None
            };
            // h = o ⊙ tanh(c); c = ĉ + s ⊙ c_his;
            // c_his = tanh(W_his·ccat + b_his).
            for k in 0..d {
                d_o[k] = dh[k] * tanh_c[k];
                let d_c_total = dc[k] + dh[k] * go[k] * (1.0 - tanh_c[k] * tanh_c[k]);
                d_c_hat[k] = d_c_total;
                d_s[k] = d_c_total * c_his[k];
                dpre_his[k] = d_c_total * gs[k] * (1.0 - c_his[k] * c_his[k]);
            }
            ccat[..d].copy_from_slice(c_hat);
            ccat[d..].copy_from_slice(&cache.mix[t * d..(t + 1) * d]);
            grads.w_his.outer_acc(dpre_his, ccat);
            crate::linalg::add_assign(&mut grads.b_his, dpre_his);
            dccat.fill(0.0);
            self.w_his.matvec_t_into(dpre_his, dccat);
            for k in 0..d {
                d_c_hat[k] += dccat[k];
            }
            let d_mix = &dccat[d..2 * d];
            // mix = Gᵀ A ⇒ dA[k] = G[k]·dmix.
            let kwin = cache.window_size(t);
            let g_rows = cache.g_rows(t);
            let d_attn = prep(&mut ws.win, kwin);
            matmul_nt(d_mix, g_rows, d_attn, 1, kwin, d);
            // A = softmax(scores).
            let d_scores = prep(&mut ws.win2, kwin);
            softmax_backward(cache.attn(t), d_attn, d_scores);
            // scores[k] = G[k]·ĉ ⇒ dĉ += Σ d_scores[k]·G[k].
            for (ki, &dsv) in d_scores.iter().enumerate() {
                if dsv == 0.0 {
                    continue;
                }
                let row_k = &g_rows[ki * d..(ki + 1) * d];
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
            grads.p.outer_acc(da, &cache.z[t * zlen..(t + 1) * zlen]);
            dz.fill(0.0);
            self.p.matvec_t_into(da, dz);
            dh.copy_from_slice(&dz[self.in_dim..self.in_dim + d]);
        }
    }
}

/// Full SAM encoder: cell + its spatial memory + scan width.
#[derive(Debug, Clone)]
pub struct SamLstmEncoder {
    /// The recurrent cell.
    pub cell: SamLstmCell,
    /// The spatial memory tensor **M**.
    pub memory: SpatialMemory,
    /// Scan half-width `w` (paper's optimum: 2).
    pub scan_width: u32,
}

impl SamLstmEncoder {
    /// New encoder over a `cols × rows` grid.
    pub fn new(dim: usize, cols: usize, rows: usize, scan_width: u32, seed: u64) -> Self {
        Self {
            cell: SamLstmCell::new(2, dim, seed),
            memory: SpatialMemory::new(cols, rows, dim),
            scan_width,
        }
    }

    /// Encodes a sequence; training mode writes to memory.
    pub fn forward(
        &mut self,
        coords: &[(f64, f64)],
        cells: &[(u32, u32)],
        write: bool,
    ) -> (Vec<f64>, SamCache) {
        self.cell
            .forward(coords, cells, &mut self.memory, self.scan_width, write)
    }

    /// Read-only encode against the encoder's (immutably borrowed) memory.
    /// Usable concurrently from many threads via [`SamLstmCell::forward_with`].
    pub fn forward_frozen(
        &self,
        coords: &[(f64, f64)],
        cells: &[(u32, u32)],
    ) -> (Vec<f64>, SamCache) {
        self.cell.forward_with(
            coords,
            cells,
            MemoryMode::Frozen(&self.memory),
            self.scan_width,
        )
    }

    /// Lockstep batched read-only encode against the encoder's memory; see
    /// [`SamLstmCell::forward_frozen_batch_ws`].
    pub fn forward_frozen_batch_ws(
        &self,
        seqs: &[SamSeqRef<'_>],
        ws: &mut Workspace,
    ) -> Vec<Vec<f64>> {
        self.cell
            .forward_frozen_batch_ws(seqs, &self.memory, self.scan_width, ws)
    }

    /// Phase-A training encode: reads the encoder's memory as a frozen
    /// snapshot, buffers writes into `log`. Borrows `self` immutably, so
    /// many sequences can run concurrently (one log + workspace each);
    /// apply the logs afterwards in input order with [`Self::commit`].
    pub fn forward_buffered_ws(
        &self,
        coords: &[(f64, f64)],
        cells: &[(u32, u32)],
        log: &mut WriteLog,
        ws: &mut Workspace,
    ) -> (Vec<f64>, SamCache) {
        self.cell.forward_with_ws(
            coords,
            cells,
            MemoryMode::Buffered {
                base: &self.memory,
                log,
            },
            self.scan_width,
            ws,
        )
    }

    /// [`Self::forward_buffered_ws`] with a one-shot workspace.
    pub fn forward_buffered(
        &self,
        coords: &[(f64, f64)],
        cells: &[(u32, u32)],
        log: &mut WriteLog,
    ) -> (Vec<f64>, SamCache) {
        self.forward_buffered_ws(coords, cells, log, &mut Workspace::new())
    }

    /// Phase B: replays a sequence's buffered writes against the live
    /// memory. Call once per sequence, in batch input order.
    pub fn commit(&mut self, log: &WriteLog) {
        self.memory.commit(log);
    }

    /// See [`SamLstmCell::backward`].
    pub fn backward(&self, cache: &SamCache, d_h: &[f64], grads: &mut SamGrads) {
        self.cell.backward(cache, d_h, grads);
    }
}

impl Encoder for SamLstmEncoder {
    fn dim(&self) -> usize {
        self.cell.dim()
    }

    fn embed(&mut self, coords: &[(f64, f64)], cells: &[(u32, u32)]) -> Vec<f64> {
        self.forward(coords, cells, false).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use crate::linalg::dot;

    type ToySeq = (Vec<(f64, f64)>, Vec<(u32, u32)>);

    fn toy_seq() -> ToySeq {
        let coords = vec![(0.5, 0.5), (1.4, 0.6), (2.5, 1.5), (3.1, 2.2)];
        let cells = vec![(0, 0), (1, 0), (2, 1), (3, 2)];
        (coords, cells)
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
        let (h, cache) = enc.forward(&coords, &cells, true);
        assert_eq!(h.len(), 8);
        assert_eq!(cache.len(), 4);
        assert!(h.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn writes_change_memory_reads_do_not() {
        let (coords, cells) = toy_seq();
        let mut enc = SamLstmEncoder::new(4, 6, 6, 1, 2);
        assert_eq!(enc.memory.occupancy(), 0.0);
        let _ = enc.forward(&coords, &cells, false);
        assert_eq!(enc.memory.occupancy(), 0.0, "read-only pass wrote");
        let _ = enc.forward(&coords, &cells, true);
        assert!(enc.memory.occupancy() > 0.0, "training pass did not write");
    }

    #[test]
    fn memory_contents_influence_embedding() {
        let (coords, cells) = toy_seq();
        let mut enc = SamLstmEncoder::new(4, 6, 6, 1, 3);
        let (h_cold, _) = enc.forward(&coords, &cells, false);
        enc.memory = warmed_memory(4);
        let (h_warm, _) = enc.forward(&coords, &cells, false);
        assert_ne!(h_cold, h_warm, "memory had no effect on the embedding");
    }

    #[test]
    fn scan_width_zero_reads_single_cell() {
        let (coords, cells) = toy_seq();
        let mut enc = SamLstmEncoder::new(4, 6, 6, 0, 4);
        enc.memory = warmed_memory(4);
        let (h, cache) = enc.forward(&coords, &cells, false);
        assert_eq!(h.len(), 4);
        assert!((0..cache.len()).all(|t| cache.window_size(t) == 1));
        // Softmax over one score is exactly 1.
        assert!((0..cache.len()).all(|t| (cache.attn(t)[0] - 1.0).abs() < 1e-15));
    }

    /// The whole point of the buffered mode: a phase-A forward against a
    /// frozen snapshot must be bit-identical to a sequential training
    /// forward from the same memory state — including the within-sequence
    /// read-after-write path (toy_seq revisits no cell, so also check a
    /// self-crossing trajectory) — and committing the log must leave the
    /// memory bit-identical to the sequential writer's.
    #[test]
    fn buffered_forward_matches_sequential_train_forward() {
        let coords = vec![(0.5, 0.5), (1.4, 0.6), (0.6, 0.4), (1.5, 1.5)];
        let cells = vec![(0, 0), (1, 0), (0, 0), (1, 1)]; // revisits (0,0)
        let cell = SamLstmCell::new(2, 5, 11);
        let base = warmed_memory(5);

        let mut seq_mem = base.clone();
        let (h_seq, cache_seq) = cell.forward(&coords, &cells, &mut seq_mem, 1, true);

        let mut log = WriteLog::new();
        let (h_buf, cache_buf) = cell.forward_with(
            &coords,
            &cells,
            MemoryMode::Buffered {
                base: &base,
                log: &mut log,
            },
            1,
        );
        assert_eq!(h_seq, h_buf, "buffered forward diverged from train forward");
        for t in 0..cache_seq.len() {
            assert_eq!(cache_seq.attn(t), cache_buf.attn(t));
        }
        assert_eq!(log.len(), coords.len());

        let mut committed = base.clone();
        committed.commit(&log);
        assert_eq!(committed, seq_mem, "commit diverged from sequential writes");
    }

    /// The read as it was before the vector kernels — gathered rows, one
    /// scalar `dot` chain per row, softmax, row-by-row mix — kept as the
    /// oracle for [`attention_read`].
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The new read equals the old one bit for bit on interior (K = 25),
    /// edge (K = 15) and corner (K = 9) windows of a warmed memory — in
    /// place on the frozen memory's runs, and on a block gathered through
    /// a write log's overlay (itself checked against per-cell lookups).
    #[test]
    fn attention_read_bit_identical_to_gather_dot_loop() {
        for d in [5, 8, 32] {
            let mem = warmed_memory(d);
            let c_hat: Vec<f64> = (0..d).map(|k| (0.7 * k as f64).cos() * 1.5).collect();
            let mut log = WriteLog::new();
            for (i, &(c, r)) in [(1, 1), (0, 0), (4, 2), (1, 1), (5, 5)].iter().enumerate() {
                let w: Vec<f64> = (0..d).map(|k| 0.5 + 0.01 * (k + i) as f64).collect();
                let v: Vec<f64> = (0..d).map(|k| (i as f64 - 0.3 * k as f64).sin()).collect();
                log.record(&mem, c, r, &w, &v);
            }
            for ((col, row), kwin) in [((2, 2), 25), ((0, 2), 15), ((0, 0), 9)] {
                let (g, k) = mem.gather(col, row, 2);
                assert_eq!(k, kwin);
                let (attn, mix) = read_oracle(&g, &c_hat);
                let (mut a, mut m) = (vec![f64::NAN; k], vec![f64::NAN; d]);
                attention_read(mem.window_runs(col, row, 2), &c_hat, &mut a, &mut m);
                assert_eq!(bits(&a), bits(&attn), "frozen d={d} K={k}");
                assert_eq!(bits(&m), bits(&mix), "frozen d={d} K={k}");

                let seen: Vec<f64> = mem
                    .window(col, row, 2)
                    .iter()
                    .flat_map(|&(c, r)| log.slot(&mem, c, r).to_vec())
                    .collect();
                let mut g = Vec::new();
                assert_eq!(log.gather_append(&mem, col, row, 2, &mut g), k);
                assert_eq!(bits(&g), bits(&seen), "overlay gather d={d} K={k}");
                let (attn, mix) = read_oracle(&seen, &c_hat);
                attention_read(std::iter::once(g.as_slice()), &c_hat, &mut a, &mut m);
                assert_eq!(bits(&a), bits(&attn), "overlay d={d} K={k}");
                assert_eq!(bits(&m), bits(&mix), "overlay d={d} K={k}");
            }
        }
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh() {
        let (coords, cells) = toy_seq();
        let cell = SamLstmCell::new(2, 4, 31);
        let mem = warmed_memory(4);
        let w = vec![0.3, -0.9, 0.5, 0.1];

        let (h_fresh, cache_fresh) =
            cell.forward_with(&coords, &cells, MemoryMode::Frozen(&mem), 1);
        let mut grads_fresh = SamGrads::zeros_like(&cell);
        cell.backward(&cache_fresh, &w, &mut grads_fresh);

        // Dirty the workspace with an unrelated sequence first.
        let mut ws = Workspace::new();
        let dirty: Vec<(f64, f64)> = (0..9)
            .map(|i| (i as f64 * 0.3, 1.0 - i as f64 * 0.1))
            .collect();
        let dirty_cells: Vec<(u32, u32)> = (0..9).map(|i| (i % 6, (i * 2) % 6)).collect();
        let _ = cell.forward_with_ws(&dirty, &dirty_cells, MemoryMode::Frozen(&mem), 2, &mut ws);
        let (h_reuse, cache_reuse) =
            cell.forward_with_ws(&coords, &cells, MemoryMode::Frozen(&mem), 1, &mut ws);
        let mut grads_reuse = SamGrads::zeros_like(&cell);
        cell.backward_ws(&cache_reuse, &w, &mut grads_reuse, &mut ws);

        assert_eq!(h_fresh, h_reuse);
        assert_eq!(grads_fresh.p.as_slice(), grads_reuse.p.as_slice());
        assert_eq!(grads_fresh.w_his.as_slice(), grads_reuse.w_his.as_slice());
        assert_eq!(grads_fresh.b_his, grads_reuse.b_his);
    }

    /// Gradient check for the fused recurrent weights `P` through the full
    /// read-attention path, with a warmed memory so attention is active.
    #[test]
    fn grad_check_p() {
        let d = 4;
        let (coords, cells) = toy_seq();
        let cell = SamLstmCell::new(2, d, 17);
        let w: Vec<f64> = (0..d).map(|i| 0.8 - 0.4 * i as f64).collect();
        let mut mem = warmed_memory(d);
        let (_, cache) = cell.forward(&coords, &cells, &mut mem, 1, false);
        let mut grads = SamGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut grads);

        let analytic = grads.p.as_slice().to_vec();
        let mut params = cell.p.as_slice().to_vec();
        let base = cell.clone();
        check_gradient(&mut params, &analytic, 1e-6, 1e-4, |p| {
            let mut probe = base.clone();
            probe.p = Mat::from_vec(5 * d, 2 + d + 1, p.to_vec());
            let mut mem = warmed_memory(d);
            let (h, _) = probe.forward(&coords, &cells, &mut mem, 1, false);
            crate::linalg::dot(&w, &h)
        });
    }

    /// Gradient check for the attention projection `W_his`/`b_his`.
    #[test]
    fn grad_check_attention_projection() {
        let d = 4;
        let (coords, cells) = toy_seq();
        let cell = SamLstmCell::new(2, d, 23);
        let w = vec![1.0, -1.0, 0.5, 0.25];
        let mut mem = warmed_memory(d);
        let (_, cache) = cell.forward(&coords, &cells, &mut mem, 2, false);
        let mut grads = SamGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut grads);

        let base = cell.clone();
        let analytic = grads.w_his.as_slice().to_vec();
        let mut params = cell.w_his.as_slice().to_vec();
        check_gradient(&mut params, &analytic, 1e-6, 1e-4, |p| {
            let mut probe = base.clone();
            probe.w_his = Mat::from_vec(d, 2 * d, p.to_vec());
            let mut mem = warmed_memory(d);
            let (h, _) = probe.forward(&coords, &cells, &mut mem, 2, false);
            crate::linalg::dot(&w, &h)
        });
        let analytic = grads.b_his.clone();
        let mut params = cell.b_his.clone();
        check_gradient(&mut params, &analytic, 1e-6, 1e-4, |p| {
            let mut probe = base.clone();
            probe.b_his = p.to_vec();
            let mut mem = warmed_memory(d);
            let (h, _) = probe.forward(&coords, &cells, &mut mem, 2, false);
            crate::linalg::dot(&w, &h)
        });
    }

    /// With training writes enabled during the *probed* forward as well,
    /// the analytic gradient still matches: within a single sequence the
    /// write at step t only affects later reads through the memory, which
    /// is deliberately outside the tape — so we check against a forward
    /// whose writes are disabled to pin the documented semantics.
    #[test]
    fn gradient_semantics_memory_detached() {
        let d = 3;
        let (coords, cells) = toy_seq();
        let cell = SamLstmCell::new(2, d, 29);
        let w = vec![0.7, -0.3, 1.1];
        // Forward in write mode (training), gradients computed on its cache.
        let mut mem = warmed_memory(d);
        let (h_write, cache) = cell.forward(&coords, &cells, &mut mem, 1, true);
        let mut grads = SamGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut grads);
        // The gradient is finite and nonzero — training signal exists.
        assert!(grads.p.as_slice().iter().any(|g| *g != 0.0));
        assert!(grads.p.as_slice().iter().all(|g| g.is_finite()));
        assert!(h_write.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn batched_frozen_forward_bit_identical_to_scalar() {
        let d = 5;
        let cell = SamLstmCell::new(2, d, 37);
        let mem = warmed_memory(d);
        let seqs: Vec<ToySeq> = (0..9)
            .map(|i| {
                let len = 2 + (i * 5) % 11;
                let coords: Vec<(f64, f64)> = (0..len)
                    .map(|t| {
                        let t = t as f64;
                        let i = i as f64;
                        ((0.1 * t + 0.01 * i).sin(), (0.2 * t - 0.03 * i).cos())
                    })
                    .collect();
                let cells: Vec<(u32, u32)> =
                    (0..len).map(|t| ((t + i) % 6, (2 * t + i) % 6)).collect();
                (coords, cells)
            })
            .collect();
        #[allow(clippy::type_complexity)]
        let refs: Vec<(&[(f64, f64)], &[(u32, u32)])> = seqs
            .iter()
            .map(|(c, g)| (c.as_slice(), g.as_slice()))
            .collect();
        let mut ws = Workspace::new();
        let batched = cell.forward_frozen_batch_ws(&refs, &mem, 1, &mut ws);
        for ((coords, cells), got) in seqs.iter().zip(&batched) {
            let (want, _) =
                cell.forward_with_ws(coords, cells, MemoryMode::Frozen(&mem), 1, &mut ws);
            assert_eq!(&want, got);
        }
        assert!(cell
            .forward_frozen_batch_ws(&[], &mem, 1, &mut ws)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_cells_panic() {
        let mut enc = SamLstmEncoder::new(4, 6, 6, 1, 0);
        let _ = enc.forward(&[(0.0, 0.0)], &[], false);
    }
}
