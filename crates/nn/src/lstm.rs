//! Standard LSTM cell and sequence encoder.
//!
//! Used as the backbone of the Siamese baseline and the NT-No-SAM ablation
//! (§VII-A.3), and as the base the SAM unit extends.

use crate::linalg::{activate_gates, lstm_cell_update, matmul_nt, Mat};
use crate::workspace::{lockstep_order, prep, scratch, Workspace};
use crate::Encoder;

/// A standard LSTM cell with fused parameters.
///
/// All gate weights live in one matrix `P` of shape `(4d) × (in + d + 1)`
/// applied to the concatenated vector `z = [x; h_{t-1}; 1]` (the trailing 1
/// folds the bias in). Gate row order: input `i`, forget `f`, output `o`,
/// candidate `g`.
#[derive(Debug, Clone)]
pub struct LstmCell {
    dim: usize,
    in_dim: usize,
    /// Fused weight matrix (see type docs).
    pub p: Mat,
}

/// Gradients of an [`LstmCell`], same shapes as the parameters.
#[derive(Debug, Clone)]
pub struct LstmGrads {
    /// Gradient of the fused weight matrix.
    pub p: Mat,
}

impl LstmGrads {
    /// Zero gradients for `cell`.
    pub fn zeros_like(cell: &LstmCell) -> Self {
        Self {
            p: Mat::zeros(cell.p.rows(), cell.p.cols()),
        }
    }

    /// Resets all gradients to zero.
    pub fn fill_zero(&mut self) {
        self.p.fill_zero();
    }

    /// Accumulates another gradient buffer into this one (used to merge
    /// per-thread partial gradients).
    pub fn merge(&mut self, other: &LstmGrads) {
        self.p.add_from(&other.p);
    }
}

/// Forward-pass cache of a whole sequence, consumed by backward.
///
/// Stored as flat per-quantity buffers (`T × len` row-major) rather than a
/// `Vec` of per-step structs: one exactly-sized allocation per quantity
/// per sequence instead of four small allocations per timestep, and the
/// backward sweep walks contiguous memory.
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    len: usize,
    d: usize,
    zlen: usize,
    /// `z_t = [x; h_{t-1}; 1]`, `T × zlen`.
    z: Vec<f64>,
    /// Activated gates `[i, f, o, g]`, `T × 4d`.
    gates: Vec<f64>,
    /// Cell states, `T × d`.
    c: Vec<f64>,
    /// `tanh(c_t)`, `T × d`.
    tanh_c: Vec<f64>,
}

impl LstmCache {
    /// Number of cached timesteps.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no steps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn reset(&mut self, t: usize, d: usize, zlen: usize) {
        self.len = 0;
        self.d = d;
        self.zlen = zlen;
        self.z.clear();
        self.z.reserve(t * zlen);
        self.gates.clear();
        self.gates.reserve(t * 4 * d);
        self.c.clear();
        self.c.reserve(t * d);
        self.tanh_c.clear();
        self.tanh_c.reserve(t * d);
    }
}

impl LstmCell {
    /// New cell with Xavier-initialized weights and zero biases.
    pub fn new(in_dim: usize, dim: usize, seed: u64) -> Self {
        assert!(dim > 0 && in_dim > 0);
        let mut p = Mat::xavier(4 * dim, in_dim + dim + 1, seed);
        // Zero the bias column; set the forget-gate bias to 1 (standard
        // trick for gradient flow early in training).
        let bias_col = in_dim + dim;
        for r in 0..4 * dim {
            *p.get_mut(r, bias_col) = 0.0;
        }
        for r in dim..2 * dim {
            *p.get_mut(r, bias_col) = 1.0;
        }
        Self { dim, in_dim, p }
    }

    /// Hidden/cell dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.p.rows() * self.p.cols()
    }

    /// One timestep: consumes input `x`, updates `ws.h`/`ws.c`, appends to
    /// `cache`.
    #[inline]
    fn step(&self, x: &[f64], ws: &mut Workspace, cache: &mut LstmCache) {
        assert_eq!(x.len(), self.in_dim, "input arity");
        let d = self.dim;
        let t = cache.len;
        let zlen = cache.zlen;
        cache.z.extend_from_slice(x);
        cache.z.extend_from_slice(&ws.h);
        cache.z.push(1.0);
        cache.gates.resize((t + 1) * 4 * d, 0.0);
        {
            let z = &cache.z[t * zlen..(t + 1) * zlen];
            let a = &mut cache.gates[t * 4 * d..(t + 1) * 4 * d];
            self.p.matvec_into(z, a);
            // Activate: [i, f, o] sigmoid; [g] tanh.
            activate_gates(a, 3 * d);
        }
        cache.tanh_c.resize((t + 1) * d, 0.0);
        lstm_cell_update(
            &cache.gates[t * 4 * d..(t + 1) * 4 * d],
            &mut ws.c,
            &mut cache.tanh_c[t * d..(t + 1) * d],
            &mut ws.h,
        );
        cache.c.extend_from_slice(&ws.c);
        cache.len += 1;
    }

    /// Runs the cell over `inputs` (each of length `in_dim`), returning the
    /// final hidden state and the cache for [`Self::backward`].
    ///
    /// Panics when `inputs` is empty or any input has the wrong arity.
    pub fn forward(&self, inputs: &[Vec<f64>]) -> (Vec<f64>, LstmCache) {
        self.forward_ws(inputs, &mut Workspace::new())
    }

    /// [`Self::forward`] with caller-provided scratch buffers: zero
    /// per-timestep allocations beyond the exactly-sized cache.
    pub fn forward_ws(&self, inputs: &[Vec<f64>], ws: &mut Workspace) -> (Vec<f64>, LstmCache) {
        assert!(!inputs.is_empty(), "cannot encode an empty sequence");
        let d = self.dim;
        let mut cache = LstmCache::default();
        cache.reset(inputs.len(), d, self.in_dim + d + 1);
        prep(&mut ws.h, d);
        prep(&mut ws.c, d);
        for x in inputs {
            self.step(x, ws, &mut cache);
        }
        (ws.h.clone(), cache)
    }

    /// Coordinate-sequence forward without materializing per-step input
    /// vectors (the encoder hot path). Requires `in_dim == 2`.
    pub fn forward_coords_ws(
        &self,
        coords: &[(f64, f64)],
        ws: &mut Workspace,
    ) -> (Vec<f64>, LstmCache) {
        assert!(!coords.is_empty(), "cannot encode an empty sequence");
        let d = self.dim;
        let mut cache = LstmCache::default();
        cache.reset(coords.len(), d, self.in_dim + d + 1);
        prep(&mut ws.h, d);
        prep(&mut ws.c, d);
        for &(x, y) in coords {
            self.step(&[x, y], ws, &mut cache);
        }
        (ws.h.clone(), cache)
    }

    /// Lockstep batched inference over many coordinate sequences: all `B`
    /// sequences advance one timestep together, so the per-step gate
    /// computation is a single `(active × zlen)·Pᵀ` GEMM instead of
    /// `active` independent matvecs. Sequences are bucketed by length
    /// (slots sorted descending), and a sequence retires — its hidden
    /// state becomes its embedding — as soon as its last step is done, so
    /// every GEMM runs over a dense active prefix.
    ///
    /// Because [`crate::linalg::matmul_nt`] accumulates each output
    /// element in the exact order [`Mat::matvec_into`] does, the returned
    /// embeddings are **bit-identical** to running [`Self::forward_coords_ws`]
    /// per sequence. Results are returned in input order.
    ///
    /// Inference only (no BPTT cache). Panics when any sequence is empty.
    pub fn forward_coords_batch_ws(
        &self,
        seqs: &[&[(f64, f64)]],
        ws: &mut Workspace,
    ) -> Vec<Vec<f64>> {
        if seqs.is_empty() {
            return Vec::new();
        }
        assert!(
            seqs.iter().all(|s| !s.is_empty()),
            "cannot encode an empty sequence"
        );
        assert_eq!(self.in_dim, 2, "coordinate forward needs in_dim == 2");
        let d = self.dim;
        let zlen = self.in_dim + d + 1;
        let order = lockstep_order(seqs.iter().map(|s| s.len()));
        let b = seqs.len();
        let max_len = seqs[order[0]].len();
        let h = prep(&mut ws.bh, b * d);
        let c = prep(&mut ws.bc, b * d);
        let z = prep(&mut ws.bz, b * zlen);
        let gates = prep(&mut ws.bgates, b * 4 * d);
        let tanh_c = prep(&mut ws.t1, d);
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); b];
        let mut active = b;
        for t in 0..max_len {
            while seqs[order[active - 1]].len() <= t {
                active -= 1;
                out[order[active]] = h[active * d..(active + 1) * d].to_vec();
            }
            for s in 0..active {
                let (x, y) = seqs[order[s]][t];
                let zr = &mut z[s * zlen..(s + 1) * zlen];
                zr[0] = x;
                zr[1] = y;
                zr[2..2 + d].copy_from_slice(&h[s * d..(s + 1) * d]);
                zr[2 + d] = 1.0;
            }
            matmul_nt(
                &z[..active * zlen],
                self.p.as_slice(),
                &mut gates[..active * 4 * d],
                active,
                4 * d,
                zlen,
            );
            for s in 0..active {
                let g = &mut gates[s * 4 * d..(s + 1) * 4 * d];
                activate_gates(g, 3 * d);
                lstm_cell_update(
                    g,
                    &mut c[s * d..(s + 1) * d],
                    tanh_c,
                    &mut h[s * d..(s + 1) * d],
                );
            }
        }
        for s in 0..active {
            out[order[s]] = h[s * d..(s + 1) * d].to_vec();
        }
        out
    }

    /// Backpropagates `d_h` (gradient w.r.t. the final hidden state)
    /// through the cached sequence, accumulating parameter gradients into
    /// `grads`. Returns nothing — input gradients are not needed because
    /// trajectory coordinates are constants.
    pub fn backward(&self, cache: &LstmCache, d_h_final: &[f64], grads: &mut LstmGrads) {
        self.backward_ws(cache, d_h_final, grads, &mut Workspace::new());
    }

    /// [`Self::backward`] with caller-provided scratch buffers.
    ///
    /// The gate gradients `da_t` are kept for the whole sequence and
    /// `dP += Σ_t da_t ⊗ z_t` applied once, as an ordered GEMM
    /// ([`Mat::outer_acc_rows_rev`]) that adds the terms in the order the
    /// step loop walks; `dh` is the hidden-state column slice of `Pᵀ·da`
    /// ([`Mat::matvec_t_cols_into`]).
    pub fn backward_ws(
        &self,
        cache: &LstmCache,
        d_h_final: &[f64],
        grads: &mut LstmGrads,
        ws: &mut Workspace,
    ) {
        let d = self.dim;
        assert_eq!(d_h_final.len(), d, "d_h arity");
        let dh = prep(&mut ws.h, d);
        dh.copy_from_slice(d_h_final);
        let dc = prep(&mut ws.c, d);
        let da_all = scratch(&mut ws.da_all, cache.len * 4 * d);
        for t in (0..cache.len).rev() {
            let gates = &cache.gates[t * 4 * d..(t + 1) * 4 * d];
            let (gi, gf, go, gg) = (
                &gates[..d],
                &gates[d..2 * d],
                &gates[2 * d..3 * d],
                &gates[3 * d..],
            );
            let tanh_c = &cache.tanh_c[t * d..(t + 1) * d];
            let c_prev: Option<&[f64]> = if t > 0 {
                Some(&cache.c[(t - 1) * d..t * d])
            } else {
                None
            };
            let da = &mut da_all[t * 4 * d..(t + 1) * 4 * d];
            for k in 0..d {
                // h = o ⊙ tanh(c)
                let d_o = dh[k] * tanh_c[k];
                let d_c_total = dc[k] + dh[k] * go[k] * (1.0 - tanh_c[k] * tanh_c[k]);
                // c = f ⊙ c_prev + i ⊙ g
                let cp = c_prev.map_or(0.0, |c| c[k]);
                let d_f = d_c_total * cp;
                let d_i = d_c_total * gg[k];
                let d_g = d_c_total * gi[k];
                dc[k] = d_c_total * gf[k]; // becomes dc for t-1
                da[k] = d_i * gi[k] * (1.0 - gi[k]);
                da[d + k] = d_f * gf[k] * (1.0 - gf[k]);
                da[2 * d + k] = d_o * go[k] * (1.0 - go[k]);
                da[3 * d + k] = d_g * (1.0 - gg[k] * gg[k]);
            }
            self.p.matvec_t_cols_into(da, self.in_dim, dh);
        }
        grads.p.outer_acc_rows_rev(da_all, &cache.z);
    }
}

/// Sequence encoder over an [`LstmCell`]: coordinates in, embedding out.
#[derive(Debug, Clone)]
pub struct LstmEncoder {
    /// The underlying cell (public for optimizer access).
    pub cell: LstmCell,
}

impl LstmEncoder {
    /// New encoder for 2-D coordinate inputs.
    pub fn new(dim: usize, seed: u64) -> Self {
        Self {
            cell: LstmCell::new(2, dim, seed),
        }
    }

    /// Encodes a coordinate sequence, returning embedding + cache.
    pub fn forward(&self, coords: &[(f64, f64)]) -> (Vec<f64>, LstmCache) {
        self.cell.forward_coords_ws(coords, &mut Workspace::new())
    }

    /// [`Self::forward`] with reusable scratch buffers.
    pub fn forward_ws(&self, coords: &[(f64, f64)], ws: &mut Workspace) -> (Vec<f64>, LstmCache) {
        self.cell.forward_coords_ws(coords, ws)
    }

    /// See [`LstmCell::backward`].
    pub fn backward(&self, cache: &LstmCache, d_h: &[f64], grads: &mut LstmGrads) {
        self.cell.backward(cache, d_h, grads);
    }

    /// See [`LstmCell::backward_ws`].
    pub fn backward_ws(
        &self,
        cache: &LstmCache,
        d_h: &[f64],
        grads: &mut LstmGrads,
        ws: &mut Workspace,
    ) {
        self.cell.backward_ws(cache, d_h, grads, ws);
    }
}

impl Encoder for LstmEncoder {
    fn dim(&self) -> usize {
        self.cell.dim()
    }

    fn embed(&mut self, coords: &[(f64, f64)], _cells: &[(u32, u32)]) -> Vec<f64> {
        self.forward(coords).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use crate::linalg::dot;

    fn toy_inputs() -> Vec<Vec<f64>> {
        vec![
            vec![0.5, -0.2],
            vec![1.0, 0.3],
            vec![-0.4, 0.8],
            vec![0.1, 0.1],
        ]
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let cell = LstmCell::new(2, 8, 42);
        let (h1, cache) = cell.forward(&toy_inputs());
        let (h2, _) = cell.forward(&toy_inputs());
        assert_eq!(h1.len(), 8);
        assert_eq!(cache.len(), 4);
        assert_eq!(h1, h2);
        assert!(h1.iter().any(|v| *v != 0.0));
        assert!(h1.iter().all(|v| v.abs() <= 1.0)); // h = o·tanh(c) ∈ (-1,1)
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh() {
        let cell = LstmCell::new(2, 8, 42);
        let mut ws = Workspace::new();
        // Dirty the workspace with a different sequence first.
        let other = vec![vec![9.0, -9.0]; 7];
        let _ = cell.forward_ws(&other, &mut ws);
        let (h_fresh, cache_fresh) = cell.forward(&toy_inputs());
        let (h_reused, cache_reused) = cell.forward_ws(&toy_inputs(), &mut ws);
        assert_eq!(h_fresh, h_reused);
        let mut g1 = LstmGrads::zeros_like(&cell);
        let mut g2 = LstmGrads::zeros_like(&cell);
        let w = vec![0.5; 8];
        cell.backward(&cache_fresh, &w, &mut g1);
        cell.backward_ws(&cache_reused, &w, &mut g2, &mut ws);
        assert_eq!(g1.p.as_slice(), g2.p.as_slice());
    }

    #[test]
    fn coords_forward_matches_vec_forward() {
        let cell = LstmCell::new(2, 6, 8);
        let coords = [(0.5, -0.2), (1.0, 0.3), (-0.4, 0.8)];
        let inputs: Vec<Vec<f64>> = coords.iter().map(|&(x, y)| vec![x, y]).collect();
        let (h1, _) = cell.forward(&inputs);
        let (h2, _) = cell.forward_coords_ws(&coords, &mut Workspace::new());
        assert_eq!(h1, h2);
    }

    #[test]
    fn different_sequences_embed_differently() {
        let cell = LstmCell::new(2, 8, 1);
        let (h1, _) = cell.forward(&toy_inputs());
        let mut other = toy_inputs();
        other[2] = vec![5.0, -5.0];
        let (h2, _) = cell.forward(&other);
        assert_ne!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let cell = LstmCell::new(2, 4, 0);
        let _ = cell.forward(&[]);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let cell = LstmCell::new(2, 4, 9);
        let bias_col = 2 + 4;
        for r in 4..8 {
            assert_eq!(cell.p.get(r, bias_col), 1.0);
        }
        for r in 0..4 {
            assert_eq!(cell.p.get(r, bias_col), 0.0);
        }
    }

    /// The critical test: BPTT gradients match finite differences on a
    /// scalar objective `w · h_T`.
    #[test]
    fn grad_check_full_bptt() {
        let d = 5;
        let cell = LstmCell::new(2, d, 7);
        let inputs = toy_inputs();
        let w: Vec<f64> = (0..d).map(|i| 0.3 + 0.1 * i as f64).collect();

        let (h, cache) = cell.forward(&inputs);
        assert_eq!(h.len(), d);
        let mut grads = LstmGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut grads);

        let analytic = grads.p.as_slice().to_vec();
        let in_dim = 2;
        let dim = d;
        let rows = 4 * dim;
        let cols = in_dim + dim + 1;
        let mut params = cell.p.as_slice().to_vec();
        // Tolerance 5e-5, not 1e-6: the finite-difference probe loses
        // ~half the mantissa to cancellation, and the residual depends on
        // how the host's codegen contracts mul+add (FMA vs separate
        // rounding). Observed rel errs range 1e-7..2e-6 across machines;
        // a genuinely wrong gradient term shows up at 1e-2 or worse.
        check_gradient(&mut params, &analytic, 1e-6, 5e-5, |p| {
            let mut probe = LstmCell::new(in_dim, dim, 0);
            probe.p = Mat::from_vec(rows, cols, p.to_vec());
            let (h, _) = probe.forward(&inputs);
            dot(&w, &h)
        });
    }

    #[test]
    fn grad_check_single_step() {
        // Degenerate one-step sequence exercises the t == 0 path (c_prev = 0).
        let d = 4;
        let cell = LstmCell::new(2, d, 3);
        let inputs = vec![vec![0.7, -0.9]];
        let w = vec![1.0, -0.5, 0.25, 2.0];
        let (_, cache) = cell.forward(&inputs);
        let mut grads = LstmGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut grads);
        let analytic = grads.p.as_slice().to_vec();
        let mut params = cell.p.as_slice().to_vec();
        check_gradient(&mut params, &analytic, 1e-6, 1e-6, |p| {
            let mut probe = LstmCell::new(2, d, 0);
            probe.p = Mat::from_vec(4 * d, 2 + d + 1, p.to_vec());
            let (h, _) = probe.forward(&inputs);
            dot(&w, &h)
        });
    }

    #[test]
    fn encoder_trait_impl() {
        let mut enc = LstmEncoder::new(6, 11);
        let coords = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)];
        let e = enc.embed(&coords, &[]);
        assert_eq!(e.len(), 6);
        assert_eq!(Encoder::dim(&enc), 6);
    }

    #[test]
    fn batched_forward_bit_identical_to_scalar() {
        let cell = LstmCell::new(2, 8, 42);
        // Mixed lengths including duplicates (exercises stable retirement).
        let seqs: Vec<Vec<(f64, f64)>> = (0..9)
            .map(|i| {
                (0..(3 + (i * 5) % 11))
                    .map(|t| {
                        (
                            (t as f64 * 0.17 + i as f64).sin(),
                            (t as f64 - i as f64 * 0.3).cos(),
                        )
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[(f64, f64)]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = Workspace::new();
        let batched = cell.forward_coords_batch_ws(&refs, &mut ws);
        for (seq, got) in seqs.iter().zip(&batched) {
            let (want, _) = cell.forward_coords_ws(seq, &mut Workspace::new());
            assert_eq!(got, &want);
        }
        assert!(cell.forward_coords_batch_ws(&[], &mut ws).is_empty());
    }
}
