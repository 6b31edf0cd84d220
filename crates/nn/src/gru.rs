//! GRU cell and encoder — an alternative RNN backbone.
//!
//! The paper notes its SAM module "augments existing RNN architectures
//! (GRU, LSTM)"; this GRU lets downstream code swap backbones and serves
//! as an ablation axis beyond the paper.

use crate::activation::tanh_slice;
use crate::linalg::{activate_gates, matmul_nt, Mat};
use crate::workspace::{lockstep_order, prep, scratch, Workspace};
use crate::Encoder;

/// A GRU cell with fused gate parameters.
///
/// `pzr` has shape `(2d) × (in + d + 1)` over `z = [x; h_{t-1}; 1]` and
/// produces update gate `z` (rows `0..d`) and reset gate `r`
/// (rows `d..2d`). `ph` has shape `d × (in + d + 1)` over
/// `[x; r ⊙ h_{t-1}; 1]` and produces the candidate state.
#[derive(Debug, Clone)]
pub struct GruCell {
    dim: usize,
    in_dim: usize,
    /// Update/reset gate weights.
    pub pzr: Mat,
    /// Candidate-state weights.
    pub ph: Mat,
}

/// Gradients for a [`GruCell`].
#[derive(Debug, Clone)]
pub struct GruGrads {
    /// Gradient of the gate weights.
    pub pzr: Mat,
    /// Gradient of the candidate weights.
    pub ph: Mat,
}

impl GruGrads {
    /// Zero gradients shaped like `cell`.
    pub fn zeros_like(cell: &GruCell) -> Self {
        Self {
            pzr: Mat::zeros(cell.pzr.rows(), cell.pzr.cols()),
            ph: Mat::zeros(cell.ph.rows(), cell.ph.cols()),
        }
    }

    /// Resets to zero.
    pub fn fill_zero(&mut self) {
        self.pzr.fill_zero();
        self.ph.fill_zero();
    }

    /// Accumulates another gradient buffer into this one (used to merge
    /// per-thread partial gradients).
    pub fn merge(&mut self, other: &GruGrads) {
        self.pzr.add_from(&other.pzr);
        self.ph.add_from(&other.ph);
    }
}

/// Forward cache for BPTT, stored as flat `T × len` buffers (see
/// [`crate::LstmCache`] for the layout rationale).
#[derive(Debug, Clone, Default)]
pub struct GruCache {
    len: usize,
    d: usize,
    zlen: usize,
    /// `[x; h_{t-1}; 1]`, `T × zlen`.
    zin: Vec<f64>,
    /// `[x; r ⊙ h_{t-1}; 1]`, `T × zlen`.
    zh: Vec<f64>,
    /// Update gates, `T × d`.
    gz: Vec<f64>,
    /// Reset gates, `T × d`.
    gr: Vec<f64>,
    /// Candidates, `T × d`.
    hc: Vec<f64>,
    /// Previous hidden states, `T × d`.
    h_prev: Vec<f64>,
}

impl GruCache {
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
        self.zin.clear();
        self.zin.reserve(t * zlen);
        self.zh.clear();
        self.zh.reserve(t * zlen);
        for v in [&mut self.gz, &mut self.gr, &mut self.hc, &mut self.h_prev] {
            v.clear();
            v.reserve(t * d);
        }
    }
}

impl GruCell {
    /// New Xavier-initialized cell.
    pub fn new(in_dim: usize, dim: usize, seed: u64) -> Self {
        assert!(dim > 0 && in_dim > 0);
        Self {
            dim,
            in_dim,
            pzr: Mat::xavier(2 * dim, in_dim + dim + 1, seed ^ 0x9E37_79B9),
            ph: Mat::xavier(dim, in_dim + dim + 1, seed ^ 0x85EB_CA6B),
        }
    }

    /// Hidden dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.pzr.rows() * self.pzr.cols() + self.ph.rows() * self.ph.cols()
    }

    /// One timestep: consumes input `x`, updates `ws.h`, appends to `cache`.
    #[inline]
    fn step(&self, x: &[f64], ws: &mut Workspace, cache: &mut GruCache) {
        assert_eq!(x.len(), self.in_dim, "input arity");
        let d = self.dim;
        let t = cache.len;
        let zlen = cache.zlen;
        cache.h_prev.extend_from_slice(&ws.h);
        cache.zin.extend_from_slice(x);
        cache.zin.extend_from_slice(&ws.h);
        cache.zin.push(1.0);
        let a = prep(&mut ws.gates, 2 * d);
        self.pzr
            .matvec_into(&cache.zin[t * zlen..(t + 1) * zlen], a);
        activate_gates(a, 2 * d); // both gates sigmoid
        let (gz, gr) = a.split_at(d);
        cache.gz.extend_from_slice(gz);
        cache.gr.extend_from_slice(gr);
        cache.zh.extend_from_slice(x);
        for (g, h) in gr.iter().zip(ws.h.iter()) {
            cache.zh.push(g * h);
        }
        cache.zh.push(1.0);
        cache.hc.resize((t + 1) * d, 0.0);
        {
            let hc = &mut cache.hc[t * d..(t + 1) * d];
            self.ph.matvec_into(&cache.zh[t * zlen..(t + 1) * zlen], hc);
            tanh_slice(hc);
            for k in 0..d {
                ws.h[k] = (1.0 - gz[k]) * ws.h[k] + gz[k] * hc[k];
            }
        }
        cache.len += 1;
    }

    /// Runs the cell over the sequence; returns final hidden state + cache.
    pub fn forward(&self, inputs: &[Vec<f64>]) -> (Vec<f64>, GruCache) {
        self.forward_ws(inputs, &mut Workspace::new())
    }

    /// [`Self::forward`] with caller-provided scratch buffers.
    pub fn forward_ws(&self, inputs: &[Vec<f64>], ws: &mut Workspace) -> (Vec<f64>, GruCache) {
        assert!(!inputs.is_empty(), "cannot encode an empty sequence");
        let d = self.dim;
        let mut cache = GruCache::default();
        cache.reset(inputs.len(), d, self.in_dim + d + 1);
        prep(&mut ws.h, d);
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
    ) -> (Vec<f64>, GruCache) {
        assert!(!coords.is_empty(), "cannot encode an empty sequence");
        let d = self.dim;
        let mut cache = GruCache::default();
        cache.reset(coords.len(), d, self.in_dim + d + 1);
        prep(&mut ws.h, d);
        for &(x, y) in coords {
            self.step(&[x, y], ws, &mut cache);
        }
        (ws.h.clone(), cache)
    }

    /// Lockstep batched inference over many coordinate sequences; the GRU
    /// analogue of [`crate::LstmCell::forward_coords_batch_ws`]. Each
    /// timestep runs two GEMMs over the active prefix — gates
    /// (`(active × zlen)·pzrᵀ`) and candidates (`(active × zlen)·phᵀ`) —
    /// instead of `2·active` matvecs. Bit-identical to per-sequence
    /// [`Self::forward_coords_ws`]; results in input order.
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
        let z = prep(&mut ws.bz, b * zlen);
        let z2 = prep(&mut ws.bz2, b * zlen);
        let gates = prep(&mut ws.bgates, b * 2 * d);
        let hc = prep(&mut ws.bmix, b * d);
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
                self.pzr.as_slice(),
                &mut gates[..active * 2 * d],
                active,
                2 * d,
                zlen,
            );
            for s in 0..active {
                let a = &mut gates[s * 2 * d..(s + 1) * 2 * d];
                activate_gates(a, 2 * d); // both gates sigmoid
                let gr = &a[d..2 * d];
                let hs = &h[s * d..(s + 1) * d];
                let zr = &mut z2[s * zlen..(s + 1) * zlen];
                zr[0] = z[s * zlen];
                zr[1] = z[s * zlen + 1];
                for k in 0..d {
                    zr[2 + k] = gr[k] * hs[k];
                }
                zr[2 + d] = 1.0;
            }
            matmul_nt(
                &z2[..active * zlen],
                self.ph.as_slice(),
                &mut hc[..active * d],
                active,
                d,
                zlen,
            );
            tanh_slice(&mut hc[..active * d]);
            for s in 0..active {
                let gz = &gates[s * 2 * d..s * 2 * d + d];
                let hs = &mut h[s * d..(s + 1) * d];
                let hcs = &hc[s * d..(s + 1) * d];
                for k in 0..d {
                    hs[k] = (1.0 - gz[k]) * hs[k] + gz[k] * hcs[k];
                }
            }
        }
        for s in 0..active {
            out[order[s]] = h[s * d..(s + 1) * d].to_vec();
        }
        out
    }

    /// BPTT from the final hidden-state gradient, accumulating into `grads`.
    pub fn backward(&self, cache: &GruCache, d_h_final: &[f64], grads: &mut GruGrads) {
        self.backward_ws(cache, d_h_final, grads, &mut Workspace::new());
    }

    /// [`Self::backward`] with caller-provided scratch buffers.
    ///
    /// Like the LSTM's: both weight gradients are applied once per
    /// sequence as ordered GEMMs over the kept per-step gradients, and
    /// only the hidden-state columns of the two transposed products are
    /// computed.
    pub fn backward_ws(
        &self,
        cache: &GruCache,
        d_h_final: &[f64],
        grads: &mut GruGrads,
        ws: &mut Workspace,
    ) {
        let d = self.dim;
        assert_eq!(d_h_final.len(), d);
        let dh = prep(&mut ws.h, d);
        dh.copy_from_slice(d_h_final);
        let dh_prev = prep(&mut ws.c, d);
        let da_all = scratch(&mut ws.da_all, cache.len * 2 * d);
        let dpre_all = scratch(&mut ws.dpre_all, cache.len * d);
        // Hidden-state columns of `phᵀ·dpre_h`, then of `pzrᵀ·da`.
        let d_hid = prep(&mut ws.t1, d);
        for t in (0..cache.len).rev() {
            let gz = &cache.gz[t * d..(t + 1) * d];
            let gr = &cache.gr[t * d..(t + 1) * d];
            let hc = &cache.hc[t * d..(t + 1) * d];
            let h_prev = &cache.h_prev[t * d..(t + 1) * d];
            let da = &mut da_all[t * 2 * d..(t + 1) * 2 * d];
            let dpre_h = &mut dpre_all[t * d..(t + 1) * d];
            dh_prev.fill(0.0);
            // h = (1-z) h_prev + z hc
            for k in 0..d {
                let dz_gate = dh[k] * (hc[k] - h_prev[k]);
                let dhc = dh[k] * gz[k];
                dh_prev[k] += dh[k] * (1.0 - gz[k]);
                dpre_h[k] = dhc * (1.0 - hc[k] * hc[k]);
                da[k] = dz_gate * gz[k] * (1.0 - gz[k]);
            }
            self.ph.matvec_t_cols_into(dpre_h, self.in_dim, d_hid);
            // zh's h-part is r ⊙ h_prev.
            for k in 0..d {
                let drh = d_hid[k];
                let dr = drh * h_prev[k];
                dh_prev[k] += drh * gr[k];
                da[d + k] = dr * gr[k] * (1.0 - gr[k]);
            }
            self.pzr.matvec_t_cols_into(da, self.in_dim, d_hid);
            for k in 0..d {
                dh_prev[k] += d_hid[k];
            }
            dh.copy_from_slice(dh_prev);
        }
        grads.ph.outer_acc_rows_rev(dpre_all, &cache.zh);
        grads.pzr.outer_acc_rows_rev(da_all, &cache.zin);
    }
}

/// Sequence encoder over a [`GruCell`].
#[derive(Debug, Clone)]
pub struct GruEncoder {
    /// The underlying cell.
    pub cell: GruCell,
}

impl GruEncoder {
    /// New encoder for 2-D coordinates.
    pub fn new(dim: usize, seed: u64) -> Self {
        Self {
            cell: GruCell::new(2, dim, seed),
        }
    }

    /// Encodes coordinates; returns embedding + cache.
    pub fn forward(&self, coords: &[(f64, f64)]) -> (Vec<f64>, GruCache) {
        self.cell.forward_coords_ws(coords, &mut Workspace::new())
    }

    /// [`Self::forward`] with reusable scratch buffers.
    pub fn forward_ws(&self, coords: &[(f64, f64)], ws: &mut Workspace) -> (Vec<f64>, GruCache) {
        self.cell.forward_coords_ws(coords, ws)
    }

    /// See [`GruCell::backward`].
    pub fn backward(&self, cache: &GruCache, d_h: &[f64], grads: &mut GruGrads) {
        self.cell.backward(cache, d_h, grads);
    }

    /// See [`GruCell::backward_ws`].
    pub fn backward_ws(
        &self,
        cache: &GruCache,
        d_h: &[f64],
        grads: &mut GruGrads,
        ws: &mut Workspace,
    ) {
        self.cell.backward_ws(cache, d_h, grads, ws);
    }
}

impl Encoder for GruEncoder {
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
        vec![vec![0.4, -0.6], vec![0.9, 0.2], vec![-0.3, 0.7]]
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let cell = GruCell::new(2, 6, 5);
        let (h, cache) = cell.forward(&toy_inputs());
        assert_eq!(h.len(), 6);
        assert_eq!(cache.len(), 3);
        // GRU hidden state is a convex combination of tanh values → (-1,1).
        assert!(h.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh() {
        let cell = GruCell::new(2, 6, 5);
        let mut ws = Workspace::new();
        let _ = cell.forward_ws(&vec![vec![3.0, 3.0]; 9], &mut ws);
        let (h_fresh, cache) = cell.forward(&toy_inputs());
        let (h_reused, _) = cell.forward_ws(&toy_inputs(), &mut ws);
        assert_eq!(h_fresh, h_reused);
        let w = vec![0.25; 6];
        let mut g1 = GruGrads::zeros_like(&cell);
        let mut g2 = GruGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut g1);
        cell.backward_ws(&cache, &w, &mut g2, &mut ws);
        assert_eq!(g1.pzr.as_slice(), g2.pzr.as_slice());
        assert_eq!(g1.ph.as_slice(), g2.ph.as_slice());
    }

    #[test]
    fn grad_check_pzr_and_ph() {
        let d = 4;
        let cell = GruCell::new(2, d, 13);
        let inputs = toy_inputs();
        let w: Vec<f64> = (0..d).map(|i| 1.0 - 0.3 * i as f64).collect();
        let (_, cache) = cell.forward(&inputs);
        let mut grads = GruGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut grads);

        // Step 1e-5: a 1e-6 step resolves gradients of this size (4e-5) to
        // only ~1.5e-6 relative — one ulp of `f` — so whether the 1e-6
        // tolerance held came down to the last bit of each `tanh`.
        // Check pzr.
        let analytic = grads.pzr.as_slice().to_vec();
        let mut params = cell.pzr.as_slice().to_vec();
        let base = cell.clone();
        check_gradient(&mut params, &analytic, 1e-5, 1e-6, |p| {
            let mut probe = base.clone();
            probe.pzr = Mat::from_vec(2 * d, 2 + d + 1, p.to_vec());
            dot(&w, &probe.forward(&inputs).0)
        });
        // Check ph.
        let analytic = grads.ph.as_slice().to_vec();
        let mut params = cell.ph.as_slice().to_vec();
        check_gradient(&mut params, &analytic, 1e-5, 1e-6, |p| {
            let mut probe = base.clone();
            probe.ph = Mat::from_vec(d, 2 + d + 1, p.to_vec());
            dot(&w, &probe.forward(&inputs).0)
        });
    }

    #[test]
    fn batched_forward_bit_identical_to_scalar() {
        let cell = GruCell::new(2, 6, 41);
        let seqs: Vec<Vec<(f64, f64)>> = (0..9)
            .map(|i| {
                let len = 3 + (i * 5) % 11;
                (0..len)
                    .map(|t| {
                        let t = t as f64;
                        let i = i as f64;
                        ((0.1 * t + 0.01 * i).sin(), (0.2 * t - 0.03 * i).cos())
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[(f64, f64)]> = seqs.iter().map(|s| s.as_slice()).collect();
        let mut ws = Workspace::new();
        let batched = cell.forward_coords_batch_ws(&refs, &mut ws);
        for (seq, got) in seqs.iter().zip(&batched) {
            let (want, _) = cell.forward_coords_ws(seq, &mut ws);
            assert_eq!(&want, got);
        }
        assert!(cell.forward_coords_batch_ws(&[], &mut ws).is_empty());
    }

    #[test]
    fn encoder_trait_impl() {
        let mut enc = GruEncoder::new(5, 2);
        let e = enc.embed(&[(0.1, 0.2), (0.3, 0.4)], &[]);
        assert_eq!(e.len(), 5);
    }
}
