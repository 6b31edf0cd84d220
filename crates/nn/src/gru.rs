//! GRU cell — an alternative RNN backbone.
//!
//! The paper notes its SAM module "augments existing RNN architectures
//! (GRU, LSTM)"; this GRU lets downstream code swap backbones and serves
//! as an ablation axis beyond the paper.

use crate::activation::tanh_slice;
use crate::linalg::{activate_gates, Mat, PackedNt};
use crate::workspace::{lockstep, prep, scratch, Workspace};

/// A GRU cell over 2-D coordinate inputs, with fused gate parameters.
///
/// `pzr` has shape `(2d) × (d + 3)` over `z = [x; y; h_{t-1}; 1]` and
/// produces update gate `z` (rows `0..d`) and reset gate `r`
/// (rows `d..2d`). `ph` has shape `d × (d + 3)` over
/// `[x; y; r ⊙ h_{t-1}; 1]` and produces the candidate state.
#[derive(Debug, Clone)]
pub struct GruCell {
    dim: usize,
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
    /// `[x; y; h_{t-1}; 1]`, `T × (d + 3)`.
    zin: Vec<f64>,
    /// `[x; y; r ⊙ h_{t-1}; 1]`, `T × (d + 3)`.
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
}

impl GruCell {
    /// New Xavier-initialized cell.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0);
        Self {
            dim,
            pzr: Mat::xavier(2 * dim, dim + 3, seed ^ 0x9E37_79B9),
            ph: Mat::xavier(dim, dim + 3, seed ^ 0x85EB_CA6B),
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

    /// Runs the cell over one coordinate sequence; returns the final
    /// hidden state and the cache for [`Self::backward`]. Also the scalar
    /// reference [`Self::forward_batch`] is checked against.
    ///
    /// Panics when `coords` is empty.
    pub fn forward_train(&self, coords: &[(f64, f64)], ws: &mut Workspace) -> (Vec<f64>, GruCache) {
        assert!(!coords.is_empty(), "cannot encode an empty sequence");
        let d = self.dim;
        let zlen = d + 3;
        let steps = coords.len();
        let mut cache = GruCache {
            len: steps,
            zin: Vec::with_capacity(steps * zlen),
            zh: Vec::with_capacity(steps * zlen),
            gz: Vec::with_capacity(steps * d),
            gr: Vec::with_capacity(steps * d),
            hc: vec![0.0; steps * d],
            h_prev: Vec::with_capacity(steps * d),
        };
        let h = prep(&mut ws.h, d);
        for (t, &(x, y)) in coords.iter().enumerate() {
            cache.h_prev.extend_from_slice(h);
            cache.zin.extend_from_slice(&[x, y]);
            cache.zin.extend_from_slice(h);
            cache.zin.push(1.0);
            let a = prep(&mut ws.gates, 2 * d);
            self.pzr
                .matvec_into(&cache.zin[t * zlen..(t + 1) * zlen], a);
            activate_gates(a, 2 * d); // both gates sigmoid
            let (gz, gr) = a.split_at(d);
            cache.gz.extend_from_slice(gz);
            cache.gr.extend_from_slice(gr);
            cache.zh.extend_from_slice(&[x, y]);
            cache
                .zh
                .extend(gr.iter().zip(h.iter()).map(|(g, hv)| g * hv));
            cache.zh.push(1.0);
            let hc = &mut cache.hc[t * d..(t + 1) * d];
            self.ph.matvec_into(&cache.zh[t * zlen..(t + 1) * zlen], hc);
            tanh_slice(hc);
            for k in 0..d {
                h[k] = (1.0 - gz[k]) * h[k] + gz[k] * hc[k];
            }
        }
        (h.to_vec(), cache)
    }

    /// Lockstep batched inference over many coordinate sequences (the
    /// `lockstep` driver of `workspace.rs`). Each timestep runs two GEMMs
    /// over the active prefix — gates (`(active × zlen)·pzrᵀ`) and
    /// candidates (`(active × zlen)·phᵀ`) — instead of `2·active` matvecs,
    /// over panels of both packed once per call (`linalg::PackedNt`).
    /// Bit-identical to per-sequence [`Self::forward_train`]; results in
    /// input order.
    ///
    /// Inference only (no BPTT cache). Panics when any sequence is empty.
    pub fn forward_batch(&self, seqs: &[&[(f64, f64)]], ws: &mut Workspace) -> Vec<Vec<f64>> {
        let d = self.dim;
        let zlen = d + 3;
        let b = seqs.len();
        let Workspace {
            bh,
            bz,
            bz2,
            bgates,
            bmix,
            panels,
            panels2,
            ..
        } = ws;
        let level = neutraj_obs::simd::level();
        let pzr = PackedNt::new(&self.pzr, b, panels);
        let ph = PackedNt::new(&self.ph, b, panels2);
        let z2 = prep(bz2, b * zlen);
        let gates = prep(bgates, b * 2 * d);
        let hc = prep(bmix, b * d);
        let step = |_t: usize, slots: &[usize], z: &[f64], h: &mut [f64]| {
            let active = slots.len();
            pzr.matmul(level, z, &mut gates[..active * 2 * d], active);
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
            ph.matmul(level, &z2[..active * zlen], &mut hc[..active * d], active);
            tanh_slice(&mut hc[..active * d]);
            for s in 0..active {
                let gz = &gates[s * 2 * d..s * 2 * d + d];
                let hs = &mut h[s * d..(s + 1) * d];
                let hcs = &hc[s * d..(s + 1) * d];
                for k in 0..d {
                    hs[k] = (1.0 - gz[k]) * hs[k] + gz[k] * hcs[k];
                }
            }
        };
        lockstep(b, |i| seqs[i], d, bh, bz, step)
    }

    /// BPTT from the final hidden-state gradient, accumulating into `grads`.
    ///
    /// Like the LSTM's: both weight gradients are applied once per
    /// sequence as ordered GEMMs over the kept per-step gradients, and
    /// only the hidden-state columns of the two transposed products are
    /// computed.
    pub fn backward(
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
            self.ph.matvec_t_cols_into(dpre_h, 2, d_hid);
            // zh's h-part is r ⊙ h_prev.
            for k in 0..d {
                let drh = d_hid[k];
                let dr = drh * h_prev[k];
                dh_prev[k] += drh * gr[k];
                da[d + k] = dr * gr[k] * (1.0 - gr[k]);
            }
            self.pzr.matvec_t_cols_into(da, 2, d_hid);
            for k in 0..d {
                dh_prev[k] += d_hid[k];
            }
            dh.copy_from_slice(dh_prev);
        }
        grads.ph.outer_acc_rows_rev(dpre_all, &cache.zh);
        grads.pzr.outer_acc_rows_rev(da_all, &cache.zin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use crate::linalg::dot;

    fn toy_inputs() -> Vec<(f64, f64)> {
        vec![(0.4, -0.6), (0.9, 0.2), (-0.3, 0.7)]
    }

    fn forward(cell: &GruCell, coords: &[(f64, f64)]) -> (Vec<f64>, GruCache) {
        cell.forward_train(coords, &mut Workspace::new())
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let cell = GruCell::new(6, 5);
        let (h, cache) = forward(&cell, &toy_inputs());
        assert_eq!(h.len(), 6);
        assert_eq!(cache.len(), 3);
        // GRU hidden state is a convex combination of tanh values → (-1,1).
        assert!(h.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh() {
        let cell = GruCell::new(6, 5);
        let mut ws = Workspace::new();
        let _ = cell.forward_train(&[(3.0, 3.0); 9], &mut ws);
        let (h_fresh, cache) = forward(&cell, &toy_inputs());
        let (h_reused, _) = cell.forward_train(&toy_inputs(), &mut ws);
        assert_eq!(h_fresh, h_reused);
        let w = vec![0.25; 6];
        let mut g1 = GruGrads::zeros_like(&cell);
        let mut g2 = GruGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut g1, &mut Workspace::new());
        cell.backward(&cache, &w, &mut g2, &mut ws);
        assert_eq!(g1.pzr.as_slice(), g2.pzr.as_slice());
        assert_eq!(g1.ph.as_slice(), g2.ph.as_slice());
    }

    #[test]
    fn grad_check_pzr_and_ph() {
        let d = 4;
        let cell = GruCell::new(d, 13);
        let inputs = toy_inputs();
        let w: Vec<f64> = (0..d).map(|i| 1.0 - 0.3 * i as f64).collect();
        let (_, cache) = forward(&cell, &inputs);
        let mut grads = GruGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut grads, &mut Workspace::new());

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
            dot(&w, &forward(&probe, &inputs).0)
        });
        // Check ph.
        let analytic = grads.ph.as_slice().to_vec();
        let mut params = cell.ph.as_slice().to_vec();
        check_gradient(&mut params, &analytic, 1e-5, 1e-6, |p| {
            let mut probe = base.clone();
            probe.ph = Mat::from_vec(d, 2 + d + 1, p.to_vec());
            dot(&w, &forward(&probe, &inputs).0)
        });
    }

    #[test]
    fn batched_forward_bit_identical_to_scalar() {
        let cell = GruCell::new(6, 41);
        crate::workspace::lockstep_tests::matches_scalar(
            |seqs, ws| {
                let refs: Vec<&[(f64, f64)]> = seqs.iter().map(|(c, _)| c.as_slice()).collect();
                cell.forward_batch(&refs, ws)
            },
            |(coords, _), ws| cell.forward_train(coords, ws).0,
        );
    }

    #[test]
    fn batched_forward_narrower_than_pack_min_m_packs_nothing() {
        let cell = GruCell::new(6, 41);
        crate::workspace::lockstep_tests::packs_only_wide_batches(
            |seqs, ws| {
                let refs: Vec<&[(f64, f64)]> = seqs.iter().map(|(c, _)| c.as_slice()).collect();
                cell.forward_batch(&refs, ws)
            },
            2,
        );
    }
}
