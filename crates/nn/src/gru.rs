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
}

impl GruCache {
    /// An empty cache with room for `steps` steps of a `d`-wide cell.
    fn with_steps(steps: usize, d: usize) -> Self {
        Self {
            len: steps,
            zin: Vec::with_capacity(steps * (d + 3)),
            zh: Vec::with_capacity(steps * (d + 3)),
            gz: Vec::with_capacity(steps * d),
            gr: Vec::with_capacity(steps * d),
            hc: Vec::with_capacity(steps * d),
        }
    }

    /// Appends the next step.
    fn push(&mut self, zin: &[f64], zh: &[f64], gz: &[f64], gr: &[f64], hc: &[f64]) {
        self.zin.extend_from_slice(zin);
        self.zh.extend_from_slice(zh);
        self.gz.extend_from_slice(gz);
        self.gr.extend_from_slice(gr);
        self.hc.extend_from_slice(hc);
    }

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

    /// The recurrent pass over many coordinate sequences in lockstep (the
    /// `lockstep` loop of `workspace.rs`). Each timestep runs two GEMMs
    /// over the active prefix — gates (`(active × zlen)·pzrᵀ`) and
    /// candidates (`(active × zlen)·phᵀ`) — over panels of both packed
    /// once per call (`linalg::PackedNt`). Returns the final hidden states
    /// in input order; a sequence's state depends on that sequence alone.
    ///
    /// With `caches` (one per sequence, in input order) the pass also
    /// records what [`Self::backward`] needs, each cache replaced by one
    /// for its sequence. Panics when any sequence is empty or `caches` has
    /// another length.
    pub fn forward_batch(
        &self,
        seqs: &[&[(f64, f64)]],
        mut caches: Option<&mut [GruCache]>,
        ws: &mut Workspace,
    ) -> Vec<Vec<f64>> {
        let d = self.dim;
        let zlen = d + 3;
        let b = seqs.len();
        if let Some(caches) = caches.as_deref_mut() {
            assert_eq!(caches.len(), b, "one cache per sequence");
            for (cache, seq) in caches.iter_mut().zip(seqs) {
                *cache = GruCache::with_steps(seq.len(), d);
            }
        }
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
            for (s, &i) in slots.iter().enumerate() {
                let (gz, gr) = gates[s * 2 * d..(s + 1) * 2 * d].split_at(d);
                let hs = &mut h[s * d..(s + 1) * d];
                let hcs = &hc[s * d..(s + 1) * d];
                for k in 0..d {
                    hs[k] = (1.0 - gz[k]) * hs[k] + gz[k] * hcs[k];
                }
                if let Some(caches) = caches.as_deref_mut() {
                    let zin = &z[s * zlen..(s + 1) * zlen];
                    caches[i].push(zin, &z2[s * zlen..(s + 1) * zlen], gz, gr, hcs);
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
            let h_prev = &cache.zin[t * (d + 3) + 2..][..d];
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
    use crate::workspace::lockstep_tests::{self, bits};

    fn toy_inputs() -> Vec<(f64, f64)> {
        vec![(0.4, -0.6), (0.9, 0.2), (-0.3, 0.7)]
    }

    /// One sequence through the recording forward, a batch of one.
    fn forward_ws(
        cell: &GruCell,
        coords: &[(f64, f64)],
        ws: &mut Workspace,
    ) -> (Vec<f64>, GruCache) {
        let mut caches = [GruCache::default()];
        let h = cell
            .forward_batch(&[coords], Some(&mut caches), ws)
            .pop()
            .unwrap();
        let [cache] = caches;
        (h, cache)
    }

    fn forward(cell: &GruCell, coords: &[(f64, f64)]) -> (Vec<f64>, GruCache) {
        forward_ws(cell, coords, &mut Workspace::new())
    }

    /// The per-sequence loop the lockstep forward replaced — two matvecs
    /// per step — kept as its oracle.
    fn scalar_forward(cell: &GruCell, coords: &[(f64, f64)]) -> (Vec<f64>, GruCache) {
        let d = cell.dim;
        let mut cache = GruCache::with_steps(coords.len(), d);
        let mut h = vec![0.0; d];
        let (mut a, mut hc) = (vec![0.0; 2 * d], vec![0.0; d]);
        for &(x, y) in coords {
            let zin: Vec<f64> = [x, y].iter().chain(&h).chain(&[1.0]).copied().collect();
            a.fill(0.0);
            cell.pzr.matvec_into(&zin, &mut a);
            activate_gates(&mut a, 2 * d);
            let (gz, gr) = a.split_at(d);
            let rh = gr.iter().zip(&h).map(|(g, hv)| g * hv);
            let zh: Vec<f64> = [x, y].into_iter().chain(rh).chain([1.0]).collect();
            hc.fill(0.0);
            cell.ph.matvec_into(&zh, &mut hc);
            tanh_slice(&mut hc);
            for k in 0..d {
                h[k] = (1.0 - gz[k]) * h[k] + gz[k] * hc[k];
            }
            cache.push(&zin, &zh, gz, gr, &hc);
        }
        (h, cache)
    }

    fn cache_bits(h: &[f64], c: &GruCache) -> Vec<u64> {
        bits([h, &c.zin, &c.zh, &c.gz, &c.gr, &c.hc])
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
        let _ = forward_ws(&cell, &[(3.0, 3.0); 9], &mut ws);
        let (h_fresh, cache) = forward(&cell, &toy_inputs());
        let (h_reused, _) = forward_ws(&cell, &toy_inputs(), &mut ws);
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
        lockstep_tests::matches_scalar(
            |seqs, ws| {
                let refs: Vec<&[(f64, f64)]> = seqs.iter().map(|(c, _)| c.as_slice()).collect();
                let mut caches = vec![GruCache::default(); seqs.len()];
                let hs = cell.forward_batch(&refs, Some(&mut caches), ws);
                assert_eq!(hs, cell.forward_batch(&refs, None, ws), "recording moved h");
                hs.iter()
                    .zip(&caches)
                    .map(|(h, c)| cache_bits(h, c))
                    .collect()
            },
            |(coords, _)| {
                let (h, cache) = scalar_forward(&cell, coords);
                cache_bits(&h, &cache)
            },
        );
    }

    #[test]
    fn batched_forward_narrower_than_pack_min_m_packs_nothing() {
        let cell = GruCell::new(6, 41);
        lockstep_tests::packs_only_wide_batches(
            |seqs, ws| {
                let refs: Vec<&[(f64, f64)]> = seqs.iter().map(|(c, _)| c.as_slice()).collect();
                cell.forward_batch(&refs, None, ws)
            },
            2,
        );
    }
}
