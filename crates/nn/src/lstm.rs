//! Standard LSTM cell.
//!
//! Used as the backbone of the Siamese baseline and the NT-No-SAM ablation
//! (§VII-A.3), and as the base the SAM unit extends.

use crate::linalg::{activate_gates, lstm_cell_update, Mat, PackedNt};
use crate::workspace::{lockstep, prep, scratch, Workspace};

/// A standard LSTM cell over 2-D coordinate inputs, with fused parameters.
///
/// All gate weights live in one matrix `P` of shape `(4d) × (d + 3)`
/// applied to the concatenated vector `z = [x; y; h_{t-1}; 1]` (the
/// trailing 1 folds the bias in). Gate row order: input `i`, forget `f`,
/// output `o`, candidate `g`.
#[derive(Debug, Clone)]
pub struct LstmCell {
    dim: usize,
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
    /// `z_t = [x; y; h_{t-1}; 1]`, `T × (d + 3)`.
    z: Vec<f64>,
    /// Activated gates `[i, f, o, g]`, `T × 4d`.
    gates: Vec<f64>,
    /// Cell states, `T × d`.
    c: Vec<f64>,
    /// `tanh(c_t)`, `T × d`.
    tanh_c: Vec<f64>,
}

impl LstmCache {
    /// An empty cache with room for `steps` steps of a `d`-wide cell.
    fn with_steps(steps: usize, d: usize) -> Self {
        Self {
            len: steps,
            z: Vec::with_capacity(steps * (d + 3)),
            gates: Vec::with_capacity(steps * 4 * d),
            c: Vec::with_capacity(steps * d),
            tanh_c: Vec::with_capacity(steps * d),
        }
    }

    /// Appends the next step.
    fn push(&mut self, z: &[f64], gates: &[f64], c: &[f64], tanh_c: &[f64]) {
        self.z.extend_from_slice(z);
        self.gates.extend_from_slice(gates);
        self.c.extend_from_slice(c);
        self.tanh_c.extend_from_slice(tanh_c);
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

impl LstmCell {
    /// New cell with Xavier-initialized weights and zero biases.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0);
        let mut p = Mat::xavier(4 * dim, dim + 3, seed);
        // Zero the bias column; set the forget-gate bias to 1 (standard
        // trick for gradient flow early in training).
        let bias_col = dim + 2;
        for r in 0..4 * dim {
            *p.get_mut(r, bias_col) = 0.0;
        }
        for r in dim..2 * dim {
            *p.get_mut(r, bias_col) = 1.0;
        }
        Self { dim, p }
    }

    /// Hidden/cell dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.p.rows() * self.p.cols()
    }

    /// The recurrent pass over many coordinate sequences in lockstep (the
    /// `lockstep` loop of `workspace.rs`): the per-step gate computation
    /// is a single `(active × zlen)·Pᵀ` GEMM over panels of `P` packed
    /// once per call (`linalg::PackedNt`). Returns the final hidden states
    /// in input order; a sequence's state depends on that sequence alone,
    /// bit for bit, whatever else is in the batch.
    ///
    /// With `caches` (one per sequence, in input order) the pass also
    /// records what [`Self::backward`] needs: each cache is replaced by one
    /// for its sequence, filled step by step as its slot advances. Panics
    /// when any sequence is empty or `caches` has another length.
    pub fn forward_batch(
        &self,
        seqs: &[&[(f64, f64)]],
        mut caches: Option<&mut [LstmCache]>,
        ws: &mut Workspace,
    ) -> Vec<Vec<f64>> {
        let d = self.dim;
        let zlen = d + 3;
        let b = seqs.len();
        if let Some(caches) = caches.as_deref_mut() {
            assert_eq!(caches.len(), b, "one cache per sequence");
            for (cache, seq) in caches.iter_mut().zip(seqs) {
                *cache = LstmCache::with_steps(seq.len(), d);
            }
        }
        let Workspace {
            bh,
            bz,
            bc,
            bgates,
            t1,
            panels,
            ..
        } = ws;
        let level = neutraj_obs::simd::level();
        let p = PackedNt::new(&self.p, b, panels);
        let c = prep(bc, b * d);
        let gates = prep(bgates, b * 4 * d);
        let tanh_c = prep(t1, d);
        let step = |_t: usize, slots: &[usize], z: &[f64], h: &mut [f64]| {
            let active = slots.len();
            p.matmul(level, z, &mut gates[..active * 4 * d], active);
            for (s, &i) in slots.iter().enumerate() {
                let g = &mut gates[s * 4 * d..(s + 1) * 4 * d];
                activate_gates(g, 3 * d);
                let cs = &mut c[s * d..(s + 1) * d];
                lstm_cell_update(g, cs, tanh_c, &mut h[s * d..(s + 1) * d]);
                if let Some(caches) = caches.as_deref_mut() {
                    caches[i].push(&z[s * zlen..(s + 1) * zlen], g, cs, tanh_c);
                }
            }
        };
        lockstep(b, |i| seqs[i], d, bh, bz, step)
    }

    /// Backpropagates `d_h_final` (gradient w.r.t. the final hidden state)
    /// through the cached sequence, accumulating parameter gradients into
    /// `grads`. Returns nothing — input gradients are not needed because
    /// trajectory coordinates are constants.
    ///
    /// The gate gradients `da_t` are kept for the whole sequence and
    /// `dP += Σ_t da_t ⊗ z_t` applied once, as an ordered GEMM
    /// ([`Mat::outer_acc_rows_rev`]) that adds the terms in the order the
    /// step loop walks; `dh` is the hidden-state column slice of `Pᵀ·da`
    /// ([`Mat::matvec_t_cols_into`]).
    pub fn backward(
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
            self.p.matvec_t_cols_into(da, 2, dh);
        }
        grads.p.outer_acc_rows_rev(da_all, &cache.z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use crate::linalg::dot;
    use crate::workspace::lockstep_tests::{self, bits};

    fn toy_inputs() -> Vec<(f64, f64)> {
        vec![(0.5, -0.2), (1.0, 0.3), (-0.4, 0.8), (0.1, 0.1)]
    }

    /// One sequence through the recording forward, a batch of one.
    fn forward_ws(
        cell: &LstmCell,
        coords: &[(f64, f64)],
        ws: &mut Workspace,
    ) -> (Vec<f64>, LstmCache) {
        let mut caches = [LstmCache::default()];
        let h = cell
            .forward_batch(&[coords], Some(&mut caches), ws)
            .pop()
            .unwrap();
        let [cache] = caches;
        (h, cache)
    }

    fn forward(cell: &LstmCell, coords: &[(f64, f64)]) -> (Vec<f64>, LstmCache) {
        forward_ws(cell, coords, &mut Workspace::new())
    }

    /// The per-sequence loop the lockstep forward replaced — one matvec
    /// per step — kept as its oracle.
    fn scalar_forward(cell: &LstmCell, coords: &[(f64, f64)]) -> (Vec<f64>, LstmCache) {
        let d = cell.dim;
        let mut cache = LstmCache::with_steps(coords.len(), d);
        let (mut h, mut c) = (vec![0.0; d], vec![0.0; d]);
        let (mut a, mut tanh_c) = (vec![0.0; 4 * d], vec![0.0; d]);
        for &(x, y) in coords {
            let z: Vec<f64> = [x, y].iter().chain(&h).chain(&[1.0]).copied().collect();
            a.fill(0.0);
            cell.p.matvec_into(&z, &mut a);
            activate_gates(&mut a, 3 * d);
            lstm_cell_update(&a, &mut c, &mut tanh_c, &mut h);
            cache.push(&z, &a, &c, &tanh_c);
        }
        (h, cache)
    }

    fn cache_bits(h: &[f64], cache: &LstmCache) -> Vec<u64> {
        bits([h, &cache.z, &cache.gates, &cache.c, &cache.tanh_c])
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let cell = LstmCell::new(8, 42);
        let (h1, cache) = forward(&cell, &toy_inputs());
        let (h2, _) = forward(&cell, &toy_inputs());
        assert_eq!(h1.len(), 8);
        assert_eq!(cache.len(), 4);
        assert_eq!(h1, h2);
        assert!(h1.iter().any(|v| *v != 0.0));
        assert!(h1.iter().all(|v| v.abs() <= 1.0)); // h = o·tanh(c) ∈ (-1,1)
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_fresh() {
        let cell = LstmCell::new(8, 42);
        let mut ws = Workspace::new();
        // Dirty the workspace with a different sequence first.
        let _ = forward_ws(&cell, &[(9.0, -9.0); 7], &mut ws);
        let (h_fresh, cache_fresh) = forward(&cell, &toy_inputs());
        let (h_reused, cache_reused) = forward_ws(&cell, &toy_inputs(), &mut ws);
        assert_eq!(h_fresh, h_reused);
        let mut g1 = LstmGrads::zeros_like(&cell);
        let mut g2 = LstmGrads::zeros_like(&cell);
        let w = vec![0.5; 8];
        cell.backward(&cache_fresh, &w, &mut g1, &mut Workspace::new());
        cell.backward(&cache_reused, &w, &mut g2, &mut ws);
        assert_eq!(g1.p.as_slice(), g2.p.as_slice());
    }

    #[test]
    fn different_sequences_embed_differently() {
        let cell = LstmCell::new(8, 1);
        let (h1, _) = forward(&cell, &toy_inputs());
        let mut other = toy_inputs();
        other[2] = (5.0, -5.0);
        let (h2, _) = forward(&cell, &other);
        assert_ne!(h1, h2);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let cell = LstmCell::new(4, 0);
        let _ = forward(&cell, &[]);
    }
    #[test]
    fn forget_bias_initialized_to_one() {
        let cell = LstmCell::new(4, 9);
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
        let cell = LstmCell::new(d, 7);
        let inputs = toy_inputs();
        let w: Vec<f64> = (0..d).map(|i| 0.3 + 0.1 * i as f64).collect();

        let (h, cache) = forward(&cell, &inputs);
        assert_eq!(h.len(), d);
        let mut grads = LstmGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut grads, &mut Workspace::new());

        let analytic = grads.p.as_slice().to_vec();
        let mut params = cell.p.as_slice().to_vec();
        // Tolerance 5e-5, not 1e-6: the finite-difference probe loses
        // ~half the mantissa to cancellation, and the residual depends on
        // how the host's codegen contracts mul+add (FMA vs separate
        // rounding). Observed rel errs range 1e-7..2e-6 across machines;
        // a genuinely wrong gradient term shows up at 1e-2 or worse.
        check_gradient(&mut params, &analytic, 1e-6, 5e-5, |p| {
            let mut probe = LstmCell::new(d, 0);
            probe.p = Mat::from_vec(4 * d, d + 3, p.to_vec());
            dot(&w, &forward(&probe, &inputs).0)
        });
    }

    #[test]
    fn grad_check_single_step() {
        // Degenerate one-step sequence exercises the t == 0 path (c_prev = 0).
        let d = 4;
        let cell = LstmCell::new(d, 3);
        let inputs = [(0.7, -0.9)];
        let w = vec![1.0, -0.5, 0.25, 2.0];
        let (_, cache) = forward(&cell, &inputs);
        let mut grads = LstmGrads::zeros_like(&cell);
        cell.backward(&cache, &w, &mut grads, &mut Workspace::new());
        let analytic = grads.p.as_slice().to_vec();
        let mut params = cell.p.as_slice().to_vec();
        check_gradient(&mut params, &analytic, 1e-6, 1e-6, |p| {
            let mut probe = LstmCell::new(d, 0);
            probe.p = Mat::from_vec(4 * d, d + 3, p.to_vec());
            dot(&w, &forward(&probe, &inputs).0)
        });
    }

    #[test]
    fn batched_forward_bit_identical_to_scalar() {
        let cell = LstmCell::new(8, 42);
        lockstep_tests::matches_scalar(
            |seqs, ws| {
                let refs: Vec<&[(f64, f64)]> = seqs.iter().map(|(c, _)| c.as_slice()).collect();
                let mut caches = vec![LstmCache::default(); seqs.len()];
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
        let cell = LstmCell::new(8, 42);
        lockstep_tests::packs_only_wide_batches(
            |seqs, ws| {
                let refs: Vec<&[(f64, f64)]> = seqs.iter().map(|(c, _)| c.as_slice()).collect();
                cell.forward_batch(&refs, None, ws)
            },
            1,
        );
    }
}
