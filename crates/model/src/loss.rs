//! The distance-weighted ranking loss (§V-B, Eqs. 8–9) — the paper's
//! second novel module — plus the plain MSE variant the Siamese baseline
//! uses.

use neutraj_nn::linalg::axpy;

/// Similarity of two embeddings: `g(Ti,Tj) = exp(-‖E_i − E_j‖)` (Eq. 7).
pub fn pair_similarity(ea: &[f64], eb: &[f64]) -> f64 {
    (-neutraj_nn::linalg::euclidean(ea, eb)).exp()
}

/// Loss value and embedding gradients of a single (anchor, sample) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairLoss {
    /// The (already weighted) scalar loss contribution.
    pub loss: f64,
    /// Gradient w.r.t. the anchor embedding.
    pub d_anchor: Vec<f64>,
    /// Gradient w.r.t. the sample embedding.
    pub d_sample: Vec<f64>,
}

/// Configuration of the pairwise ranking loss.
///
/// * NeuTraj (and both ablations): `rank_weighted = true`,
///   `margin_dissimilar = true`.
/// * Siamese baseline: both `false` — every pair carries uniform weight
///   and both sides regress the target similarity with plain MSE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedBatchLoss {
    /// Weight pair `l` by the normalized `1/l` (Mean-Reciprocal-Rank
    /// inspired) instead of `1/n`.
    pub rank_weighted: bool,
    /// Use the squared-ReLU margin loss on dissimilar pairs (Eq. 9)
    /// instead of plain MSE.
    pub margin_dissimilar: bool,
}

impl RankedBatchLoss {
    /// The paper's loss configuration.
    pub fn neutraj() -> Self {
        Self {
            rank_weighted: true,
            margin_dissimilar: true,
        }
    }

    /// The Siamese baseline's loss configuration.
    pub fn siamese() -> Self {
        Self {
            rank_weighted: false,
            margin_dissimilar: false,
        }
    }

    /// Normalized ranking weights `r = (1, 1/2, …, 1/n) / Σ` (§V-B), or
    /// uniform `1/n` when rank weighting is off.
    pub fn rank_weights(&self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if !self.rank_weighted {
            return vec![1.0 / n as f64; n];
        }
        let raw: Vec<f64> = (1..=n).map(|l| 1.0 / l as f64).collect();
        let sum: f64 = raw.iter().sum();
        raw.into_iter().map(|r| r / sum).collect()
    }

    /// One pair of a ranked list: the loss of `(anchor, sample)` against
    /// the seed similarity `target` at list weight `weight` (an entry of
    /// [`Self::rank_weights`]), on the similar (Eq. 8) or dissimilar
    /// (Eq. 9) side.
    pub fn pair(
        &self,
        anchor: &[f64],
        sample: &[f64],
        target: f64,
        weight: f64,
        dissimilar: bool,
    ) -> PairLoss {
        pair_loss(
            anchor,
            sample,
            target,
            weight,
            dissimilar && self.margin_dissimilar,
        )
    }

    fn list(
        &self,
        anchor: &[f64],
        samples: &[&[f64]],
        targets: &[f64],
        dissimilar: bool,
    ) -> Vec<PairLoss> {
        assert_eq!(samples.len(), targets.len(), "samples/targets mismatch");
        let w = self.rank_weights(samples.len());
        samples
            .iter()
            .zip(targets)
            .zip(w)
            .map(|((s, &f), wl)| self.pair(anchor, s, f, wl, dissimilar))
            .collect()
    }

    /// Loss of the similar list `L_a^s` (Eq. 8): weighted MSE between the
    /// embedding similarity and the seed similarity, pair `l` weighted by
    /// `r_l`. `targets[l]` is `f(T_a, T_l^s)` from **S**; `samples[l]` the
    /// embedding of `T_l^s`. Returns per-pair losses + gradients.
    pub fn similar_list(
        &self,
        anchor: &[f64],
        samples: &[&[f64]],
        targets: &[f64],
    ) -> Vec<PairLoss> {
        self.list(anchor, samples, targets, false)
    }

    /// Loss of the dissimilar list `L_a^d` (Eq. 9): squared-ReLU margin —
    /// zero when the pair is already far enough apart in embedding space
    /// (`g < f`), quadratic when the embedding oversells the similarity.
    pub fn dissimilar_list(
        &self,
        anchor: &[f64],
        samples: &[&[f64]],
        targets: &[f64],
    ) -> Vec<PairLoss> {
        self.list(anchor, samples, targets, true)
    }
}

/// One weighted pair loss with analytic embedding gradients.
///
/// `margin = false`: `L = w (g − f)²`. `margin = true`:
/// `L = w·ReLU(g − f)²`. With `g = exp(-‖u‖)`, `u = E_a − E_b`:
/// `∂g/∂E_a = −g·u/‖u‖`, `∂g/∂E_b = +g·u/‖u‖` (zero subgradient at
/// `u = 0`).
fn pair_loss(anchor: &[f64], sample: &[f64], target: f64, weight: f64, margin: bool) -> PairLoss {
    let d = anchor.len();
    debug_assert_eq!(sample.len(), d);
    let mut u: Vec<f64> = anchor.iter().zip(sample).map(|(a, b)| a - b).collect();
    let r = neutraj_nn::linalg::norm(&u);
    let g = (-r).exp();
    let diff = g - target;
    let (loss, dl_dg) = if margin && diff <= 0.0 {
        (0.0, 0.0)
    } else {
        (weight * diff * diff, 2.0 * weight * diff)
    };
    let mut d_anchor = vec![0.0; d];
    let mut d_sample = vec![0.0; d];
    if dl_dg != 0.0 && r > 0.0 {
        // ∂L/∂E_a = dl_dg · (−g/r) · u.
        let scale = -dl_dg * g / r;
        for v in &mut u {
            *v *= scale;
        }
        axpy(&mut d_anchor, 1.0, &u);
        axpy(&mut d_sample, -1.0, &u);
    }
    PairLoss {
        loss,
        d_anchor,
        d_sample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_nn::gradcheck::check_gradient;

    #[test]
    fn pair_similarity_range_and_identity() {
        let a = vec![0.1, -0.5, 2.0];
        assert_eq!(pair_similarity(&a, &a), 1.0);
        let b = vec![3.0, 0.0, 0.0];
        let g = pair_similarity(&a, &b);
        assert!(g > 0.0 && g < 1.0);
        // Farther apart ⇒ smaller similarity.
        let c = vec![30.0, 0.0, 0.0];
        assert!(pair_similarity(&a, &c) < g);
    }

    #[test]
    fn rank_weights_normalized_and_decreasing() {
        let l = RankedBatchLoss::neutraj();
        let w = l.rank_weights(5);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert!((w[0] / w[1] - 2.0).abs() < 1e-12); // 1 vs 1/2
        let u = RankedBatchLoss::siamese().rank_weights(4);
        assert!(u.iter().all(|&x| (x - 0.25).abs() < 1e-12));
        assert!(l.rank_weights(0).is_empty());
    }

    #[test]
    fn margin_loss_is_zero_when_separated() {
        // g < f  ⇒ already far enough apart, no loss, no gradient.
        let anchor = vec![0.0, 0.0];
        let sample = vec![5.0, 0.0]; // g = exp(-5) ≈ 0.0067
        let l = RankedBatchLoss::neutraj();
        let out = l.dissimilar_list(&anchor, &[&sample], &[0.5]);
        assert_eq!(out[0].loss, 0.0);
        assert!(out[0].d_anchor.iter().all(|v| *v == 0.0));
        // But the similar-side loss for the same pair is positive.
        let out = l.similar_list(&anchor, &[&sample], &[0.5]);
        assert!(out[0].loss > 0.0);
    }

    #[test]
    fn margin_activates_when_too_close() {
        let anchor = vec![0.0, 0.0];
        let sample = vec![0.1, 0.0]; // g ≈ 0.905 > f
        let l = RankedBatchLoss::neutraj();
        let out = l.dissimilar_list(&anchor, &[&sample], &[0.2]);
        assert!(out[0].loss > 0.0);
        assert!(out[0].d_anchor.iter().any(|v| *v != 0.0));
    }

    #[test]
    fn identical_embeddings_have_zero_gradient() {
        let a = vec![1.0, 2.0];
        let out = RankedBatchLoss::neutraj().similar_list(&a, &[&a.clone()], &[0.3]);
        // Loss is (1 - 0.3)² but the subgradient at u = 0 is 0.
        assert!(out[0].loss > 0.0);
        assert!(out[0].d_anchor.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn grad_check_similar_pair() {
        let loss_cfg = RankedBatchLoss::neutraj();
        let anchor = vec![0.3, -0.7, 1.2];
        let sample = vec![-0.1, 0.4, 0.9];
        let target = 0.35;
        let out = loss_cfg.similar_list(&anchor, &[&sample], &[target]);

        // Check gradient w.r.t. the anchor.
        let mut p = anchor.clone();
        check_gradient(&mut p, &out[0].d_anchor, 1e-6, 1e-6, |p| {
            loss_cfg.similar_list(p, &[&sample], &[target])[0].loss
        });
        // And w.r.t. the sample.
        let mut p = sample.clone();
        check_gradient(&mut p, &out[0].d_sample, 1e-6, 1e-6, |p| {
            loss_cfg.similar_list(&anchor, &[p], &[target])[0].loss
        });
    }

    #[test]
    fn grad_check_dissimilar_margin_pair() {
        let loss_cfg = RankedBatchLoss::neutraj();
        let anchor = vec![0.0, 0.1];
        let sample = vec![0.2, -0.1]; // close ⇒ margin active
        let target = 0.1;
        let out = loss_cfg.dissimilar_list(&anchor, &[&sample], &[target]);
        assert!(out[0].loss > 0.0);
        let mut p = anchor.clone();
        check_gradient(&mut p, &out[0].d_anchor, 1e-6, 1e-6, |p| {
            loss_cfg.dissimilar_list(p, &[&sample], &[target])[0].loss
        });
    }

    #[test]
    fn rank_weighting_prioritizes_first_pair() {
        let cfg = RankedBatchLoss::neutraj();
        let anchor = vec![0.0, 0.0];
        let s1 = vec![1.0, 0.0];
        let s2 = vec![1.0, 0.0];
        // Identical geometry, same target: only the rank weight differs.
        let out = cfg.similar_list(&anchor, &[&s1, &s2], &[0.9, 0.9]);
        assert!(out[0].loss > out[1].loss);
        assert!((out[0].loss / out[1].loss - 2.0).abs() < 1e-9);
    }
}
