//! Landmark embedding approximation of the Hausdorff distance.

use crate::ApproxKnn;
use neutraj_trajectory::rng::Rng;
use neutraj_trajectory::{BoundingBox, Point, Trajectory};

/// Farach-Colton & Indyk-style constant-distortion embedding of point
/// sets: each trajectory maps to the vector of distances from `K` fixed
/// landmark points to its nearest trajectory point, clipped at `clip`.
///
/// The `L∞` difference of two such vectors **lower-bounds** the Hausdorff
/// distance (1-Lipschitz property of `min_dist` per landmark) and
/// approximates it increasingly well as landmarks densify. Query cost is
/// `O(K)` per pair after `O(K·L)` preprocessing per trajectory — the
/// "AP" baseline for Hausdorff, searched through [`ApproxKnn`] once
/// [`index`](Self::index) has stored the corpus signatures.
#[derive(Debug, Clone)]
pub struct HausdorffLandmarkApprox {
    landmarks: Vec<Point>,
    clip: f64,
    quantization: f64,
    /// Signatures of the indexed corpus, in corpus order.
    sigs: Vec<Vec<f64>>,
}

impl HausdorffLandmarkApprox {
    /// Places `k` landmarks over `extent` (uniform random, deterministic
    /// per `seed`), clipping stored distances at the extent diagonal.
    pub fn new(extent: BoundingBox, k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one landmark");
        assert!(!extent.is_empty(), "empty extent");
        let mut rng = Rng::seed_from_u64(seed);
        let landmarks = (0..k)
            .map(|_| {
                Point::new(
                    rng.gen_range(extent.min_x..=extent.max_x),
                    rng.gen_range(extent.min_y..=extent.max_y),
                )
            })
            .collect();
        let clip = (extent.width().powi(2) + extent.height().powi(2)).sqrt();
        Self {
            landmarks,
            clip,
            quantization: 0.0,
            sigs: Vec::new(),
        }
    }

    /// Quantizes signature entries to multiples of `q` (0 disables).
    ///
    /// The published embedding guarantees only *constant* distortion; a
    /// coarse quantization models that looseness and is what makes the
    /// baseline exhibit the paper's characteristic accuracy gap.
    pub fn with_quantization(mut self, q: f64) -> Self {
        assert!(q >= 0.0 && q.is_finite(), "quantization must be >= 0");
        self.quantization = q;
        self
    }

    /// Stores the signatures of `corpus`, the items
    /// [`ApproxKnn::distances`] scores a query against.
    pub fn index(mut self, corpus: &[Trajectory]) -> Self {
        self.sigs = corpus.iter().map(|t| self.signature(t)).collect();
        self
    }

    /// The embedding of `t`: its clipped, quantized distance from each
    /// landmark.
    pub fn signature(&self, t: &Trajectory) -> Vec<f64> {
        self.landmarks
            .iter()
            .map(|l| {
                let d = t
                    .points()
                    .iter()
                    .map(|p| l.dist(p))
                    .fold(f64::INFINITY, f64::min)
                    .min(self.clip);
                if self.quantization > 0.0 {
                    (d / self.quantization).floor() * self.quantization
                } else {
                    d
                }
            })
            .collect()
    }

    /// The `L∞` difference of two signatures.
    pub fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }
}

impl ApproxKnn for HausdorffLandmarkApprox {
    fn name(&self) -> &'static str {
        "AP-Hausdorff(landmark-embedding)"
    }

    fn distances(&self, query: &Trajectory) -> Vec<f64> {
        let qs = self.signature(query);
        self.sigs.iter().map(|s| self.dist(&qs, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_measures::{Hausdorff, Measure};

    fn hline(id: u64, y: f64) -> Trajectory {
        Trajectory::new_unchecked(id, (0..20).map(|k| Point::new(k as f64 * 5.0, y)).collect())
    }

    fn extent() -> BoundingBox {
        BoundingBox::new(-10.0, -10.0, 110.0, 110.0)
    }

    #[test]
    fn embedding_lower_bounds_hausdorff() {
        let ap = HausdorffLandmarkApprox::new(extent(), 64, 1);
        for (ya, yb) in [(0.0, 10.0), (5.0, 80.0), (50.0, 50.0)] {
            let a = hline(0, ya);
            let b = hline(1, yb);
            let exact = Hausdorff.dist(a.points(), b.points());
            let approx = ap.dist(&ap.signature(&a), &ap.signature(&b));
            assert!(
                approx <= exact + 1e-9,
                "lower bound violated: {approx} > {exact}"
            );
        }
    }

    #[test]
    fn approximation_is_informative_with_many_landmarks() {
        // With dense landmarks the estimate should recover a decent
        // fraction of the true distance for well-separated curves.
        let ap = HausdorffLandmarkApprox::new(extent(), 256, 2);
        let a = hline(0, 0.0);
        let b = hline(1, 60.0);
        let exact = Hausdorff.dist(a.points(), b.points());
        let approx = ap.dist(&ap.signature(&a), &ap.signature(&b));
        assert!(
            approx >= exact * 0.5,
            "estimate {approx} too weak vs exact {exact}"
        );
    }

    #[test]
    fn identical_sets_embed_identically() {
        let ap = HausdorffLandmarkApprox::new(extent(), 16, 3);
        let t = hline(0, 25.0);
        assert_eq!(ap.dist(&ap.signature(&t), &ap.signature(&t)), 0.0);
    }

    #[test]
    fn ranking_correlates_with_distance() {
        let ap = HausdorffLandmarkApprox::new(extent(), 128, 4);
        let q = hline(0, 0.0);
        let near = hline(1, 5.0);
        let far = hline(2, 90.0);
        let qs = ap.signature(&q);
        assert!(ap.dist(&qs, &ap.signature(&near)) < ap.dist(&qs, &ap.signature(&far)));
    }

    #[test]
    #[should_panic(expected = "at least one landmark")]
    fn rejects_zero_landmarks() {
        let _ = HausdorffLandmarkApprox::new(extent(), 0, 0);
    }

    #[test]
    fn quantization_coarsens_but_preserves_big_gaps() {
        let fine = HausdorffLandmarkApprox::new(extent(), 32, 5);
        let coarse = fine.clone().with_quantization(20.0);
        let a = hline(0, 0.0);
        let near = hline(1, 2.0);
        let far = hline(2, 80.0);
        // Fine embedding separates near pair; coarse one may collapse it.
        let fd = fine.dist(&fine.signature(&a), &fine.signature(&near));
        let cd = coarse.dist(&coarse.signature(&a), &coarse.signature(&near));
        assert!(cd <= fd + 20.0);
        // But a large geometric gap survives quantization.
        let cfar = coarse.dist(&coarse.signature(&a), &coarse.signature(&far));
        assert!(cfar > 20.0, "far distance collapsed to {cfar}");
    }
}
