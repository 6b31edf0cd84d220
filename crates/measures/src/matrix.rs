//! Pairwise distance matrices.

use crate::bruteforce::{partial_sort_neighbors, Neighbor};
use crate::engine::GroundTruthEngine;
use crate::Measure;
use neutraj_obs::Registry;
use neutraj_trajectory::Trajectory;

/// Aggregates over the finite off-diagonal entries of a
/// [`DistanceMatrix`], collected in one pass (see
/// [`DistanceMatrix::finite_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiniteStats {
    /// Largest finite off-diagonal entry; `None` when there is none.
    pub max: Option<f64>,
    /// Mean of the finite off-diagonal entries (0 when there are none).
    pub mean: f64,
    /// Number of finite off-diagonal entries (both triangles).
    pub count: usize,
}

/// A dense, symmetric `N × N` pairwise distance matrix.
///
/// This is the matrix **D** the paper computes over the seed pool 𝔖 (§III-B)
/// and the ground truth for every accuracy experiment. Stored row-major so
/// a row — the importance vector used by distance-weighted sampling — is a
/// contiguous slice.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Computes all pairwise distances of `trajectories` under `measure`,
    /// sequentially. Diagonal entries are 0 by definition.
    ///
    /// Thin forward to [`GroundTruthEngine::matrix`] with one worker —
    /// same bits as the historical double loop, with the engine's
    /// per-thread scratch reuse and accelerated kernels.
    pub fn compute(measure: &dyn Measure, trajectories: &[Trajectory]) -> Self {
        GroundTruthEngine::new(measure, trajectories).matrix(1)
    }

    /// Computes all pairwise distances using `threads` worker threads.
    ///
    /// Thin forward to [`GroundTruthEngine::matrix`]: upper-triangle tiles
    /// are handed to workers by an atomic work-stealing counter, so the
    /// triangular workload balances without the old round-robin row
    /// striding. Results are bit-identical at any thread count.
    pub fn compute_parallel(
        measure: &dyn Measure,
        trajectories: &[Trajectory],
        threads: usize,
    ) -> Self {
        GroundTruthEngine::new(measure, trajectories).matrix(threads)
    }

    /// [`Self::compute_parallel`] with the engine's `neutraj_measures_*`
    /// counters and timers recorded into `registry`.
    pub fn compute_instrumented(
        measure: &dyn Measure,
        trajectories: &[Trajectory],
        threads: usize,
        registry: &Registry,
    ) -> Self {
        GroundTruthEngine::new(measure, trajectories)
            .with_metrics(registry)
            .matrix(threads)
    }

    /// Builds a matrix from raw row-major data. Panics when `data` is not
    /// `n²` long.
    pub fn from_raw(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "matrix data must be n^2");
        Self { n, data }
    }

    /// Number of rows (== columns).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between items `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Row `i` as a contiguous slice — the importance vector `I_a`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Max, mean and count of the finite off-diagonal entries, collected
    /// in a **single upper-triangle pass** — the matrix is symmetric by
    /// construction, so entry `(i, j)` stands in for `(j, i)` and only
    /// `n(n−1)/2` cells are read (the old per-aggregate methods each
    /// walked all `n²`).
    pub fn finite_stats(&self) -> FiniteStats {
        let mut max: Option<f64> = None;
        let mut sum = 0.0;
        let mut upper = 0usize;
        for i in 0..self.n {
            for &v in &self.data[i * self.n + i + 1..(i + 1) * self.n] {
                if v.is_finite() {
                    max = Some(max.map_or(v, |b: f64| b.max(v)));
                    sum += v;
                    upper += 1;
                }
            }
        }
        FiniteStats {
            max,
            // Each off-diagonal value appears twice in the full matrix, so
            // the upper-triangle mean equals the full off-diagonal mean.
            mean: if upper == 0 { 0.0 } else { sum / upper as f64 },
            count: 2 * upper,
        }
    }

    /// Mean of the finite off-diagonal entries (0 when there are none).
    pub fn mean_finite(&self) -> f64 {
        self.finite_stats().mean
    }

    /// Indices of the `k` nearest neighbours of row `i` (excluding `i`),
    /// ascending by distance. Ties broken by index for determinism.
    ///
    /// Uses the same `O(n + k log k)` partial selection as
    /// [`crate::top_k`] rather than sorting all `n − 1` candidates.
    pub fn knn_of(&self, i: usize, k: usize) -> Vec<usize> {
        let row = self.row(i);
        let mut nn: Vec<Neighbor> = (0..self.n)
            .filter(|&j| j != i)
            .map(|j| Neighbor {
                index: j,
                dist: row[j],
            })
            .collect();
        partial_sort_neighbors(&mut nn, k);
        nn.into_iter().map(|n| n.index).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hausdorff;
    use neutraj_trajectory::Point;

    fn corpus(n: usize) -> Vec<Trajectory> {
        (0..n as u64)
            .map(|id| {
                Trajectory::new_unchecked(
                    id,
                    (0..5)
                        .map(|k| Point::new(id as f64 * 2.0 + k as f64 * 0.25, 0.0))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn sequential_matrix_is_symmetric_with_zero_diagonal() {
        let ts = corpus(6);
        let m = DistanceMatrix::compute(&Hausdorff, &ts);
        for i in 0..6 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..6 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let ts = corpus(40);
        let seq = DistanceMatrix::compute(&Hausdorff, &ts);
        let par = DistanceMatrix::compute_parallel(&Hausdorff, &ts, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn knn_orders_by_distance() {
        let ts = corpus(5); // items at x = 0, 2, 4, 6, 8
        let m = DistanceMatrix::compute(&Hausdorff, &ts);
        assert_eq!(m.knn_of(0, 2), vec![1, 2]);
        assert_eq!(m.knn_of(2, 4), vec![1, 3, 0, 4]);
        // Over-asking truncates to n - 1.
        assert_eq!(m.knn_of(0, 100).len(), 4);
    }

    #[test]
    fn aggregates() {
        let ts = corpus(3);
        let m = DistanceMatrix::compute(&Hausdorff, &ts);
        assert!(m.finite_stats().max.unwrap() > 0.0);
        assert!(m.mean_finite() > 0.0);
        let empty = DistanceMatrix::from_raw(1, vec![0.0]);
        assert!(empty.finite_stats().max.is_none());
        assert_eq!(empty.mean_finite(), 0.0);
    }

    #[test]
    fn finite_stats_single_pass_matches_aggregates() {
        // 0 on the diagonal, one infinite pair, rest finite (symmetric).
        let inf = f64::INFINITY;
        #[rustfmt::skip]
        let data = vec![
            0.0, 2.0, inf,
            2.0, 0.0, 4.0,
            inf, 4.0, 0.0,
        ];
        let m = DistanceMatrix::from_raw(3, data);
        let st = m.finite_stats();
        assert_eq!(st.max, Some(4.0));
        assert_eq!(st.mean, 3.0);
        assert_eq!(st.count, 4);
        assert_eq!(m.mean_finite(), 3.0);
        let empty = DistanceMatrix::from_raw(1, vec![0.0]);
        let st = empty.finite_stats();
        assert_eq!((st.max, st.mean, st.count), (None, 0.0, 0));
    }

    #[test]
    #[should_panic(expected = "n^2")]
    fn from_raw_validates_shape() {
        let _ = DistanceMatrix::from_raw(2, vec![0.0; 3]);
    }

    #[test]
    fn row_slice_matches_get() {
        let ts = corpus(4);
        let m = DistanceMatrix::compute(&Hausdorff, &ts);
        for i in 0..4 {
            for (j, v) in m.row(i).iter().enumerate() {
                assert_eq!(*v, m.get(i, j));
            }
        }
    }
}
