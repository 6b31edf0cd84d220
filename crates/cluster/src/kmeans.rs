//! K-means coarse quantizer over flat embedding rows — the clustering
//! stage of the IVF serving index (`neutraj-index::IvfIndex`).
//!
//! Lloyd iterations with the same norm-trick trick as the serving scans:
//! `‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²`, so one assignment pass over `N` rows
//! against `k` centroids is a handful of `block × k` GEMMs
//! ([`matmul_nt`], the register-tiled kernel from `neutraj-nn`) instead
//! of `N·k` memory-bound distance loops. Since `‖x‖²` is constant per
//! row, the argmin only needs `‖c_j‖² − 2·x·c_j`.
//!
//! Everything is deterministic given the seed: splitmix64 drives the
//! training-row sampling, initialization is a farthest-first traversal
//! (seeded first pick, then repeatedly the row farthest from every
//! chosen centroid — a deterministic k-means++ stand-in that never
//! drops a well-separated cluster), ties in the argmin break toward the
//! lower centroid index, and empty clusters are repaired by stealing
//! the row currently farthest from its centroid (largest distance, ties
//! by row index).

use neutraj_measures::NeighborHeap;
use neutraj_nn::linalg::{dot, matmul_nt};
use neutraj_trajectory::rng::{splitmix64, GOLDEN_GAMMA};

/// Rows per assignment GEMM block — same L2-sized block the serving
/// scans use.
const ASSIGN_BLOCK: usize = 512;

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone)]
pub struct KMeansParams {
    /// Number of centroids.
    pub k: usize,
    /// Maximum Lloyd iterations (stops earlier when assignments are
    /// stable).
    pub max_iters: usize,
    /// Train on at most this many rows, sampled deterministically
    /// without replacement (`0` = use every row). Sub-sampling is the
    /// standard IVF trick: centroid quality saturates long before the
    /// full corpus is seen, and it caps the `O(rows · k · d)` fit cost.
    pub sample: usize,
    /// Seed for sampling and initialization.
    pub seed: u64,
}

impl Default for KMeansParams {
    fn default() -> Self {
        Self {
            k: 64,
            max_iters: 15,
            sample: 0,
            seed: 2019,
        }
    }
}

/// A fitted set of `k` centroids of dimension `dim`, with precomputed
/// squared norms for norm-trick assignment scans.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    dim: usize,
    /// Row-major `k × dim` centroid matrix.
    centroids: Vec<f64>,
    /// `‖c_j‖²` per centroid, in lockstep with `centroids`.
    norms: Vec<f64>,
}

impl KMeans {
    /// Fits `params.k` centroids to `data` (row-major `n × dim`). Panics
    /// when `data` is not a whole number of rows, when it is empty, or
    /// when `k` is zero; `k` is clamped down to the number of distinct
    /// training rows available.
    pub fn fit(data: &[f64], dim: usize, params: &KMeansParams) -> KMeans {
        assert!(dim > 0, "kmeans: zero dim");
        assert_eq!(data.len() % dim, 0, "kmeans: data not a multiple of dim");
        let n = data.len() / dim;
        assert!(n > 0, "kmeans: empty data");
        assert!(params.k > 0, "kmeans: k must be positive");

        // Deterministic training subset (identity when sample covers n).
        let train: Vec<u32> = if params.sample == 0 || params.sample >= n {
            (0..n as u32).collect()
        } else {
            sample_without_replacement(n, params.sample, params.seed)
        };
        let k = params.k.min(train.len());

        // Init: farthest-first traversal. A seeded first pick, then each
        // next centroid is the training row farthest from all chosen ones
        // (ties toward the lower row position). Unlike uniform sampling
        // this cannot start two centroids inside one tight cluster while
        // starving another — the local optimum plain Lloyd can't escape.
        // Stops early (clamping `k`) once every remaining row duplicates
        // a chosen centroid.
        let mut state = params.seed ^ 0x6b6d_6561_6e73_3131;
        let first = (splitmix64(&mut state) as usize) % train.len();
        let mut centroids = Vec::with_capacity(k * dim);
        centroids.extend_from_slice(row_of(data, dim, train[first]));
        // Squared distance from each training row to its nearest chosen
        // centroid, maintained incrementally (one pass per pick).
        let mut init_d2 = vec![f64::INFINITY; train.len()];
        while centroids.len() < k * dim {
            let last = &centroids[centroids.len() - dim..];
            let mut far = 0usize;
            let mut far_d2 = -1.0;
            for (ti, &r) in train.iter().enumerate() {
                let x = row_of(data, dim, r);
                let mut d2 = 0.0;
                for (a, b) in x.iter().zip(last) {
                    let t = a - b;
                    d2 += t * t;
                }
                if d2 < init_d2[ti] {
                    init_d2[ti] = d2;
                }
                if init_d2[ti] > far_d2 {
                    far_d2 = init_d2[ti];
                    far = ti;
                }
            }
            if far_d2 <= 0.0 {
                break; // every row duplicates a centroid: clamp k
            }
            centroids.extend_from_slice(row_of(data, dim, train[far]));
        }
        let k = centroids.len() / dim;

        let mut km = KMeans::from_centroids(dim, centroids);
        let mut assign = vec![0u32; train.len()];
        let mut dists = vec![0.0f64; train.len()];
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0u64; k];
        for _ in 0..params.max_iters {
            // Assignment pass (also records each row's distance² for the
            // empty-cluster repair below).
            let mut changed = false;
            km.assign_rows(data, dim, &train, &mut assign, &mut dists, &mut changed);
            if !changed {
                break;
            }
            // Update pass.
            sums.fill(0.0);
            counts.fill(0);
            for (ti, &row) in train.iter().enumerate() {
                let c = assign[ti] as usize;
                counts[c] += 1;
                let x = &data[row as usize * dim..(row as usize + 1) * dim];
                for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(x) {
                    *s += v;
                }
            }
            // Empty-cluster repair: steal the row farthest from its
            // centroid (deterministic: max distance, ties by row order).
            for c in 0..k {
                if counts[c] > 0 {
                    continue;
                }
                let mut far = 0usize;
                for ti in 1..train.len() {
                    if dists[ti] > dists[far] {
                        far = ti;
                    }
                }
                let old = assign[far] as usize;
                let row = train[far] as usize;
                let x = &data[row * dim..(row + 1) * dim];
                if counts[old] > 0 {
                    counts[old] -= 1;
                    for (s, &v) in sums[old * dim..(old + 1) * dim].iter_mut().zip(x) {
                        *s -= v;
                    }
                }
                counts[c] = 1;
                sums[c * dim..(c + 1) * dim].copy_from_slice(x);
                assign[far] = c as u32;
                dists[far] = 0.0; // can't be stolen again this round
            }
            for c in 0..k {
                let inv = 1.0 / counts[c] as f64;
                for (cv, &s) in km.centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *cv = s * inv;
                }
            }
            km.refresh_norms();
        }
        km
    }

    /// Rebuilds a quantizer from a row-major `k × dim` centroid matrix
    /// (the persistence path). Panics on a ragged or empty matrix.
    pub fn from_centroids(dim: usize, centroids: Vec<f64>) -> KMeans {
        assert!(dim > 0, "kmeans: zero dim");
        assert_eq!(
            centroids.len() % dim,
            0,
            "kmeans: centroids not a multiple of dim"
        );
        assert!(!centroids.is_empty(), "kmeans: no centroids");
        let mut km = KMeans {
            dim,
            centroids,
            norms: Vec::new(),
        };
        km.refresh_norms();
        km
    }

    fn refresh_norms(&mut self) {
        self.norms.clear();
        self.norms
            .extend(self.centroids.chunks_exact(self.dim).map(|c| dot(c, c)));
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.norms.len()
    }

    /// Centroid dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Centroid `j` as a row slice.
    pub fn centroid(&self, j: usize) -> &[f64] {
        &self.centroids[j * self.dim..(j + 1) * self.dim]
    }

    /// The flat row-major `k × dim` centroid matrix.
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }

    /// Index of the centroid nearest to `row` (ties toward the lower
    /// index). Scalar argmin — `dot` is bit-identical to the GEMM the
    /// batched pass uses, so single-row and batched assignment always
    /// agree.
    pub fn assign(&self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.dim, "kmeans: row dim mismatch");
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (j, &cn) in self.norms.iter().enumerate() {
            let score = cn - 2.0 * dot(row, self.centroid(j));
            if score < best_score {
                best_score = score;
                best = j;
            }
        }
        best
    }

    /// Assigns every row of `data` (row-major `n × dim`) to its nearest
    /// centroid, writing into `out` (resized to `n`). One `block × k`
    /// GEMM per `ASSIGN_BLOCK` (512) rows.
    pub fn assign_batch(&self, data: &[f64], out: &mut Vec<u32>) {
        assert_eq!(
            data.len() % self.dim,
            0,
            "kmeans: data not a multiple of dim"
        );
        let n = data.len() / self.dim;
        out.clear();
        out.resize(n, 0);
        let rows: Vec<u32> = (0..n as u32).collect();
        let mut dists = vec![0.0f64; n];
        let mut changed = false;
        self.assign_rows(data, self.dim, &rows, out, &mut dists, &mut changed);
    }

    /// Shared assignment pass over an arbitrary row subset. `assign` and
    /// `dists` are indexed by position in `rows`; `changed` is set when
    /// any assignment moved.
    fn assign_rows(
        &self,
        data: &[f64],
        dim: usize,
        rows: &[u32],
        assign: &mut [u32],
        dists: &mut [f64],
        changed: &mut bool,
    ) {
        debug_assert_eq!(dim, self.dim);
        let k = self.k();
        let mut block_buf = Vec::new();
        let mut scores = Vec::new();
        let mut start = 0usize;
        while start < rows.len() {
            let end = (start + ASSIGN_BLOCK).min(rows.len());
            let b = end - start;
            // Gather the block's rows (rows may be a non-contiguous
            // sample of the corpus).
            block_buf.clear();
            for &r in &rows[start..end] {
                block_buf.extend_from_slice(&data[r as usize * dim..(r as usize + 1) * dim]);
            }
            scores.clear();
            scores.resize(b * k, 0.0);
            matmul_nt(&block_buf, &self.centroids, &mut scores, b, k, dim);
            for bi in 0..b {
                let srow = &scores[bi * k..(bi + 1) * k];
                let mut best = 0usize;
                let mut best_score = f64::INFINITY;
                for (j, (&s, &cn)) in srow.iter().zip(&self.norms).enumerate() {
                    let score = cn - 2.0 * s;
                    if score < best_score {
                        best_score = score;
                        best = j;
                    }
                }
                let ti = start + bi;
                if assign[ti] != best as u32 {
                    assign[ti] = best as u32;
                    *changed = true;
                }
                let x = &block_buf[bi * dim..(bi + 1) * dim];
                dists[ti] = (dot(x, x) + best_score).max(0.0);
            }
            start = end;
        }
    }

    /// The `nprobe` centroids nearest to `row`, ascending by
    /// `(distance², index)` — the coarse probe order of an IVF query.
    pub fn nearest(&self, row: &[f64], nprobe: usize) -> Vec<usize> {
        assert_eq!(row.len(), self.dim, "kmeans: row dim mismatch");
        let qn = dot(row, row);
        let mut heap = NeighborHeap::new(nprobe.min(self.k()));
        for (j, &cn) in self.norms.iter().enumerate() {
            let d2 = (qn - 2.0 * dot(row, self.centroid(j)) + cn).max(0.0);
            heap.push(j, d2);
        }
        heap.into_sorted().into_iter().map(|n| n.index).collect()
    }

    /// Mean squared distance of training rows to their centroids — the
    /// k-means objective, handy for tests and tuning.
    pub fn inertia(&self, data: &[f64]) -> f64 {
        assert_eq!(
            data.len() % self.dim,
            0,
            "kmeans: data not a multiple of dim"
        );
        let n = data.len() / self.dim;
        if n == 0 {
            return 0.0;
        }
        let mut assign = Vec::new();
        self.assign_batch(data, &mut assign);
        let mut total = 0.0;
        for (i, &c) in assign.iter().enumerate() {
            let x = &data[i * self.dim..(i + 1) * self.dim];
            let cen = self.centroid(c as usize);
            total += x
                .iter()
                .zip(cen)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        total / n as f64
    }
}

/// Row `r` of a flat row-major matrix.
fn row_of(data: &[f64], dim: usize, r: u32) -> &[f64] {
    &data[r as usize * dim..(r as usize + 1) * dim]
}

/// `count` distinct indices from `0..n`, deterministically, via a partial
/// Fisher–Yates shuffle driven by splitmix64.
fn sample_without_replacement(n: usize, count: usize, seed: u64) -> Vec<u32> {
    let count = count.min(n);
    let mut idx: Vec<u32> = (0..n as u32).collect();
    let mut state = seed ^ GOLDEN_GAMMA;
    for i in 0..count {
        let r = splitmix64(&mut state) as usize % (n - i);
        idx.swap(i, i + r);
    }
    idx.truncate(count);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `blobs` well-separated clusters of `per` points each in `dim`-d.
    fn blob_data(blobs: usize, per: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        let mut centers = Vec::with_capacity(blobs * dim);
        for _ in 0..blobs * dim {
            centers.push((splitmix64(&mut state) % 1000) as f64);
        }
        let mut data = Vec::with_capacity(blobs * per * dim);
        for b in 0..blobs {
            for _ in 0..per {
                for d in 0..dim {
                    let noise = (splitmix64(&mut state) % 100) as f64 / 100.0 - 0.5;
                    data.push(centers[b * dim + d] + noise);
                }
            }
        }
        data
    }

    #[test]
    fn recovers_separated_blobs() {
        let dim = 4;
        let data = blob_data(5, 40, dim, 11);
        let km = KMeans::fit(
            &data,
            dim,
            &KMeansParams {
                k: 5,
                max_iters: 25,
                ..Default::default()
            },
        );
        assert_eq!(km.k(), 5);
        // Every blob maps to a single centroid and blobs don't collide.
        let mut assign = Vec::new();
        km.assign_batch(&data, &mut assign);
        let mut blob_owner = Vec::new();
        for b in 0..5 {
            let first = assign[b * 40];
            for i in 0..40 {
                assert_eq!(assign[b * 40 + i], first, "blob {b} split");
            }
            assert!(!blob_owner.contains(&first), "blobs merged");
            blob_owner.push(first);
        }
        // Tight fit: inertia is at the noise scale, far below the blob
        // separation scale.
        assert!(km.inertia(&data) < 1.0, "inertia {}", km.inertia(&data));
    }

    #[test]
    fn scalar_and_batched_assignment_agree() {
        let dim = 6;
        let data = blob_data(7, 23, dim, 3);
        let km = KMeans::fit(
            &data,
            dim,
            &KMeansParams {
                k: 7,
                ..Default::default()
            },
        );
        let mut batched = Vec::new();
        km.assign_batch(&data, &mut batched);
        for (i, &b) in batched.iter().enumerate() {
            let row = &data[i * dim..(i + 1) * dim];
            assert_eq!(km.assign(row) as u32, b, "row {i}");
        }
    }

    #[test]
    fn fit_is_deterministic_and_sampling_bounds_work() {
        let dim = 3;
        let data = blob_data(4, 50, dim, 99);
        let params = KMeansParams {
            k: 4,
            sample: 120,
            seed: 7,
            ..Default::default()
        };
        let a = KMeans::fit(&data, dim, &params);
        let b = KMeans::fit(&data, dim, &params);
        assert_eq!(a, b, "same seed, same centroids");
        let c = KMeans::fit(
            &data,
            dim,
            &KMeansParams {
                seed: 8,
                ..params.clone()
            },
        );
        // A different seed may land in the same optimum; it must at least
        // not crash and still produce k centroids.
        assert_eq!(c.k(), 4);
    }

    #[test]
    fn k_clamped_to_distinct_rows_and_more_clusters_than_points() {
        // 3 rows, ask for 8 centroids: clamps to 3.
        let data = vec![0.0, 0.0, 10.0, 10.0, 20.0, 20.0];
        let km = KMeans::fit(
            &data,
            2,
            &KMeansParams {
                k: 8,
                ..Default::default()
            },
        );
        assert_eq!(km.k(), 3);
        let mut assign = Vec::new();
        km.assign_batch(&data, &mut assign);
        let mut seen = assign.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3, "each point owns a centroid");
    }

    #[test]
    fn nearest_orders_centroids_by_distance() {
        let km = KMeans::from_centroids(1, vec![0.0, 10.0, 4.0, 7.0]);
        // Centroids 0 and 1 tie at distance 5: lower index probes first.
        assert_eq!(km.nearest(&[5.0], 4), vec![2, 3, 0, 1]);
        assert_eq!(km.nearest(&[5.0], 2), vec![2, 3]);
        // nprobe beyond k clamps.
        assert_eq!(km.nearest(&[5.0], 99).len(), 4);
    }

    #[test]
    fn from_centroids_roundtrips_assignment() {
        let dim = 5;
        let data = blob_data(3, 30, dim, 21);
        let km = KMeans::fit(
            &data,
            dim,
            &KMeansParams {
                k: 3,
                ..Default::default()
            },
        );
        let rebuilt = KMeans::from_centroids(dim, km.centroids().to_vec());
        assert_eq!(km, rebuilt);
        let mut a = Vec::new();
        let mut b = Vec::new();
        km.assign_batch(&data, &mut a);
        rebuilt.assign_batch(&data, &mut b);
        assert_eq!(a, b);
    }
}
