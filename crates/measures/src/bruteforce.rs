//! Brute-force top-k similarity search — the `BruteForce` baseline of
//! Tables IV and V.

use crate::Measure;
use neutraj_trajectory::Trajectory;

/// A search result: database index plus its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the trajectory within the searched database slice.
    pub index: usize,
    /// Distance to the query under the search measure.
    pub dist: f64,
}

/// Scores every `(index, trajectory)` row against `query` under
/// `measure` and returns the `k` nearest, ascending by distance (ties by
/// index, a NaN distance last). The rows are the whole corpus
/// (`db.iter().enumerate()`) or the candidates an index kept
/// (`cands.iter().map(|&i| (i, &db[i]))`) — the shape index-assisted
/// search takes.
///
/// This is exact and one naive `Measure::dist` per row, `O(N · L²)` — the
/// quadratic per-pair cost the paper sets out to remove.
pub fn knn_scan<'a>(
    measure: &dyn Measure,
    query: &Trajectory,
    rows: impl IntoIterator<Item = (usize, &'a Trajectory)>,
    k: usize,
) -> Vec<Neighbor> {
    let mut out: Vec<Neighbor> = rows
        .into_iter()
        .map(|(index, t)| Neighbor {
            index,
            dist: measure.dist(query.points(), t.points()),
        })
        .collect();
    partial_sort_neighbors(&mut out, k);
    out
}

/// Selects the `k` smallest entries of `dists` as neighbours, ascending.
///
/// `O(N + k log k)` — a partial selection followed by a sort of the `k`
/// survivors only, instead of sorting all `N` candidates (`k` is 10–50 in
/// the paper's experiments while `N` is the corpus size).
pub fn top_k(dists: &[f64], k: usize) -> Vec<Neighbor> {
    let mut out: Vec<Neighbor> = dists
        .iter()
        .enumerate()
        .map(|(index, &dist)| Neighbor { index, dist })
        .collect();
    partial_sort_neighbors(&mut out, k);
    out
}

/// Keeps only the `k` smallest neighbours of `v`, sorted ascending by
/// `(dist, index)`. Distances are compared with [`f64::total_cmp`], which
/// is a genuine total order (NaNs sort last rather than poisoning the
/// comparator).
pub fn partial_sort_neighbors(v: &mut Vec<Neighbor>, k: usize) {
    if k == 0 {
        v.clear();
        return;
    }
    if k < v.len() {
        // Partition so v[..k] holds the k smallest (in arbitrary order).
        v.select_nth_unstable_by(k - 1, neighbor_order);
        v.truncate(k);
    }
    v.sort_unstable_by(neighbor_order);
}

/// The `(dist, index)` order of neighbour lists: [`f64::total_cmp`] on
/// distance, ties by index. It stays a total order when a measure
/// returns NaN (NaNs sort last), which a `partial_cmp` comparator does
/// not, and a sort may panic on a comparator that is not total.
pub fn neighbor_order(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.dist.total_cmp(&b.dist).then(a.index.cmp(&b.index))
}

/// A bounded max-heap holding the `k` smallest neighbours seen so far,
/// ordered like [`partial_sort_neighbors`] (`total_cmp` on distance, ties
/// by index). Streaming scans push every candidate; once full, a push
/// costs `O(log k)` and most candidates are rejected with a single root
/// comparison — no `O(N)` buffer per query.
///
/// The backing storage can be handed in (and recovered) so per-thread
/// scratch is reusable across queries without reallocating.
#[derive(Debug)]
pub struct NeighborHeap {
    k: usize,
    /// Binary max-heap under [`neighbor_order`]: the worst kept neighbour
    /// sits at the root.
    heap: Vec<Neighbor>,
}

impl NeighborHeap {
    /// An empty heap keeping at most `k` neighbours.
    pub fn new(k: usize) -> Self {
        Self::with_storage(k, Vec::new())
    }

    /// Like [`Self::new`] but reusing `storage` (cleared) as backing
    /// memory.
    pub fn with_storage(k: usize, mut storage: Vec<Neighbor>) -> Self {
        storage.clear();
        storage.reserve(k);
        Self { k, heap: storage }
    }

    /// Offers a candidate; keeps it only while it ranks among the `k`
    /// smallest seen.
    #[inline]
    pub fn push(&mut self, index: usize, dist: f64) {
        if self.k == 0 {
            return;
        }
        let cand = Neighbor { index, dist };
        if self.heap.len() < self.k {
            self.heap.push(cand);
            self.sift_up(self.heap.len() - 1);
        } else if neighbor_order(&cand, &self.heap[0]).is_lt() {
            self.heap[0] = cand;
            self.sift_down(0);
        }
    }

    /// Worst currently-kept neighbour (the pruning threshold), if full.
    #[inline]
    pub fn threshold(&self) -> Option<Neighbor> {
        (self.k > 0 && self.heap.len() == self.k).then(|| self.heap[0])
    }

    /// Extracts the kept neighbours sorted ascending by `(dist, index)`,
    /// returning the backing storage for reuse.
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        self.heap.sort_unstable_by(neighbor_order);
        self.heap
    }

    /// Empties the heap and re-arms it for a new top-`k` query, keeping
    /// the backing storage. Lets one heap serve a whole query batch
    /// without a per-query allocation (see
    /// `EmbeddingStore::knn_ann_batch` in `neutraj-model`).
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        self.heap.reserve(k);
    }

    /// Copies the kept neighbours, sorted ascending by `(dist, index)`,
    /// into `out` (cleared first), then empties the heap while keeping
    /// its storage. The non-consuming sibling of [`Self::into_sorted`]
    /// for heaps reused across a batch via [`Self::reset`].
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Neighbor>) {
        self.heap.sort_unstable_by(neighbor_order);
        out.clear();
        out.extend_from_slice(&self.heap);
        self.heap.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if neighbor_order(&self.heap[i], &self.heap[parent]).is_gt() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && neighbor_order(&self.heap[l], &self.heap[largest]).is_gt() {
                largest = l;
            }
            if r < n && neighbor_order(&self.heap[r], &self.heap[largest]).is_gt() {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
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
                    vec![Point::new(id as f64, 0.0), Point::new(id as f64 + 0.5, 0.0)],
                )
            })
            .collect()
    }

    /// Distance between the first points' `x`, NaN when the row's is
    /// negative — exact ties and a NaN where a test wants them.
    struct FirstX;

    impl Measure for FirstX {
        fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
            if b[0].x < 0.0 {
                f64::NAN
            } else {
                (a[0].x - b[0].x).abs()
            }
        }
        fn name(&self) -> &'static str {
            "first_x"
        }
    }

    #[test]
    fn scan_finds_nearest_in_order() {
        let db = corpus(10);
        let res = knn_scan(&Hausdorff, &db[3], db.iter().enumerate(), 3);
        assert_eq!(res[0].index, 3);
        assert_eq!(res[0].dist, 0.0);
        assert_eq!(res[1].index, 2); // tie with 4 broken by index
        assert_eq!(res[2].index, 4);
        // k beyond the rows returns every row, sorted.
        let all = knn_scan(&Hausdorff, &db[3], db.iter().enumerate(), 25);
        assert_eq!(all.len(), db.len());
        assert!(all.windows(2).all(|w| neighbor_order(&w[0], &w[1]).is_lt()));
        assert!(knn_scan(&Hausdorff, &db[3], db.iter().enumerate(), 0).is_empty());
    }

    #[test]
    fn query_respects_candidate_set() {
        let db = corpus(10);
        let cands = [9, 5, 7];
        let res = knn_scan(&Hausdorff, &db[0], cands.iter().map(|&i| (i, &db[i])), 2);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].index, 5);
        assert_eq!(res[1].index, 7);
    }

    #[test]
    fn candidate_scan_breaks_ties_by_index_and_sorts_nan_last() {
        // Rows 0..6 repeat three trajectories (x = 0, 1, 2) twice; row 6
        // carries a NaN distance.
        let mut db: Vec<Trajectory> = (0..6u64)
            .map(|id| Trajectory::new_unchecked(id, vec![Point::new((id % 3) as f64, 0.0)]))
            .collect();
        db.push(Trajectory::new_unchecked(6, vec![Point::new(-1.0, 0.0)]));
        let q = Trajectory::new_unchecked(99, vec![Point::new(0.0, 0.0)]);
        // Shuffled, and a subset: row 4 is not a candidate.
        let cands = [6usize, 5, 3, 1, 0, 2];
        let rows = || cands.iter().map(|&i| (i, &db[i]));
        let got: Vec<(usize, f64)> = knn_scan(&FirstX, &q, rows(), 10)
            .iter()
            .map(|n| (n.index, n.dist))
            .collect();
        assert_eq!(got.len(), cands.len(), "k beyond the candidates");
        assert_eq!(
            &got[..5],
            &[(0, 0.0), (3, 0.0), (1, 1.0), (2, 2.0), (5, 2.0)],
            "equal distances order by index"
        );
        assert_eq!(got[5].0, 6);
        assert!(got[5].1.is_nan(), "NaN sorts last");
        // A narrower k is the prefix.
        let top3 = knn_scan(&FirstX, &q, rows(), 3);
        assert_eq!(top3.iter().map(|n| n.index).collect::<Vec<_>>(), [0, 3, 1]);
        // The whole corpus through the same function: row 4 joins.
        let whole = knn_scan(&FirstX, &q, db.iter().enumerate(), 4);
        assert_eq!(
            whole.iter().map(|n| n.index).collect::<Vec<_>>(),
            [0, 3, 1, 4]
        );
    }

    #[test]
    fn top_k_handles_over_ask_and_nan() {
        let res = top_k(&[3.0, 1.0, f64::NAN, 2.0], 10);
        assert_eq!(res.len(), 4);
        assert_eq!(res[0].index, 1);
        assert_eq!(res[3].index, 2, "NaN must sort last under total_cmp");
        let res = top_k(&[], 5);
        assert!(res.is_empty());
    }

    #[test]
    fn neighbor_heap_reset_and_drain_reuse_storage() {
        let dists: Vec<f64> = (0..120u64)
            .map(|i| ((i.wrapping_mul(40503) >> 4) % 31) as f64)
            .collect();
        let mut heap = NeighborHeap::new(5);
        let mut out = Vec::new();
        // Two rounds with different k through the same heap + scratch must
        // match fresh single-use heaps exactly.
        for k in [5usize, 9] {
            heap.reset(k);
            for (i, &d) in dists.iter().enumerate() {
                heap.push(i, d);
            }
            heap.drain_sorted_into(&mut out);
            assert_eq!(out, top_k(&dists, k), "k = {k}");
        }
        // Drained heap is empty but still usable.
        heap.reset(1);
        heap.push(3, 0.5);
        heap.drain_sorted_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, 3);
    }

    #[test]
    fn neighbor_heap_matches_top_k() {
        let dists: Vec<f64> = (0..300u64)
            .map(|i| ((i.wrapping_mul(2654435761) >> 9) % 53) as f64 * 0.25)
            .collect();
        for k in [0usize, 1, 7, 64, 299, 300, 400] {
            let mut heap = NeighborHeap::new(k);
            for (i, &d) in dists.iter().enumerate() {
                heap.push(i, d);
            }
            assert_eq!(heap.into_sorted(), top_k(&dists, k), "k = {k}");
        }
        // NaNs sort last under total_cmp, same as top_k.
        let with_nan = [2.0, f64::NAN, 1.0];
        let mut heap = NeighborHeap::new(2);
        for (i, &d) in with_nan.iter().enumerate() {
            heap.push(i, d);
        }
        assert_eq!(heap.into_sorted(), top_k(&with_nan, 2));
        // Storage round-trips through with_storage.
        let mut heap = NeighborHeap::with_storage(1, Vec::with_capacity(64));
        heap.push(0, 5.0);
        heap.push(1, 3.0);
        let sorted = heap.into_sorted();
        assert_eq!(sorted[0].index, 1);
        assert!(sorted.capacity() >= 64);
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // Pseudo-random distances with duplicates to exercise tie-breaks.
        let dists: Vec<f64> = (0..200u64)
            .map(|i| ((i.wrapping_mul(2654435761) >> 7) % 97) as f64 * 0.5)
            .collect();
        let mut full: Vec<Neighbor> = dists
            .iter()
            .enumerate()
            .map(|(index, &dist)| Neighbor { index, dist })
            .collect();
        full.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.index.cmp(&b.index)));
        for k in [0usize, 1, 7, 50, 199, 200, 500] {
            let got = top_k(&dists, k);
            assert_eq!(got.len(), k.min(dists.len()));
            assert_eq!(&got[..], &full[..k.min(full.len())], "k = {k}");
        }
    }
}
