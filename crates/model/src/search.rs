//! Embedding storage and linear-time top-k search.
//!
//! Once a corpus is embedded (`O(L)` each, once), a top-k query costs one
//! embedding plus an `O(N·d)` scan — the linear-time claim of the paper.
//! The paper's protocol re-ranks the learned top-50 with the exact
//! measure (§VII-C.1); that is `Query::new(k).shortlist(50).rerank(&m)`
//! through [`SimilarityDb::search`](crate::SimilarityDb::search).
//!
//! # Norm-trick scans
//!
//! Scans expand the squared distance as
//! `‖q − x‖² = ‖q‖² − 2·q·x + ‖x‖²`: the per-row norms `‖x‖²` are
//! precomputed once at insert time, so a whole batch of queries against
//! the corpus reduces to dot products (`q·x`) plus a rank-1 correction.
//! One kernel does all of it in one pass over the row-major store
//! ([`scan_rows`]): the dot chains of up to eight queries against four
//! adjacent rows at a time (the unpacked, transposing chain the small
//! GEMMs use — one accumulator per pair, ascending `p`, separate multiply
//! and add), the correction on the accumulators while they are still in
//! registers, and a comparison against each query's current admission
//! threshold — `+∞` until its [`NeighborHeap`] is full, then the heap
//! root's distance. Only pairs that pass leave the kernel, a few hundred
//! of `N` per query, and they go through [`NeighborHeap::push`]: the
//! comparison is a conservative pre-filter (non-strict, and allowed to be
//! a few rows stale), the heap's `(dist, index)` total order is what
//! decides an answer. No packed copy of a corpus block, no `B × block`
//! score buffer and no `O(N)` distance buffer is ever written. The store
//! holds its rows in shared chunks of 64 (the `chunks` module), and the
//! kernel runs once per chunk with every query's threshold carried from
//! one chunk to the next; within a chunk every stripe of queries runs
//! over its rows (at `d = 32` one L1 chunk of the kernel) before the next
//! chunk, so the corpus is read once per batch. The scalar
//! [`EmbeddingStore::knn`] is the `B = 1` case of the same code path,
//! making batched and scalar results trivially bit-identical.
//!
//! # Two regimes, one answer
//!
//! The fused scan reads the corpus once per batch, so its cost per query
//! falls as a stripe of eight fills and a lone query pays for all 264
//! bytes of every row (`8·d` of row and 8 of norm, `d = 32`). A batch of
//! fewer than [`SCAN_STRIPE`] queries therefore takes the exact scan
//! through the store's int8 codes instead (64 bytes a row; see the
//! `quant` module): one pass over the codes bounds every row's f64
//! distance from below and above, and only the rows whose lower bound is
//! within the `k`-th smallest upper bound — a few tenths of a percent on
//! trained embeddings — are scored, by [`scan_score`] (the fused scan's
//! own expression) into the same [`NeighborHeap`]. The bounds are proven
//! (`DESIGN.md` §12), so both regimes return the same bits, ties
//! included; the regime is only the batch width.

use crate::backbone::NeuTrajModel;
use crate::chunks::{Block, Chunks, CHUNK};
use crate::quant::{Cascade, QuantizedStore};
use neutraj_index::{GraphScratch, HnswIndex, IvfIndex, RowDistance};
use neutraj_measures::{top_k, Neighbor, NeighborHeap};
use neutraj_nn::linalg::{dot, euclidean_sq};
use neutraj_nn::simd::{dot_rows, scan_rows, scan_score, RowSource, ScanInput, SCAN_STRIPE};
use neutraj_trajectory::Trajectory;
use std::cell::RefCell;
use std::sync::OnceLock;

thread_local! {
    /// Reusable per-thread graph-walk scratch. Its visited array is as
    /// long as the largest graph this thread has searched and is reset
    /// per query by an epoch bump, so neither a lone graph query nor a
    /// row inserted into a graph allocates or fills `N` slots.
    static GRAPH_SCRATCH: RefCell<GraphScratch> = RefCell::new(GraphScratch::new());
}

/// One chunk of an [`EmbeddingStore`]: up to [`CHUNK`] rows, row-major,
/// and their squared norms.
#[derive(Debug, Clone, PartialEq)]
struct RowBlock {
    rows: Vec<f64>,
    norms: Vec<f64>,
}

impl Block for RowBlock {
    fn rows(&self) -> usize {
        self.norms.len()
    }
}

/// [`EmbeddingStore::as_flat`]'s copy of the rows: made on first call,
/// dropped by a push, never cloned and never compared.
#[derive(Debug, Default)]
struct FlatCache(OnceLock<Vec<f64>>);

impl Clone for FlatCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for FlatCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// `N` trajectory embeddings of dimension `d`, with per-row squared norms
/// maintained for norm-trick scans and the rows' int8 codes for the exact
/// scan of a narrow batch. Rows and norms are held in shared chunks of 64
/// rows and the codes in chunks of 512 (the `chunks` module), so a clone
/// costs a pointer per chunk and a
/// [`SimilarityDb::inserted`](crate::SimilarityDb::inserted) successor
/// copies at most one partial chunk of each.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingStore {
    dim: usize,
    /// The rows and `‖x_i‖²`, in lockstep.
    rows: Chunks<RowBlock>,
    /// Every stored row quantized, kept in lockstep with `rows`.
    codes: QuantizedStore,
    flat: FlatCache,
}

impl EmbeddingStore {
    /// An empty store of dimensionality `dim` (at most
    /// [`QUANT_MAX_DIM`](crate::QUANT_MAX_DIM)).
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            rows: Chunks::default(),
            codes: QuantizedStore::new(dim),
            flat: FlatCache::default(),
        }
    }

    /// Builds a store by embedding `corpus` with `model` on `threads`
    /// threads (each running the lockstep batched forward).
    pub fn build(model: &NeuTrajModel, corpus: &[Trajectory], threads: usize) -> Self {
        let embs = model.embed_all(corpus, threads);
        Self::from_embeddings(model.dim(), &embs)
    }

    /// Builds a store from precomputed embeddings. Panics when any
    /// embedding has the wrong dimension.
    pub fn from_embeddings(dim: usize, embs: &[Vec<f64>]) -> Self {
        let mut store = Self::new(dim);
        for e in embs {
            store.push(e);
        }
        store
    }

    /// Appends one embedding, precomputing its squared norm and its
    /// codes. Panics on dimension mismatch.
    pub fn push(&mut self, emb: &[f64]) {
        assert_eq!(emb.len(), self.dim, "embedding dim mismatch");
        let dim = self.dim;
        let block = self.rows.tail(|| RowBlock {
            rows: Vec::with_capacity(CHUNK * dim),
            norms: Vec::with_capacity(CHUNK),
        });
        block.rows.extend_from_slice(emb);
        block.norms.push(dot(emb, emb));
        self.codes.push(emb);
        self.flat.0.take();
    }

    /// Number of stored embeddings.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embedding of item `i`.
    pub fn get(&self, i: usize) -> &[f64] {
        &self.rows.block(i).rows[i % CHUNK * self.dim..][..self.dim]
    }

    /// `‖x_i‖²` of item `i`.
    fn norm(&self, i: usize) -> f64 {
        self.rows.block(i).norms[i % CHUNK]
    }

    /// The rows as one row-major `N × dim` matrix, copied — what the IVF
    /// quantizer is fitted to and its lists are built from.
    pub fn to_flat(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.len() * self.dim);
        for block in self.rows.blocks() {
            flat.extend_from_slice(&block.rows);
        }
        flat
    }

    /// The rows as one row-major `N × dim` matrix: [`Self::to_flat`],
    /// copied once into a cache the store keeps until its next push. A
    /// clone does not carry the cache and `==` ignores it.
    ///
    /// It exists only for the benchmark package's set-up, which cannot
    /// change with the store; no crate calls it, and it goes once that
    /// set-up moves to [`Self::to_flat`] (ROADMAP item 8(c)).
    pub fn as_flat(&self) -> &[f64] {
        self.flat.0.get_or_init(|| self.to_flat())
    }

    /// The rows' int8 codes — what
    /// [`SimilarityDb::quantized_store`](crate::SimilarityDb::quantized_store)
    /// hands out.
    pub(crate) fn codes(&self) -> &QuantizedStore {
        &self.codes
    }

    /// How many of `parent`'s full row chunks, then code chunks, this
    /// store holds by pointer, each beside how many `parent` has.
    pub(crate) fn shared_chunks(&self, parent: &Self) -> [(usize, usize); 2] {
        [
            self.rows.shared_with(&parent.rows),
            self.codes.shared_chunks(&parent.codes),
        ]
    }

    /// Norm-trick squared distance between stored rows `a` and `b` —
    /// the distance oracle the HNSW graph is built and searched with,
    /// the same `(‖a‖² − 2·a·b + ‖b‖²).max(0)` expression as every
    /// scan path, so graph-internal distances and reported rerank
    /// distances agree bit-for-bit.
    pub fn row_dist_sq(&self, a: u32, b: u32) -> f64 {
        let (a, b) = (a as usize, b as usize);
        (self.norm(a) - 2.0 * dot(self.get(a), self.get(b)) + self.norm(b)).max(0.0)
    }

    /// `out[i]` = the norm-trick squared distance from `q` (with `qn =
    /// ‖q‖²`) to stored row `ids[i]` — one graph hop in one gathered-rows
    /// kernel call ([`dot_rows`], bit-identical to [`dot`] per row), so
    /// each entry equals the per-pair expression above bit for bit.
    fn dists_to_rows(&self, q: &[f64], qn: f64, ids: &[u32], out: &mut [f64]) {
        dot_rows(neutraj_obs::simd::level(), q, self, ids, out);
        for (o, &i) in out.iter_mut().zip(ids) {
            *o = (qn - 2.0 * *o + self.norm(i as usize)).max(0.0);
        }
    }

    /// Appends this store's newest row to `graph` (a one-node
    /// construction round), on the thread's reusable walk scratch.
    pub(crate) fn link_last_row(&self, graph: &mut HnswIndex) {
        GRAPH_SCRATCH.with(|cell| graph.insert(self, &mut cell.borrow_mut()));
    }

    /// Top-k nearest stored items to `query` by embedding distance
    /// (equivalently, highest learned similarity `exp(-dist)`).
    ///
    /// The `B = 1` case of [`Self::knn_batch`] — same fused norm-trick
    /// scan, so scalar and batched queries return bit-identical results.
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        self.knn_batch(&[query], k)
            .pop()
            .expect("one query in, one result out")
    }

    /// Top-k for a whole batch of queries: one fused pass over the rows,
    /// or per query one pass over the codes for a batch narrower than a
    /// stripe (see the module docs). Results are per query, in query
    /// order; each is identical to [`Self::knn`] on that query, including
    /// tie ordering, whichever regime answers it.
    ///
    /// Squared distances are compared during the scan (monotonic in the
    /// true distance, so ranks are unaffected) and the square root is
    /// taken only for the `k` survivors. `‖q‖² − 2·q·x + ‖x‖²` can go
    /// epsilon-negative for near-identical rows, so it is clamped at 0;
    /// for `x == q` bitwise it cancels to exactly 0.
    pub fn knn_batch(&self, queries: &[&[f64]], k: usize) -> Vec<Vec<Neighbor>> {
        self.knn_batch_with_stats(queries, k).0
    }

    /// [`Self::knn_batch`] with the work it did: for a batch answered
    /// through the codes, the rows scored through them and the bytes
    /// that cost ([`ScanStats::rows_scanned`],
    /// [`ScanStats::bytes_scanned`]) and the rows then scored in f64
    /// ([`ScanStats::bound_survivors`]); zero for a fused f64 pass.
    pub fn knn_batch_with_stats(
        &self,
        queries: &[&[f64]],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, ScanStats) {
        if queries.len() >= SCAN_STRIPE {
            return (self.knn_fused(queries, k), ScanStats::default());
        }
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dim mismatch");
        }
        if k == 0 {
            // Nothing can be kept, so no bound would ever arm.
            return (vec![Vec::new(); queries.len()], ScanStats::default());
        }
        let mut stats = ScanStats::default();
        let mut cascade = Cascade::new(k);
        let mut rows = Vec::new();
        let results = queries
            .iter()
            .map(|q| {
                self.codes.bounded_rows(q, k, &mut cascade, &mut rows);
                stats.rows_scanned += self.codes.len();
                stats.bytes_scanned += self.codes.len() * self.codes.row_bytes();
                stats.bound_survivors += rows.len();
                let qn = dot(q, q);
                let mut heap = NeighborHeap::new(k);
                for &j in &rows {
                    heap.push(j, scan_score(q, qn, self.get(j), self.norm(j)));
                }
                sqrt_dists(heap.into_sorted())
            })
            .collect();
        (results, stats)
    }

    /// The fused f64 pass of [`Self::knn_batch`], at any batch width —
    /// `knn_batch` takes it from a full stripe up. One [`scan_rows`] call
    /// per chunk, each query's threshold carried from chunk to chunk.
    pub fn knn_fused(&self, queries: &[&[f64]], k: usize) -> Vec<Vec<Neighbor>> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dim mismatch");
        }
        if k == 0 {
            // Nothing can be kept, so no threshold would ever arm.
            return vec![Vec::new(); queries.len()];
        }
        let qflat = queries.concat();
        let qnorms: Vec<f64> = queries.iter().map(|q| dot(q, q)).collect();
        let mut heaps: Vec<NeighborHeap> = queries.iter().map(|_| NeighborHeap::new(k)).collect();
        let mut thresholds = vec![f64::INFINITY; queries.len()];
        for (c, block) in self.rows.blocks().enumerate() {
            let input = ScanInput {
                dim: self.dim,
                queries: &qflat,
                qnorms: &qnorms,
                rows: &block.rows,
                row_norms: &block.norms,
            };
            // The kernel's threshold test only spares the heap rows that
            // cannot enter it; the heap's `(dist, index)` order decides.
            scan_rows(
                neutraj_obs::simd::level(),
                &input,
                &mut thresholds,
                |qi, row, d2| {
                    let heap = &mut heaps[qi];
                    heap.push(c * CHUNK + row, d2);
                    heap.threshold().map_or(f64::INFINITY, |worst| worst.dist)
                },
            );
        }
        heaps
            .into_iter()
            .map(|h| sqrt_dists(h.into_sorted()))
            .collect()
    }

    /// IVF-shortlisted top-k for a batch of queries: probe the `nprobe`
    /// nearest inverted lists per query, exactly score only their
    /// members, and keep the `k` best — `O(candidates · d)` per query
    /// instead of the exhaustive `O(N · d)` scan of
    /// [`Self::knn_batch`].
    ///
    /// The per-candidate score is the very same norm-trick expression as
    /// the exhaustive scan, `(‖q‖² − 2·q·x + ‖x‖²).max(0)`, built from
    /// the same ascending-order [`dot`] chain per row (a query's whole
    /// candidate list goes through the gathered-rows kernel in one call,
    /// as a graph hop does). A [`NeighborHeap`] keeps the `k`
    /// smallest under the total order `(dist, index)` regardless of
    /// insertion order, so with `nprobe ≥ nlists` (lists partition the
    /// corpus) the result is **bit-identical** to [`Self::knn_batch`] —
    /// the anchor the `query_api` property test pins down. With smaller
    /// `nprobe` the result is the same computation restricted to the
    /// probed cells: any error is purely *recall* (a true neighbor left
    /// unprobed), never a mis-scored distance.
    ///
    /// One heap, one candidate buffer and one distance buffer are reused
    /// across the whole batch. Panics when `index` disagrees with the
    /// store on dimension or row count, or when `nprobe == 0` (the
    /// `Query` builder rejects that earlier with a typed error).
    pub fn knn_ann_batch(
        &self,
        queries: &[&[f64]],
        k: usize,
        index: &IvfIndex,
        nprobe: usize,
    ) -> (Vec<Vec<Neighbor>>, ScanStats) {
        assert_eq!(index.dim(), self.dim, "ann index dim mismatch");
        assert_eq!(
            index.len(),
            self.len(),
            "ann index is stale: row count mismatch"
        );
        assert!(nprobe > 0, "nprobe must be positive");
        let mut stats = ScanStats::default();
        let mut heap = NeighborHeap::new(k);
        let mut cand: Vec<u32> = Vec::new();
        let mut d2s: Vec<f64> = Vec::new();
        let mut results = Vec::with_capacity(queries.len());
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dim mismatch");
            stats.lists_probed += index.candidates_into(q, nprobe, &mut cand);
            stats.candidates_scanned += cand.len();
            d2s.clear();
            d2s.resize(cand.len(), 0.0);
            self.dists_to_rows(q, dot(q, q), &cand, &mut d2s);
            heap.reset(k);
            for (&i, &d2) in cand.iter().zip(&d2s) {
                heap.push(i as usize, d2);
            }
            let mut out = Vec::with_capacity(k.min(cand.len()));
            heap.drain_sorted_into(&mut out);
            results.push(sqrt_dists(out));
        }
        (results, stats)
    }

    /// ANN search through an HNSW graph shortlist with the same exact
    /// rerank as [`Self::knn_ann_batch`] — the graph alternative behind
    /// the shortlist seam (see [`HnswIndex`]).
    ///
    /// Per query, the graph's `ef`-bounded beam search (driven by the
    /// norm-trick oracle `(‖q‖² − 2·q·x + ‖x‖²).max(0)`, built from the
    /// same [`dot`] chain as the exhaustive scan and asked one hop's
    /// neighbours at a time) yields up to `ef` candidates; a
    /// [`NeighborHeap`] then keeps the `k` smallest under the total
    /// order `(dist, index)`. With `ef ≥ N` the graph degenerates to
    /// enumerating every row, so the result is **bit-identical** to
    /// [`Self::knn_batch`] — the same recall-1.0 anchor `nprobe ≥
    /// nlists` provides for IVF, pinned by the `query_api` property
    /// test across thread counts and SIMD modes. With smaller `ef` any
    /// error is purely *recall* (a true neighbor left unvisited), never
    /// a mis-scored distance.
    ///
    /// One heap and one candidate buffer are reused across the batch, the
    /// graph scratch across calls on the same thread. Panics when `graph`
    /// disagrees with the store on row count or when `ef == 0` (the
    /// `Query` builder rejects both earlier with typed errors).
    pub fn knn_graph_batch(
        &self,
        queries: &[&[f64]],
        k: usize,
        graph: &HnswIndex,
        ef: usize,
    ) -> (Vec<Vec<Neighbor>>, ScanStats) {
        assert_eq!(
            graph.len(),
            self.len(),
            "graph index is stale: row count mismatch"
        );
        assert!(ef > 0, "ef must be positive");
        let mut stats = ScanStats::default();
        let mut heap = NeighborHeap::new(k);
        let mut cand: Vec<(f64, u32)> = Vec::new();
        let mut results = Vec::with_capacity(queries.len());
        GRAPH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for q in queries {
                assert_eq!(q.len(), self.dim, "query dim mismatch");
                let qn = dot(q, q);
                let s = graph.shortlist_into(
                    ef,
                    |ids, out| self.dists_to_rows(q, qn, ids, out),
                    scratch,
                    &mut cand,
                );
                stats.hops += s.hops;
                stats.candidates_scanned += s.candidates_scanned;
                stats.links_scanned += s.links_scanned;
                heap.reset(k);
                for &(d2, i) in &cand {
                    heap.push(i as usize, d2);
                }
                let mut out = Vec::with_capacity(k.min(cand.len()));
                heap.drain_sorted_into(&mut out);
                results.push(sqrt_dists(out));
            }
        });
        (results, stats)
    }

    /// Reference scalar scan — per-row [`euclidean_sq`] into a full
    /// `N`-length distance buffer, then [`top_k`]. This is the
    /// pre-norm-trick baseline, kept for benchmarking the fused scan
    /// against (its distances can differ from [`Self::knn`] in the last
    /// ulp because the arithmetic is associated differently).
    pub fn knn_naive(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        let dists: Vec<f64> = (0..self.len())
            .map(|i| euclidean_sq(query, self.get(i)))
            .collect();
        sqrt_dists(top_k(&dists, k))
    }
}

/// `out` with each squared distance replaced by its square root.
fn sqrt_dists(mut out: Vec<Neighbor>) -> Vec<Neighbor> {
    for nb in &mut out {
        nb.dist = nb.dist.sqrt();
    }
    out
}

/// Work counters reported by one batched scan — what
/// [`DbMetrics::record_scan`](crate::DbMetrics::record_scan) turns into
/// the `neutraj_ann_*`, `neutraj_graph_*`, `neutraj_quant_*` and
/// `neutraj_exact_bound_survivors` series. Each path fills the fields of
/// the work it did and leaves the rest zero; `+=` sums the scans of
/// several shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// IVF: inverted lists visited across the batch.
    pub lists_probed: usize,
    /// IVF and graph: rows scored exactly in f64 across the batch (the
    /// graph's distance evaluations).
    pub candidates_scanned: usize,
    /// Graph: nodes whose adjacency was expanded across the batch.
    pub hops: usize,
    /// Graph: adjacency entries read (visited-array probes).
    pub links_scanned: usize,
    /// Exact, narrower than a stripe: rows scored through their u8 codes
    /// to bound their f64 distances (the corpus once per query).
    pub rows_scanned: usize,
    /// Exact, narrower than a stripe: bytes those rows cost (`dim` code
    /// bytes + the four f64 row columns the kernel reads, 32 bytes), vs
    /// `8·dim + 8` for the fused f64 pass.
    pub bytes_scanned: usize,
    /// Exact, narrower than a stripe: rows whose lower bound let them
    /// through to the f64 score.
    pub bound_survivors: usize,
}

impl ScanStats {
    /// Rows scored in f64 after the int8 bound, per query of a
    /// `queries`-wide batch (summed over the shards it scanned); `None`
    /// when no query went through the bound.
    pub fn survivors_per_query(&self, queries: usize) -> Option<f64> {
        (self.rows_scanned > 0).then(|| self.bound_survivors as f64 / queries.max(1) as f64)
    }
}

impl std::ops::AddAssign for ScanStats {
    fn add_assign(&mut self, o: Self) {
        self.lists_probed += o.lists_probed;
        self.candidates_scanned += o.candidates_scanned;
        self.hops += o.hops;
        self.links_scanned += o.links_scanned;
        self.rows_scanned += o.rows_scanned;
        self.bytes_scanned += o.bytes_scanned;
        self.bound_survivors += o.bound_survivors;
    }
}

/// The rows as the gathered-rows kernel's source: each id through its
/// chunk.
impl RowSource for EmbeddingStore {
    #[inline]
    fn row(&self, id: u32, _k: usize) -> &[f64] {
        self.get(id as usize)
    }
}

/// The store as the graph's build-time oracle: [`Self::row_dist_sq`]
/// per pair, a whole hop through the gathered-rows kernel.
impl RowDistance for EmbeddingStore {
    fn pair(&self, a: u32, b: u32) -> f64 {
        self.row_dist_sq(a, b)
    }

    fn hop(&self, a: u32, ids: &[u32], out: &mut [f64]) {
        let a = a as usize;
        self.dists_to_rows(self.get(a), self.norm(a), ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> EmbeddingStore {
        // Five 2-d embeddings on a line.
        let embs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 0.0]).collect();
        EmbeddingStore::from_embeddings(2, &embs)
    }

    #[test]
    fn knn_orders_by_distance() {
        let s = store();
        let res = s.knn(&[2.1, 0.0], 3);
        assert_eq!(res[0].index, 2); // 0.1
        assert_eq!(res[1].index, 3); // 0.9
        assert_eq!(res[2].index, 1); // 1.1
    }

    #[test]
    fn knn_exact_distances() {
        let s = store();
        let res = s.knn(&[2.0, 0.0], 5);
        assert_eq!(res[0].index, 2);
        assert_eq!(res[0].dist, 0.0);
        // ties at distance 1 broken by index
        assert_eq!(res[1].index, 1);
        assert_eq!(res[2].index, 3);
    }

    #[test]
    fn knn_reports_true_distances_not_squared() {
        let s = store();
        let res = s.knn(&[0.0, 3.0], 2);
        assert_eq!(res[0].index, 0);
        assert!((res[0].dist - 3.0).abs() < 1e-12);
        assert!((res[1].dist - 10.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn knn_batch_matches_scalar_and_naive() {
        // Enough rows to span multiple scan blocks, with duplicates so tie
        // ordering is exercised.
        let embs: Vec<Vec<f64>> = (0..1200)
            .map(|i| vec![(i % 97) as f64 * 0.5, ((i * 7) % 13) as f64])
            .collect();
        let s = EmbeddingStore::from_embeddings(2, &embs);
        let queries: Vec<Vec<f64>> = vec![vec![3.0, 4.0], vec![0.0, 0.0], vec![48.0, 12.0]];
        let qrefs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let batch = s.knn_batch(&qrefs, 10);
        assert_eq!(batch.len(), 3);
        for (q, got) in qrefs.iter().zip(&batch) {
            assert_eq!(&s.knn(q, 10), got, "batched != scalar");
            // The naive baseline associates the arithmetic differently, so
            // compare ranks (and distances up to fp noise), not bits.
            let naive = s.knn_naive(q, 10);
            let idx: Vec<usize> = got.iter().map(|n| n.index).collect();
            let idx_naive: Vec<usize> = naive.iter().map(|n| n.index).collect();
            assert_eq!(idx, idx_naive, "norm trick changed the ranking");
            for (a, b) in got.iter().zip(&naive) {
                assert!((a.dist - b.dist).abs() < 1e-9);
            }
        }
        assert!(s.knn_batch(&[], 5).is_empty());
    }

    #[test]
    fn push_extends_store_and_norms() {
        let mut s = EmbeddingStore::new(2);
        assert!(s.is_empty());
        s.push(&[3.0, 4.0]);
        s.push(&[0.0, 0.0]);
        assert_eq!(s.len(), 2);
        let res = s.knn(&[3.0, 4.0], 2);
        assert_eq!(res[0].index, 0);
        assert_eq!(res[0].dist, 0.0, "self-distance must cancel exactly");
        assert!((res[1].dist - 5.0).abs() < 1e-12);
    }

    #[test]
    fn len_and_dims() {
        let s = store();
        assert_eq!(s.len(), 5);
        assert_eq!(s.dim(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.get(3), &[3.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn dim_mismatch_panics() {
        let s = store();
        let _ = s.knn(&[0.0, 0.0, 0.0], 1);
    }
}
