//! Int8 scalar quantization of the embedding store: the `NTQ08` codec
//! and the quantized scan paths (`DESIGN.md` §12).
//!
//! # Why
//!
//! At large `N` the exhaustive norm-trick scan and the IVF shortlist are
//! *memory-bound*: every probed row streams `8·d` bytes of f64. A
//! [`QuantizedStore`] is a lossy u8 view of the same rows — per-row
//! scale+offset codes, `d` bytes each — so the scan reads ~8× fewer
//! bytes and scores candidates with an exact-integer u8 dot product
//! ([`neutraj_nn::simd::dot_u8`]). Quantization error only affects
//! *which* rows make the over-fetched shortlist; the survivors are
//! re-scored against the parent f64 store with the very same norm-trick
//! expression the exact paths use, so reported distances are
//! bit-identical to the exhaustive scan's and any loss is pure recall
//! (measured ≥ 0.99 @ 10 by `neutraj-eval`).
//!
//! # Quantization scheme
//!
//! Per row (the "block" of the codec): `offset = min(row)`,
//! `scale = (max(row) − min(row)) / 255`, `code = round((v − offset) /
//! scale)` ∈ [0, 255], so dequantization `v̂ = offset + scale·code` has
//! per-element error ≤ `scale/2` (property-tested). A constant row gets
//! `scale = 0` and all-zero codes — exact. The approximate distance
//! between a quantized query `q̂` and row `x̂` expands like the norm
//! trick, entirely from precomputed row statistics plus one integer dot:
//!
//! `‖q̂−x̂‖² = ‖q̂‖² − 2·(d·qo·xo + qo·xs·Sx + xo·qs·Sq + qs·xs·D) + ‖x̂‖²`
//!
//! with `S* = Σ codes`, `D = Σ q_code·x_code` (the u8 dot).

use crate::persist::{
    decode_f64s, encode_f64s, fail, read_enveloped, write_enveloped, PersistError,
};
use crate::search::{grown, EmbeddingStore, ScanStats};
use neutraj_index::{CoarseQuantizer, IvfIndex};
use neutraj_measures::{Neighbor, NeighborHeap};
use neutraj_nn::linalg::dot;
use neutraj_nn::simd::{dot_u8, quant_scan_block, QuantQueryTerms};
use neutraj_obs::simd::SimdLevel;
use neutraj_trajectory::cursor::{PutLe, Reader};

/// Section magic of the quantized-store codec, sealed inside the
/// standard `NTFILE01` CRC envelope by
/// [`SimilarityDb::save_view`](crate::SimilarityDb::save_view).
pub(crate) const QUANT_MAGIC: &[u8; 8] = b"NTQ08\0\0\0";

/// Maximum supported embedding dimensionality — the bound under which
/// the AVX2 u8 dot's i32 pair accumulators cannot overflow (see
/// [`dot_u8`]).
pub const QUANT_MAX_DIM: usize = 32768;

/// A u8 scale+offset view of an [`EmbeddingStore`], kept in lockstep
/// with it by [`crate::SimilarityDb::insert`] once built.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedStore {
    dim: usize,
    /// `N×dim` row-major codes.
    codes: Vec<u8>,
    /// Per-row dequantization offset (the row minimum).
    offset: Vec<f64>,
    /// Per-row dequantization scale (`range/255`, 0 for constant rows).
    scale: Vec<f64>,
    /// Per-row `Σ codes` (exact in f64: ≤ 255·32768).
    code_sum: Vec<f64>,
    /// Per-row `‖dequantized row‖²`.
    dq_norm: Vec<f64>,
    /// Dispatch level for the u8 dot kernel, captured from
    /// [`neutraj_obs::simd::level`] at construction.
    level: SimdLevel,
}

/// A query quantized against its own min/max, with the statistics the
/// approximate-distance expansion needs. Build one per query via
/// [`QuantizedStore::quantize_query`].
#[derive(Debug, Clone)]
pub struct QuantizedQuery {
    codes: Vec<u8>,
    offset: f64,
    scale: f64,
    code_sum: f64,
    /// `‖dequantized query‖²`.
    dq_norm: f64,
}

/// Quantizes one row; returns `(codes, offset, scale)`.
fn quantize_row(row: &[f64], codes: &mut Vec<u8>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in row {
        assert!(v.is_finite(), "cannot quantize a non-finite embedding");
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if row.is_empty() {
        return (0.0, 0.0);
    }
    let range = hi - lo;
    if range == 0.0 {
        codes.extend(std::iter::repeat_n(0u8, row.len()));
        return (lo, 0.0);
    }
    let scale = range / 255.0;
    let inv = 255.0 / range;
    codes.extend(row.iter().map(|&v| {
        // Clamp against fp round-up at the range edges.
        ((v - lo) * inv).round().clamp(0.0, 255.0) as u8
    }));
    (lo, scale)
}

impl QuantizedStore {
    /// An empty quantized store of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim <= QUANT_MAX_DIM, "dim exceeds QUANT_MAX_DIM");
        Self {
            dim,
            codes: Vec::new(),
            offset: Vec::new(),
            scale: Vec::new(),
            code_sum: Vec::new(),
            dq_norm: Vec::new(),
            level: neutraj_obs::simd::level(),
        }
    }

    /// Quantizes every row of `store`.
    pub fn from_store(store: &EmbeddingStore) -> Self {
        let mut qs = Self::new(store.dim());
        qs.codes.reserve(store.len() * store.dim());
        for i in 0..store.len() {
            qs.push(store.get(i));
        }
        qs
    }

    /// A copy of this view with room for exactly `extra` more rows — the
    /// int8 counterpart of [`EmbeddingStore::successor`]: the codes and
    /// the four per-row columns are each allocated once at their final
    /// size, so the [`Self::push`]es that follow never move them.
    pub(crate) fn successor(&self, extra: usize) -> Self {
        Self {
            dim: self.dim,
            codes: grown(&self.codes, extra * self.dim),
            offset: grown(&self.offset, extra),
            scale: grown(&self.scale, extra),
            code_sum: grown(&self.code_sum, extra),
            dq_norm: grown(&self.dq_norm, extra),
            level: self.level,
        }
    }

    /// Pins the u8-dot dispatch level (tests force scalar and AVX2 in
    /// one process; production keeps the process-wide default).
    pub fn with_simd_level(mut self, level: SimdLevel) -> Self {
        self.level = level;
        self
    }

    /// Appends one row, quantizing it. Panics on dimension mismatch or
    /// non-finite values (the db validates upstream).
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "embedding dim mismatch");
        let (off, scale) = quantize_row(row, &mut self.codes);
        self.push_stats(off, scale);
    }

    /// Computes and stores the derived row statistics for the freshly
    /// appended codes (shared by [`Self::push`] and the codec load).
    fn push_stats(&mut self, off: f64, scale: f64) {
        let i = self.offset.len();
        let codes = &self.codes[i * self.dim..(i + 1) * self.dim];
        let (mut s, mut s2) = (0u64, 0u64);
        for &c in codes {
            s += u64::from(c);
            s2 += u64::from(c) * u64::from(c);
        }
        let (sum, sumsq) = (s as f64, s2 as f64);
        self.offset.push(off);
        self.scale.push(scale);
        self.code_sum.push(sum);
        // ‖off + s·c‖² = d·off² + 2·off·s·Σc + s²·Σc².
        self.dq_norm
            .push(self.dim as f64 * off * off + 2.0 * off * scale * sum + scale * scale * sumsq);
    }

    /// Number of quantized rows.
    pub fn len(&self) -> usize {
        self.offset.len()
    }

    /// Returns `true` when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.offset.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The u8 codes of row `i`.
    pub fn codes(&self, i: usize) -> &[u8] {
        &self.codes[i * self.dim..(i + 1) * self.dim]
    }

    /// Dequantizes row `i` (tests and the error-bound property).
    pub fn dequantize(&self, i: usize) -> Vec<f64> {
        self.codes(i)
            .iter()
            .map(|&c| self.offset[i] + self.scale[i] * f64::from(c))
            .collect()
    }

    /// Quantizes a query against its own min/max and precomputes the
    /// statistics of the approximate-distance expansion.
    pub fn quantize_query(&self, q: &[f64]) -> QuantizedQuery {
        assert_eq!(q.len(), self.dim, "query dim mismatch");
        let mut codes = Vec::with_capacity(q.len());
        let (offset, scale) = quantize_row(q, &mut codes);
        let (mut s, mut s2) = (0u64, 0u64);
        for &c in &codes {
            s += u64::from(c);
            s2 += u64::from(c) * u64::from(c);
        }
        let (code_sum, sumsq) = (s as f64, s2 as f64);
        let dq_norm = q.len() as f64 * offset * offset
            + 2.0 * offset * scale * code_sum
            + scale * scale * sumsq;
        QuantizedQuery {
            codes,
            offset,
            scale,
            code_sum,
            dq_norm,
        }
    }

    /// Approximate squared distance between quantized query and row `i`
    /// — the norm-trick expansion over dequantized values, with the only
    /// data-dependent term an exact-integer u8 dot over `d` bytes.
    #[inline]
    pub fn approx_d2(&self, q: &QuantizedQuery, i: usize) -> f64 {
        self.approx_d2_from_dot(q, i, dot_u8(self.level, &q.codes, self.codes(i)) as f64)
    }

    /// The affine tail of [`Self::approx_d2`] once the integer dot `D`
    /// is known — shared by the per-row path and the blocked scan, so
    /// both produce bit-identical scores by construction.
    #[inline]
    fn approx_d2_from_dot(&self, q: &QuantizedQuery, i: usize, d: f64) -> f64 {
        let (xo, xs) = (self.offset[i], self.scale[i]);
        let cross = self.dim as f64 * q.offset * xo
            + q.offset * xs * self.code_sum[i]
            + xo * q.scale * q.code_sum
            + q.scale * xs * d;
        (q.dq_norm - 2.0 * cross + self.dq_norm[i]).max(0.0)
    }

    /// How many approximate-shortlist entries to keep ahead of the exact
    /// re-score for `k` final results: over-fetch absorbs quantization
    /// rank noise (recall@10 ≥ 0.99 on the eval harness).
    pub fn refine_width(&self, k: usize) -> usize {
        (4 * k).max(k + 32).min(self.len())
    }

    /// Exhaustive quantized top-`k`: scan every row through its codes,
    /// keep an over-fetched shortlist by approximate distance, then
    /// re-score the survivors against `parent` with the exact norm-trick
    /// expression (bit-identical distances to
    /// [`EmbeddingStore::knn_batch`] on the same rows).
    ///
    /// Panics when `parent` is not the store this view quantized
    /// (dimension or row-count mismatch).
    pub fn knn_batch(
        &self,
        parent: &EmbeddingStore,
        queries: &[&[f64]],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, ScanStats) {
        self.check_parent(parent);
        let refine = self.refine_width(k);
        let mut stats = ScanStats::default();
        let mut heap = NeighborHeap::new(refine.max(1));
        let mut short = Vec::new();
        // Rows are scored in contiguous blocks: one dispatched
        // `quant_scan_block` call per block fuses the exact-integer u8
        // dots (four rows per step, the block's codes and the query hot
        // in L1/L2) with the 4-lane affine tail over the precomputed
        // row-statistic columns. Identical arithmetic to the per-row
        // `approx_d2`, just batched — `quant_score`'s operand order is
        // `approx_d2_from_dot`'s, so scores are bit-identical.
        const BLOCK: usize = 512;
        let mut d2s = vec![0.0f64; BLOCK.min(self.len().max(1))];
        let results = queries
            .iter()
            .map(|q| {
                let qq = self.quantize_query(q);
                heap.reset(refine.max(1));
                let terms = QuantQueryTerms {
                    dqo: self.dim as f64 * qq.offset,
                    qo: qq.offset,
                    qs: qq.scale,
                    qsum: qq.code_sum,
                    qn: qq.dq_norm,
                };
                // Only candidates that beat the current worst kept entry
                // touch the heap; strict `<` is safe because indices
                // ascend and the heap's tie-break is by index, so an
                // equal-distance later row would be rejected anyway.
                let mut t = f64::INFINITY;
                let mut start = 0;
                while start < self.len() {
                    let end = (start + BLOCK).min(self.len());
                    let out = &mut d2s[..end - start];
                    quant_scan_block(
                        self.level,
                        &qq.codes,
                        &self.codes[start * self.dim..end * self.dim],
                        &self.offset[start..end],
                        &self.scale[start..end],
                        &self.code_sum[start..end],
                        &self.dq_norm[start..end],
                        &terms,
                        out,
                    );
                    for (j, &d2) in out.iter().enumerate() {
                        if d2 < t {
                            heap.push(start + j, d2);
                            if let Some(worst) = heap.threshold() {
                                t = worst.dist;
                            }
                        }
                    }
                    start = end;
                }
                stats.rows_scanned += self.len();
                stats.bytes_scanned += self.len() * (self.dim + 16);
                short.clear();
                heap.drain_sorted_into(&mut short);
                self.rerank_exact(parent, q, &short, k, &mut stats)
            })
            .collect();
        (results, stats)
    }

    /// IVF-shortlisted quantized top-`k`: probe `nprobe` lists, score
    /// the candidates through their codes, then exactly re-score the
    /// over-fetched survivors against `parent` — the quantized
    /// counterpart of [`EmbeddingStore::knn_ann_batch`].
    pub fn knn_ann_batch<Q: CoarseQuantizer>(
        &self,
        parent: &EmbeddingStore,
        queries: &[&[f64]],
        k: usize,
        index: &IvfIndex<Q>,
        nprobe: usize,
    ) -> (Vec<Vec<Neighbor>>, ScanStats) {
        self.check_parent(parent);
        assert_eq!(index.dim(), self.dim, "ann index dim mismatch");
        assert_eq!(
            index.len(),
            self.len(),
            "ann index is stale: row count mismatch"
        );
        assert!(nprobe > 0, "nprobe must be positive");
        let refine = self.refine_width(k);
        let mut stats = ScanStats::default();
        let mut heap = NeighborHeap::new(refine.max(1));
        let mut cand: Vec<u32> = Vec::new();
        let mut short = Vec::new();
        let results = queries
            .iter()
            .map(|q| {
                let qq = self.quantize_query(q);
                stats.lists_probed += index.candidates_into(q, nprobe, &mut cand);
                heap.reset(refine.max(1));
                for &i in &cand {
                    heap.push(i as usize, self.approx_d2(&qq, i as usize));
                }
                stats.rows_scanned += cand.len();
                stats.bytes_scanned += cand.len() * (self.dim + 16);
                short.clear();
                heap.drain_sorted_into(&mut short);
                self.rerank_exact(parent, q, &short, k, &mut stats)
            })
            .collect();
        (results, stats)
    }

    /// Exact re-score of an approximate shortlist: the same
    /// `(‖q‖² − 2·q·x + ‖x‖²).max(0)` then `sqrt` as every exact scan
    /// path, so the distances of the survivors match bit-for-bit.
    fn rerank_exact(
        &self,
        parent: &EmbeddingStore,
        q: &[f64],
        short: &[Neighbor],
        k: usize,
        stats: &mut ScanStats,
    ) -> Vec<Neighbor> {
        let qn = dot(q, q);
        let mut heap = NeighborHeap::new(k);
        for n in short {
            let d2 = (qn - 2.0 * dot(q, parent.get(n.index)) + parent.norm_sq(n.index)).max(0.0);
            heap.push(n.index, d2);
        }
        stats.reranked += short.len();
        let mut out = Vec::with_capacity(k.min(short.len()));
        heap.drain_sorted_into(&mut out);
        for nb in &mut out {
            nb.dist = nb.dist.sqrt();
        }
        out
    }

    fn check_parent(&self, parent: &EmbeddingStore) {
        assert_eq!(parent.dim(), self.dim, "parent store dim mismatch");
        assert_eq!(
            parent.len(),
            self.len(),
            "quantized view is stale: row count mismatch"
        );
    }

    // -- NTQ08 codec --------------------------------------------------

    /// Serializes the store as an `NTQ08` section (magic, dims, per-row
    /// offset/scale, codes). Derived statistics are recomputed on load.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf =
            Vec::with_capacity(QUANT_MAGIC.len() + 16 + self.len() * (self.dim + 16) + 32);
        buf.put_slice(QUANT_MAGIC);
        buf.put_u64_le(self.len() as u64);
        buf.put_u64_le(self.dim as u64);
        encode_f64s(&mut buf, &self.offset);
        encode_f64s(&mut buf, &self.scale);
        buf.put_slice(&self.codes);
        buf
    }

    /// Parses an `NTQ08` section, validating structure (magic, counts,
    /// exact length) and values (finite offsets, non-negative finite
    /// scales) before rebuilding the derived statistics.
    pub fn from_bytes(data: &[u8]) -> Result<Self, PersistError> {
        let mut data = Reader::new(data);
        if data.take(QUANT_MAGIC.len())? != QUANT_MAGIC {
            return Err(fail("bad quantized-store magic (not an NTQ08 section?)"));
        }
        let n = data.u64()? as usize;
        let dim = data.u64()? as usize;
        if dim > QUANT_MAX_DIM {
            return Err(fail(format!("NTQ08 dim {dim} exceeds {QUANT_MAX_DIM}")));
        }
        let offset = decode_f64s(&mut data)?;
        let scale = decode_f64s(&mut data)?;
        if offset.len() != n || scale.len() != n {
            return Err(fail(format!(
                "NTQ08 row-stat count mismatch: {} offsets / {} scales for {n} rows",
                offset.len(),
                scale.len()
            )));
        }
        let want = n
            .checked_mul(dim)
            .ok_or_else(|| fail("NTQ08 code length overflows"))?;
        if data.rest().len() != want {
            return Err(fail(format!(
                "NTQ08 code bytes mismatch: expected {want}, got {}",
                data.rest().len()
            )));
        }
        for (i, (&o, &s)) in offset.iter().zip(&scale).enumerate() {
            if !o.is_finite() || !s.is_finite() || s < 0.0 {
                return Err(fail(format!(
                    "NTQ08 row {i} has invalid stats (offset {o}, scale {s})"
                )));
            }
        }
        let mut qs = Self::new(dim);
        qs.codes = data.rest().to_vec();
        for (i, (&o, &s)) in offset.iter().zip(&scale).enumerate() {
            debug_assert_eq!(qs.offset.len(), i);
            qs.push_stats(o, s);
        }
        Ok(qs)
    }

    /// Streams the sealed envelope to `w` — the seam the fault-injection
    /// harness drives with `FaultyWriter`.
    pub fn write_to<W: std::io::Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_enveloped(w, &self.to_bytes())
    }

    /// Reads a store from a sealed-envelope stream — the seam the
    /// fault-injection harness drives with
    /// [`FaultyReader`](crate::FaultyReader).
    pub fn read_from<R: std::io::Read>(r: &mut R) -> Result<Self, PersistError> {
        Self::from_bytes(&read_enveloped(r)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(n: usize, dim: usize) -> EmbeddingStore {
        let mut seed = 11u64;
        let mut unit = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let embs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| unit() * 4.0 - 2.0).collect())
            .collect();
        EmbeddingStore::from_embeddings(dim, &embs)
    }

    #[test]
    fn dequantization_error_is_bounded_by_half_scale() {
        let s = store(64, 24);
        let qs = QuantizedStore::from_store(&s);
        for i in 0..s.len() {
            let dq = qs.dequantize(i);
            let bound = qs.scale[i] * 0.5000001 + 1e-12;
            for (a, b) in s.get(i).iter().zip(&dq) {
                assert!((a - b).abs() <= bound, "row {i}: |{a} - {b}| > {bound}");
            }
        }
    }

    #[test]
    fn constant_rows_roundtrip_exactly() {
        let s = EmbeddingStore::from_embeddings(3, &[vec![0.5; 3], vec![-2.0; 3]]);
        let qs = QuantizedStore::from_store(&s);
        assert_eq!(qs.dequantize(0), vec![0.5; 3]);
        assert_eq!(qs.dequantize(1), vec![-2.0; 3]);
        assert_eq!(qs.scale, vec![0.0, 0.0]);
    }

    #[test]
    fn full_refine_matches_exact_scan_bitwise() {
        let s = store(300, 16);
        let qs = QuantizedStore::from_store(&s);
        let queries: Vec<Vec<f64>> = (0..4).map(|i| s.get(i * 7).to_vec()).collect();
        let qrefs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        // refine_width(75) == 300 == N: every row is exactly re-scored,
        // so the result must equal the plain scan bit-for-bit.
        let (got, stats) = qs.knn_batch(&s, &qrefs, 75);
        let want = s.knn_batch(&qrefs, 75);
        assert_eq!(got, want);
        assert_eq!(stats.rows_scanned, 4 * 300);
        assert_eq!(stats.bytes_scanned, 4 * 300 * (16 + 16));
    }

    #[test]
    fn quantized_shortlist_has_high_recall_at_10() {
        let s = store(2000, 32);
        let qs = QuantizedStore::from_store(&s);
        let queries: Vec<Vec<f64>> = (0..8).map(|i| s.get(i * 13 + 1).to_vec()).collect();
        let qrefs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
        let (got, _) = qs.knn_batch(&s, &qrefs, 10);
        let want = s.knn_batch(&qrefs, 10);
        let mut hit = 0;
        let mut total = 0;
        for (g, w) in got.iter().zip(&want) {
            for n in w {
                total += 1;
                hit += usize::from(g.iter().any(|m| m.index == n.index));
            }
        }
        assert!(hit as f64 / total as f64 >= 0.99, "recall {hit}/{total}");
    }

    #[test]
    fn successor_is_copied_once_and_never_moves() {
        let s = store(41, 6);
        let qs = QuantizedStore::from_store(&s);
        let extra = 7;
        let mut next = qs.successor(extra);
        assert_eq!(next, qs);
        assert_eq!(next.codes.capacity(), (qs.len() + extra) * 6);
        let columns = |q: &QuantizedStore| {
            [&q.offset, &q.scale, &q.code_sum, &q.dq_norm].map(|c| (c.as_ptr(), c.capacity()))
        };
        let (codes, cols) = (next.codes.as_ptr(), columns(&next));
        assert!(cols.iter().all(|&(_, cap)| cap == qs.len() + extra));
        let mut want = qs.clone();
        for i in 0..extra {
            next.push(s.get(i));
            want.push(s.get(i));
        }
        // Same view as the clone-then-push path, in the buffers the
        // successor was born with.
        assert_eq!(next, want);
        assert_eq!((next.codes.as_ptr(), columns(&next)), (codes, cols));
        assert_eq!(next.codes.capacity(), next.codes.len());
    }

    #[test]
    fn ntq08_roundtrips() {
        let s = store(50, 12);
        let qs = QuantizedStore::from_store(&s);
        let back = QuantizedStore::from_bytes(&qs.to_bytes()).expect("roundtrip");
        assert_eq!(qs, back);
    }

    #[test]
    fn ntq08_rejects_structural_damage() {
        let s = store(10, 4);
        let bytes = QuantizedStore::from_store(&s).to_bytes();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(QuantizedStore::from_bytes(&bad).is_err());
        // Truncated codes.
        let mut bad = bytes.clone();
        bad.truncate(bytes.len() - 1);
        assert!(QuantizedStore::from_bytes(&bad).is_err());
        // Header truncated.
        assert!(QuantizedStore::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn quantize_query_matches_row_quantization() {
        let s = store(5, 8);
        let qs = QuantizedStore::from_store(&s);
        let qq = qs.quantize_query(s.get(2));
        assert_eq!(qq.codes, qs.codes(2));
        assert_eq!(qq.offset, qs.offset[2]);
        assert_eq!(qq.scale, qs.scale[2]);
        assert_eq!(qq.dq_norm, qs.dq_norm[2]);
        // Self-distance of a quantized row against itself is ~0.
        assert!(qs.approx_d2(&qq, 2) < 1e-18);
    }
}
