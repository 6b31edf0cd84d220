//! Int8 scalar quantization of the embedding store: the per-row codes and
//! error bound the exact scan of a narrow batch prunes with (`DESIGN.md`
//! §12).
//!
//! # Why
//!
//! At large `N` a scan is *memory-bound*: every row streams `8·d + 8`
//! bytes of f64 row and norm. Every [`EmbeddingStore`] therefore keeps a
//! [`QuantizedStore`] of its rows beside them — per-row scale+offset
//! codes, `d` bytes each plus four f64 row columns, 64 B a row at
//! `d = 32` against 264 — quantized as each row is pushed. The exact
//! top-k of a narrow batch ([`EmbeddingStore::knn_batch`] with fewer
//! queries than one f64 stripe) reads it: one pass over the codes gives
//! every row an approximate distance, and from it a lower and an upper
//! bound on the distance the f64 scan would compute. The running `k`-th
//! smallest upper bound is a threshold no answer can exceed; only rows
//! whose lower bound is at or under it — a few tenths of a percent on
//! trained embeddings — are scored in f64, by the f64 scan's own
//! expression and heap. The bounds are proven, not tuned (`DESIGN.md`
//! §12), so the answers are the f64 scan's bit for bit. The codes are
//! derived state: nothing persists them, and a store rebuilds them as
//! it loads its rows. They live in shared chunks of 512 rows — eight of
//! the store's row chunks — each holding its rows' codes and, inline,
//! their four columns; the scan makes one [`quant_scan_block`] call per
//! chunk, and a snapshot successor shares every full chunk.
//!
//! # Quantization scheme
//!
//! Per row: `offset = min(row)`,
//! `scale = (max(row) − min(row)) / 255`, `code = round((v − offset) /
//! scale)` ∈ [0, 255], so dequantization `v̂ = offset + scale·code` has
//! per-element error ≤ `scale·(1/2 + 2⁻⁴³)` and a row's error norm is at
//! most [`QuantizedStore::row_error_bound`]. A constant row gets
//! `scale = 0` and all-zero codes — exact. A row the bound cannot cover
//! (a non-finite component, a range that overflows or is below `2⁻¹⁰⁰⁰`)
//! gets `offset = 0`, `scale = +∞` and zero codes: an infinite bound, so
//! the exact scan always scores it. The approximate distance between a
//! quantized query `q̂` and row `x̂` expands like the norm trick, entirely
//! from precomputed row statistics plus one integer dot:
//!
//! `‖q̂−x̂‖² = ‖q̂‖² − 2·(d·qo·xo + qo·xs·Sx + xo·qs·Sq + qs·xs·D) + ‖x̂‖²`
//!
//! with `S* = Σ codes`, `D = Σ q_code·x_code` (the u8 dot).

use crate::chunks::{Block, Chunks, CODE_CHUNK};
use crate::search::{EmbeddingStore, ScanStats};
use neutraj_measures::{Neighbor, NeighborHeap};
use neutraj_nn::simd::{quant_scan_block, QuantQueryTerms};
use neutraj_obs::simd::SimdLevel;

/// Maximum supported embedding dimensionality — the bound under which
/// the AVX2 u8 dot's i32 pair accumulators cannot overflow (see
/// [`neutraj_nn::simd::dot_u8`]).
pub const QUANT_MAX_DIM: usize = 32768;

/// `2^e` for a normal exponent, as a constant.
const fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// Smallest non-zero row range the quantizer gives a finite bound: below it
/// `255/range` can overflow and `range/255` lose bits to underflow, and
/// the bound's derivation no longer holds.
const MIN_RANGE: f64 = pow2(-1000);

/// Relative widening of every computed bound. It covers the handful of
/// roundings made while *evaluating* a bound (each at most `2⁻⁵³`) and
/// the `2⁻⁴²` of the quantization error itself (`DESIGN.md` §12).
const RHO: f64 = 1.0 + pow2(-40);

/// A u8 scale+offset copy of an [`EmbeddingStore`]'s rows — the code
/// column every store keeps (`EmbeddingStore::push` is the one place a
/// row is quantized), and what
/// [`SimilarityDb::quantized_store`](crate::SimilarityDb::quantized_store)
/// hands out. It grows in lockstep with the store's rows, in shared
/// chunks of 512 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedStore {
    dim: usize,
    blocks: Chunks<CodeBlock, CODE_CHUNK>,
    /// Largest `|offset| + 256·scale` over the rows with a finite scale:
    /// no component of such a row is larger in magnitude.
    magnitude: f64,
    /// Largest scale of any row (`+∞` once a row without a bound is in).
    max_scale: f64,
    /// Dispatch level for the u8 dot kernel, captured from
    /// [`neutraj_obs::simd::level`] at construction.
    level: SimdLevel,
}

/// One chunk of a [`QuantizedStore`]: up to [`CODE_CHUNK`] rows' codes, and
/// the four per-row columns [`quant_scan_block`] reads held inline, one
/// after another, so a chunk is two streams for the scan, not five.
#[derive(Debug, Clone, PartialEq)]
struct CodeBlock {
    /// Row-major codes, `dim` a row.
    codes: Vec<u8>,
    /// Rows held.
    rows: usize,
    /// Per row, by [`OFFSET`], [`SCALE`], [`CODE_SUM`] and [`DQ_NORM`];
    /// slots past `rows` stay 0.
    columns: [[f64; CODE_CHUNK]; 4],
}

/// The dequantization offset (the row minimum).
const OFFSET: usize = 0;
/// The dequantization scale (`range/255`, 0 for constant rows, `+∞` for
/// rows without a finite bound).
const SCALE: usize = 1;
/// `Σ codes` (exact in f64: ≤ 255·32768).
const CODE_SUM: usize = 2;
/// `‖dequantized row‖²`.
const DQ_NORM: usize = 3;

impl CodeBlock {
    /// Column `c` of the rows held.
    fn column(&self, c: usize) -> &[f64] {
        &self.columns[c][..self.rows]
    }
}

impl Block for CodeBlock {
    fn rows(&self) -> usize {
        self.rows
    }
}

/// A query quantized against its own min/max, with the statistics the
/// approximate-distance expansion needs. Build one per query via
/// [`QuantizedStore::quantize_query`].
#[derive(Debug, Clone)]
pub(crate) struct QuantizedQuery {
    codes: Vec<u8>,
    offset: f64,
    scale: f64,
    code_sum: f64,
    /// `‖dequantized query‖²`.
    dq_norm: f64,
}

impl QuantizedQuery {
    /// A bound on `‖q − q̂‖`, like [`QuantizedStore::row_error_bound`].
    pub(crate) fn error_bound(&self) -> f64 {
        self.scale * error_factor(self.codes.len())
    }

    /// The query-side constants of [`quant_scan_block`].
    fn terms(&self) -> QuantQueryTerms {
        QuantQueryTerms {
            dqo: self.codes.len() as f64 * self.offset,
            qo: self.offset,
            qs: self.scale,
            qsum: self.code_sum,
            qn: self.dq_norm,
        }
    }
}

/// Quantizes one row into `codes`; returns `(offset, scale)`. The one
/// place anything is quantized: stored rows and queries alike.
fn quantize_row(row: &[f64], codes: &mut Vec<u8>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut finite = true;
    for &v in row {
        finite &= v.is_finite();
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if row.is_empty() {
        return (0.0, 0.0);
    }
    let range = hi - lo;
    if !finite || !range.is_finite() || (range > 0.0 && range < MIN_RANGE) {
        // No finite bound: the exact scan scores this row whatever its
        // codes say.
        codes.extend(std::iter::repeat_n(0u8, row.len()));
        return (0.0, f64::INFINITY);
    }
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

/// `(Σ codes, ‖offset + scale·codes‖²)` of one quantized row.
fn code_stats(codes: &[u8], offset: f64, scale: f64) -> (f64, f64) {
    let (mut s, mut s2) = (0u64, 0u64);
    for &c in codes {
        s += u64::from(c);
        s2 += u64::from(c) * u64::from(c);
    }
    let (sum, sumsq) = (s as f64, s2 as f64);
    if !scale.is_finite() {
        // All-zero codes under an infinite scale: no norm to speak of.
        return (sum, 0.0);
    }
    // ‖off + s·c‖² = d·off² + 2·off·s·Σc + s²·Σc².
    let d = codes.len() as f64;
    (
        sum,
        d * offset * offset + 2.0 * offset * scale * sum + scale * scale * sumsq,
    )
}

/// `√d/2`, widened by [`RHO`]: a row of `d` components quantized at
/// `scale` is within `scale·error_factor(d)` of its dequantization.
fn error_factor(dim: usize) -> f64 {
    (dim as f64).sqrt() * 0.5 * RHO
}

impl QuantizedStore {
    /// An empty quantized store of dimensionality `dim`.
    pub(crate) fn new(dim: usize) -> Self {
        assert!(dim <= QUANT_MAX_DIM, "dim exceeds QUANT_MAX_DIM");
        Self {
            dim,
            blocks: Chunks::default(),
            magnitude: 0.0,
            max_scale: 0.0,
            level: neutraj_obs::simd::level(),
        }
    }

    /// A copy of `store`'s codes — the store quantized each row as it
    /// was pushed.
    pub fn from_store(store: &EmbeddingStore) -> Self {
        store.codes().clone()
    }

    /// Appends one row, quantizing it, and its row statistics. Panics on
    /// dimension mismatch.
    pub(crate) fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "embedding dim mismatch");
        let dim = self.dim;
        let block = self.blocks.tail(|| CodeBlock {
            codes: Vec::with_capacity(CODE_CHUNK * dim),
            rows: 0,
            columns: [[0.0; CODE_CHUNK]; 4],
        });
        let (off, scale) = quantize_row(row, &mut block.codes);
        let i = block.rows;
        let (sum, dq_norm) = code_stats(&block.codes[i * dim..], off, scale);
        for (c, v) in [
            (OFFSET, off),
            (SCALE, scale),
            (CODE_SUM, sum),
            (DQ_NORM, dq_norm),
        ] {
            block.columns[c][i] = v;
        }
        block.rows += 1;
        self.max_scale = self.max_scale.max(scale);
        if scale.is_finite() {
            self.magnitude = self.magnitude.max(off.abs() + 256.0 * scale);
        }
    }

    /// How many of `parent`'s full chunks this store holds by pointer,
    /// and how many `parent` has.
    pub(crate) fn shared_chunks(&self, parent: &Self) -> (usize, usize) {
        self.blocks.shared_with(&parent.blocks)
    }

    /// Number of quantized rows.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The u8 codes of row `i`.
    pub fn codes(&self, i: usize) -> &[u8] {
        &self.blocks.block(i).codes[i % CODE_CHUNK * self.dim..][..self.dim]
    }

    /// Row `i`'s `(offset, scale)`: it dequantizes to
    /// `offset + scale·code` component by component.
    pub fn offset_scale(&self, i: usize) -> (f64, f64) {
        let block = self.blocks.block(i);
        (
            block.columns[OFFSET][i % CODE_CHUNK],
            block.columns[SCALE][i % CODE_CHUNK],
        )
    }

    /// Dequantizes row `i` (tests and the error-bound property).
    pub fn dequantize(&self, i: usize) -> Vec<f64> {
        let (offset, scale) = self.offset_scale(i);
        (self.codes(i).iter())
            .map(|&c| offset + scale * f64::from(c))
            .collect()
    }

    /// A bound on `‖x − x̂‖` for stored row `i`, `x̂` its exact
    /// dequantization: `scale·√d/2` widened by `1 + 2⁻⁴⁰`, which covers
    /// the rounding of the quantizer and of this product. `+∞` for a row
    /// without a finite bound, `0` for a constant row.
    pub fn row_error_bound(&self, i: usize) -> f64 {
        self.offset_scale(i).1 * error_factor(self.dim)
    }

    /// Quantizes a query against its own min/max and precomputes the
    /// statistics of the approximate-distance expansion.
    pub(crate) fn quantize_query(&self, q: &[f64]) -> QuantizedQuery {
        assert_eq!(q.len(), self.dim, "query dim mismatch");
        let mut codes = Vec::with_capacity(q.len());
        let (offset, scale) = quantize_row(q, &mut codes);
        let (code_sum, dq_norm) = code_stats(&codes, offset, scale);
        QuantizedQuery {
            codes,
            offset,
            scale,
            code_sum,
            dq_norm,
        }
    }

    /// Bytes one row costs a scan through the codes: `dim` code bytes and
    /// the four f64 row columns [`quant_scan_block`] reads.
    pub(crate) fn row_bytes(&self) -> usize {
        self.dim + 32
    }

    /// The rows that can be among the `k` nearest to `q` under the exact
    /// f64 scan's `(d2, index)` order, ascending, into `out` — a superset
    /// of that answer, usually a few tenths of a percent of the rows
    /// (`DESIGN.md` §12 derives the bounds used here).
    ///
    /// One pass over the codes gives each row its approximate distance
    /// `a`. A row's *upper bound* caps the `d2` the f64 scan computes for
    /// it; the `k`-th smallest upper bound seen so far is a threshold `τ`
    /// that every answer's `d2` is at or under. A row is kept while its
    /// *lower bound* is `<= τ` — tested in squared space, as `a` against
    /// a limit that changes only when `τ` does — and the kept rows are
    /// filtered once more against the final `τ`.
    pub(crate) fn bounded_rows(
        &self,
        q: &[f64],
        k: usize,
        cascade: &mut Cascade,
        out: &mut Vec<usize>,
    ) {
        let qq = self.quantize_query(q);
        let terms = qq.terms();
        let mut pass = Pass::new(self, &qq);
        let Cascade {
            approx,
            upper,
            kept,
        } = cascade;
        upper.reset(k);
        kept.clear();
        for (c, block) in self.blocks.blocks().enumerate() {
            let (start, approx) = (c * CODE_CHUNK, &mut approx[..block.rows()]);
            // One dispatched call scores the chunk: the exact-integer u8
            // dots (four rows per step, the chunk's codes and the query
            // hot in L1) fused with the 4-lane affine tail over the row
            // columns — `‖q̂ − x̂‖²` of the module docs, clamped at 0.
            quant_scan_block(
                self.level,
                &qq.codes,
                &block.codes,
                block.column(OFFSET),
                block.column(SCALE),
                block.column(CODE_SUM),
                block.column(DQ_NORM),
                &terms,
                approx,
            );
            // A group of eight rows is looked at one by one only when one
            // of them is under the limit of the worst-bounded row.
            let scales = block.column(SCALE);
            let (groups, tail) = approx.as_chunks::<8>();
            for (g, group) in groups.iter().enumerate() {
                if group.iter().fold(false, |any, &a| any | (a <= pass.coarse)) {
                    pass.offer(start + 8 * g, group, &scales[8 * g..], upper, kept);
                }
            }
            let at = approx.len() - tail.len();
            pass.offer(start + at, tail, &scales[at..], upper, kept);
        }
        out.clear();
        out.extend(
            (kept.iter())
                .filter(|&&(j, a)| a <= pass.limit(self.offset_scale(j).1))
                .map(|&(j, _)| j),
        );
    }

    /// The exact top-`k` of `queries` over `parent`: exactly
    /// [`EmbeddingStore::knn_batch_with_stats`], once `parent` is checked
    /// to have this store's shape. A forwarding spelling for callers that
    /// hold a copy of the codes; it never scans `self`, because the bound
    /// is sound only over the codes of the store it is scoring, and
    /// `parent`'s own are those.
    ///
    /// Panics when `parent` is not the store this copy was taken from
    /// (dimension or row-count mismatch).
    pub fn knn_batch(
        &self,
        parent: &EmbeddingStore,
        queries: &[&[f64]],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, ScanStats) {
        assert_eq!(parent.dim(), self.dim, "parent store dim mismatch");
        assert_eq!(
            parent.len(),
            self.len(),
            "quantized store is stale: row count mismatch"
        );
        parent.knn_batch_with_stats(queries, k)
    }
}

/// Scratch of [`QuantizedStore::bounded_rows`], reused across the
/// queries of a batch.
pub(crate) struct Cascade {
    /// One chunk's approximate distances.
    approx: Vec<f64>,
    /// The `k` smallest upper bounds seen so far.
    upper: NeighborHeap,
    /// Rows whose lower bound passed when they were scanned, with `a`.
    kept: Vec<(usize, f64)>,
}

impl Cascade {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            approx: vec![0.0; CODE_CHUNK],
            upper: NeighborHeap::new(k),
            kept: Vec::new(),
        }
    }
}

/// One query's pass over the codes: the constants of its two bounds
/// (`DESIGN.md` §12) and the threshold so far. With `a` a row's computed
/// approximate distance, `e` its error bound and `τ` the threshold, the
/// row can be an answer only if `a <= (√(τ + slack) + eps_q + e)² + slack`,
/// and the f64 scan's `d2` for it is at most
/// `(√(a + slack) + eps_q + e)² + slack`.
struct Pass {
    /// `‖q − q̂‖ <=` this.
    eps_q: f64,
    /// For every row with a finite bound, both `|a − ‖q̂ − x̂‖²|` and
    /// `|d2 − ‖q − x‖²|` are at most this: the rounding of the
    /// approximate distance's expansion and of the f64 norm trick.
    slack: f64,
    /// A row's error bound per unit of its scale.
    factor: f64,
    /// The largest error bound of any row.
    max_err: f64,
    /// `τ`: the `k`-th smallest upper bound so far (`+∞` until `k` are in).
    tau: f64,
    /// `√(τ + slack) + eps_q`, rounded up: how far from `q̂` an answer can
    /// be, before the row's own error.
    reach: f64,
    /// The limit of a row with error bound `max_err`: no row over it can
    /// be an answer.
    coarse: f64,
}

impl Pass {
    fn new(store: &QuantizedStore, qq: &QuantizedQuery) -> Self {
        let d = store.dim as f64;
        // `m_q + M` bounds every component of the query and of every row
        // with a finite bound, and the terms of both expansions, so `W`
        // caps their squared norms and cross sums — and when `W` is
        // finite, none of them overflows.
        let m = qq.offset.abs() + 256.0 * qq.scale + store.magnitude;
        let w = 2.0 * d * m * m;
        let factor = error_factor(store.dim);
        Self {
            eps_q: qq.error_bound(),
            // Per unit of `W`: the norm trick's three dot chains of `d`
            // products and two more roundings (`γ_{d+2}/2`), and the
            // expansion's products of at most three factors summed in at
            // most five roundings (`γ₈/2`), both under `(d + 11)·2⁻⁵²`.
            // Underflow adds up to 2⁻¹⁰⁷⁵ a rounding, amplified at most
            // 2¹⁸·d-fold by the integer factors: the `d·2⁻¹⁰²²` floor.
            slack: (d + 11.0) * pow2(-52) * w + d * f64::MIN_POSITIVE,
            factor,
            max_err: store.max_scale * factor,
            tau: f64::INFINITY,
            reach: f64::INFINITY,
            coarse: f64::INFINITY,
        }
    }

    /// Sets `τ` and the limits that follow from it.
    fn lower_tau(&mut self, tau: f64) {
        self.tau = tau;
        self.reach = (tau + self.slack).sqrt() * RHO + self.eps_q;
        self.coarse = self.limit_at(self.max_err);
    }

    /// The largest `a` a row with error bound `err` can have and still
    /// be an answer.
    fn limit_at(&self, err: f64) -> f64 {
        let r = self.reach + err;
        r * r * RHO + self.slack
    }

    /// [`Self::limit_at`] for a row of scale `scale`.
    fn limit(&self, scale: f64) -> f64 {
        self.limit_at(scale * self.factor)
    }

    /// Offers rows `first..first + approx.len()`, of approximate
    /// distances `approx` and scales `scales`: each one under its limit
    /// is kept, and its upper bound may lower `τ`.
    fn offer(
        &mut self,
        first: usize,
        approx: &[f64],
        scales: &[f64],
        upper: &mut NeighborHeap,
        kept: &mut Vec<(usize, f64)>,
    ) {
        for (j, (&a, &scale)) in (first..).zip(approx.iter().zip(scales)) {
            let err = scale * self.factor;
            if a <= self.limit_at(err) {
                kept.push((j, a));
                // An upper bound on the f64 scan's `d2` for this row.
                let r = (a + self.slack).sqrt() + self.eps_q + err;
                upper.push(j, (r * r + self.slack) * RHO);
                if let Some(worst) = upper.threshold() {
                    if worst.dist < self.tau {
                        self.lower_tau(worst.dist);
                    }
                }
            }
        }
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
            let bound = qs.offset_scale(i).1 * 0.5000001 + 1e-12;
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
        assert_eq!([0, 1].map(|i| qs.offset_scale(i).1), [0.0, 0.0]);
    }

    #[test]
    fn rows_without_a_finite_bound_get_an_infinite_one() {
        let tiny = f64::MIN_POSITIVE;
        let rows = [
            vec![1.0, f64::NAN, 0.0],
            vec![f64::INFINITY, 0.0, 1.0],
            vec![f64::MAX, -f64::MAX, 0.0],
            vec![tiny, 2.0 * tiny, 0.0],
            vec![0.25, 0.5, 1.0],
        ];
        let s = EmbeddingStore::from_embeddings(3, &rows);
        let qs = s.codes();
        for i in 0..4 {
            assert_eq!(qs.offset_scale(i), (0.0, f64::INFINITY), "row {i}");
            assert_eq!(qs.codes(i), [0, 0, 0]);
            assert_eq!(qs.row_error_bound(i), f64::INFINITY);
        }
        assert!(qs.row_error_bound(4).is_finite());
        // Neither the bound's magnitude nor any statistic is poisoned.
        assert_eq!(qs.magnitude, 0.25 + 256.0 * qs.offset_scale(4).1);
        assert!((qs.blocks.blocks()).all(|b| b.column(DQ_NORM).iter().all(|v| v.is_finite())));
        assert_eq!(qs, &qs.clone());
    }

    #[test]
    fn quantize_query_matches_row_quantization() {
        let s = store(5, 8);
        let qs = QuantizedStore::from_store(&s);
        let qq = qs.quantize_query(s.get(2));
        assert_eq!(qq.codes, qs.codes(2));
        assert_eq!((qq.offset, qq.scale), qs.offset_scale(2));
        assert_eq!(qq.dq_norm, qs.blocks.block(2).column(DQ_NORM)[2]);
        assert_eq!(qq.error_bound(), qs.row_error_bound(2));
    }
}
