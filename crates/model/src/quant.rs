//! Int8 scalar quantization of the embedding store: the per-row codes and
//! error bound every exact top-k prunes with (`DESIGN.md` §12).
//!
//! # Why
//!
//! At large `N` a scan is *memory-bound*: every row streams `8·d + 8`
//! bytes of f64 row and norm. Every [`EmbeddingStore`] therefore keeps a
//! [`QuantizedStore`] of its rows beside them — per-row scale+offset
//! codes, `d` bytes each plus four f64 row columns, 64 B a row at
//! `d = 32` against 264 — quantized as each row is pushed. Every exact
//! top-k ([`EmbeddingStore::knn_batch`]) reads it: one pass over the
//! codes per batch gives every row an approximate distance to each
//! query, and from it a lower and an upper bound on the distance the f64
//! score would compute. The running `k`-th smallest upper bound is a
//! threshold no answer can exceed; only rows whose lower bound is at or
//! under it — a few tenths of a percent on trained embeddings — are
//! scored in f64 into a [`NeighborHeap`] (`EmbeddingStore::knn_batch`).
//! The bounds are proven, not tuned (`DESIGN.md` §12),
//! so the answers are those of scoring every row, bit for bit. The codes
//! are derived state: nothing persists them, and a store rebuilds them
//! as it loads its rows. They live in shared chunks of 512 rows — eight
//! of the store's row chunks — each holding its rows' codes in the
//! kernel's tiles of sixteen rows and, inline, their four columns; the
//! scan makes one [`quant_scan_block`] call per chunk and query, and a
//! snapshot successor shares every full chunk.
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
use neutraj_nn::simd::{
    quant_code_at, quant_query_words, quant_scan_block, quant_tile_bytes, QuantLimit,
    QuantQueryTerms, QuantRows, QUANT_TILE_ROWS,
};
use neutraj_obs::simd::SimdLevel;
use std::ops::Range;

/// Maximum supported embedding dimensionality — the bound under which
/// the int8 pass's i32 accumulators cannot overflow (see
/// [`quant_scan_block`]).
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
    /// Dispatch level of the int8 pass, captured from
    /// [`neutraj_obs::simd::level`] at construction.
    level: SimdLevel,
}

/// One chunk of a [`QuantizedStore`]: up to [`CODE_CHUNK`] rows' codes, and
/// the four per-row columns [`quant_scan_block`] reads held inline, one
/// after another, so a chunk is two streams for the scan, not five.
#[derive(Debug, Clone, PartialEq)]
struct CodeBlock {
    /// The codes in [`quant_scan_block`]'s layout
    /// ([`quant_code_at`]): tiles of sixteen rows, the last padded with
    /// zero codes.
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
    /// `codes` as [`quant_scan_block`] takes them.
    words: Vec<u32>,
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
            codes: Vec::with_capacity(CODE_CHUNK / QUANT_TILE_ROWS * quant_tile_bytes(dim)),
            rows: 0,
            columns: [[0.0; CODE_CHUNK]; 4],
        });
        let mut codes = Vec::with_capacity(dim);
        let (off, scale) = quantize_row(row, &mut codes);
        let i = block.rows;
        if i.is_multiple_of(QUANT_TILE_ROWS) {
            let tile = block.codes.len() + quant_tile_bytes(dim);
            block.codes.resize(tile, 0);
        }
        for (p, &c) in codes.iter().enumerate() {
            block.codes[quant_code_at(dim, i, p)] = c;
        }
        let (sum, dq_norm) = code_stats(&codes, off, scale);
        for (c, v) in [
            (OFFSET, off),
            (SCALE, scale),
            (CODE_SUM, sum),
            (DQ_NORM, dq_norm),
        ] {
            block.columns[c][i] = v;
        }
        block.rows += 1;
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

    /// The u8 codes of row `i`, gathered from its tile.
    pub fn codes(&self, i: usize) -> Vec<u8> {
        let codes = &self.blocks.block(i).codes;
        (0..self.dim)
            .map(|p| codes[quant_code_at(self.dim, i % CODE_CHUNK, p)])
            .collect()
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
            words: quant_query_words(&codes),
            codes,
            offset,
            scale,
            code_sum,
            dq_norm,
        }
    }

    /// Rows `range` of `block` as [`quant_scan_block`] reads them; the
    /// range starts on a tile and ends on one or at the block's end.
    fn quant_rows<'a>(&self, block: &'a CodeBlock, range: Range<usize>) -> QuantRows<'a> {
        let tile = quant_tile_bytes(self.dim);
        let codes =
            range.start / QUANT_TILE_ROWS * tile..range.end.div_ceil(QUANT_TILE_ROWS) * tile;
        let column = |c: usize| &block.columns[c][range.clone()];
        QuantRows {
            codes: &block.codes[codes],
            offset: column(OFFSET),
            scale: column(SCALE),
            code_sum: column(CODE_SUM),
            dq_norm: column(DQ_NORM),
        }
    }

    /// Bytes one row costs a scan through the codes: its code bytes
    /// (`dim` rounded up to a multiple of four) and the four f64 row
    /// columns [`quant_scan_block`] reads.
    pub(crate) fn row_bytes(&self) -> usize {
        quant_tile_bytes(self.dim) / QUANT_TILE_ROWS + 32
    }

    /// Per query of `queries`, the rows that can be among its `k`
    /// nearest under the `(d2, index)` order of the f64 score, ascending —
    /// a superset of that answer, usually a few tenths of a percent of
    /// the rows (`DESIGN.md` §12 derives the bounds used here).
    ///
    /// One pass over the codes gives each row its approximate distance
    /// `a` to each query. A row's *upper bound* caps the `d2` the f64
    /// score computes for it; the `k`-th smallest upper bound seen so far
    /// is a threshold `τ` that every answer's `d2` is at or under. A row
    /// is kept while its *lower bound* is `<= τ` — tested in squared
    /// space, as `a` against a limit that changes only when `τ` does —
    /// and the kept rows are filtered once more against the final `τ`.
    ///
    /// The codes are read once per batch: each chunk is scored for every
    /// query while it is in L1, one [`quant_scan_block`] call a query.
    /// Each query has its own [`Pass`] and sees the rows in ascending
    /// order, so its `τ` moves as it would alone.
    pub(crate) fn bounded_rows(&self, queries: &[&[f64]], k: usize) -> Vec<Vec<u32>> {
        let mut passes: Vec<Pass> = (queries.iter())
            .map(|q| Pass::new(self, self.quantize_query(q), k))
            .collect();
        let (mut approx, mut hits) = ([0.0; CODE_CHUNK], [0u64; CODE_CHUNK / 64]);
        for (c, block) in self.blocks.blocks().enumerate() {
            for pass in &mut passes {
                let mut from = 0;
                while from < block.rows() {
                    let to = (from + pass.span()).min(block.rows());
                    let rows = self.quant_rows(block, from..to);
                    let n = to - from;
                    let (approx, hits) = (&mut approx[..n], &mut hits[..n.div_ceil(64)]);
                    // The exact-integer u8 dots fused with the affine tail
                    // over the row columns — `‖q̂ − x̂‖²` of the module
                    // docs, clamped at 0 — and each row tested against its
                    // limit as `τ` stands; `offer` tests the hits again
                    // as `τ` falls.
                    let terms = pass.query.terms();
                    let (words, level) = (&pass.query.words, self.level);
                    quant_scan_block(level, words, &terms, &rows, &pass.limit, approx, hits);
                    pass.offer_hits(c * CODE_CHUNK + from, approx, rows.scale, hits);
                    from = to;
                }
            }
        }
        (passes.iter())
            .map(|pass| {
                (pass.kept.iter())
                    .filter(|&&(j, a)| a <= pass.limit.at(self.offset_scale(j).1))
                    .map(|&(j, _)| j as u32)
                    .collect()
            })
            .collect()
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

/// One query's pass over the codes: the constants of its two bounds
/// (`DESIGN.md` §12), the threshold so far, and the rows kept. With `a` a
/// row's computed approximate distance, `e` its error bound and `τ` the
/// threshold, the row can be an answer only if
/// `a <= (√(τ + slack) + eps_q + e)² + slack`, and the f64 score for it
/// is at most `(√(a + slack) + eps_q + e)² + slack`.
struct Pass {
    /// `‖q − q̂‖ <=` this.
    eps_q: f64,
    /// The first test as `τ` stands: `reach` is `√(τ + slack) + eps_q`
    /// rounded up, how far from `q̂` an answer can be before the row's own
    /// error; `factor` a row's error bound per unit of its scale. For
    /// every row with a finite bound, both `|a − ‖q̂ − x̂‖²|` and
    /// `|d2 − ‖q − x‖²|` are at most `slack`: the rounding of the
    /// approximate distance's expansion and of the f64 norm trick.
    limit: QuantLimit,
    /// `τ`: the `k`-th smallest upper bound so far (`+∞` until `k` are in).
    tau: f64,
    /// The query, quantized.
    query: QuantizedQuery,
    /// The `k` smallest upper bounds seen so far.
    upper: NeighborHeap,
    /// Rows whose lower bound passed when they were scanned, with `a`.
    kept: Vec<(usize, f64)>,
    /// Rows the next kernel call covers.
    span: usize,
}

impl Pass {
    /// Rows the next kernel call covers: one tile, then twice as many
    /// each call, up to a chunk. A call screens its rows against `τ` as
    /// it stands at the call, and `τ` falls fastest at the start (until
    /// `k` rows are in, every limit is `+∞`).
    fn span(&mut self) -> usize {
        let span = self.span;
        self.span = (2 * span).min(CODE_CHUNK);
        span
    }

    /// The pass of query `qq` for the `k` nearest, before any row.
    fn new(store: &QuantizedStore, qq: QuantizedQuery, k: usize) -> Self {
        let d = store.dim as f64;
        // `m_q + M` bounds every component of the query and of every row
        // with a finite bound, and the terms of both expansions, so `W`
        // caps their squared norms and cross sums — and when `W` is
        // finite, none of them overflows.
        let m = qq.offset.abs() + 256.0 * qq.scale + store.magnitude;
        let w = 2.0 * d * m * m;
        Self {
            eps_q: qq.error_bound(),
            limit: QuantLimit {
                reach: f64::INFINITY,
                factor: error_factor(store.dim),
                rho: RHO,
                // Per unit of `W`: the norm trick's three dot chains of
                // `d` products and two more roundings (`γ_{d+2}/2`), and
                // the expansion's products of at most three factors
                // summed in at most five roundings (`γ₈/2`), both under
                // `(d + 11)·2⁻⁵²`. Underflow adds up to 2⁻¹⁰⁷⁵ a
                // rounding, amplified at most 2¹⁸·d-fold by the integer
                // factors: the `d·2⁻¹⁰²²` floor.
                slack: (d + 11.0) * pow2(-52) * w + d * f64::MIN_POSITIVE,
            },
            tau: f64::INFINITY,
            query: qq,
            upper: NeighborHeap::new(k),
            kept: Vec::new(),
            span: QUANT_TILE_ROWS,
        }
    }

    /// Offers the rows of a block from row `start` whose hit bit is set,
    /// of approximate distances `approx` and scales `scales`. A row
    /// without one was over its limit as `τ` stood before the block, and
    /// `τ` only falls, so it could not be kept.
    fn offer_hits(&mut self, start: usize, approx: &[f64], scales: &[f64], hits: &[u64]) {
        for (w, &word) in hits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let r = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.offer(start + r, approx[r], scales[r]);
            }
        }
    }

    /// Sets `τ` and the limit that follows from it.
    fn lower_tau(&mut self, tau: f64) {
        self.tau = tau;
        self.limit.reach = (tau + self.limit.slack).sqrt() * RHO + self.eps_q;
    }

    /// Offers row `j`, of approximate distance `a` and scale `scale`:
    /// it is kept if it is under its limit, and its upper bound may lower
    /// `τ`.
    fn offer(&mut self, j: usize, a: f64, scale: f64) {
        if a <= self.limit.at(scale) {
            self.kept.push((j, a));
            // An upper bound on the f64 score for this row. One at or
            // over `τ` cannot lower it: before `k` are in, `τ` is `+∞`
            // with or without an infinite bound in the heap.
            let slack = self.limit.slack;
            let r = (a + slack).sqrt() + self.eps_q + scale * self.limit.factor;
            let upper = (r * r + slack) * RHO;
            if upper < self.tau {
                self.upper.push(j, upper);
                if let Some(worst) = self.upper.threshold() {
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
        assert!((qs.blocks.blocks()).all(|b| b.columns[DQ_NORM].iter().all(|v| v.is_finite())));
        assert_eq!(qs, &qs.clone());
    }

    #[test]
    fn quantize_query_matches_row_quantization() {
        let s = store(5, 8);
        let qs = QuantizedStore::from_store(&s);
        let qq = qs.quantize_query(s.get(2));
        assert_eq!(qq.codes, qs.codes(2));
        assert_eq!((qq.offset, qq.scale), qs.offset_scale(2));
        assert_eq!(qq.dq_norm, qs.blocks.block(2).columns[DQ_NORM][2]);
        assert_eq!(qq.error_bound(), qs.row_error_bound(2));
    }
}
