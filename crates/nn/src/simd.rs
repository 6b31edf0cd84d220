//! AVX2 and AVX-512 micro-kernels for the register-tiled GEMMs in
//! [`crate::linalg`] and the u8 integer dot product behind the int8 code
//! scan (`DESIGN.md` §12).
//!
//! Same policy as the measures DP kernels: every function takes an
//! explicit [`SimdLevel`] and carries a pure-Rust scalar arm that *is*
//! the oracle — the vector arms compute the same expression per output
//! element in the same order, so results are bit-identical:
//!
//! * the GEMM tiles keep one accumulator per output element, summed in
//!   ascending `p` with separate `mul`/`add` instructions (no FMA — the
//!   scalar oracle never contracts), vectorized only across the
//!   *independent* accumulator columns: `NR` of them per AVX2 tile, `2·NR`
//!   (two adjacent panels) per AVX-512 tile, the only kernel here with a
//!   512-bit arm;
//! * the small-`m` `A·Bᵀ` arm keeps the same one-accumulator,
//!   ascending-`p`, mul-then-add chain per output and vectorizes across
//!   four `B` rows (four independent outputs), transposing `B` in
//!   registers instead of packing it;
//! * the gathered-rows dot ([`dot_rows`]) is that arm with the four rows
//!   named by an id list instead of being adjacent — one `dot` chain per
//!   lane;
//! * the fused exact scan ([`scan_rows`]) is that arm again with the
//!   norm-trick distance and a top-k admission pre-filter applied to the
//!   accumulators while they are still in registers, so neither a packed
//!   copy of the corpus nor a score block is ever written;
//! * the two BPTT kernels — the ordered rank-`T` accumulate
//!   (`outer_acc_rev`) and the transposed-columns product
//!   (`matvec_t_cols`) — keep one accumulator per output in a register
//!   across the whole sum and add the terms in the order the per-step
//!   sweeps they replace did, vectorized across output columns;
//! * the u8 dot is exact integer arithmetic, where any summation order
//!   yields the same value.
//!
//! Levels are ordered: a kernel without an AVX-512 arm runs its AVX2 arm
//! at [`SimdLevel::Avx512`].

use neutraj_obs::simd::SimdLevel;

/// Rows per GEMM micro-tile (matches `linalg::MR`).
pub(crate) const MR: usize = 4;
/// Columns per GEMM micro-tile (matches `linalg::NR`).
pub(crate) const NR: usize = 8;

/// Whether the AVX2 arm may run: requested level (AVX2 or above) AND
/// host support (`is_x86_feature_detected!` caches, ~one relaxed load
/// per call).
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn use_avx2(level: SimdLevel) -> bool {
    level >= SimdLevel::Avx2 && std::arch::is_x86_feature_detected!("avx2")
}

/// Whether an AVX-512 arm may run: requested level AND host support for
/// both `avx512f` and `avx512dq` (the bitwise `pd` operations of the
/// activation lanes are DQ), as [`neutraj_obs::simd::detect`] requires.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn use_avx512(level: SimdLevel) -> bool {
    level >= SimdLevel::Avx512
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

/// One `MR`-row stripe of [`crate::linalg::matmul_nt`]'s product over
/// `B`'s packed panels: `panels` holds `n.div_ceil(NR)` `k`-major panels
/// of `NR` columns (`k·NR` each, padding lanes arbitrary), and `c` the
/// stripe's `c.len() / n ≤ MR` output rows, `n` wide, overwritten with
/// `c[r·n + j] = Σ_p arows[r][p] · b[j, p]`. Rows of `arows` past the
/// stripe's are computed and not stored.
///
/// Every panel runs [`gemm_tile_nt`], except at [`SimdLevel::Avx512`],
/// where each pair of adjacent panels runs one AVX-512 tile — the same
/// chain per output, eight lanes a vector — and an odd last panel takes
/// the AVX2 tile. The panel layout does not depend on the level.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn gemm_stripe_nt(
    level: SimdLevel,
    arows: [&[f64]; MR],
    panels: &[f64],
    c: &mut [f64],
    n: usize,
) {
    let k = arows[0].len();
    for row in &arows {
        assert_eq!(row.len(), k);
    }
    let ntiles = n.div_ceil(NR);
    assert_eq!(
        panels.len(),
        ntiles * k * NR,
        "gemm_stripe_nt: panels shape"
    );
    assert!(c.len() <= MR * n && c.len().is_multiple_of(n.max(1)));
    let mut jt = 0;
    #[cfg(target_arch = "x86_64")]
    if use_avx512(level) {
        while jt + 2 <= ntiles {
            let mut acc = [[0.0f64; 2 * NR]; MR];
            // SAFETY: AVX-512F presence just verified; every A row holds
            // `k` doubles and the two panels `2·k·NR` (checked above).
            unsafe { avx512::gemm_tile_nt(arows, &panels[jt * k * NR..][..2 * k * NR], &mut acc) };
            store_tile(&acc, c, n, jt * NR);
            jt += 2;
        }
    }
    while jt < ntiles {
        let mut acc = [[0.0f64; NR]; MR];
        gemm_tile_nt(level, arows, &panels[jt * k * NR..][..k * NR], &mut acc);
        store_tile(&acc, c, n, jt * NR);
        jt += 1;
    }
}

/// Copies the columns `j0..` of a tile that exist (`n` wide) into the
/// `c.len() / n` rows of `c`. A whole tile row is a fixed-size copy
/// (a few vector moves, where a copy of run-time length is a `memcpy`
/// call per row).
#[inline]
fn store_tile<const W: usize>(acc: &[[f64; W]; MR], c: &mut [f64], n: usize, j0: usize) {
    let nh = (n - j0).min(W);
    for (crow, accr) in c.chunks_exact_mut(n).zip(acc) {
        if nh == W {
            crow[j0..j0 + W].copy_from_slice(accr);
        } else {
            crow[j0..j0 + nh].copy_from_slice(&accr[..nh]);
        }
    }
}

/// The packed `MR×NR` register tile of [`gemm_stripe_nt`]: `arows` are
/// the `MR` A rows (`k` each), `panel` the `k`-major B panel (`k·NR`);
/// `acc[r][c] += Σ_p arows[r][p] · panel[p·NR+c]` in ascending `p`, one
/// accumulator per element.
#[inline]
#[allow(unsafe_code)]
fn gemm_tile_nt(level: SimdLevel, arows: [&[f64]; MR], panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    let k = arows[0].len();
    for row in &arows {
        assert_eq!(row.len(), k);
    }
    assert_eq!(panel.len(), k * NR);
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; lengths checked above.
        unsafe { avx2::gemm_tile_nt(arows, panel, acc) };
        return;
    }
    let _ = level;
    for (p, bv) in panel.chunks_exact(NR).enumerate() {
        // A fixed-size view gives the optimizer exact trip counts for the
        // MR×NR unrolled multiply-add block.
        let bv: &[f64; NR] = bv.try_into().expect("B panel chunk");
        for (accr, arow) in acc.iter_mut().zip(&arows) {
            let ar = arow[p];
            for cc in 0..NR {
                accr[cc] += ar * bv[cc];
            }
        }
    }
}

/// The full `MR×NR` tile of [`crate::linalg::matmul`] (`C = A·B`):
/// `arows` are the `MR` A rows (each of length `k`), `b` is the packed
/// row-major `k×n` B with the tile starting at column `j`.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn gemm_tile_nn(
    level: SimdLevel,
    arows: [&[f64]; MR],
    b: &[f64],
    n: usize,
    j: usize,
    acc: &mut [[f64; NR]; MR],
) {
    let k = arows[0].len();
    for row in &arows {
        assert_eq!(row.len(), k);
    }
    assert!(j + NR <= n);
    assert!(k * n <= b.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; bounds checked above.
        unsafe { avx2::gemm_tile_nn(arows, b, n, j, acc) };
        return;
    }
    let _ = level;
    for p in 0..k {
        let av = [arows[0][p], arows[1][p], arows[2][p], arows[3][p]];
        let brow = &b[p * n + j..p * n + j + NR];
        for (accr, &avr) in acc.iter_mut().zip(&av) {
            for (accc, &bvc) in accr.iter_mut().zip(brow) {
                *accc += avr * bvc;
            }
        }
    }
}

/// Most `A` rows the vector arm of [`matmul_nt_direct`] keeps in
/// registers at once (one accumulator per row beside the four
/// transposed `B` vectors); `linalg::PACK_MIN_M − 1`, so every call the
/// packed kernel declines lands on it.
pub(crate) const DIRECT_MAX_M: usize = 7;

/// [`crate::linalg::matmul_nt`] without panel packing, for small `m`:
/// `c[i·n + j] = Σ_p a[i·k + p] · b[j·k + p]`, one accumulator per
/// output starting at `+0.0` and summed in ascending `p` — the same
/// chain as the packed kernel, `Mat::matvec_into` and (up to the sign of
/// an all-`−0.0` sum) `dot`.
///
/// The scalar arm is that definition. The AVX2 arm runs the chain for
/// four `B` rows at a time, one per lane: it loads a 4×4 block of `B`
/// (rows `j..j+4`, columns `p..p+4`), transposes it in registers so lane
/// `l` of vector `q` holds `b[j+l, p+q]`, and for every `A` row issues
/// `acc[i] = acc[i] + a[i, p+q] · t[q]` for `q = 0..4` in order. Lanes
/// never mix, multiply and add stay separate instructions (the scalar
/// oracle never contracts), so every lane performs exactly the oracle's
/// operations on the oracle's operands: bit-identical, with no packed
/// copy of `B`. `k % 4` trailing columns take one gathered step each;
/// `n % 4` trailing rows run the scalar arm.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn matmul_nt_direct(
    level: SimdLevel,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) && (1..=DIRECT_MAX_M).contains(&m) {
        // SAFETY: AVX2 presence just verified; shapes checked above and
        // `m` is within the kernel's register budget.
        let done = unsafe { avx2::matmul_nt_direct(a, b, c, m, n, k) };
        nt_direct_columns(a, b, c, m, n, k, done);
        return;
    }
    let _ = level;
    nt_direct_columns(a, b, c, m, n, k, 0);
}

/// The scalar oracle of [`matmul_nt_direct`] over output columns
/// `j0..n`.
fn nt_direct_columns(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize, j0: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in j0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            c[i * n + j] = acc;
        }
    }
}

/// Where [`dot_rows`] finds the rows its ids name: one row-major matrix
/// (a `[f64]`, the SAM memory's rows) or rows spread over several (an
/// embedding store's chunks).
pub trait RowSource {
    /// Row `id`, `k` doubles. Panics when there is no such row.
    fn row(&self, id: u32, k: usize) -> &[f64];
}

impl RowSource for [f64] {
    #[inline]
    fn row(&self, id: u32, k: usize) -> &[f64] {
        let start = id as usize * k;
        assert!(start + k <= self.len(), "dot_rows: row id out of range");
        &self[start..start + k]
    }
}

/// `out[i] = dot(q, row ids[i])` over the `q.len()`-wide rows of `rows`
/// — the distances of one graph hop in one call (`DESIGN.md` §15).
///
/// The scalar arm is the definition: [`crate::linalg::dot`]'s fold, one
/// accumulator per output starting at `-0.0` and summed in ascending
/// `p`. The AVX2 arm runs that chain for four gathered rows at a time,
/// one per lane, transposing their 4×4 blocks in registers exactly as
/// `matmul_nt_direct` does for adjacent rows; a group short of four
/// ids repeats its last id (lanes never mix, the spare lanes are not
/// stored). Multiply and add stay separate instructions, so each lane
/// performs `dot`'s operations on `dot`'s operands: bit-identical,
/// signed zeros included. Ids may repeat. Panics when an id names a row
/// `rows` does not hold.
#[inline]
#[allow(unsafe_code)]
pub fn dot_rows<S: RowSource + ?Sized>(
    level: SimdLevel,
    q: &[f64],
    rows: &S,
    ids: &[u32],
    out: &mut [f64],
) {
    let k = q.len();
    assert_eq!(ids.len(), out.len(), "dot_rows: ids/out length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) && k > 0 {
        // SAFETY: AVX2 presence just verified and `out` is as long as
        // `ids`; the kernel takes each row through `gathered_row`, which
        // checks it holds `k` doubles.
        unsafe { avx2::dot_rows(q, rows, ids, out) };
        return;
    }
    let _ = level;
    for (o, &i) in out.iter_mut().zip(ids) {
        *o = crate::linalg::dot(q, gathered_row(rows, i, k));
    }
}

/// Row `id` of `rows`, checked to be `k` doubles wide.
#[inline]
fn gathered_row<S: RowSource + ?Sized>(rows: &S, id: u32, k: usize) -> &[f64] {
    let row = rows.row(id, k);
    assert_eq!(row.len(), k, "dot_rows: row width");
    row
}

/// The operands of [`scan_rows`]: `B` queries and `N` corpus rows of
/// `dim` doubles each, both row-major, with their squared norms.
#[derive(Debug, Clone, Copy)]
pub struct ScanInput<'a> {
    /// Doubles per query and per row.
    pub dim: usize,
    /// The `B × dim` queries.
    pub queries: &'a [f64],
    /// `‖q‖²` per query.
    pub qnorms: &'a [f64],
    /// The `N × dim` corpus rows.
    pub rows: &'a [f64],
    /// `‖x‖²` per row.
    pub row_norms: &'a [f64],
}

/// Most queries one [`scan_rows`] stripe holds: one accumulator each
/// beside the four transposed row vectors and a broadcast (13 `ymm`).
/// A batch narrower than this reads the corpus once per stripe it does
/// not fill, which is why the exact top-k answers such batches through
/// the int8 lower bound instead (`DESIGN.md` §6).
pub const SCAN_STRIPE: usize = 8;

/// Corpus rows per [`scan_rows`] chunk: about 16 KiB of them, so a chunk
/// read for the first stripe of queries is still in L1 for the last, and
/// a multiple of 16 so only the last chunk has a ragged tail.
fn scan_chunk_rows(dim: usize) -> usize {
    (16 * 1024 / (8 * dim.max(1)) / 16 * 16).max(16)
}

/// The norm-trick squared distance `‖q − x‖² = ‖q‖² − 2·q·x + ‖x‖²` from
/// the dot `s = q·x`, clamped at zero (it goes epsilon-negative for
/// near-identical rows; `max` also maps a NaN score to `0.0`).
#[inline]
fn norm_trick_sq(qn: f64, s: f64, xn: f64) -> f64 {
    (qn - 2.0 * s + xn).max(0.0)
}

/// The `d2` [`scan_rows`] hands `admit` for query `q` (squared norm `qn`)
/// and row `x` (squared norm `xn`): the dot from `+0.0` in ascending
/// `p`, then `max(qn − 2·dot + xn, 0)`. Both arms of the scan produce exactly
/// these bits, so a caller that scores a few rows on its own through
/// this function agrees with the scan bit for bit.
#[inline]
pub fn scan_score(q: &[f64], qn: f64, x: &[f64], xn: f64) -> f64 {
    let mut s = 0.0;
    for (&a, &b) in q.iter().zip(x) {
        s += a * b;
    }
    norm_trick_sq(qn, s, xn)
}

/// The exact scan, fused: for every query `qi` and row `j`, the dot
/// `s = Σ_p q[p]·x[p]` (one accumulator starting at `+0.0`, ascending
/// `p`, multiply and add separate — [`crate::linalg::matmul_nt`]'s
/// chain), then `d2 = max(‖q‖² − 2·s + ‖x‖², 0)`, then
/// `thresholds[qi] = admit(qi, j, d2)` **if** `d2 <= thresholds[qi]`.
/// A top-k caller starts every threshold at `+∞` and returns its heap's
/// worst kept distance once the heap is full; a range caller returns its
/// radius unchanged. A NaN threshold admits nothing.
///
/// The threshold test is a *pre-filter*, not the decision: `admit` is
/// called for every pair at or below the query's threshold as of that
/// row — and, from the AVX2 arm, for a few above it, because a group of
/// up to sixteen adjacent rows is tested against the thresholds as they
/// stood when the group began. A threshold only ever falls, so a stale
/// one only admits more; `admit` must decide for itself (a heap's own
/// `(dist, index)` order, an exact radius test). Per query, rows arrive
/// in ascending order.
///
/// Rows are walked in L1-sized chunks and every stripe of up to eight
/// queries runs over a chunk before the next chunk is touched, so the
/// corpus is read once however many queries there are. The scalar arm is
/// the definition above. The AVX2 arm runs `matmul_nt_direct`'s
/// transposing chain — four adjacent rows per vector, one lane each, no
/// packed copy — and applies the same `d2` and `<=` lane-wise to the
/// accumulators in registers; they are spilled only when some lane
/// passes, and a passing lane's `d2` is recomputed by the scalar
/// expression, so both arms hand `admit` the same bits.
/// (`_mm256_max_pd(x, 0)` returns `0` for a NaN `x`, as `f64::max` does,
/// so the filter never drops a lane the scalar arm keeps.) The first
/// stripe over a chunk also prefetches the next chunk. A chunk's last
/// `rows % 4` rows take the scalar arm.
#[inline]
#[allow(unsafe_code)]
pub fn scan_rows<F: FnMut(usize, usize, f64) -> f64>(
    level: SimdLevel,
    input: &ScanInput<'_>,
    thresholds: &mut [f64],
    mut admit: F,
) {
    let (k, b, n) = (input.dim, input.qnorms.len(), input.row_norms.len());
    assert_eq!(input.queries.len(), b * k, "scan_rows: queries shape");
    assert_eq!(input.rows.len(), n * k, "scan_rows: rows shape");
    assert_eq!(thresholds.len(), b, "scan_rows: one threshold per query");
    #[cfg(target_arch = "x86_64")]
    let wide = use_avx2(level);
    let _ = level;
    let chunk = scan_chunk_rows(k);
    let mut c0 = 0;
    while c0 < n {
        let c1 = (c0 + chunk).min(n);
        let mut q0 = 0;
        while q0 < b {
            let m = (b - q0).min(SCAN_STRIPE);
            #[allow(unused_mut)]
            let mut j = c0;
            #[cfg(target_arch = "x86_64")]
            if wide {
                // SAFETY: AVX2 presence just verified; shapes checked
                // above, `q0 + m <= b`, `c0 <= c1 <= n` and `m` is within
                // the kernel's register budget.
                j = unsafe { avx2::scan_stripe(input, q0, m, c0, c1, thresholds, &mut admit) };
            }
            scan_rows_scalar(input, q0..q0 + m, j..c1, thresholds, &mut admit);
            q0 += m;
        }
        c0 = c1;
    }
}

/// The scalar oracle of [`scan_rows`] over one block of queries and rows.
fn scan_rows_scalar<F: FnMut(usize, usize, f64) -> f64>(
    input: &ScanInput<'_>,
    queries: std::ops::Range<usize>,
    rows: std::ops::Range<usize>,
    thresholds: &mut [f64],
    admit: &mut F,
) {
    let k = input.dim;
    for qi in queries {
        let q = &input.queries[qi * k..(qi + 1) * k];
        let qn = input.qnorms[qi];
        for j in rows.clone() {
            let d2 = scan_score(q, qn, &input.rows[j * k..(j + 1) * k], input.row_norms[j]);
            if d2 <= thresholds[qi] {
                thresholds[qi] = admit(qi, j, d2);
            }
        }
    }
}

/// `c += Σ_t u_t ⊗ v_t` over the `steps` rows of `u` (`steps × m`) and
/// `v` (`steps × n`), **last row first**: `c` is `m × n` row-major and
/// every element is one chain `c[r,j] ← c[r,j] + u[t,r]·v[t,j]` for
/// `t = steps−1, …, 0`, multiply and add separate — the additions a BPTT
/// sweep makes when it applies one rank-1 update per step, walking the
/// sequence backwards.
///
/// The scalar arm is that loop of rank-1 updates. The AVX2 arm holds a
/// 4 × 8 tile of `c` in registers across all `steps` terms (`c` is read
/// and written once per call instead of once per step), vectorized across
/// the eight independent columns; a ragged last column tile is the
/// 8-wide tile ending at column `n`, of which only the new lanes are
/// stored. Lanes never mix, so both arms perform the same operations on
/// the same operands: bit-identical.
///
/// **Zero rule:** every term is added, a `u[t,r] == 0` one too
/// ([`crate::linalg::Mat::outer_acc`] skips those). `0·v = ±0` leaves any
/// accumulator other than `−0.0` unchanged, and a sum that starts at
/// `+0.0` never becomes `−0.0`, so on gradient buffers (zeroed, finite
/// `v`) the two rules agree bit for bit; they differ only in turning a
/// `−0.0` already in `c` into `+0.0`.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn outer_acc_rev(
    level: SimdLevel,
    c: &mut [f64],
    m: usize,
    n: usize,
    u: &[f64],
    v: &[f64],
    steps: usize,
) {
    assert_eq!(c.len(), m * n, "outer_acc_rev: C shape");
    assert_eq!(u.len(), steps * m, "outer_acc_rev: U shape");
    assert_eq!(v.len(), steps * n, "outer_acc_rev: V shape");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) && n >= 8 {
        // SAFETY: AVX2 presence just verified; shapes checked above and
        // `n` holds at least one whole 8-wide tile.
        unsafe { avx2::outer_acc_rev(c, m, n, u, v, steps) };
        return;
    }
    let _ = level;
    for t in (0..steps).rev() {
        let vt = &v[t * n..(t + 1) * n];
        for (row, &ur) in c.chunks_exact_mut(n.max(1)).zip(&u[t * m..(t + 1) * m]) {
            for (a, &b) in row.iter_mut().zip(vt) {
                *a += ur * b;
            }
        }
    }
}

/// `y[j] = Σ_r x[r]·a[r, col0 + j]` for the `y.len()` columns of the
/// row-major `rows × cols` matrix `a` starting at `col0`: one accumulator
/// per output starting at `+0.0`, summed in ascending `r`, multiply and
/// add separate — the column slice `col0..col0 + y.len()` of
/// [`crate::linalg::Mat::matvec_t_into`] into a zeroed buffer, without
/// touching the other columns. BPTT needs only the hidden-state columns
/// of `Pᵀ·da`, not the input and bias ones.
///
/// The scalar arm is the row sweep over that slice. The AVX2 arm keeps up
/// to 32 outputs in registers across all rows (`y` is written once),
/// vectorized across columns. Same operations, same operands per output:
/// bit-identical. Zero rule as in [`outer_acc_rev`]: `x[r] == 0` terms
/// are added, which `matvec_t_into`'s skip matches bit for bit on a
/// zeroed `y` and finite `a`.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn matvec_t_cols(
    level: SimdLevel,
    a: &[f64],
    cols: usize,
    x: &[f64],
    col0: usize,
    y: &mut [f64],
) {
    assert_eq!(a.len(), x.len() * cols, "matvec_t_cols: A shape");
    assert!(col0 + y.len() <= cols, "matvec_t_cols: column range");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; shapes checked above.
        unsafe { avx2::matvec_t_cols(a, cols, x, col0, y) };
        return;
    }
    let _ = level;
    matvec_t_cols_from(a, cols, x, col0, y, 0);
}

/// The scalar oracle of [`matvec_t_cols`] over outputs `j0..`.
fn matvec_t_cols_from(a: &[f64], cols: usize, x: &[f64], col0: usize, y: &mut [f64], j0: usize) {
    let y = &mut y[j0..];
    y.fill(0.0);
    for (r, &xr) in x.iter().enumerate() {
        let row = &a[r * cols + col0 + j0..][..y.len()];
        for (yc, &av) in y.iter_mut().zip(row) {
            *yc += xr * av;
        }
    }
}

/// Exact `Σ a[i]·b[i]` over u8 codes, as u64. Integer arithmetic is
/// associative, so the wide path is bit-identical by construction; the
/// `i32` pair accumulators of the AVX2 arm cannot overflow because the
/// length is capped (`32768 · 255² < 2³¹`).
#[inline]
#[allow(unsafe_code)]
pub fn dot_u8(level: SimdLevel, a: &[u8], b: &[u8]) -> u64 {
    assert_eq!(a.len(), b.len());
    assert!(a.len() <= 32768, "dot_u8: dimension cap");
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; lengths checked above.
        return unsafe { avx2::dot_u8(a, b) };
    }
    let _ = level;
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u64::from(x) * u64::from(y))
        .sum()
}

/// Per-query constants of the quantized-scan score (`DESIGN.md` §12):
/// with query offset/scale `qo`/`qs`, `dqo = d·qo`, `qsum = Σ` query
/// codes and `qn = ‖q̂‖²`, a row with offset `xo`, scale `xs`, code sum
/// `sx`, dequantized norm `dn` and integer dot `D` scores
/// `max(0, qn − 2·(dqo·xo + qo·xs·sx + xo·qs·qsum + qs·xs·D) + dn)`.
#[derive(Debug, Clone, Copy)]
pub struct QuantQueryTerms {
    /// Row dimensionality times the query offset.
    pub dqo: f64,
    /// Query dequantization offset.
    pub qo: f64,
    /// Query dequantization scale.
    pub qs: f64,
    /// Sum of the query's u8 codes.
    pub qsum: f64,
    /// Squared norm of the dequantized query.
    pub qn: f64,
}

/// The affine tail of the quantized score, shared verbatim by the
/// scalar arm and the AVX2 arm's row tail so every path rounds
/// identically (the vector arm mirrors this exact operand order,
/// lane-wise, with separate mul/add — no FMA, no reassociation).
#[inline]
fn quant_score(t: &QuantQueryTerms, xo: f64, xs: f64, sx: f64, dn: f64, d: f64) -> f64 {
    let cross = t.dqo * xo + t.qo * xs * sx + xo * t.qs * t.qsum + t.qs * xs * d;
    (t.qn - 2.0 * cross + dn).max(0.0)
}

/// Scores every `q.len()`-sized row of a contiguous u8 code block
/// against one quantized query: `out[j]` is the approximate squared
/// distance of row `j` (see [`QuantQueryTerms`]). `xo`/`xs`/`sx`/`dn`
/// are the per-row offset, scale, code-sum and dequantized-norm
/// columns.
///
/// One dispatched call scores the whole block: the AVX2 arm fuses the
/// integer dots (four rows per step, query chunk loaded once,
/// accumulators folded with an in-register `hadd` transpose) with a
/// 4-lane affine tail — no per-row dispatch, call, or stack spill.
/// This is what makes the quantized exhaustive scan beat the f64 GEMM
/// scan per core (`DESIGN.md` §12). Bit-identical to the scalar arm:
/// the dots are exact integers either way, and the f64 tail performs
/// the same operations in the same order lane-wise.
#[inline]
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
pub fn quant_scan_block(
    level: SimdLevel,
    q: &[u8],
    codes: &[u8],
    xo: &[f64],
    xs: &[f64],
    sx: &[f64],
    dn: &[f64],
    t: &QuantQueryTerms,
    out: &mut [f64],
) {
    let d = q.len();
    let rows = out.len();
    assert!(d <= 32768, "quant_scan_block: dimension cap");
    assert_eq!(codes.len(), d * rows, "codes/out shape mismatch");
    assert!(
        xo.len() == rows && xs.len() == rows && sx.len() == rows && dn.len() == rows,
        "row-statistic column length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; shapes checked above.
        unsafe { avx2::quant_scan_block(q, codes, xo, xs, sx, dn, t, out) };
        return;
    }
    let _ = level;
    for (j, o) in out.iter_mut().enumerate() {
        let dot: u64 = q
            .iter()
            .zip(&codes[j * d..(j + 1) * d])
            .map(|(&x, &y)| u64::from(x) * u64::from(y))
            .sum();
        *o = quant_score(t, xo[j], xs[j], sx[j], dn[j], dot as f64);
    }
}

/// The `unsafe` lives only here: `#[target_feature(enable = "avx2")]`
/// kernels called exclusively through the safe dispatchers above after
/// bounds checks, and only when runtime detection reported AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{RowSource, ScanInput, MR, NR};
    use core::arch::x86_64::*;

    /// # Safety
    /// AVX2 must be available; every row of `arows` must hold `k`
    /// doubles and `panel` `k·NR`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_tile_nt(
        arows: [&[f64]; MR],
        panel: &[f64],
        acc: &mut [[f64; NR]; MR],
    ) {
        let k = arows[0].len();
        // Eight ymm accumulators: rows r=0..4 × column halves h=0..2.
        let mut vacc = [[_mm256_setzero_pd(); 2]; MR];
        for (r, row) in acc.iter().enumerate() {
            vacc[r] = [
                _mm256_loadu_pd(row.as_ptr()),
                _mm256_loadu_pd(row.as_ptr().add(4)),
            ];
        }
        let bpp = panel.as_ptr();
        for p in 0..k {
            let b0 = _mm256_loadu_pd(bpp.add(p * NR));
            let b1 = _mm256_loadu_pd(bpp.add(p * NR + 4));
            for (r, vr) in vacc.iter_mut().enumerate() {
                let ar = _mm256_set1_pd(*arows[r].get_unchecked(p));
                // Separate mul+add: the scalar oracle does not contract.
                vr[0] = _mm256_add_pd(vr[0], _mm256_mul_pd(ar, b0));
                vr[1] = _mm256_add_pd(vr[1], _mm256_mul_pd(ar, b1));
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            _mm256_storeu_pd(row.as_mut_ptr(), vacc[r][0]);
            _mm256_storeu_pd(row.as_mut_ptr().add(4), vacc[r][1]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_tile_nn(
        arows: [&[f64]; MR],
        b: &[f64],
        n: usize,
        j: usize,
        acc: &mut [[f64; NR]; MR],
    ) {
        let k = arows[0].len();
        let mut vacc = [[_mm256_setzero_pd(); 2]; MR];
        for (r, row) in acc.iter().enumerate() {
            vacc[r] = [
                _mm256_loadu_pd(row.as_ptr()),
                _mm256_loadu_pd(row.as_ptr().add(4)),
            ];
        }
        let bp = b.as_ptr();
        for p in 0..k {
            let b0 = _mm256_loadu_pd(bp.add(p * n + j));
            let b1 = _mm256_loadu_pd(bp.add(p * n + j + 4));
            for (r, vr) in vacc.iter_mut().enumerate() {
                let ar = _mm256_set1_pd(*arows[r].get_unchecked(p));
                vr[0] = _mm256_add_pd(vr[0], _mm256_mul_pd(ar, b0));
                vr[1] = _mm256_add_pd(vr[1], _mm256_mul_pd(ar, b1));
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            _mm256_storeu_pd(row.as_mut_ptr(), vacc[r][0]);
            _mm256_storeu_pd(row.as_mut_ptr().add(4), vacc[r][1]);
        }
    }

    /// Transposes the 4×4 block whose row `l` is the four doubles at
    /// `rows[l]`: lane `l` of result `q` is `rows[l][q]`.
    ///
    /// # Safety
    /// AVX2 must be available and every pointer readable for four
    /// doubles.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose4(rows: [*const f64; 4]) -> [__m256d; 4] {
        let r0 = _mm256_loadu_pd(rows[0]);
        let r1 = _mm256_loadu_pd(rows[1]);
        let r2 = _mm256_loadu_pd(rows[2]);
        let r3 = _mm256_loadu_pd(rows[3]);
        let u0 = _mm256_unpacklo_pd(r0, r1);
        let u1 = _mm256_unpackhi_pd(r0, r1);
        let u2 = _mm256_unpacklo_pd(r2, r3);
        let u3 = _mm256_unpackhi_pd(r2, r3);
        [
            _mm256_permute2f128_pd(u0, u2, 0x20),
            _mm256_permute2f128_pd(u1, u3, 0x20),
            _mm256_permute2f128_pd(u0, u2, 0x31),
            _mm256_permute2f128_pd(u1, u3, 0x31),
        ]
    }

    /// Lane `l` is the single double at `rows[l]` — the `k % 4` tail
    /// step of the transposing kernels.
    ///
    /// # Safety
    /// AVX2 must be available and every pointer readable for one double.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather4(rows: [*const f64; 4]) -> __m256d {
        _mm256_set_pd(*rows[3], *rows[2], *rows[1], *rows[0])
    }

    /// The dot chains of `$m` rows of `A` (at `$a`) against `$g` groups
    /// of four adjacent `B` rows (at `$b`, `$k` doubles each) from row
    /// `$j0`, as a `[[__m256d; $m]; $g]`: lane `l` of `[g][i]` is
    /// `Σ_p a[i, p] · b[$j0 + 4·g + l, p]`. `$m·$g` accumulators (callers
    /// keep `$m·$g ≤ 8` so they stay in registers); more than one group
    /// gives a short `$m` enough independent add chains to cover the add
    /// latency. A macro because the accumulators must not leave their
    /// registers between the chain and what a caller does with them, and
    /// `#[target_feature]` functions cannot be `#[inline(always)]`.
    ///
    /// Expands to `unsafe` operations: AVX2 must be available, `$a` must
    /// be readable for `$m·$k` doubles and `$b` for `($j0 + 4·$g)·$k`.
    macro_rules! nt_chains {
        ($m:ident, $g:ident, $a:expr, $b:expr, $k:expr, $j0:expr) => {{
            let (a, b, k, j0): (*const f64, *const f64, usize, usize) = ($a, $b, $k, $j0);
            let mut acc = [[_mm256_setzero_pd(); $m]; $g];
            let mut p = 0;
            while p + 4 <= k {
                for (g, rows) in acc.iter_mut().enumerate() {
                    let j = j0 + 4 * g;
                    let t = transpose4(std::array::from_fn(|l| b.add((j + l) * k + p)));
                    for (i, sum) in rows.iter_mut().enumerate() {
                        for (q, &tq) in t.iter().enumerate() {
                            let av = _mm256_set1_pd(*a.add(i * k + p + q));
                            // Separate mul+add: the scalar oracle does not contract.
                            *sum = _mm256_add_pd(*sum, _mm256_mul_pd(av, tq));
                        }
                    }
                }
                p += 4;
            }
            while p < k {
                for (g, rows) in acc.iter_mut().enumerate() {
                    let j = j0 + 4 * g;
                    let t = gather4(std::array::from_fn(|l| b.add((j + l) * k + p)));
                    for (i, sum) in rows.iter_mut().enumerate() {
                        let av = _mm256_set1_pd(*a.add(i * k + p));
                        *sum = _mm256_add_pd(*sum, _mm256_mul_pd(av, t));
                    }
                }
                p += 1;
            }
            acc
        }};
    }

    /// Outputs `c[i·n + j0 + 4·g + l]` for `i < M`, `g < G`, `l < 4`.
    ///
    /// # Safety
    /// AVX2 must be available; `a` must be readable for `M·k` doubles,
    /// `b` for `n·k`, `c` writable for `M·n`, and `j0 + 4·G <= n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn nt_direct_groups<const M: usize, const G: usize>(
        a: *const f64,
        b: *const f64,
        c: *mut f64,
        n: usize,
        k: usize,
        j0: usize,
    ) {
        for (g, rows) in nt_chains!(M, G, a, b, k, j0).iter().enumerate() {
            for (i, &sum) in rows.iter().enumerate() {
                _mm256_storeu_pd(c.add(i * n + j0 + 4 * g), sum);
            }
        }
    }

    /// All whole groups of four `B` rows for exactly `M` rows of `A`,
    /// `G` groups per pass while that many remain.
    ///
    /// # Safety
    /// AVX2 must be available; `a` must be readable for `M·k` doubles,
    /// `b` for `n·k`, and `c` writable for `M·n`.
    #[target_feature(enable = "avx2")]
    unsafe fn nt_direct_rows<const M: usize, const G: usize>(
        a: *const f64,
        b: *const f64,
        c: *mut f64,
        n: usize,
        k: usize,
    ) {
        let mut j = 0;
        while j + 4 * G <= n {
            nt_direct_groups::<M, G>(a, b, c, n, k, j);
            j += 4 * G;
        }
        while j + 4 <= n {
            nt_direct_groups::<M, 1>(a, b, c, n, k, j);
            j += 4;
        }
    }

    /// Writes output columns `0..n − n % 4` and returns that count; the
    /// caller finishes the rest with the scalar arm.
    ///
    /// # Safety
    /// AVX2 must be available, `m` in `1..=7`, and the slices shaped
    /// `m×k`, `n×k`, `m×n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_nt_direct(
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        m: usize,
        n: usize,
        k: usize,
    ) -> usize {
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        match m {
            1 => nt_direct_rows::<1, 4>(a, b, c, n, k),
            2 => nt_direct_rows::<2, 2>(a, b, c, n, k),
            3 => nt_direct_rows::<3, 2>(a, b, c, n, k),
            4 => nt_direct_rows::<4, 2>(a, b, c, n, k),
            5 => nt_direct_rows::<5, 1>(a, b, c, n, k),
            6 => nt_direct_rows::<6, 1>(a, b, c, n, k),
            7 => nt_direct_rows::<7, 1>(a, b, c, n, k),
            _ => unreachable!("dispatcher admits m in 1..=7"),
        }
        n - n % 4
    }

    /// [`super::scan_rows`] for queries `q0..q0 + M` against rows
    /// `j0..j0 + 4·G`: the chains of `nt_chains!`, then the distance and
    /// the threshold test on the accumulators, lane-wise in
    /// [`super::norm_trick_sq`]'s operand order — all `4·M·G` lanes
    /// against the thresholds as they stood on entry, into one bit each.
    /// Almost always no bit is set and nothing leaves the registers;
    /// otherwise [`admit_hits`] hands the lanes that passed to `admit`.
    ///
    /// # Safety
    /// AVX2 must be available; `input` must hold the shapes
    /// [`super::scan_rows`] checks, with `q0 + M` queries,
    /// `j0 + 4·G` rows and one threshold per query; `M·G <= 8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_groups<const M: usize, const G: usize, F: FnMut(usize, usize, f64) -> f64>(
        input: &ScanInput<'_>,
        q0: usize,
        j0: usize,
        thresholds: &mut [f64],
        admit: &mut F,
    ) {
        let k = input.dim;
        let a = input.queries.as_ptr().add(q0 * k);
        if q0 == 0 {
            // The first stripe over a chunk is the one that waits for its
            // rows; ask for the same rows of the next chunk now, so they
            // arrive under this chunk's arithmetic. A prefetch past the
            // end of the corpus does nothing, hence the wrapping offsets.
            let next = (j0 + super::scan_chunk_rows(k)) * k;
            let ahead = input.rows.as_ptr().wrapping_add(next).cast::<i8>();
            for line in (0..4 * G * k * 8).step_by(64) {
                _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(line));
            }
        }
        let acc = nt_chains!(M, G, a, input.rows.as_ptr(), k, j0);
        let qnorms: &[f64; M] = input.qnorms[q0..q0 + M].try_into().expect("M norms");
        let limits: &[f64; M] = thresholds[q0..q0 + M].try_into().expect("M thresholds");
        let (two, zero) = (_mm256_set1_pd(2.0), _mm256_setzero_pd());
        let mut hits = 0u32;
        for (g, sums) in acc.iter().enumerate() {
            let xn = _mm256_loadu_pd(input.row_norms[j0 + 4 * g..][..4].as_ptr());
            for (i, &s) in sums.iter().enumerate() {
                let qn = _mm256_set1_pd(qnorms[i]);
                let score = _mm256_add_pd(_mm256_sub_pd(qn, _mm256_mul_pd(two, s)), xn);
                // A NaN score becomes 0 here as in `f64::max`: the second
                // operand is returned when either is NaN.
                let d2 = _mm256_max_pd(score, zero);
                let pass = _mm256_cmp_pd::<_CMP_LE_OQ>(d2, _mm256_set1_pd(limits[i]));
                hits |= (_mm256_movemask_pd(pass) as u32) << (4 * (g * M + i));
            }
        }
        if hits != 0 {
            admit_hits(input, q0, j0, &acc, hits, thresholds, admit);
        }
    }

    /// The slow end of [`scan_groups`]: bit `4·(g·M + i) + l` of `hits`
    /// says lane `l` of `acc[g][i]` — query `q0 + i`, row `j0 + 4·g + l`
    /// — passed the filter. Each goes to `admit` with the scalar
    /// expression's `d2`, a query's rows in ascending order.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    unsafe fn admit_hits<const M: usize, const G: usize, F: FnMut(usize, usize, f64) -> f64>(
        input: &ScanInput<'_>,
        q0: usize,
        j0: usize,
        acc: &[[__m256d; M]; G],
        mut hits: u32,
        thresholds: &mut [f64],
        admit: &mut F,
    ) {
        let mut dots = [[[0.0f64; 4]; M]; G];
        for (lanes, sums) in dots.iter_mut().zip(acc) {
            for (lane, &sum) in lanes.iter_mut().zip(sums) {
                _mm256_storeu_pd(lane.as_mut_ptr(), sum);
            }
        }
        while hits != 0 {
            let bit = hits.trailing_zeros() as usize;
            hits &= hits - 1;
            let (g, i, l) = (bit / 4 / M, bit / 4 % M, bit % 4);
            let (qi, row) = (q0 + i, j0 + 4 * g + l);
            let d2 = super::norm_trick_sq(input.qnorms[qi], dots[g][i][l], input.row_norms[row]);
            thresholds[qi] = admit(qi, row, d2);
        }
    }

    /// Every whole group of four rows in `j0..j1` for exactly `M`
    /// queries, `G` groups per pass while that many remain; returns the
    /// first row not scanned.
    ///
    /// # Safety
    /// As [`scan_groups`], with `j1` rows.
    #[target_feature(enable = "avx2")]
    unsafe fn scan_stripe_rows<
        const M: usize,
        const G: usize,
        F: FnMut(usize, usize, f64) -> f64,
    >(
        input: &ScanInput<'_>,
        q0: usize,
        j0: usize,
        j1: usize,
        thresholds: &mut [f64],
        admit: &mut F,
    ) -> usize {
        let mut j = j0;
        while j + 4 * G <= j1 {
            scan_groups::<M, G, F>(input, q0, j, thresholds, admit);
            j += 4 * G;
        }
        // With `G == 1` the loop above took every whole group (and a
        // second mention of its kernel would keep it from being inlined).
        while G > 1 && j + 4 <= j1 {
            scan_groups::<M, 1, F>(input, q0, j, thresholds, admit);
            j += 4;
        }
        j
    }

    /// One stripe of `m` queries from `q0` over rows `j0..j1`; returns
    /// the first row left for the scalar arm (`j1 − (j1 − j0) % 4`).
    ///
    /// # Safety
    /// AVX2 must be available, `m` in `1..=8`, and `input` must hold the
    /// shapes [`super::scan_rows`] checks, with at least `q0 + m`
    /// queries and thresholds and `j1` rows.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_stripe<F: FnMut(usize, usize, f64) -> f64>(
        input: &ScanInput<'_>,
        q0: usize,
        m: usize,
        j0: usize,
        j1: usize,
        thresholds: &mut [f64],
        admit: &mut F,
    ) -> usize {
        match m {
            1 => scan_stripe_rows::<1, 4, F>(input, q0, j0, j1, thresholds, admit),
            2 => scan_stripe_rows::<2, 2, F>(input, q0, j0, j1, thresholds, admit),
            3 => scan_stripe_rows::<3, 2, F>(input, q0, j0, j1, thresholds, admit),
            4 => scan_stripe_rows::<4, 2, F>(input, q0, j0, j1, thresholds, admit),
            5 => scan_stripe_rows::<5, 1, F>(input, q0, j0, j1, thresholds, admit),
            6 => scan_stripe_rows::<6, 1, F>(input, q0, j0, j1, thresholds, admit),
            7 => scan_stripe_rows::<7, 1, F>(input, q0, j0, j1, thresholds, admit),
            8 => scan_stripe_rows::<8, 1, F>(input, q0, j0, j1, thresholds, admit),
            _ => unreachable!("dispatcher admits m in 1..=8"),
        }
    }

    /// `out[i] = dot(q, row ids[base + i])` for `i < min(4·G, ids.len() −
    /// base)`: `G` groups of four gathered rows, one accumulator per
    /// group so short id lists still overlap `G` add chains. Lanes past
    /// the end of `ids` recompute its last row and are not stored.
    ///
    /// # Safety
    /// AVX2 must be available and `base < ids.len() == out.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_rows_groups<const G: usize, S: RowSource + ?Sized>(
        q: &[f64],
        rows: &S,
        ids: &[u32],
        base: usize,
        out: &mut [f64],
    ) {
        let k = q.len();
        let last = ids.len() - 1;
        let row: [[*const f64; 4]; G] = std::array::from_fn(|g| {
            std::array::from_fn(|l| {
                let id = *ids.get_unchecked((base + 4 * g + l).min(last));
                super::gathered_row(rows, id, k).as_ptr()
            })
        });
        // `dot` folds from -0.0 (the additive identity that keeps an
        // all-`-0.0` sum negative).
        let mut acc = [_mm256_set1_pd(-0.0); G];
        let qp = q.as_ptr();
        let mut p = 0;
        while p + 4 <= k {
            for (sum, r) in acc.iter_mut().zip(&row) {
                let t = transpose4(r.map(|x| x.add(p)));
                for (j, &tj) in t.iter().enumerate() {
                    let qv = _mm256_set1_pd(*qp.add(p + j));
                    // Separate mul+add: the scalar oracle does not contract.
                    *sum = _mm256_add_pd(*sum, _mm256_mul_pd(qv, tj));
                }
            }
            p += 4;
        }
        while p < k {
            let qv = _mm256_set1_pd(*qp.add(p));
            for (sum, r) in acc.iter_mut().zip(&row) {
                let t = gather4(r.map(|x| x.add(p)));
                *sum = _mm256_add_pd(*sum, _mm256_mul_pd(qv, t));
            }
            p += 1;
        }
        for (g, &sum) in acc.iter().enumerate() {
            let start = base + 4 * g;
            if start + 4 <= out.len() {
                _mm256_storeu_pd(out.as_mut_ptr().add(start), sum);
            } else if start < out.len() {
                let mut lanes = [0.0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), sum);
                let n = out.len() - start;
                out[start..].copy_from_slice(&lanes[..n]);
            }
        }
    }

    /// # Safety
    /// AVX2 must be available, `ids.len() == out.len()` and `q` non-empty.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_rows<S: RowSource + ?Sized>(
        q: &[f64],
        rows: &S,
        ids: &[u32],
        out: &mut [f64],
    ) {
        let n = ids.len();
        let mut base = 0;
        while base + 8 < n {
            dot_rows_groups::<4, S>(q, rows, ids, base, out);
            base += 16;
        }
        if base + 4 < n {
            dot_rows_groups::<2, S>(q, rows, ids, base, out);
        } else if base < n {
            dot_rows_groups::<1, S>(q, rows, ids, base, out);
        }
    }

    /// One `M × 8` tile of [`super::outer_acc_rev`]: rows `r0..r0 + M`,
    /// columns `j..j + 8` of `c`, all `steps` terms added last row first
    /// with the tile held in registers. Lanes below `keep` are computed
    /// and dropped (the ragged last tile overlaps its neighbour).
    ///
    /// # Safety
    /// AVX2 must be available; `c` must be valid for `m·n` doubles, `u`
    /// for `steps·m`, `v` for `steps·n`, with `r0 + M <= m`,
    /// `j + 8 <= n` and `keep < 8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn outer_tile<const M: usize>(
        c: *mut f64,
        m: usize,
        n: usize,
        u: *const f64,
        v: *const f64,
        steps: usize,
        r0: usize,
        j: usize,
        keep: usize,
    ) {
        let mut acc = [[_mm256_setzero_pd(); 2]; M];
        for (i, a) in acc.iter_mut().enumerate() {
            let row = c.add((r0 + i) * n + j);
            *a = [_mm256_loadu_pd(row), _mm256_loadu_pd(row.add(4))];
        }
        for t in (0..steps).rev() {
            let vt = v.add(t * n + j);
            let (v0, v1) = (_mm256_loadu_pd(vt), _mm256_loadu_pd(vt.add(4)));
            for (i, a) in acc.iter_mut().enumerate() {
                let ur = _mm256_set1_pd(*u.add(t * m + r0 + i));
                // Separate mul+add: the scalar oracle does not contract.
                a[0] = _mm256_add_pd(a[0], _mm256_mul_pd(ur, v0));
                a[1] = _mm256_add_pd(a[1], _mm256_mul_pd(ur, v1));
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let row = c.add((r0 + i) * n + j);
            if keep == 0 {
                _mm256_storeu_pd(row, a[0]);
                _mm256_storeu_pd(row.add(4), a[1]);
            } else {
                let mut lanes = [0.0f64; 8];
                _mm256_storeu_pd(lanes.as_mut_ptr(), a[0]);
                _mm256_storeu_pd(lanes.as_mut_ptr().add(4), a[1]);
                for (l, &x) in lanes.iter().enumerate().skip(keep) {
                    *row.add(l) = x;
                }
            }
        }
    }

    /// Every column tile of rows `r0..r0 + M`.
    ///
    /// # Safety
    /// As [`outer_tile`], with `n >= 8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn outer_row_block<const M: usize>(
        c: *mut f64,
        m: usize,
        n: usize,
        u: *const f64,
        v: *const f64,
        steps: usize,
        r0: usize,
    ) {
        let mut j = 0;
        while j + 8 <= n {
            outer_tile::<M>(c, m, n, u, v, steps, r0, j, 0);
            j += 8;
        }
        if j < n {
            outer_tile::<M>(c, m, n, u, v, steps, r0, n - 8, j - (n - 8));
        }
    }

    /// # Safety
    /// AVX2 must be available, `n >= 8`, and the slices shaped `m×n`,
    /// `steps×m`, `steps×n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn outer_acc_rev(
        c: &mut [f64],
        m: usize,
        n: usize,
        u: &[f64],
        v: &[f64],
        steps: usize,
    ) {
        let (c, u, v) = (c.as_mut_ptr(), u.as_ptr(), v.as_ptr());
        let mut r = 0;
        while r + 4 <= m {
            outer_row_block::<4>(c, m, n, u, v, steps, r);
            r += 4;
        }
        while r < m {
            outer_row_block::<1>(c, m, n, u, v, steps, r);
            r += 1;
        }
    }

    /// Outputs `y[..4·NV]` of [`super::matvec_t_cols`] for the columns
    /// starting at `col`: `NV` accumulators held across every row.
    ///
    /// # Safety
    /// AVX2 must be available; `a` must be valid for `x.len()·cols`
    /// doubles with `col + 4·NV <= cols`, and `y` writable for `4·NV`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn t_cols_block<const NV: usize>(
        a: *const f64,
        cols: usize,
        x: &[f64],
        col: usize,
        y: *mut f64,
    ) {
        let mut acc = [_mm256_setzero_pd(); NV];
        for (r, &xr) in x.iter().enumerate() {
            let xv = _mm256_set1_pd(xr);
            let row = a.add(r * cols + col);
            for (q, sum) in acc.iter_mut().enumerate() {
                // Separate mul+add: the scalar oracle does not contract.
                *sum = _mm256_add_pd(*sum, _mm256_mul_pd(xv, _mm256_loadu_pd(row.add(4 * q))));
            }
        }
        for (q, &sum) in acc.iter().enumerate() {
            _mm256_storeu_pd(y.add(4 * q), sum);
        }
    }

    /// # Safety
    /// AVX2 must be available; `a` is `x.len() × cols` and
    /// `col0 + y.len() <= cols`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matvec_t_cols(
        a: &[f64],
        cols: usize,
        x: &[f64],
        col0: usize,
        y: &mut [f64],
    ) {
        let (ap, yp, n) = (a.as_ptr(), y.as_mut_ptr(), y.len());
        let mut j = 0;
        while j + 32 <= n {
            t_cols_block::<8>(ap, cols, x, col0 + j, yp.add(j));
            j += 32;
        }
        if j + 16 <= n {
            t_cols_block::<4>(ap, cols, x, col0 + j, yp.add(j));
            j += 16;
        }
        if j + 8 <= n {
            t_cols_block::<2>(ap, cols, x, col0 + j, yp.add(j));
            j += 8;
        }
        if j + 4 <= n {
            t_cols_block::<1>(ap, cols, x, col0 + j, yp.add(j));
            j += 4;
        }
        if j < n {
            super::matvec_t_cols_from(a, cols, x, col0, y, j);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_u8(a: &[u8], b: &[u8]) -> u64 {
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        // 16 u8 lanes per step: zero-extend to i16, vpmaddwd pairs into
        // i32. Lane bound: (32768/2) pair-terms · 2·255² per term still
        // fits i32 comfortably (see the dispatcher's length cap).
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            let av = _mm256_cvtepu8_epi16(_mm_loadu_si128(ap.add(i).cast()));
            let bv = _mm256_cvtepu8_epi16(_mm_loadu_si128(bp.add(i).cast()));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
            i += 16;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        let mut sum: u64 = lanes.iter().map(|&v| v as u64).sum();
        while i < n {
            sum += u64::from(*ap.add(i)) * u64::from(*bp.add(i));
            i += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn quant_scan_block(
        q: &[u8],
        codes: &[u8],
        xo: &[f64],
        xs: &[f64],
        sx: &[f64],
        dn: &[f64],
        t: &super::QuantQueryTerms,
        out: &mut [f64],
    ) {
        let d = q.len();
        let rows = out.len();
        let qp = q.as_ptr();
        let cp = codes.as_ptr();
        let vdqo = _mm256_set1_pd(t.dqo);
        let vqo = _mm256_set1_pd(t.qo);
        let vqs = _mm256_set1_pd(t.qs);
        let vqsum = _mm256_set1_pd(t.qsum);
        let vqn = _mm256_set1_pd(t.qn);
        let vtwo = _mm256_set1_pd(2.0);
        let vzero = _mm256_setzero_pd();
        let mut j = 0;
        while j + 4 <= rows {
            // Same lane math as `dot_u8` (zero-extend to i16, vpmaddwd
            // pairs into non-negative i32 partials, bound by the 32768
            // dimension cap), fused four rows deep: each query chunk is
            // converted once and shared, and the four accumulators fold
            // with one hadd transpose instead of four per-row spills.
            let rp = [
                cp.add(j * d),
                cp.add((j + 1) * d),
                cp.add((j + 2) * d),
                cp.add((j + 3) * d),
            ];
            let mut acc = [_mm256_setzero_si256(); 4];
            let mut i = 0;
            while i + 16 <= d {
                let qv = _mm256_cvtepu8_epi16(_mm_loadu_si128(qp.add(i).cast()));
                for (a, p) in acc.iter_mut().zip(&rp) {
                    let rv = _mm256_cvtepu8_epi16(_mm_loadu_si128(p.add(i).cast()));
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(qv, rv));
                }
                i += 16;
            }
            // hadd transpose: [Σacc0, Σacc1, Σacc2, Σacc3] in one xmm.
            let t01 = _mm256_hadd_epi32(acc[0], acc[1]);
            let t23 = _mm256_hadd_epi32(acc[2], acc[3]);
            let t0123 = _mm256_hadd_epi32(t01, t23);
            let sums = _mm_add_epi32(
                _mm256_castsi256_si128(t0123),
                _mm256_extracti128_si256(t0123, 1),
            );
            let mut s4 = [0i32; 4];
            _mm_storeu_si128(s4.as_mut_ptr().cast(), sums);
            while i < d {
                let qi = i32::from(*qp.add(i));
                for (s, p) in s4.iter_mut().zip(&rp) {
                    *s += qi * i32::from(*p.add(i));
                }
                i += 1;
            }
            // Exact: each dot is an integer <= 32768·255² < 2^31 < 2^53.
            let dot4 = _mm256_cvtepi32_pd(_mm_loadu_si128(s4.as_ptr().cast()));
            // Affine tail, lane-wise in `quant_score`'s operand order.
            let vxo = _mm256_loadu_pd(xo.as_ptr().add(j));
            let vxs = _mm256_loadu_pd(xs.as_ptr().add(j));
            let vsx = _mm256_loadu_pd(sx.as_ptr().add(j));
            let vdn = _mm256_loadu_pd(dn.as_ptr().add(j));
            let m1 = _mm256_mul_pd(vdqo, vxo);
            let m2 = _mm256_mul_pd(_mm256_mul_pd(vqo, vxs), vsx);
            let m3 = _mm256_mul_pd(_mm256_mul_pd(vxo, vqs), vqsum);
            let m4 = _mm256_mul_pd(_mm256_mul_pd(vqs, vxs), dot4);
            let cross = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(m1, m2), m3), m4);
            let val = _mm256_add_pd(_mm256_sub_pd(vqn, _mm256_mul_pd(vtwo, cross)), vdn);
            _mm256_storeu_pd(out.as_mut_ptr().add(j), _mm256_max_pd(val, vzero));
            j += 4;
        }
        while j < rows {
            let dot = dot_u8(q, core::slice::from_raw_parts(cp.add(j * d), d));
            out[j] = super::quant_score(t, xo[j], xs[j], sx[j], dn[j], dot as f64);
            j += 1;
        }
    }
}

/// The one 512-bit GEMM kernel, under the same rules as `avx2`: called
/// only through [`gemm_stripe_nt`] after its bounds checks, and only when
/// runtime detection reported AVX-512.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    /// [`super::gemm_tile_nt`] over two adjacent panels at once:
    /// `acc[r][h·NR + c] += Σ_p arows[r][p] · panels[h·k·NR + p·NR + c]`
    /// in ascending `p`, in eight zmm accumulators (rows `r = 0..4` ×
    /// panels `h = 0..2`), lane `c` of `[r][h]` the chain of output
    /// column `h·NR + c` — the AVX2 tile's operations, eight lanes wide.
    ///
    /// # Safety
    /// AVX-512F must be available; every row of `arows` must hold `k`
    /// doubles and `panels` `2·k·NR`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm_tile_nt(
        arows: [&[f64]; MR],
        panels: &[f64],
        acc: &mut [[f64; 2 * NR]; MR],
    ) {
        let k = arows[0].len();
        let mut vacc = [[_mm512_setzero_pd(); 2]; MR];
        for (r, row) in acc.iter().enumerate() {
            vacc[r] = [
                _mm512_loadu_pd(row.as_ptr()),
                _mm512_loadu_pd(row.as_ptr().add(NR)),
            ];
        }
        let (b0p, b1p) = (panels.as_ptr(), panels.as_ptr().add(k * NR));
        for p in 0..k {
            let b0 = _mm512_loadu_pd(b0p.add(p * NR));
            let b1 = _mm512_loadu_pd(b1p.add(p * NR));
            for (r, vr) in vacc.iter_mut().enumerate() {
                let ar = _mm512_set1_pd(*arows[r].get_unchecked(p));
                // Separate mul+add: the scalar oracle does not contract.
                vr[0] = _mm512_add_pd(vr[0], _mm512_mul_pd(ar, b0));
                vr[1] = _mm512_add_pd(vr[1], _mm512_mul_pd(ar, b1));
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            _mm512_storeu_pd(row.as_mut_ptr(), vacc[r][0]);
            _mm512_storeu_pd(row.as_mut_ptr().add(NR), vacc[r][1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed
    }

    fn fill(n: usize, seed: &mut u64) -> Vec<f64> {
        (0..n)
            .map(|_| (lcg(seed) >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            .collect()
    }

    /// The stripe over packed panels is the scalar definition bit for
    /// bit at every level: one to four live rows, panel counts odd and
    /// even (the AVX-512 pairs and the odd last panel), ragged last
    /// panels, signed zeros and subnormals salted in.
    #[test]
    fn gemm_tiles_agree_bitwise_across_levels() {
        let mut seed = 9u64;
        let special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300];
        for k in [1usize, 3, 16, 35, 61] {
            for n in [1usize, 8, 11, 16, 20, 24, 35, 40, 64] {
                let ntiles = n.div_ceil(NR);
                let mut rows = fill(MR * k, &mut seed);
                let mut b = fill(n * k, &mut seed);
                for v in rows.iter_mut().chain(b.iter_mut()) {
                    if lcg(&mut seed) >> 61 == 0 {
                        *v = special[(lcg(&mut seed) >> 33) as usize % special.len()];
                    }
                }
                // Padding lanes of the last panel hold garbage: computed,
                // never stored.
                let mut panels = vec![f64::NAN; ntiles * k * NR];
                for j in 0..n {
                    for p in 0..k {
                        panels[(j / NR) * k * NR + p * NR + j % NR] = b[j * k + p];
                    }
                }
                for mh in 1..=MR {
                    let arows: [&[f64]; MR] =
                        std::array::from_fn(|r| &rows[r.min(mh - 1) * k..][..k]);
                    let mut want = vec![0.0f64; mh * n];
                    for (r, w) in want.chunks_exact_mut(n).enumerate() {
                        for (j, wj) in w.iter_mut().enumerate() {
                            for p in 0..k {
                                *wj += arows[r][p] * b[j * k + p];
                            }
                        }
                    }
                    for level in SimdLevel::ALL {
                        let mut got = vec![f64::NAN; mh * n];
                        gemm_stripe_nt(level, arows, &panels, &mut got, n);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{level:?} k={k} n={n} mh={mh}");
                    }
                }
            }

            let n = NR + 3;
            let rows = fill(MR * k, &mut seed);
            let bmat = fill(k * n, &mut seed);
            let arows: [&[f64]; MR] = std::array::from_fn(|r| &rows[r * k..(r + 1) * k]);
            let mut want = [[0.25f64; NR]; MR];
            gemm_tile_nn(SimdLevel::Scalar, arows, &bmat, n, 2, &mut want);
            for level in SimdLevel::ALL {
                let mut got = [[0.25f64; NR]; MR];
                gemm_tile_nn(level, arows, &bmat, n, 2, &mut got);
                assert_eq!(got, want, "nn {level:?} k={k}");
            }
        }
    }

    /// A kernel with no 512-bit arm runs its AVX2 arm at `Avx512`, not
    /// the scalar one. Bits cannot tell those apart, so this watches the
    /// one difference the arms are allowed: the AVX2 scan tests a group
    /// of rows against the thresholds as they stood when the group began,
    /// and so calls `admit` for rows the scalar arm has already ruled out.
    #[test]
    fn kernels_without_a_512_arm_run_the_avx2_arm_at_avx512() {
        let dim = 4;
        // Distances that rise with every row: with k = 1 the scalar arm
        // admits row 0 only, a vector arm the rest of its first group too.
        let rows: Vec<f64> = (0..64 * dim).map(|at| (at / dim) as f64).collect();
        let queries = vec![-1.0; dim];
        let norms = (sq_norms(dim, &queries), sq_norms(dim, &rows));
        let input = scan_input(dim, &queries, &rows, &norms);
        let calls = |level: SimdLevel| {
            let mut log = Vec::new();
            let mut top = TopK { k: 1, kept: vec![] };
            scan_rows(level, &input, &mut [f64::INFINITY], |_, row, d2| {
                log.push((row, d2.to_bits()));
                top.push(row, d2)
            });
            log
        };
        let (scalar, avx2, avx512) = (
            calls(SimdLevel::Scalar),
            calls(SimdLevel::Avx2),
            calls(SimdLevel::Avx512),
        );
        assert_eq!(avx512, avx2);
        assert_eq!(scalar.len(), 1);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert!(avx2.len() > 1, "the AVX2 arm did not run");
        }
    }

    #[test]
    fn dot_rows_matches_dot_bitwise_across_levels() {
        let mut seed = 31u64;
        let nrows = 40usize;
        // Payloads that tell a `-0.0` fold from a `+0.0` one and a fused
        // multiply-add from a separate pair: signed zeros, subnormals
        // (products underflow), and ordinary values.
        let special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.5, 3.25];
        for k in [1usize, 3, 4, 31, 32, 33] {
            let mut rows = fill(nrows * k, &mut seed);
            let mut q = fill(k, &mut seed);
            for v in rows.iter_mut().chain(q.iter_mut()) {
                if lcg(&mut seed) >> 62 == 0 {
                    *v = special[(lcg(&mut seed) >> 33) as usize % special.len()];
                }
            }
            // Row 0 and the first query give an all-`-0.0` sum.
            rows[..k].fill(-0.0);
            for (qi, q) in [vec![1.0; k], q].iter().enumerate() {
                for n in 0..=33usize {
                    // Repeated ids, row 0 included, in no particular order.
                    let ids: Vec<u32> = (0..n)
                        .map(|i| {
                            if i % 5 == 0 {
                                0
                            } else {
                                (lcg(&mut seed) >> 33) as u32 % 7 * 5
                            }
                        })
                        .collect();
                    for level in SimdLevel::ALL {
                        let mut got = vec![f64::NAN; n];
                        dot_rows(level, q, rows.as_slice(), &ids, &mut got);
                        for (i, &id) in ids.iter().enumerate() {
                            let want = crate::linalg::dot(q, &rows[id as usize * k..][..k]);
                            assert_eq!(
                                got[i].to_bits(),
                                want.to_bits(),
                                "{level:?} k={k} n={n} i={i}"
                            );
                        }
                        if qi == 0 && n > 0 {
                            assert_eq!(got[0].to_bits(), (-0.0f64).to_bits(), "{level:?} k={k}");
                        }
                    }
                }
            }
        }
        // An empty query is an empty sum for every id.
        let mut out = [1.0; 2];
        dot_rows(SimdLevel::Avx2, &[], &[][..], &[], &mut []);
        dot_rows(
            SimdLevel::Scalar,
            &[1.0],
            &[2.0, 3.0][..],
            &[1, 0],
            &mut out,
        );
        assert_eq!(out, [3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row id out of range")]
    fn dot_rows_rejects_an_id_past_the_matrix() {
        dot_rows(
            SimdLevel::Avx2,
            &[1.0, 1.0],
            &[0.0; 6][..],
            &[3],
            &mut [0.0],
        );
    }

    /// The `k` smallest `(d2, row)` under `(total_cmp, row)` — the order
    /// of the model crate's bounded heap, which this crate cannot name —
    /// as `(d2 bits, row)`.
    struct TopK {
        k: usize,
        kept: Vec<(f64, usize)>,
    }

    impl TopK {
        /// Offers a pair; returns the admission threshold afterwards.
        fn push(&mut self, row: usize, d2: f64) -> f64 {
            let at = self
                .kept
                .partition_point(|&(d, r)| d.total_cmp(&d2).then(r.cmp(&row)).is_lt());
            self.kept.insert(at, (d2, row));
            self.kept.truncate(self.k);
            match self.kept.last() {
                Some(&(worst, _)) if self.kept.len() == self.k => worst,
                _ => f64::INFINITY,
            }
        }

        fn bits(&self) -> Vec<(u64, usize)> {
            self.kept.iter().map(|&(d, r)| (d.to_bits(), r)).collect()
        }
    }

    fn scan_input<'a>(
        dim: usize,
        queries: &'a [f64],
        rows: &'a [f64],
        norms: &'a (Vec<f64>, Vec<f64>),
    ) -> ScanInput<'a> {
        ScanInput {
            dim,
            queries,
            qnorms: &norms.0,
            rows,
            row_norms: &norms.1,
        }
    }

    fn sq_norms(dim: usize, flat: &[f64]) -> Vec<f64> {
        flat.chunks_exact(dim)
            .map(|r| crate::linalg::dot(r, r))
            .collect()
    }

    /// Every `d2` of the batch from a plain scalar `matmul_nt` and the
    /// scalar norm-trick expression, query-major.
    fn reference_d2(input: &ScanInput<'_>) -> Vec<f64> {
        let (b, n) = (input.qnorms.len(), input.row_norms.len());
        let mut scores = vec![0.0; b * n];
        crate::linalg::matmul_nt_with_level(
            SimdLevel::Scalar,
            input.queries,
            input.rows,
            &mut scores,
            b,
            n,
            input.dim,
        );
        for (qi, row) in scores.chunks_exact_mut(n.max(1)).enumerate() {
            for (s, &xn) in row.iter_mut().zip(input.row_norms) {
                *s = (input.qnorms[qi] - 2.0 * *s + xn).max(0.0);
            }
        }
        scores
    }

    /// Top-`k` per query through [`scan_rows`] at `level`.
    fn scan_topk(level: SimdLevel, input: &ScanInput<'_>, k: usize) -> Vec<Vec<(u64, usize)>> {
        let b = input.qnorms.len();
        let mut tops: Vec<TopK> = (0..b).map(|_| TopK { k, kept: vec![] }).collect();
        let mut thresholds = vec![f64::INFINITY; b];
        scan_rows(level, input, &mut thresholds, |qi, row, d2| {
            tops[qi].push(row, d2)
        });
        tops.iter().map(TopK::bits).collect()
    }

    /// Both arms against the `matmul_nt` reference: the top-`k` for each
    /// `k` (moving thresholds — the AVX2 arm may call `admit` more often,
    /// never with other bits), and the exact admitted set under fixed
    /// thresholds (nothing is stale, so the arms agree call for call).
    fn check_scan(dim: usize, queries: &[f64], rows: &[f64], ks: &[usize], what: &str) {
        let norms = (sq_norms(dim, queries), sq_norms(dim, rows));
        let input = scan_input(dim, queries, rows, &norms);
        let (b, n) = (norms.0.len(), norms.1.len());
        let d2 = reference_d2(&input);
        for &k in ks {
            let want: Vec<Vec<(u64, usize)>> = (0..b)
                .map(|qi| {
                    let mut top = TopK { k, kept: vec![] };
                    for row in 0..n {
                        top.push(row, d2[qi * n + row]);
                    }
                    top.bits()
                })
                .collect();
            for level in SimdLevel::ALL {
                let got = scan_topk(level, &input, k);
                assert_eq!(got, want, "{what}: {level:?} d={dim} b={b} n={n} k={k}");
            }
        }
        // A radius that splits the pairs, then the two ends.
        let mut sorted = d2.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        for limit in [median, f64::INFINITY, f64::NAN] {
            let want: Vec<(usize, usize, u64)> = (0..b * n)
                .filter(|&at| d2[at] <= limit)
                .map(|at| (at / n, at % n, d2[at].to_bits()))
                .collect();
            for level in SimdLevel::ALL {
                let mut got = Vec::new();
                scan_rows(level, &input, &mut vec![limit; b], |qi, row, d2| {
                    got.push((qi, row, d2.to_bits()));
                    limit
                });
                got.sort_unstable();
                assert_eq!(
                    got, want,
                    "{what}: {level:?} d={dim} b={b} n={n} limit={limit}"
                );
            }
        }
    }

    #[test]
    fn scan_rows_matches_matmul_nt_reference_bitwise_across_levels() {
        let mut seed = 41u64;
        // Every residue mod 16 (fewer than four rows included), then
        // sizes that cross a chunk boundary with a ragged last chunk.
        let sizes: Vec<usize> = (0..=16).chain([77, 131]).collect();
        for dim in [1usize, 3, 4, 31, 32, 33] {
            for &n in &sizes {
                // Every stripe shape, and the 8 + 8 + 1 split.
                for b in 1..=17usize {
                    let rows = fill(n * dim, &mut seed);
                    let queries = fill(b * dim, &mut seed);
                    check_scan(dim, &queries, &rows, &[1, 10, n, n + 5], "random");
                }
            }
        }
    }

    #[test]
    fn scan_rows_keeps_ties_specials_and_monotone_corpora_exact() {
        let mut seed = 43u64;
        for dim in [3usize, 32] {
            for (b, n) in [(1usize, 150usize), (5, 83), (8, 150), (17, 131)] {
                // Rows from a tiny alphabet: duplicates everywhere, so the
                // k-th distance is tied and the index decides; the first
                // queries are rows themselves (the exact-zero cancellation).
                let small = |s: &mut u64| (lcg(s) >> 33) as usize % 3;
                let rows: Vec<f64> = (0..n * dim).map(|_| small(&mut seed) as f64).collect();
                let mut queries: Vec<f64> = (0..b * dim).map(|_| small(&mut seed) as f64).collect();
                let own = (b / 2 + 1).min(b) * dim;
                queries[..own].copy_from_slice(&rows[dim..dim + own]);
                check_scan(dim, &queries, &rows, &[1, 10, n], "ties");

                // Signed zeros, NaN and infinities in rows and queries: a
                // NaN score is distance 0 under `max`, and the filter must
                // let it through.
                let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                let mut rows = fill(n * dim, &mut seed);
                let mut queries = fill(b * dim, &mut seed);
                for v in rows.iter_mut().chain(queries.iter_mut()) {
                    if lcg(&mut seed) >> 60 == 0 {
                        *v = special[(lcg(&mut seed) >> 33) as usize % special.len()];
                    }
                }
                check_scan(dim, &queries, &rows, &[1, 10, n], "specials");

                // Distances that fall with every row (each row enters the
                // heap and tightens the threshold) and that rise with
                // every row (none does once the heap is full).
                let base = fill(dim, &mut seed);
                let queries: Vec<f64> = (0..b * dim)
                    .map(|at| base[at % dim] + 1e-3 * (at / dim) as f64)
                    .collect();
                for falling in [true, false] {
                    let rows: Vec<f64> = (0..n * dim)
                        .map(|at| {
                            let j = at / dim;
                            let step = if falling { n - j } else { j + 1 };
                            base[at % dim] + step as f64
                        })
                        .collect();
                    check_scan(dim, &queries, &rows, &[1, 10], "monotone");
                }
            }
        }
        // No queries, no rows, no dimensions.
        let none = (vec![], vec![]);
        scan_rows(
            SimdLevel::Avx2,
            &scan_input(4, &[], &[], &none),
            &mut [],
            |_, _, _| unreachable!("nothing to admit"),
        );
        let norms = (vec![0.0; 2], vec![0.0; 5]);
        let mut calls = 0;
        scan_rows(
            SimdLevel::Avx2,
            &scan_input(0, &[], &[], &norms),
            &mut [f64::INFINITY; 2],
            |_, _, d2| {
                calls += 1;
                assert_eq!(d2, 0.0);
                f64::INFINITY
            },
        );
        assert_eq!(calls, 10);
    }

    #[test]
    #[should_panic(expected = "one threshold per query")]
    fn scan_rows_rejects_a_short_threshold_slice() {
        let norms = (vec![1.0; 2], vec![1.0; 3]);
        let input = scan_input(1, &[1.0, 1.0], &[1.0, 1.0, 1.0], &norms);
        scan_rows(SimdLevel::Avx2, &input, &mut [0.0], |_, _, _| 0.0);
    }

    #[test]
    fn dot_u8_matches_scalar_all_lengths() {
        let mut seed = 17u64;
        for n in [0usize, 1, 15, 16, 17, 128, 333] {
            let a: Vec<u8> = (0..n).map(|_| (lcg(&mut seed) >> 32) as u8).collect();
            let b: Vec<u8> = (0..n).map(|_| (lcg(&mut seed) >> 32) as u8).collect();
            let want = dot_u8(SimdLevel::Scalar, &a, &b);
            for level in SimdLevel::ALL {
                assert_eq!(dot_u8(level, &a, &b), want, "{level:?} n={n}");
            }
        }
        // Saturation-adjacent extremes exercise the i32 pair bound.
        let a = vec![255u8; 1024];
        assert_eq!(dot_u8(SimdLevel::Avx2, &a, &a), 1024 * 255 * 255);
    }

    #[test]
    fn quant_scan_block_matches_scalar_bitwise_all_shapes() {
        let mut seed = 23u64;
        // Row/dim shapes straddling the 4-row and 16-lane boundaries.
        for d in [1usize, 15, 16, 17, 32, 77] {
            for rows in [0usize, 1, 3, 4, 5, 8, 11] {
                let q: Vec<u8> = (0..d).map(|_| (lcg(&mut seed) >> 32) as u8).collect();
                let codes: Vec<u8> = (0..rows * d)
                    .map(|_| (lcg(&mut seed) >> 32) as u8)
                    .collect();
                let stat = |s: &mut u64| {
                    (0..rows)
                        .map(|_| (lcg(s) >> 11) as f64 / (1u64 << 55) as f64)
                        .collect()
                };
                let (xo, xs): (Vec<f64>, Vec<f64>) = (stat(&mut seed), stat(&mut seed));
                let (sxv, dn): (Vec<f64>, Vec<f64>) = (stat(&mut seed), stat(&mut seed));
                let t = QuantQueryTerms {
                    dqo: d as f64 * 0.125,
                    qo: 0.125,
                    qs: 0.03,
                    qsum: q.iter().map(|&c| f64::from(c)).sum(),
                    qn: 7.5,
                };
                let scored = |level: SimdLevel| {
                    let mut out = vec![0.0f64; rows];
                    quant_scan_block(level, &q, &codes, &xo, &xs, &sxv, &dn, &t, &mut out);
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                let narrow = scored(SimdLevel::Scalar);
                for level in SimdLevel::ALL {
                    assert_eq!(scored(level), narrow, "{level:?} d={d} rows={rows}");
                }
                // Cross-check one row against the standalone dot + score.
                if rows > 0 {
                    let dot = dot_u8(SimdLevel::Scalar, &q, &codes[..d]);
                    let want = quant_score(&t, xo[0], xs[0], sxv[0], dn[0], dot as f64);
                    assert_eq!(narrow[0], want.to_bits(), "d={d} rows={rows}");
                }
            }
        }
        // Saturation-adjacent extremes exercise the i32 dot bound, and a
        // large-qn query exercises the max(0, ·) clamp in both arms.
        let q = vec![255u8; 64];
        let codes = vec![255u8; 64 * 5];
        let zeros = vec![0.0f64; 5];
        let t = QuantQueryTerms {
            dqo: 0.0,
            qo: 0.0,
            qs: 1.0,
            qsum: 0.0,
            qn: 0.0,
        };
        let mut out = vec![0.0f64; 5];
        quant_scan_block(
            SimdLevel::Avx2,
            &q,
            &codes,
            &zeros,
            &[1.0; 5],
            &zeros,
            &zeros,
            &t,
            &mut out,
        );
        // qn − 2·dot + dn = −2·64·255² clamps to 0 in every lane.
        assert_eq!(out, vec![0.0; 5]);
    }
}
