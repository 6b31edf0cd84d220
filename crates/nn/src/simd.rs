//! AVX2 micro-kernels for the register-tiled GEMMs in [`crate::linalg`]
//! and the u8 integer dot product behind the int8-quantized embedding
//! scan (`DESIGN.md` §12).
//!
//! Same policy as the measures DP kernels: every function takes an
//! explicit [`SimdLevel`] and carries a pure-Rust scalar arm that *is*
//! the oracle — the AVX2 arm computes the same expression per output
//! element in the same order, so results are bit-identical:
//!
//! * the GEMM tiles keep one accumulator per output element, summed in
//!   ascending `p` with separate `_mm256_mul_pd`/`_mm256_add_pd` (no
//!   FMA — the scalar oracle never contracts), vectorized only across
//!   the `NR` *independent* accumulator columns;
//! * the small-`m` `A·Bᵀ` arm keeps the same one-accumulator,
//!   ascending-`p`, mul-then-add chain per output and vectorizes across
//!   four `B` rows (four independent outputs), transposing `B` in
//!   registers instead of packing it;
//! * the gathered-rows dot ([`dot_rows`]) is that arm with the four rows
//!   named by an id list instead of being adjacent — one `dot` chain per
//!   lane;
//! * the two BPTT kernels — the ordered rank-`T` accumulate
//!   (`outer_acc_rev`) and the transposed-columns product
//!   (`matvec_t_cols`) — keep one accumulator per output in a register
//!   across the whole sum and add the terms in the order the per-step
//!   sweeps they replace did, vectorized across output columns;
//! * the u8 dot is exact integer arithmetic, where any summation order
//!   yields the same value.

use neutraj_obs::simd::SimdLevel;

/// Rows per GEMM micro-tile (matches `linalg::MR`).
pub(crate) const MR: usize = 4;
/// Columns per GEMM micro-tile (matches `linalg::NR`).
pub(crate) const NR: usize = 8;

/// Whether the AVX2 arm may run: requested level AND host support
/// (`is_x86_feature_detected!` caches, ~one relaxed load per call).
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn use_avx2(level: SimdLevel) -> bool {
    level == SimdLevel::Avx2 && std::arch::is_x86_feature_detected!("avx2")
}

/// The packed `MR×NR` register tile of [`crate::linalg::matmul_nt`]:
/// `ap` is the `k`-major A micro-panel (`k·MR`), `panel` the `k`-major
/// B panel (`k·NR`); `acc[r][c] += Σ_p ap[p·MR+r] · panel[p·NR+c]` in
/// ascending `p`, one accumulator per element.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn gemm_tile_nt(level: SimdLevel, ap: &[f64], panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    assert_eq!(ap.len() % MR, 0);
    assert_eq!(ap.len() / MR, panel.len() / NR);
    assert_eq!(panel.len() % NR, 0);
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; lengths checked above.
        unsafe { avx2::gemm_tile_nt(ap, panel, acc) };
        return;
    }
    let _ = level;
    for (av, bv) in ap.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
        // Fixed-size views give the optimizer exact trip counts for the
        // MR×NR unrolled multiply-add block.
        let av: &[f64; MR] = av.try_into().expect("A panel chunk");
        let bv: &[f64; NR] = bv.try_into().expect("B panel chunk");
        for r in 0..MR {
            let ar = av[r];
            let accr = &mut acc[r];
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

/// `out[i] = dot(q, row ids[i])` over a row-major matrix of
/// `q.len()`-wide rows — the distances of one graph hop in one call
/// (`DESIGN.md` §15).
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
/// past the end of `rows`.
#[inline]
#[allow(unsafe_code)]
pub fn dot_rows(level: SimdLevel, q: &[f64], rows: &[f64], ids: &[u32], out: &mut [f64]) {
    let k = q.len();
    assert_eq!(ids.len(), out.len(), "dot_rows: ids/out length mismatch");
    // No division: this runs once per graph hop.
    assert!(
        ids.iter().all(|&i| (i as usize + 1) * k <= rows.len()),
        "dot_rows: row id out of range"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) && k > 0 {
        // SAFETY: AVX2 presence just verified; every id addresses a
        // whole `k`-wide row inside `rows` and `out` is as long as `ids`.
        unsafe { avx2::dot_rows(q, rows, ids, out) };
        return;
    }
    let _ = level;
    for (o, &i) in out.iter_mut().zip(ids) {
        *o = crate::linalg::dot(q, &rows[i as usize * k..][..k]);
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
    use super::{MR, NR};
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_tile_nt(ap: &[f64], panel: &[f64], acc: &mut [[f64; NR]; MR]) {
        let k = ap.len() / MR;
        // Eight ymm accumulators: rows r=0..4 × column halves h=0..2.
        let mut vacc = [[_mm256_setzero_pd(); 2]; MR];
        for (r, row) in acc.iter().enumerate() {
            vacc[r] = [
                _mm256_loadu_pd(row.as_ptr()),
                _mm256_loadu_pd(row.as_ptr().add(4)),
            ];
        }
        let (app, bpp) = (ap.as_ptr(), panel.as_ptr());
        for p in 0..k {
            let b0 = _mm256_loadu_pd(bpp.add(p * NR));
            let b1 = _mm256_loadu_pd(bpp.add(p * NR + 4));
            for (r, vr) in vacc.iter_mut().enumerate() {
                let ar = _mm256_set1_pd(*app.add(p * MR + r));
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

    /// Outputs `c[i·n + j0 + 4·g + l]` for `i < M`, `g < G`, `l < 4`:
    /// `M` rows of `A` against `G` groups of four `B` rows, `M·G`
    /// accumulators (callers keep `M·G ≤ 8` so they stay in registers).
    /// More than one group gives a short `M` enough independent add
    /// chains to cover the add latency.
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
        let mut acc = [[_mm256_setzero_pd(); M]; G];
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
        for (g, rows) in acc.iter().enumerate() {
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

    /// `out[i] = dot(q, row ids[base + i])` for `i < min(4·G, ids.len() −
    /// base)`: `G` groups of four gathered rows, one accumulator per
    /// group so short id lists still overlap `G` add chains. Lanes past
    /// the end of `ids` recompute its last row and are not stored.
    ///
    /// # Safety
    /// AVX2 must be available; `base < ids.len() == out.len()`, and
    /// every id must address a whole `q.len()`-wide row of `rows`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_rows_groups<const G: usize>(
        q: &[f64],
        rows: *const f64,
        ids: &[u32],
        base: usize,
        out: &mut [f64],
    ) {
        let k = q.len();
        let last = ids.len() - 1;
        let row: [[*const f64; 4]; G] = std::array::from_fn(|g| {
            std::array::from_fn(|l| {
                let id = *ids.get_unchecked((base + 4 * g + l).min(last));
                rows.add(id as usize * k)
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
    /// AVX2 must be available; `ids.len() == out.len()`, `q` non-empty,
    /// and every id must address a whole `q.len()`-wide row of `rows`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_rows(q: &[f64], rows: &[f64], ids: &[u32], out: &mut [f64]) {
        let rows = rows.as_ptr();
        let n = ids.len();
        let mut base = 0;
        while base + 8 < n {
            dot_rows_groups::<4>(q, rows, ids, base, out);
            base += 16;
        }
        if base + 4 < n {
            dot_rows_groups::<2>(q, rows, ids, base, out);
        } else if base < n {
            dot_rows_groups::<1>(q, rows, ids, base, out);
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

    #[test]
    fn gemm_tiles_agree_bitwise_across_levels() {
        let mut seed = 9u64;
        for k in [1usize, 3, 16, 61] {
            let ap = fill(k * MR, &mut seed);
            let panel = fill(k * NR, &mut seed);
            let mut a = [[0.5f64; NR]; MR];
            let mut b = a;
            gemm_tile_nt(SimdLevel::Scalar, &ap, &panel, &mut a);
            gemm_tile_nt(SimdLevel::Avx2, &ap, &panel, &mut b);
            assert_eq!(a, b, "nt k={k}");

            let n = NR + 3;
            let rows = fill(MR * k, &mut seed);
            let bmat = fill(k * n, &mut seed);
            let arows: [&[f64]; MR] = std::array::from_fn(|r| &rows[r * k..(r + 1) * k]);
            let mut a = [[0.25f64; NR]; MR];
            let mut b = a;
            gemm_tile_nn(SimdLevel::Scalar, arows, &bmat, n, 2, &mut a);
            gemm_tile_nn(SimdLevel::Avx2, arows, &bmat, n, 2, &mut b);
            assert_eq!(a, b, "nn k={k}");
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
                    let mut narrow = vec![f64::NAN; n];
                    let mut wide = vec![f64::NAN; n];
                    dot_rows(SimdLevel::Scalar, q, &rows, &ids, &mut narrow);
                    dot_rows(SimdLevel::Avx2, q, &rows, &ids, &mut wide);
                    for (i, &id) in ids.iter().enumerate() {
                        let want = crate::linalg::dot(q, &rows[id as usize * k..][..k]);
                        assert_eq!(
                            narrow[i].to_bits(),
                            want.to_bits(),
                            "scalar k={k} n={n} i={i}"
                        );
                        assert_eq!(wide[i].to_bits(), want.to_bits(), "avx2 k={k} n={n} i={i}");
                    }
                    if qi == 0 && n > 0 {
                        assert_eq!(wide[0].to_bits(), (-0.0f64).to_bits(), "k={k}");
                    }
                }
            }
        }
        // An empty query is an empty sum for every id.
        let mut out = [1.0; 2];
        dot_rows(SimdLevel::Avx2, &[], &[], &[], &mut []);
        dot_rows(SimdLevel::Scalar, &[1.0], &[2.0, 3.0], &[1, 0], &mut out);
        assert_eq!(out, [3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row id out of range")]
    fn dot_rows_rejects_an_id_past_the_matrix() {
        dot_rows(SimdLevel::Avx2, &[1.0, 1.0], &[0.0; 6], &[3], &mut [0.0]);
    }

    #[test]
    fn dot_u8_matches_scalar_all_lengths() {
        let mut seed = 17u64;
        for n in [0usize, 1, 15, 16, 17, 128, 333] {
            let a: Vec<u8> = (0..n).map(|_| (lcg(&mut seed) >> 32) as u8).collect();
            let b: Vec<u8> = (0..n).map(|_| (lcg(&mut seed) >> 32) as u8).collect();
            assert_eq!(
                dot_u8(SimdLevel::Scalar, &a, &b),
                dot_u8(SimdLevel::Avx2, &a, &b),
                "n={n}"
            );
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
                let mut narrow = vec![0.0f64; rows];
                let mut wide = vec![0.0f64; rows];
                quant_scan_block(
                    SimdLevel::Scalar,
                    &q,
                    &codes,
                    &xo,
                    &xs,
                    &sxv,
                    &dn,
                    &t,
                    &mut narrow,
                );
                quant_scan_block(
                    SimdLevel::Avx2,
                    &q,
                    &codes,
                    &xo,
                    &xs,
                    &sxv,
                    &dn,
                    &t,
                    &mut wide,
                );
                for (r, (a, b)) in narrow.iter().zip(&wide).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "d={d} rows={rows} row {r}");
                }
                // Cross-check one row against the standalone dot + score.
                if rows > 0 {
                    let dot = dot_u8(SimdLevel::Scalar, &q, &codes[..d]);
                    let want = quant_score(&t, xo[0], xs[0], sxv[0], dn[0], dot as f64);
                    assert_eq!(narrow[0].to_bits(), want.to_bits(), "d={d} rows={rows}");
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
