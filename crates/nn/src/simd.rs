//! AVX2 and AVX-512 micro-kernels for the register-tiled GEMMs in
//! [`crate::linalg`] and the int8 code pass of the exact top-k
//! (`DESIGN.md` §12).
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
//! * the two BPTT kernels — the ordered rank-`T` accumulate
//!   (`outer_acc_rev`) and the transposed-columns product
//!   (`matvec_t_cols`) — keep one accumulator per output in a register
//!   across the whole sum and add the terms in the order the per-step
//!   sweeps they replace did, vectorized across output columns;
//! * the int8 code pass ([`quant_scan_block`]) dots u8 codes in exact
//!   integer arithmetic, where any summation order yields the same value,
//!   and its f64 tail is one operand order in every arm.
//!
//! Levels are ordered: a kernel without an AVX-512 arm runs its AVX2 arm
//! at [`SimdLevel::Avx512`]. The int8 code pass has a 512-bit arm that
//! also needs `avx512vnni` ([`QuantArm`]).

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

/// The exact scan's squared distance from query `q` (squared norm `qn`)
/// to row `x` (squared norm `xn`): the dot from `+0.0` in ascending `p`
/// (the chain of [`crate::linalg::matmul_nt`] and [`dot_rows`]), then
/// `max(qn − 2·dot + xn, 0)` — clamped because it goes epsilon-negative
/// for near-identical rows, and `max` maps a NaN to `0.0`. The exact
/// top-k scores every row that its int8 bound lets through with this,
/// and its oracle every row.
#[inline]
pub fn scan_score(q: &[f64], qn: f64, x: &[f64], xn: f64) -> f64 {
    let mut s = 0.0;
    for (&a, &b) in q.iter().zip(x) {
        s += a * b;
    }
    (qn - 2.0 * s + xn).max(0.0)
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

/// Rows per tile of the code layout [`quant_scan_block`] reads.
pub const QUANT_TILE_ROWS: usize = 16;

/// Where code `p` of row `j` sits in a block of `d`-dimensional codes
/// laid out for [`quant_scan_block`]: tiles of [`QUANT_TILE_ROWS`] rows,
/// one after another, each `d` rounded up to a multiple of four bytes
/// per row; within a tile, 64-byte groups of four dimensions, each
/// holding the tile's rows in order, four bytes a row. One group is one
/// 512-bit load that gives sixteen rows four codes each. The padding
/// (dimensions past `d`, rows past the last) holds zero codes.
#[inline]
pub fn quant_code_at(d: usize, j: usize, p: usize) -> usize {
    j / QUANT_TILE_ROWS * quant_tile_bytes(d)
        + p / 4 * 4 * QUANT_TILE_ROWS
        + j % QUANT_TILE_ROWS * 4
        + p % 4
}

/// Bytes of one tile of `d`-dimensional codes (see [`quant_code_at`]).
#[inline]
pub fn quant_tile_bytes(d: usize) -> usize {
    QUANT_TILE_ROWS * d.next_multiple_of(4)
}

/// A query's u8 codes as [`quant_scan_block`] takes them: four to a
/// little-endian word, the last word zero-padded.
pub fn quant_query_words(codes: &[u8]) -> Vec<u32> {
    (codes.chunks(4))
        .map(|c| {
            let mut w = [0u8; 4];
            w[..c.len()].copy_from_slice(c);
            u32::from_le_bytes(w)
        })
        .collect()
}

/// The arm [`quant_scan_block`] runs at a level on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantArm {
    /// The scalar oracle.
    Scalar,
    /// 256-bit `vpmaddwd` dots.
    Avx2,
    /// 512-bit `vpdpbusd` dots: at [`SimdLevel::Avx512`] on a host with
    /// `avx512vnni`.
    Vnni,
}

impl QuantArm {
    /// The arm that runs at `level`: the widest the level allows and the
    /// host has.
    pub fn at(level: SimdLevel) -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if use_avx512(level) && std::arch::is_x86_feature_detected!("avx512vnni") {
                return Self::Vnni;
            }
            if use_avx2(level) {
                return Self::Avx2;
            }
        }
        let _ = level;
        Self::Scalar
    }

    /// Stable lowercase name (`"scalar"` / `"avx2"` / `"vnni"`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Vnni => "vnni",
        }
    }
}

/// One block of stored rows as [`quant_scan_block`] reads them: their
/// codes in the tiled layout of [`quant_code_at`] (the last tile whole)
/// and four per-row columns.
#[derive(Debug, Clone, Copy)]
pub struct QuantRows<'a> {
    /// The codes, `d` a row, in tiles of [`QUANT_TILE_ROWS`] rows.
    pub codes: &'a [u8],
    /// Per-row dequantization offset.
    pub offset: &'a [f64],
    /// Per-row dequantization scale.
    pub scale: &'a [f64],
    /// Per-row sum of the codes.
    pub code_sum: &'a [f64],
    /// Per-row squared norm of the dequantized row.
    pub dq_norm: &'a [f64],
}

/// The per-row limit [`quant_scan_block`] tests each row against: a row
/// of scale `s` is a hit iff its approximate distance is at or under
/// [`Self::at`]`(s) = (reach + s·factor)²·rho + slack` — the exact
/// top-k's lower-bound test (`DESIGN.md` §12), in this operand order in
/// every arm.
#[derive(Debug, Clone, Copy)]
pub struct QuantLimit {
    /// How far from the quantized query an answer can be, before the
    /// row's own error.
    pub reach: f64,
    /// A row's error bound per unit of its scale.
    pub factor: f64,
    /// The relative widening of the square.
    pub rho: f64,
    /// The absolute widening.
    pub slack: f64,
}

impl QuantLimit {
    /// The largest approximate distance a row of scale `scale` can have
    /// and be a hit.
    #[inline]
    pub fn at(&self, scale: f64) -> f64 {
        let r = self.reach + scale * self.factor;
        r * r * self.rho + self.slack
    }
}

/// Scores every row of a block against one quantized query: `out[j]` is
/// the approximate squared distance of row `j` (see [`QuantQueryTerms`]),
/// and bit `j % 64` of `hits[j / 64]` is set iff
/// `out[j] <= limit.at(scale[j])` (the other bits are cleared). `q` is
/// the query from [`quant_query_words`], `4·q.len()` codes wide like the
/// rows.
///
/// One dispatched call scores the whole block ([`QuantArm::at`] picks the
/// arm). The VNNI arm dots sixteen rows with one `vpdpbusd` per four
/// dimensions, the query shifted to i8 (`D = Σx·(q − 128) + 128·Σx`,
/// exact in i32 up to the 32768-dimension cap: `32768·255·128 < 2³¹`),
/// four tiles at a time; the AVX2 arm zero-extends to i16 and folds
/// `vpmaddwd` pairs. Both then run the affine tail lane-wise in
/// `quant_score`'s operand order, mul and add separate, and test it
/// against the row's limit in the register. The dots are exact integers
/// in every arm and the tail is the same operations in the same order,
/// so all arms agree bit for bit.
#[inline]
#[allow(unsafe_code)]
pub fn quant_scan_block(
    level: SimdLevel,
    q: &[u32],
    t: &QuantQueryTerms,
    rows: &QuantRows<'_>,
    limit: &QuantLimit,
    out: &mut [f64],
    hits: &mut [u64],
) {
    let (d, n) = (4 * q.len(), out.len());
    assert!(d <= 32768, "quant_scan_block: dimension cap");
    assert_eq!(
        rows.codes.len(),
        n.div_ceil(QUANT_TILE_ROWS) * quant_tile_bytes(d),
        "codes/out shape mismatch"
    );
    assert!(
        [rows.offset, rows.scale, rows.code_sum, rows.dq_norm]
            .iter()
            .all(|c| c.len() == n),
        "row-statistic column length mismatch"
    );
    assert_eq!(hits.len(), n.div_ceil(64), "one hit word per 64 rows");
    hits.fill(0);
    match QuantArm::at(level) {
        // SAFETY: the arm's features were just detected; shapes checked
        // above. A block without a dimension has no code bytes to read.
        #[cfg(target_arch = "x86_64")]
        QuantArm::Vnni if d > 0 => unsafe {
            avx512::quant_scan_block(q, t, rows, limit, out, hits)
        },
        #[cfg(target_arch = "x86_64")]
        QuantArm::Avx2 if d > 0 => unsafe { avx2::quant_scan_block(q, t, rows, limit, out, hits) },
        _ => {
            // A tile's sixteen dots at a time, one group of four codes a
            // row after another.
            for j0 in (0..n).step_by(QUANT_TILE_ROWS) {
                let tile = &rows.codes[j0 / QUANT_TILE_ROWS * quant_tile_bytes(d)..];
                let mut dots = [0u64; QUANT_TILE_ROWS];
                for (group, &w) in tile.chunks_exact(4 * QUANT_TILE_ROWS).zip(q) {
                    for (dot, x) in dots.iter_mut().zip(group.chunks_exact(4)) {
                        let pairs = w.to_le_bytes().into_iter().zip(x);
                        *dot += pairs
                            .map(|(a, &b)| u64::from(a) * u64::from(b))
                            .sum::<u64>();
                    }
                }
                for (j, &dot) in (j0..n).zip(&dots) {
                    out[j] = quant_row(t, rows, j, dot as f64, limit, hits);
                }
            }
        }
    }
}

/// Row `j`'s approximate distance from its dot `d`, its hit bit set if it
/// is at or under its limit — the scalar arm, and the vector arms' ragged
/// last tile.
#[inline]
fn quant_row(
    t: &QuantQueryTerms,
    rows: &QuantRows<'_>,
    j: usize,
    d: f64,
    limit: &QuantLimit,
    hits: &mut [u64],
) -> f64 {
    let a = quant_score(
        t,
        rows.offset[j],
        rows.scale[j],
        rows.code_sum[j],
        rows.dq_norm[j],
        d,
    );
    hits[j / 64] |= u64::from(a <= limit.at(rows.scale[j])) << (j % 64);
    a
}

/// Asks for the cache lines of `data` ahead of a read: a hint that
/// changes no result (the exact scan issues it for the rows it is about
/// to score in f64, which sit at random places in the store).
#[inline]
#[allow(unsafe_code)]
pub fn prefetch(data: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(last) = data.last() {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        for line in data
            .chunks(8)
            .map(|c| c.as_ptr())
            .chain([last as *const f64])
        {
            // SAFETY: a prefetch reads nothing architecturally; the
            // addresses are inside `data`.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line.cast()) };
        }
    }
    let _ = data;
}

/// The `unsafe` lives only here: `#[target_feature(enable = "avx2")]`
/// kernels called exclusively through the safe dispatchers above after
/// bounds checks, and only when runtime detection reported AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{RowSource, MR, NR};
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

    /// The affine tail of four rows from `j`, lane-wise in
    /// [`super::quant_score`]'s operand order, stored to `out[j..j + 4]`;
    /// returns the rows at or under their limit as four bits.
    ///
    /// # Safety
    /// AVX2 must be available; every column and `out` must hold `j + 4`
    /// rows.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quant_tail4(
        t: &super::QuantQueryTerms,
        rows: &super::QuantRows<'_>,
        dot4: __m256d,
        limit: &super::QuantLimit,
        out: &mut [f64],
        j: usize,
    ) -> u64 {
        let vxo = _mm256_loadu_pd(rows.offset.as_ptr().add(j));
        let vxs = _mm256_loadu_pd(rows.scale.as_ptr().add(j));
        let vsx = _mm256_loadu_pd(rows.code_sum.as_ptr().add(j));
        let vdn = _mm256_loadu_pd(rows.dq_norm.as_ptr().add(j));
        let m1 = _mm256_mul_pd(_mm256_set1_pd(t.dqo), vxo);
        let m2 = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(t.qo), vxs), vsx);
        let m3 = _mm256_mul_pd(
            _mm256_mul_pd(vxo, _mm256_set1_pd(t.qs)),
            _mm256_set1_pd(t.qsum),
        );
        let m4 = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(t.qs), vxs), dot4);
        let cross = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(m1, m2), m3), m4);
        let two_cross = _mm256_mul_pd(_mm256_set1_pd(2.0), cross);
        let val = _mm256_add_pd(_mm256_sub_pd(_mm256_set1_pd(t.qn), two_cross), vdn);
        // `max(NaN, 0)` is 0, as in `f64::max`: the second operand wins.
        let a = _mm256_max_pd(val, _mm256_setzero_pd());
        _mm256_storeu_pd(out.as_mut_ptr().add(j), a);
        let r = _mm256_add_pd(
            _mm256_set1_pd(limit.reach),
            _mm256_mul_pd(vxs, _mm256_set1_pd(limit.factor)),
        );
        let lim = _mm256_add_pd(
            _mm256_mul_pd(_mm256_mul_pd(r, r), _mm256_set1_pd(limit.rho)),
            _mm256_set1_pd(limit.slack),
        );
        _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a, lim)) as u64
    }

    /// [`super::quant_scan_block`] one tile at a time: per four-dimension
    /// group the query's four codes, zero-extended to i16 and repeated
    /// for four rows, `vpmaddwd` against each quarter of the group (four
    /// rows), pairs summed into i32 (`≤ 32768·255² < 2³¹`); a `hadd`
    /// and a lane permute fold each tile's pairs into its sixteen dots.
    ///
    /// # Safety
    /// AVX2 must be available; shapes as the dispatcher checks them.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quant_scan_block(
        q: &[u32],
        t: &super::QuantQueryTerms,
        rows: &super::QuantRows<'_>,
        limit: &super::QuantLimit,
        out: &mut [f64],
        hits: &mut [u64],
    ) {
        let n = out.len();
        let mut j = 0;
        for tile in rows.codes.chunks_exact(64 * q.len()) {
            let mut acc = [_mm256_setzero_si256(); 4];
            for (group, &w) in tile.chunks_exact(64).zip(q) {
                let qv = _mm256_cvtepu8_epi16(_mm_set1_epi32(w as i32));
                for (h, a) in acc.iter_mut().enumerate() {
                    let xv =
                        _mm256_cvtepu8_epi16(_mm_loadu_si128(group.as_ptr().add(16 * h).cast()));
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(qv, xv));
                }
            }
            // hadd gives rows [0, 1, 4, 5 | 2, 3, 6, 7] of a pair of
            // quarters; the permute puts them in order.
            let fold = |a, b| _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_hadd_epi32(a, b));
            let halves = [fold(acc[0], acc[1]), fold(acc[2], acc[3])];
            if j + super::QUANT_TILE_ROWS <= n {
                let mut mask = 0u64;
                for (h, &dots) in halves.iter().enumerate() {
                    let lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(dots));
                    let hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(dots));
                    mask |= quant_tail4(t, rows, lo, limit, out, j + 8 * h) << (8 * h);
                    mask |= quant_tail4(t, rows, hi, limit, out, j + 8 * h + 4) << (8 * h + 4);
                }
                hits[j / 64] |= mask << (j % 64);
            } else {
                let mut dots = [0i32; super::QUANT_TILE_ROWS];
                for (h, &half) in halves.iter().enumerate() {
                    _mm256_storeu_si256(dots.as_mut_ptr().add(8 * h).cast(), half);
                }
                for (at, &dot) in (j..n).zip(&dots) {
                    out[at] = super::quant_row(t, rows, at, f64::from(dot), limit, hits);
                }
            }
            j += super::QUANT_TILE_ROWS;
        }
    }
}

/// The 512-bit kernels, under the same rules as `avx2`: the GEMM tile,
/// called only through [`gemm_stripe_nt`] after its bounds checks and
/// only when runtime detection reported AVX-512, and the VNNI int8 pass,
/// called only through [`quant_scan_block`] when it also reported
/// `avx512vnni`.
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

    /// The affine tail of eight rows from `j` ([`super::quant_score`]'s
    /// operand order, lane-wise) from their shifted dots `acc` — the dot
    /// is `acc + 128·Σx`, an exact integer in f64 — stored to
    /// `out[j..j + 8]`; returns the rows at or under their limit as eight
    /// bits.
    ///
    /// # Safety
    /// AVX-512F must be available; every column and `out` must hold
    /// `j + 8` rows.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn quant_tail8(
        t: &super::QuantQueryTerms,
        rows: &super::QuantRows<'_>,
        acc: __m256i,
        limit: &super::QuantLimit,
        out: &mut [f64],
        j: usize,
    ) -> u64 {
        let vxo = _mm512_loadu_pd(rows.offset.as_ptr().add(j));
        let vxs = _mm512_loadu_pd(rows.scale.as_ptr().add(j));
        let vsx = _mm512_loadu_pd(rows.code_sum.as_ptr().add(j));
        let vdn = _mm512_loadu_pd(rows.dq_norm.as_ptr().add(j));
        let dot = _mm512_add_pd(
            _mm512_cvtepi32_pd(acc),
            _mm512_mul_pd(_mm512_set1_pd(128.0), vsx),
        );
        let m1 = _mm512_mul_pd(_mm512_set1_pd(t.dqo), vxo);
        let m2 = _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(t.qo), vxs), vsx);
        let m3 = _mm512_mul_pd(
            _mm512_mul_pd(vxo, _mm512_set1_pd(t.qs)),
            _mm512_set1_pd(t.qsum),
        );
        let m4 = _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(t.qs), vxs), dot);
        let cross = _mm512_add_pd(_mm512_add_pd(_mm512_add_pd(m1, m2), m3), m4);
        let two_cross = _mm512_mul_pd(_mm512_set1_pd(2.0), cross);
        let val = _mm512_add_pd(_mm512_sub_pd(_mm512_set1_pd(t.qn), two_cross), vdn);
        // `max(NaN, 0)` is 0, as in `f64::max`: the second operand wins.
        let a = _mm512_max_pd(val, _mm512_setzero_pd());
        _mm512_storeu_pd(out.as_mut_ptr().add(j), a);
        let r = _mm512_add_pd(
            _mm512_set1_pd(limit.reach),
            _mm512_mul_pd(vxs, _mm512_set1_pd(limit.factor)),
        );
        let lim = _mm512_add_pd(
            _mm512_mul_pd(_mm512_mul_pd(r, r), _mm512_set1_pd(limit.rho)),
            _mm512_set1_pd(limit.slack),
        );
        u64::from(_mm512_cmp_pd_mask::<_CMP_LE_OQ>(a, lim))
    }

    /// `T` tiles from the one holding row `j`: per four-dimension group
    /// one `vpdpbusd` a tile (the codes as u8, the query word as i8
    /// `q − 128`), `T` independent accumulation chains, then the tail of
    /// each row below `out.len()`.
    ///
    /// # Safety
    /// AVX-512F and AVX-512 VNNI must be available; `rows` must hold the
    /// `T` tiles from row `j`, shapes as the dispatcher checks them.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vnni")]
    unsafe fn quant_tiles<const T: usize>(
        q: &[u32],
        t: &super::QuantQueryTerms,
        rows: &super::QuantRows<'_>,
        limit: &super::QuantLimit,
        out: &mut [f64],
        hits: &mut [u64],
        j: usize,
    ) {
        let tile = 64 * q.len();
        let tiles = rows.codes.as_ptr().add(j / super::QUANT_TILE_ROWS * tile);
        let mut acc = [_mm512_setzero_si512(); T];
        for (g, &w) in q.iter().enumerate() {
            let qv = _mm512_set1_epi32((w ^ 0x8080_8080) as i32);
            for (i, a) in acc.iter_mut().enumerate() {
                let xv = _mm512_loadu_si512(tiles.add(i * tile + 64 * g).cast());
                *a = _mm512_dpbusd_epi32(*a, xv, qv);
            }
        }
        let n = out.len();
        for (i, &a) in acc.iter().enumerate() {
            let at = j + super::QUANT_TILE_ROWS * i;
            let halves = [_mm512_castsi512_si256(a), _mm512_extracti64x4_epi64::<1>(a)];
            if at + super::QUANT_TILE_ROWS <= n {
                let lo = quant_tail8(t, rows, halves[0], limit, out, at);
                let hi = quant_tail8(t, rows, halves[1], limit, out, at + 8);
                hits[at / 64] |= (lo | hi << 8) << (at % 64);
            } else {
                let mut dots = [0i32; super::QUANT_TILE_ROWS];
                for (h, &half) in halves.iter().enumerate() {
                    _mm256_storeu_si256(dots.as_mut_ptr().add(8 * h).cast(), half);
                }
                for (row, &dot) in (at..n).zip(&dots) {
                    let d = f64::from(dot) + 128.0 * rows.code_sum[row];
                    out[row] = super::quant_row(t, rows, row, d, limit, hits);
                }
            }
        }
    }

    /// [`super::quant_scan_block`] four tiles (64 rows) at a time, then
    /// one at a time.
    ///
    /// # Safety
    /// AVX-512F and AVX-512 VNNI must be available; shapes as the
    /// dispatcher checks them.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub(super) unsafe fn quant_scan_block(
        q: &[u32],
        t: &super::QuantQueryTerms,
        rows: &super::QuantRows<'_>,
        limit: &super::QuantLimit,
        out: &mut [f64],
        hits: &mut [u64],
    ) {
        let n = out.len();
        let mut j = 0;
        while j + 4 * super::QUANT_TILE_ROWS <= n {
            quant_tiles::<4>(q, t, rows, limit, out, hits, j);
            j += 4 * super::QUANT_TILE_ROWS;
        }
        while j < n {
            quant_tiles::<1>(q, t, rows, limit, out, hits, j);
            j += super::QUANT_TILE_ROWS;
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
    /// the scalar one: every such dispatcher asks [`use_avx2`], which
    /// admits `Avx512` wherever the host has AVX2. The int8 pass, whose
    /// 512-bit arm also needs VNNI, takes its AVX2 arm at `Avx512` on a
    /// host without it. Bits cannot tell arms apart, so this asks the
    /// dispatch itself.
    #[test]
    fn kernels_without_a_512_arm_run_the_avx2_arm_at_avx512() {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            assert_eq!(use_avx2(SimdLevel::Avx512), avx2);
            assert_eq!(use_avx2(SimdLevel::Avx2), avx2);
            assert!(!use_avx2(SimdLevel::Scalar));
        }
        let (at2, at512) = (
            QuantArm::at(SimdLevel::Avx2),
            QuantArm::at(SimdLevel::Avx512),
        );
        assert!(
            at512 == at2 || at512 == QuantArm::Vnni,
            "{at512:?} at avx512"
        );
        assert_ne!(at2, QuantArm::Vnni);
        assert_eq!(QuantArm::at(SimdLevel::Scalar), QuantArm::Scalar);
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

    /// The exact `Σ q·x` of row-major codes, as u64.
    fn dot_u8(q: &[u8], x: &[u8]) -> u64 {
        q.iter()
            .zip(x)
            .map(|(&a, &b)| u64::from(a) * u64::from(b))
            .sum()
    }

    /// The integer dot inside [`quant_scan_block`] is exact at every
    /// length and level: with `qs = 1` and a scale of `−1/2` the score is
    /// the dot itself. Lengths around the 4-code word and the 16-byte
    /// step, and all-255 codes up to the 32768-dimension cap, where the
    /// dot (`32768·255² < 2³¹`) is at its largest.
    #[test]
    fn dot_u8_matches_scalar_all_lengths() {
        let mut seed = 17u64;
        let t = QuantQueryTerms {
            dqo: 0.0,
            qo: 0.0,
            qs: 1.0,
            qsum: 0.0,
            qn: 0.0,
        };
        let mut shapes: Vec<(Vec<u8>, Vec<u8>)> = [0usize, 1, 15, 16, 17, 128, 333]
            .iter()
            .map(|&n| {
                let mut code = || (lcg(&mut seed) >> 32) as u8;
                (
                    (0..n).map(|_| code()).collect(),
                    (0..17 * n).map(|_| code()).collect(),
                )
            })
            .collect();
        for n in [1024, 32768] {
            shapes.push((vec![255; n], vec![255; 17 * n]));
        }
        for (q, x) in &shapes {
            let (d, rows) = (q.len(), 17);
            let want: Vec<f64> = (0..rows)
                .map(|j| dot_u8(q, &x[j * d..(j + 1) * d]) as f64)
                .collect();
            let code_sum: Vec<f64> = (0..rows)
                .map(|j| x[j * d..(j + 1) * d].iter().map(|&c| f64::from(c)).sum())
                .collect();
            let (zeros, scale) = (vec![0.0; rows], vec![-0.5; rows]);
            let codes = tiled(d, rows, x);
            let cols = QuantRows {
                codes: &codes,
                offset: &zeros,
                scale: &scale,
                code_sum: &code_sum,
                dq_norm: &zeros,
            };
            let limit = QuantLimit {
                reach: 0.0,
                factor: 0.0,
                rho: 1.0,
                slack: 0.0,
            };
            for level in SimdLevel::ALL {
                let (mut out, mut hits) = (vec![0.0; rows], [0u64]);
                let q = quant_query_words(q);
                quant_scan_block(level, &q, &t, &cols, &limit, &mut out, &mut hits);
                assert_eq!(out, want, "{level:?} d={d}");
            }
        }
    }

    /// Row-major codes laid out as [`quant_scan_block`] reads them, the
    /// last tile padded with zero rows.
    fn tiled(d: usize, rows: usize, row_major: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; rows.div_ceil(QUANT_TILE_ROWS) * quant_tile_bytes(d)];
        for j in 0..rows {
            for p in 0..d {
                out[quant_code_at(d, j, p)] = row_major[j * d + p];
            }
        }
        out
    }

    /// Every arm scores a block bit for bit as the scalar arm does, and
    /// the scalar arm as the row-major `dot_u8` and `quant_score` do, and
    /// every arm sets exactly the hit bits of the rows at or under their
    /// limit (one near the median, one that grows with the row's scale,
    /// 0, `+∞`, and a NaN that admits nothing): on
    /// ragged last tiles (rows % 16 ≠ 0, and whole tiles on either side
    /// of the VNNI arm's four-tile step), dimensions on either side of the
    /// four-code word, and codes at 0 and 255 in the query and rows (the
    /// ends of the VNNI arm's i8 shift). The VNNI arm runs where the host
    /// has it; the test prints which arm ran at `Avx512`.
    #[test]
    fn quant_scan_block_matches_scalar_bitwise_all_shapes() {
        println!(
            "quant_scan_block at avx512: {}",
            QuantArm::at(SimdLevel::Avx512).name()
        );
        let mut seed = 23u64;
        for d in [1usize, 3, 4, 15, 16, 17, 32, 33, 77] {
            for rows in [0usize, 1, 3, 4, 5, 11, 16, 17, 47, 64, 65, 100, 512] {
                for ends in [false, true] {
                    let mut code = || match (ends, lcg(&mut seed) >> 62) {
                        (true, 0) => 0u8,
                        (true, 1) => 255,
                        _ => (lcg(&mut seed) >> 32) as u8,
                    };
                    let q: Vec<u8> = (0..d).map(|_| code()).collect();
                    let codes: Vec<u8> = (0..rows * d).map(|_| code()).collect();
                    let stat = |s: &mut u64| {
                        (0..rows)
                            .map(|_| (lcg(s) >> 11) as f64 / (1u64 << 55) as f64)
                            .collect()
                    };
                    let (xo, xs): (Vec<f64>, Vec<f64>) = (stat(&mut seed), stat(&mut seed));
                    let dn: Vec<f64> = stat(&mut seed);
                    let sxv: Vec<f64> = (codes.chunks(d.max(1)).take(rows))
                        .map(|r| r.iter().map(|&c| f64::from(c)).sum())
                        .collect();
                    let t = QuantQueryTerms {
                        dqo: d as f64 * 0.125,
                        qo: 0.125,
                        qs: 0.03,
                        qsum: q.iter().map(|&c| f64::from(c)).sum(),
                        qn: 7.5,
                    };
                    let (words, block) = (quant_query_words(&q), tiled(d, rows, &codes));
                    let cols = QuantRows {
                        codes: &block,
                        offset: &xo,
                        scale: &xs,
                        code_sum: &sxv,
                        dq_norm: &dn,
                    };
                    let scored = |level: SimdLevel, limit: &QuantLimit| {
                        let mut out = vec![0.0f64; rows];
                        let mut hits = vec![u64::MAX; rows.div_ceil(64)];
                        quant_scan_block(level, &words, &t, &cols, limit, &mut out, &mut hits);
                        (out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), hits)
                    };
                    let limit = |reach: f64, factor: f64| QuantLimit {
                        reach,
                        factor,
                        rho: 1.0 + 2f64.powi(-40),
                        slack: 1e-12,
                    };
                    let (narrow, _) = scored(SimdLevel::Scalar, &limit(0.0, 0.0));
                    let want: Vec<u64> = (0..rows)
                        .map(|j| {
                            let dot = dot_u8(&q, &codes[j * d..(j + 1) * d]);
                            quant_score(&t, xo[j], xs[j], sxv[j], dn[j], dot as f64).to_bits()
                        })
                        .collect();
                    assert_eq!(narrow, want, "scalar d={d} rows={rows}");
                    let mut sorted: Vec<f64> = want.iter().map(|&b| f64::from_bits(b)).collect();
                    sorted.sort_by(f64::total_cmp);
                    let median = sorted.get(rows / 2).copied().unwrap_or(0.0);
                    let limits = [
                        limit(median.sqrt(), 0.0),
                        limit(0.5 * median.sqrt(), 40.0),
                        limit(0.0, 0.0),
                        limit(f64::INFINITY, 1.0),
                        limit(f64::NAN, 1.0),
                    ];
                    for limit in &limits {
                        let mut hits = vec![0u64; rows.div_ceil(64)];
                        for (j, &a) in want.iter().enumerate() {
                            let hit = f64::from_bits(a) <= limit.at(xs[j]);
                            hits[j / 64] |= u64::from(hit) << (j % 64);
                        }
                        for level in SimdLevel::ALL {
                            let got = scored(level, limit);
                            assert_eq!(
                                got,
                                (want.clone(), hits.clone()),
                                "{level:?} d={d} rows={rows} {limit:?}"
                            );
                        }
                    }
                }
            }
        }
        // Saturation-adjacent extremes exercise the i32 dot bound, and a
        // large-qn query exercises the max(0, ·) clamp in every arm.
        let (d, rows) = (64, 21);
        let codes = tiled(d, rows, &vec![255u8; d * rows]);
        let zeros = vec![0.0f64; rows];
        let t = QuantQueryTerms {
            dqo: 0.0,
            qo: 0.0,
            qs: 1.0,
            qsum: 0.0,
            qn: 0.0,
        };
        let (scale, sums) = (vec![1.0; rows], vec![255.0 * 64.0; rows]);
        let cols = QuantRows {
            codes: &codes,
            offset: &zeros,
            scale: &scale,
            code_sum: &sums,
            dq_norm: &zeros,
        };
        for level in SimdLevel::ALL {
            let (mut out, mut hits) = (vec![1.0f64; rows], [0u64]);
            let q = quant_query_words(&[255; 64]);
            let limit = QuantLimit {
                reach: 0.0,
                factor: 0.0,
                rho: 1.0,
                slack: 0.0,
            };
            quant_scan_block(level, &q, &t, &cols, &limit, &mut out, &mut hits);
            // qn − 2·dot + dn = −2·64·255² clamps to 0 in every lane.
            assert_eq!(hits, [(1 << rows) - 1], "{level:?}");
            assert_eq!(out, vec![0.0; rows], "{level:?}");
        }
    }
}
