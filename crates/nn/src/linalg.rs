//! Dense row-major matrices and the small kernel set RNN training needs.

pub use crate::activation::sigmoid;
use crate::activation::{exp_slice, sigmoid_slice, tanh_slice};
use crate::simd::{self, MR, NR};
use neutraj_obs::simd::SimdLevel;
use neutraj_trajectory::rng::Rng;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialized matrix: entries uniform in
    /// `±sqrt(6 / (rows + cols))`. Deterministic given `seed`.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Builds a matrix from row-major data. Panics on shape mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sets every entry to zero (for gradient reuse between steps).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// `y = A·x` (allocates `y`). Panics when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y += A·x` into a caller-provided buffer of length `rows`.
    ///
    /// `A·x` is `x·Aᵀ` with one row on the left, so it runs on the small-`m`
    /// arm of [`matmul_nt`] (four rows of `A` per vector): the per-sequence
    /// forwards use the same kernels as the lockstep ones, and every
    /// product is the single ascending-`p` chain it always was.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into_with_level(neutraj_obs::simd::level(), x, y);
    }

    /// [`Self::matvec_into`] with the dispatch level pinned (see
    /// [`matmul_nt_with_level`]).
    pub fn matvec_into_with_level(&self, level: SimdLevel, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        // The kernel overwrites its output; `y` accumulates. Products
        // land in a stack block first. (A matrix without columns has no
        // data to chunk and adds nothing.)
        let mut block = [0.0; 64];
        let rows_of_64 = self.data.chunks(64 * self.cols.max(1));
        for (rows, ys) in rows_of_64.zip(y.chunks_mut(64)) {
            let acc = &mut block[..ys.len()];
            simd::matmul_nt_direct(level, x, rows, acc, 1, ys.len(), self.cols);
            add_assign(ys, acc);
        }
    }

    /// `y += Aᵀ·x` into a caller-provided buffer of length `cols`.
    pub fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x length");
        assert_eq!(y.len(), self.cols, "matvec_t: y length");
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (yc, &a) in y.iter_mut().zip(row) {
                *yc += xr * a;
            }
        }
    }

    /// Elementwise `self += other` (merging per-thread gradient buffers).
    /// Panics on shape mismatch.
    pub fn add_from(&mut self, other: &Mat) {
        assert_eq!(self.rows, other.rows, "add_from: rows");
        assert_eq!(self.cols, other.cols, "add_from: cols");
        add_assign(&mut self.data, &other.data);
    }

    /// Rank-1 update `A += u·vᵀ` (gradient accumulation of linear layers).
    pub fn outer_acc(&mut self, u: &[f64], v: &[f64]) {
        assert_eq!(u.len(), self.rows, "outer_acc: u length");
        assert_eq!(v.len(), self.cols, "outer_acc: v length");
        for (r, &ur) in u.iter().enumerate() {
            if ur == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, &b) in row.iter_mut().zip(v) {
                *a += ur * b;
            }
        }
    }

    /// `self += Σ_t u_t ⊗ v_t` over the rows of `u` (`T × rows`) and `v`
    /// (`T × cols`), last row first — what a backward sweep over `T`
    /// steps adds with one [`Self::outer_acc`] per step, as a single
    /// ordered GEMM that reads and writes `self` once. Bit-identical to
    /// that sweep on a zeroed-then-accumulated gradient (the zero rule is
    /// on `simd::outer_acc_rev`).
    pub fn outer_acc_rows_rev(&mut self, u: &[f64], v: &[f64]) {
        self.outer_acc_rows_rev_with_level(neutraj_obs::simd::level(), u, v);
    }

    /// [`Self::outer_acc_rows_rev`] with the dispatch level pinned (see
    /// [`matmul_nt_with_level`]).
    pub fn outer_acc_rows_rev_with_level(&mut self, level: SimdLevel, u: &[f64], v: &[f64]) {
        assert!(self.rows > 0, "outer_acc_rows_rev: no rows");
        assert_eq!(u.len() % self.rows, 0, "outer_acc_rows_rev: U shape");
        let steps = u.len() / self.rows;
        simd::outer_acc_rev(level, &mut self.data, self.rows, self.cols, u, v, steps);
    }

    /// `y = (Aᵀ·x)[col0..col0 + y.len()]` (overwritten): the column slice
    /// of [`Self::matvec_t_into`] a caller needs, each output one
    /// ascending-row chain held in a register.
    pub fn matvec_t_cols_into(&self, x: &[f64], col0: usize, y: &mut [f64]) {
        self.matvec_t_cols_into_with_level(neutraj_obs::simd::level(), x, col0, y);
    }

    /// [`Self::matvec_t_cols_into`] with the dispatch level pinned (see
    /// [`matmul_nt_with_level`]).
    pub fn matvec_t_cols_into_with_level(
        &self,
        level: SimdLevel,
        x: &[f64],
        col0: usize,
        y: &mut [f64],
    ) {
        assert_eq!(x.len(), self.rows, "matvec_t_cols: x length");
        simd::matvec_t_cols(level, &self.data, self.cols, x, col0, y);
    }
}

/// Below this many `A` rows, packing the `B` panel costs about as much as
/// the multiply it would accelerate; use the direct kernel instead
/// ([`simd::matmul_nt_direct`], vectorized across `B` rows).
pub(crate) const PACK_MIN_M: usize = 8;
// Every call the packed kernel declines must fit the vector arm.
const _: () = assert!(PACK_MIN_M <= simd::DIRECT_MAX_M + 1);

thread_local! {
    /// Reused `B`-panel scratch, so the `matmul_nt` calls that pack per
    /// call (k-means assignment blocks, tests) allocate nothing in steady
    /// state. The lockstep recurrent step does not use it: its weights
    /// are packed once per call into the workspace ([`PackedNt`]).
    static PACK_SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `C = A·Bᵀ` for row-major slices: `A` is `m×k`, `B` is `n×k`, `C` is
/// `m×n` (overwritten).
///
/// The kernel packs `B` into `k`-major panels of `NR` columns
/// (`pack_nt`), then runs an `MR×NR` register tile over each `MR`-row
/// stripe of `A` and each panel (`matmul_nt_panels`): every `k`
/// iteration issues `MR·NR` independent multiply-adds fed by one
/// contiguous panel load and `MR` broadcasts, which hides the add latency
/// and lets the tile vectorize across the accumulators. Partial edge
/// tiles are padded inside the packed panels (their lanes are computed
/// and discarded, never stored). Below `PACK_MIN_M = 8` rows it packs
/// nothing and runs the unpacked small-`m` arm (`simd::matmul_nt_direct`).
///
/// Every output element still owns a *single* accumulator that sums
/// `a[i,p]·b[j,p]` in ascending `p` order — exactly the order
/// [`Mat::matvec_into`] and [`dot`] use — so a batched GEMM row is
/// bit-identical to the corresponding mat-vec / dot-product result. That
/// identity is what lets the lockstep batched RNN forward and the
/// norm-trick scans promise bit-equality with their scalar counterparts.
pub fn matmul_nt(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    matmul_nt_with_level(neutraj_obs::simd::level(), a, b, c, m, n, k);
}

/// [`matmul_nt`] with the micro-kernel dispatch level pinned — the
/// bit-identity tests force every level in one process. Production
/// callers use [`matmul_nt`], which follows the process-wide cached
/// [`neutraj_obs::simd::level`].
pub fn matmul_nt_with_level(
    level: SimdLevel,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k, "matmul_nt: A shape");
    assert_eq!(b.len(), n * k, "matmul_nt: B shape");
    assert_eq!(c.len(), m * n, "matmul_nt: C shape");
    if m < PACK_MIN_M {
        simd::matmul_nt_direct(level, a, b, c, m, n, k);
        return;
    }
    PACK_SCRATCH.with(|scratch| {
        let panels = &mut *scratch.borrow_mut();
        pack_nt(b, n, k, panels);
        matmul_nt_panels(level, a, panels, c, m, n, k);
    });
}

/// Packs the row-major `n×k` `B` of `A·Bᵀ` into `panels`: panel `jt`
/// holds columns `jt·NR..` `k`-major, so the tile's per-`p` loads are
/// contiguous. Padding lanes of a partial final panel are left as stale
/// scratch — the tile computes them into accumulators that are never
/// stored.
fn pack_nt(b: &[f64], n: usize, k: usize, panels: &mut Vec<f64>) {
    let ntiles = n.div_ceil(NR);
    panels.resize(ntiles * k * NR, 0.0);
    for jt in 0..ntiles {
        let j0 = jt * NR;
        let panel = &mut panels[jt * k * NR..(jt + 1) * k * NR];
        for jj in 0..(n - j0).min(NR) {
            let brow = &b[(j0 + jj) * k..(j0 + jj + 1) * k];
            for (p, &v) in brow.iter().enumerate() {
                panel[p * NR + jj] = v;
            }
        }
    }
}

/// The product half of [`matmul_nt`]: `C = A·Bᵀ` over `B`'s panels from
/// [`pack_nt`], one [`simd::gemm_stripe_nt`] per `MR` rows of `A`. A
/// short last stripe repeats its last row in the missing ones (computed,
/// never stored).
fn matmul_nt_panels(
    level: SimdLevel,
    a: &[f64],
    panels: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    let mut i = 0;
    while i < m {
        let mh = (m - i).min(MR);
        let arows: [&[f64]; MR] = std::array::from_fn(|r| {
            let row = i + r.min(mh - 1);
            &a[row * k..(row + 1) * k]
        });
        simd::gemm_stripe_nt(level, arows, panels, &mut c[i * n..(i + mh) * n], n);
        i += MR;
    }
}

/// The `B` of many `C = A·Bᵀ` products with one `B` — a recurrent cell's
/// step weights, which every lockstep timestep multiplies by a new stack
/// of `z` rows — packed once. [`Self::matmul`] is [`matmul_nt_with_level`]
/// without the per-call packing: the same panels, the same kernels, the
/// same bits. The panels live in caller-owned scratch (a
/// [`crate::Workspace`] buffer) and are packed from the weights as they
/// are now, so nothing can go stale when an optimizer moves them.
pub(crate) struct PackedNt<'a> {
    b: &'a Mat,
    /// `b`'s panels; empty when no product may reach `PACK_MIN_M` rows.
    panels: &'a [f64],
}

impl<'a> PackedNt<'a> {
    /// Packs `b` into `buf` if a product of up to `max_m` rows may take
    /// the packed kernel (`max_m ≥ PACK_MIN_M`); a narrower batch packs
    /// nothing and leaves `buf` untouched.
    pub(crate) fn new(b: &'a Mat, max_m: usize, buf: &'a mut Vec<f64>) -> Self {
        let panels: &'a [f64] = if max_m >= PACK_MIN_M {
            pack_nt(b.as_slice(), b.rows(), b.cols(), buf);
            buf
        } else {
            &[]
        };
        Self { b, panels }
    }

    /// `C = A·Bᵀ` for the `m` rows of `A` (`m` no more than the `max_m`
    /// the panels were packed for), bit for bit [`matmul_nt_with_level`].
    pub(crate) fn matmul(&self, level: SimdLevel, a: &[f64], c: &mut [f64], m: usize) {
        let (n, k) = (self.b.rows(), self.b.cols());
        assert_eq!(a.len(), m * k, "matmul_nt: A shape");
        assert_eq!(c.len(), m * n, "matmul_nt: C shape");
        if m < PACK_MIN_M {
            simd::matmul_nt_direct(level, a, self.b.as_slice(), c, m, n, k);
        } else {
            matmul_nt_panels(level, a, self.panels, c, m, n, k);
        }
    }
}

/// `C = A·B` for row-major slices: `A` is `m×k`, `B` is `k×n`, `C` is
/// `m×n` (overwritten).
///
/// Register-tiled like [`matmul_nt`]; each output element is one
/// accumulator summed in ascending `p` order.
pub fn matmul(a: &[f64], b: &[f64], c: &mut [f64], m: usize, n: usize, k: usize) {
    matmul_with_level(neutraj_obs::simd::level(), a, b, c, m, n, k);
}

/// [`matmul`] with the micro-kernel dispatch level pinned (see
/// [`matmul_nt_with_level`]).
pub fn matmul_with_level(
    level: SimdLevel,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k, "matmul: A shape");
    assert_eq!(b.len(), k * n, "matmul: B shape");
    assert_eq!(c.len(), m * n, "matmul: C shape");
    let mut i = 0;
    while i < m {
        let mh = (m - i).min(MR);
        let mut j = 0;
        while j < n {
            let nh = (n - j).min(NR);
            if mh == MR && nh == NR {
                let mut acc = [[0.0f64; NR]; MR];
                let arows: [&[f64]; MR] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
                simd::gemm_tile_nn(level, arows, b, n, j, &mut acc);
                for (ii, accr) in acc.iter().enumerate() {
                    c[(i + ii) * n + j..(i + ii) * n + j + NR].copy_from_slice(accr);
                }
            } else {
                for ii in 0..mh {
                    for jj in 0..nh {
                        let mut acc = 0.0;
                        for p in 0..k {
                            acc += a[(i + ii) * k + p] * b[p * n + j + jj];
                        }
                        c[(i + ii) * n + j + jj] = acc;
                    }
                }
            }
            j += nh;
        }
        i += mh;
    }
}

impl Mat {
    /// `C = self·other` into a caller-provided row-major buffer of shape
    /// `self.rows × other.cols`. Panics on shape mismatch.
    pub fn matmul_into(&self, other: &Mat, c: &mut [f64]) {
        assert_eq!(self.cols, other.rows, "matmul: inner dims");
        matmul(&self.data, &other.data, c, self.rows, other.cols, self.cols);
    }

    /// `C = self·otherᵀ` into a caller-provided row-major buffer of shape
    /// `self.rows × other.rows`. Panics on shape mismatch.
    pub fn matmul_t_into(&self, other: &Mat, c: &mut [f64]) {
        assert_eq!(self.cols, other.cols, "matmul_t: inner dims");
        matmul_nt(&self.data, &other.data, c, self.rows, other.rows, self.cols);
    }
}

/// `a += b` elementwise.
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// `a += s·b` elementwise (axpy).
pub fn axpy(a: &mut [f64], s: f64, b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += s * y;
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance between two vectors.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    euclidean_sq(a, b).sqrt()
}

/// Squared Euclidean distance (no `sqrt`).
///
/// Top-k scans compare squared distances — the square root is monotone,
/// so the ordering (and any tie) is identical — and take a single `sqrt`
/// only for the k survivors.
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
}

/// Gate activation: sigmoid on the first `n_sigmoid` entries, tanh on the
/// rest — the RNN cells call this right after the fused `P·z` product.
#[inline]
pub fn activate_gates(a: &mut [f64], n_sigmoid: usize) {
    let (sig, tan) = a.split_at_mut(n_sigmoid);
    sigmoid_slice(sig);
    tanh_slice(tan);
}

/// LSTM cell update:
///
/// `c ← f ⊙ c + i ⊙ g`, `tanh_c ← tanh(c)`, `h ← o ⊙ tanh_c`,
///
/// with `gates = [i, f, o, g]` of length `4d` already activated.
#[inline]
pub fn lstm_cell_update(gates: &[f64], c: &mut [f64], tanh_c: &mut [f64], h: &mut [f64]) {
    let d = c.len();
    debug_assert_eq!(gates.len(), 4 * d);
    debug_assert_eq!(tanh_c.len(), d);
    debug_assert_eq!(h.len(), d);
    let (gi, rest) = gates.split_at(d);
    let (gf, rest) = rest.split_at(d);
    let (go, gg) = rest.split_at(d);
    for k in 0..d {
        c[k] = gf[k] * c[k] + gi[k] * gg[k];
    }
    tanh_c.copy_from_slice(c);
    tanh_slice(tanh_c);
    for k in 0..d {
        h[k] = go[k] * tanh_c[k];
    }
}

/// In-place numerically-stable softmax.
pub fn softmax_inplace(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for v in x.iter_mut() {
        *v -= max;
    }
    exp_slice(x);
    let mut sum = 0.0;
    for v in x.iter() {
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
}

/// Backward of softmax: given output `y = softmax(s)` and upstream `dy`,
/// writes `ds = y ⊙ (dy - y·dy)` into `ds`.
pub fn softmax_backward(y: &[f64], dy: &[f64], ds: &mut [f64]) {
    debug_assert_eq!(y.len(), dy.len());
    debug_assert_eq!(y.len(), ds.len());
    let ydy = dot(y, dy);
    for i in 0..y.len() {
        ds[i] = y[i] * (dy[i] - ydy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::tanh;

    #[test]
    fn matvec_known_values() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = vec![0.0; 3];
        a.matvec_t_into(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_acc_accumulates() {
        let mut a = Mat::zeros(2, 2);
        a.outer_acc(&[1.0, 2.0], &[3.0, 4.0]);
        a.outer_acc(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(a.as_slice(), &[4.0, 5.0, 6.0, 8.0]);
    }

    #[test]
    fn xavier_is_bounded_and_deterministic() {
        let a = Mat::xavier(8, 8, 3);
        let b = Mat::xavier(8, 8, 3);
        assert_eq!(a, b);
        let bound = (6.0 / 16.0f64).sqrt();
        assert!(a.as_slice().iter().all(|v| v.abs() < bound));
        assert!(a.as_slice().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn vector_helpers() {
        let mut a = vec![1.0, 2.0];
        add_assign(&mut a, &[1.0, 1.0]);
        assert_eq!(a, vec![2.0, 3.0]);
        axpy(&mut a, 2.0, &[1.0, 0.0]);
        assert_eq!(a, vec![4.0, 3.0]);
        assert_eq!(dot(&a, &[1.0, 1.0]), 7.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn euclidean_sq_matches_euclidean() {
        let a = [1.0, -2.0, 0.5];
        let b = [0.0, 1.5, 2.5];
        assert_eq!(euclidean_sq(&a, &b).sqrt(), euclidean(&a, &b));
        assert_eq!(euclidean_sq(&a, &a), 0.0);
    }

    #[test]
    fn activate_gates_splits_sigmoid_tanh() {
        let mut a = vec![0.0, 1.0, -1.0, 0.5];
        activate_gates(&mut a, 2);
        assert_eq!(a[0], sigmoid(0.0));
        assert_eq!(a[1], sigmoid(1.0));
        assert_eq!(a[2], tanh(-1.0));
        assert_eq!(a[3], tanh(0.5));
    }

    #[test]
    fn lstm_cell_update_matches_scalar_formulas() {
        let d = 2;
        let gates = vec![0.3, 0.6, 0.9, 0.2, 0.7, 0.5, 0.4, -0.8]; // [i,f,o,g]
        let c_prev = [1.0, -1.0];
        let mut c = c_prev.to_vec();
        let mut tanh_c = vec![0.0; d];
        let mut h = vec![0.0; d];
        lstm_cell_update(&gates, &mut c, &mut tanh_c, &mut h);
        let c0 = 0.9 * c_prev[0] + 0.3 * 0.4;
        let c1 = 0.2 * c_prev[1] + 0.6 * -0.8;
        assert_eq!(c, vec![c0, c1]);
        assert_eq!(tanh_c, vec![tanh(c0), tanh(c1)]);
        assert_eq!(h, vec![0.7 * tanh(c0), 0.5 * tanh(c1)]);
    }

    #[test]
    fn sigmoid_properties() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn softmax_normalizes_and_is_stable() {
        let mut x = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut x);
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(x[2] > x[1] && x[1] > x[0]);
        // Large inputs do not overflow.
        let mut big = vec![1000.0, 1000.0];
        softmax_inplace(&mut big);
        assert!((big[0] - 0.5).abs() < 1e-12);
        // Empty input is a no-op.
        softmax_inplace(&mut []);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let s = vec![0.3, -0.5, 1.1, 0.0];
        let dy = vec![0.7, -0.2, 0.4, 1.3];
        let f = |s: &[f64]| -> f64 {
            let mut y = s.to_vec();
            softmax_inplace(&mut y);
            dot(&y, &dy)
        };
        let mut y = s.clone();
        softmax_inplace(&mut y);
        let mut ds = vec![0.0; 4];
        softmax_backward(&y, &dy, &mut ds);
        let eps = 1e-6;
        for i in 0..4 {
            let mut sp = s.clone();
            let mut sm = s.clone();
            sp[i] += eps;
            sm[i] -= eps;
            let num = (f(&sp) - f(&sm)) / (2.0 * eps);
            assert!((num - ds[i]).abs() < 1e-8, "i={i}: {num} vs {}", ds[i]);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_validates() {
        let _ = Mat::from_vec(2, 2, vec![0.0; 3]);
    }

    /// Reference triple loop for the GEMM tests.
    fn naive_matmul(a: &Mat, b: &Mat) -> Vec<f64> {
        let mut c = vec![0.0; a.rows() * b.cols()];
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                for p in 0..a.cols() {
                    c[i * b.cols() + j] += a.get(i, p) * b.get(p, j);
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive_all_edge_shapes() {
        // Shapes straddling the 4×4 micro-tile in every dimension.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 4, 7),
            (5, 9, 6),
            (8, 8, 8),
            (13, 6, 35),
        ] {
            let a = Mat::xavier(m, k, 7);
            let b = Mat::xavier(k, n, 9);
            let mut c = vec![f64::NAN; m * n];
            a.matmul_into(&b, &mut c);
            let want = naive_matmul(&a, &b);
            for (got, want) in c.iter().zip(&want) {
                assert!((got - want).abs() < 1e-12, "m={m} n={n} k={k}");
            }
        }
    }

    /// The contract the batched forward relies on: every GEMM output row is
    /// *bit-identical* to the matvec of the corresponding input row.
    #[test]
    fn matmul_nt_rows_bit_identical_to_matvec() {
        for &(m, n, k) in &[(1, 8, 11), (4, 4, 4), (6, 13, 35), (17, 128, 35)] {
            let a = Mat::xavier(m, k, 21);
            let b = Mat::xavier(n, k, 22);
            let mut c = vec![f64::NAN; m * n];
            matmul_nt(a.as_slice(), b.as_slice(), &mut c, m, n, k);
            for i in 0..m {
                let mut y = vec![0.0; n];
                b.matvec_into(a.row(i), &mut y);
                assert_eq!(
                    &c[i * n..(i + 1) * n],
                    y.as_slice(),
                    "row {i} of {m}x{n}x{k}"
                );
            }
        }
    }

    /// `matvec_into` on the vector kernels is the row loop it replaced,
    /// bit for bit, at every SIMD level — accumulating into a `y` that is
    /// not zero, over signed zeros, subnormals and overflowing products.
    #[test]
    fn matvec_into_bit_identical_to_the_row_loop() {
        const SALT: [f64; 8] = [
            0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e300, 1.3e154, -1.3e154,
        ];
        let mut rng = Rng::seed_from_u64(2019);
        let mut draw = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| match rng.gen_range(0..8usize) {
                    0 => SALT[rng.gen_range(0..SALT.len())],
                    _ => rng.gen_range(-10.0..10.0),
                })
                .collect()
        };
        // 1..=40 rows, and three shapes past the 64-row stack block.
        for rows in (1..=40).chain([64, 65, 130]) {
            for cols in 1..=70 {
                let a = Mat::from_vec(rows, cols, draw(rows * cols));
                let x = draw(cols);
                let y0 = draw(rows);
                let mut want = y0.clone();
                for (r, yr) in want.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (a, b) in a.row(r).iter().zip(&x) {
                        acc += a * b;
                    }
                    *yr += acc;
                }
                for level in SimdLevel::ALL {
                    let mut got = y0.clone();
                    a.matvec_into_with_level(level, &x, &mut got);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{rows}x{cols} {level:?}");
                    }
                }
            }
        }
    }

    /// Values that tell the accumulation rules apart: signed zeros,
    /// subnormals (products underflow to ±0) and ordinary magnitudes.
    fn salted(rng: &mut Rng, n: usize) -> Vec<f64> {
        const SALT: [f64; 6] = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-300];
        (0..n)
            .map(|_| match rng.gen_range(0..4usize) {
                0 => SALT[rng.gen_range(0..SALT.len())],
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The ordered accumulate is the loop of rank-1 updates it replaces —
    /// one per step, last step first, every term added — bit for bit, for
    /// every sequence length the trainer sees, on the shapes of `dP`
    /// (160×35), `dW_his` (32×64) and a ragged one, at every SIMD level,
    /// with zeros, signed zeros and subnormals in `u`. On an accumulator
    /// without `−0.0` entries that is also `outer_acc`'s skipping sweep;
    /// the one difference between the rules is pinned at the end.
    #[test]
    fn outer_acc_rows_rev_bit_identical_to_the_rank1_sweep() {
        let mut rng = Rng::seed_from_u64(16);
        for &(m, n) in &[(160usize, 35usize), (32, 64), (5, 3), (7, 9)] {
            for steps in 1..=90usize {
                let u = salted(&mut rng, steps * m);
                let v: Vec<f64> = (0..steps * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let c0: Vec<f64> = (0..m * n)
                    .map(|i| {
                        if i % 3 == 0 {
                            0.0
                        } else {
                            rng.gen_range(-1.0..1.0)
                        }
                    })
                    .collect();
                let mut want = c0.clone();
                let mut skipping = Mat::from_vec(m, n, c0.clone());
                for t in (0..steps).rev() {
                    for r in 0..m {
                        for j in 0..n {
                            want[r * n + j] += u[t * m + r] * v[t * n + j];
                        }
                    }
                    skipping.outer_acc(&u[t * m..(t + 1) * m], &v[t * n..(t + 1) * n]);
                }
                assert_eq!(bits(skipping.as_slice()), bits(&want), "skip rule {m}x{n}");
                for level in SimdLevel::ALL {
                    let mut got = Mat::from_vec(m, n, c0.clone());
                    got.outer_acc_rows_rev_with_level(level, &u, &v);
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(&want),
                        "{m}x{n} T={steps} {level:?}"
                    );
                }
            }
        }
        // The zero rule: a `−0.0` accumulator meets a zero term.
        for level in SimdLevel::ALL {
            let mut got = Mat::from_vec(1, 8, vec![-0.0; 8]);
            got.outer_acc_rows_rev_with_level(level, &[0.0], &[1.0; 8]);
            assert_eq!(bits(got.as_slice()), bits(&[0.0; 8]), "{level:?}");
        }
        let mut skipping = Mat::from_vec(1, 8, vec![-0.0; 8]);
        skipping.outer_acc(&[0.0], &[1.0; 8]);
        assert_eq!(bits(skipping.as_slice()), bits(&[-0.0; 8]));
    }

    /// The transposed-columns product is the matching slice of
    /// `matvec_t_into` on a zeroed buffer, for every column window of the
    /// BPTT shapes and a ragged one, at every SIMD level.
    #[test]
    fn matvec_t_cols_bit_identical_to_the_slice_of_matvec_t() {
        let mut rng = Rng::seed_from_u64(61);
        for &(rows, cols) in &[(160usize, 35usize), (32, 64), (40, 11), (5, 3), (25, 8)] {
            let a = Mat::from_vec(rows, cols, salted(&mut rng, rows * cols));
            let x = salted(&mut rng, rows);
            let mut full = vec![0.0; cols];
            a.matvec_t_into(&x, &mut full);
            for col0 in [0, 1, 2, cols / 2] {
                for len in (0..=cols - col0).rev().step_by(3) {
                    for level in SimdLevel::ALL {
                        let mut got = vec![f64::NAN; len];
                        a.matvec_t_cols_into_with_level(level, &x, col0, &mut got);
                        assert_eq!(
                            bits(&got),
                            bits(&full[col0..col0 + len]),
                            "{rows}x{cols} [{col0}..+{len}] {level:?}"
                        );
                    }
                }
            }
        }
    }

    /// Panels packed once and reused over many `A` blocks give what a
    /// per-call `matmul_nt` gives, bit for bit, at every level — the
    /// lockstep step's contract with its per-timestep products — over
    /// the step shapes (160×35 gates, 32×64 `W_his`) and ragged ones with
    /// odd and even panel counts, for every block height from 1 to 17 (the
    /// narrow ones take the direct arm on the unpacked `B`). Every level
    /// also equals the scalar one.
    #[test]
    fn panels_packed_once_equal_per_call_matmul_nt() {
        let mut rng = Rng::seed_from_u64(29);
        for &(n, k) in &[
            (160usize, 35usize),
            (32, 64),
            (20, 7),
            (24, 3),
            (9, 11),
            (1, 5),
        ] {
            let b = Mat::from_vec(n, k, salted(&mut rng, n * k));
            let mut buf = vec![f64::NAN; 3];
            let packed = PackedNt::new(&b, 17, &mut buf);
            for m in (1..=17).chain((1..=17).rev()) {
                let a = salted(&mut rng, m * k);
                let mut want = vec![f64::NAN; m * n];
                matmul_nt_with_level(SimdLevel::Scalar, &a, b.as_slice(), &mut want, m, n, k);
                for level in SimdLevel::ALL {
                    let mut per_call = vec![f64::NAN; m * n];
                    matmul_nt_with_level(level, &a, b.as_slice(), &mut per_call, m, n, k);
                    let mut once = vec![f64::NAN; m * n];
                    packed.matmul(level, &a, &mut once, m);
                    assert_eq!(bits(&once), bits(&per_call), "{n}x{k} m={m} {level:?}");
                    assert_eq!(bits(&once), bits(&want), "{n}x{k} m={m} {level:?}");
                }
            }
        }
    }

    #[test]
    fn matmul_t_into_is_b_transposed() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]);
        let mut c = vec![0.0; 4];
        a.matmul_t_into(&b, &mut c);
        assert_eq!(c, vec![-2.0, 3.0, -2.0, 7.5]);
    }

    #[test]
    #[should_panic(expected = "matmul_nt: B shape")]
    fn matmul_nt_validates_shapes() {
        let mut c = vec![0.0; 4];
        matmul_nt(&[0.0; 4], &[0.0; 3], &mut c, 2, 2, 2);
    }
}
