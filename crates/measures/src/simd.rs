//! AVX2 row-step kernels for the lane-batched DP recurrences, with the
//! portable scalar rows kept in the same file as the bit-identity
//! oracles (`DESIGN.md` §12).
//!
//! Each function advances one DP row of a lane-batched kernel in
//! `engine.rs`: [`LANES`] = 8 f64 lanes = two 256-bit vectors, with the
//! row's left-neighbour dependency (`carry`) held in registers across
//! the whole row. For DTW and ERP the scalar and AVX2 paths compute
//! *the same IEEE expression per lane in the same order*; the Fréchet
//! AVX2 path instead runs the identical min/max recurrence over
//! *squared* distances (see [`frechet_squared`] — still bit-identical
//! after the engine's one-sqrt readout, and free of the `vsqrtpd`
//! per-cell cost that dominates these kernels). In both cases:
//!
//! * `_mm256_sub_pd` / `_mm256_mul_pd` / `_mm256_add_pd` /
//!   `_mm256_sqrt_pd` are the element-wise IEEE-exact operations — no
//!   FMA contraction anywhere, matching rustc's scalar code (which
//!   never contracts `a * b + c` on its own);
//! * `_mm256_min_pd`/`_mm256_max_pd` (`a < b ? a : b` / `a > b ? a : b`)
//!   agree bitwise with `f64::min`/`f64::max` on this value domain: DP
//!   cells are sums or maxes of non-negative distances, possibly
//!   `+inf`, never NaN and never `-0.0`, so the NaN- and signed-zero
//!   cases where the semantics differ cannot occur.
//!
//! Dispatch is by explicit [`SimdLevel`] parameter (the engine threads
//! the process-wide [`neutraj_obs::simd::level`] through, tests force
//! both paths in one process). On non-x86_64 targets the AVX2 arm
//! simply falls back to the scalar oracle — the dispatcher never
//! *selects* `Avx2` there, but the code must still compile.

use neutraj_obs::simd::SimdLevel;

/// Pairs processed in lockstep per batched kernel call. Eight f64 lanes
/// = two 4-wide AVX vectors: enough to cover the recurrence's
/// dependency-chain latency with independent work.
pub(crate) const LANES: usize = 8;

/// Whether the AVX2 arm may actually run: the caller asked for it (or
/// for a higher tier — the DP lanes have no AVX-512 arm, see
/// `DESIGN.md` §12) AND the host supports it (`is_x86_feature_detected!` caches in a static,
/// so this is ~one relaxed load per *row*, not per cell). The second
/// check makes every dispatcher below sound no matter what level a test
/// passes — requesting `Avx2` on a non-AVX2 host falls back to the
/// scalar oracle instead of executing illegal instructions.
#[cfg(target_arch = "x86_64")]
#[inline]
fn use_avx2(level: SimdLevel) -> bool {
    level >= SimdLevel::Avx2 && std::arch::is_x86_feature_detected!("avx2")
}

/// Whether [`frechet_row0`]/[`frechet_row`] run in *squared-distance*
/// space at this level. The Fréchet DP is a pure min/max lattice over
/// the cell distances — it never adds them — and `x ↦ sqrt(x)` is
/// monotone non-decreasing, so it commutes with `min`/`max` exactly:
/// `sqrt(min(a, b)) = min(sqrt(a), sqrt(b))` bit-for-bit (likewise
/// `max`). By induction over the DP every squared-space cell is exactly
/// the square-space image of the distance-space cell, and one final
/// `sqrt` at readout reproduces the PR 5 scalar result bitwise while
/// eliminating the per-cell `vsqrtpd` — the throughput bottleneck of
/// the distance-space kernel (`DESIGN.md` §12). The engine consults
/// this to decide whether its readout must take that final `sqrt`; it
/// must agree with the arm the row dispatchers pick, so both sides call
/// [`use_avx2`].
#[inline]
pub(crate) fn frechet_squared(level: SimdLevel) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use_avx2(level)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        false
    }
}

/// One DTW row: `cur[(j+1)·L + l] = d(outer_i, lane_j) +
/// min(prev[j·L], prev[(j+1)·L], cur[j·L])`, carry starting at `+inf`.
/// `cur[..LANES]` (the column-0 boundary) is the caller's.
///
/// `gx`/`gy` are `cols·LANES` lane-interleaved coordinates; `prev` and
/// `cur` are `(cols+1)·LANES` rolling rows.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn dtw_row(
    level: SimdLevel,
    ox: f64,
    oy: f64,
    gx: &[f64],
    gy: &[f64],
    prev: &[f64],
    cur: &mut [f64],
) {
    assert_eq!(gx.len() % LANES, 0);
    assert_eq!(gx.len(), gy.len());
    assert_eq!(prev.len(), gx.len() + LANES);
    assert_eq!(cur.len(), prev.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; the slice lengths checked
        // above are exactly what the kernel reads/writes.
        unsafe { avx2::dtw_row(ox, oy, gx, gy, prev, cur) };
        return;
    }
    let _ = level;
    let mut carry = [f64::INFINITY; LANES];
    let body = gx
        .chunks_exact(LANES)
        .zip(gy.chunks_exact(LANES))
        .zip(prev[..gx.len()].chunks_exact(LANES))
        .zip(prev[LANES..].chunks_exact(LANES))
        .zip(cur[LANES..].chunks_exact_mut(LANES));
    for ((((gx, gy), pl), pu), out) in body {
        let mut next = [0.0f64; LANES];
        for l in 0..LANES {
            let (dx, dy) = (ox - gx[l], oy - gy[l]);
            let d = (dx * dx + dy * dy).sqrt();
            let best = pl[l].min(pu[l]).min(carry[l]);
            next[l] = d + best;
        }
        out.copy_from_slice(&next);
        carry = next;
    }
}

/// Discrete-Fréchet row 0: a horizontal running-max chain per lane,
/// `prev[j·L + l] = max(d_0, …, d_j)`.
///
/// **Space depends on the level** (see [`frechet_squared`]): the scalar
/// arm chains distances (the PR 5 row, the oracle), the AVX2 arm chains
/// *squared* distances and leaves the final `sqrt` to the engine's
/// readout.
#[inline]
#[allow(unsafe_code)]
pub(crate) fn frechet_row0(
    level: SimdLevel,
    ox: f64,
    oy: f64,
    gx: &[f64],
    gy: &[f64],
    prev: &mut [f64],
) {
    assert_eq!(gx.len() % LANES, 0);
    assert_eq!(gx.len(), gy.len());
    assert_eq!(prev.len(), gx.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; lengths checked above.
        unsafe { avx2::frechet_row0(ox, oy, gx, gy, prev) };
        return;
    }
    let _ = level;
    let mut carry = [0.0f64; LANES];
    let row = gx
        .chunks_exact(LANES)
        .zip(gy.chunks_exact(LANES))
        .zip(prev.chunks_exact_mut(LANES));
    for (j, ((gx, gy), out)) in row.enumerate() {
        for l in 0..LANES {
            let (dx, dy) = (ox - gx[l], oy - gy[l]);
            let d = (dx * dx + dy * dy).sqrt();
            carry[l] = if j == 0 { d } else { carry[l].max(d) };
        }
        out.copy_from_slice(&carry);
    }
}

/// One Discrete-Fréchet body row (`i ≥ 1`): column 0 chains vertically
/// (`prev[0].max(d)`), later columns take
/// `min(prev[j−1], prev[j], cur[j−1]).max(d)`. `prev` and `cur` are
/// `cols·LANES` rolling rows; the whole of `cur` is written.
///
/// Same space contract as [`frechet_row0`]: the AVX2 arm runs the
/// identical recurrence over squared distances ([`frechet_squared`]).
#[inline]
#[allow(unsafe_code)]
pub(crate) fn frechet_row(
    level: SimdLevel,
    ox: f64,
    oy: f64,
    gx: &[f64],
    gy: &[f64],
    prev: &[f64],
    cur: &mut [f64],
) {
    assert_eq!(gx.len() % LANES, 0);
    assert_eq!(gx.len(), gy.len());
    assert_eq!(prev.len(), gx.len());
    assert_eq!(cur.len(), prev.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; lengths checked above.
        unsafe { avx2::frechet_row(ox, oy, gx, gy, prev, cur) };
        return;
    }
    let _ = level;
    let w = gx.len();
    let mut carry = [0.0f64; LANES];
    let col = carry
        .iter_mut()
        .zip(&gx[..LANES])
        .zip(&gy[..LANES])
        .zip(&prev[..LANES]);
    for (((c, &gx), &gy), &pv) in col {
        let (dx, dy) = (ox - gx, oy - gy);
        let d = (dx * dx + dy * dy).sqrt();
        *c = pv.max(d);
    }
    cur[..LANES].copy_from_slice(&carry);
    let body = gx[LANES..]
        .chunks_exact(LANES)
        .zip(gy[LANES..].chunks_exact(LANES))
        .zip(prev[..w - LANES].chunks_exact(LANES))
        .zip(prev[LANES..].chunks_exact(LANES))
        .zip(cur[LANES..].chunks_exact_mut(LANES));
    for ((((gx, gy), pl), pu), out) in body {
        let mut next = [0.0f64; LANES];
        for l in 0..LANES {
            let (dx, dy) = (ox - gx[l], oy - gy[l]);
            let d = (dx * dx + dy * dy).sqrt();
            next[l] = pl[l].min(pu[l]).min(carry[l]).max(d);
        }
        out.copy_from_slice(&next);
        carry = next;
    }
}

/// One ERP row: `cur[(j+1)·L] = min(prev[j·L] + d, prev[(j+1)·L] + gi,
/// cur[j·L] + gap_j)`, carry starting at `edge` (the outer gap prefix
/// `G[i][0]`, already written to `cur[..LANES]` by the caller).
#[inline]
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn erp_row(
    level: SimdLevel,
    ox: f64,
    oy: f64,
    gi: f64,
    edge: f64,
    gx: &[f64],
    gy: &[f64],
    gg: &[f64],
    prev: &[f64],
    cur: &mut [f64],
) {
    assert_eq!(gx.len() % LANES, 0);
    assert_eq!(gx.len(), gy.len());
    assert_eq!(gx.len(), gg.len());
    assert_eq!(prev.len(), gx.len() + LANES);
    assert_eq!(cur.len(), prev.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(level) {
        // SAFETY: AVX2 presence just verified; lengths checked above.
        unsafe { avx2::erp_row(ox, oy, gi, edge, gx, gy, gg, prev, cur) };
        return;
    }
    let _ = level;
    let mut carry = [edge; LANES];
    let body = gx
        .chunks_exact(LANES)
        .zip(gy.chunks_exact(LANES))
        .zip(gg.chunks_exact(LANES))
        .zip(prev[..gx.len()].chunks_exact(LANES))
        .zip(prev[LANES..].chunks_exact(LANES))
        .zip(cur[LANES..].chunks_exact_mut(LANES));
    for (((((gx, gy), gg), pl), pu), out) in body {
        let mut next = [0.0f64; LANES];
        for l in 0..LANES {
            let (dx, dy) = (ox - gx[l], oy - gy[l]);
            let d = (dx * dx + dy * dy).sqrt();
            let match_cost = pl[l] + d;
            let del_outer = pu[l] + gi;
            let del_inner = carry[l] + gg[l];
            next[l] = match_cost.min(del_outer).min(del_inner);
        }
        out.copy_from_slice(&next);
        carry = next;
    }
}

/// The `unsafe` lives only here: `#[target_feature(enable = "avx2")]`
/// functions over raw lane pointers, called exclusively through the safe
/// dispatchers above after slice-length checks, and only when runtime
/// detection reported AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::LANES;
    use core::arch::x86_64::*;

    /// `d(outer_i, lane_j)` for one half-group: `sqrt(dx·dx + dy·dy)`
    /// with separate mul/add (no FMA — the scalar oracle does not
    /// contract).
    #[inline(always)]
    unsafe fn dist(vox: __m256d, voy: __m256d, gx: *const f64, gy: *const f64) -> __m256d {
        _mm256_sqrt_pd(dist2(vox, voy, gx, gy))
    }

    /// `d²(outer_i, lane_j)` — the Fréchet kernels chain this directly
    /// (squared space, [`super::frechet_squared`]), keeping the hot loop
    /// free of `vsqrtpd`, whose throughput dominates the distance-space
    /// kernels.
    #[inline(always)]
    unsafe fn dist2(vox: __m256d, voy: __m256d, gx: *const f64, gy: *const f64) -> __m256d {
        let dx = _mm256_sub_pd(vox, _mm256_loadu_pd(gx));
        let dy = _mm256_sub_pd(voy, _mm256_loadu_pd(gy));
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dtw_row(
        ox: f64,
        oy: f64,
        gx: &[f64],
        gy: &[f64],
        prev: &[f64],
        cur: &mut [f64],
    ) {
        let cols = gx.len() / LANES;
        let (vox, voy) = (_mm256_set1_pd(ox), _mm256_set1_pd(oy));
        let inf = _mm256_set1_pd(f64::INFINITY);
        let (mut c0, mut c1) = (inf, inf);
        let (gxp, gyp, pp, cp) = (gx.as_ptr(), gy.as_ptr(), prev.as_ptr(), cur.as_mut_ptr());
        for j in 0..cols {
            let b = j * LANES;
            let d0 = dist(vox, voy, gxp.add(b), gyp.add(b));
            let d1 = dist(vox, voy, gxp.add(b + 4), gyp.add(b + 4));
            let best0 = _mm256_min_pd(
                _mm256_min_pd(
                    _mm256_loadu_pd(pp.add(b)),
                    _mm256_loadu_pd(pp.add(b + LANES)),
                ),
                c0,
            );
            let best1 = _mm256_min_pd(
                _mm256_min_pd(
                    _mm256_loadu_pd(pp.add(b + 4)),
                    _mm256_loadu_pd(pp.add(b + LANES + 4)),
                ),
                c1,
            );
            c0 = _mm256_add_pd(d0, best0);
            c1 = _mm256_add_pd(d1, best1);
            _mm256_storeu_pd(cp.add(b + LANES), c0);
            _mm256_storeu_pd(cp.add(b + LANES + 4), c1);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn frechet_row0(ox: f64, oy: f64, gx: &[f64], gy: &[f64], prev: &mut [f64]) {
        let cols = gx.len() / LANES;
        let (vox, voy) = (_mm256_set1_pd(ox), _mm256_set1_pd(oy));
        let (gxp, gyp, pp) = (gx.as_ptr(), gy.as_ptr(), prev.as_mut_ptr());
        // carry = max(carry, d²) from an all-zero start matches the
        // scalar's `if j == 0 { d } else { max }` under the squared-space
        // correspondence: d² ≥ +0.0, and max(+0.0, d²) = d² exactly.
        let (mut c0, mut c1) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for j in 0..cols {
            let b = j * LANES;
            c0 = _mm256_max_pd(c0, dist2(vox, voy, gxp.add(b), gyp.add(b)));
            c1 = _mm256_max_pd(c1, dist2(vox, voy, gxp.add(b + 4), gyp.add(b + 4)));
            _mm256_storeu_pd(pp.add(b), c0);
            _mm256_storeu_pd(pp.add(b + 4), c1);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn frechet_row(
        ox: f64,
        oy: f64,
        gx: &[f64],
        gy: &[f64],
        prev: &[f64],
        cur: &mut [f64],
    ) {
        let cols = gx.len() / LANES;
        let (vox, voy) = (_mm256_set1_pd(ox), _mm256_set1_pd(oy));
        let (gxp, gyp, pp, cp) = (gx.as_ptr(), gy.as_ptr(), prev.as_ptr(), cur.as_mut_ptr());
        // Column 0: vertical chain prev[0..L].max(d) — no horizontal
        // dependency, one vector op per half.
        let mut c0 = _mm256_max_pd(_mm256_loadu_pd(pp), dist2(vox, voy, gxp, gyp));
        let mut c1 = _mm256_max_pd(
            _mm256_loadu_pd(pp.add(4)),
            dist2(vox, voy, gxp.add(4), gyp.add(4)),
        );
        _mm256_storeu_pd(cp, c0);
        _mm256_storeu_pd(cp.add(4), c1);
        for j in 1..cols {
            let b = j * LANES;
            let d0 = dist2(vox, voy, gxp.add(b), gyp.add(b));
            let d1 = dist2(vox, voy, gxp.add(b + 4), gyp.add(b + 4));
            let best0 = _mm256_min_pd(
                _mm256_min_pd(
                    _mm256_loadu_pd(pp.add(b - LANES)),
                    _mm256_loadu_pd(pp.add(b)),
                ),
                c0,
            );
            let best1 = _mm256_min_pd(
                _mm256_min_pd(
                    _mm256_loadu_pd(pp.add(b - LANES + 4)),
                    _mm256_loadu_pd(pp.add(b + 4)),
                ),
                c1,
            );
            c0 = _mm256_max_pd(best0, d0);
            c1 = _mm256_max_pd(best1, d1);
            _mm256_storeu_pd(cp.add(b), c0);
            _mm256_storeu_pd(cp.add(b + 4), c1);
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn erp_row(
        ox: f64,
        oy: f64,
        gi: f64,
        edge: f64,
        gx: &[f64],
        gy: &[f64],
        gg: &[f64],
        prev: &[f64],
        cur: &mut [f64],
    ) {
        let cols = gx.len() / LANES;
        let (vox, voy) = (_mm256_set1_pd(ox), _mm256_set1_pd(oy));
        let vgi = _mm256_set1_pd(gi);
        let (mut c0, mut c1) = (_mm256_set1_pd(edge), _mm256_set1_pd(edge));
        let (gxp, gyp, ggp) = (gx.as_ptr(), gy.as_ptr(), gg.as_ptr());
        let (pp, cp) = (prev.as_ptr(), cur.as_mut_ptr());
        for j in 0..cols {
            let b = j * LANES;
            let d0 = dist(vox, voy, gxp.add(b), gyp.add(b));
            let d1 = dist(vox, voy, gxp.add(b + 4), gyp.add(b + 4));
            let match0 = _mm256_add_pd(_mm256_loadu_pd(pp.add(b)), d0);
            let match1 = _mm256_add_pd(_mm256_loadu_pd(pp.add(b + 4)), d1);
            let del_o0 = _mm256_add_pd(_mm256_loadu_pd(pp.add(b + LANES)), vgi);
            let del_o1 = _mm256_add_pd(_mm256_loadu_pd(pp.add(b + LANES + 4)), vgi);
            let del_i0 = _mm256_add_pd(c0, _mm256_loadu_pd(ggp.add(b)));
            let del_i1 = _mm256_add_pd(c1, _mm256_loadu_pd(ggp.add(b + 4)));
            c0 = _mm256_min_pd(_mm256_min_pd(match0, del_o0), del_i0);
            c1 = _mm256_min_pd(_mm256_min_pd(match1, del_o1), del_i1);
            _mm256_storeu_pd(cp.add(b + LANES), c0);
            _mm256_storeu_pd(cp.add(b + LANES + 4), c1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 11) as f64 / (1u64 << 53) as f64
    }

    fn fill(n: usize, seed: &mut u64) -> Vec<f64> {
        (0..n).map(|_| unit(seed) * 100.0).collect()
    }

    /// Both paths on the same inputs must agree bit-for-bit — runs the
    /// comparison regardless of host capability (on a non-AVX2 host the
    /// Avx2 arm falls back to scalar, which trivially agrees).
    #[test]
    fn rows_agree_bitwise_across_levels() {
        let mut seed = 42u64;
        for cols in [1usize, 2, 7, 33] {
            let w = cols * LANES;
            let gx = fill(w, &mut seed);
            let gy = fill(w, &mut seed);
            let gg = fill(w, &mut seed);
            let prev_w = fill(w + LANES, &mut seed);
            let prev_n = fill(w, &mut seed);
            let (ox, oy, gi, edge) = (
                unit(&mut seed) * 100.0,
                unit(&mut seed) * 100.0,
                unit(&mut seed) * 10.0,
                unit(&mut seed) * 10.0,
            );

            let mut a = vec![f64::INFINITY; w + LANES];
            let mut b = a.clone();
            dtw_row(SimdLevel::Scalar, ox, oy, &gx, &gy, &prev_w, &mut a);
            dtw_row(SimdLevel::Avx2, ox, oy, &gx, &gy, &prev_w, &mut b);
            assert_eq!(a, b, "dtw cols={cols}");

            // The AVX2 Fréchet arm runs in squared space: every cell of
            // the scalar row must be bitwise the sqrt of the AVX2 cell
            // (identity when the fallback ran and both arms are scalar).
            let unsquare = |v: f64| {
                if frechet_squared(SimdLevel::Avx2) {
                    v.sqrt()
                } else {
                    v
                }
            };
            let mut a = vec![0.0; w];
            let mut b = a.clone();
            frechet_row0(SimdLevel::Scalar, ox, oy, &gx, &gy, &mut a);
            frechet_row0(SimdLevel::Avx2, ox, oy, &gx, &gy, &mut b);
            for (i, (&av, &bv)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    av.to_bits(),
                    unsquare(bv).to_bits(),
                    "frechet_row0 {cols}/{i}"
                );
            }

            // Feed each arm its own space: `prev_d` is the sqrt image of
            // `prev_n`, exactly the correspondence the engine maintains
            // across rows (same row when the AVX2 arm fell back to
            // scalar — both are then distance-space).
            let prev_d: Vec<f64> = prev_n.iter().map(|v| v.sqrt()).collect();
            let bprev: &[f64] = if frechet_squared(SimdLevel::Avx2) {
                &prev_n
            } else {
                &prev_d
            };
            let mut a = vec![0.0; w];
            let mut b = a.clone();
            frechet_row(SimdLevel::Scalar, ox, oy, &gx, &gy, &prev_d, &mut a);
            frechet_row(SimdLevel::Avx2, ox, oy, &gx, &gy, bprev, &mut b);
            for (i, (&av, &bv)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    av.to_bits(),
                    unsquare(bv).to_bits(),
                    "frechet_row {cols}/{i}"
                );
            }

            let mut a = vec![0.0; w + LANES];
            let mut b = a.clone();
            a[..LANES].fill(edge);
            b[..LANES].fill(edge);
            erp_row(
                SimdLevel::Scalar,
                ox,
                oy,
                gi,
                edge,
                &gx,
                &gy,
                &gg,
                &prev_w,
                &mut a,
            );
            erp_row(
                SimdLevel::Avx2,
                ox,
                oy,
                gi,
                edge,
                &gx,
                &gy,
                &gg,
                &prev_w,
                &mut b,
            );
            assert_eq!(a, b, "erp cols={cols}");
        }
    }

    /// Infinities in `prev` (DTW's virgin row) flow through both paths
    /// identically.
    #[test]
    fn dtw_row_handles_infinite_prev() {
        let w = 2 * LANES;
        let gx = vec![1.0; w];
        let gy = vec![2.0; w];
        let prev = vec![f64::INFINITY; w + LANES];
        let mut a = vec![f64::INFINITY; w + LANES];
        let mut b = a.clone();
        dtw_row(SimdLevel::Scalar, 0.0, 0.0, &gx, &gy, &prev, &mut a);
        dtw_row(SimdLevel::Avx2, 0.0, 0.0, &gx, &gy, &prev, &mut b);
        assert_eq!(a, b);
        assert!(a[LANES..].iter().all(|v| v.is_infinite()));
    }
}
