//! Row steps of the lane-batched DP recurrences (`DESIGN.md` §12).
//!
//! Each function advances one DP row of a lane-batched kernel in
//! `engine.rs`: [`LANES`] = 8 independent f64 lanes, with the row's
//! left-neighbour dependency (`carry`) held in registers across the whole
//! row. The rows are plain safe Rust; the compiler vectorizes the lane
//! loops (one 512-bit or two 256-bit vectors per step under the
//! repository's `target-cpu=native`, two-lane SSE2 without it). What
//! makes that possible, and keeps the bits fixed:
//!
//! * [`min`]/[`max`] are `a < b ? a : b` / `a > b ? a : b` — one vector
//!   compare-and-select each. `f64::min`'s NaN handling is what kept the
//!   lane loops scalar. On this value domain the two agree bitwise: DP
//!   cells are sums or maxes of non-negative distances, possibly `+inf`,
//!   never NaN and never `-0.0`;
//! * subtraction, multiplication, addition and `sqrt` are the IEEE-exact
//!   element-wise operations, never contracted into an FMA;
//! * Fréchet runs in *squared-distance* space. Its DP is a pure min/max
//!   lattice over the cell distances — it never adds them — and
//!   `x ↦ sqrt(x)` is monotone non-decreasing, so it commutes with
//!   `min`/`max` exactly: by induction every squared-space cell is the
//!   square of the distance-space cell, bit for bit, and the engine's
//!   readout takes one `sqrt` per lane. That removes the per-cell `sqrt`,
//!   whose throughput bounds the DTW and ERP rows.
//!
//! The distance-space rows these replaced stay in the tests as the
//! oracle.

/// Pairs processed in lockstep per batched kernel call: enough
/// independent chains to cover the recurrence's dependency latency.
pub(crate) const LANES: usize = 8;

/// `a < b ? a : b`, the vector `min`'s operand order.
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `a > b ? a : b`, the vector `max`'s operand order.
#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// `d²(outer, lane l)` for one lane group.
#[inline(always)]
fn dist2(ox: f64, oy: f64, gx: &[f64], gy: &[f64], l: usize) -> f64 {
    let (dx, dy) = (ox - gx[l], oy - gy[l]);
    dx * dx + dy * dy
}

/// One DTW row: `cur[(j+1)·L + l] = d(outer_i, lane_j) +
/// min(prev[j·L], prev[(j+1)·L], cur[j·L])`, carry starting at `+inf`.
/// `cur[..LANES]` (the column-0 boundary) is the caller's.
///
/// `gx`/`gy` are `cols·LANES` lane-interleaved coordinates; `prev` and
/// `cur` are `(cols+1)·LANES` rolling rows.
#[inline]
pub(crate) fn dtw_row(ox: f64, oy: f64, gx: &[f64], gy: &[f64], prev: &[f64], cur: &mut [f64]) {
    assert_eq!(gx.len() % LANES, 0);
    assert_eq!(gx.len(), gy.len());
    assert_eq!(prev.len(), gx.len() + LANES);
    assert_eq!(cur.len(), prev.len());
    let mut carry = [f64::INFINITY; LANES];
    let body = gx
        .chunks_exact(LANES)
        .zip(gy.chunks_exact(LANES))
        .zip(prev[..gx.len()].chunks_exact(LANES))
        .zip(prev[LANES..].chunks_exact(LANES))
        .zip(cur[LANES..].chunks_exact_mut(LANES));
    for ((((gx, gy), pl), pu), out) in body {
        for l in 0..LANES {
            let d = dist2(ox, oy, gx, gy, l).sqrt();
            carry[l] = d + min(min(pl[l], pu[l]), carry[l]);
        }
        out.copy_from_slice(&carry);
    }
}

/// Discrete-Fréchet row 0 in squared space: a horizontal running-max
/// chain per lane, `prev[j·L + l] = max(d²_0, …, d²_j)`. The chain starts
/// at `+0.0`, and `max(+0.0, d²) = d²` exactly since `d² ≥ +0.0`.
#[inline]
pub(crate) fn frechet_row0(ox: f64, oy: f64, gx: &[f64], gy: &[f64], prev: &mut [f64]) {
    assert_eq!(gx.len() % LANES, 0);
    assert_eq!(gx.len(), gy.len());
    assert_eq!(prev.len(), gx.len());
    let mut carry = [0.0f64; LANES];
    let row = gx
        .chunks_exact(LANES)
        .zip(gy.chunks_exact(LANES))
        .zip(prev.chunks_exact_mut(LANES));
    for ((gx, gy), out) in row {
        for (l, c) in carry.iter_mut().enumerate() {
            *c = max(*c, dist2(ox, oy, gx, gy, l));
        }
        out.copy_from_slice(&carry);
    }
}

/// One Discrete-Fréchet body row (`i ≥ 1`) in squared space: column 0
/// chains vertically (`max(prev[0], d²)`), later columns take
/// `max(min(prev[j−1], prev[j], cur[j−1]), d²)`. `prev` and `cur` are
/// `cols·LANES` rolling rows; the whole of `cur` is written.
#[inline]
pub(crate) fn frechet_row(ox: f64, oy: f64, gx: &[f64], gy: &[f64], prev: &[f64], cur: &mut [f64]) {
    assert_eq!(gx.len() % LANES, 0);
    assert_eq!(gx.len(), gy.len());
    assert_eq!(prev.len(), gx.len());
    assert_eq!(cur.len(), prev.len());
    let w = gx.len();
    let mut carry = [0.0f64; LANES];
    for l in 0..LANES {
        carry[l] = max(prev[l], dist2(ox, oy, gx, gy, l));
    }
    cur[..LANES].copy_from_slice(&carry);
    let body = gx[LANES..]
        .chunks_exact(LANES)
        .zip(gy[LANES..].chunks_exact(LANES))
        .zip(prev[..w - LANES].chunks_exact(LANES))
        .zip(prev[LANES..].chunks_exact(LANES))
        .zip(cur[LANES..].chunks_exact_mut(LANES));
    for ((((gx, gy), pl), pu), out) in body {
        for l in 0..LANES {
            carry[l] = max(min(min(pl[l], pu[l]), carry[l]), dist2(ox, oy, gx, gy, l));
        }
        out.copy_from_slice(&carry);
    }
}

/// One ERP row: `cur[(j+1)·L] = min(prev[j·L] + d, prev[(j+1)·L] + gi,
/// cur[j·L] + gap_j)`, carry starting at `edge` (the outer gap prefix
/// `G[i][0]`, already written to `cur[..LANES]` by the caller).
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn erp_row(
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
    let mut carry = [edge; LANES];
    let body = gx
        .chunks_exact(LANES)
        .zip(gy.chunks_exact(LANES))
        .zip(gg.chunks_exact(LANES))
        .zip(prev[..gx.len()].chunks_exact(LANES))
        .zip(prev[LANES..].chunks_exact(LANES))
        .zip(cur[LANES..].chunks_exact_mut(LANES));
    for (((((gx, gy), gg), pl), pu), out) in body {
        for l in 0..LANES {
            let d = dist2(ox, oy, gx, gy, l).sqrt();
            let match_cost = pl[l] + d;
            let del_outer = pu[l] + gi;
            let del_inner = carry[l] + gg[l];
            carry[l] = min(min(match_cost, del_outer), del_inner);
        }
        out.copy_from_slice(&carry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The distance-space rows the engine ran before the rows above
    /// (`f64::min`/`f64::max`, a `sqrt` per cell, Fréchet chaining
    /// distances): the oracle every row must reproduce bit for bit,
    /// Fréchet after one `sqrt` per cell.
    #[allow(clippy::needless_range_loop)]
    mod oracle {
        use super::LANES;

        fn d(ox: f64, oy: f64, gx: f64, gy: f64) -> f64 {
            let (dx, dy) = (ox - gx, oy - gy);
            (dx * dx + dy * dy).sqrt()
        }

        pub fn dtw_row(ox: f64, oy: f64, gx: &[f64], gy: &[f64], prev: &[f64], cur: &mut [f64]) {
            let mut carry = [f64::INFINITY; LANES];
            for j in 0..gx.len() / LANES {
                for l in 0..LANES {
                    let c = j * LANES + l;
                    let best = prev[c].min(prev[c + LANES]).min(carry[l]);
                    carry[l] = d(ox, oy, gx[c], gy[c]) + best;
                    cur[c + LANES] = carry[l];
                }
            }
        }

        pub fn frechet_row0(ox: f64, oy: f64, gx: &[f64], gy: &[f64], prev: &mut [f64]) {
            for c in 0..gx.len() {
                let dist = d(ox, oy, gx[c], gy[c]);
                prev[c] = if c < LANES {
                    dist
                } else {
                    prev[c - LANES].max(dist)
                };
            }
        }

        pub fn frechet_row(
            ox: f64,
            oy: f64,
            gx: &[f64],
            gy: &[f64],
            prev: &[f64],
            cur: &mut [f64],
        ) {
            for c in 0..gx.len() {
                let dist = d(ox, oy, gx[c], gy[c]);
                cur[c] = if c < LANES {
                    prev[c].max(dist)
                } else {
                    prev[c - LANES].min(prev[c]).min(cur[c - LANES]).max(dist)
                };
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub fn erp_row(
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
            let mut carry = [edge; LANES];
            for j in 0..gx.len() / LANES {
                for l in 0..LANES {
                    let c = j * LANES + l;
                    let match_cost = prev[c] + d(ox, oy, gx[c], gy[c]);
                    let del_outer = prev[c + LANES] + gi;
                    let del_inner = carry[l] + gg[c];
                    carry[l] = match_cost.min(del_outer).min(del_inner);
                    cur[c + LANES] = carry[l];
                }
            }
        }
    }

    fn unit(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 11) as f64 / (1u64 << 53) as f64
    }

    fn fill(n: usize, seed: &mut u64) -> Vec<f64> {
        (0..n).map(|_| unit(seed) * 100.0).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs every row and its oracle on one input, Fréchet fed each side
    /// its own space (`prev_sq` squared, the oracle its `sqrt` image —
    /// the correspondence the engine keeps across rows).
    #[allow(clippy::too_many_arguments)]
    fn check_rows(
        what: &str,
        (ox, oy, gi, edge): (f64, f64, f64, f64),
        gx: &[f64],
        gy: &[f64],
        gg: &[f64],
        prev_w: &[f64],
        prev_sq: &[f64],
    ) {
        let w = gx.len();
        let mut a = vec![f64::INFINITY; w + LANES];
        let mut b = a.clone();
        dtw_row(ox, oy, gx, gy, prev_w, &mut a);
        oracle::dtw_row(ox, oy, gx, gy, prev_w, &mut b);
        assert_eq!(bits(&a), bits(&b), "dtw {what}");

        let unsquare = |v: &[f64]| bits(&v.iter().map(|x| x.sqrt()).collect::<Vec<_>>());
        let mut a = vec![0.0; w];
        let mut b = a.clone();
        frechet_row0(ox, oy, gx, gy, &mut a);
        oracle::frechet_row0(ox, oy, gx, gy, &mut b);
        assert_eq!(unsquare(&a), bits(&b), "frechet_row0 {what}");

        let prev_d: Vec<f64> = prev_sq.iter().map(|v| v.sqrt()).collect();
        let mut a = vec![0.0; w];
        let mut b = a.clone();
        frechet_row(ox, oy, gx, gy, prev_sq, &mut a);
        oracle::frechet_row(ox, oy, gx, gy, &prev_d, &mut b);
        assert_eq!(unsquare(&a), bits(&b), "frechet_row {what}");

        let mut a = vec![edge; w + LANES];
        let mut b = a.clone();
        erp_row(ox, oy, gi, edge, gx, gy, gg, prev_w, &mut a);
        oracle::erp_row(ox, oy, gi, edge, gx, gy, gg, prev_w, &mut b);
        assert_eq!(bits(&a), bits(&b), "erp {what}");
    }

    /// Every row equals the distance-space oracle bit for bit on random
    /// rows one to 33 groups wide, on rows where every lane point
    /// coincides with the outer point (`d² = 0`), and on rows whose
    /// previous row is partly `+inf` (DTW's virgin row).
    #[test]
    fn rows_match_the_distance_space_oracle() {
        let mut seed = 42u64;
        for cols in [1usize, 2, 7, 33] {
            let w = cols * LANES;
            let gx = fill(w, &mut seed);
            let gy = fill(w, &mut seed);
            let gg = fill(w, &mut seed);
            let mut prev_w = fill(w + LANES, &mut seed);
            let prev_sq = fill(w, &mut seed);
            let scalars = (
                unit(&mut seed) * 100.0,
                unit(&mut seed) * 100.0,
                unit(&mut seed) * 10.0,
                unit(&mut seed) * 10.0,
            );
            check_rows(
                &format!("cols={cols}"),
                scalars,
                &gx,
                &gy,
                &gg,
                &prev_w,
                &prev_sq,
            );

            // Coincident points: every other lane sits on the outer point.
            let (ox, oy, ..) = scalars;
            let mut cx = gx.clone();
            let mut cy = gy.clone();
            for c in (0..w).step_by(2) {
                (cx[c], cy[c]) = (ox, oy);
            }
            let zeros = vec![0.0; w];
            check_rows(
                &format!("coincident cols={cols}"),
                scalars,
                &cx,
                &cy,
                &gg,
                &prev_w,
                &zeros,
            );

            // Infinite cells in the previous row, every third one.
            for c in (0..w + LANES).step_by(3) {
                prev_w[c] = f64::INFINITY;
            }
            check_rows(
                &format!("inf cols={cols}"),
                scalars,
                &gx,
                &gy,
                &gg,
                &prev_w,
                &prev_sq,
            );
        }
    }

    /// Infinities in `prev` (DTW's virgin row) flow through the row and
    /// its oracle identically.
    #[test]
    fn dtw_row_handles_infinite_prev() {
        let w = 2 * LANES;
        let gx = vec![1.0; w];
        let gy = vec![2.0; w];
        let prev = vec![f64::INFINITY; w + LANES];
        let mut a = vec![f64::INFINITY; w + LANES];
        let mut b = a.clone();
        dtw_row(0.0, 0.0, &gx, &gy, &prev, &mut a);
        oracle::dtw_row(0.0, 0.0, &gx, &gy, &prev, &mut b);
        assert_eq!(bits(&a), bits(&b));
        assert!(a[LANES..].iter().all(|v| v.is_infinite()));
    }
}
