//! The pruning-accelerated exact ground-truth engine (`DESIGN.md` §10).
//!
//! Every NeuTraj run pays an O(N²·L²) toll before the first gradient
//! step: the seed matrix **D** (§III-B) and every accuracy table need
//! exact pairwise distances. [`GroundTruthEngine`] returns **bit-identical
//! values** to the naive DPs in `dtw.rs` / `frechet.rs` / `hausdorff.rs` /
//! `erp.rs` while skipping most of the work. Each DP measure has one
//! exact kernel, the lane-batched DP: `LANES` (8) pairs per step of the
//! DP chain, for every pair of `matrix` and `distances` and every pair a
//! `knn_lists` query scores. A knn query skips the rest through the
//! [`crate::bounds`] cascade (tier-0 endpoints + MBRs, tier-1 envelopes)
//! against its running k-th best distance. The same cascade, the one
//! private `Kernels::knn`, serves the re-rank stage of a shortlist search
//! ([`GroundTruthEngine::rerank`]) over the candidates a caller hands in.
//!
//! Hausdorff has one directed scan (locality probes, then the
//! crate-private `PointGrid` buckets) that abandons past a knn
//! threshold, and measures without an accelerated kernel pass through
//! [`Measure::dist`]. One work-stealing tile loop deals `matrix` to the
//! workers and chunked queries deal `knn_lists`; each worker owns
//! reusable DP scratch (two rolling rows) and flushes its
//! `neutraj_measures_*` tallies once.
//!
//! Determinism: bounds and abandonment only *compare* against thresholds
//! (strictly: a pair is skipped only when its distance provably exceeds
//! the threshold); every returned value is produced by an arithmetic
//! sequence identical to the naive kernel's, so results match bit-for-bit
//! at any thread count (`tests/pruning.rs`).

use crate::bounds::{lb_cheap, lb_tight, TrajCache};
use crate::bruteforce::{Neighbor, NeighborHeap};
use crate::simd::{self, LANES};
use crate::{Accel, DistanceMatrix, Measure};
use neutraj_obs::simd::SimdLevel;
use neutraj_obs::{names, Counter, Histogram, Registry};
use neutraj_trajectory::{par, Point, Trajectory};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Edge length of the square tiles [`GroundTruthEngine::matrix`] deals to
/// workers: 64² pairs is coarse enough to amortize the atomic fetch and
/// fine enough to balance a triangular workload.
const TILE: usize = 64;

// A tile edge is a whole number of lane groups: the tile loop finds a
// tile's groups by dividing its positions by `LANES`.
const _: () = assert!(TILE.is_multiple_of(LANES));

/// Per-thread reusable DP scratch: two rolling rows and locally-batched
/// metric tallies.
#[derive(Debug, Default)]
struct Scratch {
    prev: Vec<f64>,
    cur: Vec<f64>,
    tally: Tally,
}

/// Locally accumulated counters, flushed to the registry once per worker
/// (a relaxed `fetch_add` per pair would still be correct, but batching
/// keeps the hot loop free of shared-cacheline traffic).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    pairs: u64,
    lb_pruned: u64,
    ea_abandoned: u64,
    dp_cells: u64,
}

impl Tally {
    /// Counts `n` knn candidates the bound cascade discarded unscored.
    fn prune(&mut self, n: usize) {
        self.pairs += n as u64;
        self.lb_pruned += n as u64;
    }
}

#[derive(Debug, Clone)]
struct EngineMetrics {
    // (all handles are cheap Arc clones resolved once at construction)
    pairs: Counter,
    lb_pruned: Counter,
    ea_abandoned: Counter,
    dp_cells: Counter,
    matrix_seconds: Histogram,
    knn_seconds: Histogram,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            pairs: registry.counter(names::MEASURES_PAIRS_TOTAL),
            lb_pruned: registry.counter(names::MEASURES_LB_PRUNED_TOTAL),
            ea_abandoned: registry.counter(names::MEASURES_EA_ABANDONED_TOTAL),
            dp_cells: registry.counter(names::MEASURES_DP_CELLS_TOTAL),
            matrix_seconds: registry.histogram(names::MEASURES_MATRIX_SECONDS),
            knn_seconds: registry.histogram(names::MEASURES_KNN_SECONDS),
        }
    }

    fn flush(&self, t: Tally) {
        self.pairs.add(t.pairs);
        self.lb_pruned.add(t.lb_pruned);
        self.ea_abandoned.add(t.ea_abandoned);
        self.dp_cells.add(t.dp_cells);
    }
}

// ---------------------------------------------------------------------------
// Lane-batched row-major kernels (every DP pair)
// ---------------------------------------------------------------------------
//
// The row-major DP recurrences are latency-bound: each cell waits for its
// left neighbour through a `min`/`max` + `add` chain of ~8 cycles, while
// the distance computation pipelines off the chain for free. Batching
// [`LANES`] *pairs* — one shared outer trajectory against `LANES` inner
// trajectories interleaved element-wise — makes every chain step carry
// `LANES` cells instead of one, so the chain cost per cell drops by the
// lane count and the inner loop is a fixed-width vector body.
//
// Bit-identity is per-lane trivial: lane `l` evaluates the naive kernel's
// exact expression text over its own operands in the naive iteration
// order; other lanes never mix in (vector ops are element-wise). The only
// departure from the naive kernels is that the *row* side is the caller's
// trajectory rather than the longer of the two — and the recurrences are
// transpose-invariant bitwise: the per-cell distance is sign-symmetric
// under squaring and the three DP operands form the same value set, whose
// `min`/`max` (associative and commutative here: the values are
// non-negative sums or maxes of distances, never NaN and never `-0.0`)
// yields the same f64 either way.
//
// Lanes shorter than the group's `maxc` compute garbage cells past their
// own column count; dependencies only flow left/up, so garbage never
// reaches a live column, and each lane's result is read at its own final
// column. Lane groups are built once per call over the inner sides of
// its pairs — the length-sorted corpus for `matrix` (sorted so co-grouped
// lanes have similar `maxc` and padding work stays small), the `to` list
// of `distances`, a knn query's first `k` candidates and each batch of
// its tail survivors — and reused by every outer trajectory that pairs
// with them.

/// Up to [`LANES`] trajectories interleaved element-wise for the batched
/// kernels: `gx[j * LANES + l]` is point `j` of lane `l`. Only a list's
/// final group has lanes past `count`; they are empty.
struct LaneGroup {
    /// Point count per lane.
    len: [usize; LANES],
    /// Real lanes: `LANES` except in a list's final group.
    count: usize,
    /// Longest lane; the batched DP runs all lanes to this column count.
    maxc: usize,
    /// X coordinates, lane-interleaved, zero-filled past a lane's end.
    gx: Vec<f64>,
    /// Y coordinates, lane-interleaved.
    gy: Vec<f64>,
    /// ERP only: per-point gap costs, lane-interleaved.
    gg: Vec<f64>,
    /// ERP only: gap-cost prefix sums (the DP's row 0), lane-interleaved,
    /// `(maxc + 1) * LANES` long, accumulated per lane in the naive row-0
    /// order.
    gp: Vec<f64>,
}

/// Interleaves the trajectories `ids` names, in that order, [`LANES`] to
/// a group: position `p` of `ids` is lane `p % LANES` of group
/// `p / LANES`.
fn build_lane_groups(caches: &[TrajCache], ids: &[usize], erp: bool) -> Vec<LaneGroup> {
    ids.chunks(LANES)
        .map(|chunk| {
            let lanes = || chunk.iter().map(|&i| &caches[i]).enumerate();
            let mut len = [0; LANES];
            for (l, c) in lanes() {
                len[l] = c.len();
            }
            let maxc = len.into_iter().max().unwrap_or(0);
            let mut gx = vec![0.0; maxc * LANES];
            let mut gy = vec![0.0; maxc * LANES];
            for (l, c) in lanes() {
                for (j, (&x, &y)) in c.xs.iter().zip(&c.ys).enumerate() {
                    gx[j * LANES + l] = x;
                    gy[j * LANES + l] = y;
                }
            }
            let (gg, gp) = if erp {
                let mut gg = vec![0.0; maxc * LANES];
                let mut gp = vec![0.0; (maxc + 1) * LANES];
                for (l, c) in lanes() {
                    let mut acc = 0.0f64;
                    for j in 0..maxc {
                        if let Some(&g) = c.gap_dists.get(j) {
                            gg[j * LANES + l] = g;
                            acc += g;
                        }
                        // Past the lane's end the prefix plateaus — those
                        // slots only feed garbage columns.
                        gp[(j + 1) * LANES + l] = acc;
                    }
                }
                (gg, gp)
            } else {
                (Vec::new(), Vec::new())
            };
            LaneGroup {
                len,
                count: chunk.len(),
                maxc,
                gx,
                gy,
                gg,
                gp,
            }
        })
        .collect()
}

/// `outer` against every lane of `g` under the lane kernel of `accel`
/// (`+inf` where either side is empty, the naive convention).
fn lane_batch(
    accel: Accel,
    outer: &TrajCache,
    g: &LaneGroup,
    s: &mut Scratch,
    level: SimdLevel,
) -> [f64; LANES] {
    if outer.is_empty() || g.maxc == 0 {
        return [f64::INFINITY; LANES];
    }
    match accel {
        Accel::Dtw => dtw_batch(outer, g, s, level),
        Accel::Frechet => frechet_batch(outer, g, s, level),
        Accel::Erp { .. } => erp_batch(outer, g, s, level),
        Accel::Hausdorff => unreachable!("Hausdorff has no lane kernel"),
    }
}

/// Batched [`crate::Dtw::full`]: `outer` against every lane of `g`. The
/// per-row chain runs in `crate::simd` at the requested dispatch level
/// (scalar oracle or AVX2 — bit-identical either way).
fn dtw_batch(outer: &TrajCache, g: &LaneGroup, s: &mut Scratch, level: SimdLevel) -> [f64; LANES] {
    let maxc = g.maxc;
    let w = (maxc + 1) * LANES;
    s.prev.clear();
    s.prev.resize(w, f64::INFINITY);
    s.cur.clear();
    s.cur.resize(w, f64::INFINITY);
    s.prev[..LANES].fill(0.0);
    for i in 0..outer.len() {
        let (ox, oy) = (outer.xs[i], outer.ys[i]);
        s.cur[..LANES].fill(f64::INFINITY);
        simd::dtw_row(level, ox, oy, &g.gx, &g.gy, &s.prev, &mut s.cur);
        std::mem::swap(&mut s.prev, &mut s.cur);
    }
    std::array::from_fn(|l| {
        if g.len[l] == 0 {
            f64::INFINITY
        } else {
            s.prev[g.len[l] * LANES + l]
        }
    })
}

/// Batched [`crate::DiscreteFrechet::compute`].
fn frechet_batch(
    outer: &TrajCache,
    g: &LaneGroup,
    s: &mut Scratch,
    level: SimdLevel,
) -> [f64; LANES] {
    let maxc = g.maxc;
    let w = maxc * LANES;
    s.prev.clear();
    s.prev.resize(w, 0.0);
    s.cur.clear();
    s.cur.resize(w, 0.0);
    // Row 0: a horizontal running-max chain per lane.
    simd::frechet_row0(level, outer.xs[0], outer.ys[0], &g.gx, &g.gy, &mut s.prev);
    for i in 1..outer.len() {
        simd::frechet_row(
            level,
            outer.xs[i],
            outer.ys[i],
            &g.gx,
            &g.gy,
            &s.prev,
            &mut s.cur,
        );
        std::mem::swap(&mut s.prev, &mut s.cur);
    }
    // The AVX2 rows run the min/max DP over squared distances; one sqrt
    // per lane here reproduces the scalar result bitwise (monotone sqrt
    // commutes with min/max — see `simd::frechet_squared`).
    let squared = simd::frechet_squared(level);
    std::array::from_fn(|l| {
        if g.len[l] == 0 {
            f64::INFINITY
        } else {
            let v = s.prev[(g.len[l] - 1) * LANES + l];
            if squared {
                v.sqrt()
            } else {
                v
            }
        }
    })
}

/// Batched [`crate::Erp::compute`].
fn erp_batch(outer: &TrajCache, g: &LaneGroup, s: &mut Scratch, level: SimdLevel) -> [f64; LANES] {
    let maxc = g.maxc;
    let w = (maxc + 1) * LANES;
    s.prev.clear();
    s.prev.extend_from_slice(&g.gp);
    s.cur.clear();
    s.cur.resize(w, 0.0);
    // G[i][0] — the outer gap prefix — is the same value in every lane;
    // accumulate it in the naive order (cur[0] = prev[0] + gi per row).
    let mut edge = 0.0f64;
    for i in 0..outer.len() {
        let (ox, oy) = (outer.xs[i], outer.ys[i]);
        let gi = outer.gap_dists[i];
        edge += gi;
        s.cur[..LANES].fill(edge);
        simd::erp_row(
            level, ox, oy, gi, edge, &g.gx, &g.gy, &g.gg, &s.prev, &mut s.cur,
        );
        std::mem::swap(&mut s.prev, &mut s.cur);
    }
    std::array::from_fn(|l| {
        if g.len[l] == 0 {
            f64::INFINITY
        } else {
            s.prev[g.len[l] * LANES + l]
        }
    })
}

/// Linear probes tried per query point before falling back to the grid:
/// for far-apart pairs almost any target point clears the running `worst`,
/// exactly like the naive scan's early break on its first candidates.
const HAUSDORFF_PROBES: usize = 4;

/// Below this target size the directed scan skips the grid entirely: a
/// wraparound scan from the last hit index settles most points in one or
/// two squared distances, and ring bookkeeping can't beat that while the
/// whole point set fits in a few cache lines.
pub(crate) const HAUSDORFF_GRID_MIN: usize = 64;

/// Directed Hausdorff via the target's point grid. The running `worst` is
/// exactly the naive scan's: the grid either returns the exact inner
/// minimum (when it exceeds `worst`, the only case that updates) or stops
/// early at a value `<= worst` (which the naive early-break also discards).
fn hausdorff_directed(
    from: &TrajCache,
    to: &TrajCache,
    threshold: f64,
    t: &mut Tally,
) -> Option<f64> {
    let m = to.len();
    let mut worst = 0.0f64;
    // Index of the last target point that cleared `worst`: consecutive
    // query points are adjacent on their route, so their nearest targets
    // track each other — probing from the last hit settles most points in
    // one squared distance.
    let mut hit = 0usize;
    // Settle the query point farthest from the target's MBR exactly,
    // before the scan: its minimum is a likely realizer of the directed
    // max, and a large `worst` up front lets the probes settle nearly
    // every other point immediately. The final `worst` is the max of
    // exact per-point minima — order-independent in f64 — so seeding
    // changes no bits (the seeded point re-settles in the main loop via
    // its own argmin, now the probe cursor).
    {
        let mut far = 0usize;
        let mut far_d = f64::NEG_INFINITY;
        for (k, (&x, &y)) in from.xs.iter().zip(&from.ys).enumerate() {
            let d = to.bbox.min_dist(Point::new(x, y));
            if d > far_d {
                far_d = d;
                far = k;
            }
        }
        let (x, y) = (from.xs[far], from.ys[far]);
        let mut best = f64::INFINITY;
        for (k, (&qx, &qy)) in to.xs.iter().zip(&to.ys).enumerate() {
            let d = (x - qx) * (x - qx) + (y - qy) * (y - qy);
            if d < best {
                best = d;
                hit = k;
            }
        }
        if best > worst {
            worst = best;
            if worst.sqrt() > threshold {
                return None;
            }
        }
    }
    if m < HAUSDORFF_GRID_MIN {
        // Small target: a few wraparound probes from the last hit, then a
        // branch-free exact min over the whole set. The min of a fixed set
        // of squared distances is order-independent in f64, so the lane
        // split below returns the same bits as a sequential scan.
        'points: for (&x, &y) in from.xs.iter().zip(&from.ys) {
            let mut k = hit;
            for _ in 0..HAUSDORFF_PROBES.min(m) {
                let (dx, dy) = (x - to.xs[k], y - to.ys[k]);
                if dx * dx + dy * dy <= worst {
                    hit = k;
                    continue 'points;
                }
                k += 1;
                if k == m {
                    k = 0;
                }
            }
            let (mut m0, mut m1, mut m2, mut m3) =
                (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY);
            let mut cx = to.xs.chunks_exact(4);
            let mut cy = to.ys.chunks_exact(4);
            for (qx, qy) in cx.by_ref().zip(cy.by_ref()) {
                let d0 = (x - qx[0]) * (x - qx[0]) + (y - qy[0]) * (y - qy[0]);
                let d1 = (x - qx[1]) * (x - qx[1]) + (y - qy[1]) * (y - qy[1]);
                let d2 = (x - qx[2]) * (x - qx[2]) + (y - qy[2]) * (y - qy[2]);
                let d3 = (x - qx[3]) * (x - qx[3]) + (y - qy[3]) * (y - qy[3]);
                m0 = m0.min(d0);
                m1 = m1.min(d1);
                m2 = m2.min(d2);
                m3 = m3.min(d3);
            }
            for (&qx, &qy) in cx.remainder().iter().zip(cy.remainder()) {
                let d = (x - qx) * (x - qx) + (y - qy) * (y - qy);
                m0 = m0.min(d);
            }
            let min_sq = m0.min(m1).min(m2).min(m3);
            if min_sq > worst {
                worst = min_sq;
                // The symmetric distance is >= this direction's partial
                // max; comparing after the sqrt keeps the test exact.
                if worst.sqrt() > threshold {
                    return None;
                }
            }
        }
        t.dp_cells += from.len() as u64;
        return Some(worst.sqrt());
    }
    let grid = to.grid.as_ref().expect("hausdorff cache carries a grid");
    for (&x, &y) in from.xs.iter().zip(&from.ys) {
        // Probe a few points directly (squared distances, no sqrt): any
        // member at `<= worst` settles this term without touching the
        // grid, and the probed minimum seeds the grid scan otherwise.
        let mut seed = f64::INFINITY;
        let mut k = hit;
        for _ in 0..HAUSDORFF_PROBES.min(m) {
            let (dx, dy) = (x - to.xs[k], y - to.ys[k]);
            let d = dx * dx + dy * dy;
            if d < seed {
                seed = d;
            }
            if d <= worst {
                hit = k;
                break;
            }
            k += 1;
            if k == m {
                k = 0;
            }
        }
        if seed <= worst {
            continue;
        }
        let best = grid.min_dist_sq_from(Point::new(x, y), worst, seed);
        if best > worst {
            worst = best;
            // The symmetric distance is >= this direction's partial max;
            // comparing after the sqrt keeps the test exact.
            if worst.sqrt() > threshold {
                return None;
            }
        }
    }
    t.dp_cells += from.len() as u64;
    Some(worst.sqrt())
}

fn hausdorff_kernel(a: &TrajCache, b: &TrajCache, threshold: f64, t: &mut Tally) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return Some(f64::INFINITY);
    }
    let d_ab = hausdorff_directed(a, b, threshold, t)?;
    let d_ba = hausdorff_directed(b, a, threshold, t)?;
    Some(d_ab.max(d_ba))
}

// ---------------------------------------------------------------------------
// The cascade
// ---------------------------------------------------------------------------

/// The exact kernels of one accelerated measure over one list of cached
/// trajectories: an engine's corpus, or the candidates of one re-rank.
/// Every exact pair [`GroundTruthEngine`] scores goes through here.
#[derive(Clone, Copy)]
struct Kernels<'c> {
    acc: Accel,
    level: SimdLevel,
    caches: &'c [TrajCache],
}

impl Kernels<'_> {
    /// Whether this measure has a lane kernel (the three DP measures).
    fn has_lanes(&self) -> bool {
        matches!(self.acc, Accel::Dtw | Accel::Frechet | Accel::Erp { .. })
    }

    /// Lane groups over the trajectories `ids` names, in that order; `None`
    /// for Hausdorff, which has no lane kernel.
    fn lane_groups(&self, ids: &[usize]) -> Option<Vec<LaneGroup>> {
        let erp = matches!(self.acc, Accel::Erp { .. });
        self.has_lanes()
            .then(|| build_lane_groups(self.caches, ids, erp))
    }

    /// Exact distances from `outer` to `caches[ids[p]]` for every
    /// `p >= from`, handed to `emit(p, dist)`: one lane-kernel call per
    /// group of `groups` (built over `ids` by [`Self::lane_groups`]) from
    /// the one holding `from` on, or one unthresholded directed-scan pair
    /// at a time for Hausdorff.
    fn row(
        &self,
        outer: &TrajCache,
        ids: &[usize],
        groups: Option<&[LaneGroup]>,
        from: usize,
        s: &mut Scratch,
        mut emit: impl FnMut(usize, f64),
    ) {
        let Some(groups) = groups else {
            for (p, &j) in ids.iter().enumerate().skip(from) {
                s.tally.pairs += 1;
                let d = hausdorff_kernel(outer, &self.caches[j], f64::INFINITY, &mut s.tally)
                    .expect("nothing is abandoned without a threshold");
                emit(p, d);
            }
            return;
        };
        let last = ids.len().div_ceil(LANES);
        for (gi, g) in groups.iter().enumerate().take(last).skip(from / LANES) {
            let res = lane_batch(self.acc, outer, g, s, self.level);
            for (l, &d) in res.iter().enumerate().take(g.count) {
                let p = gi * LANES + l;
                if p < from {
                    continue;
                }
                s.tally.pairs += 1;
                s.tally.dp_cells += (outer.len() * g.len[l]) as u64;
                emit(p, d);
            }
        }
    }

    /// The exact top-`k` of `cands` (positions in `caches`) to `query`,
    /// each reported under `id(position)`, ascending by `(dist, id)`.
    ///
    /// Candidates are visited in ascending cheap-bound order, so good
    /// neighbours tighten the threshold early and the sorted bounds let
    /// one comparison discard the whole remaining tail. The first `k`
    /// have no threshold to prune against: they fill the heap exactly, as
    /// one set of lane groups, sorted by length so that co-grouped lanes
    /// pad little. For a lane measure the fill takes the first `k` rounded
    /// up to whole groups: a group costs the same with one live lane as
    /// with `LANES`, and the extra lanes tighten the root before the tail
    /// is read. The tail then faces the heap's root: the bulk cut ends
    /// the query, the tight bound drops one candidate, and each batch of
    /// up to `LANES` survivors is scored in one lane group before the
    /// root is re-read (Hausdorff, with no lanes, takes one directed scan
    /// per survivor, abandoned past the root). A candidate is skipped
    /// only when its bound exceeds the root at that moment, and the root
    /// never falls below the final k-th best, so the list is exact; which
    /// pushes happen in which order changes nothing, because the heap's
    /// `(dist, id)` total order decides every admission.
    fn knn(
        &self,
        query: &TrajCache,
        cands: impl Iterator<Item = usize>,
        id: impl Fn(usize) -> usize,
        k: usize,
        s: &mut Scratch,
    ) -> Vec<Neighbor> {
        let mut heap = NeighborHeap::new(k);
        if k == 0 {
            return heap.into_sorted();
        }
        let (acc, caches) = (self.acc, self.caches);
        let mut order: Vec<(f64, usize)> = cands
            .map(|j| (lb_cheap(acc, query, &caches[j]), j))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let lanes = self.has_lanes();
        let warm_len = if lanes { k.next_multiple_of(LANES) } else { k };
        let mut warm: Vec<usize> = order.iter().take(warm_len).map(|&(_, j)| j).collect();
        warm.sort_by_key(|&j| caches[j].len());
        let groups = self.lane_groups(&warm);
        self.row(query, &warm, groups.as_deref(), 0, s, |p, d| {
            heap.push(id(warm[p]), d)
        });
        let batch_len = if lanes { LANES } else { 1 };
        let mut batch = Vec::with_capacity(batch_len);
        let mut pos = warm.len();
        while pos < order.len() {
            let thr = heap.threshold().expect("the first k filled the heap").dist;
            batch.clear();
            while pos < order.len() && batch.len() < batch_len {
                let (lb, j) = order[pos];
                if lb > thr {
                    s.tally.prune(order.len() - pos);
                    pos = order.len();
                } else {
                    pos += 1;
                    if lb_tight(acc, query, &caches[j]) > thr {
                        s.tally.prune(1);
                    } else {
                        batch.push(j);
                    }
                }
            }
            if lanes {
                let groups = self.lane_groups(&batch);
                self.row(query, &batch, groups.as_deref(), 0, s, |p, d| {
                    heap.push(id(batch[p]), d)
                });
            } else {
                for &j in &batch {
                    s.tally.pairs += 1;
                    match hausdorff_kernel(query, &caches[j], thr, &mut s.tally) {
                        Some(d) => heap.push(id(j), d),
                        None => s.tally.ea_abandoned += 1,
                    }
                }
            }
        }
        heap.into_sorted()
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Pruned exact ground-truth driver over a fixed corpus: distance
/// matrices, sparse exact rows and top-k supervision lists, all
/// bit-identical to the naive per-pair DPs at any thread count. It also
/// serves the re-rank stage of a shortlist search ([`Self::rerank`]),
/// over candidates the caller hands in.
///
/// Construction summarizes every trajectory once ([`TrajCache`]); measures
/// without an accelerated kernel ([`Measure::accel`] `== None`, e.g. EDR /
/// LCSS / custom measures) pass through [`Measure::dist`] unchanged and
/// still benefit from the parallel drivers.
pub struct GroundTruthEngine<'a> {
    measure: &'a dyn Measure,
    trajs: &'a [Trajectory],
    accel: Option<Accel>,
    caches: Vec<TrajCache>,
    metrics: Option<EngineMetrics>,
    /// Dispatch level for the lane-batched kernels: the process-wide
    /// detection by default, overridable per engine for A/B tests.
    simd: SimdLevel,
}

impl std::fmt::Debug for GroundTruthEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroundTruthEngine")
            .field("measure", &self.measure.name())
            .field("n", &self.trajs.len())
            .field("accel", &self.accel)
            .finish_non_exhaustive()
    }
}

impl<'a> GroundTruthEngine<'a> {
    /// Builds the engine, summarizing each trajectory once (O(N·L)).
    pub fn new(measure: &'a dyn Measure, trajs: &'a [Trajectory]) -> Self {
        let accel = measure.accel();
        let caches = match accel {
            Some(acc) => trajs
                .iter()
                .map(|t| TrajCache::build(t.points(), acc))
                .collect(),
            None => Vec::new(),
        };
        Self {
            measure,
            trajs,
            accel,
            caches,
            metrics: None,
            simd: neutraj_obs::simd::level(),
        }
    }

    /// Records `neutraj_measures_*` counters and timers into `registry`.
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(EngineMetrics::new(registry));
        self
    }

    /// Forces the lane-kernel dispatch level (default: the process-wide
    /// [`neutraj_obs::simd::level`]). Results are bit-identical at every
    /// level — this exists for A/B benchmarks and the bit-identity
    /// property tests, which compare both paths in one process.
    pub fn with_simd_level(mut self, level: SimdLevel) -> Self {
        self.simd = level;
        self
    }

    /// The dispatch level the lane-batched kernels will run at.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// Corpus size.
    pub fn len(&self) -> usize {
        self.trajs.len()
    }

    /// Returns `true` for an empty corpus.
    pub fn is_empty(&self) -> bool {
        self.trajs.is_empty()
    }

    /// The full symmetric distance matrix: upper-triangle tiles of the
    /// corpus (length-sorted for the lane kernels) handed to `threads`
    /// workers by an atomic work-stealing counter. Every cell is exact (a
    /// dense matrix admits no threshold), so the win here is throughput:
    /// the DP measures run the lane-batched kernels (eight pairs per chain
    /// step), and Hausdorff gets scratch reuse plus its locality/grid scan.
    pub fn matrix(&self, threads: usize) -> DistanceMatrix {
        let _span = self
            .metrics
            .as_ref()
            .map(|m| m.matrix_seconds.start_timer());
        let n = self.trajs.len();
        // The lane kernels want the corpus sorted by length, so co-grouped
        // lanes pad little; measures without them keep corpus order.
        let mut order: Vec<usize> = (0..n).collect();
        if self.kernels().is_some_and(|kn| kn.has_lanes()) {
            order.sort_by_key(|&i| (self.caches[i].len(), i));
        }
        let groups = self.lane_groups(&order);
        let nb = n.div_ceil(TILE);
        let tiles: Vec<(usize, usize)> = (0..nb)
            .flat_map(|bi| (bi..nb).map(move |bj| (bi, bj)))
            .collect();
        let next = AtomicUsize::new(0);
        let parts = par::fan_out(0..threads.max(1).min(tiles.len()), |_| {
            let mut s = Scratch::default();
            let mut out: Vec<(u32, u32, f64)> = Vec::new();
            while let Some(&(bi, bj)) = tiles.get(next.fetch_add(1, Ordering::Relaxed)) {
                let inner = &order[..((bj + 1) * TILE).min(n)];
                for p in bi * TILE..((bi + 1) * TILE).min(n) {
                    let i = order[p];
                    // Each pair once: row `p` takes the tile's positions
                    // past the diagonal. A lane group straddling the
                    // diagonal is computed whole and its earlier lanes
                    // dropped (a few percent of one tile row's work).
                    let from = (bj * TILE).max(p + 1);
                    self.exact_row(i, inner, groups.as_deref(), from, &mut s, |q, d| {
                        out.push((i as u32, order[q] as u32, d));
                    });
                }
            }
            self.flush(s);
            out
        });
        let mut data = vec![0.0; n * n];
        for (i, j, d) in parts.into_iter().flatten() {
            let (i, j) = (i as usize, j as usize);
            data[i * n + j] = d;
            data[j * n + i] = d;
        }
        DistanceMatrix::from_raw(n, data)
    }

    /// Top-`k` exact neighbour lists (self excluded, ascending by
    /// `(dist, index)`) for each query — the supervision shape the eval
    /// harness and TSMini-style training want. This is where the cascade
    /// bites: candidates are visited in cheap-bound order, the first `k`
    /// fill the heap through the lane kernels, then the running kth-best
    /// distance prunes whole tails in bulk, survivors face the tier-1
    /// bound, and what is left is scored `LANES` at a time by the same
    /// lane kernels (Hausdorff: one directed scan each, abandoned past the
    /// threshold).
    ///
    /// Identical to `top_k` over a naive exact row at any thread count.
    pub fn knn_lists(&self, queries: &[usize], k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        let _span = self.metrics.as_ref().map(|m| m.knn_seconds.start_timer());
        let n = self.trajs.len();
        self.query_map(queries, threads, |q, s| {
            let others = (0..n).filter(move |&j| j != q);
            match self.kernels() {
                Some(kn) => kn.knn(&self.caches[q], others, |j| j, k, s),
                None => {
                    let others = others.map(|j| (j, self.trajs[j].points()));
                    self.dist_knn(self.trajs[q].points(), others, k, s)
                }
            }
        })
    }

    /// The exact top-`k` of `candidates` to `query`, ascending under
    /// [`crate::neighbor_order`] with ties broken by each candidate's
    /// `id` — the re-rank stage of a shortlist search (`DESIGN.md` §13).
    /// The candidates are the caller's `(id, points)` pairs, not the
    /// corpus, which plays no part: an engine over no trajectories
    /// re-ranks as well as any.
    ///
    /// Accelerated measures run [`Self::knn_lists`]' cascade over the
    /// candidates (bound order, the first `k` through the lane kernels,
    /// the tail pruned against the heap's root and its survivors scored
    /// `LANES` at a time); other measures call [`Measure::dist`] once per
    /// candidate, in `candidates` order. Either way the answer equals
    /// `Measure::dist` per candidate, sorted by `neighbor_order` and
    /// truncated to `k`, bit for bit.
    pub fn rerank(
        &self,
        query: &[Point],
        candidates: &[(usize, &[Point])],
        k: usize,
    ) -> Vec<Neighbor> {
        let mut s = Scratch::default();
        let out = match self.accel {
            Some(acc) => {
                let caches: Vec<TrajCache> = candidates
                    .iter()
                    .map(|&(_, pts)| TrajCache::build(pts, acc))
                    .collect();
                let kn = Kernels {
                    acc,
                    level: self.simd,
                    caches: &caches,
                };
                let query = TrajCache::build(query, acc);
                kn.knn(&query, 0..caches.len(), |p| candidates[p].0, k, &mut s)
            }
            None => self.dist_knn(query, candidates.iter().copied(), k, &mut s),
        };
        self.flush(s);
        out
    }

    /// Exact distances from `from` to each index in `to` (sparse row, any
    /// order, repeats allowed) — used by top-k ground truth to score
    /// method rankings on demand.
    pub fn distances(&self, from: usize, to: &[usize]) -> Vec<f64> {
        let groups = self.lane_groups(to);
        let mut rows = self.query_map(&[from], 1, |q, s| {
            let mut row = vec![0.0; to.len()];
            self.exact_row(q, to, groups.as_deref(), 0, s, |p, d| row[p] = d);
            row
        });
        rows.pop().expect("one query, one row")
    }

    /// The kernels over this engine's corpus; `None` for a measure
    /// without an accelerated kernel.
    fn kernels(&self) -> Option<Kernels<'_>> {
        self.accel.map(|acc| Kernels {
            acc,
            level: self.simd,
            caches: &self.caches,
        })
    }

    /// Lane groups over the corpus members `ids` names, in that order;
    /// `None` for measures without a lane kernel.
    fn lane_groups(&self, ids: &[usize]) -> Option<Vec<LaneGroup>> {
        self.kernels().and_then(|kn| kn.lane_groups(ids))
    }

    /// Exact distances from corpus member `i` to `ids[p]` for every
    /// `p >= from`, handed to `emit(p, dist)`: [`Kernels::row`], or one
    /// [`Measure::dist`] per pair for a measure without an accelerated
    /// kernel.
    fn exact_row(
        &self,
        i: usize,
        ids: &[usize],
        groups: Option<&[LaneGroup]>,
        from: usize,
        s: &mut Scratch,
        mut emit: impl FnMut(usize, f64),
    ) {
        match self.kernels() {
            Some(kn) => kn.row(&self.caches[i], ids, groups, from, s, emit),
            None => {
                for (p, &j) in ids.iter().enumerate().skip(from) {
                    emit(
                        p,
                        self.pair_dist(self.trajs[i].points(), self.trajs[j].points(), s),
                    );
                }
            }
        }
    }

    /// [`Measure::dist`] of one pair, orientation `(a, b)` — the call
    /// order of the naive drivers — for a measure without an accelerated
    /// kernel.
    fn pair_dist(&self, a: &[Point], b: &[Point], s: &mut Scratch) -> f64 {
        s.tally.pairs += 1;
        self.measure.dist(a, b)
    }

    /// The top-`k` of `cands` to `query` for a measure without an
    /// accelerated kernel: one [`Self::pair_dist`] per candidate, in
    /// `cands` order, into a heap under the `(dist, id)` order.
    fn dist_knn<'p>(
        &self,
        query: &[Point],
        cands: impl Iterator<Item = (usize, &'p [Point])>,
        k: usize,
        s: &mut Scratch,
    ) -> Vec<Neighbor> {
        let mut heap = NeighborHeap::new(k);
        for (id, pts) in cands {
            heap.push(id, self.pair_dist(query, pts, s));
        }
        heap.into_sorted()
    }

    /// Maps queries through `f` on up to `threads` workers (order
    /// preserved), each worker taking one contiguous chunk with its own
    /// reusable [`Scratch`].
    fn query_map<R: Send>(
        &self,
        queries: &[usize],
        threads: usize,
        f: impl Fn(usize, &mut Scratch) -> R + Sync,
    ) -> Vec<R> {
        let chunk = queries.len().div_ceil(threads.max(1)).max(1);
        let parts = par::fan_out(queries.chunks(chunk), |part| {
            let mut s = Scratch::default();
            let out: Vec<R> = part.iter().map(|&q| f(q, &mut s)).collect();
            self.flush(s);
            out
        });
        parts.into_iter().flatten().collect()
    }

    /// Adds a worker's tally to the registry, once per worker.
    fn flush(&self, s: Scratch) {
        if let Some(m) = &self.metrics {
            m.flush(s.tally);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{top_k, MeasureKind};

    /// A deterministic mixed-length corpus with clusters (so pruning has
    /// something to bite on) and degenerate members.
    fn corpus(n: usize) -> Vec<Trajectory> {
        (0..n as u64)
            .map(|id| {
                let h = id.wrapping_mul(0x9E3779B97F4A7C15);
                let cluster = (h % 5) as f64;
                let len = 3 + (h >> 8) % 10;
                let pts = (0..len)
                    .map(|k| {
                        let hk = h.wrapping_add(k.wrapping_mul(0xD1B54A32D192ED03));
                        Point::new(
                            cluster * 40.0 + (hk % 97) as f64 * 0.11,
                            cluster * -25.0 + ((hk >> 13) % 89) as f64 * 0.13,
                        )
                    })
                    .collect();
                Trajectory::new_unchecked(id, pts)
            })
            .collect()
    }

    #[test]
    fn matrix_is_bit_identical_to_naive_for_all_kinds() {
        let ts = corpus(70);
        for kind in MeasureKind::ALL {
            let measure = kind.measure();
            let mut naive = vec![0.0; ts.len() * ts.len()];
            for i in 0..ts.len() {
                for j in i + 1..ts.len() {
                    let d = measure.dist(ts[i].points(), ts[j].points());
                    naive[i * ts.len() + j] = d;
                    naive[j * ts.len() + i] = d;
                }
            }
            let engine = GroundTruthEngine::new(&*measure, &ts);
            for threads in [1, 3] {
                let m = engine.matrix(threads);
                assert_eq!(
                    m,
                    DistanceMatrix::from_raw(ts.len(), naive.clone()),
                    "{kind} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn knn_lists_match_naive_top_k() {
        let ts = corpus(60);
        let queries: Vec<usize> = vec![0, 7, 31, 59];
        for kind in MeasureKind::ALL {
            let measure = kind.measure();
            let engine = GroundTruthEngine::new(&*measure, &ts);
            for k in [1usize, 5, 12] {
                let got = engine.knn_lists(&queries, k, 2);
                for (qi, &q) in queries.iter().enumerate() {
                    let dists: Vec<f64> = (0..ts.len())
                        .map(|j| {
                            if j == q {
                                f64::INFINITY
                            } else {
                                measure.dist(ts[q].points(), ts[j].points())
                            }
                        })
                        .collect();
                    let mut expect = top_k(&dists, k);
                    expect.retain(|n| n.dist.is_finite() || n.index != q);
                    assert_eq!(got[qi], expect, "{kind} q={q} k={k}");
                }
            }
        }
    }

    #[test]
    fn rows_match_naive_and_include_self() {
        let ts = corpus(25);
        let queries = vec![0usize, 11, 24];
        for kind in MeasureKind::ALL {
            let measure = kind.measure();
            let engine = GroundTruthEngine::new(&*measure, &ts);
            let all: Vec<usize> = (0..ts.len()).collect();
            for &q in &queries {
                let row = engine.distances(q, &all);
                let naive: Vec<f64> = ts
                    .iter()
                    .map(|t| measure.dist(ts[q].points(), t.points()))
                    .collect();
                assert_eq!(row, naive, "{kind} q={q}");
                assert_eq!(row[q], 0.0);
            }
            let sparse = engine.distances(queries[0], &[3, 9, 3]);
            assert_eq!(sparse[0], sparse[2]);
            assert_eq!(sparse[1], measure.dist(ts[0].points(), ts[9].points()));
        }
    }

    #[test]
    fn empty_and_tiny_corpora_are_handled() {
        let measure = MeasureKind::Dtw.measure();
        let empty: Vec<Trajectory> = Vec::new();
        let engine = GroundTruthEngine::new(&*measure, &empty);
        assert!(engine.is_empty());
        assert_eq!(engine.matrix(4).n(), 0);
        assert!(engine.knn_lists(&[], 5, 2).is_empty());

        let one = corpus(1);
        let engine = GroundTruthEngine::new(&*measure, &one);
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.matrix(4).n(), 1);
        assert!(engine.knn_lists(&[0], 5, 1)[0].is_empty());
        // A corpus containing an empty trajectory yields infinite rows,
        // not panics.
        let mut ts = corpus(4);
        ts.push(Trajectory::new_unchecked(99, vec![]));
        let engine = GroundTruthEngine::new(&*measure, &ts);
        let m = engine.matrix(2);
        assert_eq!(m.get(0, 4), f64::INFINITY);
        let nn = engine.knn_lists(&[4], 2, 1);
        assert_eq!(nn[0].len(), 2);
        assert_eq!(nn[0][0].dist, f64::INFINITY);
    }

    #[test]
    fn metrics_record_pairs_and_prunes() {
        let ts = corpus(80);
        let measure = MeasureKind::Dtw.measure();
        let registry = Registry::new();
        let engine = GroundTruthEngine::new(&*measure, &ts).with_metrics(&registry);
        let queries: Vec<usize> = (0..ts.len()).collect();
        let _ = engine.knn_lists(&queries, 5, 2);
        let _ = engine.matrix(2);
        let report = registry.snapshot();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        let pairs = counter(names::MEASURES_PAIRS_TOTAL);
        let pruned = counter(names::MEASURES_LB_PRUNED_TOTAL);
        assert_eq!(pairs as usize, ts.len() * (ts.len() - 1) + 80 * 79 / 2);
        assert!(pruned > 0, "clustered corpus must prune");
        assert!(counter(names::MEASURES_DP_CELLS_TOTAL) > 0);
        assert!(report
            .gauges
            .iter()
            .any(|(n, _)| n == names::MEASURES_PRUNE_RATE));
        assert_eq!(
            report
                .histograms
                .iter()
                .filter(|h| h.name.starts_with("neutraj_measures_"))
                .count(),
            2
        );
    }
}
