//! Property-based bit-identity tests of the pruned ground-truth engine:
//! for every measure, every engine entry point — the re-rank of a
//! caller's shortlist included — must return **exactly** the bits the
//! naive per-pair kernels produce, at any thread count. Pruning
//! that perturbs even one ULP is a bug, not an approximation.

use neutraj_measures::{
    neighbor_order, top_k, DistanceMatrix, GroundTruthEngine, Measure, MeasureKind, Neighbor, Sspd,
};
use neutraj_trajectory::rng::{cases, Rng};
use neutraj_trajectory::{Point, Trajectory};

/// Random corpus with clustered trajectories (so bounds actually prune),
/// mixed lengths, and occasional empty / single-point degenerates.
fn arb_corpus(rng: &mut Rng, n: usize) -> Vec<Trajectory> {
    (0..n as u64)
        .map(|id| {
            let cluster = rng.gen_range(0u8..4);
            let (cx, cy) = (cluster as f64 * 60.0, cluster as f64 * -45.0);
            let pts = (0..rng.gen_range(0..9))
                .map(|_| Point::new(cx + rng.gen_range(-8.0..8.0), cy + rng.gen_range(-8.0..8.0)))
                .collect();
            Trajectory::new_unchecked(id, pts)
        })
        .collect()
}

/// A passthrough measure with many ties: the share of points, over both
/// directions, that have no partner within 1.5 in the other trajectory.
struct Unmatched;

impl Measure for Unmatched {
    fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
        if a.is_empty() || b.is_empty() {
            return f64::INFINITY;
        }
        let lonely = |xs: &[Point], ys: &[Point]| {
            xs.iter()
                .filter(|p| ys.iter().all(|q| p.dist(q) > 1.5))
                .count()
        };
        (lonely(a, b) + lonely(b, a)) as f64 / (a.len() + b.len()) as f64
    }

    fn name(&self) -> &'static str {
        "UNMATCHED"
    }

    fn is_metric(&self) -> bool {
        false
    }
}

/// Every measure with an accelerated kernel, plus two passthrough
/// measures (no `accel()`) that must still route correctly through the
/// engine's drivers.
fn all_measures() -> Vec<(String, Box<dyn Measure>)> {
    let mut out: Vec<(String, Box<dyn Measure>)> = MeasureKind::ALL
        .iter()
        .map(|k| (k.name().to_string(), k.measure()))
        .collect();
    out.push(("SSPD".into(), Box::new(Sspd)));
    out.push(("UNMATCHED".into(), Box::new(Unmatched)));
    out
}

fn naive_matrix(measure: &dyn Measure, ts: &[Trajectory]) -> DistanceMatrix {
    let n = ts.len();
    let mut data = vec![0.0; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let d = measure.dist(ts[i].points(), ts[j].points());
            data[i * n + j] = d;
            data[j * n + i] = d;
        }
    }
    DistanceMatrix::from_raw(n, data)
}

fn naive_knn(measure: &dyn Measure, ts: &[Trajectory], q: usize, k: usize) -> Vec<Neighbor> {
    let dists: Vec<f64> = ts
        .iter()
        .enumerate()
        .map(|(j, t)| {
            if j == q {
                f64::NAN // sorts last under total_cmp; never in top-k here
            } else {
                measure.dist(ts[q].points(), t.points())
            }
        })
        .collect();
    let mut nn = top_k(&dists, k);
    nn.retain(|n| n.index != q);
    nn
}

/// The tentpole guarantee: engine matrices are bit-identical to the
/// naive double loop for every measure at thread counts 1, 2 and 4,
/// symmetric, and zero on the diagonal.
#[test]
fn matrix_is_bit_identical_at_any_thread_count() {
    cases(24, |rng| {
        let ts = arb_corpus(rng, 24);
        for (name, measure) in all_measures() {
            let naive = naive_matrix(&*measure, &ts);
            let engine = GroundTruthEngine::new(&*measure, &ts);
            for threads in [1usize, 2, 4] {
                let m = engine.matrix(threads);
                assert_eq!(&m, &naive, "{} threads={}", name, threads);
            }
            for i in 0..ts.len() {
                assert_eq!(naive.get(i, i), 0.0);
                for j in 0..ts.len() {
                    // Bitwise symmetry, NaN-safe.
                    assert_eq!(
                        naive.get(i, j).to_bits(),
                        naive.get(j, i).to_bits(),
                        "{} asymmetric at ({}, {})",
                        name,
                        i,
                        j
                    );
                }
            }
        }
    });
}

/// Forty copies of five bases. Four share their endpoints and their
/// point set in different orders, so every cheap and tight bound between
/// them is zero and a query's tail scores several lane groups, with
/// exact ties across group boundaries; the fifth lies far off, so the
/// bulk cut fires.
fn tied_corpus() -> Vec<Trajectory> {
    let inner = [
        (1.0, 1.0),
        (2.0, -1.0),
        (3.0, 2.0),
        (4.0, -2.0),
        (5.0, 1.0),
        (6.0, -1.0),
        (7.0, 2.0),
    ];
    (0..40u64)
        .map(|id| {
            let b = (id % 5) as usize;
            let shift = if b == 4 { 100.0 } else { 0.0 };
            // `k * (b + 1) % 7` permutes the interior: 7 is prime.
            let path = std::iter::once((0.0, 0.0))
                .chain((0..7).map(|k| inner[k * (b + 1) % 7]))
                .chain([(8.0, 0.0)]);
            let pts = path
                .map(|(x, y)| Point::new(x + shift, y + shift))
                .collect();
            Trajectory::new_unchecked(id, pts)
        })
        .collect()
}

/// knn lists under the full cascade (cheap bound ordering, bulk tail
/// pruning, tight bounds, lane groups of tail survivors scored between
/// threshold reads) equal a naive top-k of the exact row — same indices,
/// same distance bits, same tie order — at every k and thread count, on
/// random corpora and on [`tied_corpus`] at k = 1, 8 and 9.
#[test]
fn knn_lists_are_bit_identical() {
    let check = |ts: &[Trajectory], k: usize| {
        let queries: Vec<usize> = (0..ts.len()).collect();
        for (name, measure) in all_measures() {
            let engine = GroundTruthEngine::new(&*measure, ts);
            for threads in [1usize, 3] {
                let got = engine.knn_lists(&queries, k, threads);
                for (&q, got_q) in queries.iter().zip(&got) {
                    let want = naive_knn(&*measure, ts, q, k);
                    assert_eq!(got_q, &want, "{} q={} k={} threads={}", name, q, k, threads);
                }
            }
        }
    };
    cases(24, |rng| {
        let ts = arb_corpus(rng, 20);
        check(&ts, rng.gen_range(1usize..8));
    });
    let ts = tied_corpus();
    for k in [1, 8, 9] {
        check(&ts, k);
    }
}

/// Dense rows (`distances` to the whole corpus, self included) and sparse
/// `distances` agree with the direct per-pair calls bit-for-bit.
#[test]
fn rows_and_sparse_distances_are_bit_identical() {
    cases(24, |rng| {
        let ts = arb_corpus(rng, 14);
        let queries: Vec<usize> = (0..ts.len()).step_by(3).collect();
        for (name, measure) in all_measures() {
            let engine = GroundTruthEngine::new(&*measure, &ts);
            let all: Vec<usize> = (0..ts.len()).collect();
            for &q in &queries {
                let row = &engine.distances(q, &all);
                let want: Vec<f64> = ts
                    .iter()
                    .map(|t| measure.dist(ts[q].points(), t.points()))
                    .collect();
                assert_eq!(row, &want, "{} q={}", name, q);
            }
            let subset: Vec<usize> = (0..ts.len()).step_by(2).collect();
            let sparse = engine.distances(queries[0], &subset);
            for (&j, &d) in subset.iter().zip(&sparse) {
                let want = measure.dist(ts[queries[0]].points(), ts[j].points());
                assert_eq!(d.to_bits(), want.to_bits(), "{} j={}", name, j);
            }
        }
    });
}

/// The public matrix entry points are now engine forwards; pin the
/// equivalence on one hand-shaped corpus too (a readable failure next
/// to the seeded cases above).
#[test]
fn distance_matrix_forwards_match_engine() {
    let ts: Vec<Trajectory> = (0..40u64)
        .map(|id| {
            let pts = (0..5 + id % 7)
                .map(|k| {
                    Point::new(
                        (id % 4) as f64 * 30.0 + k as f64 * 0.7,
                        (id % 4) as f64 * 20.0 + (k * k % 5) as f64,
                    )
                })
                .collect();
            Trajectory::new_unchecked(id, pts)
        })
        .collect();
    for kind in MeasureKind::ALL {
        let measure = kind.measure();
        let naive = naive_matrix(&*measure, &ts);
        assert_eq!(DistanceMatrix::compute(&*measure, &ts), naive, "{kind}");
        assert_eq!(
            DistanceMatrix::compute_parallel(&*measure, &ts, 4),
            naive,
            "{kind}"
        );
    }
}

/// The naive re-rank: one `Measure::dist` per candidate, sorted by
/// `neighbor_order`, truncated to `k`.
fn naive_rerank(
    measure: &dyn Measure,
    query: &[Point],
    candidates: &[(usize, &[Point])],
    k: usize,
) -> Vec<Neighbor> {
    let mut out: Vec<Neighbor> = candidates
        .iter()
        .map(|&(index, pts)| Neighbor {
            index,
            dist: measure.dist(query, pts),
        })
        .collect();
    out.sort_by(neighbor_order);
    out.truncate(k);
    out
}

fn neighbor_bits(v: &[Neighbor]) -> Vec<(usize, u64)> {
    v.iter().map(|n| (n.index, n.dist.to_bits())).collect()
}

/// A shortlist drawn from `ts`: up to `ts.len() + 4` members picked with
/// repeats (one trajectory under several ids, so equal distances must
/// break by id), under distinct ids that are shuffled and never left
/// ascending.
fn arb_shortlist<'t>(rng: &mut Rng, ts: &'t [Trajectory]) -> Vec<(usize, &'t [Point])> {
    if ts.is_empty() {
        return Vec::new();
    }
    let len = rng.gen_range(0..ts.len() + 5);
    let mut ids: Vec<usize> = (0..len).map(|i| 1_000 + 7 * i).collect();
    rng.shuffle(&mut ids);
    if ids.is_sorted() {
        ids.reverse();
    }
    ids.into_iter()
        .map(|id| (id, ts[rng.gen_range(0..ts.len())].points()))
        .collect()
}

/// The re-rank entry point equals the naive re-rank bit for bit — same
/// ids, same distance bits, same tie order — for every measure, the
/// passthrough ones included, at every `k` from 0 to past the
/// shortlist's length, on random and tied shortlists, an empty one, and
/// one-point queries and candidates.
#[test]
fn rerank_is_bit_identical_to_the_naive_rerank() {
    let one_point = |x: f64, y: f64| Trajectory::new_unchecked(0, vec![Point::new(x, y)]);
    let check = |query: &[Point], short: &[(usize, &[Point])]| {
        for (name, measure) in all_measures() {
            for k in [0, 1, 2, 5, 9, short.len(), short.len() + 3] {
                let want = neighbor_bits(&naive_rerank(&*measure, query, short, k));
                let engine = GroundTruthEngine::new(&*measure, &[]);
                let got = neighbor_bits(&engine.rerank(query, short, k));
                assert_eq!(got, want, "{name} k={k} m={}", short.len());
            }
        }
    };
    cases(24, |rng| {
        let ts = arb_corpus(rng, 16);
        let short = arb_shortlist(rng, &ts);
        let q = &ts[rng.gen_range(0..ts.len())];
        check(q.points(), &short);
        // One-point query and one-point candidates among the others.
        let dot = one_point(rng.gen_range(-8.0..70.0), rng.gen_range(-50.0..8.0));
        check(dot.points(), &short);
        let mut dotted = short.clone();
        for cand in dotted.iter_mut().step_by(3) {
            cand.1 = dot.points();
        }
        check(q.points(), &dotted);
        check(q.points(), &[]);
    });
    let ts = tied_corpus();
    cases(8, |rng| {
        let short = arb_shortlist(rng, &ts);
        check(ts[rng.gen_range(0..ts.len())].points(), &short);
    });
}
