//! Ground-truth engine benchmark: the pruned exact engine
//! ([`GroundTruthEngine`]) versus the historical naive baselines, on the
//! seed-matrix workload every training run starts with.
//!
//! Two measurements per measure, both at the same thread count:
//!
//! * **matrix** — `GroundTruthEngine::matrix` (lane-batched DP kernels,
//!   work-stealing 64×64 tiles) against an inline replica of the
//!   pre-engine round-robin `compute_parallel` (per-pair `measure.dist`,
//!   rows dealt round-robin).
//! * **knn** — `GroundTruthEngine::knn_lists` at depth 50 (the
//!   [`GroundTruth`] workload: lower-bound cascade, the same lane kernels
//!   on its survivors, Hausdorff scans abandoned past the threshold)
//!   against a full-scan `top_k` over naive per-pair rows, one contiguous
//!   chunk of queries per worker.
//!
//! A third section measures the SIMD dispatch (`DESIGN.md` §12): the
//! matrix workload with the lane kernels forced scalar versus forced
//! AVX2, for the three DP measures (the lane kernels have no AVX-512
//! arm, so an AVX-512 host runs them there too). On an AVX2 or AVX-512
//! host the run **asserts**
//! the Fréchet matrix speedup ≥ 1.5× (the squared-space kernel removes
//! the per-cell `vsqrtpd`); DTW/ERP remain sqrt-throughput-bound and are
//! recorded without a gate. Hosts without AVX2 print a
//! `simd-gate: skipped` marker instead.
//!
//! A fourth, **rerank**, times the re-rank stage of a shortlist search
//! (`DESIGN.md` §13) per measure: each query's exact top-50 (from the
//! knn section's workload, so every candidate is a near neighbour and the
//! bounds have the least to prune) re-ranked to the top 10, one query at
//! a time on one thread, by a local copy of the per-candidate loop the
//! stage ran before (`Measure::dist` per candidate, sorted, truncated)
//! and by `GroundTruthEngine::rerank`, best of 30 passes each, in ns per
//! candidate, with the share of candidates the cascade pruned unscored.
//! At the default size the run **asserts** the Fréchet engine path at
//! least 2× the loop (`rerank-gate`); smaller corpora print a skip
//! marker.
//!
//! Every result pair is asserted **bit-identical** before its timing is
//! reported — the speedups below are for exact answers, not
//! approximations. The engine runs instrumented; the final
//! [`neutraj_obs::MetricsReport`] (pair / prune / abandon / DP-cell
//! counters and the derived `neutraj_measures_prune_rate` gauge) is
//! embedded in `BENCH_measures.json` under `"metrics"` — CI greps it for
//! a nonzero `neutraj_measures_lb_pruned_total` and
//! `neutraj_measures_ea_abandoned_total`.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin bench_measures [-- --size 1000 --queries 100]
//! ```
//!
//! `--size N` sets the Porto-like corpus size (default 1000, the paper's
//! seed-pool scale); `--queries` the number of knn query rows.
//!
//! [`GroundTruth`]: neutraj_eval::GroundTruth

use std::time::Instant;

use neutraj_bench::Cli;
use neutraj_eval::harness::DatasetKind;
use neutraj_measures::{
    neighbor_order, top_k, DistanceMatrix, GroundTruthEngine, Measure, MeasureKind, Neighbor,
};
use neutraj_obs::simd::SimdLevel;
use neutraj_obs::{names, Registry};
use neutraj_trajectory::{par, Point, Trajectory};

/// knn depth; matches `GroundTruth::MIN_DEPTH` (R10@50 needs 50).
const K: usize = 50;

/// Timed passes per measurement; the fastest is reported.
const REPEATS: usize = 3;

fn main() {
    let cli = Cli::parse(Cli {
        size: 1000,
        queries: 100,
        epochs: 0,
        dim: 0,
        ..Cli::defaults()
    });
    let threads = par::threads();
    let world = cli.world(DatasetKind::PortoLike);
    // The full rescaled corpus — the same grid units the seed matrix and
    // ground truth are computed in everywhere else.
    let corpus = &world.rescaled;
    let n = corpus.len();
    let stride = (n / cli.queries.max(1)).max(1);
    let queries: Vec<usize> = (0..n).step_by(stride).take(cli.queries).collect();
    println!(
        "bench_measures: Porto-like n={n}, k={K}, {} queries, {threads} threads",
        queries.len()
    );

    let registry = Registry::new();
    let rows: Vec<MeasureRow> = MeasureKind::ALL
        .iter()
        .map(|&kind| bench_measure(kind, corpus, &queries, threads, &registry))
        .collect();

    // SIMD before/after: the PR 5 scalar lane kernels versus the AVX2
    // dispatch, forced in-process on the same engine workload. Only the
    // DP measures have lane kernels (Hausdorff takes the pairwise grid
    // path), and `matrix` is all lane kernels — the knn path runs the same
    // ones, but behind its bound cascade, which would blur the A/B.
    let detected = neutraj_obs::simd::detect();
    println!("simd: host dispatch level {detected:?}");
    let simd_rows: Vec<SimdRow> = [MeasureKind::Frechet, MeasureKind::Erp, MeasureKind::Dtw]
        .iter()
        .map(|&kind| bench_simd(kind, corpus, threads))
        .collect();
    if detected >= SimdLevel::Avx2 && n >= 500 {
        // In-process gate (DESIGN.md §12): the squared-space Fréchet
        // kernel must clear 1.5x on an AVX2 host. DTW/ERP stay
        // sqrt-throughput-bound (the scalar oracle takes a square root
        // per DP cell, and `vsqrtpd` throughput caps the wide version at
        // parity) — they are recorded, not gated. Tiny smoke corpora
        // (CI runs --size 120) finish a matrix in well under a
        // millisecond, where timer noise would make the ratio a coin
        // flip — the gate needs the default-size workload.
        let f = simd_rows
            .iter()
            .find(|r| r.kind == MeasureKind::Frechet)
            .expect("Frechet simd row");
        let speedup = f.scalar_s / f.avx2_s;
        assert!(
            speedup >= 1.5,
            "simd-gate: Frechet matrix speedup {speedup:.2}x < 1.5x on AVX2 host"
        );
        println!("simd-gate: Frechet matrix {speedup:.2}x >= 1.5x (AVX2)");
    } else if detected >= SimdLevel::Avx2 {
        println!("simd-gate: skipped (corpus under 500 rows, timings too noisy)");
    } else {
        println!("simd-gate: skipped (no AVX2 host)");
    }

    let rerank_rows: Vec<RerankRow> = MeasureKind::ALL
        .iter()
        .map(|&kind| bench_rerank(kind, corpus, &queries, threads))
        .collect();
    let rerank_gate = if n >= 500 {
        let f = rerank_rows
            .iter()
            .find(|r| r.kind == MeasureKind::Frechet)
            .expect("Frechet rerank row");
        let speedup = f.loop_ns / f.engine_ns;
        assert!(
            speedup >= RERANK_GATE,
            "rerank-gate: Frechet re-rank speedup {speedup:.2}x < {RERANK_GATE}x"
        );
        println!("rerank-gate: Frechet re-rank {speedup:.2}x >= {RERANK_GATE}x");
        "frechet_rerank_2x: passed"
    } else {
        println!("rerank-gate: skipped (corpus under 500 rows, timings too noisy)");
        "skipped (corpus under 500 rows)"
    };

    neutraj_obs::simd::publish(&registry);
    let report = registry.snapshot();

    let json = render_json(
        &cli,
        n,
        &queries,
        threads,
        &rows,
        &simd_rows,
        detected,
        &rerank_rows,
        rerank_gate,
        &report.to_json_indented(2),
    );
    let path = "BENCH_measures.json";
    std::fs::write(path, json).expect("write BENCH_measures.json");
    println!("wrote {path}");
}

/// One measure's timings: naive vs engine, matrix and knn.
struct MeasureRow {
    kind: MeasureKind,
    naive_matrix_s: f64,
    engine_matrix_s: f64,
    naive_knn_s: f64,
    engine_knn_s: f64,
}

fn bench_measure(
    kind: MeasureKind,
    corpus: &[Trajectory],
    queries: &[usize],
    threads: usize,
    registry: &Registry,
) -> MeasureRow {
    let measure = kind.measure();
    let engine = GroundTruthEngine::new(&*measure, corpus).with_metrics(registry);

    // Interleaved best-of-N: a busy single-core host makes one-shot wall
    // clocks swing by tens of percent, so alternate the two sides and
    // keep each one's fastest pass. Results are compared on every pass.
    let mut naive_matrix_s = f64::INFINITY;
    let mut engine_matrix_s = f64::INFINITY;
    let mut naive_knn_s = f64::INFINITY;
    let mut engine_knn_s = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let naive = baseline_matrix(&*measure, corpus, threads);
        naive_matrix_s = naive_matrix_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let pruned = engine.matrix(threads);
        engine_matrix_s = engine_matrix_s.min(start.elapsed().as_secs_f64());
        assert_eq!(pruned, naive, "{kind}: engine matrix diverged from naive");

        let start = Instant::now();
        let naive_nn = baseline_knn(&*measure, corpus, queries, threads);
        naive_knn_s = naive_knn_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let engine_nn = engine.knn_lists(queries, K, threads);
        engine_knn_s = engine_knn_s.min(start.elapsed().as_secs_f64());
        assert_eq!(
            engine_nn, naive_nn,
            "{kind}: engine knn diverged from naive"
        );
    }

    println!(
        "  {kind}: matrix {naive_matrix_s:.2}s -> {engine_matrix_s:.2}s ({:.2}x), \
         knn {naive_knn_s:.2}s -> {engine_knn_s:.2}s ({:.2}x)",
        naive_matrix_s / engine_matrix_s,
        naive_knn_s / engine_knn_s
    );
    MeasureRow {
        kind,
        naive_matrix_s,
        engine_matrix_s,
        naive_knn_s,
        engine_knn_s,
    }
}

/// One DP measure's matrix timing at each forced dispatch level.
struct SimdRow {
    kind: MeasureKind,
    scalar_s: f64,
    avx2_s: f64,
}

/// Times `GroundTruthEngine::matrix` with dispatch forced to scalar and
/// to AVX2 (interleaved best-of-N, like [`bench_measure`]), asserting
/// the two matrices bit-identical on every pass. On a host without AVX2
/// the forced request falls back to scalar and the ratio is ~1.0.
fn bench_simd(kind: MeasureKind, corpus: &[Trajectory], threads: usize) -> SimdRow {
    let measure = kind.measure();
    let scalar = GroundTruthEngine::new(&*measure, corpus).with_simd_level(SimdLevel::Scalar);
    let wide = GroundTruthEngine::new(&*measure, corpus).with_simd_level(SimdLevel::Avx2);
    let mut scalar_s = f64::INFINITY;
    let mut avx2_s = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let base = scalar.matrix(threads);
        scalar_s = scalar_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let got = wide.matrix(threads);
        avx2_s = avx2_s.min(start.elapsed().as_secs_f64());
        assert_eq!(got, base, "{kind}: AVX2 matrix diverged from scalar");
    }
    println!(
        "  simd {kind}: matrix {scalar_s:.2}s (scalar) -> {avx2_s:.2}s (avx2) ({:.2}x)",
        scalar_s / avx2_s
    );
    SimdRow {
        kind,
        scalar_s,
        avx2_s,
    }
}

/// Shortlist length and re-ranked depth of the rerank section: the
/// paper's top-50 re-ranked to the top 10 (§VII-C.1).
const SHORTLIST: usize = 50;
const RERANK_K: usize = 10;

/// Timed passes of the rerank section; the fastest is reported.
const RERANK_REPEATS: usize = 30;

/// The rerank section's floor for the Fréchet engine path over the loop.
const RERANK_GATE: f64 = 2.0;

/// A shortlisted trajectory: its corpus index and points.
type Candidate<'t> = (usize, &'t [Point]);

/// One measure's re-rank cost: the per-candidate loop versus the engine.
struct RerankRow {
    kind: MeasureKind,
    loop_ns: f64,
    engine_ns: f64,
    pruned_share: f64,
}

/// Times re-ranking each query's exact top-[`SHORTLIST`] to the top
/// [`RERANK_K`] — per-candidate loop against `GroundTruthEngine::rerank`,
/// interleaved, best of [`RERANK_REPEATS`], both on this thread — and
/// asserts the two answers bit-identical on every pass.
fn bench_rerank(
    kind: MeasureKind,
    corpus: &[Trajectory],
    queries: &[usize],
    threads: usize,
) -> RerankRow {
    let measure = kind.measure();
    let shortlists =
        GroundTruthEngine::new(&*measure, corpus).knn_lists(queries, SHORTLIST, threads);
    let work: Vec<(&[Point], Vec<Candidate>)> = queries
        .iter()
        .zip(&shortlists)
        .map(|(&q, short)| {
            let cands = short
                .iter()
                .map(|n| (n.index, corpus[n.index].points()))
                .collect();
            (corpus[q].points(), cands)
        })
        .collect();
    let candidates: usize = work.iter().map(|(_, c)| c.len()).sum();
    let bits = |lists: &[Vec<Neighbor>]| -> Vec<Vec<(usize, u64)>> {
        lists
            .iter()
            .map(|l| l.iter().map(|n| (n.index, n.dist.to_bits())).collect())
            .collect()
    };

    // One instrumented pass (its own registry, so the counters above keep
    // their meaning) for the pruned share.
    let registry = Registry::new();
    let engine = GroundTruthEngine::new(&*measure, &[]).with_metrics(&registry);
    for (q, cands) in &work {
        engine.rerank(q, cands, RERANK_K);
    }
    let pruned = registry.counter(names::MEASURES_LB_PRUNED_TOTAL).get();

    let mut loop_s = f64::INFINITY;
    let mut engine_s = f64::INFINITY;
    for _ in 0..RERANK_REPEATS {
        let start = Instant::now();
        let want: Vec<Vec<Neighbor>> = work
            .iter()
            .map(|(q, cands)| rerank_loop(&*measure, q, cands))
            .collect();
        loop_s = loop_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let got: Vec<Vec<Neighbor>> = work
            .iter()
            .map(|(q, cands)| GroundTruthEngine::new(&*measure, &[]).rerank(q, cands, RERANK_K))
            .collect();
        engine_s = engine_s.min(start.elapsed().as_secs_f64());
        assert_eq!(
            bits(&got),
            bits(&want),
            "{kind}: engine re-rank diverged from the loop"
        );
    }
    let per = |s: f64| s * 1e9 / candidates.max(1) as f64;
    let row = RerankRow {
        kind,
        loop_ns: per(loop_s),
        engine_ns: per(engine_s),
        pruned_share: pruned as f64 / candidates.max(1) as f64,
    };
    println!(
        "  rerank {kind}: {:.0} -> {:.0} ns per candidate ({:.2}x), {:.1}% pruned",
        row.loop_ns,
        row.engine_ns,
        row.loop_ns / row.engine_ns,
        row.pruned_share * 100.0
    );
    row
}

/// The re-rank stage as it was before the engine served it: one
/// `Measure::dist` per candidate, sorted by `neighbor_order`, truncated.
fn rerank_loop(
    measure: &dyn Measure,
    query: &[Point],
    cands: &[(usize, &[Point])],
) -> Vec<Neighbor> {
    let mut out: Vec<Neighbor> = cands
        .iter()
        .map(|&(index, pts)| Neighbor {
            index,
            dist: measure.dist(query, pts),
        })
        .collect();
    out.sort_by(neighbor_order);
    out.truncate(RERANK_K);
    out
}

/// The pre-engine `DistanceMatrix::compute_parallel` as the baseline:
/// per-pair `measure.dist` over upper-triangle rows dealt round-robin to
/// the workers.
fn baseline_matrix(
    measure: &dyn Measure,
    trajectories: &[Trajectory],
    threads: usize,
) -> DistanceMatrix {
    let n = trajectories.len();
    let workers = if n < 32 { 1 } else { threads.clamp(1, n) };
    let rows = par::fan_out(0..workers, |t| {
        let row = |i: usize| -> Vec<f64> {
            let a = trajectories[i].points();
            (i + 1..n)
                .map(|j| measure.dist(a, trajectories[j].points()))
                .collect()
        };
        (t..n)
            .step_by(workers)
            .map(|i| (i, row(i)))
            .collect::<Vec<_>>()
    });
    let mut data = vec![0.0; n * n];
    for worker_rows in rows {
        for (i, row) in worker_rows {
            for (off, d) in row.into_iter().enumerate() {
                let j = i + 1 + off;
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
    }
    DistanceMatrix::from_raw(n, data)
}

/// The pre-engine knn ground truth: a full naive row per query, then
/// `top_k` — exactly what the pre-engine dense ground truth + `knn_of` did.
fn baseline_knn(
    measure: &dyn Measure,
    trajectories: &[Trajectory],
    queries: &[usize],
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    let knn = |&q: &usize| {
        let dists: Vec<f64> = trajectories
            .iter()
            .enumerate()
            .map(|(j, t)| {
                if j == q {
                    f64::NAN // sorts last under total_cmp; never in top-k
                } else {
                    measure.dist(trajectories[q].points(), t.points())
                }
            })
            .collect();
        let mut nn = top_k(&dists, K);
        nn.retain(|n| n.index != q);
        nn
    };
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    let parts = par::fan_out(queries.chunks(chunk), |part| {
        part.iter().map(knn).collect::<Vec<_>>()
    });
    parts.into_iter().flatten().collect()
}

/// Hand-rolled JSON (the dependency set has no serde_json).
#[allow(clippy::too_many_arguments)]
fn render_json(
    cli: &Cli,
    n: usize,
    queries: &[usize],
    threads: usize,
    rows: &[MeasureRow],
    simd_rows: &[SimdRow],
    detected: SimdLevel,
    rerank_rows: &[RerankRow],
    rerank_gate: &str,
    metrics_json: &str,
) -> String {
    let measure_objs = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"measure\": \"{}\",\n      \"naive_matrix_s\": {:.4},\n      \"engine_matrix_s\": {:.4},\n      \"matrix_speedup\": {:.4},\n      \"naive_knn_s\": {:.4},\n      \"engine_knn_s\": {:.4},\n      \"knn_speedup\": {:.4}\n    }}",
                r.kind,
                r.naive_matrix_s,
                r.engine_matrix_s,
                r.naive_matrix_s / r.engine_matrix_s,
                r.naive_knn_s,
                r.engine_knn_s,
                r.naive_knn_s / r.engine_knn_s
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let (naive_total, engine_total) = rows.iter().fold((0.0, 0.0), |(a, b), r| {
        (
            a + r.naive_matrix_s + r.naive_knn_s,
            b + r.engine_matrix_s + r.engine_knn_s,
        )
    });
    let simd_objs = simd_rows
        .iter()
        .map(|r| {
            format!(
                "      {{\n        \"measure\": \"{}\",\n        \"scalar_matrix_s\": {:.4},\n        \"avx2_matrix_s\": {:.4},\n        \"matrix_speedup\": {:.4}\n      }}",
                r.kind,
                r.scalar_s,
                r.avx2_s,
                r.scalar_s / r.avx2_s
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let gate = if detected >= SimdLevel::Avx2 && n >= 500 {
        "frechet_matrix_1.5x: passed"
    } else if detected >= SimdLevel::Avx2 {
        "skipped (corpus under 500 rows)"
    } else {
        "skipped (no AVX2 host)"
    };
    let simd_json = format!(
        "{{\n    \"detected\": \"{:?}\",\n    \"gate\": \"{gate}\",\n    \"measures\": [\n{simd_objs}\n    ]\n  }}",
        detected
    );
    let rerank_objs = rerank_rows
        .iter()
        .map(|r| {
            format!(
                "      {{\n        \"measure\": \"{}\",\n        \"loop_ns_per_candidate\": {:.1},\n        \"engine_ns_per_candidate\": {:.1},\n        \"speedup\": {:.4},\n        \"pruned_share\": {:.4}\n      }}",
                r.kind,
                r.loop_ns,
                r.engine_ns,
                r.loop_ns / r.engine_ns,
                r.pruned_share
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let rerank_json = format!(
        "{{\n    \"shortlist\": {SHORTLIST},\n    \"k\": {RERANK_K},\n    \"repeats\": {RERANK_REPEATS},\n    \"gate\": \"{rerank_gate}\",\n    \"measures\": [\n{rerank_objs}\n    ]\n  }}"
    );
    format!(
        "{{\n  \"bench\": \"measures\",\n  \"n\": {n},\n  \"k\": {K},\n  \"queries\": {},\n  \"threads\": {threads},\n  \"seed\": {},\n  \"measures\": [\n{measure_objs}\n  ],\n  \"naive_total_s\": {naive_total:.4},\n  \"engine_total_s\": {engine_total:.4},\n  \"total_speedup\": {:.4},\n  \"simd\": {simd_json},\n  \"rerank\": {rerank_json},\n  \"metrics\": {metrics_json}\n}}\n",
        queries.len(),
        cli.seed,
        naive_total / engine_total
    )
}
