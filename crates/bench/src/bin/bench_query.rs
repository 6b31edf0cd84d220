//! Serving-path throughput benchmark: batched GEMM inference and
//! norm-trick top-k scans versus their scalar baselines.
//!
//! Two measurements, both single-threaded (queries/sec is per-core
//! throughput; `embed_all` parallelism is benchmarked elsewhere):
//!
//! * **scan** — `EmbeddingStore::knn_batch` (one pass over the int8
//!   codes per batch bounds every row, the few rows the bound lets
//!   through are scored by the norm trick `‖q−x‖² = ‖q‖² − 2·q·x + ‖x‖²`;
//!   the `gemm_qps` key keeps its historical name) against `knn_naive`
//!   (per-row `euclidean_sq` + full top-k buffer), over synthetic
//!   corpora of N ∈ {10k, 100k} embeddings at d = 32; then what one row
//!   costs one query at B ∈ {1, 4, 8, 16} through `knn_batch`, best of
//!   30 calls (`scan-batch` lines, `"by_batch"` in the JSON), and the
//!   same at B = 16 over a corpus of N identical rows, where no bound
//!   prunes and every row is scored in f64 — the cascade at its worst
//!   (`scan-worst`, `"worst_b16"`). Gated at N ≥ 100k: a query of a
//!   batch of 16 costs no more than a lone one (`scan-gate:`; the codes
//!   are read once per batch). The `int8-pass` line times the code pass
//!   alone (`quant_scan_block` over 512-row chunks, best of 30) in each
//!   arm the host has (`"int8_pass"`). The `exact-bound` line
//!   reports how many rows the bound leaves to the f64 score per lone
//!   query (`"exact_bound_survivors"`); those scans are recorded into the
//!   exported registry, so `neutraj_exact_bound_survivors` and the
//!   `neutraj_quant_*` counters carry them.
//! * **embed** — `NeuTrajModel::embed_batch` (lockstep per-timestep
//!   GEMM forward) against `NeuTrajModel::embed` called one trajectory at
//!   a time (a lockstep batch of one each; the `scalar_qps` key keeps its
//!   historical name), B = 32, for all three backbones.
//! * **serving** — the end-to-end `SimilarityDb::search_batch` pipeline
//!   (embed → exact scan → exact re-rank) with metrics *disabled* vs
//!   *enabled*, backing the "near-zero overhead when off" claim of
//!   `DESIGN.md`'s Observability section, plus the same pipeline through
//!   the IVF shortlist (`.shortlist_ann`). The instrumented run's
//!   [`neutraj_obs::MetricsReport`] is embedded in `BENCH_query.json`
//!   under `"metrics"` and also written as Prometheus text to
//!   `BENCH_query.prom` — including the `neutraj_ann_*` probe counters.
//! * **ann** (`--ann`) — the IVF shortlist + exact-rerank scan against
//!   the exhaustive scan, sweeping N ∈ {100k, 1M} × nprobe over a
//!   clustered corpus (real trajectory embeddings concentrate around
//!   motion patterns — the regime IVF exploits). Each operating point
//!   records recall@10, qps and p50/p99 latency; the run **panics**
//!   unless some swept nprobe reaches recall@10 ≥ 0.98, unless the full
//!   probe is bit-identical to the exhaustive scan, and (at N ≥ 1M)
//!   unless that operating point clears a ≥10x qps speedup over the
//!   exhaustive path.
//! * **graph** (`--graph`) — the HNSW graph shortlist (`DESIGN.md` §15)
//!   over a *uniform* corpus with no partition-recoverable structure
//!   (the clustered corpus is IVF's one-cell best case; uniform is the
//!   regime where holding high recall is hard — see `uniform_store`),
//!   sweeping N ∈ {100k, 1M} (10M with `--full`) × beam width ef.
//!   Corpora are generated block-wise into a preallocated
//!   [`EmbeddingStore`] — no intermediate `Vec<Vec<f64>>`,
//!   so the 10M sweep never doubles peak RSS. The run **panics** unless
//!   a beam covering the whole corpus is bit-identical to the exhaustive
//!   scan, unless some swept ef reaches recall@10 ≥ 0.99, and (at
//!   N ≥ 1M) unless the graph beats the IVF shortlist's wall-clock at
//!   matched recall@10 ≥ 0.995 on the same corpus — the `graph-gate:`
//!   lines are the CI grep markers, and `"graph_recall_ok"` lands in
//!   the JSON.
//!
//! All result pairs are bit-for-bit result-checked in this binary before
//! any timing is reported — the speedups below are for *identical*
//! answers (see `DESIGN.md`, "Serving path"; the sub-`nlists` probe
//! sweep is the one deliberately approximate measurement, and it is
//! gated on measured recall instead).
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin bench_query [-- --size 5000 --queries 8 --ann]
//! ```
//!
//! `--size N` replaces the default {10k, 100k} corpus sweep with a
//! single corpus of N rows (the CI smoke run uses this); `--queries`
//! sets the query batch size B; `--dim` the embedding dimension;
//! `--ann` enables the ANN sweep (over {100k, 1M}, or `--size`);
//! `--graph` the HNSW sweep (over {100k, 1M}, plus 10M with `--full`,
//! or `--size`).

use std::time::Instant;

use neutraj_cluster::{KMeans, KMeansParams};
use neutraj_eval::mean_overlap_at_k;
use neutraj_index::IvfIndex;
use neutraj_measures::DiscreteFrechet;
use neutraj_model::{
    AnnParams, BackboneKind, DbMetrics, EmbeddingStore, HnswIndex, HnswParams, NeuTrajModel, Query,
    SimilarityDb, TrainConfig,
};
use neutraj_nn::simd::{
    quant_code_at, quant_query_words, quant_scan_block, quant_tile_bytes, QuantArm, QuantLimit,
    QuantQueryTerms, QuantRows, QUANT_TILE_ROWS,
};
use neutraj_obs::simd::SimdLevel;
use neutraj_obs::{names, MetricsReport, Registry};
use neutraj_trajectory::rng::{splitmix64, GOLDEN_GAMMA};
use neutraj_trajectory::{par, BoundingBox, Grid, Point, Trajectory};

/// Search depth; k = 10 matches the paper's top-k experiments.
const K: usize = 10;

/// Batch sizes of the scan's per-row cost sweep: a lone query, then
/// batches that share one read of the codes.
const SCAN_BATCHES: [usize; 4] = [1, 4, 8, 16];

/// Timed calls per kernel-probe point; the fastest is reported.
const BEST_OF: usize = 30;

/// Smallest corpus at which a throughput *ratio* is asserted rather than
/// only printed (the scan gates): below it one timed call is
/// too short for the ratio to be stable on a shared host.
const GATE_MIN_ROWS: usize = 100_000;

/// Lone queries whose int8-bound survivors the `exact-bound` line
/// summarises.
const BOUND_QUERIES: usize = 256;

/// Minimum wall-clock per timed measurement. Short enough to keep the
/// default run in seconds, long enough to amortise timer noise.
const MIN_SECONDS: f64 = 0.25;

fn main() {
    let cli = neutraj_bench::Cli::parse(neutraj_bench::Cli {
        size: 0, // 0 = sweep the default {10k, 100k} corpus sizes
        queries: 32,
        epochs: 0,
        ..neutraj_bench::Cli::defaults()
    });
    let sizes: Vec<usize> = if cli.size == 0 {
        vec![10_000, 100_000]
    } else {
        vec![cli.size]
    };
    let host_cpus = par::threads();
    println!(
        "bench_query: dim {}, k {K}, batch {}, corpora {:?}, host cpus {host_cpus}",
        cli.dim, cli.queries, sizes
    );

    // One registry shared by the exact-bound sweep, the ANN and graph
    // sweeps and the instrumented serving leg, so every neutraj_* series
    // lands in a single exported snapshot.
    let registry = Registry::new();

    let scans: Vec<ScanRow> = (sizes.iter())
        .map(|&n| bench_scan(n, cli.dim, cli.queries, cli.seed, &registry))
        .collect();
    let embed_rows = [BackboneKind::SamLstm, BackboneKind::Lstm, BackboneKind::Gru]
        .map(|kind| bench_embed(kind, cli.dim, cli.queries, cli.seed));

    let ann_sections: Vec<AnnSection> = if cli.ann {
        let ann_sizes: Vec<usize> = if cli.size == 0 {
            vec![100_000, 1_000_000]
        } else {
            vec![cli.size]
        };
        ann_sizes
            .iter()
            .map(|&n| bench_ann(n, cli.dim, cli.queries, cli.seed, &registry))
            .collect()
    } else {
        Vec::new()
    };

    let graph_sections: Vec<GraphSection> = if cli.graph {
        let graph_sizes: Vec<usize> = if cli.size != 0 {
            vec![cli.size]
        } else if cli.full {
            vec![100_000, 1_000_000, 10_000_000]
        } else {
            vec![100_000, 1_000_000]
        };
        graph_sizes
            .iter()
            .map(|&n| bench_graph(n, cli.dim, cli.queries, cli.seed, &registry))
            .collect()
    } else {
        Vec::new()
    };

    let serving = bench_serving(
        *sizes.iter().min().unwrap(),
        cli.dim,
        cli.queries,
        cli.seed,
        &registry,
    );
    // Which SIMD path the GEMM/integer-dot kernels actually took, as the
    // `neutraj_simd_dispatch` gauge (CI greps the .prom for it).
    let simd_level = neutraj_obs::simd::publish(&registry);
    println!("simd: dispatch level {}", simd_level.name());

    let report = registry.snapshot();
    let prom = report.to_prometheus();
    print!("{prom}");
    std::fs::write("BENCH_query.prom", prom).expect("write BENCH_query.prom");
    println!("wrote BENCH_query.prom");

    let json = render_json(
        &cli,
        host_cpus,
        &scans,
        &embed_rows,
        &serving,
        &ann_sections,
        &graph_sections,
        &report,
    );
    let path = "BENCH_query.json";
    std::fs::write(path, json).expect("write BENCH_query.json");
    println!("wrote {path}");
}

/// One scan measurement: naive vs exact-scan queries/sec over an N-row
/// corpus, and what one row costs one query at each of [`SCAN_BATCHES`].
struct ScanRow {
    n: usize,
    naive_qps: f64,
    gemm_qps: f64,
    /// `(B, ns per row per query)` through `knn_batch`, best of
    /// [`BEST_OF`].
    by_batch: Vec<(usize, f64)>,
    /// ns per row per query at B = 16 over N identical rows.
    worst_b16: f64,
    /// `(arm, ns per row)` of the int8 code pass alone.
    int8_pass: Vec<(&'static str, f64)>,
    /// Rows a lone query scored in f64 after the int8 bound: mean, p90
    /// and max over [`BOUND_QUERIES`] queries.
    survivors: (f64, f64, f64),
}

/// One embed measurement: one-at-a-time `embed` vs lockstep-batched
/// queries/sec.
struct EmbedRow {
    backbone: &'static str,
    scalar_qps: f64,
    batched_qps: f64,
}

/// End-to-end serving measurement: `search_batch` with re-ranking, with
/// the metrics registry detached vs attached, plus the same pipeline
/// through the IVF shortlist.
struct ServingRow {
    n: usize,
    disabled_qps: f64,
    enabled_qps: f64,
    ann_qps: f64,
    ann_nlists: usize,
    ann_nprobe: usize,
}

/// One ANN operating point: recall and latency at a probe width.
struct AnnRow {
    nprobe: usize,
    recall: f64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    scanned_frac: f64,
}

/// The ANN sweep over one corpus size, with its exhaustive baseline.
struct AnnSection {
    n: usize,
    nlists: usize,
    gemm_qps: f64,
    build_secs: f64,
    rows: Vec<AnnRow>,
    /// Index into `rows` of the serving operating point — the narrowest
    /// swept nprobe with recall@10 ≥ 0.98.
    best: usize,
}

/// One HNSW operating point: recall and latency at a beam width.
struct GraphRow {
    ef: usize,
    recall: f64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    hops: usize,
    scanned_frac: f64,
    /// The walk's unit costs: distance evaluations and adjacency
    /// entries read per query, and wall time per evaluation — what a
    /// query costs over what its distances alone would.
    evals_per_query: f64,
    links_per_query: f64,
    ns_per_eval: f64,
}

/// The HNSW ef sweep over one corpus size, with its exhaustive baseline
/// and the matched-recall IVF comparison point.
struct GraphSection {
    n: usize,
    build_secs: f64,
    gemm_qps: f64,
    rows: Vec<GraphRow>,
    /// Index into `rows` of the serving operating point — the narrowest
    /// swept ef with recall@10 ≥ 0.99.
    best: usize,
    /// Narrowest graph operating point with recall@10 ≥ 0.995.
    matched_graph_ef: usize,
    matched_graph_recall: f64,
    matched_graph_qps: f64,
    /// Narrowest IVF operating point with recall@10 ≥ 0.995 on the same
    /// corpus and queries — the backend the graph must outrun at N ≥ 1M.
    matched_ivf_nprobe: usize,
    matched_ivf_recall: f64,
    matched_ivf_qps: f64,
    ivf_nlists: usize,
}

fn bench_scan(n: usize, dim: usize, batch: usize, seed: u64, registry: &Registry) -> ScanRow {
    let mut state = seed ^ GOLDEN_GAMMA;
    let store = {
        let mut store = EmbeddingStore::new(dim);
        let mut row = vec![0.0; dim];
        for _ in 0..n {
            for v in &mut row {
                *v = unit_f64(&mut state);
            }
            store.push(&row);
        }
        store
    };
    let queries: Vec<Vec<f64>> = (0..batch)
        .map(|_| (0..dim).map(|_| unit_f64(&mut state)).collect())
        .collect();
    let qrefs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();

    // Result check before timing: the exact scan must agree with the
    // naive one (indices exactly; distances to rounding) and be
    // bit-identical to the scalar `knn` it generalises.
    let batched = store.knn_batch(&qrefs, K);
    for (q, got) in qrefs.iter().zip(&batched) {
        assert_eq!(&store.knn(q, K), got, "scalar knn diverged from batch");
        let naive = store.knn_naive(q, K);
        for (a, b) in naive.iter().zip(got) {
            assert_eq!(a.index, b.index, "naive/GEMM rank mismatch");
            assert!((a.dist - b.dist).abs() <= 1e-9 * (1.0 + a.dist));
        }
    }

    let naive_qps = time_qps(batch, || {
        for q in &qrefs {
            std::hint::black_box(store.knn_naive(q, K));
        }
    });
    let gemm_qps = time_qps(batch, || {
        std::hint::black_box(store.knn_batch(&qrefs, K));
    });
    println!(
        "  scan n={n}: naive {naive_qps:.1} q/s, gemm {gemm_qps:.1} q/s ({:.2}x)",
        gemm_qps / naive_qps
    );

    // What a row costs a query as the batch grows: the codes are read
    // once per batch, the survivors scored per query.
    let sweep: Vec<Vec<f64>> = (0..*SCAN_BATCHES.iter().max().expect("non-empty"))
        .map(|_| (0..dim).map(|_| unit_f64(&mut state)).collect())
        .collect();
    let sweep: Vec<&[f64]> = sweep.iter().map(|q| q.as_slice()).collect();
    let by_batch: Vec<(usize, f64)> = (SCAN_BATCHES.iter())
        .map(|&b| {
            let ns = best_ns(|| {
                std::hint::black_box(store.knn_batch(&sweep[..b], K));
            }) / (b * n) as f64;
            println!("  scan-batch n={n}: B={b} {ns:.2} ns/row/query");
            (b, ns)
        })
        .collect();
    let ns_at = |b: usize| by_batch.iter().find(|r| r.0 == b).expect("swept").1;
    if n >= GATE_MIN_ROWS {
        // 10 % covers the host's run-to-run noise.
        let (b16, b1) = (ns_at(16), ns_at(1));
        assert!(
            b16 <= 1.10 * b1,
            "scan-gate: n={n} B=16 costs {b16:.2} ns/row/query, B=1 {b1:.2}"
        );
        println!("  scan-gate: n={n} B=16 no slower per query than B=1 (passed)");
    } else {
        println!("  scan-gate: skipped (corpus under {GATE_MIN_ROWS} rows)");
    }

    // No bound prunes a corpus of identical rows: every row is a survivor
    // and is scored in f64.
    let worst_b16 = {
        let same = EmbeddingStore::from_embeddings(dim, &vec![sweep[0].to_vec(); n]);
        let (_, stats) = same.knn_batch_with_stats(&sweep, K);
        assert_eq!(
            stats.bound_survivors,
            sweep.len() * n,
            "a bound pruned a tie"
        );
        let ns = best_ns(|| {
            std::hint::black_box(same.knn_batch(&sweep, K));
        }) / (sweep.len() * n) as f64;
        println!("  scan-worst n={n}: B=16 {ns:.2} ns/row/query over identical rows (every row scored in f64)");
        ns
    };
    let int8_pass = int8_pass(dim);

    // How many rows the int8 bound leaves to the f64 score, per lone
    // query over fresh queries from the corpus's own distribution —
    // recorded as the database records a scan.
    let metrics = DbMetrics::register(registry);
    let mut survivors: Vec<f64> = (0..BOUND_QUERIES)
        .map(|_| {
            let q: Vec<f64> = (0..dim).map(|_| unit_f64(&mut state)).collect();
            let (_, stats) = store.knn_batch_with_stats(&[&q], K);
            metrics.record_scan(&stats, None, 1, n);
            stats.bound_survivors as f64
        })
        .collect();
    survivors.sort_by(f64::total_cmp);
    let mean = survivors.iter().sum::<f64>() / survivors.len() as f64;
    let (p90, max) = (percentile(&survivors, 0.9), survivors[survivors.len() - 1]);
    let share = |rows: f64| 100.0 * rows / n as f64;
    println!(
        "  exact-bound n={n}: survivors mean {mean:.1} / p90 {p90:.0} / max {max:.0} rows per query ({:.3}% / {:.3}% / {:.3}% of rows)",
        share(mean),
        share(p90),
        share(max)
    );
    ScanRow {
        n,
        naive_qps,
        gemm_qps,
        by_batch,
        worst_b16,
        int8_pass,
        survivors: (mean, p90, max),
    }
}

fn bench_embed(kind: BackboneKind, dim: usize, batch: usize, seed: u64) -> EmbedRow {
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    let cfg = TrainConfig {
        backbone: kind,
        dim,
        seed,
        ..TrainConfig::neutraj()
    };
    let backbone = match kind {
        BackboneKind::SamLstm => "sam_lstm",
        BackboneKind::Lstm => "lstm",
        BackboneKind::Gru => "gru",
    };
    let model = NeuTrajModel::untrained(cfg, grid);
    let ts: Vec<Trajectory> = (0..batch as u64)
        .map(|i| synth_traj(i, 20 + (i as usize * 7) % 41))
        .collect();

    // The baseline embeds one trajectory at a time; bit-identity with
    // the batch is checked before timing.
    let batched = model.embed_batch(&ts);
    for (t, got) in ts.iter().zip(&batched) {
        assert_eq!(&model.embed(t), got, "{backbone}: batched embed diverged");
    }

    let scalar_qps = time_qps(ts.len(), || {
        for t in &ts {
            std::hint::black_box(model.embed(t));
        }
    });
    let batched_qps = time_qps(ts.len(), || {
        std::hint::black_box(model.embed_batch(&ts));
    });
    println!(
        "  embed {backbone}: one at a time {scalar_qps:.1} q/s, batched {batched_qps:.1} q/s ({:.2}x)",
        batched_qps / scalar_qps
    );
    EmbedRow {
        backbone,
        scalar_qps,
        batched_qps,
    }
}

fn bench_serving(n: usize, dim: usize, batch: usize, seed: u64, registry: &Registry) -> ServingRow {
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    let cfg = TrainConfig {
        backbone: BackboneKind::SamLstm,
        dim,
        seed,
        ..TrainConfig::neutraj()
    };
    let model = NeuTrajModel::untrained(cfg, grid);
    let corpus: Vec<Trajectory> = (0..n as u64)
        .map(|i| synth_traj(i, 20 + (i as usize * 7) % 41))
        .collect();
    let mut db = SimilarityDb::with_corpus(model, corpus, 1);
    let queries: Vec<Trajectory> = (0..batch as u64)
        .map(|i| synth_traj(1_000_000 + i, 25 + (i as usize * 5) % 31))
        .collect();
    let query = Query::new(K).shortlist(50).rerank(&DiscreteFrechet);

    // Instrumentation is observation-only: attached vs detached runs
    // must return the exact same neighbors.
    let plain = db.search_batch(&queries, &query).unwrap();
    let check_registry = Registry::new();
    db.instrument(&check_registry);
    assert_eq!(
        plain,
        db.search_batch(&queries, &query).unwrap(),
        "metrics changed search results"
    );
    db.clear_instrumentation();

    // Interleaved best-of-N: the off/on comparison is a ~1% effect, far
    // below the noise floor of a single 0.25 s window on a busy host, so
    // alternate the two configurations and keep each one's best rate.
    let mut disabled_qps = 0.0f64;
    let mut enabled_qps = 0.0f64;
    for _ in 0..5 {
        db.clear_instrumentation();
        disabled_qps = disabled_qps.max(time_qps(batch, || {
            let _ = std::hint::black_box(db.search_batch(&queries, &query));
        }));
        db.instrument(registry);
        enabled_qps = enabled_qps.max(time_qps(batch, || {
            let _ = std::hint::black_box(db.search_batch(&queries, &query));
        }));
    }
    println!(
        "  serving n={n}: metrics off {disabled_qps:.1} q/s, on {enabled_qps:.1} q/s ({:+.2}% overhead)",
        (disabled_qps / enabled_qps - 1.0) * 100.0
    );

    // ANN serving leg: the same embed → shortlist → exact-rerank
    // pipeline through the IVF index. Probing every list must reproduce
    // the exhaustive results bit-for-bit; the timed run then probes a
    // fraction of the lists while instrumented, so the exported registry
    // carries non-zero `neutraj_ann_*` counters.
    db.build_ann_index(&AnnParams {
        nlists: isqrt(n).max(2),
        ..Default::default()
    })
    .expect("serving corpus is non-empty");
    let nlists = db.ann_index().expect("just built").nlists();
    let full_probe = Query::new(K)
        .shortlist(50)
        .rerank(&DiscreteFrechet)
        .shortlist_ann(nlists);
    assert_eq!(
        plain,
        db.search_batch(&queries, &full_probe).unwrap(),
        "ANN full probe changed serving results"
    );
    let nprobe = (nlists / 8).max(1);
    let ann_query = Query::new(K)
        .shortlist(50)
        .rerank(&DiscreteFrechet)
        .shortlist_ann(nprobe);
    let ann_qps = time_qps(batch, || {
        let _ = std::hint::black_box(db.search_batch(&queries, &ann_query));
    });
    println!(
        "  serving n={n}: ann shortlist (nprobe {nprobe}/{nlists}) {ann_qps:.1} q/s ({:.2}x vs exhaustive)",
        ann_qps / enabled_qps
    );
    ServingRow {
        n,
        disabled_qps,
        enabled_qps,
        ann_qps,
        ann_nlists: nlists,
        ann_nprobe: nprobe,
    }
}

/// The IVF shortlist scan versus the exhaustive scan over one
/// clustered N-row corpus, swept across nprobe.
///
/// The corpus is `nlists` Gaussian-ish blobs (centres ± small jitter)
/// with `nlists = ⌈√N⌉`, the standard IVF sizing; queries are jittered
/// corpus rows, so every query has a well-defined home cell and the
/// exhaustive top-10 is a meaningful recall target. Three gates run
/// in-process (panic on failure, so CI cannot silently regress):
///
/// * probing all `nlists` lists is bit-identical to `knn_batch`;
/// * some swept nprobe reaches recall@10 ≥ 0.98;
/// * at N ≥ 1M that operating point is ≥ 10x the exhaustive scan's qps.
fn bench_ann(n: usize, dim: usize, batch: usize, seed: u64, registry: &Registry) -> AnnSection {
    let mut state = seed ^ 0xd1b5_4a32_d192_ed03;
    let store = clustered_store(n, dim, &mut state);
    let queries = jittered_queries(&store, batch, &mut state);
    let qrefs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();
    let nlists = isqrt(n).max(4);

    // Train the coarse quantizer and build the inverted lists. Training
    // sub-samples past 200k rows (centroid quality saturates long before
    // the full corpus is seen); list assignment always covers every row.
    let t0 = Instant::now();
    let flat = store.to_flat();
    let quantizer = KMeans::fit(
        &flat,
        dim,
        &KMeansParams {
            k: nlists,
            max_iters: 10,
            sample: if n > 200_000 { 100_000 } else { 0 },
            seed,
        },
    );
    let index = IvfIndex::build(quantizer, &flat);
    drop(flat);
    let build_secs = t0.elapsed().as_secs_f64();
    let nlists = index.nlists(); // k clamps to distinct rows on tiny corpora
    println!("  ann n={n}: built {nlists}-list IVF index in {build_secs:.1}s");

    // Anchor: probing every list is bit-identical to the exhaustive scan.
    let truth = store.knn_batch(&qrefs, K);
    assert_eq!(
        truth,
        store.knn_ann_batch(&qrefs, K, &index, nlists).0,
        "full probe diverged from the exhaustive scan"
    );

    let gemm_qps = time_qps(batch, || {
        std::hint::black_box(store.knn_batch(&qrefs, K));
    });

    let sweep: Vec<usize> = [1, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&p| p <= nlists)
        .collect();
    let metrics = DbMetrics::register(registry);
    let mut rows = Vec::new();
    for nprobe in sweep {
        let (approx, stats) = store.knn_ann_batch(&qrefs, K, &index, nprobe);
        let recall = mean_overlap_at_k(&truth, &approx, K);
        registry.gauge(names::ANN_RECALL_AT_K).set(recall);
        metrics.record_scan(&stats, None, qrefs.len(), n);
        let qps = time_qps(batch, || {
            std::hint::black_box(store.knn_ann_batch(&qrefs, K, &index, nprobe));
        });
        let lat = latencies_us(&qrefs, |q| {
            std::hint::black_box(store.knn_ann_batch(q, K, &index, nprobe));
        });
        let row = AnnRow {
            nprobe,
            recall,
            qps,
            p50_us: percentile(&lat, 0.50),
            p99_us: percentile(&lat, 0.99),
            scanned_frac: stats.candidates_scanned as f64 / (qrefs.len() * n) as f64,
        };
        println!(
            "  ann n={n}: nprobe {nprobe:>3} recall@{K} {recall:.4} {qps:.1} q/s ({:.1}x vs gemm) p50 {:.0}us p99 {:.0}us scanned {:.3}%",
            row.qps / gemm_qps,
            row.p50_us,
            row.p99_us,
            100.0 * row.scanned_frac
        );
        rows.push(row);
    }

    let best = rows
        .iter()
        .position(|r| r.recall >= 0.98)
        .unwrap_or_else(|| panic!("ann n={n}: no swept nprobe reached recall@{K} >= 0.98"));
    println!(
        "  ann n={n}: serving point nprobe {} recall@{K} {:.4} {:.1}x vs exhaustive gemm",
        rows[best].nprobe,
        rows[best].recall,
        rows[best].qps / gemm_qps
    );
    if n >= 1_000_000 {
        assert!(
            rows[best].qps >= 10.0 * gemm_qps,
            "ann n={n}: {:.1} q/s at recall {:.4} is under 10x the exhaustive {:.1} q/s",
            rows[best].qps,
            rows[best].recall,
            gemm_qps
        );
    }
    AnnSection {
        n,
        nlists,
        gemm_qps,
        build_secs,
        rows,
        best,
    }
}

/// The HNSW graph shortlist versus the exhaustive scan and the IVF
/// shortlist over the same *uniform* N-row corpus, swept across beam
/// width ef (`DESIGN.md` §15). Both backends are built on and queried
/// against the identical corpus and query batch — but unlike the ANN
/// leg's clustered corpus (whose `√N` blobs k-means recovers exactly,
/// handing IVF a one-cell scan at recall 1.0 that nothing can beat),
/// this one has no partition-recoverable structure, so holding high
/// recall forces IVF to probe a large corpus fraction. That is the
/// regime the graph exists for; see [`uniform_store`].
///
/// Gates run in-process (panic on failure, so CI cannot silently
/// regress):
///
/// * a beam covering the whole corpus (`ef = N`) is bit-identical to
///   `knn_batch` — the graph path's exactness anchor;
/// * some swept ef reaches recall@10 ≥ 0.99;
/// * at N ≥ 1M the graph's narrowest recall@10 ≥ 0.995 operating point
///   beats the IVF shortlist's narrowest recall@10 ≥ 0.995 point on
///   wall-clock qps — "beat IVF at high recall".
fn bench_graph(n: usize, dim: usize, batch: usize, seed: u64, registry: &Registry) -> GraphSection {
    let mut state = seed ^ 0xd1b5_4a32_d192_ed03;
    let store = uniform_store(n, dim, &mut state);
    let queries = jittered_queries(&store, batch, &mut state);
    let qrefs: Vec<&[f64]> = queries.iter().map(|q| q.as_slice()).collect();

    let threads = par::threads();
    let params = HnswParams {
        seed,
        ..HnswParams::default()
    };
    let t0 = Instant::now();
    let graph = HnswIndex::build(params, store.len(), threads, &store);
    let build_secs = t0.elapsed().as_secs_f64();
    println!(
        "  graph n={n}: built HNSW (m {}, m0 {}, ef_c {}) with {threads} threads in {build_secs:.1}s",
        params.m, params.m0, params.ef_construction
    );

    // Anchor: a beam covering the whole corpus degenerates to the
    // exhaustive scan, bit for bit (same norm-trick distances, same
    // (dist, index) order).
    let truth = store.knn_batch(&qrefs, K);
    assert_eq!(
        truth,
        store.knn_graph_batch(&qrefs, K, &graph, n.max(K)).0,
        "graph-gate: full-ef graph search diverged from the exhaustive scan"
    );

    let gemm_qps = time_qps(batch, || {
        std::hint::black_box(store.knn_batch(&qrefs, K));
    });

    let sweep: Vec<usize> = [16, 32, 64, 128, 256, 512, 1024]
        .into_iter()
        .filter(|&ef| ef >= K && ef <= n)
        .collect();
    let metrics = DbMetrics::register(registry);
    let mut rows = Vec::new();
    for ef in sweep {
        let (approx, stats) = store.knn_graph_batch(&qrefs, K, &graph, ef);
        let recall = mean_overlap_at_k(&truth, &approx, K);
        registry.gauge(names::GRAPH_RECALL_AT_K).set(recall);
        metrics.record_scan(&stats, Some(ef), qrefs.len(), n);
        let qps = time_qps(batch, || {
            std::hint::black_box(store.knn_graph_batch(&qrefs, K, &graph, ef));
        });
        let lat = latencies_us(&qrefs, |q| {
            std::hint::black_box(store.knn_graph_batch(q, K, &graph, ef));
        });
        let evals_per_query = stats.candidates_scanned as f64 / qrefs.len() as f64;
        let row = GraphRow {
            ef,
            recall,
            qps,
            p50_us: percentile(&lat, 0.50),
            p99_us: percentile(&lat, 0.99),
            hops: stats.hops,
            scanned_frac: stats.candidates_scanned as f64 / (qrefs.len() * n) as f64,
            evals_per_query,
            links_per_query: stats.links_scanned as f64 / qrefs.len() as f64,
            ns_per_eval: 1e9 / (qps * evals_per_query),
        };
        println!(
            "  graph n={n}: ef {ef:>4} recall@{K} {recall:.4} {qps:.1} q/s ({:.1}x vs gemm) p50 {:.0}us p99 {:.0}us scanned {:.3}% evals/q {:.0} links/q {:.0} ns/eval {:.0}",
            row.qps / gemm_qps,
            row.p50_us,
            row.p99_us,
            100.0 * row.scanned_frac,
            row.evals_per_query,
            row.links_per_query,
            row.ns_per_eval
        );
        rows.push(row);
    }

    let best = rows
        .iter()
        .position(|r| r.recall >= 0.99)
        .unwrap_or_else(|| panic!("graph-gate: n={n} no swept ef reached recall@{K} >= 0.99"));
    println!(
        "graph-gate: n={n} serving point ef {} recall@{K} {:.4} {:.1}x vs exhaustive gemm (graph_recall_ok)",
        rows[best].ef,
        rows[best].recall,
        rows[best].qps / gemm_qps
    );

    // Matched-recall IVF comparison: each backend's *narrowest*
    // operating point with recall@10 ≥ 0.995, same corpus, same queries.
    const MATCHED: f64 = 0.995;
    let (matched_graph_ef, matched_graph_recall, matched_graph_qps) =
        match rows.iter().find(|r| r.recall >= MATCHED) {
            Some(r) => (r.ef, r.recall, r.qps),
            // No swept beam reached the bar: fall back to the
            // full-corpus beam, exact by the anchor above.
            None => {
                let ef = n.max(K);
                let qps = time_qps(batch, || {
                    std::hint::black_box(store.knn_graph_batch(&qrefs, K, &graph, ef));
                });
                (ef, 1.0, qps)
            }
        };
    let flat = store.to_flat();
    let quantizer = KMeans::fit(
        &flat,
        dim,
        &KMeansParams {
            k: isqrt(n).max(4),
            max_iters: 10,
            sample: if n > 200_000 { 100_000 } else { 0 },
            seed,
        },
    );
    let index = IvfIndex::build(quantizer, &flat);
    drop(flat);
    let ivf_nlists = index.nlists();
    let mut nprobe = 1usize;
    let (matched_ivf_nprobe, matched_ivf_recall, matched_ivf_qps) = loop {
        let approx = store.knn_ann_batch(&qrefs, K, &index, nprobe).0;
        let recall = mean_overlap_at_k(&truth, &approx, K);
        if recall >= MATCHED || nprobe >= ivf_nlists {
            let qps = time_qps(batch, || {
                std::hint::black_box(store.knn_ann_batch(&qrefs, K, &index, nprobe));
            });
            break (nprobe, recall, qps);
        }
        nprobe = (nprobe * 2).min(ivf_nlists);
    };
    println!(
        "  graph n={n}: matched recall >= {MATCHED}: graph ef {matched_graph_ef} {matched_graph_qps:.1} q/s vs ivf nprobe {matched_ivf_nprobe}/{ivf_nlists} {matched_ivf_qps:.1} q/s ({:.2}x)",
        matched_graph_qps / matched_ivf_qps
    );
    if n >= 1_000_000 {
        assert!(
            matched_graph_qps > matched_ivf_qps,
            "graph-gate: n={n} graph {matched_graph_qps:.1} q/s does not beat ivf \
             {matched_ivf_qps:.1} q/s at matched recall >= {MATCHED}"
        );
        println!("graph-gate: n={n} graph beats ivf at matched recall >= {MATCHED} (passed)");
    }

    GraphSection {
        n,
        build_secs,
        gemm_qps,
        rows,
        best,
        matched_graph_ef,
        matched_graph_recall,
        matched_graph_qps,
        matched_ivf_nprobe,
        matched_ivf_recall,
        matched_ivf_qps,
        ivf_nlists,
    }
}

/// Clustered synthetic corpus shared by the ANN and graph sweeps:
/// `⌈√N⌉` centres with small per-row jitter (real trajectory embeddings
/// concentrate around motion patterns). Rows are generated block-wise
/// straight into a preallocated [`EmbeddingStore`] — no intermediate
/// `Vec<Vec<f64>>` — so a 10M-row corpus costs its rows, norms and codes
/// in 64-row chunks, and generation never doubles peak RSS.
fn clustered_store(n: usize, dim: usize, state: &mut u64) -> EmbeddingStore {
    let ncenters = isqrt(n).max(4);
    let centers: Vec<f64> = (0..ncenters * dim)
        .map(|_| 100.0 * unit_f64(state))
        .collect();
    let mut store = EmbeddingStore::new(dim);
    let mut row = vec![0.0; dim];
    for i in 0..n {
        let c = &centers[(i % ncenters) * dim..(i % ncenters + 1) * dim];
        for (v, &cv) in row.iter_mut().zip(c) {
            *v = cv + 2.0 * unit_f64(state);
        }
        store.push(&row);
    }
    store
}

/// Uniform synthetic corpus for the graph sweep: independent rows with
/// no recoverable partition structure. The clustered corpus above is
/// IVF's no-contest best case — k-means with `√N` lists recovers the
/// `√N` generating blobs exactly, so `nprobe = 1` scans one cell at
/// recall 1.0 and no graph walk can beat one dense partition scan. The
/// graph-vs-IVF comparison instead runs where high recall is genuinely
/// hard: with neighbors scattered across cells, IVF must probe a large
/// corpus fraction to hold recall while the beam's `O(ef·m·log N)` walk
/// doesn't care. Same row-by-row generation (and so the same peak RSS)
/// as [`clustered_store`].
fn uniform_store(n: usize, dim: usize, state: &mut u64) -> EmbeddingStore {
    let mut store = EmbeddingStore::new(dim);
    let mut row = vec![0.0; dim];
    for _ in 0..n {
        for v in row.iter_mut() {
            *v = 100.0 * unit_f64(state);
        }
        store.push(&row);
    }
    store
}

/// Query batch for synthetic corpora: jittered corpus rows
/// spread across the store, so every query has a well-defined home
/// region and the exhaustive top-10 is a meaningful recall target.
fn jittered_queries(store: &EmbeddingStore, batch: usize, state: &mut u64) -> Vec<Vec<f64>> {
    let n = store.len();
    let stride = (n / batch.max(1)).max(1);
    (0..batch)
        .map(|i| {
            store
                .get((i * stride) % n)
                .iter()
                .map(|&v| v + 0.5 * unit_f64(state))
                .collect()
        })
        .collect()
}

/// Integer square root (rounded), for the √N list-count heuristic.
fn isqrt(n: usize) -> usize {
    (n as f64).sqrt().round() as usize
}

/// Per-query latencies in microseconds: applies `f` to each query singly
/// until at least 128 samples and 0.1 s accumulate; returns them sorted.
fn latencies_us(qrefs: &[&[f64]], mut f: impl FnMut(&[&[f64]])) -> Vec<f64> {
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < 128 || start.elapsed().as_secs_f64() < 0.1 {
        for q in qrefs {
            let t = Instant::now();
            f(std::slice::from_ref(q));
            out.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Times `f` (which processes `per_round` queries per call) until at
/// least [`MIN_SECONDS`] elapse and returns queries per second.
fn time_qps(per_round: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: touch the scratch buffers, fault in pages
    let mut rounds = 0usize;
    let start = Instant::now();
    loop {
        f();
        rounds += 1;
        let secs = start.elapsed().as_secs_f64();
        if secs >= MIN_SECONDS {
            return (rounds * per_round) as f64 / secs;
        }
    }
}

/// The fastest of [`BEST_OF`] timed calls of `f`, in ns, after one
/// warm-up call.
fn best_ns(mut f: impl FnMut()) -> f64 {
    f();
    (0..BEST_OF)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// ns per row of the int8 code pass alone, in each arm this host runs:
/// `quant_scan_block` over forty 512-row chunks of random codes (one
/// query, the shape of one exact scan of 20k rows), best of [`BEST_OF`].
fn int8_pass(dim: usize) -> Vec<(&'static str, f64)> {
    const ROWS: usize = 512;
    const CHUNKS: usize = 40;
    let mut state = GOLDEN_GAMMA;
    let mut code = || (splitmix64(&mut state) >> 56) as u8;
    let q: Vec<u8> = (0..dim).map(|_| code()).collect();
    let mut codes = vec![0u8; ROWS / QUANT_TILE_ROWS * quant_tile_bytes(dim)];
    for j in 0..ROWS {
        for p in 0..dim {
            codes[quant_code_at(dim, j, p)] = code();
        }
    }
    let column: Vec<f64> = (0..ROWS).map(|j| j as f64 / ROWS as f64).collect();
    let terms = QuantQueryTerms {
        dqo: 0.5 * dim as f64,
        qo: 0.5,
        qs: 0.01,
        qsum: q.iter().map(|&c| f64::from(c)).sum(),
        qn: 1.0,
    };
    let words = quant_query_words(&q);
    let rows = QuantRows {
        codes: &codes,
        offset: &column,
        scale: &column,
        code_sum: &column,
        dq_norm: &column,
    };
    // A limit that lets about half the rows through.
    let limit = QuantLimit {
        reach: 0.5,
        factor: 1.0,
        rho: 1.0,
        slack: 0.0,
    };
    let (mut out, mut hits) = (vec![0.0; ROWS], [0u64; ROWS / 64]);
    let mut arms: Vec<(&'static str, f64)> = Vec::new();
    for level in SimdLevel::ALL {
        let arm = QuantArm::at(level).name();
        if arms.iter().any(|&(a, _)| a == arm) {
            continue;
        }
        let ns = best_ns(|| {
            for _ in 0..CHUNKS {
                quant_scan_block(level, &words, &terms, &rows, &limit, &mut out, &mut hits);
                std::hint::black_box((&out, &hits));
            }
        }) / (ROWS * CHUNKS) as f64;
        arms.push((arm, ns));
    }
    let line: Vec<String> = arms.iter().map(|(a, ns)| format!("{a} {ns:.3}")).collect();
    println!("  int8-pass: {} ns/row", line.join(", "));
    arms
}

/// splitmix64 step mapped to [-1, 1] — deterministic synthetic
/// embeddings.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Deterministic trajectory shaped by `id` so every batch slot differs.
fn synth_traj(id: u64, len: usize) -> Trajectory {
    Trajectory::new_unchecked(
        id,
        (0..len)
            .map(|k| {
                let (t, i) = (k as f64, id as f64);
                Point::new(
                    500.0 + 450.0 * (0.37 * t + 0.13 * i).sin(),
                    250.0 + 220.0 * (0.23 * t - 0.29 * i).cos(),
                )
            })
            .collect(),
    )
}

/// Hand-rolled JSON (the dependency set has no serde_json).
#[allow(clippy::too_many_arguments)]
fn render_json(
    cli: &neutraj_bench::Cli,
    host_cpus: usize,
    scan: &[ScanRow],
    embed: &[EmbedRow],
    serving: &ServingRow,
    ann: &[AnnSection],
    graph: &[GraphSection],
    report: &MetricsReport,
) -> String {
    let scan_objs = scan
        .iter()
        .map(|r| {
            let rows = |rows: &[(usize, f64)]| {
                rows.iter()
                    .map(|(b, ns)| format!("{{\"b\": {b}, \"ns_per_row_query\": {ns:.3}}}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let (mean, p90, max) = r.survivors;
            let int8: Vec<String> = (r.int8_pass.iter())
                .map(|(arm, ns)| format!("\"{arm}\": {ns:.4}"))
                .collect();
            format!(
                "    {{\n      \"n\": {},\n      \"naive_qps\": {:.2},\n      \"gemm_qps\": {:.2},\n      \"speedup\": {:.4},\n      \"by_batch\": [{}],\n      \"worst_b16\": {:.3},\n      \"int8_pass\": {{{}}},\n      \"exact_bound_survivors\": {{\"mean\": {mean:.2}, \"p90\": {p90:.0}, \"max\": {max:.0}}}\n    }}",
                r.n,
                r.naive_qps,
                r.gemm_qps,
                r.gemm_qps / r.naive_qps,
                rows(&r.by_batch),
                r.worst_b16,
                int8.join(", "),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let embed_objs = embed
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"backbone\": \"{}\",\n      \"scalar_qps\": {:.2},\n      \"batched_qps\": {:.2},\n      \"speedup\": {:.4}\n    }}",
                r.backbone,
                r.scalar_qps,
                r.batched_qps,
                r.batched_qps / r.scalar_qps
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let serving_obj = format!(
        "  \"serving\": {{\n    \"n\": {},\n    \"metrics_disabled_qps\": {:.2},\n    \"metrics_enabled_qps\": {:.2},\n    \"metrics_overhead\": {:.4},\n    \"ann_qps\": {:.2},\n    \"ann_nlists\": {},\n    \"ann_nprobe\": {}\n  }}",
        serving.n,
        serving.disabled_qps,
        serving.enabled_qps,
        serving.disabled_qps / serving.enabled_qps - 1.0,
        serving.ann_qps,
        serving.ann_nlists,
        serving.ann_nprobe
    );
    // The ANN block only appears on `--ann` runs; `ann_recall_ok` is the
    // key the CI smoke greps for. It can only render as true — the sweep
    // panics before reaching here otherwise — but compute it anyway.
    let ann_obj = if ann.is_empty() {
        String::new()
    } else {
        let recall_ok = ann.iter().all(|s| s.rows[s.best].recall >= 0.98);
        let sections = ann
            .iter()
            .map(|s| {
                let sweep = s
                    .rows
                    .iter()
                    .map(|r| {
                        format!(
                            "        {{\n          \"nprobe\": {},\n          \"recall_at_10\": {:.4},\n          \"qps\": {:.2},\n          \"p50_us\": {:.1},\n          \"p99_us\": {:.1},\n          \"speedup_vs_gemm\": {:.4},\n          \"scanned_frac\": {:.6}\n        }}",
                            r.nprobe, r.recall, r.qps, r.p50_us, r.p99_us, r.qps / s.gemm_qps, r.scanned_frac
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!(
                    "    {{\n      \"n\": {},\n      \"nlists\": {},\n      \"gemm_qps\": {:.2},\n      \"build_secs\": {:.2},\n      \"best_nprobe\": {},\n      \"best_recall_at_10\": {:.4},\n      \"best_speedup_vs_gemm\": {:.4},\n      \"sweep\": [\n{}\n      ]\n    }}",
                    s.n,
                    s.nlists,
                    s.gemm_qps,
                    s.build_secs,
                    s.rows[s.best].nprobe,
                    s.rows[s.best].recall,
                    s.rows[s.best].qps / s.gemm_qps,
                    sweep
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!("  \"ann_recall_ok\": {recall_ok},\n  \"ann\": [\n{sections}\n  ],\n")
    };
    // The graph block only appears on `--graph` runs; `graph_recall_ok`
    // is the key the CI smoke greps for. Like the ANN sweep it can only
    // render as true — the in-process gates panic otherwise — but
    // compute it from the data anyway. Each section also records the
    // matched-recall IVF point, so the JSON carries the graph-vs-IVF
    // comparison.
    let graph_obj = if graph.is_empty() {
        String::new()
    } else {
        let recall_ok = graph.iter().all(|s| s.rows[s.best].recall >= 0.99);
        let sections = graph
            .iter()
            .map(|s| {
                let sweep = s
                    .rows
                    .iter()
                    .map(|r| {
                        format!(
                            "        {{\n          \"ef\": {},\n          \"recall_at_10\": {:.4},\n          \"qps\": {:.2},\n          \"p50_us\": {:.1},\n          \"p99_us\": {:.1},\n          \"speedup_vs_gemm\": {:.4},\n          \"hops\": {},\n          \"scanned_frac\": {:.6},\n          \"evals_per_query\": {:.2},\n          \"links_per_query\": {:.2},\n          \"ns_per_eval\": {:.1}\n        }}",
                            r.ef, r.recall, r.qps, r.p50_us, r.p99_us, r.qps / s.gemm_qps, r.hops, r.scanned_frac,
                            r.evals_per_query, r.links_per_query, r.ns_per_eval
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!(
                    "    {{\n      \"n\": {},\n      \"build_secs\": {:.2},\n      \"gemm_qps\": {:.2},\n      \"best_ef\": {},\n      \"best_recall_at_10\": {:.4},\n      \"best_speedup_vs_gemm\": {:.4},\n      \"matched_recall_bar\": 0.995,\n      \"matched_graph_ef\": {},\n      \"matched_graph_recall_at_10\": {:.4},\n      \"matched_graph_qps\": {:.2},\n      \"matched_ivf_nprobe\": {},\n      \"matched_ivf_nlists\": {},\n      \"matched_ivf_recall_at_10\": {:.4},\n      \"matched_ivf_qps\": {:.2},\n      \"graph_vs_ivf_speedup\": {:.4},\n      \"sweep\": [\n{}\n      ]\n    }}",
                    s.n,
                    s.build_secs,
                    s.gemm_qps,
                    s.rows[s.best].ef,
                    s.rows[s.best].recall,
                    s.rows[s.best].qps / s.gemm_qps,
                    s.matched_graph_ef,
                    s.matched_graph_recall,
                    s.matched_graph_qps,
                    s.matched_ivf_nprobe,
                    s.ivf_nlists,
                    s.matched_ivf_recall,
                    s.matched_ivf_qps,
                    s.matched_graph_qps / s.matched_ivf_qps,
                    sweep
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!("  \"graph_recall_ok\": {recall_ok},\n  \"graph\": [\n{sections}\n  ],\n")
    };
    format!(
        "{{\n  \"bench\": \"query\",\n  \"dim\": {},\n  \"k\": {K},\n  \"batch\": {},\n  \"host_cpus\": {},\n  \"scan\": [\n{}\n  ],\n  \"embed\": [\n{}\n  ],\n{},\n{}{}  \"metrics\": {}\n}}\n",
        cli.dim,
        cli.queries,
        host_cpus,
        scan_objs,
        embed_objs,
        serving_obj,
        ann_obj,
        graph_obj,
        report.to_json_indented(2)
    )
}
