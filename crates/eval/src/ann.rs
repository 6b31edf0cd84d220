//! ANN serving recall harness.
//!
//! Two recall notions, matching how the IVF shortlist path can miss:
//!
//! * [`embedding_recall_at_k`] — ANN versus the **brute-force embedding
//!   scan** on the same store. This isolates the index: scored distances
//!   are bit-identical between the two paths, so any gap is purely
//!   candidates left unprobed. This is the number the serving bench
//!   gates on (`recall@10 ≥ 0.98`).
//! * [`exact_measure_recall_at_k`] — the end-to-end ANN + exact-rerank
//!   search versus exact-measure ground truth from the
//!   `GroundTruthEngine` knn path (the pruned exact engine of
//!   `neutraj-measures`). This folds in the model's embedding quality,
//!   so it is bounded above by what the exhaustive learned scan achieves.
//!
//! When handed a [`Registry`], the harness publishes the measured recall
//! through the `neutraj_ann_recall_at_k` gauge — the serving path itself
//! never writes it (it has no ground truth), only evaluation does.

//! A third notion rides the int8-quantized scan (`DESIGN.md` §12):
//! [`quantized_recall_at_k`] scores the quantized shortlist + exact
//! rerank against the same brute-force scan, publishing
//! `neutraj_quant_recall_at_k` — the number the serving bench gates on
//! (`recall@10 ≥ 0.99`).
//!
//! A fourth rides the HNSW graph shortlist (`DESIGN.md` §15):
//! [`graph_recall_at_k`] scores the beam-searched shortlist + exact
//! rerank against the same brute-force scan, publishing
//! `neutraj_graph_recall_at_k` — the number the graph bench gates on
//! (`recall@10 ≥ 0.99`).

use neutraj_measures::{GroundTruthEngine, Measure, Neighbor};
use neutraj_model::{AnnIndex, EmbeddingStore, HnswIndex, QuantizedStore, Query, SimilarityDb};
use neutraj_obs::{names, Registry};

/// One recall measurement of the IVF shortlist path against the
/// exhaustive scan, with the probe-work telemetry alongside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnRecallReport {
    /// Result depth scored.
    pub k: usize,
    /// Inverted lists probed per query.
    pub nprobe: usize,
    /// Number of queries scored.
    pub queries: usize,
    /// Mean fraction of the exhaustive top-`k` recovered by the ANN
    /// path (1.0 when `nprobe ≥ nlists`).
    pub recall_at_k: f64,
    /// Total inverted lists probed across the query set.
    pub lists_probed: usize,
    /// Total candidate rows exactly scored across the query set.
    pub candidates_scanned: usize,
    /// Mean fraction of the corpus exactly scored per query — the
    /// realized sub-linearity (1.0 means the "shortlist" was the whole
    /// corpus).
    pub mean_rerank_depth: f64,
}

/// Fraction of `truth`'s first `k` indices present anywhere in
/// `result`'s first `k`. Both rankings shorter than `k` are used as-is;
/// the denominator is the truth's (clamped) depth so a short corpus
/// still scores 1.0 when everything is recovered.
fn overlap_at_k(truth: &[Neighbor], result: &[Neighbor], k: usize) -> f64 {
    let t = &truth[..k.min(truth.len())];
    if t.is_empty() {
        return 1.0;
    }
    let r = &result[..k.min(result.len())];
    let hits = t
        .iter()
        .filter(|n| r.iter().any(|m| m.index == n.index))
        .count();
    hits as f64 / t.len() as f64
}

/// Scores the IVF shortlist path against the brute-force norm-trick scan
/// on `store`: both rank by the same exact embedding distance, so the
/// reported recall is exactly the fraction of true top-`k` rows whose
/// inverted list was probed. Publishes `neutraj_ann_recall_at_k` into
/// `registry` when given.
///
/// Panics (like the underlying scan) when `index` does not match `store`
/// or `nprobe == 0`.
pub fn embedding_recall_at_k(
    store: &EmbeddingStore,
    index: &AnnIndex,
    queries: &[&[f64]],
    k: usize,
    nprobe: usize,
    registry: Option<&Registry>,
) -> AnnRecallReport {
    let truth = store.knn_batch(queries, k);
    let (approx, stats) = store.knn_ann_batch(queries, k, index, nprobe);
    let recall = if queries.is_empty() {
        1.0
    } else {
        truth
            .iter()
            .zip(&approx)
            .map(|(t, a)| overlap_at_k(t, a, k))
            .sum::<f64>()
            / queries.len() as f64
    };
    if let Some(reg) = registry {
        reg.gauge(names::ANN_RECALL_AT_K).set(recall);
    }
    let denom = (queries.len().max(1) * store.len().max(1)) as f64;
    AnnRecallReport {
        k,
        nprobe,
        queries: queries.len(),
        recall_at_k: recall,
        lists_probed: stats.lists_probed,
        candidates_scanned: stats.candidates_scanned,
        mean_rerank_depth: stats.candidates_scanned as f64 / denom,
    }
}

/// One recall measurement of the int8-quantized scan against the
/// exhaustive f64 scan, with the bytes-streamed telemetry alongside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantRecallReport {
    /// Result depth scored.
    pub k: usize,
    /// Number of queries scored.
    pub queries: usize,
    /// Mean fraction of the exhaustive top-`k` recovered by the
    /// quantized shortlist + exact rerank.
    pub recall_at_k: f64,
    /// Rows scored through their u8 codes across the query set.
    pub rows_scanned: usize,
    /// Bytes the quantized scan streamed (`dim + 16` per row).
    pub bytes_scanned: usize,
    /// Bytes the f64 scan streams for the same work (`8·dim + 8` per
    /// row) — the ratio is the memory-traffic saving.
    pub bytes_f64: usize,
    /// Shortlist survivors exactly re-scored.
    pub reranked: usize,
}

/// Scores the int8-quantized exhaustive scan against the brute-force
/// f64 norm-trick scan on the parent `store`. The quantized path
/// re-scores its over-fetched shortlist exactly, so any recall gap is
/// purely rows the approximate ordering dropped from the shortlist —
/// returned distances are identical for recovered rows. Publishes
/// `neutraj_quant_recall_at_k` into `registry` when given.
///
/// Panics (like the underlying scan) when `quant` is not a view of
/// `store`.
pub fn quantized_recall_at_k(
    store: &EmbeddingStore,
    quant: &QuantizedStore,
    queries: &[&[f64]],
    k: usize,
    registry: Option<&Registry>,
) -> QuantRecallReport {
    let truth = store.knn_batch(queries, k);
    let (approx, stats) = quant.knn_batch(store, queries, k);
    let recall = if queries.is_empty() {
        1.0
    } else {
        truth
            .iter()
            .zip(&approx)
            .map(|(t, a)| overlap_at_k(t, a, k))
            .sum::<f64>()
            / queries.len() as f64
    };
    if let Some(reg) = registry {
        reg.gauge(names::QUANT_RECALL_AT_K).set(recall);
    }
    QuantRecallReport {
        k,
        queries: queries.len(),
        recall_at_k: recall,
        rows_scanned: stats.rows_scanned,
        bytes_scanned: stats.bytes_scanned,
        bytes_f64: stats.rows_scanned * (8 * store.dim() + 8),
        reranked: stats.reranked,
    }
}

/// One recall measurement of the HNSW graph shortlist path against the
/// exhaustive scan, with the beam-search telemetry alongside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphRecallReport {
    /// Result depth scored.
    pub k: usize,
    /// Beam width used for the graph search.
    pub ef: usize,
    /// Number of queries scored.
    pub queries: usize,
    /// Mean fraction of the exhaustive top-`k` recovered by the graph
    /// path (1.0 when `ef ≥ N`).
    pub recall_at_k: f64,
    /// Total greedy-descent + beam hops across the query set.
    pub hops: usize,
    /// Total candidate rows exactly scored across the query set.
    pub candidates_scanned: usize,
    /// Mean fraction of the corpus exactly scored per query — the
    /// realized sub-linearity (1.0 means the beam visited everything).
    pub mean_rerank_depth: f64,
}

/// Scores the HNSW graph shortlist path against the brute-force
/// norm-trick scan on `store`: both rank by the same exact embedding
/// distance (the graph search scores through the identical norm-trick
/// oracle), so the reported recall is exactly the fraction of true
/// top-`k` rows the beam reached. Publishes `neutraj_graph_recall_at_k`
/// into `registry` when given.
///
/// Panics (like the underlying scan) when `graph` does not match `store`
/// or `ef == 0`.
pub fn graph_recall_at_k(
    store: &EmbeddingStore,
    graph: &HnswIndex,
    queries: &[&[f64]],
    k: usize,
    ef: usize,
    registry: Option<&Registry>,
) -> GraphRecallReport {
    let truth = store.knn_batch(queries, k);
    let (approx, stats) = store.knn_graph_batch(queries, k, graph, ef);
    let recall = if queries.is_empty() {
        1.0
    } else {
        truth
            .iter()
            .zip(&approx)
            .map(|(t, a)| overlap_at_k(t, a, k))
            .sum::<f64>()
            / queries.len() as f64
    };
    if let Some(reg) = registry {
        reg.gauge(names::GRAPH_RECALL_AT_K).set(recall);
    }
    let denom = (queries.len().max(1) * store.len().max(1)) as f64;
    GraphRecallReport {
        k,
        ef,
        queries: queries.len(),
        recall_at_k: recall,
        hops: stats.hops,
        candidates_scanned: stats.candidates_scanned,
        mean_rerank_depth: stats.candidates_scanned as f64 / denom,
    }
}

/// End-to-end recall of the ANN + exact-rerank search against
/// exact-measure ground truth: for each stored query index, the db
/// answers `Query::new(k).shortlist(shortlist).shortlist_ann(nprobe)
/// .rerank(measure)` while the `GroundTruthEngine` computes the true
/// exact top-`k` (self excluded, matching the stored-target semantics)
/// over the same grid-rescaled coordinates the db reranks in.
///
/// Returns the mean fraction of true top-`k` recovered. Errors from the
/// db (no index, bad configuration) propagate as panics — this is a
/// harness, not a serving path.
pub fn exact_measure_recall_at_k(
    db: &SimilarityDb,
    measure: &dyn Measure,
    query_idxs: &[usize],
    k: usize,
    nprobe: usize,
    shortlist: usize,
    threads: usize,
) -> f64 {
    if query_idxs.is_empty() {
        return 1.0;
    }
    let grid = db.model().grid();
    let rescaled: Vec<_> = (0..db.len())
        .map(|i| grid.rescale_trajectory(db.get(i).expect("stored index")))
        .collect();
    // Depth k+1 so stripping the query itself still leaves k entries.
    let truth_lists =
        GroundTruthEngine::new(measure, &rescaled).knn_lists(query_idxs, k + 1, threads.max(1));
    let q = Query::new(k)
        .shortlist(shortlist)
        .shortlist_ann(nprobe)
        .rerank(measure);
    let mut total = 0.0;
    for (&idx, mut truth) in query_idxs.iter().zip(truth_lists) {
        truth.retain(|n| n.index != idx);
        let got = db.search(idx, &q).expect("harness query must be valid");
        total += overlap_at_k(&truth, &got, k);
    }
    total / query_idxs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_cluster::{KMeans, KMeansParams};
    use neutraj_index::IvfIndex;
    use neutraj_measures::Hausdorff;
    use neutraj_model::{AnnParams, BackboneKind, NeuTrajModel, TrainConfig};
    use neutraj_trajectory::rng::splitmix64;
    use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};

    /// Clustered synthetic embeddings: `blobs` centers, `per` rows each.
    fn blob_store(blobs: usize, per: usize, dim: usize) -> EmbeddingStore {
        let mut state = 77u64;
        let mut next = move || splitmix64(&mut state);
        let centers: Vec<f64> = (0..blobs * dim).map(|_| (next() % 300) as f64).collect();
        let embs: Vec<Vec<f64>> = (0..blobs * per)
            .map(|i| {
                let b = i % blobs;
                (0..dim)
                    .map(|d| centers[b * dim + d] + (next() % 100) as f64 / 50.0)
                    .collect()
            })
            .collect();
        EmbeddingStore::from_embeddings(dim, &embs)
    }

    fn index_over(store: &EmbeddingStore, nlists: usize) -> AnnIndex {
        let q = KMeans::fit(
            store.as_flat(),
            store.dim(),
            &KMeansParams {
                k: nlists,
                ..Default::default()
            },
        );
        IvfIndex::build(q, store.as_flat())
    }

    #[test]
    fn full_probe_recall_is_one_and_partial_probe_is_cheaper() {
        let store = blob_store(6, 40, 4);
        let index = index_over(&store, 6);
        let queries: Vec<&[f64]> = (0..20).map(|i| store.get(i * 7)).collect();
        let registry = Registry::new();
        let full = embedding_recall_at_k(
            &store,
            &index,
            &queries,
            10,
            index.nlists(),
            Some(&registry),
        );
        assert_eq!(full.recall_at_k, 1.0, "full probe must be exact");
        assert_eq!(full.candidates_scanned, queries.len() * store.len());
        assert!((full.mean_rerank_depth - 1.0).abs() < 1e-12);
        // The gauge carries the last published recall.
        let report = registry.snapshot();
        let gauge = report
            .gauges
            .iter()
            .find(|(n, _)| n == names::ANN_RECALL_AT_K)
            .expect("recall gauge")
            .1;
        assert_eq!(gauge, 1.0);

        let partial = embedding_recall_at_k(&store, &index, &queries, 10, 1, None);
        assert!(partial.candidates_scanned < full.candidates_scanned);
        assert!(partial.mean_rerank_depth < 1.0);
        assert!(partial.recall_at_k <= 1.0);
        // Blob queries live inside one cell with all their neighbors, so
        // even nprobe = 1 recalls well on this geometry.
        assert!(partial.recall_at_k > 0.9, "{}", partial.recall_at_k);
        assert_eq!(partial.lists_probed, queries.len());
    }

    /// Smoothly spread rows, like trained-model embeddings. (The blob
    /// store is *adversarial* for per-row int8: its intra-blob jitter is
    /// smaller than the quantization step, so same-blob rows tie under
    /// code noise — see DESIGN.md §12 on the resolution floor.)
    fn uniform_store(n: usize, dim: usize) -> EmbeddingStore {
        let mut seed = 11u64;
        let mut unit = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let embs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| unit() * 4.0 - 2.0).collect())
            .collect();
        EmbeddingStore::from_embeddings(dim, &embs)
    }

    #[test]
    fn quantized_scan_recall_at_10_clears_the_serving_gate() {
        let store = uniform_store(2000, 16);
        let quant = QuantizedStore::from_store(&store);
        let queries: Vec<&[f64]> = (0..25).map(|i| store.get(i * 71 + 3)).collect();
        let registry = Registry::new();
        let r = quantized_recall_at_k(&store, &quant, &queries, 10, Some(&registry));
        assert!(
            r.recall_at_k >= 0.99,
            "quantized recall@10 {} below the 0.99 gate",
            r.recall_at_k
        );
        // Every scored row streamed ~8× fewer bytes than the f64 path.
        assert_eq!(r.rows_scanned, queries.len() * store.len());
        assert_eq!(r.bytes_scanned, r.rows_scanned * (store.dim() + 16));
        assert_eq!(r.bytes_f64, r.rows_scanned * (8 * store.dim() + 8));
        assert!(r.reranked > 0);
        // The gauge carries the published recall.
        let report = registry.snapshot();
        let gauge = report
            .gauges
            .iter()
            .find(|(n, _)| n == names::QUANT_RECALL_AT_K)
            .expect("quant recall gauge")
            .1;
        assert_eq!(gauge, r.recall_at_k);
    }

    #[test]
    fn graph_recall_full_ef_is_exact_and_narrow_beam_is_cheaper() {
        let store = uniform_store(1200, 8);
        let graph = neutraj_model::HnswIndex::build(
            neutraj_model::HnswParams::default(),
            store.len(),
            2,
            &|a, b| store.row_dist_sq(a, b),
        );
        let queries: Vec<&[f64]> = (0..20).map(|i| store.get(i * 53 + 1)).collect();
        let registry = Registry::new();
        let full = graph_recall_at_k(&store, &graph, &queries, 10, store.len(), Some(&registry));
        assert_eq!(full.recall_at_k, 1.0, "ef >= N must be exact");
        assert!((full.mean_rerank_depth - 1.0).abs() < 1e-12);
        let gauge = registry
            .snapshot()
            .gauges
            .iter()
            .find(|(n, _)| n == names::GRAPH_RECALL_AT_K)
            .expect("graph recall gauge")
            .1;
        assert_eq!(gauge, 1.0);

        let narrow = graph_recall_at_k(&store, &graph, &queries, 10, 64, None);
        assert!(narrow.candidates_scanned < full.candidates_scanned);
        assert!(narrow.mean_rerank_depth < 1.0);
        assert!(narrow.hops > 0);
        assert!(
            narrow.recall_at_k > 0.8,
            "ef=64 recall@10 {} implausibly low",
            narrow.recall_at_k
        );
    }

    #[test]
    fn empty_query_set_scores_perfect_recall() {
        let store = blob_store(3, 10, 3);
        let index = index_over(&store, 3);
        let r = embedding_recall_at_k(&store, &index, &[], 5, 1, None);
        assert_eq!(r.recall_at_k, 1.0);
        assert_eq!(r.queries, 0);
    }

    #[test]
    fn end_to_end_recall_is_one_at_full_probe_and_full_shortlist() {
        // Untrained model: embeddings are deterministic but arbitrary —
        // irrelevant here, because with nprobe = nlists and a shortlist
        // covering the whole corpus the exact rerank sees everything, so
        // recall against the exact engine must be 1.0 regardless of
        // embedding quality.
        let cfg = TrainConfig {
            backbone: BackboneKind::SamLstm,
            dim: 8,
            seed: 5,
            ..TrainConfig::neutraj()
        };
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
        let model = NeuTrajModel::untrained(cfg, grid);
        let corpus: Vec<Trajectory> = (0..25)
            .map(|id| {
                Trajectory::new_unchecked(
                    id,
                    (0..12)
                        .map(|t| {
                            let (t, i) = (t as f64, id as f64);
                            Point::new(
                                500.0 + 400.0 * (0.3 * t + 0.7 * i).sin(),
                                250.0 + 200.0 * (0.2 * t - 0.5 * i).cos(),
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let mut db = SimilarityDb::with_corpus(model, corpus, 2);
        db.build_ann_index(&AnnParams {
            nlists: 4,
            ..Default::default()
        })
        .unwrap();
        let nlists = db.ann_index().unwrap().nlists();
        let idxs: Vec<usize> = vec![0, 5, 11, 19];
        let r = exact_measure_recall_at_k(&db, &Hausdorff, &idxs, 5, nlists, db.len(), 2);
        assert_eq!(r, 1.0, "full probe + full shortlist must be exact");
        // Narrower settings can only lose recall, never crash.
        let r = exact_measure_recall_at_k(&db, &Hausdorff, &idxs, 5, 1, 10, 2);
        assert!((0.0..=1.0).contains(&r));
    }
}
