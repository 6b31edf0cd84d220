//! Shortlist serving recall harness.
//!
//! Two recall notions, matching how a shortlist view can miss:
//!
//! * [`shortlist_recall_at_k`] — a shortlist scan (an IVF probe or an
//!   HNSW beam: whatever the `scan` closure runs) versus the
//!   **brute-force embedding scan** on the same store. Every view scores
//!   what it returns exactly, so distances are bit-identical between the
//!   two and any gap is purely rows the view left out. These are the
//!   numbers the serving bench gates on (`recall@10 ≥ 0.98` for IVF,
//!   `≥ 0.99` for the graph).
//! * [`exact_measure_recall_at_k`] — the end-to-end ANN + exact-rerank
//!   search versus exact-measure ground truth from the
//!   `GroundTruthEngine` knn path (the pruned exact engine of
//!   `neutraj-measures`). This folds in the model's embedding quality,
//!   so it is bounded above by what the exhaustive learned scan achieves.
//!
//! The serving path never writes a recall gauge (it has no ground
//! truth); evaluation does, into the gauge the caller hands over —
//! `neutraj_ann_recall_at_k` or `neutraj_graph_recall_at_k`.

use neutraj_measures::{GroundTruthEngine, Measure, Neighbor};
use neutraj_model::{EmbeddingStore, Query, ScanStats, SimilarityDb};
use neutraj_obs::Gauge;

/// One recall measurement of a shortlist scan against the exhaustive
/// scan, with the scan's own work counters alongside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecallReport {
    /// Result depth scored.
    pub k: usize,
    /// Number of queries scored.
    pub queries: usize,
    /// Mean fraction of the exhaustive top-`k` the shortlist scan
    /// recovered (1.0 when the view covers the corpus: `nprobe ≥ nlists`,
    /// `ef ≥ N`).
    pub recall_at_k: f64,
    /// What the scan did across the query set.
    pub stats: ScanStats,
    /// Mean fraction of the corpus scored exactly in f64 per query — the
    /// realized sub-linearity of an IVF or graph shortlist (1.0 means the
    /// "shortlist" was the whole corpus).
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

/// Mean, over a query set, of the fraction of each `truth` top-`k` that
/// the matching `approx` list recovered; 1.0 for an empty set.
pub fn mean_overlap_at_k(truth: &[Vec<Neighbor>], approx: &[Vec<Neighbor>], k: usize) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let total: f64 = truth
        .iter()
        .zip(approx)
        .map(|(t, a)| overlap_at_k(t, a, k))
        .sum();
    total / truth.len() as f64
}

/// Scores one shortlist scan against the brute-force norm-trick scan on
/// `store`. `scan` answers the same queries at the same depth through
/// the view under test — `|q, k| store.knn_ann_batch(q, k, &index,
/// nprobe)` or `|q, k| store.knn_graph_batch(q, k, &graph, ef)`. Both sides rank by the same
/// exact embedding distance, so the reported recall is exactly the
/// fraction of true top-`k` rows the view reached. Publishes it into
/// `gauge` when given.
///
/// Panics when the scan does (a view that does not match `store`, a
/// zero `nprobe` or `ef`).
pub fn shortlist_recall_at_k(
    store: &EmbeddingStore,
    queries: &[&[f64]],
    k: usize,
    scan: impl FnOnce(&[&[f64]], usize) -> (Vec<Vec<Neighbor>>, ScanStats),
    gauge: Option<&Gauge>,
) -> RecallReport {
    let truth = store.knn_batch(queries, k);
    let (approx, stats) = scan(queries, k);
    let recall_at_k = mean_overlap_at_k(&truth, &approx, k);
    if let Some(gauge) = gauge {
        gauge.set(recall_at_k);
    }
    let denom = (queries.len().max(1) * store.len().max(1)) as f64;
    RecallReport {
        k,
        queries: queries.len(),
        recall_at_k,
        stats,
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
    use neutraj_model::{AnnIndex, AnnParams, BackboneKind, NeuTrajModel, TrainConfig};
    use neutraj_obs::{names, Registry};
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
        let ivf = |nprobe: usize, gauge: Option<&Gauge>| {
            let scan = |q: &[&[f64]], k| store.knn_ann_batch(q, k, &index, nprobe);
            shortlist_recall_at_k(&store, &queries, 10, scan, gauge)
        };
        let gauge = registry.gauge(names::ANN_RECALL_AT_K);
        let full = ivf(index.nlists(), Some(&gauge));
        assert_eq!(full.recall_at_k, 1.0, "full probe must be exact");
        assert_eq!(full.stats.candidates_scanned, queries.len() * store.len());
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

        let partial = ivf(1, None);
        assert!(partial.stats.candidates_scanned < full.stats.candidates_scanned);
        assert!(partial.mean_rerank_depth < 1.0);
        assert!(partial.recall_at_k <= 1.0);
        // Blob queries live inside one cell with all their neighbors, so
        // even nprobe = 1 recalls well on this geometry.
        assert!(partial.recall_at_k > 0.9, "{}", partial.recall_at_k);
        assert_eq!(partial.stats.lists_probed, queries.len());
    }

    /// Smoothly spread rows, like trained-model embeddings.
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
        let walk = |ef: usize, gauge: Option<&Gauge>| {
            let scan = |q: &[&[f64]], k| store.knn_graph_batch(q, k, &graph, ef);
            shortlist_recall_at_k(&store, &queries, 10, scan, gauge)
        };
        let gauge = registry.gauge(names::GRAPH_RECALL_AT_K);
        let full = walk(store.len(), Some(&gauge));
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

        let narrow = walk(64, None);
        assert!(narrow.stats.candidates_scanned < full.stats.candidates_scanned);
        assert!(narrow.mean_rerank_depth < 1.0);
        assert!(narrow.stats.hops > 0);
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
        let ivf = |q: &[&[f64]], k| store.knn_ann_batch(q, k, &index, 1);
        let r = shortlist_recall_at_k(&store, &[], 5, ivf, None);
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
