//! Property tests for the unified `Query` API: `search` / `search_batch`
//! must be **bit-identical** to the pre-redesign `knn*` code paths on
//! random corpora. The historical pipelines are re-implemented here,
//! verbatim, on top of `EmbeddingStore` (whose scan kernels the redesign
//! did not touch) so the comparison is against the genuine old behaviour,
//! not against the forwards.

use neutraj_measures::{Hausdorff, Measure, Neighbor};
use neutraj_model::{
    AnnParams, BackboneKind, HnswParams, NeuTrajModel, Query, SimilarityDb, TrainConfig,
};
use neutraj_trajectory::rng::cases;
use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};

fn model() -> NeuTrajModel {
    let cfg = TrainConfig {
        backbone: BackboneKind::SamLstm,
        dim: 8,
        seed: 23,
        ..TrainConfig::neutraj()
    };
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    NeuTrajModel::untrained(cfg, grid)
}

/// A deterministic trajectory of `len` points, shaped by `id`.
fn traj(id: u64, len: usize) -> Trajectory {
    Trajectory::new_unchecked(
        id,
        (0..len)
            .map(|k| {
                let t = k as f64;
                let i = id as f64;
                Point::new(
                    500.0 + 450.0 * (0.41 * t + 0.17 * i).sin(),
                    250.0 + 220.0 * (0.19 * t - 0.31 * i).cos(),
                )
            })
            .collect(),
    )
}

fn db_from(lens: &[usize]) -> (SimilarityDb, Vec<Trajectory>) {
    let corpus: Vec<Trajectory> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| traj(i as u64, len))
        .collect();
    (
        SimilarityDb::with_corpus(model(), corpus.clone(), 2),
        corpus,
    )
}

// --- Pre-redesign reference pipelines (verbatim reimplementations) -----

fn old_knn(db: &SimilarityDb, query: &Trajectory, k: usize) -> Vec<Neighbor> {
    let qe = db.model().embed(query);
    db.store().knn(&qe, k)
}

fn old_knn_batch(db: &SimilarityDb, queries: &[Trajectory], k: usize) -> Vec<Vec<Neighbor>> {
    let qembs = db.model().embed_batch(queries);
    let qrefs: Vec<&[f64]> = qembs.iter().map(|e| e.as_slice()).collect();
    db.store().knn_batch(&qrefs, k)
}

fn old_knn_of(db: &SimilarityDb, idx: usize, k: usize) -> Vec<Neighbor> {
    db.store()
        .knn(db.embedding(idx), k + 1)
        .into_iter()
        .filter(|n| n.index != idx)
        .take(k)
        .collect()
}

fn old_knn_reranked_batch(
    db: &SimilarityDb,
    queries: &[Trajectory],
    measure: &dyn Measure,
    shortlist: usize,
    k: usize,
) -> Vec<Vec<Neighbor>> {
    let grid = db.model().grid();
    let shorts = old_knn_batch(db, queries, shortlist);
    shorts
        .into_iter()
        .zip(queries)
        .map(|(short, query)| {
            let q = grid.rescale_trajectory(query);
            let mut out: Vec<Neighbor> = short
                .into_iter()
                .map(|n| Neighbor {
                    index: n.index,
                    dist: measure.dist(
                        q.points(),
                        grid.rescale_trajectory(db.get(n.index).unwrap()).points(),
                    ),
                })
                .collect();
            out.sort_by(|a, b| {
                a.dist
                    .partial_cmp(&b.dist)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.index.cmp(&b.index))
            });
            out.truncate(k);
            out
        })
        .collect()
}

/// `search` with each target kind is bit-identical to the historical
/// `knn` / `knn_embedding` / `knn_of` pipelines.
#[test]
fn search_bit_identical_to_old_scalar_paths() {
    cases(10, |rng| {
        let lens = (0..rng.gen_range(8..=40))
            .map(|_| rng.gen_range(2usize..30))
            .collect::<Vec<_>>();
        let k = rng.gen_range(1usize..12);
        let probe = rng.gen_range(0usize..8);
        let (db, _corpus) = db_from(&lens);
        let q = Query::new(k);
        // Ad-hoc trajectory target == old knn.
        let ad_hoc = traj(999, 3 + probe * 2);
        assert_eq!(db.search(&ad_hoc, &q).unwrap(), old_knn(&db, &ad_hoc, k));
        // Raw embedding target == old knn_embedding.
        let emb = db.embedding(probe).to_vec();
        assert_eq!(db.search(&emb[..], &q).unwrap(), db.store().knn(&emb, k));
        // Stored target == old knn_of (self-excluded).
        assert_eq!(db.search(probe, &q).unwrap(), old_knn_of(&db, probe, k));
    });
}

/// `search_batch` (plain and re-ranked) is bit-identical to the
/// historical `knn_batch` / `knn_reranked_batch` pipelines, and the
/// re-ranked single-query `search` matches the batch's first row.
#[test]
fn search_batch_bit_identical_to_old_batch_paths() {
    cases(10, |rng| {
        let lens = (0..rng.gen_range(8..=40))
            .map(|_| rng.gen_range(2usize..30))
            .collect::<Vec<_>>();
        let qlens = (0..rng.gen_range(1..=9))
            .map(|_| rng.gen_range(2usize..30))
            .collect::<Vec<_>>();
        let k = rng.gen_range(1usize..8);
        let extra = rng.gen_range(0usize..20);
        let (db, _corpus) = db_from(&lens);
        let queries: Vec<Trajectory> = qlens
            .iter()
            .enumerate()
            .map(|(i, &len)| traj(500 + i as u64, len))
            .collect();
        let shortlist = k + extra;
        assert_eq!(
            db.search_batch(&queries, &Query::new(k)).unwrap(),
            old_knn_batch(&db, &queries, k)
        );
        let reranked = Query::new(k).shortlist(shortlist).rerank(&Hausdorff);
        let got = db.search_batch(&queries, &reranked).unwrap();
        assert_eq!(
            &got,
            &old_knn_reranked_batch(&db, &queries, &Hausdorff, shortlist, k)
        );
        assert_eq!(&db.search(&queries[0], &reranked).unwrap(), &got[0]);
    });
}

/// `.shortlist_ann(nlists)` — probing every inverted list — is
/// **bit-identical** to the exhaustive scan: the lists partition the
/// corpus, the per-candidate arithmetic is the same norm-trick
/// expression built from the same `dot`, and the bounded heap's
/// `(dist, index)` total order is insertion-order independent. Holds
/// at every corpus-embedding thread count (the embeddings themselves
/// are thread-invariant, so the index and the scan must be too), and
/// composes with exact re-ranking.
#[test]
fn ann_full_probe_bit_identical_to_exhaustive_scan() {
    cases(10, |rng| {
        let lens = (0..rng.gen_range(12..=40))
            .map(|_| rng.gen_range(2usize..30))
            .collect::<Vec<_>>();
        let qlens = (0..rng.gen_range(1..=6))
            .map(|_| rng.gen_range(2usize..30))
            .collect::<Vec<_>>();
        let k = rng.gen_range(1usize..8);
        let nlists = rng.gen_range(1usize..9);
        let queries: Vec<Trajectory> = qlens
            .iter()
            .enumerate()
            .map(|(i, &len)| traj(700 + i as u64, len))
            .collect();
        type Rankings = Vec<Vec<Neighbor>>;
        let mut per_thread: Vec<(Rankings, Rankings)> = Vec::new();
        for threads in [1usize, 2, 4] {
            let corpus: Vec<Trajectory> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| traj(i as u64, len))
                .collect();
            let mut db = SimilarityDb::with_corpus(model(), corpus, threads);
            db.build_ann_index(&AnnParams {
                nlists,
                ..Default::default()
            })
            .unwrap();
            let nl = db.ann_index().unwrap().nlists();
            let exhaustive = db.search_batch(&queries, &Query::new(k)).unwrap();
            let ann = db
                .search_batch(&queries, &Query::new(k).shortlist_ann(nl))
                .unwrap();
            assert_eq!(&exhaustive, &ann, "threads {}", threads);
            let rr = Query::new(k).shortlist(k + 5).rerank(&Hausdorff);
            let rr_ex = db.search_batch(&queries, &rr).unwrap();
            let rr_ann = db.search_batch(&queries, &rr.shortlist_ann(nl)).unwrap();
            assert_eq!(&rr_ex, &rr_ann, "reranked, threads {}", threads);
            per_thread.push((ann, rr_ann));
        }
        // Thread-count invariance of the whole ANN pipeline.
        assert_eq!(&per_thread[0], &per_thread[1]);
        assert_eq!(&per_thread[0], &per_thread[2]);
    });
}

/// `.shortlist_graph(ef)` with `ef >= n` — the beam wide enough to
/// enumerate the whole corpus — is **bit-identical** to the
/// exhaustive scan: the degenerate beam visits every row, computes
/// the same squared distance per candidate, and the `(dist, index)`
/// total order is traversal-order independent. The graph itself must
/// be byte-identical across build thread counts (the two-phase
/// round-based construction is scheduled deterministically), so the
/// whole pipeline is thread-invariant, and it composes with exact
/// re-ranking.
#[test]
fn graph_ef_max_matches_exhaustive_scan() {
    cases(10, |rng| {
        let lens = (0..rng.gen_range(12..=40))
            .map(|_| rng.gen_range(2usize..30))
            .collect::<Vec<_>>();
        let qlens = (0..rng.gen_range(1..=6))
            .map(|_| rng.gen_range(2usize..30))
            .collect::<Vec<_>>();
        let k = rng.gen_range(1usize..8);
        let queries: Vec<Trajectory> = qlens
            .iter()
            .enumerate()
            .map(|(i, &len)| traj(800 + i as u64, len))
            .collect();
        type Rankings = Vec<Vec<Neighbor>>;
        let mut per_thread: Vec<(Vec<u8>, Rankings, Rankings)> = Vec::new();
        for threads in [1usize, 2, 4] {
            let corpus: Vec<Trajectory> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| traj(i as u64, len))
                .collect();
            let n = corpus.len();
            let mut db = SimilarityDb::with_corpus(model(), corpus, threads);
            db.build_graph_index(&HnswParams::default(), threads)
                .unwrap();
            let bytes = db.graph_index().unwrap().to_bytes();
            let exhaustive = db.search_batch(&queries, &Query::new(k)).unwrap();
            let graph = db
                .search_batch(&queries, &Query::new(k).shortlist_graph(n.max(k)))
                .unwrap();
            assert_eq!(&exhaustive, &graph, "build threads {}", threads);
            let rr = Query::new(k).shortlist(k + 5).rerank(&Hausdorff);
            let rr_ex = db.search_batch(&queries, &rr).unwrap();
            let rr_graph = db
                .search_batch(&queries, &rr.shortlist_graph(n.max(k + 5)))
                .unwrap();
            assert_eq!(&rr_ex, &rr_graph, "reranked, build threads {}", threads);
            per_thread.push((bytes, graph, rr_graph));
        }
        // Deterministic construction: identical serialized graph — and
        // therefore identical answers — at every build thread count.
        assert_eq!(&per_thread[0], &per_thread[1]);
        assert_eq!(&per_thread[0], &per_thread[2]);
    });
}
