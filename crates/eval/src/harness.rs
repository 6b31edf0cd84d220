//! The shared experiment engine behind the paper's tables and figures.
//!
//! Protocol (§VII-A.2): split the corpus 20/10/70 into seeds /
//! validation / test; train on the seeds' pairwise distances; run top-k
//! similarity search over the test set with test-set queries; score
//! against exact ground truth. Queries are members of the database; the
//! query itself is removed from both ground truth and method rankings so
//! the trivial self-hit does not inflate every method equally.
//!
//! Every accuracy number goes through one path:
//! [`ExperimentWorld::ground_truth`] sets up the exact lists,
//! [`ExperimentWorld::fit`] trains, and [`ExperimentWorld::score`] (or
//! [`ExperimentWorld::score_ap`]) ranks the test db and scores it.

use crate::metrics::{evaluate_query, SearchQuality};
use neutraj_approx::ApproxKnn;
use neutraj_measures::{DistanceMatrix, GroundTruthEngine, Measure, MeasureKind, Neighbor};
use neutraj_model::{NeuTrajModel, Query, SimilarityDb, TrainConfig, TrainReport, Trainer};
use neutraj_trajectory::gen::{GeolifeLikeGenerator, PortoLikeGenerator};
use neutraj_trajectory::{par, Dataset, Grid, Split, SplitRatios, Trajectory};

/// Which synthetic corpus stands in for which real dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Human-mobility corpus standing in for Geolife (Beijing).
    GeolifeLike,
    /// Taxi-trip corpus standing in for Porto.
    PortoLike,
}

impl DatasetKind {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::GeolifeLike => "Geolife-like",
            DatasetKind::PortoLike => "Porto-like",
        }
    }
}

/// Parameters of an experiment world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Synthetic dataset family.
    pub kind: DatasetKind,
    /// Corpus size (number of trajectories).
    pub size: usize,
    /// Grid cell size in metres (paper: 50 m).
    pub cell_size_m: f64,
    /// Generation / split seed.
    pub seed: u64,
    /// Split ratios (paper: 20/10/70).
    pub ratios: SplitRatios,
}

impl WorldConfig {
    /// A small default world of `kind` for quick runs: 400 trajectories,
    /// 50 m cells, seed 2019 and the paper's split.
    pub fn small(kind: DatasetKind) -> Self {
        Self {
            kind,
            size: 400,
            cell_size_m: 50.0,
            seed: 2019,
            ratios: SplitRatios::PAPER,
        }
    }
}

/// A fully materialized experiment world: corpus, grid and split.
#[derive(Debug, Clone)]
pub struct ExperimentWorld {
    /// The configuration that produced this world.
    pub config: WorldConfig,
    /// Spatial grid covering the corpus (`cell_size_m` cells).
    pub grid: Grid,
    /// The corpus in original (metre) coordinates.
    pub corpus: Vec<Trajectory>,
    /// The corpus rescaled to grid units (distances computed here keep
    /// one unit == one cell, so α and δ are measure-independent).
    pub rescaled: Vec<Trajectory>,
    /// Train / validation / test index split.
    pub split: Split,
}

impl ExperimentWorld {
    /// Generates and preprocesses the world deterministically.
    pub fn build(config: WorldConfig) -> Self {
        let ds: Dataset = match config.kind {
            DatasetKind::GeolifeLike => GeolifeLikeGenerator {
                num_trajectories: config.size,
                ..Default::default()
            }
            .generate(config.seed),
            DatasetKind::PortoLike => PortoLikeGenerator {
                num_trajectories: config.size,
                ..Default::default()
            }
            .generate(config.seed),
        };
        let ds = ds.filter_min_len(10);
        let grid = Grid::covering(ds.trajectories(), config.cell_size_m)
            .expect("generated corpus is non-empty");
        let split = ds
            .split(config.ratios, config.seed ^ 0x5EED)
            .expect("paper ratios are valid");
        let corpus: Vec<Trajectory> = ds.trajectories().to_vec();
        let rescaled = corpus.iter().map(|t| grid.rescale_trajectory(t)).collect();
        Self {
            config,
            grid,
            corpus,
            rescaled,
            split,
        }
    }

    /// Seed trajectories (original coordinates) in split order.
    pub fn seed_trajectories(&self) -> Vec<Trajectory> {
        pick(&self.corpus, &self.split.train)
    }

    /// Seed trajectories rescaled to grid units (for the guidance matrix).
    pub fn seed_rescaled(&self) -> Vec<Trajectory> {
        pick(&self.rescaled, &self.split.train)
    }

    /// Test-set trajectories in original coordinates — the search
    /// database of §VII-B.
    pub fn test_db(&self) -> Vec<Trajectory> {
        pick(&self.corpus, &self.split.test)
    }

    /// Test-set trajectories in grid units (for exact ground truth on the
    /// same scale the model trains against).
    pub fn test_db_rescaled(&self) -> Vec<Trajectory> {
        pick(&self.rescaled, &self.split.test)
    }

    /// The first `n` test positions used as queries (positions are
    /// indices *into the test db*, not the corpus).
    pub fn query_positions(&self, n: usize) -> Vec<usize> {
        (0..n.min(self.split.test.len())).collect()
    }

    /// Exact ground truth under `kind` for the first `queries` test
    /// positions, over the test db in grid units, at
    /// [`GroundTruth::MIN_DEPTH`].
    pub fn ground_truth(&self, kind: MeasureKind, queries: usize) -> GroundTruth {
        GroundTruth::compute(
            kind,
            &self.test_db_rescaled(),
            &self.query_positions(queries),
            GroundTruth::MIN_DEPTH,
            par::threads(),
        )
    }

    /// [`Self::fit`] on this world's seed split.
    pub fn train(&self, measure: &dyn Measure, cfg: TrainConfig) -> (NeuTrajModel, TrainReport) {
        self.fit(measure, cfg, &self.seed_trajectories())
    }

    /// Trains `cfg` on `seeds` (original coordinates): their guidance
    /// matrix under `measure` on this world's grid, then the trainer at
    /// [`par::threads`]. `seeds` is usually the seed split; Fig. 6
    /// passes a prefix of it, Fig. 10 trajectories from elsewhere.
    pub fn fit(
        &self,
        measure: &dyn Measure,
        cfg: TrainConfig,
        seeds: &[Trajectory],
    ) -> (NeuTrajModel, TrainReport) {
        let rescaled: Vec<Trajectory> = seeds
            .iter()
            .map(|t| self.grid.rescale_trajectory(t))
            .collect();
        let dist = DistanceMatrix::compute_parallel(measure, &rescaled, par::threads());
        Trainer::new(cfg, self.grid.clone())
            .with_threads(par::threads())
            .fit(seeds, &dist, |_| {})
    }

    /// Ranks the test db with `model` for each of `gt`'s queries and
    /// scores the rankings, δ in metres.
    pub fn score(&self, model: &NeuTrajModel, gt: &GroundTruth) -> SearchQuality {
        let rankings = model_rankings(model, &self.test_db(), gt.queries(), par::threads());
        gt.evaluate(&rankings)
            .scale_distortions(self.grid.cell_size())
    }

    /// [`Self::score`] for the AP baseline of `gt`'s measure, built over
    /// the test db in grid units; `None` where the paper has no AP (ERP).
    pub fn score_ap(&self, gt: &GroundTruth) -> Option<SearchQuality> {
        let db = self.test_db_rescaled();
        let ap = build_ap_for_world(gt.kind(), &db, self.config.seed)?;
        let rankings: Vec<Vec<usize>> = gt
            .queries()
            .iter()
            .map(|&q| {
                strip_query(
                    ap.knn(&db[q], db.len()).iter().map(|n| n.index).collect(),
                    q,
                )
            })
            .collect();
        Some(
            gt.evaluate(&rankings)
                .scale_distortions(self.grid.cell_size()),
        )
    }
}

fn pick(from: &[Trajectory], indices: &[usize]) -> Vec<Trajectory> {
    indices.iter().map(|&i| from[i].clone()).collect()
}

/// Exact ground truth of a query workload, held as depth-limited top-k
/// lists from the pruned [`GroundTruthEngine`].
///
/// The scored metrics ([`evaluate_query`]) only ever read the top 50 of
/// the exact ranking plus the exact distances of the method's top 50, so
/// a `depth >= 50` list scores exactly like dense `N × N` rows would; the
/// few method-ranked items outside the lists are computed on demand
/// through the engine (same bits as a dense row). At depth `N − 1` the
/// lists are the dense ranking and rows themselves.
pub struct GroundTruth {
    kind: MeasureKind,
    measure: Box<dyn Measure>,
    db: Vec<Trajectory>,
    queries: Vec<usize>,
    /// Ascending exact `(index, dist)` lists per query, self excluded.
    lists: Vec<Vec<Neighbor>>,
}

impl GroundTruth {
    /// Depth floor keeping every metric of [`evaluate_query`] faithful
    /// (`HR@50`, `R10@50` and `δ_R10` read 50 ground-truth entries).
    pub const MIN_DEPTH: usize = 50;

    /// Computes top-`depth` exact neighbour lists for each query (a
    /// position in `db`) under `kind`. `depth` is clamped up to
    /// [`Self::MIN_DEPTH`].
    pub fn compute(
        kind: MeasureKind,
        db: &[Trajectory],
        queries: &[usize],
        depth: usize,
        threads: usize,
    ) -> Self {
        let measure = kind.measure();
        let depth = depth.max(Self::MIN_DEPTH);
        let lists = GroundTruthEngine::new(&*measure, db).knn_lists(queries, depth, threads);
        Self {
            kind,
            measure,
            db: db.to_vec(),
            queries: queries.to_vec(),
            lists,
        }
    }

    /// The measure the lists are exact under.
    pub fn kind(&self) -> MeasureKind {
        self.kind
    }

    /// The measure the lists are exact under, instantiated.
    pub fn measure(&self) -> &dyn Measure {
        &*self.measure
    }

    /// Query positions within the database, in evaluation order.
    pub fn queries(&self) -> &[usize] {
        &self.queries
    }

    /// The exact neighbour lists, parallel to [`Self::queries`].
    pub fn lists(&self) -> &[Vec<Neighbor>] {
        &self.lists
    }

    /// Scores a method's per-query rankings: the mean of
    /// [`Self::evaluate_each`].
    pub fn evaluate(&self, rankings: &[Vec<usize>]) -> SearchQuality {
        SearchQuality::mean(&self.evaluate_each(rankings))
    }

    /// Scores each of a method's rankings. `rankings[k]` must correspond
    /// to `queries()[k]` and must not contain the query itself (use
    /// [`strip_query`]).
    pub fn evaluate_each(&self, rankings: &[Vec<usize>]) -> Vec<SearchQuality> {
        assert_eq!(rankings.len(), self.queries.len(), "ranking count");
        let engine = GroundTruthEngine::new(&*self.measure, &self.db);
        rankings
            .iter()
            .zip(self.queries.iter().zip(&self.lists))
            .map(|(result, (&q, list))| {
                let truth: Vec<usize> = list.iter().map(|n| n.index).collect();
                // Sparse exact row: list entries first, then whatever the
                // method ranked in its top 50 that the list missed. The
                // metrics read nothing else.
                let mut exact = vec![f64::NAN; self.db.len()];
                for n in list {
                    exact[n.index] = n.dist;
                }
                let need: Vec<usize> = result[..50.min(result.len())]
                    .iter()
                    .copied()
                    .filter(|&i| exact[i].is_nan())
                    .collect();
                for (&i, d) in need.iter().zip(engine.distances(q, &need)) {
                    exact[i] = d;
                }
                evaluate_query(&truth, result, &exact)
            })
            .collect()
    }
}

/// Removes the query's own index from a ranking.
pub fn strip_query(ranking: Vec<usize>, query: usize) -> Vec<usize> {
    ranking.into_iter().filter(|&i| i != query).collect()
}

/// Per-query rankings of a trained model over `db` (grid-unit ground
/// truth is irrelevant here — the model embeds original coordinates).
/// Returns the full ranked list per query, self removed.
pub fn model_rankings(
    model: &NeuTrajModel,
    db: &[Trajectory],
    queries: &[usize],
    threads: usize,
) -> Vec<Vec<usize>> {
    let sdb = SimilarityDb::with_corpus(model.clone(), db.to_vec(), threads);
    // A stored-index target already excludes the query itself, so
    // k = N − 1 yields the full self-stripped ranking.
    let full = Query::new(db.len().saturating_sub(1));
    queries
        .iter()
        .map(|&q| {
            sdb.search(q, &full)
                .expect("stored index in range")
                .into_iter()
                .map(|n| n.index)
                .collect()
        })
        .collect()
}

/// Builds the AP baseline appropriate for `kind` over a (rescaled) db.
/// `None` for ERP, matching the paper's "—" entries.
pub fn build_ap_for_world(
    kind: MeasureKind,
    db_rescaled: &[Trajectory],
    seed: u64,
) -> Option<Box<dyn ApproxKnn>> {
    // Grid-unit coordinates (one unit = one cell). The published LSH
    // schemes hash at coarse resolutions — a δ of ~8 cells (≈ 400 m at
    // the paper's 50 m cells) reproduces both their speed and their
    // characteristic accuracy loss.
    neutraj_approx::build_ap(kind, db_rescaled, 8.0, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> ExperimentWorld {
        ExperimentWorld::build(WorldConfig {
            size: 120,
            ..WorldConfig::small(DatasetKind::PortoLike)
        })
    }

    fn indices(list: &[Neighbor]) -> Vec<usize> {
        list.iter().map(|n| n.index).collect()
    }

    #[test]
    fn world_is_deterministic_and_partitioned() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.split, b.split);
        let n = a.corpus.len();
        assert_eq!(
            a.split.train.len() + a.split.validation.len() + a.split.test.len(),
            n
        );
        assert_eq!(a.rescaled.len(), n);
        // Rescaled coordinates live in grid units.
        let e = a.grid.extent();
        for t in &a.rescaled {
            for p in t.points() {
                assert!(p.x >= 0.0 && p.x <= e.width() / a.grid.cell_size() + 1.0);
            }
        }
    }

    #[test]
    fn ground_truth_rankings_are_sorted_and_self_free() {
        let w = small_world();
        let gt = w.ground_truth(MeasureKind::Hausdorff, 5);
        let depth = GroundTruth::MIN_DEPTH.min(w.split.test.len() - 1);
        for (&q, list) in gt.queries().iter().zip(gt.lists()) {
            assert!(!indices(list).contains(&q), "self in ranking");
            assert_eq!(list.len(), depth);
            for w2 in list.windows(2) {
                assert!(w2[0].dist <= w2[1].dist);
            }
        }
        // Perfect method scores 1.0 everywhere.
        let perfect: Vec<Vec<usize>> = gt.lists().iter().map(|l| indices(l)).collect();
        let q = gt.evaluate(&perfect);
        assert_eq!(q.hr10, 1.0);
        assert_eq!(q.delta_h10, 0.0);
    }

    #[test]
    fn ground_truth_parallel_matches_sequential() {
        let w = small_world();
        let db = w.test_db_rescaled();
        let queries = w.query_positions(4);
        let seq = GroundTruth::compute(MeasureKind::Hausdorff, &db, &queries, 50, 1);
        let par = GroundTruth::compute(MeasureKind::Hausdorff, &db, &queries, 50, 4);
        assert_eq!(seq.lists(), par.lists());
    }

    #[test]
    fn knn_ground_truth_scores_exactly_like_dense() {
        let w = small_world();
        let db = w.test_db_rescaled();
        let queries = w.query_positions(6);
        for kind in MeasureKind::ALL {
            // The dense oracle: every exact distance, ranked by
            // `(dist, index)` with the query removed.
            let rows = GroundTruthEngine::new(&*kind.measure(), &db).rows(&queries, 3);
            let dense: Vec<Vec<usize>> = queries
                .iter()
                .zip(&rows)
                .map(|(&q, row)| {
                    let mut idx: Vec<usize> = (0..row.len()).filter(|&i| i != q).collect();
                    idx.sort_by(|&a, &b| {
                        row[a]
                            .partial_cmp(&row[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&b))
                    });
                    idx
                })
                .collect();
            let oracle = |rankings: &[Vec<usize>]| {
                let each: Vec<SearchQuality> = rankings
                    .iter()
                    .zip(dense.iter().zip(&rows))
                    .map(|(r, (truth, row))| evaluate_query(truth, r, row))
                    .collect();
                SearchQuality::mean(&each)
            };

            // At full depth the lists are the dense ranking and row.
            let full = GroundTruth::compute(kind, &db, &queries, db.len() - 1, 3);
            for ((list, ranking), row) in full.lists().iter().zip(&dense).zip(&rows) {
                assert_eq!(indices(list), *ranking, "{kind}: full-depth ranking");
                for n in list {
                    assert_eq!(n.dist.to_bits(), row[n.index].to_bits(), "{kind}");
                }
            }

            // Score an imperfect method: a deliberately perturbed ranking
            // (rotate the true one), so every metric is exercised away
            // from the trivial 1.0/0.0 fixed point.
            let rankings: Vec<Vec<usize>> = dense
                .iter()
                .map(|r| {
                    let mut rot = r.clone();
                    let by = 7.min(r.len().saturating_sub(1));
                    rot.rotate_left(by);
                    rot
                })
                .collect();
            let knn = GroundTruth::compute(kind, &db, &queries, GroundTruth::MIN_DEPTH, 3);
            assert_eq!(knn.queries(), &queries[..]);
            let a = oracle(&rankings);
            assert_eq!(knn.evaluate(&rankings), a, "{kind}: diverged from dense");
            assert_eq!(full.evaluate(&rankings), a, "{kind}: full depth diverged");
            // And on the perfect ranking both give the same (1.0, 0.0).
            let p = knn.evaluate(&dense);
            assert_eq!(p, oracle(&dense), "{kind}");
            assert_eq!(p.hr10, 1.0, "{kind}");
        }
    }

    #[test]
    fn trained_model_beats_random_ranking() {
        let w = small_world();
        let cfg = TrainConfig {
            dim: 16,
            epochs: 6,
            n_samples: 5,
            ..TrainConfig::neutraj()
        };
        let gt = w.ground_truth(MeasureKind::Hausdorff, 8);
        let (model, _) = w.train(gt.measure(), cfg);
        let quality = w.score(&model, &gt);
        // Random ranking expectation for HR@10 is 10/(N-1) ≈ 0.12 here.
        assert!(
            quality.hr10 > 0.25,
            "trained model no better than chance: HR@10 = {}",
            quality.hr10
        );
    }

    #[test]
    fn ap_baseline_runs_and_scores() {
        let w = small_world();
        let q = w.score_ap(&w.ground_truth(MeasureKind::Hausdorff, 5));
        assert!(
            q.expect("Hausdorff has an AP").hr10 > 0.0,
            "AP found nothing at all"
        );
        assert!(w.score_ap(&w.ground_truth(MeasureKind::Erp, 5)).is_none());
    }

    #[test]
    fn strip_query_removes_only_query() {
        assert_eq!(strip_query(vec![3, 1, 2], 1), vec![3, 2]);
        assert_eq!(strip_query(vec![3, 2], 9), vec![3, 2]);
    }
}
