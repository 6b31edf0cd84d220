//! **Table V** — online search *with* spatial indexes (bounding-box
//! R-tree and grid-based inverted index), under the Fréchet distance:
//! BruteForce vs AP vs NeuTraj ranking of the pruned candidate set, plus
//! the number of involved trajectories.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin table5 [-- --full]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::{build_ap_for_world, DatasetKind, ExperimentWorld, WorldConfig};
use neutraj_eval::report::{fmt_seconds, Table};
use neutraj_index::{GridInvertedIndex, RTree, SpatialIndex};
use neutraj_measures::{knn_query, partial_sort_neighbors, MeasureKind, Neighbor};
use neutraj_model::{EmbeddingStore, TrainConfig};
use neutraj_nn::linalg::euclidean_sq;
use neutraj_trajectory::gen::PortoLikeGenerator;
use neutraj_trajectory::{Grid, Trajectory};
use std::time::Instant;

const K: usize = 50;

fn main() {
    let mut cli = Cli::parse(Cli {
        size: 2000,
        queries: 15,
        epochs: 2,
        ..Cli::defaults()
    });
    if cli.full {
        cli.size = cli.size.max(20_000);
        cli.queries = cli.queries.max(200);
    }
    let sizes: Vec<usize> = [cli.size / 4, cli.size / 2, cli.size]
        .into_iter()
        .filter(|&s| s >= 100)
        .collect();
    println!(
        "Table V: online search time with index (Frechet; sizes {:?}, {} queries)\n",
        sizes, cli.queries
    );

    let kind = MeasureKind::Frechet;
    let measure = kind.measure();

    let train_world = ExperimentWorld::build(WorldConfig {
        size: 400,
        seed: cli.seed,
        ..WorldConfig::small(DatasetKind::PortoLike)
    });
    let (model, _) = train_world.train(&*measure, cli.train_config(TrainConfig::neutraj()));

    let big = PortoLikeGenerator {
        num_trajectories: *sizes.last().expect("non-empty"),
        ..Default::default()
    }
    .generate(cli.seed ^ 0xB16);
    let db_all: Vec<Trajectory> = big.trajectories().to_vec();
    let db_all_rescaled: Vec<Trajectory> = db_all
        .iter()
        .map(|t| train_world.grid.rescale_trajectory(t))
        .collect();

    // Pruning radius: a fixed fraction of the extent diagonal — large
    // enough that true top-50 neighbours survive (the paper's candidate
    // counts are ~2/3 of the corpus).
    for index_name in ["Bounding Box R-tree Index", "Grid-based Inverted Index"] {
        println!("== {index_name} ==");
        let mut header = vec!["Method".to_string()];
        header.extend(sizes.iter().map(|s| format!("{s}")));
        let mut table = Table::new(header);
        let mut brute_row = vec!["BruteForce".to_string()];
        let mut ap_row = vec!["AP".to_string()];
        let mut neutraj_row = vec!["NeuTraj".to_string()];
        let mut involved_row = vec!["# involved".to_string()];

        for &size in &sizes {
            let db = &db_all_rescaled[..size];
            let db_orig = &db_all[..size];
            let radius = pruning_radius(db);
            let index: Box<dyn SpatialIndex> = match index_name {
                "Bounding Box R-tree Index" => Box::new(RTree::build(db)),
                _ => {
                    let grid = Grid::covering(db, 2.0).expect("non-empty db");
                    Box::new(GridInvertedIndex::build(grid, db))
                }
            };
            let ap = build_ap_for_world(kind, db, cli.seed).expect("Frechet AP exists");
            let store = EmbeddingStore::build(&model, db_orig, num_threads());

            let queries: Vec<usize> = (0..cli.queries.min(size)).collect();
            let mut involved_total = 0usize;

            // Candidate generation happens once per query and is charged
            // to every method equally (outside the per-method timers the
            // paper also charges index lookup to every row — we include it).
            let candidate_sets: Vec<Vec<usize>> = queries
                .iter()
                .map(|&q| index.candidates(&db[q], radius))
                .collect();
            for c in &candidate_sets {
                involved_total += c.len();
            }

            // BruteForce over candidates.
            let t0 = Instant::now();
            for (qi, &q) in queries.iter().enumerate() {
                let _ = knn_query(&*measure, &db[q], db, &candidate_sets[qi], K);
            }
            brute_row.push(fmt_seconds(
                t0.elapsed().as_secs_f64() / queries.len() as f64,
            ));

            // AP over candidates (+ exact re-rank of the 50).
            let t0 = Instant::now();
            for (qi, &q) in queries.iter().enumerate() {
                let short = ap.knn_candidates(&db[q], &candidate_sets[qi], K);
                let _ = knn_query(
                    &*measure,
                    &db[q],
                    db,
                    &short.iter().map(|n| n.index).collect::<Vec<_>>(),
                    K,
                );
            }
            ap_row.push(fmt_seconds(
                t0.elapsed().as_secs_f64() / queries.len() as f64,
            ));

            // NeuTraj over candidates (+ exact re-rank of the 50).
            let t0 = Instant::now();
            for (qi, &q) in queries.iter().enumerate() {
                let q_emb = model.embed(&db_orig[q]);
                let short = nearest_candidates(&store, &q_emb, &candidate_sets[qi]);
                let _ = knn_query(
                    &*measure,
                    &db[q],
                    db,
                    &short.iter().map(|n| n.index).collect::<Vec<_>>(),
                    K,
                );
            }
            neutraj_row.push(fmt_seconds(
                t0.elapsed().as_secs_f64() / queries.len() as f64,
            ));
            involved_row.push(format!("{}", involved_total / queries.len()));
        }
        table.row(brute_row);
        table.row(ap_row);
        table.row(neutraj_row);
        table.row(involved_row);
        println!("{}", table.render());
    }
}

/// The `K` of `candidates` (row indices of `store`) nearest to `q_emb`
/// by embedding distance — NeuTraj's ranking of an index's survivors.
fn nearest_candidates(
    store: &EmbeddingStore,
    q_emb: &[f64],
    candidates: &[usize],
) -> Vec<Neighbor> {
    let mut out: Vec<Neighbor> = candidates
        .iter()
        .map(|&index| Neighbor {
            index,
            dist: euclidean_sq(q_emb, store.get(index)),
        })
        .collect();
    partial_sort_neighbors(&mut out, K);
    out
}

/// A pruning radius that keeps roughly two thirds of the corpus as
/// candidates (matching the paper's involved-trajectory counts, e.g.
/// 675 of 1000): an eighth of the corpus-extent diagonal. Trajectory
/// MBRs in a city corpus are large relative to the extent, so even this
/// tight radius leaves most route-overlapping trajectories in play.
fn pruning_radius(db: &[Trajectory]) -> f64 {
    let extent = db
        .iter()
        .fold(neutraj_trajectory::BoundingBox::EMPTY, |bb, t| {
            bb.union(&t.mbr())
        });
    (extent.width().powi(2) + extent.height().powi(2)).sqrt() / 8.0
}

fn num_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}
