//! **Table IV** — time cost of online top-50 similarity search *without*
//! an index, over growing database sizes: BruteForce vs AP vs NT-No-SAM
//! vs NeuTraj, per measure.
//!
//! Every approximate method follows the paper's protocol: retrieve top-50,
//! then re-rank those 50 by the exact distance (§VII-C.1). The learned rows
//! time `SimilarityDb::search`, the path the library and the service run;
//! AP's shortlist goes through that path's re-rank stage,
//! `GroundTruthEngine::rerank`. BruteForce is the paper's naive scan, one
//! `Measure::dist` per row. The corpus is the training world's city: the
//! rows its generator draws after the 400 the models trained on. Reported
//! value is mean seconds per query.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin table4 [-- --full]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::{build_ap_for_world, DatasetKind, ExperimentWorld, WorldConfig};
use neutraj_eval::report::{fmt_seconds, Table};
use neutraj_measures::{knn_scan, GroundTruthEngine, MeasureKind};
use neutraj_model::{NeuTrajModel, Query, SimilarityDb, TrainConfig};
use neutraj_trajectory::gen::PortoLikeGenerator;
use neutraj_trajectory::{par, Point, Trajectory};
use std::hint::black_box;
use std::time::Instant;

const K: usize = 50;
/// Rows of the training world; the search corpus starts after them.
const WORLD: usize = 400;

fn main() {
    let mut cli = Cli::parse(Cli {
        size: 2000,
        queries: 15,
        epochs: 2,
        ..Cli::defaults()
    });
    if cli.full {
        cli.size = cli.size.max(20_000);
        cli.queries = cli.queries.max(50);
    }
    let sizes: Vec<usize> = [cli.size / 4, cli.size / 2, cli.size]
        .into_iter()
        .filter(|&s| s >= 100)
        .collect();
    println!(
        "Table IV: online search time without index (sizes {:?}, {} queries each)\n",
        sizes, cli.queries
    );

    // Train the two learned methods once on a small training world; query
    // timing is independent of model quality.
    let train_world = ExperimentWorld::build(WorldConfig {
        size: WORLD,
        seed: cli.seed,
        ..WorldConfig::small(DatasetKind::PortoLike)
    });

    // The search corpus continues the training world's generator stream:
    // the same seed draws the same hubs and route templates, so the rows
    // after the first `WORLD` are more of the city the models trained on,
    // and none of them is a training row. Rescaled to the world's grid
    // for the measures that score it directly.
    let city = PortoLikeGenerator {
        num_trajectories: WORLD + *sizes.last().expect("non-empty sizes"),
        ..Default::default()
    }
    .generate(cli.seed);
    let db_all: Vec<Trajectory> = city.trajectories()[WORLD..].to_vec();
    let db_all_rescaled: Vec<Trajectory> = db_all
        .iter()
        .map(|t| train_world.grid.rescale_trajectory(t))
        .collect();

    for measure_kind in MeasureKind::ALL {
        println!("[{measure_kind}]");
        let measure = measure_kind.measure();
        let engine = GroundTruthEngine::new(&*measure, &[]);
        let search = Query::new(K).shortlist(K).rerank(&*measure);
        let neutraj = train_once(
            &train_world,
            measure_kind,
            cli.train_config(TrainConfig::neutraj()),
        );
        let no_sam = train_once(
            &train_world,
            measure_kind,
            cli.train_config(TrainConfig::nt_no_sam()),
        );

        let mut header = vec!["Method".to_string()];
        header.extend(sizes.iter().map(|s| format!("{s}")));
        let mut table = Table::new(header);

        let mut brute_row = vec!["BruteForce".to_string()];
        let mut ap_row = vec!["AP".to_string()];
        let mut nosam_row = vec!["NT-No-SAM".to_string()];
        let mut neutraj_row = vec!["NeuTraj".to_string()];

        for &size in &sizes {
            let db = &db_all_rescaled[..size];
            let queries = &db[..cli.queries.min(size)];

            // BruteForce: the naive exact scan.
            let t0 = Instant::now();
            for q in queries {
                black_box(knn_scan(&*measure, q, db.iter().enumerate(), K));
            }
            brute_row.push(fmt_seconds(
                t0.elapsed().as_secs_f64() / queries.len() as f64,
            ));

            // AP: preprocess offline, query online (+ exact re-rank of 50).
            match build_ap_for_world(measure_kind, db, cli.seed) {
                Some(ap) => {
                    let t0 = Instant::now();
                    for q in queries {
                        let short = ap.knn(q, K);
                        let rows: Vec<(usize, &[Point])> = short
                            .iter()
                            .map(|n| (n.index, db[n.index].points()))
                            .collect();
                        black_box(engine.rerank(q.points(), &rows, K));
                    }
                    ap_row.push(fmt_seconds(
                        t0.elapsed().as_secs_f64() / queries.len() as f64,
                    ));
                }
                None => ap_row.push("-".to_string()),
            }

            // Learned methods: embed the corpus offline, then time the
            // served search — embed the query, scan, re-rank the 50. The
            // database holds original coordinates (the model normalizes
            // through its grid, and the re-rank rescales with it).
            let db_orig = &db_all[..size];
            for (model, row) in [(&no_sam, &mut nosam_row), (&neutraj, &mut neutraj_row)] {
                let sdb =
                    SimilarityDb::with_corpus(model.clone(), db_orig.to_vec(), par::threads());
                let t0 = Instant::now();
                for q in &db_orig[..queries.len()] {
                    black_box(sdb.search(q, &search).expect("a generated query is valid"));
                }
                row.push(fmt_seconds(
                    t0.elapsed().as_secs_f64() / queries.len() as f64,
                ));
            }
        }
        table.row(brute_row);
        table.row(ap_row);
        table.row(nosam_row);
        table.row(neutraj_row);
        println!("{}", table.render());
    }
}

fn train_once(world: &ExperimentWorld, kind: MeasureKind, cfg: TrainConfig) -> NeuTrajModel {
    let measure = kind.measure();
    world.train(&*measure, cfg).0
}
