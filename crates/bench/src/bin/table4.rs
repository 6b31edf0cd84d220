//! **Table IV** — time cost of online top-50 similarity search *without*
//! an index, over growing database sizes: BruteForce vs AP vs NT-No-SAM
//! vs NeuTraj, per measure.
//!
//! Every approximate method follows the paper's protocol: retrieve top-50,
//! then re-rank those 50 by the exact distance (§VII-C.1). Reported value
//! is mean seconds per query.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin table4 [-- --full]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::{build_ap_for_world, DatasetKind, ExperimentWorld, WorldConfig};
use neutraj_eval::report::{fmt_seconds, Table};
use neutraj_measures::{knn_scan, MeasureKind};
use neutraj_model::{EmbeddingStore, NeuTrajModel, TrainConfig};
use neutraj_trajectory::gen::PortoLikeGenerator;
use neutraj_trajectory::{par, Trajectory};
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
        size: 400,
        seed: cli.seed,
        ..WorldConfig::small(DatasetKind::PortoLike)
    });

    // The large search corpus, rescaled to the training world's grid so
    // the learned models see coordinates on the scale they trained at.
    let big = PortoLikeGenerator {
        num_trajectories: *sizes.last().expect("non-empty sizes"),
        ..Default::default()
    }
    .generate(cli.seed ^ 0xB16);
    let db_all: Vec<Trajectory> = big.trajectories().to_vec();
    let db_all_rescaled: Vec<Trajectory> = db_all
        .iter()
        .map(|t| train_world.grid.rescale_trajectory(t))
        .collect();

    for measure_kind in MeasureKind::ALL {
        println!("[{measure_kind}]");
        let measure = measure_kind.measure();
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
            let queries: Vec<&Trajectory> = db.iter().take(cli.queries).collect();

            // BruteForce: exact scan.
            let t0 = Instant::now();
            for q in &queries {
                let _ = knn_scan(&*measure, q, db, K);
            }
            brute_row.push(fmt_seconds(
                t0.elapsed().as_secs_f64() / queries.len() as f64,
            ));

            // AP: preprocess offline, query online (+ exact re-rank of 50).
            match build_ap_for_world(measure_kind, db, cli.seed) {
                Some(ap) => {
                    let t0 = Instant::now();
                    for q in &queries {
                        let short = ap.knn(q, K);
                        rerank(&*measure, q, db, &short);
                    }
                    ap_row.push(fmt_seconds(
                        t0.elapsed().as_secs_f64() / queries.len() as f64,
                    ));
                }
                None => ap_row.push("-".to_string()),
            }

            // Learned methods: embed db offline, time embed-query + scan +
            // exact re-rank of 50. The db is in original coordinates for
            // the model (it normalizes internally via the grid).
            let db_orig = &db_all[..size];
            for (model, row) in [(&no_sam, &mut nosam_row), (&neutraj, &mut neutraj_row)] {
                let store = EmbeddingStore::build(model, db_orig, par::threads());
                let t0 = Instant::now();
                for (qi, _q) in queries.iter().enumerate() {
                    let q_emb = model.embed(&db_orig[qi]);
                    let short = store.knn(&q_emb, K);
                    rerank(&*measure, &db[qi], db, &short);
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

fn rerank(
    measure: &dyn neutraj_measures::Measure,
    q: &Trajectory,
    db: &[Trajectory],
    short: &[neutraj_measures::Neighbor],
) {
    let mut exact: Vec<(usize, f64)> = short
        .iter()
        .map(|n| (n.index, measure.dist(q.points(), db[n.index].points())))
        .collect();
    exact.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    std::hint::black_box(exact);
}
