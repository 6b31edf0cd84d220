//! **Figure 9** — trajectory clustering: DBSCAN (min_pts = 10) under the
//! Fréchet distance on the Porto-like corpus, comparing the clustering
//! from exact distances against the clustering from embedding distances
//! over an ε sweep — cluster counts plus Homogeneity / Completeness /
//! V-measure / ARI.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin fig9 [-- --size N]
//! ```

use neutraj_bench::Cli;
use neutraj_cluster::{compare_clusterings, num_clusters, DbscanParams};
use neutraj_eval::harness::DatasetKind;
use neutraj_eval::report::{fmt_ratio, Table};
use neutraj_measures::{DistanceMatrix, MeasureKind};
use neutraj_model::{EmbeddingStore, TrainConfig};
use neutraj_nn::linalg::euclidean;
use neutraj_trajectory::par;

fn main() {
    let cli = Cli::parse(Cli::defaults());
    println!(
        "Fig 9: DBSCAN clustering agreement, exact vs embedding distances (Frechet, Porto-like size={})\n",
        cli.size
    );

    let world = cli.world(DatasetKind::PortoLike);
    let measure = MeasureKind::Frechet.measure();
    let (model, _) = world.train(&*measure, cli.train_config(TrainConfig::neutraj()));

    // Cluster the test set: exact pairwise distances as ground truth.
    let db = world.test_db();
    let db_rescaled = world.test_db_rescaled();
    let exact = DistanceMatrix::compute_parallel(&*measure, &db_rescaled, par::threads());

    // Embedding distances, rescaled so both matrices share a distance
    // scale (match the mean so one ε sweep serves both).
    let store = EmbeddingStore::build(&model, &db, par::threads());
    let n = db.len();
    let mut emb = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            emb[i * n + j] = euclidean(store.get(i), store.get(j));
        }
    }
    let emb = DistanceMatrix::from_raw(n, emb);
    // One upper-triangle pass per matrix (the mean is reused for the ε
    // sweep below).
    let exact_stats = exact.finite_stats();
    let scale = exact_stats.mean / emb.finite_stats().mean.max(1e-12);
    let emb = DistanceMatrix::from_raw(
        n,
        (0..n * n).map(|i| emb.row(i / n)[i % n] * scale).collect(),
    );

    // ε sweep over quantiles of the exact distance distribution.
    let mean = exact_stats.mean;
    let mut table = Table::new(vec![
        "eps",
        "#clusters(GT)",
        "#clusters(Emb)",
        "Homog",
        "Compl",
        "V-meas",
        "ARI",
    ]);
    for frac in [0.05, 0.1, 0.15, 0.2, 0.3, 0.4] {
        let eps = mean * frac;
        let params = DbscanParams { eps, min_pts: 10 };
        let (truth_labels, emb_labels, agree) = compare_clusterings(&exact, &emb, params);
        table.row(vec![
            format!("{eps:.2}"),
            format!("{}", num_clusters(&truth_labels)),
            format!("{}", num_clusters(&emb_labels)),
            fmt_ratio(agree.homogeneity),
            fmt_ratio(agree.completeness),
            fmt_ratio(agree.v_measure),
            fmt_ratio(agree.ari),
        ]);
    }
    println!("{}", table.render());
    println!("(eps in grid-cell units; min_pts = 10 as in the paper)");
}
