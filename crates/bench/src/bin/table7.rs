//! **Table VII** — case study: top-k retrieval quality for individual
//! representative queries (one short, one long trajectory), comparing the
//! ground-truth top-3 against NeuTraj's top-3 with per-query HR and δ
//! metrics.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin table7 [-- --size N]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::{default_threads, model_rankings, DatasetKind, GroundTruth};
use neutraj_eval::report::Table;
use neutraj_measures::MeasureKind;
use neutraj_model::TrainConfig;

fn main() {
    let cli = Cli::parse(Cli {
        epochs: 12,
        ..Cli::defaults()
    });
    println!(
        "Table VII: case study under Frechet (Porto-like size={})\n",
        cli.size
    );

    let world = cli.world(DatasetKind::PortoLike);
    let db = world.test_db();

    // Pick representative queries: the shortest and the longest test
    // trajectories (the paper shows one short, one long).
    let mut by_len: Vec<usize> = (0..db.len()).collect();
    by_len.sort_by_key(|&i| db[i].len());
    let queries = vec![by_len[0], *by_len.last().expect("non-empty db")];

    // Full depth: every exact distance of both queries, in rank order
    // (dH5 reads the exact distances of NeuTraj's own top 5).
    let gt = GroundTruth::compute(
        MeasureKind::Frechet,
        &world.test_db_rescaled(),
        &queries,
        db.len() - 1,
        default_threads(),
    );
    let (model, _) = world.train(gt.measure(), cli.train_config(TrainConfig::neutraj()));
    let rankings = model_rankings(&model, &db, &queries, default_threads());
    let cell = world.grid.cell_size();

    let scored = gt
        .lists()
        .iter()
        .zip(&rankings)
        .zip(gt.evaluate_each(&rankings));
    for (&q, ((list, result), quality)) in queries.iter().zip(scored) {
        let truth: Vec<usize> = list.iter().map(|n| n.index).collect();
        let mut exact = vec![f64::NAN; db.len()];
        for n in list {
            exact[n.index] = n.dist;
        }
        let quality = quality.scale_distortions(cell);
        let avg = |ids: &[usize], k: usize| -> f64 {
            let k = k.min(ids.len());
            ids[..k].iter().map(|&i| exact[i]).sum::<f64>() / k as f64 * cell
        };
        let delta_h5 = (avg(result, 5) - avg(&truth, 5)).abs();
        println!(
            "Query T{} ({} points): HR@10 {:.2}; HR@50 {:.2}; R10@50 {:.2}; dH5 {:.0}m; dH10 {:.0}m; dR10 {:.0}m",
            db[q].id,
            db[q].len(),
            quality.hr10,
            quality.hr50,
            quality.r10_at_50,
            delta_h5,
            quality.delta_h10,
            quality.delta_r10,
        );
        let mut table = Table::new(vec![
            "Rank",
            "Ground truth",
            "NeuTraj",
            "GT rank of NeuTraj pick",
        ]);
        for r in 0..3 {
            let gt_id = truth.get(r).map(|&i| format!("T{}", db[i].id));
            let nt = result.get(r);
            let nt_id = nt.map(|&i| format!("T{}", db[i].id));
            let nt_gt_rank = nt
                .and_then(|&i| truth.iter().position(|&t| t == i))
                .map(|p| format!("{}", p + 1));
            table.row(vec![
                format!("{}", r + 1),
                gt_id.unwrap_or_default(),
                nt_id.unwrap_or_default(),
                nt_gt_rank.unwrap_or_default(),
            ]);
        }
        println!("{}", table.render());
    }
}
