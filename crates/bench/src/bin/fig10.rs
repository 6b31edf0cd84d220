//! **Figure 10** — zero-shot learning: train NeuTraj on *synthetic*
//! road-network random-walk seeds (no real trajectories at all) and test
//! on the real(-like) Geolife corpus; compare against the "Best" model
//! trained on real seeds. Reports HR@10 and R10@50 on all four measures.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin fig10 [-- --size N]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::DatasetKind;
use neutraj_eval::report::{fmt_ratio, Table};
use neutraj_measures::MeasureKind;
use neutraj_model::TrainConfig;
use neutraj_trajectory::gen::{RoadNetwork, RoadWalkGenerator};
use neutraj_trajectory::Trajectory;

fn main() {
    let cli = Cli::parse(Cli {
        queries: 30,
        ..Cli::defaults()
    });
    // Synthetic seed count: the paper uses 6,000; scale with corpus size.
    let n_walks = if cli.full { 2000 } else { 300 };
    println!(
        "Fig 10: zero-shot learning (Geolife-like size={}, {} synthetic road-walk seeds)\n",
        cli.size, n_walks
    );

    let world = cli.world(DatasetKind::GeolifeLike);

    // Synthetic seeds: random walks on a synthetic road network covering
    // the same city extent as the real corpus.
    let extent = world.grid.extent();
    let blocks = 250.0;
    let nx = (extent.width() / blocks).ceil() as usize + 1;
    let ny = (extent.height() / blocks).ceil() as usize + 1;
    let net = RoadNetwork::synthetic_grid_city(nx.max(4), ny.max(4), blocks, cli.seed ^ 0xF16);
    let walks = RoadWalkGenerator {
        num_trajectories: n_walks,
        ..Default::default()
    }
    .generate(&net, cli.seed ^ 0x10);
    // Shift the road network onto the corpus extent (walks start at the
    // origin corner of the synthetic grid).
    let dx = extent.min_x;
    let dy = extent.min_y;
    let synth_seeds: Vec<Trajectory> = walks
        .trajectories()
        .iter()
        .map(|t| t.map_points(|p| neutraj_trajectory::Point::new(p.x + dx, p.y + dy)))
        .collect();

    let mut hr_table = Table::new(vec![
        "Measure",
        "Best HR@10",
        "Zero HR@10",
        "Best R10@50",
        "Zero R10@50",
    ]);
    let cfg = cli.train_config(TrainConfig::neutraj());
    for kind in MeasureKind::ALL {
        let gt = world.ground_truth(kind, cli.queries);
        // Best: trained on real seeds. Zero: on the synthetic walks.
        let (best, _) = world.train(gt.measure(), cfg.clone());
        let (zero, _) = world.fit(gt.measure(), cfg.clone(), &synth_seeds);
        let (best, zero) = (world.score(&best, &gt), world.score(&zero, &gt));
        hr_table.row(vec![
            kind.name().to_string(),
            fmt_ratio(best.hr10),
            fmt_ratio(zero.hr10),
            fmt_ratio(best.r10_at_50),
            fmt_ratio(zero.r10_at_50),
        ]);
    }
    println!("{}", hr_table.render());
}
