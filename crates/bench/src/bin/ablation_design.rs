//! **Design-choice ablations** (beyond the paper's Table III): the
//! reproduction-specific decisions `DESIGN.md` §2 calls out, each compared
//! under the standard protocol on Porto-like / Hausdorff:
//!
//! 1. similarity normalization — symmetric `exp(-α·D)` (our default, used
//!    by the reference implementation) vs the paper text's row-softmax;
//! 2. backbone — SAM-LSTM vs plain LSTM vs GRU;
//! 3. scan width `w = 0` (memory read collapses to the current cell) vs
//!    the paper's `w = 2`;
//! 4. loss shape — full ranking loss vs no dissimilar margin.
//!
//! ```text
//! cargo run -p neutraj-bench --release --bin ablation_design [-- --size N]
//! ```

use neutraj_bench::Cli;
use neutraj_eval::harness::DatasetKind;
use neutraj_eval::report::{fmt_metres, fmt_ratio, Table};
use neutraj_measures::MeasureKind;
use neutraj_model::{BackboneKind, Normalization, RankedBatchLoss, TrainConfig};

fn main() {
    let cli = Cli::parse(Cli {
        queries: 30,
        ..Cli::defaults()
    });
    println!(
        "Design ablations (Porto-like size={}, Hausdorff, {} queries, {} epochs)\n",
        cli.size, cli.queries, cli.epochs
    );

    let world = cli.world(DatasetKind::PortoLike);
    let gt = world.ground_truth(MeasureKind::Hausdorff, cli.queries);
    let base = cli.train_config(TrainConfig::neutraj());
    let variants = [
        ("NeuTraj (default)", base.clone()),
        (
            "normalization: row-softmax (paper text)",
            TrainConfig {
                normalization: Normalization::RowSoftmax,
                ..base.clone()
            },
        ),
        (
            "backbone: plain LSTM",
            TrainConfig {
                backbone: BackboneKind::Lstm,
                ..base.clone()
            },
        ),
        (
            "backbone: GRU",
            TrainConfig {
                backbone: BackboneKind::Gru,
                ..base.clone()
            },
        ),
        (
            "scan width w = 0",
            TrainConfig {
                scan_width: 0,
                ..base.clone()
            },
        ),
        (
            "loss: no dissimilar margin (plain MSE both sides)",
            TrainConfig {
                loss: RankedBatchLoss {
                    rank_weighted: true,
                    margin_dissimilar: false,
                },
                ..base
            },
        ),
    ];

    let mut table = Table::new(vec!["Variant", "HR@10", "HR@50", "R10@50", "dH10(m)"]);
    for (name, cfg) in variants {
        let (model, _) = world.train(gt.measure(), cfg);
        let q = world.score(&model, &gt);
        table.row(vec![
            name.to_string(),
            fmt_ratio(q.hr10),
            fmt_ratio(q.hr50),
            fmt_ratio(q.r10_at_50),
            fmt_metres(q.delta_h10),
        ]);
    }
    println!("{}", table.render());
}
