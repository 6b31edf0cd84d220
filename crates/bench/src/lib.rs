//! Shared plumbing for the per-table/figure experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index). They share:
//!
//! * [`Cli`] — a tiny flag parser (`--size`, `--epochs`, `--dim`,
//!   `--queries`, `--seed`, `--full`, `--ann`, `--graph`) so runs scale
//!   from smoke-test to paper-scale without recompiling;
//! * [`accuracy_tables`] — the per-measure table loop of Tables II/III
//!   over a list of [`MethodSpec`]s.
//!
//! Default sizes are CPU-sized (minutes, not hours); `--full` selects the
//! larger configurations recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use neutraj_eval::harness::{DatasetKind, ExperimentWorld, WorldConfig};
use neutraj_eval::report::{fmt_metres, fmt_ratio, Table};
use neutraj_measures::MeasureKind;
use neutraj_model::TrainConfig;

/// Minimal command-line configuration shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Corpus size.
    pub size: usize,
    /// Number of evaluation queries.
    pub queries: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Master seed.
    pub seed: u64,
    /// Run the larger "paper-scale" configuration.
    pub full: bool,
    /// Exercise the ANN (IVF shortlist) serving path where supported.
    pub ann: bool,
    /// Exercise the HNSW graph shortlist path where supported
    /// (`bench_query`).
    pub graph: bool,
    /// Run the overload leg (bounded admission + shedding) where
    /// supported (`bench_serving`).
    pub overload: bool,
}

impl Cli {
    /// The baseline configuration every experiment binary starts from
    /// (the historical per-bin literals repeated these seven fields with
    /// only one or two differing). Binaries override what they need with
    /// struct-update syntax:
    ///
    /// ```
    /// # use neutraj_bench::Cli;
    /// let cli = Cli { epochs: 20, ..Cli::defaults() };
    /// assert_eq!((cli.size, cli.epochs, cli.seed), (400, 20, 2019));
    /// ```
    pub fn defaults() -> Cli {
        Cli {
            size: 400,
            queries: 0,
            epochs: 10,
            dim: 32,
            seed: 2019,
            full: false,
            ann: false,
            graph: false,
            overload: false,
        }
    }

    /// Parses flags from `std::env::args`, starting from defaults.
    ///
    /// Unknown flags abort with a usage message (better than silently
    /// ignoring a typo in an experiment run).
    pub fn parse(defaults: Cli) -> Cli {
        Self::parse_from(defaults, std::env::args().skip(1))
    }

    /// Testable core of [`Cli::parse`].
    pub fn parse_from(mut cli: Cli, args: impl Iterator<Item = String>) -> Cli {
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut take_usize = |name: &str| -> usize {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("flag {name} needs a positive integer"))
            };
            match flag.as_str() {
                "--size" => cli.size = take_usize("--size"),
                "--queries" => cli.queries = take_usize("--queries"),
                "--epochs" => cli.epochs = take_usize("--epochs"),
                "--dim" => cli.dim = take_usize("--dim"),
                "--seed" => cli.seed = take_usize("--seed") as u64,
                "--full" => cli.full = true,
                "--ann" => cli.ann = true,
                "--graph" => cli.graph = true,
                "--overload" => cli.overload = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --size N --queries N --epochs N --dim N --seed N --full --ann \
                         --graph --overload"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag: {other} (try --help)"),
            }
        }
        cli
    }

    /// Applies `--full` scaling used by the accuracy binaries.
    pub fn scaled_for_full(mut self) -> Cli {
        if self.full {
            self.size = self.size.max(2000);
            self.queries = self.queries.max(100);
            self.epochs = self.epochs.max(15);
            self.dim = self.dim.max(64);
        }
        self
    }

    /// The experiment world of `kind` at this CLI's size and seed.
    pub fn world(&self, kind: DatasetKind) -> ExperimentWorld {
        ExperimentWorld::build(WorldConfig {
            size: self.size,
            seed: self.seed,
            ..WorldConfig::small(kind)
        })
    }

    /// The training configuration for a method preset under this CLI.
    pub fn train_config(&self, preset: TrainConfig) -> TrainConfig {
        TrainConfig {
            dim: self.dim,
            epochs: self.epochs,
            seed: self.seed,
            ..preset
        }
    }
}

/// Which competitor a row runs.
pub enum MethodSpec {
    /// The AP approximate-algorithm baseline.
    Ap,
    /// A learned method with the given preset.
    Learned(TrainConfig),
}

/// The per-measure loop of Tables II and III: for each paper measure,
/// scores every method against the exact ground truth of `queries` test
/// queries (δ in metres) and prints one table, with `-` where a method
/// does not exist (the paper has no AP under ERP).
pub fn accuracy_tables(world: &ExperimentWorld, queries: usize, methods: &[MethodSpec]) {
    for kind in MeasureKind::ALL {
        let gt = world.ground_truth(kind, queries);
        let mut table = Table::new(vec![
            "Method", "HR@10", "HR@50", "R10@50", "dH10(m)", "dR10(m)",
        ]);
        for spec in methods {
            let (name, quality) = match spec {
                MethodSpec::Ap => ("AP", world.score_ap(&gt)),
                MethodSpec::Learned(cfg) => {
                    let (model, _) = world.train(gt.measure(), cfg.clone());
                    (cfg.method_name(), Some(world.score(&model, &gt)))
                }
            };
            let cells = match quality {
                Some(q) => vec![
                    fmt_ratio(q.hr10),
                    fmt_ratio(q.hr50),
                    fmt_ratio(q.r10_at_50),
                    fmt_metres(q.delta_h10),
                    fmt_metres(q.delta_r10),
                ],
                None => vec!["-".to_string(); 5],
            };
            table.row([vec![name.to_string()], cells].concat());
        }
        println!("[{kind}]");
        println!("{}", table.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy_cli() -> Cli {
        Cli {
            queries: 40,
            ..Cli::defaults()
        }
    }

    #[test]
    fn cli_parses_flags() {
        let d = accuracy_cli();
        let got = Cli::parse_from(
            d.clone(),
            ["--size", "99", "--dim", "8", "--full", "--ann", "--graph"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(got.size, 99);
        assert_eq!(got.dim, 8);
        assert!(got.full);
        assert!(got.ann);
        assert!(got.graph);
        assert_eq!(got.queries, d.queries);
        assert!(!d.ann, "defaults leave the ANN path off");
        assert!(!d.graph, "defaults leave the graph path off");
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn cli_rejects_typos() {
        let _ = Cli::parse_from(
            accuracy_cli(),
            ["--sise", "99"].iter().map(|s| s.to_string()),
        );
    }

    #[test]
    fn full_scaling_monotone() {
        let mut cli = accuracy_cli();
        cli.full = true;
        let scaled = cli.clone().scaled_for_full();
        assert!(scaled.size >= cli.size);
        assert!(scaled.epochs >= cli.epochs);
        // Without --full nothing changes.
        let mut small = accuracy_cli();
        small.full = false;
        assert_eq!(small.clone().scaled_for_full(), small);
    }

    #[test]
    fn train_config_inherits_cli() {
        let cli = Cli {
            dim: 12,
            epochs: 3,
            seed: 7,
            ..accuracy_cli()
        };
        let cfg = cli.train_config(TrainConfig::nt_no_sam());
        assert_eq!(cfg.dim, 12);
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.method_name(), "NT-No-SAM");
    }
}
