//! # neutraj-model
//!
//! The paper's core contribution: **NeuTraj**, a seed-guided neural metric
//! learning model that approximates any trajectory similarity measure in
//! linear time (ICDE 2019).
//!
//! Pipeline (§III-B):
//!
//! 1. sample `N` seed trajectories from the database,
//! 2. compute their pairwise distance matrix **D** under the target
//!    measure (`neutraj-measures`),
//! 3. normalize **D** into a similarity matrix **S**
//!    ([`SimilarityMatrix`], §V-B),
//! 4. train a SAM-augmented LSTM encoder with distance-weighted sampling
//!    and the weighted ranking loss ([`Trainer`], §V),
//! 5. embed arbitrary trajectories in `O(L)` and answer similarity
//!    queries via `g(Ti,Tj) = exp(-‖E_i − E_j‖)` ([`EmbeddingStore`]).
//!
//! The crate also ships the paper's baselines as configuration presets:
//! the Siamese network ([`TrainConfig::siamese`]), and the two ablations
//! NT-No-SAM ([`TrainConfig::nt_no_sam`]) and NT-No-WS
//! ([`TrainConfig::nt_no_ws`]).
//!
//! ```
//! use neutraj_trajectory::{gen::PortoLikeGenerator, Grid};
//! use neutraj_measures::{DistanceMatrix, MeasureKind};
//! use neutraj_model::{TrainConfig, Trainer};
//!
//! // Tiny end-to-end run (a real run uses hundreds of seeds).
//! let corpus = PortoLikeGenerator { num_trajectories: 40, ..Default::default() }
//!     .generate(7);
//! let grid = Grid::covering(corpus.trajectories(), 50.0).unwrap();
//! let seeds: Vec<_> = corpus.trajectories()[..20].to_vec();
//! let rescaled: Vec<_> = seeds.iter().map(|t| grid.rescale_trajectory(t)).collect();
//! let dist = DistanceMatrix::compute(&*MeasureKind::Hausdorff.measure(), &rescaled);
//! let cfg = TrainConfig { dim: 8, epochs: 1, ..TrainConfig::neutraj() };
//! let (model, report) = Trainer::new(cfg, grid).fit(&seeds, &dist, |_| {});
//! assert_eq!(report.epoch_losses.len(), 1);
//! let e = model.embed(&corpus.trajectories()[30]);
//! assert_eq!(e.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backbone;
mod checkpoint;
mod chunks;
mod config;
mod db;
mod loss;
pub mod persist;
mod quant;
mod query;
mod sampling;
mod search;
mod similarity;
mod trainer;

pub use backbone::{
    Backbone, BackboneCache, BackboneGrads, NeuTrajModel, SamPhaseMetrics, SeqInputs,
};
pub use checkpoint::{Checkpoint, CheckpointPolicy, TrainState, CKPT_EXTENSION};
pub use config::{BackboneKind, TrainConfig};
pub use db::{rerank_exact, AnnParams, DbError, DbMetrics, ShortlistView, SimilarityDb};
pub use loss::{pair_similarity, PairLoss, RankedBatchLoss};
pub use neutraj_index::{HnswIndex, HnswParams, IvfIndex};
pub use persist::PersistError;
pub use quant::{QuantizedStore, QUANT_MAX_DIM};
pub use query::{Query, QueryOf, QuerySpec, QueryTarget};
pub use sampling::{ranked_random_samples, ranked_weighted_samples, AnchorSamples};
pub use search::{EmbeddingStore, ScanStats};
pub use similarity::{Normalization, SimilarityMatrix};
pub use trainer::{EpochStats, TrainMetrics, TrainReport, Trainer};
