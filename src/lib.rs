//! # NeuTraj-RS
//!
//! A production-quality Rust reproduction of *"Computing Trajectory
//! Similarity in Linear Time: A Generic Seed-Guided Neural Metric Learning
//! Approach"* (Yao, Cong, Zhang & Bi — ICDE 2019).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | contents |
//! |---|---|
//! | [`trajectory`] | points, grids, datasets, synthetic workload generators, I/O |
//! | [`measures`] | exact DTW / Fréchet / Hausdorff / ERP (+ SSPD), distance matrices, brute-force search |
//! | [`approx`] | the hand-crafted "AP" baselines: curve LSH (Fréchet, DTW), a landmark embedding (Hausdorff) |
//! | [`nn`] | from-scratch LSTM / GRU / SAM-augmented LSTM with manual BPTT and Adam |
//! | [`model`] | **NeuTraj itself**: seed-guided training, embedding, linear-time search, Siamese baseline, ablations |
//! | [`index`] | STR R-tree and grid inverted index for search-space pruning |
//! | [`obs`] | metrics substrate: atomic counters/gauges, latency histograms, RAII span timers, JSON/Prometheus snapshots |
//! | [`cluster`] | DBSCAN + clustering-agreement metrics |
//! | [`eval`] | HR@k / R10@50 / distortion metrics and the experiment harness |
//! | [`serve`] | async similarity service: snapshot rotation, sharded scans, adaptive micro-batching |
//!
//! ## Quickstart
//!
//! ```
//! use neutraj::prelude::*;
//!
//! // 1. A corpus (here: synthetic taxi trips standing in for Porto).
//! let corpus = PortoLikeGenerator { num_trajectories: 60, ..Default::default() }
//!     .generate(42);
//!
//! // 2. Grid + seeds + exact seed distances under the target measure.
//! let grid = Grid::covering(corpus.trajectories(), 50.0).unwrap();
//! let seeds: Vec<Trajectory> = corpus.trajectories()[..30].to_vec();
//! let rescaled: Vec<Trajectory> =
//!     seeds.iter().map(|t| grid.rescale_trajectory(t)).collect();
//! let dist = DistanceMatrix::compute(&Hausdorff, &rescaled);
//!
//! // 3. Train NeuTraj (tiny config for the doctest).
//! let cfg = TrainConfig { dim: 8, epochs: 2, ..TrainConfig::neutraj() };
//! let (model, _report) = Trainer::new(cfg, grid).fit(&seeds, &dist, |_| {});
//!
//! // 4. Linear-time similarity for any pair.
//! let g = model.similarity(&corpus.trajectories()[40], &corpus.trajectories()[41]);
//! assert!(g > 0.0 && g <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use neutraj_approx as approx;
pub use neutraj_cluster as cluster;
pub use neutraj_eval as eval;
pub use neutraj_index as index;
pub use neutraj_measures as measures;
pub use neutraj_model as model;
pub use neutraj_nn as nn;
pub use neutraj_obs as obs;
pub use neutraj_serve as serve;
pub use neutraj_trajectory as trajectory;

/// One-stop imports for typical use.
pub mod prelude {
    pub use neutraj_cluster::{dbscan, ClusterAgreement, DbscanParams};
    pub use neutraj_index::{GridInvertedIndex, RTree, SpatialIndex};
    pub use neutraj_measures::{
        DiscreteFrechet, DistanceMatrix, Dtw, Erp, Hausdorff, Measure, MeasureKind,
    };
    pub use neutraj_model::{
        Checkpoint, CheckpointPolicy, EmbeddingStore, NeuTrajModel, Query, QueryTarget,
        SimilarityDb, TrainConfig, TrainReport, Trainer,
    };
    pub use neutraj_obs::{MetricsReport, Registry};
    pub use neutraj_serve::{
        QuerySpec, ServeError, ServeRequest, ServeResponse, ServiceConfig, SimilarityService,
        Snapshot,
    };
    pub use neutraj_trajectory::gen::{
        GeolifeLikeGenerator, PortoLikeGenerator, RoadNetwork, RoadWalkGenerator,
    };
    pub use neutraj_trajectory::{BoundingBox, Dataset, Grid, Point, SplitRatios, Trajectory};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let ds = PortoLikeGenerator {
            num_trajectories: 12,
            ..Default::default()
        }
        .generate(1);
        let grid = Grid::covering(ds.trajectories(), 50.0).unwrap();
        assert!(grid.num_cells() > 0);
        let d = DistanceMatrix::compute(&Hausdorff, ds.trajectories());
        assert_eq!(d.n(), 12);
    }
}
