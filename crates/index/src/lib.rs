//! # neutraj-index
//!
//! Spatial indexes that prune the trajectory search space before (exact or
//! learned) similarity ranking — the paper's *elastic* claim: "NEUTRAJ is
//! able to cooperate with existing indexing methods for reducing the
//! computing space" (§I), evaluated in Table V with two index structures:
//!
//! * [`RTree`] — a bounding-box R-tree over trajectory MBRs, bulk-loaded
//!   with the Sort-Tile-Recursive (STR) algorithm;
//! * [`GridInvertedIndex`] — a grid-cell → trajectory inverted index.
//!
//! A third, finer-grained structure serves the exact ground-truth engine
//! in `neutraj-measures` rather than Table V:
//!
//! * [`PointGrid`] — a per-trajectory point-bucket grid answering exact
//!   nearest-point queries by ring expansion (the inner `min` of the
//!   directed Hausdorff distance).
//!
//! A fourth operates on the *learned embedding* space rather than raw
//! trajectories — the serving-side ANN shortlist:
//!
//! * [`IvfIndex`] — an inverted-file index whose coarse quantizer (a
//!   [`CoarseQuantizer`], in practice the k-means of `neutraj-cluster`)
//!   buckets embedding rows into Voronoi cells; probing the `nprobe`
//!   nearest cells yields a sub-linear candidate shortlist for exact
//!   reranking.
//! * [`HnswIndex`] — a deterministic hierarchical navigable-small-world
//!   graph over embedding row ids behind the same shortlist seam:
//!   `ef`-bounded beam search yields a near-logarithmic candidate
//!   shortlist whose recall holds as `N` grows past where IVF's probe
//!   cost climbs.
//!
//! Both answer the same question: *which trajectories could possibly be
//! within distance `r` of this query?* The guarantee they provide is for
//! measures lower-bounded by MBR separation (Hausdorff and Fréchet are:
//! every point of one trajectory must be matched, so
//! `d(T_i, T_j) ≥ min_dist(mbr_i, mbr_j)`). The candidate set is then
//! ranked by brute force, an approximate algorithm, or NeuTraj embeddings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hnsw;
mod inverted;
mod ivf;
mod pointgrid;
mod rtree;

pub use hnsw::{
    GraphScratch, GraphSearchStats, HnswCodecError, HnswIndex, HnswParams, RowDistance, HNSW_MAGIC,
};
pub use inverted::GridInvertedIndex;
pub use ivf::{CoarseQuantizer, IvfCodecError, IvfIndex, IVF_MAGIC};
pub use pointgrid::PointGrid;
pub use rtree::RTree;

use neutraj_trajectory::Trajectory;

/// A pruning index over a fixed corpus of trajectories.
pub trait SpatialIndex {
    /// Indices of trajectories whose pruning region lies within `radius`
    /// of `query`'s region — a superset of all trajectories with
    /// MBR-lower-bounded distance ≤ `radius`.
    fn candidates(&self, query: &Trajectory, radius: f64) -> Vec<usize>;

    /// Number of indexed trajectories.
    fn len(&self) -> usize;

    /// Returns `true` when nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
