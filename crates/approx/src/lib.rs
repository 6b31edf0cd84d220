//! # neutraj-approx
//!
//! The hand-crafted approximate algorithms the paper compares against as
//! **AP** (§VII-A.3): "state-of-the-art approximate algorithms from \[12\]
//! (Fréchet and DTW) and \[4\] (Hausdorff)". The originals are
//! closed-source; [`build_ap`] builds one reimplementation per measure
//! from the same algorithmic family (see `DESIGN.md` §3), and every one
//! is reached through the one [`ApproxKnn`] trait:
//!
//! * Fréchet and DTW — Driemel & Silvestri curve LSH ([`CurveLsh`]):
//!   items rank by how many randomly-shifted grid hash tables they share
//!   a bucket with the query in, MBR-centre distance breaking ties.
//! * Hausdorff — [`HausdorffLandmarkApprox`], a Farach-Colton &
//!   Indyk-style metric embedding: each trajectory maps to the vector of
//!   (clipped, quantized) distances from `K` fixed landmarks; the `L∞`
//!   difference of two such vectors lower-bounds and approximates the
//!   Hausdorff distance.
//!
//! ERP has no published approximate algorithm, matching the paper's "—"
//! entries ([`build_ap`] returns `None`).
//!
//! Like the originals, these are *fast but heuristic*: the paper's central
//! observation — AP beats brute force on speed but loses badly to learned
//! embeddings on accuracy — reproduces with these implementations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hausdorff_embed;
mod lsh;

pub use hausdorff_embed::HausdorffLandmarkApprox;
pub use lsh::CurveLsh;

use neutraj_measures::{partial_sort_neighbors, top_k, MeasureKind, Neighbor};
use neutraj_trajectory::{BoundingBox, Point, Trajectory};

/// An AP baseline over a preprocessed corpus: one approximate distance
/// per indexed trajectory, ranked the same way as every exact list
/// (`f64::total_cmp`, ties by index).
pub trait ApproxKnn: Send + Sync {
    /// Algorithm name.
    fn name(&self) -> &'static str;

    /// One approximate distance per indexed trajectory, in corpus order.
    fn distances(&self, query: &Trajectory) -> Vec<f64>;

    /// Top-k most similar indexed items to `query` under the approximate
    /// distance.
    fn knn(&self, query: &Trajectory, k: usize) -> Vec<Neighbor> {
        top_k(&self.distances(query), k)
    }

    /// Top-k restricted to `candidates` (index-assisted search, Table V).
    fn knn_candidates(&self, query: &Trajectory, candidates: &[usize], k: usize) -> Vec<Neighbor> {
        let dists = self.distances(query);
        let mut out: Vec<Neighbor> = candidates
            .iter()
            .map(|&index| Neighbor {
                index,
                dist: dists[index],
            })
            .collect();
        partial_sort_neighbors(&mut out, k);
        out
    }
}

/// Builds the paper's AP baseline for `kind` over `corpus`, or `None` for
/// ERP ("Except ERP which has no approximate algorithm", §VII-A.3).
///
/// `scale` should be the typical coordinate magnitude of the corpus (e.g.
/// the grid cell size or corpus extent / 100); it parameterizes grid
/// resolutions and landmark clipping.
///
/// Fréchet and DTW use the Driemel & Silvestri LSH (\[12\] in the paper,
/// which covers both measures): ranking is by *hash-collision count*
/// across tables, with MBR-centre distance as tie-break — fast and
/// characteristically crude, exactly the behaviour the paper reports for
/// AP. Hausdorff uses the landmark embedding of \[4\].
pub fn build_ap(
    kind: MeasureKind,
    corpus: &[Trajectory],
    scale: f64,
    seed: u64,
) -> Option<Box<dyn ApproxKnn>> {
    match kind {
        MeasureKind::Frechet | MeasureKind::Dtw => {
            Some(Box::new(LshKnn::build(corpus, scale, 8, seed)))
        }
        MeasureKind::Hausdorff => {
            let extent = corpus
                .iter()
                .fold(BoundingBox::EMPTY, |bb, t| bb.union(&t.mbr()));
            // A coarse landmark set with quantized entries: like the
            // published embedding, the speedup comes precisely from
            // projecting to few dimensions, which is also what caps its
            // accuracy.
            Some(Box::new(
                HausdorffLandmarkApprox::new(extent, 5, seed)
                    .with_quantization(scale)
                    .index(corpus),
            ))
        }
        MeasureKind::Erp => None,
    }
}

/// LSH-collision ranking baseline for Fréchet/DTW: score items by the
/// number of hash tables in which they collide with the query, break ties
/// by MBR-centre distance, and rank non-colliding items purely by MBR
/// distance (far behind every collider).
struct LshKnn {
    lsh: CurveLsh,
    centers: Vec<Point>,
}

impl LshKnn {
    /// Builds `tables` hash tables of resolution `delta` over `corpus`.
    fn build(corpus: &[Trajectory], delta: f64, tables: usize, seed: u64) -> Self {
        Self {
            lsh: CurveLsh::build(corpus, delta, tables, seed),
            centers: corpus.iter().map(center).collect(),
        }
    }
}

/// MBR centre of `t`, the origin for an empty trajectory.
fn center(t: &Trajectory) -> Point {
    let bb = t.mbr();
    if bb.is_empty() {
        Point::ORIGIN
    } else {
        bb.center()
    }
}

impl ApproxKnn for LshKnn {
    fn name(&self) -> &'static str {
        "AP-LSH(curve)"
    }

    fn distances(&self, query: &Trajectory) -> Vec<f64> {
        let l = self.lsh.num_tables() as f64;
        let qc = center(query);
        // Base distance: MBR-centre separation, normalized small relative
        // to one collision step.
        let mut dists: Vec<f64> = self
            .centers
            .iter()
            .map(|c| l + c.dist(&qc) / (c.dist(&qc) + self.lsh.delta()))
            .collect();
        for (i, count) in self.lsh.candidates(query) {
            dists[i] -= count as f64;
        }
        dists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_trajectory::gen::PortoLikeGenerator;

    #[test]
    fn build_ap_covers_measures() {
        let corpus = PortoLikeGenerator {
            num_trajectories: 20,
            ..Default::default()
        }
        .generate(1);
        let ts = corpus.trajectories();
        for kind in MeasureKind::ALL {
            let ap = build_ap(kind, ts, 50.0, 7);
            match kind {
                MeasureKind::Erp => assert!(ap.is_none()),
                _ => {
                    let ap = ap.expect("AP exists");
                    let res = ap.knn(&ts[0], 5);
                    assert_eq!(res.len(), 5);
                    assert_eq!(res[0].index, 0, "{}: self not first", ap.name());
                }
            }
        }
    }

    /// A baseline whose every third distance is NaN.
    struct NanEveryThird(usize);

    impl ApproxKnn for NanEveryThird {
        fn name(&self) -> &'static str {
            "nan-every-third"
        }

        fn distances(&self, _query: &Trajectory) -> Vec<f64> {
            (0..self.0)
                .map(|i| if i % 3 == 0 { f64::NAN } else { i as f64 })
                .collect()
        }
    }

    #[test]
    fn candidate_restriction_respected() {
        let corpus = PortoLikeGenerator {
            num_trajectories: 15,
            ..Default::default()
        }
        .generate(2);
        let ts = corpus.trajectories();
        let ap = build_ap(MeasureKind::Frechet, ts, 50.0, 3).unwrap();
        let res = ap.knn_candidates(&ts[0], &[3, 7, 9], 2);
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|n| [3, 7, 9].contains(&n.index)));

        // The candidate ranking is the full ranking filtered to the
        // candidates, for both baselines and at every depth.
        let candidates = [0, 2, 3, 5, 7, 9, 11, 14];
        for kind in [MeasureKind::Frechet, MeasureKind::Hausdorff] {
            let ap = build_ap(kind, ts, 50.0, 3).unwrap();
            for q in [0, 4, 9] {
                for k in [0, 1, 3, candidates.len(), 20] {
                    let want: Vec<Neighbor> = ap
                        .knn(&ts[q], ts.len())
                        .into_iter()
                        .filter(|n| candidates.contains(&n.index))
                        .take(k)
                        .collect();
                    assert_eq!(ap.knn_candidates(&ts[q], &candidates, k), want);
                }
            }
        }

        // NaN distances keep the order total: they rank last, by index.
        let nan = NanEveryThird(12);
        let order: Vec<usize> = nan
            .knn_candidates(&ts[0], &[9, 0, 4, 3, 8, 6, 1], 7)
            .iter()
            .map(|n| n.index)
            .collect();
        assert_eq!(order, [1, 4, 8, 0, 3, 6, 9]);
    }
}
