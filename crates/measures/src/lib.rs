//! # neutraj-measures
//!
//! Exact trajectory similarity measures and the machinery NeuTraj-RS needs
//! around them: the exact ground-truth engine ([`GroundTruthEngine`]:
//! parallel distance matrices — the seed guidance of the paper, §V — dense
//! rows and top-k lists, pruned by the [`bounds`] cascade and bit-identical
//! to the naive DPs) and brute-force top-k search (the `BruteForce`
//! baseline of Tables IV/V).
//!
//! The four measures the paper evaluates are implemented faithfully:
//!
//! * [`Dtw`] — Dynamic Time Warping (Yi et al., ICDE'98),
//! * [`DiscreteFrechet`] — the discrete Fréchet distance (Alt & Godau),
//! * [`Hausdorff`] — the symmetric Hausdorff distance over point sets,
//! * [`Erp`] — Edit distance with Real Penalty (Chen & Ng, VLDB'04).
//!
//! Because the paper's headline claim is that NeuTraj is *generic* over
//! measures, three further measures are provided as extensions: [`Edr`],
//! [`Lcss`] and [`Sspd`]. Any type implementing [`Measure`] plugs into the
//! rest of the system unchanged.
//!
//! All dynamic-programming implementations run in `O(len_a · len_b)` time
//! and `O(min(len_a, len_b))` memory (rolling rows).

// `deny` rather than `forbid`: the AVX2 row kernels in `simd.rs` opt
// back in with a module-scoped `#[allow(unsafe_code)]` — every other
// module stays unsafe-free, and `target_feature` never leaks into safe
// code (the dispatchers are safe fns that check lengths first).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
mod bruteforce;
mod dtw;
pub mod engine;
mod erp;
mod extra;
mod frechet;
mod hausdorff;
mod matrix;
mod simd;
pub mod timed;

pub use bounds::TrajCache;
pub use bruteforce::{knn_query, knn_scan, partial_sort_neighbors, top_k, Neighbor, NeighborHeap};
pub use dtw::Dtw;
pub use engine::GroundTruthEngine;
pub use erp::Erp;
pub use extra::{Edr, Lcss, Sspd};
pub use frechet::DiscreteFrechet;
pub use hausdorff::Hausdorff;
pub use matrix::{DistanceMatrix, FiniteStats};

use neutraj_trajectory::Point;

/// A trajectory similarity measure: maps two point sequences to a
/// non-negative dissimilarity. Smaller is more similar.
///
/// Implementations must be deterministic and symmetric-in-signature (the
/// *value* need not be symmetric for non-metrics, though all measures
/// shipped here are symmetric). Empty inputs yield `f64::INFINITY` by
/// convention — a trajectory with no points is infinitely far from
/// everything, including itself.
///
/// Pruning bounds come only from [`Measure::accel`] and the [`bounds`]
/// module: a measure without an accelerated kernel is computed in full
/// for every pair.
pub trait Measure: Send + Sync {
    /// Computes the dissimilarity between two point sequences.
    fn dist(&self, a: &[Point], b: &[Point]) -> f64;

    /// Short human-readable name (used in reports).
    fn name(&self) -> &'static str;

    /// Whether this measure is a metric (symmetric + triangle inequality).
    /// DTW famously is not (§VII-A.2).
    fn is_metric(&self) -> bool {
        true
    }

    /// Which accelerated kernel of the [`GroundTruthEngine`] computes this
    /// measure, if any. The default (`None`) routes every pair through
    /// [`Measure::dist`] unchanged, so custom measures keep working; the
    /// four paper measures override this to unlock the lower-bound
    /// cascade, the lane-batched DPs and grid-bucketed Hausdorff.
    ///
    /// Implementations must guarantee that the accelerated kernel is
    /// **bit-identical** to [`Measure::dist`] (see `tests/pruning.rs`).
    fn accel(&self) -> Option<Accel> {
        None
    }
}

/// A borrowed measure prints as its name, so types that hold one derive `Debug`.
impl std::fmt::Debug for dyn Measure + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The accelerated ground-truth kernels of [`GroundTruthEngine`], chosen
/// via [`Measure::accel`]. Carries the parameters the kernel needs beyond
/// the point sequences themselves (only ERP's gap point today).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accel {
    /// Lane-batched min-sum DP (Dynamic Time Warping).
    Dtw,
    /// Lane-batched min-max DP (discrete Fréchet).
    Frechet,
    /// Grid-bucketed directed scans (symmetric Hausdorff), abandoned past
    /// a knn threshold.
    Hausdorff,
    /// Lane-batched edit DP with the given gap reference point.
    Erp {
        /// The gap reference point `g` of the measure instance.
        gap: Point,
    },
}

/// Identifier of the measures the paper evaluates, convenient for CLI
/// flags, experiment configs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasureKind {
    /// Discrete Fréchet distance.
    Frechet,
    /// Hausdorff distance.
    Hausdorff,
    /// Edit distance with Real Penalty.
    Erp,
    /// Dynamic Time Warping.
    Dtw,
}

impl MeasureKind {
    /// The four measures in the paper's table order.
    pub const ALL: [MeasureKind; 4] = [
        MeasureKind::Frechet,
        MeasureKind::Hausdorff,
        MeasureKind::Erp,
        MeasureKind::Dtw,
    ];

    /// Instantiates the measure with its default parameters.
    pub fn measure(&self) -> Box<dyn Measure> {
        match self {
            MeasureKind::Frechet => Box::new(DiscreteFrechet),
            MeasureKind::Hausdorff => Box::new(Hausdorff),
            MeasureKind::Erp => Box::new(Erp::default()),
            MeasureKind::Dtw => Box::new(Dtw),
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            MeasureKind::Frechet => "Frechet",
            MeasureKind::Hausdorff => "Hausdorff",
            MeasureKind::Erp => "ERP",
            MeasureKind::Dtw => "DTW",
        }
    }
}

impl std::fmt::Display for MeasureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MeasureKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "frechet" | "fréchet" => Ok(MeasureKind::Frechet),
            "hausdorff" => Ok(MeasureKind::Hausdorff),
            "erp" => Ok(MeasureKind::Erp),
            "dtw" => Ok(MeasureKind::Dtw),
            other => Err(format!("unknown measure: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_from_str() {
        for k in MeasureKind::ALL {
            let parsed: MeasureKind = k.name().parse().unwrap();
            assert_eq!(parsed, k);
        }
        assert!("nope".parse::<MeasureKind>().is_err());
    }

    #[test]
    fn kind_instantiates_named_measures() {
        for k in MeasureKind::ALL {
            let m = k.measure();
            assert_eq!(m.name(), k.name());
        }
    }

    #[test]
    fn dtw_flagged_non_metric() {
        assert!(!MeasureKind::Dtw.measure().is_metric());
        assert!(MeasureKind::Frechet.measure().is_metric());
        assert!(MeasureKind::Hausdorff.measure().is_metric());
        assert!(MeasureKind::Erp.measure().is_metric());
    }
}
