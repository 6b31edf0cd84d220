//! Synthetic workload generators.
//!
//! The paper evaluates on two real GPS corpora (Geolife, Porto taxi) that
//! are not redistributable here, so this module provides generators that
//! reproduce the *structural* properties the experiments depend on:
//!
//! * trajectories are variable-length point sequences (≥ 10 records after
//!   preprocessing);
//! * trajectories cluster around shared routes, giving the near-duplicate
//!   structure the paper observes ("trajectories in both datasets have lots
//!   of near-duplicate instances", §VII-B);
//! * human mobility ([`GeolifeLikeGenerator`]) is slow with pauses and
//!   meanders; taxi mobility ([`PortoLikeGenerator`]) is faster, smoother
//!   and road-biased.
//!
//! [`roadnet`] additionally provides the synthetic road network + random
//! walk simulator used by the zero-shot experiment (Fig. 10): the paper
//! itself generates those seeds "by employing random walk on road node
//! graph and interpolating coordinates between the nodes" (§VII-G), so for
//! that experiment only the road graph source is substituted.

mod geolife;
mod porto;
pub mod roadnet;

pub use geolife::GeolifeLikeGenerator;
pub use porto::PortoLikeGenerator;
pub use roadnet::{RoadNetwork, RoadWalkGenerator};

use crate::rng::Rng;
use crate::Point;

/// Draws from a standard normal distribution via Box–Muller.
pub(crate) fn gaussian(rng: &mut Rng) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A gaussian-jittered copy of `p` with standard deviation `sigma` per axis.
pub(crate) fn jitter(rng: &mut Rng, p: Point, sigma: f64) -> Point {
    Point::new(p.x + gaussian(rng) * sigma, p.y + gaussian(rng) * sigma)
}

/// Samples a trajectory length from a truncated log-normal-ish
/// distribution over `[min_len, max_len]` — GPS corpora are heavy-tailed
/// in length, and a plain uniform would under-represent short trips.
pub(crate) fn sample_len(rng: &mut Rng, min_len: usize, max_len: usize) -> usize {
    debug_assert!(min_len <= max_len && min_len >= 2);
    let span = (max_len - min_len) as f64;
    // Squaring a uniform biases toward shorter trajectories.
    let u: f64 = rng.gen_range(0.0..1.0);
    min_len + (u * u * span).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = Rng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn sample_len_respects_bounds() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..1000 {
            let l = sample_len(&mut rng, 10, 150);
            assert!((10..=150).contains(&l));
        }
    }

    #[test]
    fn jitter_zero_sigma_is_identity() {
        let mut rng = Rng::seed_from_u64(3);
        let p = Point::new(5.0, -2.0);
        assert_eq!(jitter(&mut rng, p, 0.0), p);
    }
}
