//! Taxi-trip generator standing in for the Porto corpus.

use super::{gaussian, jitter, sample_len};
use crate::rng::Rng;
use crate::{Dataset, Point, TrajError, Trajectory};

/// Generates taxi-trip trajectories with Porto-like structure.
///
/// Taxis differ from pedestrians in three ways this generator reproduces:
/// they move faster (larger inter-fix spacing at the 15 s sampling interval
/// the Porto corpus uses), they follow the road grid (movement is biased to
/// a small set of heading angles), and trips concentrate between hub zones
/// (rank/airport/centre), producing heavy route reuse.
#[derive(Debug, Clone)]
pub struct PortoLikeGenerator {
    /// Number of trajectories to generate.
    pub num_trajectories: usize,
    /// Side length of the square city extent, metres.
    pub extent_m: f64,
    /// Number of taxi hub zones.
    pub num_hubs: usize,
    /// Number of shared route templates.
    pub num_templates: usize,
    /// Minimum points per trajectory.
    pub min_len: usize,
    /// Maximum points per trajectory.
    pub max_len: usize,
    /// Per-point GPS noise, metres (1σ).
    pub gps_noise_m: f64,
    /// Mean distance between consecutive fixes, metres (speed × sampling
    /// interval; Porto logs every 15 s, so ~120 m at 30 km/h).
    pub fix_spacing_m: f64,
}

impl Default for PortoLikeGenerator {
    fn default() -> Self {
        Self {
            num_trajectories: 2000,
            extent_m: 8000.0,
            num_hubs: 8,
            num_templates: 120,
            min_len: 10,
            max_len: 100,
            gps_noise_m: 10.0,
            fix_spacing_m: 110.0,
        }
    }
}

impl PortoLikeGenerator {
    /// Generates the corpus deterministically from `seed`, panicking on
    /// an invalid configuration (see [`Self::try_generate`]).
    pub fn generate(&self, seed: u64) -> Dataset {
        self.try_generate(seed).expect("invalid PortoLikeGenerator")
    }

    /// Fallible [`Self::generate`]: rejects out-of-range parameters with
    /// [`TrajError::InvalidConfig`] instead of producing a degenerate or
    /// panicking corpus deep inside the sampling loop.
    pub fn try_generate(&self, seed: u64) -> crate::Result<Dataset> {
        if !(self.extent_m.is_finite() && self.extent_m > 0.0) {
            return Err(TrajError::InvalidConfig(format!(
                "extent_m must be a positive finite number, got {}",
                self.extent_m
            )));
        }
        if self.min_len < 2 || self.max_len < self.min_len {
            return Err(TrajError::InvalidConfig(format!(
                "need 2 <= min_len <= max_len, got min_len {} max_len {}",
                self.min_len, self.max_len
            )));
        }
        if !(self.fix_spacing_m.is_finite() && self.fix_spacing_m > 0.0) {
            return Err(TrajError::InvalidConfig(format!(
                "fix_spacing_m must be a positive finite number, got {}",
                self.fix_spacing_m
            )));
        }
        let mut rng = Rng::seed_from_u64(seed);
        let half = self.extent_m / 2.0;

        let hubs: Vec<Point> = (0..self.num_hubs.max(2))
            .map(|_| {
                Point::new(
                    rng.gen_range(-half * 0.8..half * 0.8),
                    rng.gen_range(-half * 0.8..half * 0.8),
                )
            })
            .collect();

        let templates: Vec<Vec<Point>> = (0..self.num_templates.max(1))
            .map(|_| {
                let a = hubs[rng.gen_range(0..hubs.len())];
                let mut b = hubs[rng.gen_range(0..hubs.len())];
                if a.dist(&b) < self.extent_m * 0.08 {
                    b = Point::new(-a.x * 0.9, -a.y * 0.9);
                }
                self.road_route(&mut rng, a, b, half)
            })
            .collect();

        let trajectories = (0..self.num_trajectories as u64)
            .map(|id| {
                let tpl = &templates[rng.gen_range(0..templates.len())];
                self.instantiate(&mut rng, id, tpl)
            })
            .collect();
        Ok(Dataset::new(trajectories))
    }

    /// A route that alternates straight segments along grid-ish headings
    /// (multiples of 45°) with gentle turns — a cheap stand-in for roads.
    fn road_route(&self, rng: &mut Rng, a: Point, b: Point, half: f64) -> Vec<Point> {
        let step = 60.0;
        let mut pts = vec![a];
        let mut cur = a;
        let max_steps = ((a.dist(&b) * 2.0 / step).ceil() as usize).clamp(8, 800);
        for _ in 0..max_steps {
            let to_goal = (b.y - cur.y).atan2(b.x - cur.x);
            // Snap heading to the nearest multiple of 45° toward the goal,
            // plus occasional detour turns.
            let mut heading = snap_45(to_goal);
            if rng.gen_bool(0.15) {
                heading += if rng.gen_bool(0.5) {
                    std::f64::consts::FRAC_PI_4
                } else {
                    -std::f64::consts::FRAC_PI_4
                };
            }
            // Ride this heading for a short straight block.
            let block = rng.gen_range(2..6);
            for _ in 0..block {
                cur = Point::new(
                    (cur.x + heading.cos() * step).clamp(-half, half),
                    (cur.y + heading.sin() * step).clamp(-half, half),
                );
                pts.push(cur);
                if cur.dist(&b) < step * 1.5 {
                    pts.push(b);
                    return pts;
                }
            }
        }
        pts.push(b);
        pts
    }

    /// Instantiates one noisy trip from a template.
    fn instantiate(&self, rng: &mut Rng, id: u64, template: &[Point]) -> Trajectory {
        let n = template.len();
        let start = rng.gen_range(0..n / 5 + 1);
        let end = n - rng.gen_range(0..n / 5 + 1);
        let part = &template[start..end.max(start + 2)];
        let route = Trajectory::new_unchecked(id, part.to_vec());

        // Number of fixes implied by route length and fix spacing, capped
        // to the configured bounds and perturbed so identical routes still
        // differ in sampling phase.
        let ideal = (route.path_length() / self.fix_spacing_m).ceil() as usize;
        let cap = sample_len(rng, self.min_len, self.max_len);
        let target = ideal.clamp(self.min_len, cap.max(self.min_len)).max(2);
        let base = route.resample(target).expect("route has >= 2 points");

        let speed_wobble = 1.0 + gaussian(rng) * 0.05;
        let pts = base
            .points()
            .iter()
            .map(|p| jitter(rng, *p * speed_wobble, self.gps_noise_m))
            .collect();
        Trajectory::new_unchecked(id, pts)
    }
}

/// Snaps an angle to the nearest multiple of 45°.
fn snap_45(theta: f64) -> f64 {
    let q = std::f64::consts::FRAC_PI_4;
    (theta / q).round() * q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PortoLikeGenerator {
        PortoLikeGenerator {
            num_trajectories: 60,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = small();
        assert_eq!(g.generate(11), g.generate(11));
        assert_ne!(g.generate(11), g.generate(12));
    }

    #[test]
    fn respects_count_and_length_bounds() {
        let g = small();
        let ds = g.generate(0);
        assert_eq!(ds.len(), 60);
        for t in ds.trajectories() {
            assert!(t.len() >= g.min_len);
            assert!(t.len() <= g.max_len);
        }
    }

    #[test]
    fn fix_spacing_is_taxi_scale() {
        let g = small();
        let ds = g.generate(3);
        let mut spacing = 0.0;
        let mut count = 0usize;
        for t in ds.trajectories() {
            for w in t.points().windows(2) {
                spacing += w[0].dist(&w[1]);
                count += 1;
            }
        }
        let mean = spacing / count as f64;
        // Much faster than walking pace; bounded by generator params.
        assert!(mean > 30.0 && mean < 400.0, "mean fix spacing {mean} m");
    }

    #[test]
    fn try_generate_rejects_bad_configs() {
        let e = PortoLikeGenerator {
            extent_m: 0.0,
            ..small()
        }
        .try_generate(0)
        .unwrap_err();
        assert!(matches!(e, TrajError::InvalidConfig(_)), "{e}");
        assert!(e.to_string().contains("extent_m"));

        let e = PortoLikeGenerator {
            min_len: 20,
            max_len: 10,
            ..small()
        }
        .try_generate(0)
        .unwrap_err();
        assert!(e.to_string().contains("min_len"));

        let e = PortoLikeGenerator {
            fix_spacing_m: f64::NAN,
            ..small()
        }
        .try_generate(0)
        .unwrap_err();
        assert!(e.to_string().contains("fix_spacing_m"));

        // And the happy path agrees with the panicking wrapper.
        let g = small();
        assert_eq!(g.try_generate(9).unwrap(), g.generate(9));
    }

    #[test]
    fn snap_45_works() {
        assert!((snap_45(0.1) - 0.0).abs() < 1e-12);
        let q = std::f64::consts::FRAC_PI_4;
        assert!((snap_45(0.7) - q).abs() < 1e-12);
        assert!((snap_45(-0.7) + q).abs() < 1e-12);
    }
}
