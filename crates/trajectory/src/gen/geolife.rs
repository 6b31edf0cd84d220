//! Human-mobility generator standing in for the Geolife corpus.

use super::{gaussian, jitter, sample_len};
use crate::rng::Rng;
use crate::{Dataset, Point, TrajError, Trajectory};

/// Generates a corpus of human-mobility trajectories with Geolife-like
/// structure.
///
/// The model is a hotspot-anchored correlated random walk:
///
/// 1. A fixed set of *hotspots* (home/work/POI locations) is scattered over
///    the city extent.
/// 2. A set of *route templates* is built — each a meandering path between
///    two hotspots. Multiple trajectories instantiate the same template
///    with per-point jitter, random trimming and resampling, which produces
///    the near-duplicate clusters GPS corpora exhibit.
/// 3. Each walk has a mode-dependent speed (walk / bike / bus), heading
///    persistence and random pauses (bursts of near-identical points).
///
/// Coordinates are metres over a square extent centred at the origin.
#[derive(Debug, Clone)]
pub struct GeolifeLikeGenerator {
    /// Number of trajectories to generate.
    pub num_trajectories: usize,
    /// Side length of the square city extent, metres. Geolife's centre
    /// area in the paper is a few kilometres across.
    pub extent_m: f64,
    /// Number of hotspot anchor points.
    pub num_hotspots: usize,
    /// Number of shared route templates.
    pub num_templates: usize,
    /// Minimum points per trajectory (paper keeps ≥ 10 records).
    pub min_len: usize,
    /// Maximum points per trajectory.
    pub max_len: usize,
    /// Per-point GPS noise, metres (1σ).
    pub gps_noise_m: f64,
}

impl Default for GeolifeLikeGenerator {
    fn default() -> Self {
        Self {
            num_trajectories: 1000,
            extent_m: 6000.0,
            num_hotspots: 12,
            num_templates: 60,
            min_len: 10,
            max_len: 150,
            gps_noise_m: 8.0,
        }
    }
}

impl GeolifeLikeGenerator {
    /// Generates the corpus deterministically from `seed`, panicking on
    /// an invalid configuration (see [`Self::try_generate`]).
    pub fn generate(&self, seed: u64) -> Dataset {
        self.try_generate(seed)
            .expect("invalid GeolifeLikeGenerator")
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
        let mut rng = Rng::seed_from_u64(seed);
        let half = self.extent_m / 2.0;

        // 1. Hotspots, biased toward the centre (population density).
        let hotspots: Vec<Point> = (0..self.num_hotspots.max(2))
            .map(|_| {
                Point::new(
                    gaussian(&mut rng) * half * 0.35,
                    gaussian(&mut rng) * half * 0.35,
                )
            })
            .map(|p| clamp_to(p, half))
            .collect();

        // 2. Route templates between hotspot pairs.
        let templates: Vec<Vec<Point>> = (0..self.num_templates.max(1))
            .map(|_| {
                let a = hotspots[rng.gen_range(0..hotspots.len())];
                let mut b = hotspots[rng.gen_range(0..hotspots.len())];
                // Ensure the route goes somewhere.
                if a.dist(&b) < self.extent_m * 0.05 {
                    b = Point::new(-a.x, -a.y);
                }
                self.meander(&mut rng, a, b, half)
            })
            .collect();

        // 3. Instantiate trajectories from templates.
        let trajectories = (0..self.num_trajectories as u64)
            .map(|id| {
                let tpl = &templates[rng.gen_range(0..templates.len())];
                self.instantiate(&mut rng, id, tpl)
            })
            .collect();
        Ok(Dataset::new(trajectories))
    }

    /// A meandering dense path from `a` to `b`: a correlated walk whose
    /// heading blends persistence with attraction toward the destination.
    fn meander(&self, rng: &mut Rng, a: Point, b: Point, half: f64) -> Vec<Point> {
        let dist = a.dist(&b).max(1.0);
        let step = 25.0; // metres between template vertices
        let n = ((dist * 1.4 / step).ceil() as usize).clamp(8, 600);
        let mut pts = Vec::with_capacity(n);
        let mut cur = a;
        let mut heading = (b.y - a.y).atan2(b.x - a.x);
        pts.push(cur);
        for _ in 1..n {
            let to_goal = (b.y - cur.y).atan2(b.x - cur.x);
            // Blend persistence, goal attraction and wander noise.
            let mut delta = angle_diff(to_goal, heading) * 0.25 + gaussian(rng) * 0.35;
            delta = delta.clamp(-0.9, 0.9);
            heading += delta;
            cur = clamp_to(
                Point::new(cur.x + heading.cos() * step, cur.y + heading.sin() * step),
                half,
            );
            pts.push(cur);
            if cur.dist(&b) < step * 1.5 {
                break;
            }
        }
        pts.push(b);
        pts
    }

    /// Instantiates one noisy trajectory from a template.
    fn instantiate(&self, rng: &mut Rng, id: u64, template: &[Point]) -> Trajectory {
        // Random contiguous portion of the route (people join/leave routes).
        let n = template.len();
        let start = rng.gen_range(0..n / 4 + 1);
        let end = n - rng.gen_range(0..n / 4 + 1);
        let part = &template[start..end.max(start + 2)];

        let target_len = sample_len(rng, self.min_len, self.max_len);
        let base = Trajectory::new_unchecked(id, part.to_vec())
            .resample(target_len.max(2))
            .expect("template parts have >= 2 points");

        // Jitter + occasional pauses. Pauses draw from a budget so the
        // final length never exceeds `max_len + 8`.
        let mut pause_budget = (self.max_len + 8).saturating_sub(base.len());
        let mut pts = Vec::with_capacity(base.len() + pause_budget);
        for p in base.points() {
            let q = jitter(rng, *p, self.gps_noise_m);
            pts.push(q);
            // ~4% chance of a short pause: a couple of near-identical fixes.
            if pause_budget >= 2 && rng.gen_bool(0.04) {
                pts.push(jitter(rng, q, self.gps_noise_m * 0.4));
                pts.push(jitter(rng, q, self.gps_noise_m * 0.4));
                pause_budget -= 2;
            }
        }
        Trajectory::new_unchecked(id, pts)
    }
}

fn clamp_to(p: Point, half: f64) -> Point {
    Point::new(p.x.clamp(-half, half), p.y.clamp(-half, half))
}

/// Smallest signed angle taking `from` to `to`.
fn angle_diff(to: f64, from: f64) -> f64 {
    let mut d = to - from;
    while d > std::f64::consts::PI {
        d -= std::f64::consts::TAU;
    }
    while d < -std::f64::consts::PI {
        d += std::f64::consts::TAU;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GeolifeLikeGenerator {
        GeolifeLikeGenerator {
            num_trajectories: 50,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = small();
        assert_eq!(g.generate(5), g.generate(5));
        assert_ne!(g.generate(5), g.generate(6));
    }

    #[test]
    fn respects_count_and_length_bounds() {
        let g = small();
        let ds = g.generate(1);
        assert_eq!(ds.len(), 50);
        for t in ds.trajectories() {
            assert!(t.len() >= g.min_len, "len {} < min", t.len());
            // pauses may add a couple of points past the sampled target
            assert!(t.len() <= g.max_len + 8, "len {} > max", t.len());
        }
    }

    #[test]
    fn stays_within_extent_modulo_noise() {
        let g = small();
        let ds = g.generate(2);
        let slack = g.gps_noise_m * 6.0;
        let half = g.extent_m / 2.0 + slack;
        for t in ds.trajectories() {
            for p in t.points() {
                assert!(p.x.abs() <= half && p.y.abs() <= half, "escaped: {p}");
            }
        }
    }

    #[test]
    fn ids_are_sequential() {
        let ds = small().generate(3);
        for (i, t) in ds.trajectories().iter().enumerate() {
            assert_eq!(t.id, i as u64);
        }
    }

    #[test]
    fn try_generate_rejects_bad_configs() {
        let e = GeolifeLikeGenerator {
            extent_m: f64::INFINITY,
            ..small()
        }
        .try_generate(0)
        .unwrap_err();
        assert!(matches!(e, TrajError::InvalidConfig(_)), "{e}");

        let e = GeolifeLikeGenerator {
            min_len: 1,
            ..small()
        }
        .try_generate(0)
        .unwrap_err();
        assert!(e.to_string().contains("min_len"));

        let g = small();
        assert_eq!(g.try_generate(7).unwrap(), g.generate(7));
    }

    #[test]
    fn template_sharing_creates_near_duplicates() {
        // With many trajectories over few templates, some pairs must be
        // much closer (centroid distance) than the extent scale.
        let g = GeolifeLikeGenerator {
            num_trajectories: 60,
            num_templates: 5,
            ..Default::default()
        };
        let ds = g.generate(4);
        let cents: Vec<Point> = ds
            .trajectories()
            .iter()
            .map(|t| t.centroid().unwrap())
            .collect();
        let mut min_pair = f64::INFINITY;
        for i in 0..cents.len() {
            for j in i + 1..cents.len() {
                min_pair = min_pair.min(cents[i].dist(&cents[j]));
            }
        }
        assert!(min_pair < 150.0, "closest centroid pair {min_pair} m");
    }
}
