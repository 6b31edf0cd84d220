//! Seed-keyed inputs: a route-template trajectory generator.
//!
//! A world is a fixed extent with `routes` template polylines drawn from
//! the seed. A trajectory follows a stretch of one template with
//! per-point jitter, so a corpus has the structure the system is built
//! for — many trajectories per route, near neighbours that mean
//! something, clusters an IVF or HNSW index can exploit — while every
//! byte is a function of `(seed, purpose, index)`.
//!
//! Lengths and route assignment depend on the index alone, not on the
//! seed: two seeds give different shapes but the same number of points
//! and the same number per route, so the amount of work a run does is
//! the same for every seed and timings from different seeds compare.

use crate::rng::{Fnv64, SplitMix64};
use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};

/// World extent: 1000 × 500 units, 50-unit cells — a 20 × 10 grid, the
/// shape the repository's serving bench and backbone tests use.
pub const EXTENT: (f64, f64) = (1000.0, 500.0);
const CELL: f64 = 50.0;
/// Waypoints per route template.
const WAYPOINTS: usize = 9;
/// Per-point jitter (units); a fifth of a cell keeps neighbours of a
/// route close without making them identical.
const JITTER: f64 = 10.0;

/// Stream purposes (see [`SplitMix64::stream`]).
pub mod purpose {
    pub const ROUTES: u64 = 1;
    pub const CORPUS: u64 = 2;
    pub const POOL: u64 = 3;
    pub const INSERTS: u64 = 4;
    pub const ARRIVALS: u64 = 5;
    pub const SEEDS: u64 = 6;
    pub const TEST_DB: u64 = 7;
}

/// The grid every model in the benchmark is built over.
pub fn grid() -> Grid {
    Grid::new(BoundingBox::new(0.0, 0.0, EXTENT.0, EXTENT.1), CELL).expect("fixed extent")
}

/// The route templates of one seed.
#[derive(Debug, Clone)]
pub struct World {
    seed: u64,
    routes: Vec<Vec<Point>>,
}

impl World {
    /// Draws `routes` templates: a start anywhere, then waypoints that
    /// keep a slowly turning heading and reflect off the extent.
    pub fn new(seed: u64, routes: usize) -> Self {
        let mut rng = SplitMix64::stream(seed, purpose::ROUTES);
        let routes = (0..routes)
            .map(|_| {
                let mut p = Point::new(rng.range(0.0, EXTENT.0), rng.range(0.0, EXTENT.1));
                let mut heading = rng.range(0.0, std::f64::consts::TAU);
                let mut pts = vec![p];
                for _ in 1..WAYPOINTS {
                    heading += rng.range(-0.9, 0.9);
                    let step = rng.range(60.0, 140.0);
                    let (mut x, mut y) = (p.x + step * heading.cos(), p.y + step * heading.sin());
                    if !(0.0..=EXTENT.0).contains(&x) {
                        x = x.clamp(0.0, EXTENT.0) * 2.0 - x;
                        heading = std::f64::consts::PI - heading;
                    }
                    if !(0.0..=EXTENT.1).contains(&y) {
                        y = y.clamp(0.0, EXTENT.1) * 2.0 - y;
                        heading = -heading;
                    }
                    p = Point::new(x, y);
                    pts.push(p);
                }
                pts
            })
            .collect();
        Self { seed, routes }
    }

    /// `count` trajectories for `purpose`, ids `base_id..`, lengths
    /// cycling through `len_lo..=len_hi` by index.
    pub fn trajectories(
        &self,
        purpose: u64,
        base_id: u64,
        count: usize,
        (len_lo, len_hi): (usize, usize),
    ) -> Vec<Trajectory> {
        let mut rng = SplitMix64::stream(self.seed, purpose);
        let span = len_hi - len_lo + 1;
        (0..count)
            .map(|i| {
                // 7 and 13 are coprime to every span and route count the
                // workloads use, so both cycles visit every value.
                let len = len_lo + (i * 7) % span;
                let route = &self.routes[(i * 13) % self.routes.len()];
                self.follow(&mut rng, base_id + i as u64, route, len)
            })
            .collect()
    }

    /// One trajectory of `len` points along a random stretch (at least
    /// 60 %) of `route`.
    fn follow(&self, rng: &mut SplitMix64, id: u64, route: &[Point], len: usize) -> Trajectory {
        let total = (route.len() - 1) as f64;
        let stretch = rng.range(0.6, 1.0) * total;
        let start = rng.range(0.0, total - stretch);
        let points = (0..len)
            .map(|k| {
                let at = start + stretch * k as f64 / (len - 1).max(1) as f64;
                let seg = (at.floor() as usize).min(route.len() - 2);
                let p = route[seg].lerp(&route[seg + 1], at - seg as f64);
                Point::new(
                    (p.x + rng.noise(JITTER)).clamp(0.0, EXTENT.0),
                    (p.y + rng.noise(JITTER)).clamp(0.0, EXTENT.1),
                )
            })
            .collect();
        Trajectory::new_unchecked(id, points)
    }
}

/// Folds trajectories into `hash`: id, length, then every coordinate's
/// bit pattern.
pub fn fingerprint(hash: &mut Fnv64, trajectories: &[Trajectory]) {
    for t in trajectories {
        hash.write_u64(t.id);
        hash.write_u64(t.len() as u64);
        for p in t.points() {
            hash.write_u64(p.x.to_bits());
            hash.write_u64(p.y.to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(ts: &[Trajectory]) -> u64 {
        let mut h = Fnv64::default();
        fingerprint(&mut h, ts);
        h.finish()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = World::new(2019, 8).trajectories(purpose::CORPUS, 0, 50, (20, 60));
        let b = World::new(2019, 8).trajectories(purpose::CORPUS, 0, 50, (20, 60));
        let c = World::new(7, 8).trajectories(purpose::CORPUS, 0, 50, (20, 60));
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&a), hash_of(&c));
        // Different purposes of one seed are different streams.
        let d = World::new(2019, 8).trajectories(purpose::POOL, 0, 50, (20, 60));
        assert_ne!(hash_of(&a), hash_of(&d));
    }

    #[test]
    fn work_is_seed_independent_and_points_stay_inside() {
        let a = World::new(1, 16).trajectories(purpose::CORPUS, 100, 400, (20, 60));
        let b = World::new(2, 16).trajectories(purpose::CORPUS, 100, 400, (20, 60));
        let lens = |ts: &[Trajectory]| ts.iter().map(Trajectory::len).collect::<Vec<_>>();
        assert_eq!(lens(&a), lens(&b));
        assert_eq!(a[3].id, 103);
        assert!(a.iter().all(|t| (20..=60).contains(&t.len())));
        assert!(lens(&a).contains(&20) && lens(&a).contains(&60));
        for t in a.iter().chain(&b) {
            t.validate()
                .expect("generated trajectories are valid input");
            assert!(t
                .points()
                .iter()
                .all(|p| (0.0..=EXTENT.0).contains(&p.x) && (0.0..=EXTENT.1).contains(&p.y)));
        }
    }

    #[test]
    fn trajectories_of_one_route_are_near_each_other() {
        let w = World::new(5, 4);
        let ts = w.trajectories(purpose::CORPUS, 0, 8, (40, 40));
        // Index 0 and 4 share route 0; index 1 follows route 1.
        let gap =
            |a: &Trajectory, b: &Trajectory| a.centroid().unwrap().dist(&b.centroid().unwrap());
        assert!(gap(&ts[0], &ts[4]) < 200.0);
        assert!(ts[0] != ts[4]);
        let _ = gap(&ts[0], &ts[1]);
    }
}
