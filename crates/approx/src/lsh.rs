//! Multi-table locality-sensitive hashing of curves.

use neutraj_trajectory::rng::Rng;
use neutraj_trajectory::{Point, Trajectory};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Locality-sensitive hashing of curves à la Driemel & Silvestri
/// (SoCG'17): each of `L` tables snaps curves to its own randomly-shifted
/// grid of resolution δ and hashes the deduplicated cell sequence. Curves
/// within Fréchet distance ≈ δ of each other collide with constant
/// probability per table; candidate quality grows with the number of
/// tables a pair co-occurs in.
///
/// This is a *candidate generator*: pair it with an exact or approximate
/// ranker. [`CurveLsh::candidates`] returns colliding corpus indices
/// sorted by descending collision count.
#[derive(Debug, Clone)]
pub struct CurveLsh {
    delta: f64,
    shifts: Vec<Point>,
    /// One bucket map per table: hash → corpus indices.
    tables: Vec<HashMap<u64, Vec<usize>>>,
    len: usize,
}

impl CurveLsh {
    /// Builds `num_tables` hash tables of resolution `delta` over
    /// `corpus`.
    pub fn build(corpus: &[Trajectory], delta: f64, num_tables: usize, seed: u64) -> Self {
        assert!(delta > 0.0 && delta.is_finite(), "delta must be positive");
        assert!(num_tables > 0, "need at least one table");
        let mut rng = Rng::seed_from_u64(seed);
        let shifts: Vec<Point> = (0..num_tables)
            .map(|_| Point::new(rng.gen_range(0.0..delta), rng.gen_range(0.0..delta)))
            .collect();
        let mut tables = vec![HashMap::new(); num_tables];
        for (i, t) in corpus.iter().enumerate() {
            for (table, shift) in tables.iter_mut().zip(&shifts) {
                let h = hash_signature(t.points(), delta, *shift);
                table.entry(h).or_insert_with(Vec::new).push(i);
            }
        }
        Self {
            delta,
            shifts,
            tables,
            len: corpus.len(),
        }
    }

    /// Grid resolution δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of hash tables `L`.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of indexed curves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Corpus indices colliding with `query` in at least one table,
    /// ordered by descending collision count (ties by index).
    pub fn candidates(&self, query: &Trajectory) -> Vec<(usize, usize)> {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for (table, shift) in self.tables.iter().zip(&self.shifts) {
            let h = hash_signature(query.points(), self.delta, *shift);
            if let Some(bucket) = table.get(&h) {
                for &i in bucket {
                    *counts.entry(i).or_insert(0) += 1;
                }
            }
        }
        let mut out: Vec<(usize, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// Hashes the deduplicated snapped-cell sequence of a curve.
fn hash_signature(points: &[Point], delta: f64, shift: Point) -> u64 {
    let mut hasher = DefaultHasher::new();
    let mut last: Option<(i64, i64)> = None;
    for p in points {
        let cell = (
            ((p.x + shift.x) / delta).floor() as i64,
            ((p.y + shift.y) / delta).floor() as i64,
        );
        if last != Some(cell) {
            cell.hash(&mut hasher);
            last = Some(cell);
        }
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_line(id: u64, y: f64, wiggle: f64) -> Trajectory {
        Trajectory::new_unchecked(
            id,
            (0..30)
                .map(|k| {
                    Point::new(
                        k as f64 * 4.0,
                        y + ((k * 2654435761u64.wrapping_mul(id + 1) as usize as u64 % 100) as f64
                            / 100.0
                            - 0.5)
                            * wiggle,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn identical_curves_always_collide() {
        let ts = vec![noisy_line(0, 0.0, 0.0), noisy_line(1, 0.0, 0.0)];
        let lsh = CurveLsh::build(&ts, 10.0, 8, 1);
        let c = lsh.candidates(&ts[0]);
        assert_eq!(c[0], (0, 8));
        assert!(c.contains(&(1, 8)), "duplicate curve missed");
    }

    #[test]
    fn near_curves_collide_more_than_far_curves() {
        let ts = vec![
            noisy_line(0, 0.0, 1.0),
            noisy_line(1, 1.0, 1.0),   // near the query
            noisy_line(2, 500.0, 1.0), // far
        ];
        let lsh = CurveLsh::build(&ts, 20.0, 16, 2);
        let c = lsh.candidates(&ts[0]);
        let near = c.iter().find(|(i, _)| *i == 1).map_or(0, |(_, n)| *n);
        let far = c.iter().find(|(i, _)| *i == 2).map_or(0, |(_, n)| *n);
        assert!(near > far, "near {near} <= far {far}");
        assert_eq!(far, 0, "far curve should never collide");
    }

    #[test]
    fn collision_rate_grows_with_delta() {
        let ts = vec![noisy_line(0, 0.0, 1.0), noisy_line(1, 6.0, 1.0)];
        let coarse = CurveLsh::build(&ts, 50.0, 16, 3);
        let fine = CurveLsh::build(&ts, 2.0, 16, 3);
        let count = |lsh: &CurveLsh| {
            lsh.candidates(&ts[0])
                .iter()
                .find(|(i, _)| *i == 1)
                .map_or(0, |(_, n)| *n)
        };
        assert!(count(&coarse) >= count(&fine));
    }

    #[test]
    fn deterministic() {
        let ts = vec![noisy_line(0, 0.0, 2.0), noisy_line(1, 3.0, 2.0)];
        let a = CurveLsh::build(&ts, 10.0, 4, 7);
        let b = CurveLsh::build(&ts, 10.0, 4, 7);
        assert_eq!(a.candidates(&ts[0]), b.candidates(&ts[0]));
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn rejects_zero_tables() {
        let _ = CurveLsh::build(&[], 1.0, 0, 0);
    }
}
