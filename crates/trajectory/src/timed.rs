//! Timestamped trajectories — the paper's first future-work item
//! ("extend NeuTraj for trajectories with time dimension", §VIII).
//!
//! The core pipeline stays shape-based; this module adds the *time
//! substrate*: a validated timestamped trajectory type, interpolation,
//! time-uniform resampling, and the conversion that lets time-aware
//! measures (see `neutraj_measures::timed`) plug into the unchanged
//! seed-guided learning pipeline.

use crate::{Point, Result, TrajError, Trajectory};

/// A timestamped 2-D sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedPoint {
    /// Position.
    pub pos: Point,
    /// Timestamp in seconds (any epoch, must be strictly increasing
    /// within a trajectory).
    pub t: f64,
}

impl TimedPoint {
    /// Creates a timestamped sample.
    pub fn new(x: f64, y: f64, t: f64) -> Self {
        Self {
            pos: Point::new(x, y),
            t,
        }
    }
}

/// A trajectory whose points carry strictly increasing timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedTrajectory {
    /// Stable identifier within its corpus.
    pub id: u64,
    points: Vec<TimedPoint>,
}

impl TimedTrajectory {
    /// Creates a timed trajectory, validating finiteness and strict
    /// timestamp monotonicity.
    pub fn new(id: u64, points: Vec<TimedPoint>) -> Result<Self> {
        for (index, p) in points.iter().enumerate() {
            if !p.pos.is_finite() || !p.t.is_finite() {
                return Err(TrajError::NonFiniteCoordinate { index });
            }
            if index > 0 && p.t <= points[index - 1].t {
                return Err(TrajError::Parse {
                    line: index,
                    msg: format!(
                        "timestamps must be strictly increasing: t[{}]={} after t[{}]={}",
                        index,
                        p.t,
                        index - 1,
                        points[index - 1].t
                    ),
                });
            }
        }
        Ok(Self { id, points })
    }

    /// Builds a timed trajectory from a spatial one by assigning
    /// timestamps from a constant `speed` (coordinate units per second),
    /// starting at `t0`. Zero-length segments advance time by a minimal
    /// epsilon to preserve strict monotonicity.
    pub fn from_trajectory(t: &Trajectory, speed: f64, t0: f64) -> Result<Self> {
        if speed <= 0.0 || speed.is_nan() || !speed.is_finite() {
            return Err(TrajError::Parse {
                line: 0,
                msg: format!("speed must be finite-positive, got {speed}"),
            });
        }
        let mut out = Vec::with_capacity(t.len());
        let mut clock = t0;
        let mut prev: Option<Point> = None;
        for p in t.points() {
            if let Some(q) = prev {
                clock += (q.dist(p) / speed).max(1e-9);
            }
            out.push(TimedPoint { pos: *p, t: clock });
            prev = Some(*p);
        }
        Self::new(t.id, out)
    }

    /// The samples.
    pub fn points(&self) -> &[TimedPoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Time range `[start, end]`, `None` when empty.
    pub fn time_span(&self) -> Option<(f64, f64)> {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => Some((a.t, b.t)),
            _ => None,
        }
    }

    /// Total duration in seconds (0 for fewer than 2 samples).
    pub fn duration(&self) -> f64 {
        self.time_span().map_or(0.0, |(a, b)| b - a)
    }

    /// Position at time `t`, linearly interpolated; clamps to the first /
    /// last sample outside the recorded span. `None` when empty.
    pub fn position_at(&self, t: f64) -> Option<Point> {
        let first = self.points.first()?;
        let last = self.points.last()?;
        if t <= first.t {
            return Some(first.pos);
        }
        if t >= last.t {
            return Some(last.pos);
        }
        // Binary search the bracketing segment.
        let idx = self
            .points
            .partition_point(|p| p.t <= t)
            .min(self.points.len() - 1);
        let hi = &self.points[idx];
        let lo = &self.points[idx - 1];
        let frac = (t - lo.t) / (hi.t - lo.t);
        Some(lo.pos.lerp(&hi.pos, frac))
    }

    /// Resamples to a uniform sampling period `dt` over the recorded
    /// span (endpoints included). Requires ≥ 2 samples and `dt > 0`.
    pub fn resample_period(&self, dt: f64) -> Result<TimedTrajectory> {
        if self.points.len() < 2 {
            return Err(TrajError::TooShort {
                got: self.points.len(),
                need: 2,
            });
        }
        if dt <= 0.0 || dt.is_nan() || !dt.is_finite() {
            return Err(TrajError::Parse {
                line: 0,
                msg: format!("dt must be finite-positive, got {dt}"),
            });
        }
        let (start, end) = self.time_span().expect("len >= 2");
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            out.push(TimedPoint {
                pos: self.position_at(t).expect("non-empty"),
                t,
            });
            t += dt;
        }
        out.push(TimedPoint {
            pos: self.points.last().expect("non-empty").pos,
            t: end,
        });
        Self::new(self.id, out)
    }

    /// Drops the time dimension.
    pub fn to_trajectory(&self) -> Trajectory {
        Trajectory::new_unchecked(self.id, self.points.iter().map(|p| p.pos).collect())
    }

    /// Mean speed over the trajectory (path length / duration), 0 when
    /// degenerate.
    pub fn mean_speed(&self) -> f64 {
        let d = self.duration();
        if d <= 0.0 {
            0.0
        } else {
            self.to_trajectory().path_length() / d
        }
    }
}

/// Synchronizes a set of timed trajectories onto a common clock: each is
/// resampled at period `dt` *relative to its own start* and converted to
/// a plain [`Trajectory`]. Point `k` of every output then corresponds to
/// elapsed time `k·dt`, so lockstep measures (and NeuTraj trained on
/// them) become time-aware. Trajectories too short to resample are
/// dropped.
pub fn synchronize(trajs: &[TimedTrajectory], dt: f64) -> Vec<Trajectory> {
    trajs
        .iter()
        .filter_map(|t| t.resample_period(dt).ok())
        .map(|t| t.to_trajectory())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diagonal() -> TimedTrajectory {
        // Moves (0,0) → (10,10) over t ∈ [0, 10].
        TimedTrajectory::new(
            1,
            (0..=10)
                .map(|i| TimedPoint::new(i as f64, i as f64, i as f64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_non_monotone_time() {
        let bad = vec![
            TimedPoint::new(0.0, 0.0, 1.0),
            TimedPoint::new(1.0, 0.0, 1.0),
        ];
        assert!(TimedTrajectory::new(0, bad).is_err());
        let bad = vec![
            TimedPoint::new(0.0, 0.0, 2.0),
            TimedPoint::new(1.0, 0.0, 1.0),
        ];
        assert!(TimedTrajectory::new(0, bad).is_err());
        let bad = vec![TimedPoint::new(0.0, f64::NAN, 0.0)];
        assert!(TimedTrajectory::new(0, bad).is_err());
    }

    #[test]
    fn position_interpolates_and_clamps() {
        let t = diagonal();
        assert_eq!(t.position_at(5.0), Some(Point::new(5.0, 5.0)));
        assert_eq!(t.position_at(2.5), Some(Point::new(2.5, 2.5)));
        assert_eq!(t.position_at(-3.0), Some(Point::new(0.0, 0.0)));
        assert_eq!(t.position_at(99.0), Some(Point::new(10.0, 10.0)));
    }

    #[test]
    fn spans_and_speed() {
        let t = diagonal();
        assert_eq!(t.time_span(), Some((0.0, 10.0)));
        assert_eq!(t.duration(), 10.0);
        assert!((t.mean_speed() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn resample_period_uniform() {
        let t = diagonal();
        let r = t.resample_period(2.5).unwrap();
        let times: Vec<f64> = r.points().iter().map(|p| p.t).collect();
        assert_eq!(times, vec![0.0, 2.5, 5.0, 7.5, 10.0]);
        for p in r.points() {
            assert!((p.pos.x - p.t).abs() < 1e-9);
        }
        assert!(t.resample_period(0.0).is_err());
    }

    #[test]
    fn from_trajectory_assigns_consistent_clock() {
        let base = Trajectory::new_unchecked(
            7,
            vec![
                Point::new(0.0, 0.0),
                Point::new(6.0, 8.0),
                Point::new(6.0, 8.0),
            ],
        );
        let timed = TimedTrajectory::from_trajectory(&base, 2.0, 100.0).unwrap();
        assert_eq!(timed.points()[0].t, 100.0);
        assert!((timed.points()[1].t - 105.0).abs() < 1e-9); // 10 units at speed 2
        assert!(timed.points()[2].t > timed.points()[1].t); // epsilon bump
        assert_eq!(timed.to_trajectory().points(), base.points());
        assert!(TimedTrajectory::from_trajectory(&base, 0.0, 0.0).is_err());
    }

    #[test]
    fn synchronize_aligns_clocks() {
        let a = diagonal();
        // Same path, twice as fast.
        let b = TimedTrajectory::new(
            2,
            (0..=10)
                .map(|i| TimedPoint::new(i as f64, i as f64, i as f64 * 0.5))
                .collect(),
        )
        .unwrap();
        let sync = synchronize(&[a, b], 1.0);
        assert_eq!(sync.len(), 2);
        // At elapsed time 1 s the fast trajectory is twice as far along.
        assert_eq!(sync[0].points()[1], Point::new(1.0, 1.0));
        assert_eq!(sync[1].points()[1], Point::new(2.0, 2.0));
        // Durations differ, so lengths differ.
        assert_eq!(sync[0].len(), 11);
        assert_eq!(sync[1].len(), 6);
    }
}
