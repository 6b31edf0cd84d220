//! Trajectory corpora with the paper's preprocessing and split protocol.

use crate::rng::Rng;
use crate::{BoundingBox, Result, TrajError, Trajectory};

/// Ratios for a train/validation/test split.
///
/// The paper uses 20% seeds for training, 10% for parameter tuning and 70%
/// for testing (§VII-A.2); [`SplitRatios::PAPER`] encodes exactly that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitRatios {
    /// Fraction of trajectories used as training seeds.
    pub train: f64,
    /// Fraction used for validation / parameter tuning.
    pub validation: f64,
}

impl SplitRatios {
    /// The paper's 20% / 10% / 70% protocol.
    pub const PAPER: SplitRatios = SplitRatios {
        train: 0.2,
        validation: 0.1,
    };

    /// Validates that both fractions are in `[0, 1]` and sum to at most 1.
    pub fn validate(&self) -> Result<()> {
        let ok = (0.0..=1.0).contains(&self.train)
            && (0.0..=1.0).contains(&self.validation)
            && self.train + self.validation <= 1.0 + 1e-12;
        if ok {
            Ok(())
        } else {
            Err(TrajError::InvalidSplit(format!(
                "train={} validation={}",
                self.train, self.validation
            )))
        }
    }
}

/// The result of splitting a [`Dataset`]: indices into the dataset for each
/// partition. Test receives whatever train and validation do not.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Indices of training (seed) trajectories.
    pub train: Vec<usize>,
    /// Indices of validation trajectories.
    pub validation: Vec<usize>,
    /// Indices of test trajectories.
    pub test: Vec<usize>,
}

/// An in-memory corpus of trajectories.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    trajectories: Vec<Trajectory>,
}

impl Dataset {
    /// Creates a dataset from trajectories.
    pub fn new(trajectories: Vec<Trajectory>) -> Self {
        Self { trajectories }
    }

    /// The trajectories in insertion order.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// Number of trajectories.
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Returns `true` when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Borrow a trajectory by position.
    pub fn get(&self, idx: usize) -> Option<&Trajectory> {
        self.trajectories.get(idx)
    }

    /// Adds a trajectory to the corpus.
    pub fn push(&mut self, t: Trajectory) {
        self.trajectories.push(t);
    }

    /// Consumes the dataset, yielding its trajectories.
    pub fn into_trajectories(self) -> Vec<Trajectory> {
        self.trajectories
    }

    /// Union of all trajectory MBRs.
    pub fn extent(&self) -> BoundingBox {
        self.trajectories
            .iter()
            .fold(BoundingBox::EMPTY, |bb, t| bb.union(&t.mbr()))
    }

    /// The paper's preprocessing (§VII-A.1): clip each trajectory to the
    /// `center` area (keeping its longest contiguous run inside) and drop
    /// trajectories with fewer than `min_points` remaining records.
    pub fn preprocess(&self, center: &BoundingBox, min_points: usize) -> Dataset {
        let trajectories = self
            .trajectories
            .iter()
            .filter_map(|t| t.clip_to(center))
            .filter(|t| t.len() >= min_points)
            .collect();
        Dataset { trajectories }
    }

    /// Drops trajectories shorter than `min_points`.
    pub fn filter_min_len(&self, min_points: usize) -> Dataset {
        Dataset {
            trajectories: self
                .trajectories
                .iter()
                .filter(|t| t.len() >= min_points)
                .cloned()
                .collect(),
        }
    }

    /// Deterministically shuffles indices with `seed` and partitions them
    /// by `ratios` (train, then validation, remainder test).
    pub fn split(&self, ratios: SplitRatios, seed: u64) -> Result<Split> {
        ratios.validate()?;
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = Rng::seed_from_u64(seed);
        rng.shuffle(&mut idx);
        let n_train = (self.len() as f64 * ratios.train).round() as usize;
        let n_val = (self.len() as f64 * ratios.validation).round() as usize;
        let n_train = n_train.min(self.len());
        let n_val = n_val.min(self.len() - n_train);
        let train = idx[..n_train].to_vec();
        let validation = idx[n_train..n_train + n_val].to_vec();
        let test = idx[n_train + n_val..].to_vec();
        Ok(Split {
            train,
            validation,
            test,
        })
    }

    /// Deterministically samples `n` distinct trajectory indices.
    /// Returns fewer when the corpus is smaller than `n`.
    pub fn sample_indices(&self, n: usize, seed: u64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = Rng::seed_from_u64(seed);
        rng.shuffle(&mut idx);
        idx.truncate(n);
        idx
    }

    /// Materializes a sub-corpus from indices (cloning the trajectories and
    /// keeping their original ids).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            trajectories: indices
                .iter()
                .map(|&i| self.trajectories[i].clone())
                .collect(),
        }
    }
}

impl FromIterator<Trajectory> for Dataset {
    fn from_iter<I: IntoIterator<Item = Trajectory>>(iter: I) -> Self {
        Dataset {
            trajectories: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Trajectory;
    type IntoIter = std::slice::Iter<'a, Trajectory>;

    fn into_iter(self) -> Self::IntoIter {
        self.trajectories.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    fn corpus(n: usize) -> Dataset {
        (0..n as u64)
            .map(|id| {
                Trajectory::new_unchecked(
                    id,
                    (0..12)
                        .map(|i| Point::new(id as f64 + i as f64, id as f64))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn split_partitions_everything_disjointly() {
        let ds = corpus(100);
        let s = ds.split(SplitRatios::PAPER, 42).unwrap();
        assert_eq!(s.train.len(), 20);
        assert_eq!(s.validation.len(), 10);
        assert_eq!(s.test.len(), 70);
        let mut all: Vec<usize> = s
            .train
            .iter()
            .chain(&s.validation)
            .chain(&s.test)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let ds = corpus(50);
        let a = ds.split(SplitRatios::PAPER, 7).unwrap();
        let b = ds.split(SplitRatios::PAPER, 7).unwrap();
        let c = ds.split(SplitRatios::PAPER, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn invalid_ratios_rejected() {
        let ds = corpus(10);
        assert!(ds
            .split(
                SplitRatios {
                    train: 0.9,
                    validation: 0.5
                },
                0
            )
            .is_err());
        assert!(ds
            .split(
                SplitRatios {
                    train: -0.1,
                    validation: 0.1
                },
                0
            )
            .is_err());
    }

    #[test]
    fn preprocess_filters_and_clips() {
        let mut ds = corpus(5);
        // A trajectory far outside the centre area.
        ds.push(Trajectory::new_unchecked(
            99,
            vec![Point::new(1e6, 1e6); 20],
        ));
        let center = BoundingBox::new(-10.0, -10.0, 100.0, 100.0);
        let pp = ds.preprocess(&center, 10);
        assert_eq!(pp.len(), 5);
        assert!(pp.trajectories().iter().all(|t| t.len() >= 10));
    }

    #[test]
    fn sample_indices_distinct_and_deterministic() {
        let ds = corpus(30);
        let a = ds.sample_indices(10, 3);
        let b = ds.sample_indices(10, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        // Requesting more than available returns everything.
        assert_eq!(ds.sample_indices(100, 0).len(), 30);
    }

    #[test]
    fn subset_preserves_ids() {
        let ds = corpus(5);
        let sub = ds.subset(&[4, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(0).unwrap().id, 4);
        assert_eq!(sub.get(1).unwrap().id, 1);
    }

    #[test]
    fn extent_covers_all() {
        let ds = corpus(3);
        let e = ds.extent();
        for t in ds.trajectories() {
            for p in t.points() {
                assert!(e.contains(*p));
            }
        }
    }
}
