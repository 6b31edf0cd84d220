//! Parameter-sensitivity sweeps (Figs. 7–8): train one model per
//! parameter value and report its search quality under a fixed ground
//! truth.

use crate::harness::{ExperimentWorld, GroundTruth};
use crate::metrics::SearchQuality;
use neutraj_model::TrainConfig;

/// Sweeps one knob: for each `value`, `apply` derives a configuration
/// from `base`, which is trained on `world`'s seeds under `gt`'s measure
/// and scored against `gt` (δ in metres). Returns `(value, quality)`
/// pairs in input order.
pub fn sweep<V: Copy>(
    world: &ExperimentWorld,
    gt: &GroundTruth,
    base: &TrainConfig,
    values: &[V],
    mut apply: impl FnMut(&TrainConfig, V) -> TrainConfig,
) -> Vec<(V, SearchQuality)> {
    values
        .iter()
        .map(|&v| {
            let (model, _) = world.train(gt.measure(), apply(base, v));
            (v, world.score(&model, gt))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{DatasetKind, WorldConfig};
    use neutraj_measures::MeasureKind;

    fn tiny() -> (ExperimentWorld, GroundTruth) {
        let world = ExperimentWorld::build(WorldConfig {
            size: 100,
            ..WorldConfig::small(DatasetKind::PortoLike)
        });
        let gt = world.ground_truth(MeasureKind::Hausdorff, 4);
        (world, gt)
    }

    fn tiny_cfg() -> TrainConfig {
        TrainConfig {
            dim: 8,
            epochs: 1,
            n_samples: 3,
            ..TrainConfig::neutraj()
        }
    }

    #[test]
    fn sweep_produces_one_result_per_value() {
        let (world, gt) = tiny();
        let results = sweep(&world, &gt, &tiny_cfg(), &[4, 8], |b, d| TrainConfig {
            dim: d,
            ..b.clone()
        });
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, 4);
        assert_eq!(results[1].0, 8);
        for (_, q) in &results {
            assert!((0.0..=1.0).contains(&q.hr10));
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let (world, gt) = tiny();
        let widths = |b: &TrainConfig, w| TrainConfig {
            scan_width: w,
            ..b.clone()
        };
        let a = sweep(&world, &gt, &tiny_cfg(), &[0, 2], widths);
        let b = sweep(&world, &gt, &tiny_cfg(), &[0, 2], widths);
        assert_eq!(
            a.iter().map(|(_, q)| q.hr10).collect::<Vec<_>>(),
            b.iter().map(|(_, q)| q.hr10).collect::<Vec<_>>()
        );
    }
}
