//! Chaos suite: kill training at every checkpoint boundary, resume, and
//! demand **bit-identical** final parameters; damage checkpoints and
//! demand graceful fallback. This is the executable form of the
//! crash-safety contract in `DESIGN.md` §9.

use neutraj_measures::{DistanceMatrix, Hausdorff};
use neutraj_model::{Checkpoint, CheckpointPolicy, TrainConfig, Trainer};
use neutraj_obs::{names, Registry};
use neutraj_trajectory::gen::PortoLikeGenerator;
use neutraj_trajectory::{Grid, Trajectory};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const EPOCHS: usize = 4;

fn world() -> (Grid, Vec<Trajectory>, DistanceMatrix) {
    let ds = PortoLikeGenerator {
        num_trajectories: 24,
        num_templates: 6,
        max_len: 25,
        ..Default::default()
    }
    .generate(42);
    let seeds = ds.trajectories().to_vec();
    let grid = Grid::covering(&seeds, 100.0).unwrap();
    let rescaled: Vec<Trajectory> = seeds.iter().map(|t| grid.rescale_trajectory(t)).collect();
    let dist = DistanceMatrix::compute(&Hausdorff, &rescaled);
    (grid, seeds, dist)
}

fn cfg(preset: TrainConfig) -> TrainConfig {
    TrainConfig {
        dim: 8,
        n_samples: 4,
        batch_anchors: 8,
        epochs: EPOCHS,
        ..preset
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neutraj_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs training to completion with a stop flag raised from the `k`-th
/// epoch callback — the trainer writes a final checkpoint at that
/// boundary and returns `interrupted`.
fn interrupted_run(
    preset: TrainConfig,
    grid: &Grid,
    seeds: &[Trajectory],
    dist: &DistanceMatrix,
    dir: &Path,
    kill_after_epoch: usize,
) {
    let flag = Arc::new(AtomicBool::new(false));
    let policy = CheckpointPolicy::every_epoch(dir).with_stop_flag(flag.clone());
    let (_m, report) = Trainer::new(cfg(preset), grid.clone())
        .with_checkpoints(policy)
        .fit(seeds, dist, |s| {
            if s.epoch + 1 == kill_after_epoch {
                flag.store(true, Ordering::Relaxed);
            }
        });
    assert!(report.interrupted, "stop flag should interrupt the run");
    assert_eq!(report.epoch_losses.len(), kill_after_epoch);
}

#[test]
fn kill_at_every_boundary_then_resume_is_bit_identical() {
    let (grid, seeds, dist) = world();
    for preset in [TrainConfig::neutraj(), TrainConfig::nt_no_sam()] {
        let name = cfg(preset.clone()).method_name();
        let (full, full_report) =
            Trainer::new(cfg(preset.clone()), grid.clone()).fit(&seeds, &dist, |_| {});
        assert_eq!(full_report.epoch_losses.len(), EPOCHS);

        for k in 1..EPOCHS {
            let dir = tmp_dir(&format!("kill_{name}_{k}"));
            interrupted_run(preset.clone(), &grid, &seeds, &dist, &dir, k);

            let (resumed, report) = Trainer::new(cfg(preset.clone()), grid.clone())
                .resume(&dir, &seeds, &dist, |_| {})
                .expect("resume");
            assert_eq!(
                report.epoch_losses, full_report.epoch_losses,
                "{name}: losses diverged after kill at epoch {k}"
            );
            assert!(!report.interrupted);
            assert_eq!(
                full.to_bytes(),
                resumed.to_bytes(),
                "{name}: kill at epoch {k} + resume is not bit-identical"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn resume_falls_back_to_newest_valid_checkpoint() {
    let (grid, seeds, dist) = world();
    let preset = TrainConfig::nt_no_sam();
    let (full, _) = Trainer::new(cfg(preset.clone()), grid.clone()).fit(&seeds, &dist, |_| {});

    // Interrupt after 3 epochs with every-epoch checkpoints → files for
    // boundaries 1, 2 and 3 exist. Corrupt #3 and truncate #2: resume must
    // fall back to #1 and still converge to the uninterrupted result.
    let dir = tmp_dir("fallback");
    interrupted_run(preset.clone(), &grid, &seeds, &dist, &dir, 3);
    let newest = dir.join(Checkpoint::file_name(3));
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();
    let second = dir.join(Checkpoint::file_name(2));
    let bytes = std::fs::read(&second).unwrap();
    std::fs::write(&second, &bytes[..bytes.len() / 2]).unwrap();

    let registry = Registry::new();
    let (resumed, _) = Trainer::new(cfg(preset), grid.clone())
        .with_metrics(&registry)
        .resume(&dir, &seeds, &dist, |_| {})
        .expect("resume past damaged checkpoints");
    assert_eq!(full.to_bytes(), resumed.to_bytes());
    assert_eq!(registry.counter(names::CKPT_CORRUPTION_TOTAL).get(), 2);
    assert_eq!(registry.counter(names::CKPT_FALLBACK_TOTAL).get(), 1);
    assert_eq!(registry.counter(names::CKPT_RESTORES_TOTAL).get(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_all_checkpoints_damaged_errors_cleanly() {
    let (grid, seeds, dist) = world();
    let preset = TrainConfig::nt_no_sam();
    let dir = tmp_dir("all_damaged");
    interrupted_run(preset.clone(), &grid, &seeds, &dist, &dir, 2);
    for f in Checkpoint::list_dir(&dir).unwrap() {
        let bytes = std::fs::read(&f).unwrap();
        std::fs::write(&f, &bytes[..bytes.len() - 7]).unwrap();
    }
    let err = Trainer::new(cfg(preset), grid.clone())
        .resume(&dir, &seeds, &dist, |_| {})
        .unwrap_err();
    assert!(err.to_string().contains("damaged"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_config_mismatch_and_empty_dir() {
    let (grid, seeds, dist) = world();
    let dir = tmp_dir("mismatch");
    interrupted_run(TrainConfig::nt_no_sam(), &grid, &seeds, &dist, &dir, 1);

    // Different dim → reject before any training happens.
    let other = TrainConfig {
        dim: 16,
        ..cfg(TrainConfig::nt_no_sam())
    };
    let err = Trainer::new(other, grid.clone())
        .resume(&dir, &seeds, &dist, |_| {})
        .unwrap_err();
    assert!(err.to_string().contains("configuration"), "{err}");

    let empty = tmp_dir("empty");
    let err = Trainer::new(cfg(TrainConfig::nt_no_sam()), grid.clone())
        .resume(&empty, &seeds, &dist, |_| {})
        .unwrap_err();
    assert!(err.to_string().contains("no checkpoint"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn checkpointing_is_observational_and_retention_holds() {
    let (grid, seeds, dist) = world();
    let preset = TrainConfig::nt_no_sam();
    let (plain, _) = Trainer::new(cfg(preset.clone()), grid.clone()).fit(&seeds, &dist, |_| {});

    let dir = tmp_dir("observational");
    let registry = Registry::new();
    let (ckpted, _) = Trainer::new(cfg(preset.clone()), grid.clone())
        .with_metrics(&registry)
        .with_checkpoints(CheckpointPolicy::every_epoch(&dir).with_keep(2))
        .fit(&seeds, &dist, |_| {});
    // Writing checkpoints never perturbs training.
    assert_eq!(plain.to_bytes(), ckpted.to_bytes());
    // Retention kept only the newest two files.
    assert_eq!(Checkpoint::list_dir(&dir).unwrap().len(), 2);
    assert_eq!(
        registry.counter(names::CKPT_WRITES_TOTAL).get(),
        EPOCHS as u64
    );
    assert_eq!(
        registry.histogram(names::CKPT_WRITE_SECONDS).count(),
        EPOCHS as u64
    );

    // Resuming from the final boundary re-runs nothing and still yields
    // the exact final model (only the memory refresh remains).
    let (resumed, report) = Trainer::new(cfg(preset), grid.clone())
        .resume(&dir, &seeds, &dist, |_| {})
        .expect("resume from completed run");
    assert_eq!(report.epoch_losses.len(), EPOCHS);
    assert_eq!(plain.to_bytes(), resumed.to_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn early_stopped_checkpoint_resumes_without_extra_epochs() {
    let (grid, seeds, dist) = world();
    let preset = TrainConfig {
        epochs: 30,
        lr: 1e-9, // frozen ⇒ loss cannot improve ⇒ patience fires
        patience: Some(2),
        ..cfg(TrainConfig::nt_no_sam())
    };
    let dir = tmp_dir("early_stop");
    let (full, full_report) = Trainer::new(preset.clone(), grid.clone())
        .with_checkpoints(CheckpointPolicy::every_epoch(&dir))
        .fit(&seeds, &dist, |_| {});
    assert!(full_report.early_stopped);

    let (resumed, report) = Trainer::new(preset, grid.clone())
        .resume(&dir, &seeds, &dist, |_| {})
        .expect("resume");
    assert!(report.early_stopped);
    assert_eq!(report.epoch_losses, full_report.epoch_losses);
    assert_eq!(full.to_bytes(), resumed.to_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}
