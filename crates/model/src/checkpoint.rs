//! Crash-safe training checkpoints.
//!
//! A [`Checkpoint`] is a **superset of a model file**: the `NTMODEL1`
//! payload (config, grid, parameters, spatial memory) followed by an
//! `NTCKPT01` section carrying the full mutable training state — Adam
//! first/second moments and step count, the epoch cursor, best-loss /
//! early-stopping counters, and the per-epoch loss history. Because the
//! trainer reseeds its RNG deterministically at every epoch start and
//! resets the SAM memory at every epoch boundary, an epoch-boundary
//! checkpoint captures *everything* the rest of the run depends on:
//! resuming from one produces bit-identical final parameters to an
//! uninterrupted run (asserted in `tests/chaos.rs`).
//!
//! Files are written through the same hardened path as models: CRC32
//! envelope + temp-file + fsync + atomic rename. [`NeuTrajModel::load`]
//! accepts a checkpoint file directly (it skips the training-state
//! section), so a serving process can always start from the newest
//! checkpoint even if the final `save` never happened.

use crate::backbone::NeuTrajModel;
use crate::persist::{
    decode_f64s, decode_model, encode_f64s, encode_model, fail, load_sealed, save_sealed,
    PersistError,
};
use neutraj_nn::AdamState;
use neutraj_trajectory::cursor::{PutLe, Reader};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Magic header + version of the training-state section.
pub(crate) const CKPT_MAGIC: &[u8; 8] = b"NTCKPT01";

/// File extension of checkpoint files written by the trainer.
pub const CKPT_EXTENSION: &str = "ntc";

/// The mutable training state at an epoch boundary — everything
/// [`Trainer::fit`](crate::Trainer::fit) needs, beyond the parameters
/// themselves, to continue a run bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Next epoch to run (== number of completed epochs).
    pub next_epoch: usize,
    /// Whether early stopping already fired (the run is finished even if
    /// `next_epoch < cfg.epochs`).
    pub early_stopped: bool,
    /// Best per-anchor epoch loss seen so far.
    pub best_loss: f64,
    /// Consecutive non-improving epochs (early-stopping counter).
    pub stale: usize,
    /// The similarity sharpness α in effect for this run.
    pub alpha: f64,
    /// Mean per-anchor loss of every completed epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock seconds of every completed epoch.
    pub epoch_seconds: Vec<f64>,
    /// Optimizer state (timestep + moment buffers).
    pub adam: AdamState,
}

/// A training checkpoint: the model as of an epoch boundary plus the
/// [`TrainState`] needed to continue.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The model (parameters, config, grid) at the boundary.
    pub model: NeuTrajModel,
    /// The mutable training state at the boundary.
    pub state: TrainState,
}

impl Checkpoint {
    /// Serializes the checkpoint to a raw payload: model payload followed
    /// by the `NTCKPT01` training-state section.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 << 16);
        encode_model(&mut buf, &self.model);
        let s = &self.state;
        buf.put_slice(CKPT_MAGIC);
        buf.put_u64_le(s.next_epoch as u64);
        buf.put_u8(s.early_stopped as u8);
        buf.put_f64_le(s.best_loss);
        buf.put_u64_le(s.stale as u64);
        buf.put_f64_le(s.alpha);
        encode_f64s(&mut buf, &s.epoch_losses);
        encode_f64s(&mut buf, &s.epoch_seconds);
        buf.put_u64_le(s.adam.t as u64);
        buf.put_u64_le(s.adam.moments.len() as u64);
        for (m, v) in &s.adam.moments {
            encode_f64s(&mut buf, m);
            encode_f64s(&mut buf, v);
        }
        buf
    }

    /// Deserializes a checkpoint payload produced by
    /// [`Checkpoint::to_bytes`]. A plain model payload (no training-state
    /// section) is rejected — use [`NeuTrajModel::from_bytes`] for those.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, PersistError> {
        let mut data = Reader::new(data);
        let model = decode_model(&mut data)?;
        if !data.rest().starts_with(CKPT_MAGIC) {
            return Err(fail(
                "missing training-state section (a plain model file, not a checkpoint?)",
            ));
        }
        data.take(CKPT_MAGIC.len())?;
        let next_epoch = data.u64()? as usize;
        let early_stopped = data.u8()? != 0;
        let best_loss = data.f64()?;
        let stale = data.u64()? as usize;
        let alpha = data.f64()?;
        let epoch_losses = decode_f64s(&mut data)?;
        let epoch_seconds = decode_f64s(&mut data)?;
        let t64 = data.u64()?;
        let t = i32::try_from(t64).map_err(|_| fail(format!("implausible adam timestep {t64}")))?;
        let n_slots = data.u64()? as usize;
        if n_slots > 64 {
            return Err(fail(format!("implausible adam slot count {n_slots}")));
        }
        let mut moments = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let m = decode_f64s(&mut data)?;
            let v = decode_f64s(&mut data)?;
            if m.len() != v.len() {
                return Err(fail("adam moment buffer length mismatch"));
            }
            moments.push((m, v));
        }
        if !data.rest().is_empty() {
            return Err(fail(format!(
                "{} trailing bytes after checkpoint state",
                data.rest().len()
            )));
        }
        // Cross-field consistency: structural corruption that survives
        // the byte-level checks must still be caught.
        if epoch_losses.len() != epoch_seconds.len() {
            return Err(fail(format!(
                "epoch history length mismatch: {} losses vs {} timings",
                epoch_losses.len(),
                epoch_seconds.len()
            )));
        }
        if next_epoch != epoch_losses.len() {
            return Err(fail(format!(
                "epoch cursor {} disagrees with {} recorded epochs",
                next_epoch,
                epoch_losses.len()
            )));
        }
        if next_epoch > model.config().epochs {
            return Err(fail(format!(
                "epoch cursor {} beyond configured {} epochs",
                next_epoch,
                model.config().epochs
            )));
        }
        Ok(Checkpoint {
            model,
            state: TrainState {
                next_epoch,
                early_stopped,
                best_loss,
                stale,
                alpha,
                epoch_losses,
                epoch_seconds,
                adam: AdamState { t, moments },
            },
        })
    }

    /// Atomically writes the checkpoint to `path` (envelope + temp file +
    /// fsync + rename).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        save_sealed(path.as_ref(), &self.to_bytes())
    }

    /// Loads and verifies a checkpoint file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Checkpoint, PersistError> {
        Self::from_bytes(&load_sealed(path.as_ref())?)
    }

    /// The canonical checkpoint filename for a boundary after
    /// `epochs_done` completed epochs: `ckpt-000042.ntc`.
    pub fn file_name(epochs_done: usize) -> String {
        format!("ckpt-{epochs_done:06}.{CKPT_EXTENSION}")
    }

    /// Checkpoint files in `dir`, **newest first** (by epoch number in the
    /// filename). Non-checkpoint files are ignored.
    pub fn list_dir(dir: &Path) -> Result<Vec<PathBuf>, PersistError> {
        let mut found: Vec<(usize, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(epoch) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(&format!(".{CKPT_EXTENSION}")))
                .and_then(|s| s.parse::<usize>().ok())
            {
                found.push((epoch, path));
            }
        }
        found.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
        Ok(found.into_iter().map(|(_, p)| p).collect())
    }

    /// Loads the newest checkpoint in `dir` that passes verification,
    /// skipping damaged ones. Returns the checkpoint plus the number of
    /// damaged files skipped; `Ok(None)` when the directory holds no
    /// checkpoint files at all. `on_corrupt` is invoked for every damaged
    /// candidate (recovery layers count these through `neutraj-obs`).
    pub fn load_newest_valid(
        dir: &Path,
        mut on_corrupt: impl FnMut(&Path, &PersistError),
    ) -> Result<Option<(Checkpoint, usize)>, PersistError> {
        let candidates = Self::list_dir(dir)?;
        if candidates.is_empty() {
            return Ok(None);
        }
        let mut skipped = 0usize;
        for path in &candidates {
            match Self::load(path) {
                Ok(ckpt) => return Ok(Some((ckpt, skipped))),
                Err(e) => {
                    on_corrupt(path, &e);
                    skipped += 1;
                }
            }
        }
        Err(PersistError::Corrupted(format!(
            "all {skipped} checkpoint files in {} are damaged",
            dir.display()
        )))
    }
}

/// When the trainer writes checkpoints, and where.
///
/// A checkpoint is written at an epoch boundary when **either** trigger
/// fires: the epoch interval or the stop flag (which also ends the run
/// gracefully — the application typically sets it from a SIGTERM/SIGINT
/// handler). Checkpointing is observational: training results are
/// bit-identical with any policy, including none.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory checkpoint files are written into (created on demand).
    pub dir: PathBuf,
    /// Write every `n` completed epochs (0 disables the epoch trigger).
    pub every_epochs: usize,
    /// Graceful-shutdown flag: when set, the trainer writes a final
    /// checkpoint at the next epoch boundary and returns early with
    /// [`TrainReport::interrupted`](crate::TrainReport::interrupted).
    pub stop: Option<Arc<AtomicBool>>,
    /// Retain only the newest `keep` checkpoint files (0 keeps all).
    /// Keeping ≥ 2 lets resume fall back when the newest file is damaged.
    pub keep: usize,
}

impl CheckpointPolicy {
    /// Checkpoint into `dir` after every completed epoch.
    pub fn every_epoch(dir: impl Into<PathBuf>) -> Self {
        Self::every_epochs(dir, 1)
    }

    /// Checkpoint into `dir` after every `n` completed epochs.
    pub fn every_epochs(dir: impl Into<PathBuf>, n: usize) -> Self {
        Self {
            dir: dir.into(),
            every_epochs: n,
            stop: None,
            keep: 0,
        }
    }

    /// Attaches a graceful-shutdown flag (see [`CheckpointPolicy::stop`]).
    pub fn with_stop_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop = Some(flag);
        self
    }

    /// Retains only the newest `keep` checkpoints (0 keeps all).
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }

    /// Whether the epoch trigger says a checkpoint is due after
    /// `epochs_done` completed epochs.
    pub(crate) fn due(&self, epochs_done: usize) -> bool {
        self.every_epochs > 0 && epochs_done.is_multiple_of(self.every_epochs)
    }

    /// Whether the stop flag is raised.
    pub(crate) fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|f| f.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Deletes checkpoints beyond the retention limit (best-effort; a
    /// failed delete never fails training).
    pub(crate) fn prune(&self) {
        if self.keep == 0 {
            return;
        }
        if let Ok(files) = Checkpoint::list_dir(&self.dir) {
            for old in files.iter().skip(self.keep) {
                let _ = std::fs::remove_file(old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrainConfig;
    use neutraj_trajectory::{BoundingBox, Grid};

    /// A fresh directory of this test process under the temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("neutraj_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ckpt(next_epoch: usize) -> Checkpoint {
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 100.0, 100.0), 10.0).unwrap();
        let cfg = TrainConfig {
            dim: 4,
            epochs: 5,
            ..TrainConfig::nt_no_sam()
        };
        let model = NeuTrajModel::untrained(cfg, grid);
        Checkpoint {
            model,
            state: TrainState {
                next_epoch,
                early_stopped: false,
                best_loss: 0.25,
                stale: 1,
                alpha: 3.5,
                epoch_losses: vec![0.5; next_epoch],
                epoch_seconds: vec![0.01; next_epoch],
                adam: AdamState {
                    t: 7,
                    moments: vec![(vec![0.1; 6], vec![0.2; 6])],
                },
            },
        }
    }

    #[test]
    fn payload_roundtrip() {
        let c = ckpt(3);
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.state, c.state);
        assert_eq!(back.model.to_bytes(), c.model.to_bytes());
    }

    #[test]
    fn model_loader_accepts_checkpoint_payload() {
        let c = ckpt(2);
        let model = NeuTrajModel::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(model.to_bytes(), c.model.to_bytes());
    }

    #[test]
    fn plain_model_payload_is_not_a_checkpoint() {
        let c = ckpt(1);
        let err = Checkpoint::from_bytes(&c.model.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("training-state"), "{err}");
    }

    #[test]
    fn inconsistent_cursor_rejected() {
        let mut c = ckpt(3);
        c.state.next_epoch = 2; // disagrees with 3 recorded losses
        let err = Checkpoint::from_bytes(&c.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("cursor"), "{err}");
        let mut c = ckpt(3);
        c.state.epoch_seconds.pop();
        let err = Checkpoint::from_bytes(&c.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("length mismatch"), "{err}");
    }

    #[test]
    fn file_roundtrip_and_model_superset_load() {
        let dir = scratch_dir("roundtrip");
        let c = ckpt(4);
        let path = dir.join(Checkpoint::file_name(4));
        c.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.state, c.state);
        // A checkpoint file is a superset of a model file.
        let model = NeuTrajModel::load(&path).unwrap();
        assert_eq!(model.to_bytes(), c.model.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_valid_skips_damaged_files() {
        let dir = scratch_dir("fallback");
        ckpt(1).save(dir.join(Checkpoint::file_name(1))).unwrap();
        ckpt(2).save(dir.join(Checkpoint::file_name(2))).unwrap();
        // Damage the newest.
        let newest = dir.join(Checkpoint::file_name(3));
        ckpt(3).save(&newest).unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let mut corrupt_seen = 0;
        let (loaded, skipped) = Checkpoint::load_newest_valid(&dir, |_, _| corrupt_seen += 1)
            .unwrap()
            .expect("some checkpoint");
        assert_eq!(skipped, 1);
        assert_eq!(corrupt_seen, 1);
        assert_eq!(loaded.state.next_epoch, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_damaged_is_an_error_and_empty_is_none() {
        let dir = scratch_dir("all_bad");
        assert!(Checkpoint::load_newest_valid(&dir, |_, _| {})
            .unwrap()
            .is_none());
        std::fs::write(dir.join(Checkpoint::file_name(1)), b"junk").unwrap();
        assert!(Checkpoint::load_newest_valid(&dir, |_, _| {}).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_triggers() {
        let p = CheckpointPolicy::every_epochs("/tmp/x", 2);
        assert!(!p.due(1));
        assert!(p.due(2));
        assert!(p.due(4));
        assert!(!CheckpointPolicy::every_epochs("/tmp/x", 0).due(3));
        let flag = Arc::new(AtomicBool::new(false));
        let p = CheckpointPolicy::every_epoch("/tmp/x").with_stop_flag(flag.clone());
        assert!(!p.stop_requested());
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(p.stop_requested());
    }

    #[test]
    fn retention_prunes_oldest() {
        let dir = scratch_dir("prune");
        for e in 1..=5 {
            ckpt(e).save(dir.join(Checkpoint::file_name(e))).unwrap();
        }
        CheckpointPolicy::every_epoch(&dir).with_keep(2).prune();
        let left = Checkpoint::list_dir(&dir).unwrap();
        assert_eq!(left.len(), 2);
        assert!(left[0].to_string_lossy().contains("ckpt-000005"));
        assert!(left[1].to_string_lossy().contains("ckpt-000004"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
