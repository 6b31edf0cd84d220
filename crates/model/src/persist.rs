//! Model persistence: a compact, versioned binary codec for trained
//! models, so the expensive offline phase (seed distances + training) is
//! paid once.
//!
//! Two layers (see `DESIGN.md` §9, "Failure model & recovery"):
//!
//! * **Payload codec** — the little-endian `NTMODEL1` encoding of config,
//!   grid, parameters and spatial memory ([`NeuTrajModel::to_bytes`] /
//!   [`NeuTrajModel::from_bytes`]). A payload may be followed by an
//!   optional `NTCKPT01` training-state section (see
//!   [`Checkpoint`](crate::Checkpoint)), which the model decoder skips —
//!   a checkpoint is a superset of a model file.
//! * **File envelope** — every file written by [`NeuTrajModel::save`] (or
//!   [`Checkpoint::save`](crate::Checkpoint::save)) wraps the payload as
//!   `NTFILE01 ‖ payload_len:u64 ‖ payload ‖ crc32(payload):u32`, written
//!   via temp-file + fsync + atomic rename so a torn write can never
//!   replace a good artifact, and any corruption of the bytes is caught by
//!   the checksum before a single payload byte is parsed.
//!
//! Fields are read and written through the workspace's one little-endian
//! cursor (`neutraj_trajectory::cursor`); the CRC32 is hand-rolled (IEEE
//! 802.3 polynomial, the `cksum`/zlib convention).

use crate::backbone::{Backbone, NeuTrajModel};
use crate::config::{BackboneKind, TrainConfig};
use crate::loss::RankedBatchLoss;
use crate::similarity::Normalization;
use neutraj_nn::linalg::Mat;
use neutraj_nn::{GruCell, LstmCell, SamLstmEncoder, SpatialMemory};
use neutraj_trajectory::cursor::{PutLe, Reader, Truncated};
use neutraj_trajectory::{BoundingBox, Grid};
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// Magic header + format version of the model payload codec.
const MAGIC: &[u8; 8] = b"NTMODEL1";

/// Magic header + format version of the checksummed file envelope.
pub const FILE_MAGIC: &[u8; 8] = b"NTFILE01";

/// Envelope overhead: magic (8) + payload length (8) + CRC32 (4).
pub const ENVELOPE_OVERHEAD: usize = 8 + 8 + 4;

/// Errors from model (de)serialization.
#[derive(Debug)]
pub enum PersistError {
    /// Magic/version mismatch or structural decode failure.
    Format(String),
    /// The bytes are self-inconsistent: checksum mismatch or a file size
    /// that disagrees with the declared payload length. Distinguished from
    /// [`PersistError::Format`] so recovery layers can count corruption
    /// events separately from version mismatches.
    Corrupted(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Format(m) => write!(f, "model format error: {m}"),
            Self::Corrupted(m) => write!(f, "model file corrupted: {m}"),
            Self::Io(e) => write!(f, "model i/o error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A payload that ends mid-field is a structural decode failure.
impl From<Truncated> for PersistError {
    fn from(e: Truncated) -> Self {
        Self::Format(e.to_string())
    }
}

pub(crate) fn fail(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

// ---------------------------------------------------------------------------
// CRC32 (hand-rolled, IEEE 802.3 reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// CRC32 of `data` (zlib/`cksum` convention: init `!0`, reflected
/// polynomial `0xEDB88320`, final complement). Bitwise, table-free —
/// model files are megabytes at most, so simplicity wins over speed.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// File envelope
// ---------------------------------------------------------------------------

/// Wraps `payload` in the checksummed file envelope. Public so sibling
/// crates (e.g. the serving snapshot codec) persist their own artifacts
/// through the identical `NTFILE01 ‖ len ‖ payload ‖ crc32` contract.
pub fn seal_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + ENVELOPE_OVERHEAD);
    out.extend_from_slice(FILE_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Validates the envelope of a whole file image and returns the payload
/// slice. Size mismatches are rejected *before* any payload parsing, with
/// expected-vs-actual byte counts in the message.
pub fn open_payload(data: &[u8]) -> Result<&[u8], PersistError> {
    if data.len() < ENVELOPE_OVERHEAD {
        return Err(PersistError::Corrupted(format!(
            "file too small for envelope: need at least {ENVELOPE_OVERHEAD} bytes, got {}",
            data.len()
        )));
    }
    if &data[..8] != FILE_MAGIC {
        return Err(fail("bad file magic (not a NeuTraj file?)"));
    }
    let payload_len = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes")) as usize;
    let expected = payload_len
        .checked_add(ENVELOPE_OVERHEAD)
        .ok_or_else(|| PersistError::Corrupted("payload length overflows".into()))?;
    if data.len() != expected {
        return Err(PersistError::Corrupted(format!(
            "file size mismatch: header declares a {payload_len}-byte payload \
             (expected {expected} bytes total), got {} bytes",
            data.len()
        )));
    }
    let payload = &data[16..16 + payload_len];
    let stored = u32::from_le_bytes(data[16 + payload_len..].try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(PersistError::Corrupted(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    Ok(payload)
}

/// Writes `payload` wrapped in the file envelope to `w` (the generic
/// `Write` seam that fault-injection tests hook into).
pub fn write_enveloped<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), PersistError> {
    w.write_all(FILE_MAGIC)?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads a whole enveloped file image from `r` and returns the verified
/// payload.
pub fn read_enveloped<R: Read>(r: &mut R) -> Result<Vec<u8>, PersistError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    let payload = open_payload(&data)?;
    Ok(payload.to_vec())
}

/// Atomically replaces the file at `path` with `bytes`: write to a
/// temporary sibling, fsync it, rename over the destination, then fsync
/// the directory (best-effort) so the rename itself is durable. A crash at
/// any point leaves either the old file or the new file, never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(".tmp");
            path.with_file_name(n)
        }
        None => return Err(fail(format!("invalid destination path {path:?}"))),
    };
    let write_tmp = || -> Result<(), PersistError> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    };
    if let Err(e) = write_tmp() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    // Durability of the rename: sync the containing directory. Some
    // platforms/filesystems refuse to open directories — best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        }) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

impl NeuTrajModel {
    /// Serializes the trained model (config, grid, parameters, spatial
    /// memory) into a raw payload buffer (no file envelope — see
    /// [`NeuTrajModel::write_to`] for the checksummed form).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 << 16);
        encode_model(&mut buf, self);
        buf
    }

    /// Deserializes a model from a raw payload previously produced by
    /// [`NeuTrajModel::to_bytes`] (or the payload of a checkpoint — the
    /// trailing training-state section is skipped). Trailing bytes that
    /// are not a checkpoint section are rejected.
    pub fn from_bytes(data: &[u8]) -> Result<NeuTrajModel, PersistError> {
        let mut r = Reader::new(data);
        let model = decode_model(&mut r)?;
        let rest = r.rest();
        if !rest.is_empty() && !rest.starts_with(crate::checkpoint::CKPT_MAGIC) {
            return Err(fail(format!(
                "{} trailing bytes after the {}-byte model payload",
                rest.len(),
                r.offset()
            )));
        }
        Ok(model)
    }

    /// Writes the model through any [`Write`] sink, wrapped in the
    /// checksummed file envelope. This is the seam the fault-injection
    /// harness targets (see [`fault`](crate::fault)).
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        write_enveloped(w, &self.to_bytes())
    }

    /// Reads an envelope-wrapped model from any [`Read`] source, verifying
    /// size and checksum before parsing.
    pub fn read_from<R: Read>(r: &mut R) -> Result<NeuTrajModel, PersistError> {
        let payload = read_enveloped(r)?;
        Self::from_bytes(&payload)
    }

    /// Writes the model to a file: checksummed envelope, temp-file +
    /// fsync + atomic rename (a crash mid-save never corrupts an existing
    /// model file).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        atomic_write(path.as_ref(), &seal_payload(&self.to_bytes()))
    }

    /// Loads a model from a file written by [`NeuTrajModel::save`] or
    /// [`Checkpoint::save`](crate::Checkpoint::save) (checkpoints are a
    /// superset of model files). A file without the envelope — a bare
    /// `NTMODEL1` payload included — is rejected: nothing unchecksummed
    /// is ever parsed.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<NeuTrajModel, PersistError> {
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        Self::from_bytes(open_payload(&data)?)
    }
}

/// Encodes the model payload (`NTMODEL1` codec) into `buf`.
pub(crate) fn encode_model(buf: &mut Vec<u8>, model: &NeuTrajModel) {
    buf.put_slice(MAGIC);
    encode_config(buf, model.config());
    encode_grid(buf, model.grid());
    match model.backbone() {
        Backbone::Sam(e) => {
            buf.put_u8(0);
            encode_mat(buf, &e.cell.p);
            encode_mat(buf, &e.cell.w_his);
            encode_f64s(buf, &e.cell.b_his);
            buf.put_u32_le(e.scan_width);
            encode_memory(buf, &e.memory);
        }
        Backbone::Lstm(c) => {
            buf.put_u8(1);
            encode_mat(buf, &c.p);
        }
        Backbone::Gru(c) => {
            buf.put_u8(2);
            encode_mat(buf, &c.pzr);
            encode_mat(buf, &c.ph);
        }
    }
}

/// Decodes a model payload, leaving `data` positioned after the backbone
/// (so a following `NTCKPT01` section can be decoded by the caller).
pub(crate) fn decode_model(data: &mut Reader<'_>) -> Result<NeuTrajModel, PersistError> {
    if data.take(MAGIC.len())? != MAGIC {
        return Err(fail("bad magic header (not a NeuTraj model?)"));
    }
    let config = decode_config(data)?;
    let grid = decode_grid(data)?;
    let backbone = match data.u8()? {
        0 => {
            let p = decode_mat(data)?;
            let w_his = decode_mat(data)?;
            let b_his = decode_f64s(data)?;
            let scan_width = data.u32()?;
            let memory = decode_memory(data)?;
            let dim = w_his.rows();
            if (p.rows(), p.cols()) != (5 * dim, dim + 3)
                || w_his.cols() != 2 * dim
                || b_his.len() != dim
                || memory.dim() != dim
            {
                return Err(fail("inconsistent SAM tensor shapes"));
            }
            // The memory is indexed by the grid's cells, and the scan
            // window sizes every BPTT tape step (`(2w+1)²` row ids).
            let (cols, rows) = (grid.cols() as usize, grid.rows() as usize);
            if (memory.cols(), memory.rows()) != (cols, rows)
                || scan_width != config.scan_width
                || scan_width as usize > cols.max(rows)
            {
                return Err(fail(format!(
                    "SAM memory {}x{} / scan width {scan_width} against grid {cols}x{rows} / \
                     configured width {}",
                    memory.cols(),
                    memory.rows(),
                    config.scan_width
                )));
            }
            let mut e = SamLstmEncoder::new(dim, cols, rows, scan_width, 0);
            e.cell.p = p;
            e.cell.w_his = w_his;
            e.cell.b_his = b_his;
            e.memory = memory;
            Backbone::Sam(e)
        }
        1 => {
            let p = decode_mat(data)?;
            if p.rows() % 4 != 0 {
                return Err(fail("LSTM weight rows not divisible by 4"));
            }
            let mut c = LstmCell::new(p.rows() / 4, 0);
            if c.p.cols() != p.cols() {
                return Err(fail("LSTM weight column mismatch"));
            }
            c.p = p;
            Backbone::Lstm(c)
        }
        2 => {
            let pzr = decode_mat(data)?;
            let ph = decode_mat(data)?;
            let dim = ph.rows();
            if pzr.rows() != 2 * dim {
                return Err(fail("GRU gate rows mismatch"));
            }
            let mut c = GruCell::new(dim, 0);
            if c.pzr.cols() != pzr.cols() || c.ph.cols() != ph.cols() {
                return Err(fail("GRU weight column mismatch"));
            }
            c.pzr = pzr;
            c.ph = ph;
            Backbone::Gru(c)
        }
        other => return Err(fail(format!("unknown backbone tag {other}"))),
    };
    Ok(NeuTrajModel::new(backbone, grid, config))
}

fn encode_config(buf: &mut Vec<u8>, cfg: &TrainConfig) {
    buf.put_u64_le(cfg.dim as u64);
    buf.put_u32_le(cfg.scan_width);
    buf.put_u8(match cfg.backbone {
        BackboneKind::SamLstm => 0,
        BackboneKind::Lstm => 1,
        BackboneKind::Gru => 2,
    });
    buf.put_u8(cfg.weighted_sampling as u8);
    buf.put_u8(cfg.loss.rank_weighted as u8);
    buf.put_u8(cfg.loss.margin_dissimilar as u8);
    buf.put_u8(match cfg.normalization {
        Normalization::ExpDecay => 0,
        Normalization::RowSoftmax => 1,
    });
    buf.put_u64_le(cfg.n_samples as u64);
    buf.put_u64_le(cfg.batch_anchors as u64);
    buf.put_u64_le(cfg.epochs as u64);
    buf.put_f64_le(cfg.lr);
    buf.put_f64_le(cfg.alpha.unwrap_or(f64::NAN));
    buf.put_u64_le(cfg.seed);
    buf.put_u64_le(cfg.patience.map_or(u64::MAX, |p| p as u64));
}

fn decode_config(data: &mut Reader<'_>) -> Result<TrainConfig, PersistError> {
    let dim = data.u64()? as usize;
    let scan_width = data.u32()?;
    let backbone = match data.u8()? {
        0 => BackboneKind::SamLstm,
        1 => BackboneKind::Lstm,
        2 => BackboneKind::Gru,
        other => return Err(fail(format!("unknown backbone kind {other}"))),
    };
    let weighted_sampling = data.u8()? != 0;
    let rank_weighted = data.u8()? != 0;
    let margin_dissimilar = data.u8()? != 0;
    let normalization = match data.u8()? {
        0 => Normalization::ExpDecay,
        1 => Normalization::RowSoftmax,
        other => return Err(fail(format!("unknown normalization tag {other}"))),
    };
    let n_samples = data.u64()? as usize;
    let batch_anchors = data.u64()? as usize;
    let epochs = data.u64()? as usize;
    let lr = data.f64()?;
    let alpha_raw = data.f64()?;
    let seed = data.u64()?;
    let patience_raw = data.u64()?;
    Ok(TrainConfig {
        dim,
        scan_width,
        backbone,
        weighted_sampling,
        loss: RankedBatchLoss {
            rank_weighted,
            margin_dissimilar,
        },
        n_samples,
        batch_anchors,
        epochs,
        lr,
        alpha: if alpha_raw.is_nan() {
            None
        } else {
            Some(alpha_raw)
        },
        normalization,
        seed,
        patience: if patience_raw == u64::MAX {
            None
        } else {
            Some(patience_raw as usize)
        },
    })
}

fn encode_grid(buf: &mut Vec<u8>, grid: &Grid) {
    let e = grid.extent();
    buf.put_f64_le(e.min_x);
    buf.put_f64_le(e.min_y);
    buf.put_f64_le(e.max_x);
    buf.put_f64_le(e.max_y);
    buf.put_f64_le(grid.cell_size());
}

fn decode_grid(data: &mut Reader<'_>) -> Result<Grid, PersistError> {
    let min_x = data.f64()?;
    let min_y = data.f64()?;
    let max_x = data.f64()?;
    let max_y = data.f64()?;
    let cell = data.f64()?;
    if !(min_x <= max_x && min_y <= max_y) {
        return Err(fail("inverted grid extent"));
    }
    Grid::new(BoundingBox::new(min_x, min_y, max_x, max_y), cell)
        .map_err(|e| fail(format!("invalid grid: {e}")))
}

fn encode_mat(buf: &mut Vec<u8>, m: &Mat) {
    buf.put_u64_le(m.rows() as u64);
    buf.put_u64_le(m.cols() as u64);
    for &v in m.as_slice() {
        buf.put_f64_le(v);
    }
}

fn decode_mat(data: &mut Reader<'_>) -> Result<Mat, PersistError> {
    let rows = data.u64()? as usize;
    let cols = data.u64()? as usize;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| fail("matrix shape overflow"))?;
    if rows == 0 || cols == 0 || n > 1 << 28 {
        return Err(fail(format!("implausible matrix shape {rows}x{cols}")));
    }
    Ok(Mat::from_vec(rows, cols, data.f64s(n)?))
}

pub(crate) fn encode_f64s(buf: &mut Vec<u8>, v: &[f64]) {
    buf.put_u64_le(v.len() as u64);
    for &x in v {
        buf.put_f64_le(x);
    }
}

pub(crate) fn decode_f64s(data: &mut Reader<'_>) -> Result<Vec<f64>, PersistError> {
    let n = data.u64()? as usize;
    if n > 1 << 28 {
        return Err(fail(format!("implausible vector length {n}")));
    }
    Ok(data.f64s(n)?)
}

fn encode_memory(buf: &mut Vec<u8>, m: &SpatialMemory) {
    buf.put_u64_le(m.cols() as u64);
    buf.put_u64_le(m.rows() as u64);
    buf.put_u64_le(m.dim() as u64);
    for row in 0..m.rows() as u32 {
        for col in 0..m.cols() as u32 {
            for &v in m.slot(col, row) {
                buf.put_f64_le(v);
            }
        }
    }
}

fn decode_memory(data: &mut Reader<'_>) -> Result<SpatialMemory, PersistError> {
    let cols = data.u64()? as usize;
    let rows = data.u64()? as usize;
    let dim = data.u64()? as usize;
    let n = cols
        .checked_mul(rows)
        .and_then(|x| x.checked_mul(dim))
        .ok_or_else(|| fail("memory shape overflow"))?;
    if cols == 0 || rows == 0 || dim == 0 || n > 1 << 30 {
        return Err(fail(format!(
            "implausible memory shape {cols}x{rows}x{dim}"
        )));
    }
    let slots = data.f64s(n)?;
    let mut mem = SpatialMemory::new(cols, rows, dim);
    let ones = vec![1.0; dim];
    let mut slot = slots.chunks_exact(dim);
    for row in 0..rows as u32 {
        for col in 0..cols as u32 {
            mem.write(col, row, &ones, slot.next().expect("n = cols * rows * dim"));
        }
    }
    Ok(mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trainer;
    use neutraj_measures::{DistanceMatrix, Hausdorff};
    use neutraj_trajectory::gen::PortoLikeGenerator;
    use neutraj_trajectory::Trajectory;

    fn trained(preset: TrainConfig) -> (NeuTrajModel, Vec<Trajectory>) {
        let ds = PortoLikeGenerator {
            num_trajectories: 25,
            max_len: 30,
            ..Default::default()
        }
        .generate(77);
        let trajs = ds.trajectories().to_vec();
        let grid = Grid::covering(&trajs, 100.0).unwrap();
        let rescaled: Vec<Trajectory> = trajs.iter().map(|t| grid.rescale_trajectory(t)).collect();
        let dist = DistanceMatrix::compute(&Hausdorff, &rescaled);
        let cfg = TrainConfig {
            dim: 8,
            epochs: 2,
            n_samples: 4,
            ..preset
        };
        let (model, _) = Trainer::new(cfg, grid).fit(&trajs, &dist, |_| {});
        (model, trajs)
    }

    #[test]
    fn crc32_known_answers() {
        // The standard check value of the IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Single-bit sensitivity.
        assert_ne!(crc32(b"abc"), crc32(b"abb"));
    }

    #[test]
    fn envelope_roundtrip_and_size_checks() {
        let sealed = seal_payload(b"hello payload");
        assert_eq!(open_payload(&sealed).unwrap(), b"hello payload");
        // Oversized: trailing garbage changes the total size.
        let mut over = sealed.clone();
        over.extend_from_slice(b"xx");
        let e = open_payload(&over).unwrap_err().to_string();
        assert!(e.contains("size mismatch") && e.contains("bytes"), "{e}");
        // Undersized: torn write.
        let e = open_payload(&sealed[..sealed.len() - 3])
            .unwrap_err()
            .to_string();
        assert!(
            e.contains("size mismatch") || e.contains("too small"),
            "{e}"
        );
        // Flipping any single bit is caught (header, payload, or CRC).
        for byte in [0usize, 9, 17, sealed.len() - 1] {
            let mut bad = sealed.clone();
            bad[byte] ^= 0x10;
            assert!(open_payload(&bad).is_err(), "flip at {byte} accepted");
        }
    }

    #[test]
    fn roundtrip_preserves_embeddings_for_every_backbone() {
        for preset in [
            TrainConfig::neutraj(),
            TrainConfig::nt_no_sam(),
            TrainConfig {
                backbone: BackboneKind::Gru,
                ..TrainConfig::neutraj()
            },
        ] {
            let (model, trajs) = trained(preset);
            let bytes = model.to_bytes();
            let back = NeuTrajModel::from_bytes(&bytes).expect("decode");
            for t in trajs.iter().take(5) {
                assert_eq!(model.embed(t), back.embed(t), "embedding changed");
            }
            assert_eq!(model.config(), back.config());
            assert_eq!(model.grid(), back.grid());
        }
    }

    #[test]
    fn file_roundtrip() {
        let (model, trajs) = trained(TrainConfig::neutraj());
        let dir = std::env::temp_dir().join("neutraj_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ntm");
        model.save(&path).unwrap();
        let back = NeuTrajModel::load(&path).unwrap();
        assert_eq!(model.embed(&trajs[0]), back.embed(&trajs[0]));
        // No temp file left behind by the atomic write.
        assert!(!dir.join("model.ntm.tmp").exists());
        // Saving over an existing file keeps it loadable.
        model.save(&path).unwrap();
        assert!(NeuTrajModel::load(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_payload_file_is_rejected() {
        let (model, _) = trained(TrainConfig::nt_no_sam());
        let dir = std::env::temp_dir().join("neutraj_persist_headerless");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bare.ntm");
        // A bare NTMODEL1 payload decodes as a payload, but as a *file*
        // it carries no checksum, so `load` refuses it.
        let payload = model.to_bytes();
        assert!(NeuTrajModel::from_bytes(&payload).is_ok());
        std::fs::write(&path, &payload).unwrap();
        let err = NeuTrajModel::load(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
        assert!(err.to_string().contains("file magic"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let (model, _) = trained(TrainConfig::neutraj());
        let bytes = model.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(NeuTrajModel::from_bytes(&bad).is_err());
        // Truncations at many offsets must error, never panic.
        for cut in [5usize, 20, 60, bytes.len() / 2, bytes.len() - 3] {
            assert!(
                NeuTrajModel::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} silently accepted"
            );
        }
        // Trailing garbage after the payload is rejected.
        let mut over = bytes.clone();
        over.extend_from_slice(b"garbage");
        let e = NeuTrajModel::from_bytes(&over).unwrap_err().to_string();
        assert!(e.contains("trailing"), "{e}");
        assert!(NeuTrajModel::from_bytes(&bytes).is_ok());
        bad.truncate(MAGIC.len());
        assert!(NeuTrajModel::from_bytes(&bad).is_err());
    }

    #[test]
    fn enveloped_file_rejects_any_single_bit_flip() {
        let (model, _) = trained(TrainConfig::nt_no_sam());
        let sealed = seal_payload(&model.to_bytes());
        // Probe a spread of byte positions across the file.
        let step = (sealed.len() / 64).max(1);
        for pos in (0..sealed.len()).step_by(step) {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x01;
            let payload_ok = open_payload(&bad);
            assert!(
                payload_ok.is_err(),
                "bit flip at byte {pos} passed the envelope check"
            );
        }
    }
}
