//! Property tests of the persistence layer under random damage: any
//! bit flip or truncation of an enveloped model/checkpoint file must
//! surface as a typed `PersistError` — never a panic, never a silently
//! loaded file whose parameters differ from what was saved.

use neutraj_model::{
    AnnIndex, AnnParams, Backbone, BackboneKind, Checkpoint, FaultyReader, FaultyWriter, HnswIndex,
    HnswParams, NeuTrajModel, PersistError, ShortlistView, SimilarityDb, TrainConfig, TrainState,
};
use neutraj_nn::linalg::Mat;
use neutraj_nn::{AdamState, SamLstmEncoder, SpatialMemory};
use neutraj_trajectory::rng::cases;
use neutraj_trajectory::{BoundingBox, Grid};
use std::sync::OnceLock;

/// A small but real model file image (sealed envelope) shared across
/// cases — building it once keeps the property loops fast.
fn model_image() -> &'static (NeuTrajModel, Vec<u8>) {
    static IMG: OnceLock<(NeuTrajModel, Vec<u8>)> = OnceLock::new();
    IMG.get_or_init(|| {
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 500.0, 500.0), 50.0).unwrap();
        let cfg = TrainConfig {
            dim: 4,
            ..TrainConfig::neutraj()
        };
        let model = NeuTrajModel::untrained(cfg, grid);
        let mut sink = Vec::new();
        model.write_to(&mut sink).unwrap();
        (model, sink)
    })
}

/// A sealed checkpoint file image (model + training-state section).
fn ckpt_image() -> &'static (Checkpoint, Vec<u8>) {
    static IMG: OnceLock<(Checkpoint, Vec<u8>)> = OnceLock::new();
    IMG.get_or_init(|| {
        let grid = Grid::new(BoundingBox::new(0.0, 0.0, 500.0, 500.0), 50.0).unwrap();
        let cfg = TrainConfig {
            dim: 4,
            epochs: 8,
            ..TrainConfig::nt_no_sam()
        };
        let model = NeuTrajModel::untrained(cfg, grid);
        let ckpt = Checkpoint {
            model,
            state: TrainState {
                next_epoch: 3,
                early_stopped: false,
                best_loss: 0.5,
                stale: 0,
                alpha: 2.0,
                epoch_losses: vec![0.9, 0.7, 0.5],
                epoch_seconds: vec![0.1, 0.1, 0.1],
                adam: AdamState {
                    t: 12,
                    moments: vec![(vec![0.01; 8], vec![0.02; 8])],
                },
            },
        };
        let mut sink = Vec::new();
        ckpt.write_to(&mut sink).unwrap();
        (ckpt, sink)
    })
}

/// A populated database with one shortlist view built by `build`, plus
/// the sealed file image `save_view::<V>` writes for it (envelope +
/// section).
fn view_db_image<V: ShortlistView>(build: impl FnOnce(&mut SimilarityDb)) -> DbImage {
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    let cfg = TrainConfig {
        dim: 6,
        seed: 31,
        ..TrainConfig::neutraj()
    };
    let model = NeuTrajModel::untrained(cfg, grid);
    let corpus: Vec<neutraj_trajectory::Trajectory> = (0..40)
        .map(|i| {
            neutraj_trajectory::Trajectory::new_unchecked(
                i as u64,
                (0..4 + i % 9)
                    .map(|k| {
                        let (t, j) = (k as f64, i as f64);
                        neutraj_trajectory::Point::new(
                            500.0 + 450.0 * (0.31 * t + 0.11 * j).sin(),
                            250.0 + 220.0 * (0.17 * t - 0.23 * j).cos(),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let mut db = SimilarityDb::with_corpus(model, corpus, 2);
    build(&mut db);
    let path = scratch_file("image", &[]);
    db.save_view::<V>(&path).unwrap();
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (db, image)
}

type DbImage = (SimilarityDb, Vec<u8>);

/// The `NTHNSW01` graph-index file, built once.
fn graph_db_image() -> &'static DbImage {
    static IMG: OnceLock<DbImage> = OnceLock::new();
    IMG.get_or_init(|| {
        view_db_image::<HnswIndex>(|db| db.build_graph_index(&HnswParams::default(), 2).unwrap())
    })
}

/// The `NTIVF01` IVF-index file, built once.
fn ivf_db_image() -> &'static DbImage {
    static IMG: OnceLock<DbImage> = OnceLock::new();
    IMG.get_or_init(|| {
        let params = AnnParams {
            nlists: 5,
            ..Default::default()
        };
        view_db_image::<AnnIndex>(|db| db.build_ann_index(&params).unwrap())
    })
}

/// Writes `bytes` to a unique temp file and returns the path (each
/// case gets its own file so cases never race each other).
fn scratch_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("neutraj-view-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{tag}-{}.view",
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

// The damage matrix of a shortlist-view file, written once for every
// view that travels through `save_view` / `load_view`.

fn undamaged_view_file_roundtrips<V: ShortlistView>((db, image): &DbImage) {
    let path = scratch_file("intact", image);
    let mut fresh = db.clone();
    fresh.clear_view::<V>();
    fresh.load_view::<V>(&path).expect("intact file loads");
    // Saved again, the loaded view is byte-identical to the saved one.
    fresh.save_view::<V>(&path).unwrap();
    let again = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(&again, image, "{} changed across a round trip", V::NAME);
}

fn any_bit_flip_in_a_view_file_is_rejected<V: ShortlistView>((db, image): &DbImage) {
    cases(256, |rng| {
        let offset = rng.gen_range(0usize..1 << 20);
        let bit = rng.gen_range(0u8..8);
        let mut bytes = image.clone();
        let offset = offset % bytes.len();
        bytes[offset] ^= 1 << bit;
        let path = scratch_file("flip", &bytes);
        let mut fresh = db.clone();
        let res = fresh.load_view::<V>(&path);
        std::fs::remove_file(&path).ok();
        assert!(
            res.is_err(),
            "bit {bit} of byte {offset} flipped, {} file still loaded",
            V::NAME
        );
    });
}

fn any_truncation_of_a_view_file_is_rejected<V: ShortlistView>((db, image): &DbImage) {
    cases(256, |rng| {
        let len = rng.gen_range(0usize..1 << 20);
        let len = len % image.len();
        let path = scratch_file("trunc", &image[..len]);
        let mut fresh = db.clone();
        let res = fresh.load_view::<V>(&path);
        std::fs::remove_file(&path).ok();
        assert!(res.is_err(), "file truncated to {len} bytes still loaded");
    });
}

fn trailing_garbage_after_a_view_file_is_rejected<V: ShortlistView>((db, image): &DbImage) {
    cases(256, |rng| {
        let extra = (0..rng.gen_range(1..64))
            .map(|_| rng.gen_range(0u8..=255))
            .collect::<Vec<_>>();
        let mut bytes = image.clone();
        bytes.extend_from_slice(&extra);
        let path = scratch_file("trail", &bytes);
        let mut fresh = db.clone();
        let res = fresh.load_view::<V>(&path);
        std::fs::remove_file(&path).ok();
        assert!(res.is_err(), "{} trailing bytes still loaded", extra.len());
    });
}

fn raw_view_section_damage_never_panics<V: ShortlistView>((db, image): &DbImage) {
    cases(256, |rng| {
        let offset = rng.gen_range(0usize..1 << 20);
        let bit = rng.gen_range(0u8..8);
        let cut = rng.gen_range(0usize..1 << 20);
        // Below the envelope (no checksum): structural validation must
        // reject or accept without ever panicking, even when the damage
        // is re-sealed inside a fresh valid envelope.
        let payload = neutraj_model::persist::open_payload(image).unwrap();
        let mut payload = payload.to_vec();
        let off = offset % payload.len();
        payload[off] ^= 1 << (bit % 8);
        payload.truncate(1 + cut % payload.len());
        let _ = V::decode(&payload);
        let resealed = neutraj_model::persist::seal_payload(&payload);
        let path = scratch_file("reseal", &resealed);
        let mut fresh = db.clone();
        let _ = fresh.load_view::<V>(&path); // must not panic
        std::fs::remove_file(&path).ok();
    });
}

#[test]
fn undamaged_graph_index_file_roundtrips() {
    undamaged_view_file_roundtrips::<HnswIndex>(graph_db_image());
}

#[test]
fn any_bit_flip_in_a_graph_index_file_is_rejected() {
    any_bit_flip_in_a_view_file_is_rejected::<HnswIndex>(graph_db_image());
}

#[test]
fn any_truncation_of_a_graph_index_file_is_rejected() {
    any_truncation_of_a_view_file_is_rejected::<HnswIndex>(graph_db_image());
}

#[test]
fn trailing_garbage_after_a_graph_index_file_is_rejected() {
    trailing_garbage_after_a_view_file_is_rejected::<HnswIndex>(graph_db_image());
}

#[test]
fn raw_graph_payload_damage_never_panics() {
    raw_view_section_damage_never_panics::<HnswIndex>(graph_db_image());
}

#[test]
fn undamaged_ivf_index_file_roundtrips() {
    undamaged_view_file_roundtrips::<AnnIndex>(ivf_db_image());
}

#[test]
fn any_bit_flip_in_an_ivf_index_file_is_rejected() {
    any_bit_flip_in_a_view_file_is_rejected::<AnnIndex>(ivf_db_image());
}

#[test]
fn any_truncation_of_an_ivf_index_file_is_rejected() {
    any_truncation_of_a_view_file_is_rejected::<AnnIndex>(ivf_db_image());
}

#[test]
fn trailing_garbage_after_an_ivf_index_file_is_rejected() {
    trailing_garbage_after_a_view_file_is_rejected::<AnnIndex>(ivf_db_image());
}

#[test]
fn raw_ivf_payload_damage_never_panics() {
    raw_view_section_damage_never_panics::<AnnIndex>(ivf_db_image());
}

#[test]
fn any_bit_flip_in_a_model_file_is_rejected() {
    cases(256, |rng| {
        let offset = rng.gen_range(0usize..1 << 20);
        let bit = rng.gen_range(0u8..8);
        let (_, image) = model_image();
        let offset = offset % image.len();
        let mut r = FaultyReader::new(image.clone()).flip_bit(offset, bit);
        let res = NeuTrajModel::read_from(&mut r);
        assert!(
            res.is_err(),
            "bit {bit} of byte {offset} flipped, file still loaded"
        );
    });
}

#[test]
fn any_truncation_of_a_model_file_is_rejected() {
    cases(256, |rng| {
        let len = rng.gen_range(0usize..1 << 20);
        let (_, image) = model_image();
        let len = len % image.len(); // strictly shorter than the file
        let mut r = FaultyReader::new(image.clone()).truncate_at(len);
        assert!(NeuTrajModel::read_from(&mut r).is_err());
    });
}

#[test]
fn any_bit_flip_in_a_checkpoint_file_is_rejected() {
    cases(256, |rng| {
        let offset = rng.gen_range(0usize..1 << 20);
        let bit = rng.gen_range(0u8..8);
        let (_, image) = ckpt_image();
        let offset = offset % image.len();
        let mut r = FaultyReader::new(image.clone()).flip_bit(offset, bit);
        assert!(Checkpoint::read_from(&mut r).is_err());
        // A damaged checkpoint is equally unusable as a model file.
        let mut r = FaultyReader::new(image.clone()).flip_bit(offset, bit);
        assert!(NeuTrajModel::read_from(&mut r).is_err());
    });
}

#[test]
fn any_truncation_of_a_checkpoint_file_is_rejected() {
    cases(256, |rng| {
        let len = rng.gen_range(0usize..1 << 20);
        let (_, image) = ckpt_image();
        let len = len % image.len();
        let mut r = FaultyReader::new(image.clone()).truncate_at(len);
        assert!(Checkpoint::read_from(&mut r).is_err());
    });
}

#[test]
fn combined_damage_never_panics_and_never_alters_parameters() {
    cases(256, |rng| {
        let offset = rng.gen_range(0usize..1 << 20);
        let bit = rng.gen_range(0u8..8);
        let cut = rng.gen_range(0usize..1 << 20);
        // Flip + truncate in one pass; the only acceptable `Ok` is the
        // undamaged identity case, and then the bytes must match exactly.
        let (model, image) = model_image();
        let cut = 1 + cut % image.len();
        let r = FaultyReader::new(image.clone())
            .flip_bit(offset % image.len(), bit)
            .truncate_at(cut);
        let intact = r.image() == &image[..];
        let mut r = r;
        if let Ok(loaded) = NeuTrajModel::read_from(&mut r) {
            assert!(intact, "damaged file loaded");
            assert_eq!(loaded.to_bytes(), model.to_bytes());
        }
    });
}

#[test]
fn raw_payload_damage_never_panics() {
    cases(256, |rng| {
        let offset = rng.gen_range(0usize..1 << 20);
        let bit = rng.gen_range(0u8..8);
        let cut = rng.gen_range(0usize..1 << 20);
        // Below the envelope (no checksum), decoding damaged bytes must
        // still never panic — structural checks catch what they can, and
        // the envelope is the actual integrity layer above this.
        let (model, _) = model_image();
        let mut payload = model.to_bytes();
        let off = offset % payload.len();
        payload[off] ^= 1 << (bit % 8);
        payload.truncate(1 + cut % payload.len());
        let _ = NeuTrajModel::from_bytes(&payload);
    });
}

/// A file holding only the `NTMODEL1` payload — the envelope, and with it
/// the checksum, stripped — is refused by both file entry points with a
/// typed error, though the same bytes still decode as a payload.
#[test]
fn an_envelope_stripped_model_file_is_rejected() {
    let (model, _) = model_image();
    let payload = model.to_bytes();
    assert!(NeuTrajModel::from_bytes(&payload).is_ok());
    let mut r = FaultyReader::new(payload.clone());
    let streamed = NeuTrajModel::read_from(&mut r);
    assert!(matches!(streamed, Err(PersistError::Format(_))));
    let path = scratch_file("bare-model", &payload);
    let loaded = NeuTrajModel::load(&path);
    std::fs::remove_file(&path).ok();
    assert!(matches!(loaded, Err(PersistError::Format(_))));
}

/// A correctly sealed, CRC-valid SAM payload whose tensors do not fit
/// each other is refused at load with a typed error: every one of these
/// used to load `Ok` and then panic in the first product (`p`, `W_his`),
/// read the wrong cells (memory grid) or abort on the tape allocation
/// (scan width). Well-formed models of all three backbones still
/// round-trip bit for bit.
#[test]
fn ill_shaped_sam_payloads_are_rejected_at_load() {
    let grid = || Grid::new(BoundingBox::new(0.0, 0.0, 500.0, 500.0), 50.0).unwrap();
    let sam = |scan_width| {
        let cfg = TrainConfig {
            dim: 4,
            scan_width,
            ..TrainConfig::neutraj()
        };
        NeuTrajModel::untrained(cfg, grid())
    };
    type Damage = fn(&mut SamLstmEncoder);
    let damages: [(&str, u32, Damage); 5] = [
        ("p columns", 2, |e| e.cell.p = Mat::zeros(20, 8)),
        ("W_his columns", 2, |e| e.cell.w_his = Mat::zeros(4, 9)),
        ("memory grid", 2, |e| {
            e.memory = SpatialMemory::new(11, 10, 4)
        }),
        ("scan width != config", 2, |e| e.scan_width = 40_000),
        ("scan width > grid", 40_000, |_| {}),
    ];
    for (what, scan_width, damage) in damages {
        let mut model = sam(scan_width);
        let Backbone::Sam(e) = model.backbone_mut() else {
            panic!("SAM backbone")
        };
        damage(e);
        let mut sealed = Vec::new();
        model.write_to(&mut sealed).unwrap();
        let streamed = NeuTrajModel::read_from(&mut sealed.as_slice());
        assert!(
            matches!(streamed, Err(PersistError::Format(_))),
            "{what}: loaded"
        );
        assert!(
            NeuTrajModel::from_bytes(&model.to_bytes()).is_err(),
            "{what}"
        );
    }
    for preset in [
        TrainConfig::neutraj(),
        TrainConfig::nt_no_sam(),
        TrainConfig {
            backbone: BackboneKind::Gru,
            ..TrainConfig::neutraj()
        },
    ] {
        let model = NeuTrajModel::untrained(TrainConfig { dim: 4, ..preset }, grid());
        let bytes = model.to_bytes();
        let back = NeuTrajModel::from_bytes(&bytes).expect("well-formed model");
        assert_eq!(back.to_bytes(), bytes);
    }
}

#[test]
fn a_crash_at_any_write_offset_leaves_an_unloadable_torn_file() {
    cases(256, |rng| {
        let budget = rng.gen_range(0usize..1 << 20);
        let (model, image) = model_image();
        let budget = budget % image.len(); // crash strictly before the end
        let mut w = FaultyWriter::fails_after(budget);
        assert!(model.write_to(&mut w).is_err(), "short write not surfaced");
        // The torn prefix must never pass verification.
        let mut r = FaultyReader::new(w.written.clone());
        assert!(NeuTrajModel::read_from(&mut r).is_err());
    });
}

#[test]
fn an_uninterrupted_writer_roundtrips() {
    let (model, image) = model_image();
    let mut w = FaultyWriter::fails_after(usize::MAX);
    model.write_to(&mut w).unwrap();
    assert_eq!(&w.written, image);
    let mut r = FaultyReader::new(w.written.clone());
    let back = NeuTrajModel::read_from(&mut r).unwrap();
    assert_eq!(back.to_bytes(), model.to_bytes());
}
