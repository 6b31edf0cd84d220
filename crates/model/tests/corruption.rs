//! Property tests of the persistence layer under random damage, through
//! the file path production runs: every case damages the image an
//! artifact's `save` wrote and hands it to that artifact's `load` (the
//! matrix is in `damage/mod.rs`). Any bit flip, truncation, trailing
//! garbage or stripped envelope of a model, checkpoint or shortlist-view
//! file must surface as a typed `PersistError` — never a panic, never a
//! silently loaded file whose bytes differ from what was saved.

mod damage;

use damage::Sealed;
use neutraj_model::{
    AnnParams, Backbone, BackboneKind, Checkpoint, HnswIndex, HnswParams, IvfIndex, NeuTrajModel,
    ShortlistView, SimilarityDb, TrainConfig, TrainState,
};
use neutraj_nn::linalg::Mat;
use neutraj_nn::{AdamState, SamLstmEncoder, SpatialMemory};
use neutraj_trajectory::{BoundingBox, Grid};
use std::sync::OnceLock;

fn grid() -> Grid {
    Grid::new(BoundingBox::new(0.0, 0.0, 500.0, 500.0), 50.0).unwrap()
}

fn sealed_model(model: NeuTrajModel) -> Sealed {
    let expected = model.to_bytes();
    Sealed::new(
        "model",
        expected,
        move |p| model.save(p),
        |p| Ok(NeuTrajModel::load(p)?.to_bytes()),
    )
}

/// A small but real model file (SAM backbone), built once.
fn model_file() -> &'static Sealed {
    static IMG: OnceLock<Sealed> = OnceLock::new();
    IMG.get_or_init(|| {
        let cfg = TrainConfig {
            dim: 4,
            ..TrainConfig::neutraj()
        };
        sealed_model(NeuTrajModel::untrained(cfg, grid()))
    })
}

fn checkpoint_of(model: NeuTrajModel) -> Checkpoint {
    Checkpoint {
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
    }
}

fn checkpoint() -> Checkpoint {
    let cfg = TrainConfig {
        dim: 4,
        epochs: 8,
        ..TrainConfig::nt_no_sam()
    };
    checkpoint_of(NeuTrajModel::untrained(cfg, grid()))
}

/// A checkpoint file (model + training-state section), built once.
fn checkpoint_file() -> &'static Sealed {
    static IMG: OnceLock<Sealed> = OnceLock::new();
    IMG.get_or_init(|| {
        let ckpt = checkpoint();
        Sealed::new(
            "checkpoint",
            ckpt.to_bytes(),
            move |p| ckpt.save(p),
            |p| Ok(Checkpoint::load(p)?.to_bytes()),
        )
    })
}

/// The same checkpoint file read by `NeuTrajModel::load`, which accepts
/// checkpoints (they are a superset of model files): a damaged one is
/// equally unusable as a model.
fn checkpoint_as_model_file() -> &'static Sealed {
    static IMG: OnceLock<Sealed> = OnceLock::new();
    IMG.get_or_init(|| {
        let ckpt = checkpoint();
        Sealed::new(
            "checkpoint as model",
            ckpt.model.to_bytes(),
            move |p| ckpt.save(p),
            |p| Ok(NeuTrajModel::load(p)?.to_bytes()),
        )
    })
}

/// A populated database with view `V` built by `build`; the file is what
/// `save_view::<V>` writes, and `load` installs it in a copy of the
/// database that has no `V`.
fn view_file<V: ShortlistView + 'static>(build: impl FnOnce(&mut SimilarityDb)) -> Sealed {
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
    let expected = V::slot(&db).expect("just built").encode();
    let mut bare = db.clone();
    bare.clear_view::<V>();
    Sealed::new(
        V::NAME,
        expected,
        move |p| db.save_view::<V>(p),
        move |p| {
            let mut fresh = bare.clone();
            fresh.load_view::<V>(p)?;
            Ok(V::slot(&fresh).expect("installed").encode())
        },
    )
}

/// The `NTHNSW01` graph-index file, built once.
fn graph_file() -> &'static Sealed {
    static IMG: OnceLock<Sealed> = OnceLock::new();
    IMG.get_or_init(|| {
        view_file::<HnswIndex>(|db| db.build_graph_index(&HnswParams::default(), 2).unwrap())
    })
}

/// The `NTIVF01` IVF-index file, built once.
fn ivf_file() -> &'static Sealed {
    static IMG: OnceLock<Sealed> = OnceLock::new();
    IMG.get_or_init(|| {
        let params = AnnParams {
            nlists: 5,
            ..Default::default()
        };
        view_file::<IvfIndex>(|db| db.build_ann_index(&params).unwrap())
    })
}

#[test]
fn undamaged_graph_index_file_roundtrips() {
    damage::intact_roundtrips(graph_file());
}

#[test]
fn any_bit_flip_in_a_graph_index_file_is_rejected() {
    damage::bit_flips_are_rejected(graph_file(), 256);
}

#[test]
fn any_truncation_of_a_graph_index_file_is_rejected() {
    damage::every_truncation_is_rejected(graph_file());
}

#[test]
fn trailing_garbage_after_a_graph_index_file_is_rejected() {
    damage::trailing_garbage_is_rejected(graph_file(), 256);
}

#[test]
fn raw_graph_payload_damage_never_panics() {
    damage::resealed_payload_damage_never_panics(graph_file(), 256);
}

#[test]
fn undamaged_ivf_index_file_roundtrips() {
    damage::intact_roundtrips(ivf_file());
}

#[test]
fn any_bit_flip_in_an_ivf_index_file_is_rejected() {
    damage::bit_flips_are_rejected(ivf_file(), 256);
}

#[test]
fn any_truncation_of_an_ivf_index_file_is_rejected() {
    damage::every_truncation_is_rejected(ivf_file());
}

#[test]
fn trailing_garbage_after_an_ivf_index_file_is_rejected() {
    damage::trailing_garbage_is_rejected(ivf_file(), 256);
}

#[test]
fn raw_ivf_payload_damage_never_panics() {
    damage::resealed_payload_damage_never_panics(ivf_file(), 256);
}

#[test]
fn any_bit_flip_in_a_model_file_is_rejected() {
    damage::bit_flips_are_rejected(model_file(), 256);
}

#[test]
fn any_truncation_of_a_model_file_is_rejected() {
    damage::every_truncation_is_rejected(model_file());
}

#[test]
fn any_bit_flip_in_a_checkpoint_file_is_rejected() {
    damage::bit_flips_are_rejected(checkpoint_file(), 256);
    damage::bit_flips_are_rejected(checkpoint_as_model_file(), 256);
}

#[test]
fn any_truncation_of_a_checkpoint_file_is_rejected() {
    damage::every_truncation_is_rejected(checkpoint_file());
    damage::every_truncation_is_rejected(checkpoint_as_model_file());
}

#[test]
fn trailing_garbage_after_a_model_or_checkpoint_file_is_rejected() {
    damage::trailing_garbage_is_rejected(model_file(), 256);
    damage::trailing_garbage_is_rejected(checkpoint_file(), 256);
    damage::trailing_garbage_is_rejected(checkpoint_as_model_file(), 256);
}

#[test]
fn combined_damage_never_panics_and_never_alters_parameters() {
    damage::combined_damage_never_loads_altered_bytes(model_file(), 256);
}

#[test]
fn combined_damage_to_a_checkpoint_or_view_file_never_loads_altered_bytes() {
    for file in [
        checkpoint_file(),
        checkpoint_as_model_file(),
        graph_file(),
        ivf_file(),
    ] {
        damage::combined_damage_never_loads_altered_bytes(file, 256);
    }
}

#[test]
fn raw_payload_damage_never_panics() {
    damage::resealed_payload_damage_never_panics(model_file(), 256);
    damage::resealed_payload_damage_never_panics(checkpoint_file(), 256);
    damage::resealed_payload_damage_never_panics(checkpoint_as_model_file(), 256);
}

/// A file holding only the `NTMODEL1` payload — the envelope, and with it
/// the checksum, stripped — is refused with a typed error, though the
/// same bytes still decode as a payload.
#[test]
fn an_envelope_stripped_model_file_is_rejected() {
    let file = model_file();
    assert!(NeuTrajModel::from_bytes(file.payload()).is_ok());
    damage::stripped_envelope_is_rejected(file);
}

#[test]
fn an_envelope_stripped_checkpoint_or_view_file_is_rejected() {
    for file in [
        checkpoint_file(),
        checkpoint_as_model_file(),
        graph_file(),
        ivf_file(),
    ] {
        damage::stripped_envelope_is_rejected(file);
    }
}

/// A correctly sealed, CRC-valid SAM payload whose tensors do not fit
/// each other is refused at load with a typed error, as a model file and
/// inside a checkpoint: every one of these used to load `Ok` and then
/// panic in the first product (`p`, `W_his`), read the wrong cells
/// (memory grid) or abort on the tape allocation (scan width).
/// Well-formed models of all three backbones still round-trip bit for
/// bit.
#[test]
fn ill_shaped_sam_payloads_are_rejected_at_load() {
    let sam = |scan_width| {
        let cfg = TrainConfig {
            dim: 4,
            scan_width,
            epochs: 8,
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
        damage::sealed_payload_is_rejected(model_file(), &model.to_bytes(), what);
        let ckpt = checkpoint_of(model).to_bytes();
        damage::sealed_payload_is_rejected(checkpoint_file(), &ckpt, what);
        damage::sealed_payload_is_rejected(checkpoint_as_model_file(), &ckpt, what);
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
        damage::intact_roundtrips(&sealed_model(model));
    }
}

/// A crash at any byte of a checkpoint save leaves the older checkpoint
/// whole and, beside it, a temp file holding a prefix of the new image.
/// At every offset the torn temp file is refused by `load`, and resume
/// never takes it for a checkpoint: the newest valid one is the old one.
#[test]
fn a_crash_at_any_write_offset_leaves_an_unloadable_torn_file() {
    let file = checkpoint_file();
    let dir = damage::scratch_path("torn");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(Checkpoint::file_name(3)), &file.image).unwrap();
    let torn = dir.join(format!(
        "{}.{}.0.tmp",
        Checkpoint::file_name(4),
        std::process::id()
    ));
    for len in 0..file.image.len() {
        std::fs::write(&torn, &file.image[..len]).unwrap();
        assert!(Checkpoint::load(&torn).is_err(), "torn at {len} loaded");
        let (newest, skipped) =
            Checkpoint::load_newest_valid(&dir, |p, e| panic!("{p:?} read as a checkpoint: {e}"))
                .unwrap()
                .expect("the old checkpoint");
        assert_eq!((newest.to_bytes(), skipped), (file.expected.clone(), 0));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A save that cannot write — its directory is missing — surfaces the
/// I/O error and leaves nothing behind, for every artifact.
#[test]
fn a_save_into_a_missing_directory_is_an_io_error() {
    for file in [model_file(), checkpoint_file(), graph_file(), ivf_file()] {
        damage::a_save_into_a_missing_directory_is_an_io_error(file);
    }
}

/// Through `save` and `load`, each artifact comes back bit for bit, and
/// saving it again writes the same image.
#[test]
fn an_uninterrupted_writer_roundtrips() {
    for file in [model_file(), checkpoint_file(), checkpoint_as_model_file()] {
        damage::intact_roundtrips(file);
    }
}
