//! Snapshot persistence suite: save/load through the sealed `NTFILE01`
//! envelope restores the served state bit-identically — the corpus, and
//! each shard's IVF index and graph as they stood after inserts, so
//! every query path answers the same before and after, and keeps doing
//! so as both copies take more writes — preserves the epoch across
//! restart, refuses a shard count the payload cannot back and, the
//! crash-recovery contract, rejects every damaged file `load` is handed,
//! so a damaged snapshot can never be adopted. The damage cases are
//! `neutraj-model`'s matrix, shared with its corruption suite.

#[path = "../../model/tests/damage/mod.rs"]
mod damage;

use damage::Sealed;
use neutraj_measures::MeasureKind;
use neutraj_model::{
    AnnParams, Backbone, BackboneKind, HnswParams, NeuTrajModel, PersistError, TrainConfig,
};
use neutraj_serve::{
    QuerySpec, ServeRequest, ServiceConfig, ShardConfig, SimilarityService, Snapshot,
};
use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};
use std::sync::OnceLock;
use std::time::Duration;

fn model() -> NeuTrajModel {
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    let cfg = TrainConfig {
        backbone: BackboneKind::SamLstm,
        dim: 8,
        seed: 13,
        ..TrainConfig::neutraj()
    };
    NeuTrajModel::untrained(cfg, grid)
}

fn traj(id: u64, len: usize) -> Trajectory {
    Trajectory::new_unchecked(
        id,
        (0..len)
            .map(|k| {
                let t = k as f64;
                let i = id as f64;
                Point::new(
                    500.0 + 450.0 * (0.31 * t + 0.17 * i).sin(),
                    250.0 + 220.0 * (0.27 * t - 0.23 * i).cos(),
                )
            })
            .collect(),
    )
}

fn corpus(n: usize) -> Vec<Trajectory> {
    (0..n).map(|i| traj(i as u64, 4 + (i * 7) % 19)).collect()
}

fn full_config() -> ServiceConfig {
    ServiceConfig {
        nshards: 2,
        batch_deadline: Duration::from_micros(200),
        ann: Some(AnnParams {
            nlists: 3,
            train_iters: 5,
            train_sample: 0,
            seed: 7,
        }),
        quantized: true,
        ..ServiceConfig::default()
    }
}

/// [`full_config`] plus a per-shard graph: every stored view on.
fn views_config() -> ServiceConfig {
    ServiceConfig {
        graph: Some(HnswParams::default()),
        ..full_config()
    }
}

/// A two-shard service with both views that has taken inserts in
/// several batches (IVF lists and graphs grown past their build).
fn inserted_service(n: usize) -> SimilarityService {
    let service = SimilarityService::new(model(), corpus(n), &views_config()).unwrap();
    for (lo, hi) in [(n, n + 5), (n + 5, n + 6), (n + 6, n + 13)] {
        let batch = (lo..hi).map(|i| traj(i as u64, 5 + (i * 5) % 13)).collect();
        service.insert_batch(batch).unwrap();
    }
    service
}

/// `a` and `b` hold the same state: epoch, rows, every shard's view
/// bytes, and the same answers on every query path.
fn assert_same_state(a: &Snapshot, b: &Snapshot) {
    assert_eq!(
        (a.epoch(), a.len(), a.nshards()),
        (b.epoch(), b.len(), b.nshards())
    );
    for s in 0..a.nshards() {
        let (x, y) = (a.shard(s), b.shard(s));
        let ann = |db: &neutraj_model::SimilarityDb| db.ann_index().map(|ix| ix.to_bytes());
        let graph = |db: &neutraj_model::SimilarityDb| db.graph_index().map(|g| g.to_bytes());
        assert_eq!(ann(x), ann(y), "shard {s}'s IVF index differs");
        assert_eq!(graph(x), graph(y), "shard {s}'s graph differs");
    }
    for q in 0..20 {
        let query = traj(7000 + q, 6 + (q as usize * 3) % 11);
        for spec in [
            QuerySpec::new(5),
            QuerySpec::new(5).shortlist_ann(1),
            QuerySpec::new(5).shortlist_graph(5),
            QuerySpec::new(3).rerank(MeasureKind::Hausdorff),
            QuerySpec::new(3)
                .shortlist_graph(3)
                .rerank(MeasureKind::Hausdorff),
        ] {
            assert_eq!(
                a.search(&query, &spec).unwrap(),
                b.search(&query, &spec).unwrap(),
                "query {q} diverged for {spec:?}"
            );
        }
    }
}

/// The saved views are the served views: a snapshot that has taken
/// inserts comes back with the same IVF lists and graphs byte for byte
/// (a rebuild would refit k-means and rebuild the graph over all rows),
/// answers every query path the same, and stays in step with the
/// original as both take more inserts.
#[test]
fn restored_views_equal_the_served_views_through_later_inserts() {
    let dir = std::env::temp_dir().join(format!("neutraj_serve_views_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.nts");

    let service = inserted_service(40);
    assert_eq!(service.epoch(), 3);
    service.save_snapshot(&path).unwrap();
    let resumed =
        SimilarityService::from_snapshot(Snapshot::load(&path, 2).unwrap(), &views_config())
            .unwrap();
    assert_same_state(&service.snapshot(), &resumed.snapshot());

    for (lo, hi) in [(100, 104), (104, 111)] {
        for copy in [&service, &resumed] {
            let batch = (lo..hi)
                .map(|i| traj(i, 4 + (i as usize * 3) % 17))
                .collect();
            copy.insert_batch(batch).unwrap();
        }
        assert_same_state(&service.snapshot(), &resumed.snapshot());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard count the payload cannot back is a typed error returned
/// before anything is allocated per shard — not an allocation abort
/// (`2^40`) or a 200 000-shard snapshot over four rows.
#[test]
fn a_shard_count_the_payload_cannot_back_is_rejected() {
    let snapshot = Snapshot::build(&model(), corpus(4), &ShardConfig::new(1)).unwrap();
    let payload = snapshot.to_bytes();
    // `magic:8 ‖ epoch:u64 ‖ nshards:u64 ‖ …`
    for nshards in [1u64 << 40, 200_000] {
        let mut bad = payload.clone();
        bad[16..24].copy_from_slice(&nshards.to_le_bytes());
        let res = Snapshot::from_bytes(&bad, 1);
        assert!(
            matches!(res, Err(PersistError::Format(_))),
            "{nshards} shards over 4 rows: {:?}",
            res.map(|s| s.nshards())
        );
    }
}

/// Every snapshot `save` can write loads — more shards than rows, an
/// empty corpus — and the superseded `NTSNAP01` format is a typed error.
#[test]
fn edge_snapshots_roundtrip_and_ntsnap01_is_refused() {
    for (n, nshards) in [(3, 5), (0, 2), (0, 1)] {
        let snapshot = Snapshot::build(&model(), corpus(n), &ShardConfig::new(nshards)).unwrap();
        let bytes = snapshot.to_bytes();
        let back = Snapshot::from_bytes(&bytes, 2).unwrap();
        assert_eq!((back.len(), back.nshards()), (n, nshards));
        assert_eq!(back.to_bytes(), bytes, "{n} rows over {nshards} shards");
    }
    let mut old = snapshot_file().payload().to_vec();
    old[..8].copy_from_slice(b"NTSNAP01");
    assert!(matches!(
        Snapshot::from_bytes(&old, 1),
        Err(PersistError::Format(_))
    ));
}

/// Round-trip through the in-memory codec: the restored snapshot answers
/// every query shape bit-identically to the original (the re-embed is
/// the pinned lockstep forward, the int8 codes follow from it, and the
/// IVF index comes back as saved).
#[test]
fn snapshot_roundtrip_is_bit_identical_across_query_shapes() {
    let service = SimilarityService::new(model(), corpus(30), &full_config()).unwrap();
    let snapshot = service.snapshot();
    let bytes = snapshot.to_bytes();
    let back = Snapshot::from_bytes(&bytes, 2).unwrap();

    assert_eq!(back.epoch(), snapshot.epoch());
    assert_eq!(back.len(), snapshot.len());
    assert_eq!(back.nshards(), snapshot.nshards());

    let query = traj(5000, 11);
    for spec in [
        QuerySpec::new(5),
        QuerySpec::new(5).quantized(),
        QuerySpec::new(5).shortlist_ann(2),
        QuerySpec::new(3).rerank(neutraj_measures::MeasureKind::Hausdorff),
    ] {
        assert_eq!(
            back.search(&query, &spec).unwrap(),
            snapshot.search(&query, &spec).unwrap(),
            "loaded snapshot diverged for {spec:?}"
        );
    }
}

/// File-level crash recovery: save at a non-zero epoch, load, resume
/// serving — the epoch is preserved (sequences stay non-decreasing
/// across restart) and the resumed service picks up writes from there.
#[test]
fn save_load_resumes_service_at_the_saved_epoch() {
    let dir =
        std::env::temp_dir().join(format!("neutraj_serve_persistence_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.nts");

    let cfg = ServiceConfig {
        nshards: 2,
        batch_deadline: Duration::from_micros(200),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::new(model(), corpus(20), &cfg).unwrap();
    service.insert(traj(20, 9)).unwrap();
    service.insert(traj(21, 12)).unwrap();
    assert_eq!(service.epoch(), 2);

    let query = traj(6000, 10);
    let spec = QuerySpec::new(5);
    let expected = service
        .query(ServeRequest::new(1, query.clone(), spec))
        .unwrap();
    service.save_snapshot(&path).unwrap();
    // No temp file left behind by the atomic write.
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["snapshot.nts"]);
    drop(service);

    let restored = Snapshot::load(&path, 2).unwrap();
    assert_eq!(restored.epoch(), 2);
    assert_eq!(restored.len(), 22);
    let resumed = SimilarityService::from_snapshot(restored, &cfg).unwrap();
    let resp = resumed
        .query(ServeRequest::new(2, query.clone(), spec))
        .unwrap();
    assert_eq!(resp.epoch, 2, "saved epoch must survive the restart");
    assert_eq!(resp.neighbors, expected.neighbors);

    // Writes resume from the saved epoch, never reusing an old number.
    resumed.insert(traj(22, 8)).unwrap();
    assert_eq!(resumed.epoch(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot file `Snapshot::save` writes, over a service with every
/// optional part on (two shards, IVF, graph, the inert int8 flag) that
/// has taken inserts, built once: damage lands in the model, the corpus
/// and both views' sections.
fn snapshot_file() -> &'static Sealed {
    static IMG: OnceLock<Sealed> = OnceLock::new();
    IMG.get_or_init(|| {
        let snapshot = inserted_service(16).snapshot();
        Sealed::new(
            "snapshot",
            snapshot.to_bytes(),
            move |p| snapshot.save(p),
            |p| Ok(Snapshot::load(p, 1)?.to_bytes()),
        )
    })
}

/// The corruption contract: any damaged file — a flipped bit anywhere,
/// a torn tail, trailing garbage, a stripped envelope, damage resealed
/// under a valid checksum — is rejected by `Snapshot::load` and never
/// adopted; a save that cannot write is an I/O error and leaves nothing.
#[test]
fn corrupted_snapshot_images_are_rejected_never_adopted() {
    let file = snapshot_file();
    damage::intact_roundtrips(file);
    damage::bit_flips_are_rejected(file, 256);
    damage::every_truncation_is_rejected(file);
    damage::trailing_garbage_is_rejected(file, 256);
    damage::stripped_envelope_is_rejected(file);
    damage::combined_damage_never_loads_altered_bytes(file, 256);
    damage::a_save_into_a_missing_directory_is_an_io_error(file);
}

/// Damage below the envelope, resealed under a valid checksum, reaches
/// the `NTSNAP02` decoder, the re-embed and the view install: none may
/// panic.
#[test]
fn resealed_snapshot_payload_damage_never_panics() {
    damage::resealed_payload_damage_never_panics(snapshot_file(), 64);
}

/// A snapshot whose embedded model is ill-shaped SAM — its scan width
/// disagrees with its config, or exceeds its grid — is refused by
/// `Snapshot::load` before anything is built from it.
#[test]
fn ill_shaped_sam_model_in_a_snapshot_is_rejected_at_load() {
    let file = snapshot_file();
    let payload = file.payload();
    // The model rides as `len:u64 ‖ NTMODEL1…`: splice another one in.
    let at = payload
        .windows(8)
        .position(|w| w == b"NTMODEL1")
        .expect("the model section");
    let len = u64::from_le_bytes(payload[at - 8..at].try_into().unwrap()) as usize;
    let splice = |bad: &NeuTrajModel| {
        let bytes = bad.to_bytes();
        let mut out = payload[..at - 8].to_vec();
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
        out.extend_from_slice(&payload[at + len..]);
        out
    };
    // The splice itself is sound: the intact model spliced back is the
    // intact payload.
    assert_eq!(splice(&model()), payload);
    let mut wide = model();
    let Backbone::Sam(e) = wide.backbone_mut() else {
        panic!("SAM backbone")
    };
    e.scan_width = 40_000;
    damage::sealed_payload_is_rejected(file, &splice(&wide), "scan width != config");
    let past_grid = NeuTrajModel::untrained(
        TrainConfig {
            scan_width: 40_000,
            ..model().config().clone()
        },
        model().grid().clone(),
    );
    damage::sealed_payload_is_rejected(file, &splice(&past_grid), "scan width > grid");
}
