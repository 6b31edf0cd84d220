//! Snapshot-rotation suite: readers querying concurrently with a writer
//! never see a torn corpus — every answer equals the reference result of
//! exactly one published epoch, old snapshots keep serving until the
//! swap, and the final epoch serves the final corpus.
//!
//! The second half pins what a rotation shares with the snapshot it came
//! from (DESIGN.md §13): a chain of `Snapshot::inserted` calls equals the
//! row-by-row deep-copy oracle bit for bit, forks stay independent, and
//! the sharing is observed through pointer-equality probes, not assumed.

use neutraj_measures::MeasureKind;
use neutraj_model::{AnnParams, BackboneKind, HnswParams, NeuTrajModel, SimilarityDb, TrainConfig};
use neutraj_obs::{names, Registry};
use neutraj_serve::{
    QuerySpec, ServeError, ServeRequest, ServiceConfig, ShardConfig, SimilarityService, Snapshot,
};
use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};
use std::time::Duration;

fn model() -> NeuTrajModel {
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    let cfg = TrainConfig {
        backbone: BackboneKind::SamLstm,
        dim: 8,
        seed: 9,
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
                    500.0 + 450.0 * (0.41 * t + 0.11 * i).sin(),
                    250.0 + 220.0 * (0.19 * t - 0.31 * i).cos(),
                )
            })
            .collect(),
    )
}

/// Readers race a writer that publishes `M` single-insert epochs. Every
/// response must match the reference answer of the epoch it reports —
/// i.e. one of the `M + 1` corpus prefixes, never a mix of two.
#[test]
fn concurrent_reads_see_whole_epochs_only() {
    const INITIAL: usize = 30;
    const INSERTS: usize = 10;
    const NSHARDS: usize = 2;

    let m = model();
    let initial: Vec<Trajectory> = (0..INITIAL)
        .map(|i| traj(i as u64, 3 + (i * 7) % 23))
        .collect();
    let inserts: Vec<Trajectory> = (0..INSERTS)
        .map(|i| traj((INITIAL + i) as u64, 4 + (i * 5) % 21))
        .collect();
    let query = traj(5000, 11);
    let spec = QuerySpec::new(5);

    // Reference chain: epoch e's corpus is initial + inserts[..e], built
    // through the same copy-on-write `inserted` path the service uses.
    let cfg = ServiceConfig {
        nshards: NSHARDS,
        max_batch: 4,
        batch_deadline: Duration::from_micros(200),
        ..ServiceConfig::default()
    };
    let shard_cfg = neutraj_serve::ShardConfig::new(NSHARDS);
    let mut chain = vec![Snapshot::build(&m, initial.clone(), &shard_cfg).unwrap()];
    for t in &inserts {
        chain.push(
            chain
                .last()
                .unwrap()
                .inserted(std::slice::from_ref(t))
                .unwrap(),
        );
    }
    let expected: Vec<_> = chain
        .iter()
        .map(|snap| snap.search(&query, &spec).unwrap())
        .collect();

    let service = SimilarityService::new(m, initial, &cfg).unwrap();
    assert_eq!(service.epoch(), 0);
    assert_eq!(service.len(), INITIAL);

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for t in &inserts {
                let global = service.insert(t.clone()).unwrap();
                // Global indices are handed out densely in insert order.
                assert!((INITIAL..INITIAL + INSERTS).contains(&global));
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let service = &service;
                let query = &query;
                let expected = &expected;
                scope.spawn(move || {
                    let mut seen_epochs = Vec::new();
                    for i in 0..20u64 {
                        let resp = service
                            .query(ServeRequest::new(r * 100 + i, query.clone(), spec))
                            .unwrap();
                        let epoch = resp.epoch as usize;
                        assert!(
                            epoch <= INSERTS,
                            "epoch {epoch} was never published (reader {r})"
                        );
                        assert_eq!(
                            resp.neighbors, expected[epoch],
                            "reader {r} iteration {i}: answer does not match the \
                             corpus of its reported epoch {epoch} — torn read"
                        );
                        seen_epochs.push(resp.epoch);
                    }
                    seen_epochs
                })
            })
            .collect();
        writer.join().unwrap();
        for reader in readers {
            let epochs = reader.join().unwrap();
            // Snapshots are published in order, so each reader observes a
            // non-decreasing epoch sequence.
            assert!(
                epochs.windows(2).all(|w| w[0] <= w[1]),
                "epochs went backwards: {epochs:?}"
            );
        }
    });

    // The final published snapshot serves the full corpus.
    assert_eq!(service.epoch(), INSERTS as u64);
    assert_eq!(service.len(), INITIAL + INSERTS);
    let last = service
        .query(ServeRequest::new(9999, query.clone(), spec))
        .unwrap();
    assert_eq!(last.epoch, INSERTS as u64);
    assert_eq!(last.neighbors, expected[INSERTS]);

    // An old snapshot handle taken before teardown keeps answering with
    // its own epoch's corpus — publication never mutates in place.
    let old = chain.first().unwrap();
    assert_eq!(old.search(&query, &spec).unwrap(), expected[0]);
    assert_eq!(old.len(), INITIAL);
}

/// Rotation racing shedding: writers publish epochs while reader bursts
/// overflow a small bounded queue. Every *accepted* answer must still
/// match the reference result of exactly one published epoch (no torn
/// reads under admission pressure), per-reader epoch sequences stay
/// non-decreasing, and every rejection is the typed `Overloaded` — the
/// overload ladder may drop work, never corrupt it.
#[test]
fn rotation_races_overload_shedding_without_tearing() {
    use neutraj_serve::ServeError;

    const INITIAL: usize = 24;
    const INSERTS: usize = 8;
    const NSHARDS: usize = 2;

    let m = model();
    let initial: Vec<Trajectory> = (0..INITIAL)
        .map(|i| traj(i as u64, 3 + (i * 7) % 23))
        .collect();
    let inserts: Vec<Trajectory> = (0..INSERTS)
        .map(|i| traj((INITIAL + i) as u64, 4 + (i * 5) % 21))
        .collect();
    let query = traj(5000, 11);
    let spec = QuerySpec::new(5);

    let shard_cfg = neutraj_serve::ShardConfig::new(NSHARDS);
    let mut chain = vec![Snapshot::build(&m, initial.clone(), &shard_cfg).unwrap()];
    for t in &inserts {
        chain.push(
            chain
                .last()
                .unwrap()
                .inserted(std::slice::from_ref(t))
                .unwrap(),
        );
    }
    let expected: Vec<_> = chain
        .iter()
        .map(|snap| snap.search(&query, &spec).unwrap())
        .collect();

    let cfg = ServiceConfig {
        nshards: NSHARDS,
        max_batch: 4,
        batch_deadline: Duration::from_micros(300),
        // Small enough that reader bursts overflow it routinely.
        max_queue: 6,
        ..ServiceConfig::default()
    };
    let service = SimilarityService::new(m, initial, &cfg).unwrap();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for t in &inserts {
                service.insert(t.clone()).unwrap();
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let service = &service;
                let query = &query;
                let expected = &expected;
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    let (mut accepted, mut shed) = (0u64, 0u64);
                    for burst in 0..30u64 {
                        // Fire a burst without draining, so admissions
                        // race the writer's publications *and* the
                        // bounded queue.
                        let rxs: Vec<_> = (0..4u64)
                            .map(|i| {
                                service.submit(ServeRequest::new(
                                    r * 1000 + burst * 10 + i,
                                    query.clone(),
                                    spec,
                                ))
                            })
                            .collect();
                        for rx in rxs {
                            match rx.recv().unwrap() {
                                Ok(resp) => {
                                    accepted += 1;
                                    let epoch = resp.epoch as usize;
                                    assert!(epoch <= INSERTS, "unpublished epoch {epoch}");
                                    assert!(!resp.degraded && !resp.partial);
                                    assert_eq!(
                                        resp.neighbors, expected[epoch],
                                        "reader {r}: answer does not match its \
                                         reported epoch {epoch} — torn under shedding"
                                    );
                                    assert!(
                                        resp.epoch >= last_epoch,
                                        "reader {r}: epoch went backwards \
                                         ({} after {last_epoch})",
                                        resp.epoch
                                    );
                                    last_epoch = resp.epoch;
                                }
                                Err(ServeError::Overloaded { retry_after_hint }) => {
                                    shed += 1;
                                    assert!(retry_after_hint > Duration::ZERO);
                                }
                                Err(other) => panic!("untyped failure: {other:?}"),
                            }
                        }
                    }
                    (accepted, shed)
                })
            })
            .collect();
        writer.join().unwrap();
        let mut total_accepted = 0;
        for reader in readers {
            let (accepted, _) = reader.join().unwrap();
            total_accepted += accepted;
        }
        assert!(
            total_accepted > 0,
            "overload pressure must not starve the service entirely"
        );
    });

    // The writer's epochs all landed despite the shedding storm.
    assert_eq!(service.epoch(), INSERTS as u64);
    assert_eq!(service.len(), INITIAL + INSERTS);
    let last = service
        .query(ServeRequest::new(9999, query.clone(), spec))
        .unwrap();
    assert_eq!(last.neighbors, expected[INSERTS]);
}

/// Rotation racing the graph backend: a writer publishes single-insert
/// epochs while readers issue graph-shortlist queries. Every answer must
/// match the reference result of its reported epoch's corpus under the
/// *same* deterministic HNSW construction — inserts keep the per-shard
/// graphs live, so no response is degraded and no epoch is torn.
#[test]
fn graph_queries_race_rotation_without_tearing() {
    use neutraj_model::HnswParams;

    const INITIAL: usize = 30;
    const INSERTS: usize = 10;
    const NSHARDS: usize = 2;

    let m = model();
    let initial: Vec<Trajectory> = (0..INITIAL)
        .map(|i| traj(i as u64, 3 + (i * 7) % 23))
        .collect();
    let inserts: Vec<Trajectory> = (0..INSERTS)
        .map(|i| traj((INITIAL + i) as u64, 4 + (i * 5) % 21))
        .collect();
    let query = traj(5000, 11);
    let params = HnswParams::default();
    let spec = QuerySpec::new(5).shortlist_graph(24);

    // Reference chain with the same graph params: epoch e answers over
    // initial + inserts[..e] through live graph maintenance, exactly
    // like the service's copy-on-write insert path.
    let shard_cfg = neutraj_serve::ShardConfig {
        graph: Some(params),
        ..neutraj_serve::ShardConfig::new(NSHARDS)
    };
    let mut chain = vec![Snapshot::build(&m, initial.clone(), &shard_cfg).unwrap()];
    for t in &inserts {
        chain.push(
            chain
                .last()
                .unwrap()
                .inserted(std::slice::from_ref(t))
                .unwrap(),
        );
    }
    let expected: Vec<_> = chain
        .iter()
        .map(|snap| snap.search(&query, &spec).unwrap())
        .collect();

    let cfg = ServiceConfig {
        nshards: NSHARDS,
        max_batch: 4,
        batch_deadline: Duration::from_micros(200),
        graph: Some(params),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::new(m, initial, &cfg).unwrap();

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for t in &inserts {
                service.insert(t.clone()).unwrap();
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let service = &service;
                let query = &query;
                let expected = &expected;
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    for i in 0..20u64 {
                        let resp = service
                            .query(ServeRequest::new(r * 100 + i, query.clone(), spec))
                            .unwrap();
                        let epoch = resp.epoch as usize;
                        assert!(epoch <= INSERTS, "unpublished epoch {epoch}");
                        assert!(
                            !resp.degraded,
                            "graph index must stay live across rotation \
                             (reader {r} epoch {epoch} fell back)"
                        );
                        assert_eq!(
                            resp.neighbors, expected[epoch],
                            "reader {r} iteration {i}: graph answer does not \
                             match the corpus of its reported epoch {epoch}"
                        );
                        assert!(resp.epoch >= last_epoch, "epoch went backwards");
                        last_epoch = resp.epoch;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for reader in readers {
            reader.join().unwrap();
        }
    });

    assert_eq!(service.epoch(), INSERTS as u64);
    assert_eq!(service.len(), INITIAL + INSERTS);
    let last = service
        .query(ServeRequest::new(9999, query.clone(), spec))
        .unwrap();
    assert!(!last.degraded);
    assert_eq!(last.neighbors, expected[INSERTS]);
}

/// Batch inserts are one epoch step: all-or-nothing, single publication.
#[test]
fn batch_insert_publishes_one_epoch() {
    let m = model();
    let initial: Vec<Trajectory> = (0..20).map(|i| traj(i as u64, 5 + (i * 3) % 17)).collect();
    let service = SimilarityService::new(m, initial, &ServiceConfig::default()).unwrap();
    assert_eq!(service.epoch(), 0);

    let more: Vec<Trajectory> = (20..30).map(|i| traj(i as u64, 6 + (i * 5) % 13)).collect();
    service.insert_batch(more).unwrap();
    assert_eq!(service.epoch(), 1);
    assert_eq!(service.len(), 30);

    // A batch containing one invalid trajectory changes nothing at all.
    let poisoned = vec![traj(30, 8), Trajectory::new_unchecked(31, vec![])];
    assert!(service.insert_batch(poisoned).is_err());
    assert_eq!(service.epoch(), 1);
    assert_eq!(service.len(), 30);
}

/// A rejected insert is typed, counted once, and publishes nothing: the
/// served snapshot is the very one that was served before the call.
#[test]
fn rejected_insert_is_typed_counted_and_changes_nothing() {
    let registry = Registry::new();
    let initial: Vec<Trajectory> = (0..20).map(|i| traj(i as u64, 5 + (i * 3) % 17)).collect();
    let cfg = ServiceConfig {
        nshards: 2,
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(model(), initial, &cfg, &registry).unwrap();
    let rejects = || registry.counter(names::DB_REJECTS_TOTAL).get();
    let queries: Vec<Trajectory> = (0..4).map(|i| traj(5000 + i, 9)).collect();
    let spec = QuerySpec::new(5);
    let before = service.snapshot();
    let answers = before.search_batch(&queries, &spec, 1).unwrap();

    let poisoned = vec![
        traj(20, 8),
        Trajectory::new_unchecked(21, vec![]),
        traj(22, 8),
    ];
    let err = service.insert_batch(poisoned).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Db(neutraj_model::DbError::InvalidTrajectory { id: 21, .. })
        ),
        "{err:?}"
    );
    assert_eq!(rejects(), 1);
    let nan = traj(23, 6).map_points(|p| Point::new(f64::NAN, p.y));
    assert!(service.insert(nan).is_err());
    assert_eq!(rejects(), 2);

    assert_eq!((service.len(), service.epoch()), (20, 0));
    assert!(
        std::sync::Arc::ptr_eq(&before, &service.snapshot()),
        "a rejected insert published a snapshot"
    );
    for (q, want) in queries.iter().zip(&answers) {
        let got = service
            .query(ServeRequest::new(1, q.clone(), spec))
            .unwrap();
        assert_eq!((got.epoch, &got.neighbors), (0, want));
    }
    // Nothing was appended, so nothing was recorded as appended.
    assert_eq!(registry.counter(names::SERVE_INSERT_ROWS_TOTAL).get(), 0);
    assert_eq!(registry.histogram(names::SERVE_INSERT_SECONDS).count(), 0);

    // And the write path still works, and says so.
    service
        .insert_batch(vec![traj(20, 8), traj(22, 8)])
        .unwrap();
    assert_eq!(service.insert(traj(24, 7)).unwrap(), 22);
    assert_eq!((service.len(), service.epoch()), (23, 2));
    assert_eq!(rejects(), 2);
    assert_eq!(registry.counter(names::SERVE_INSERT_ROWS_TOTAL).get(), 3);
    assert_eq!(registry.histogram(names::SERVE_INSERT_SECONDS).count(), 2);
}

/// Rows per shared trajectory chunk, found through the sharing probe
/// rather than mirrored from `db.rs`: the size at which a growing
/// database first reports a full chunk.
fn chunk_rows(m: &NeuTrajModel) -> usize {
    let mut db = SimilarityDb::new(m.clone());
    while db.shared_row_chunks(&db)[0].1 == 0 {
        assert!(db.len() < 4096, "no full chunk after {} rows", db.len());
        db.insert(traj(db.len() as u64, 2)).unwrap();
    }
    db.len()
}

/// The section bytes of each view a shard carries. (The int8 codes are
/// a column of the store, compared with it.)
fn view_bytes(db: &SimilarityDb) -> [Option<Vec<u8>>; 2] {
    [
        db.ann_index().map(|v| v.to_bytes()),
        db.graph_index().map(|v| v.to_bytes()),
    ]
}

/// (a) + (c): for 1–3 shards and each view, one chain of rotations that
/// starts every shard one row short of a full chunk, so its steps insert
/// from `len % CHUNK` = CHUNK − 1, 0 and 1. After every step each shard
/// equals the oracle — a deep copy grown by one scalar-embedded `insert`
/// per row — in store, view bytes, rows and answers; every full chunk of
/// a touched shard and every untouched shard is the parent's by pointer;
/// and the parent still is what it was.
#[test]
fn rotation_chain_equals_the_row_by_row_oracle_and_shares_what_it_can() {
    let m = model();
    let chunk = chunk_rows(&m);
    let ann = AnnParams {
        nlists: 4,
        ..AnnParams::default()
    };
    let views: [(&str, ShardConfig, QuerySpec); 4] = [
        ("exact", ShardConfig::new(0), QuerySpec::new(5)),
        (
            "int8",
            ShardConfig {
                quantized: true,
                ..ShardConfig::new(0)
            },
            QuerySpec::new(5).quantized(),
        ),
        (
            "ivf",
            ShardConfig {
                ann: Some(ann),
                ..ShardConfig::new(0)
            },
            QuerySpec::new(5).shortlist_ann(2),
        ),
        (
            "graph",
            ShardConfig {
                graph: Some(HnswParams::default()),
                ..ShardConfig::new(0)
            },
            QuerySpec::new(5).shortlist_graph(24),
        ),
    ];
    let rerank = QuerySpec::new(3)
        .shortlist(9)
        .rerank(MeasureKind::Hausdorff);
    let queries: Vec<Trajectory> = (0..3).map(|i| traj(7000 + i, 6 + 2 * i as usize)).collect();

    for nshards in 1..=3usize {
        let start = nshards * (chunk - 1);
        let batches = [1, nshards - 1, nshards, nshards + 1, 8];
        let total = start + batches.iter().sum::<usize>();
        let all: Vec<Trajectory> = (0..total)
            .map(|i| traj(i as u64, 3 + (i * 7) % 13))
            .collect();
        for (view, cfg, spec) in &views {
            let cfg = ShardConfig {
                nshards,
                ..cfg.clone()
            };
            let mut parent = Snapshot::build(&m, all[..start].to_vec(), &cfg).unwrap();
            let mut oracle: Vec<SimilarityDb> =
                (0..nshards).map(|s| parent.shard(s).clone()).collect();
            let mut shared_chunks = 0;
            for n in batches {
                let at = parent.len();
                let what = format!("{view}, {nshards} shards, +{n} at {at}");
                let before = parent.search_batch(&queries, spec, 1).unwrap();
                let child = parent.inserted(&all[at..at + n]).unwrap();
                for g in at..at + n {
                    oracle[g % nshards].insert(all[g].clone()).unwrap();
                }

                assert_eq!((child.len(), child.epoch()), (at + n, parent.epoch() + 1));
                for (g, t) in all[..at + n].iter().enumerate() {
                    assert_eq!(child.trajectory(g), Some(t), "{what}: row {g}");
                }
                assert_eq!(child.trajectory(at + n), None, "{what}");
                for (s, want) in oracle.iter().enumerate() {
                    let got = child.shard(s);
                    assert_eq!(got.len(), want.len(), "{what}: shard {s} len");
                    assert!(got.store() == want.store(), "{what}: shard {s} store");
                    assert!(
                        view_bytes(got) == view_bytes(want),
                        "{what}: shard {s} view bytes"
                    );
                    for sp in [spec, &rerank] {
                        assert_eq!(
                            sp.with_query(|q| got.search_batch(&queries, q)).unwrap(),
                            sp.with_query(|q| want.search_batch(&queries, q)).unwrap(),
                            "{what}: shard {s} answers of {sp:?}"
                        );
                    }
                    // Rows at + k with (at + k) % nshards == s landed here.
                    let touched = (at..at + n).any(|g| g % nshards == s);
                    assert_eq!(
                        child.shares_shard(&parent, s),
                        !touched,
                        "{what}: shard {s}"
                    );
                    // Trajectories, store rows, codes: every full chunk of
                    // each list is the parent's.
                    let lists = got.shared_row_chunks(parent.shard(s));
                    for (list, (shared, full)) in lists.into_iter().enumerate() {
                        assert_eq!(
                            shared, full,
                            "{what}: shard {s} copied a chunk of list {list}"
                        );
                    }
                    let (shared, full) = lists[0];
                    assert_eq!(full, parent.shard(s).len() / chunk, "{what}: shard {s}");
                    assert_eq!(lists[1], lists[0], "{what}: shard {s} store rows");
                    shared_chunks += shared;
                }
                // The exact scan and the re-rank do not depend on how a
                // snapshot came to be: the bulk build is a second oracle.
                let bulk = Snapshot::build(&m, all[..at + n].to_vec(), &ShardConfig::new(nshards));
                let bulk = bulk.unwrap();
                for sp in [QuerySpec::new(5), rerank] {
                    assert_eq!(
                        child.search_batch(&queries, &sp, 1).unwrap(),
                        bulk.search_batch(&queries, &sp, 1).unwrap(),
                        "{what}: snapshot answers of {sp:?}"
                    );
                }
                // Copy-on-write: the parent is what it was.
                assert_eq!(parent.len(), at, "{what}: parent grew");
                assert_eq!(
                    parent.search_batch(&queries, spec, 1).unwrap(),
                    before,
                    "{what}: parent answers moved"
                );
                parent = child;
            }
            assert!(
                shared_chunks > 0,
                "{view}, {nshards} shards: nothing was shared"
            );
        }
    }
}

/// (b): two different rotations off one parent never see each other's
/// rows, and the parent sees neither's.
#[test]
fn forked_rotations_are_independent() {
    let m = model();
    let chunk = chunk_rows(&m);
    let n0 = 2 * (chunk + 7); // both shards end in a partly filled chunk
    let all: Vec<Trajectory> = (0..n0 + 20)
        .map(|i| traj(i as u64, 3 + (i * 5) % 11))
        .collect();
    let cfg = ShardConfig {
        quantized: true,
        ..ShardConfig::new(2)
    };
    let parent = Snapshot::build(&m, all[..n0].to_vec(), &cfg).unwrap();
    let queries: Vec<Trajectory> = (0..3).map(|i| traj(8000 + i, 8)).collect();
    let spec = QuerySpec::new(6).quantized();
    let before = parent.search_batch(&queries, &spec, 1).unwrap();

    let left = parent.inserted(&all[n0..n0 + 3]).unwrap();
    let right = parent.inserted(&all[n0 + 10..n0 + 15]).unwrap();
    for (fork, rows) in [(&left, &all[n0..n0 + 3]), (&right, &all[n0 + 10..n0 + 15])] {
        assert_eq!((fork.len(), fork.epoch()), (n0 + rows.len(), 1));
        for (k, t) in rows.iter().enumerate() {
            assert_eq!(fork.trajectory(n0 + k), Some(t));
        }
        assert_eq!(fork.trajectory(n0 + rows.len()), None);
        let mut grown = all[..n0].to_vec();
        grown.extend_from_slice(rows);
        let want = Snapshot::build(&m, grown, &cfg).unwrap();
        assert_eq!(
            fork.search_batch(&queries, &spec, 1).unwrap(),
            want.search_batch(&queries, &spec, 1).unwrap()
        );
    }
    assert_eq!((parent.len(), parent.epoch()), (n0, 0));
    assert_eq!(parent.trajectory(n0), None);
    assert_eq!(parent.search_batch(&queries, &spec, 1).unwrap(), before);
}

/// (e): the bulk load fills whole chunks — a 20k-row build leaves every
/// shard with `len / CHUNK` full chunks and at most one partial one, so
/// set-up pays no per-row copy for the sharing.
#[test]
fn bulk_load_fills_whole_chunks() {
    let m = model();
    let chunk = chunk_rows(&m);
    let corpus: Vec<Trajectory> = (0..20_000).map(|i| traj(i as u64, 1)).collect();
    let cfg = ShardConfig {
        build_threads: 2,
        ..ShardConfig::new(3)
    };
    let snapshot = Snapshot::build(&m, corpus, &cfg).unwrap();
    for s in 0..3 {
        let db = snapshot.shard(s);
        assert_eq!(db.len(), 20_000 / 3 + usize::from(s < 20_000 % 3));
        // The codes come in chunks of their own size: whole ones too.
        let full = (db.len() / chunk, db.len() / chunk);
        let [rows, store, codes] = db.shared_row_chunks(db);
        assert_eq!((rows, store), (full, full));
        assert!(codes.0 == codes.1 && codes.1 > 0, "{codes:?}");
    }
}
