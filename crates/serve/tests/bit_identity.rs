//! Concurrency bit-identity suite: answers produced by the coalescing
//! service — concurrent clients, micro-batched dispatch, sharded
//! parallel scans — must equal issuing each query sequentially against
//! the same snapshot, across shard counts and every shortlist mode; and
//! in exact mode the sharded answer must equal the plain unsharded
//! `SimilarityDb::search` bit for bit.

use neutraj_measures::MeasureKind;
use neutraj_model::{AnnParams, BackboneKind, NeuTrajModel, TrainConfig};
use neutraj_obs::Registry;
use neutraj_serve::{
    sequential_reference, QuerySpec, ServeRequest, ServiceConfig, SimilarityService, Snapshot,
};
use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};
use std::time::Duration;

fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("counter {name} not registered"))
}

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
                    500.0 + 450.0 * (0.37 * t + 0.13 * i).sin(),
                    250.0 + 220.0 * (0.23 * t - 0.29 * i).cos(),
                )
            })
            .collect(),
    )
}

fn corpus(n: usize) -> Vec<Trajectory> {
    (0..n).map(|i| traj(i as u64, 3 + (i * 7) % 23)).collect()
}

fn queries(n: usize) -> Vec<Trajectory> {
    (0..n)
        .map(|i| traj(1000 + i as u64, 4 + (i * 5) % 19))
        .collect()
}

fn ann_params() -> AnnParams {
    AnnParams {
        nlists: 4,
        train_iters: 10,
        train_sample: 0,
        seed: 7,
    }
}

/// Every shortlist mode the request surface can express. A "quantized"
/// spec is the plain spec, so its answers must be the plain spec's.
fn all_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new(5),
        QuerySpec::new(5).shortlist(12).rerank(MeasureKind::Dtw),
        QuerySpec::new(5).rerank(MeasureKind::Hausdorff),
        QuerySpec::new(5).shortlist_ann(2),
        QuerySpec::new(5).shortlist_ann(4),
        QuerySpec::new(5).quantized(),
        QuerySpec::new(5)
            .quantized()
            .shortlist(12)
            .rerank(MeasureKind::Frechet),
    ]
}

fn service_config(nshards: usize) -> ServiceConfig {
    ServiceConfig {
        nshards,
        max_batch: 8,
        batch_deadline: Duration::from_millis(2),
        scan_threads: 2,
        build_threads: 1,
        ann: Some(ann_params()),
        quantized: true,
        ..ServiceConfig::default()
    }
}

/// Coalesced concurrent answers == per-query sequential `search` over
/// the same snapshot, for shard counts 1/2/4 and all shortlist modes.
#[test]
fn coalesced_batches_match_sequential_queries() {
    let m = model();
    let corpus = corpus(48);
    let qs = queries(6);
    // The reference of a "quantized" spec below is the plain spec's, bit
    // for bit, and the two coalesce into one group.
    assert_eq!(QuerySpec::new(5).quantized(), QuerySpec::new(5));
    for nshards in [1usize, 2, 4] {
        let service =
            SimilarityService::new(m.clone(), corpus.clone(), &service_config(nshards)).unwrap();
        let snapshot = service.snapshot();
        for spec in all_specs() {
            let requests: Vec<ServeRequest> = qs
                .iter()
                .enumerate()
                .map(|(i, q)| ServeRequest::new(i as u64, q.clone(), spec))
                .collect();
            let want = sequential_reference(&snapshot, &requests);
            // Concurrent clients: each thread owns one request and waits
            // for its own answer while the scheduler coalesces them.
            let got: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = requests
                    .iter()
                    .map(|r| {
                        let service = &service;
                        let r = r.clone();
                        scope.spawn(move || service.query(r))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                let got = got.as_ref().unwrap_or_else(|e| {
                    panic!("query {i} failed with {e} ({nshards} shards, {spec:?})")
                });
                assert_eq!(got.id, i as u64);
                assert_eq!(
                    &got.neighbors,
                    want.as_ref().unwrap(),
                    "coalesced != sequential at {nshards} shards, {spec:?}"
                );
            }
        }
    }
}

/// In exact mode (and exact + re-rank) the sharded merge is bit-identical
/// to the plain unsharded database search over the concatenated corpus.
#[test]
fn sharded_exact_scan_matches_unsharded_db() {
    let m = model();
    let corpus = corpus(48);
    let qs = queries(6);
    let db = neutraj_model::SimilarityDb::with_corpus(m.clone(), corpus.clone(), 1);
    for nshards in [1usize, 2, 4] {
        let snapshot = Snapshot::build(
            &m,
            corpus.clone(),
            &neutraj_serve::ShardConfig::new(nshards),
        )
        .unwrap();
        for spec in [
            QuerySpec::new(5),
            QuerySpec::new(5).shortlist(12).rerank(MeasureKind::Dtw),
            QuerySpec::new(5).rerank(MeasureKind::Hausdorff),
        ] {
            for q in &qs {
                let sharded = snapshot.search(q, &spec).unwrap();
                let flat = spec.with_query(|query| db.search(q, query)).unwrap();
                assert_eq!(
                    sharded, flat,
                    "sharded exact scan diverged at {nshards} shards, {spec:?}"
                );
            }
        }
    }
}

/// Probing every IVF list recovers the exact scan: same candidates, same
/// exact distances, same `(dist, index)` order.
#[test]
fn full_probe_ivf_matches_exact_scan() {
    let m = model();
    let corpus = corpus(48);
    let qs = queries(6);
    for nshards in [1usize, 2] {
        let cfg = neutraj_serve::ShardConfig {
            nshards,
            build_threads: 1,
            ann: Some(ann_params()),
            graph: None,
            quantized: false,
        };
        let snapshot = Snapshot::build(&m, corpus.clone(), &cfg).unwrap();
        for q in &qs {
            let exact = snapshot.search(q, &QuerySpec::new(5)).unwrap();
            let full_probe = snapshot
                .search(q, &QuerySpec::new(5).shortlist_ann(ann_params().nlists))
                .unwrap();
            assert_eq!(
                full_probe, exact,
                "full-probe IVF diverged at {nshards} shards"
            );
        }
    }
}

/// The scheduler actually coalesces: a burst of submitted requests lands
/// in fewer batches than requests, and every answer still matches the
/// sequential reference.
#[test]
fn burst_coalesces_into_fewer_batches() {
    let registry = Registry::new();
    let m = model();
    let corpus = corpus(48);
    let qs = queries(12);
    let cfg = ServiceConfig {
        nshards: 2,
        max_batch: 8,
        batch_deadline: Duration::from_millis(50),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(m, corpus, &cfg, &registry).unwrap();
    let snapshot = service.snapshot();
    let spec = QuerySpec::new(5);
    let requests: Vec<ServeRequest> = qs
        .iter()
        .enumerate()
        .map(|(i, q)| ServeRequest::new(i as u64, q.clone(), spec))
        .collect();
    let want = sequential_reference(&snapshot, &requests);
    // Open-loop burst: enqueue all twelve before collecting any answer,
    // well inside the 50ms deadline, so the scheduler must coalesce.
    let receivers: Vec<_> = requests.iter().map(|r| service.submit(r.clone())).collect();
    for (i, rx) in receivers.into_iter().enumerate() {
        let got = rx.recv().unwrap().unwrap();
        assert_eq!(got.neighbors, *want[i].as_ref().unwrap());
    }
    let requests_total = counter(&registry, neutraj_obs::names::SERVE_REQUESTS_TOTAL);
    let batches_total = counter(&registry, neutraj_obs::names::SERVE_BATCHES_TOTAL);
    assert_eq!(requests_total, 12);
    assert!(
        batches_total < requests_total,
        "burst of {requests_total} requests dispatched as {batches_total} batches — no coalescing"
    );
}

/// The typed rejection surface: invalid specs, invalid trajectories, and
/// configuration-vs-snapshot mismatches come back as `ServeError::Db`
/// through the normal reply channel — the service route never panics.
#[test]
fn invalid_requests_are_rejected_not_panicked() {
    let registry = Registry::new();
    let m = model();
    // No ANN index: IVF specs must be rejected up front.
    let cfg = ServiceConfig {
        nshards: 2,
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(m, corpus(20), &cfg, &registry).unwrap();
    let q = traj(2000, 9);
    let bad = [
        ServeRequest::new(0, q.clone(), QuerySpec::new(0)),
        ServeRequest::new(
            1,
            q.clone(),
            QuerySpec::new(5).shortlist(3).rerank(MeasureKind::Dtw),
        ),
        ServeRequest::new(2, q.clone(), QuerySpec::new(5).shortlist_ann(0)),
        ServeRequest::new(3, q.clone(), QuerySpec::new(5).shortlist_ann(2)),
        ServeRequest::new(4, Trajectory::new_unchecked(9, vec![]), QuerySpec::new(5)),
    ];
    let n_bad = bad.len() as u64;
    for req in bad {
        let id = req.id;
        match service.query(req) {
            Err(neutraj_serve::ServeError::Db(_)) => {}
            other => panic!("request {id} should be rejected, got {other:?}"),
        }
    }
    // A valid request on the same service still succeeds afterwards.
    let ok = service
        .query(ServeRequest::new(9, q, QuerySpec::new(5)))
        .unwrap();
    assert_eq!(ok.neighbors.len(), 5);
    let rejects = counter(&registry, neutraj_obs::names::DB_REJECTS_TOTAL);
    assert_eq!(rejects, n_bad, "every rejection is counted exactly once");
}
