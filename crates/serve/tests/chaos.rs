//! Serving chaos suite: injected scan panics, poisoned locks, deadline
//! storms, and overload bursts. The invariants (DESIGN.md §14):
//!
//! * the service never deadlocks and never panics a caller;
//! * every response is typed — `Ok` with an honest `partial` marker, or
//!   a specific [`ServeError`];
//! * a non-partial answer is bit-identical to the sequential oracle over
//!   the same snapshot, at any queue depth: no spec is ever rewritten;
//! * shedding, deadline expiry, and quarantine are all observable
//!   through their `neutraj_serve_*` counters;
//! * dropping the service drains the queue — every accepted request is
//!   answered before the scheduler exits.

use neutraj_model::{AnnParams, BackboneKind, DbError, NeuTrajModel, TrainConfig};
use neutraj_obs::{names, Registry};
use neutraj_serve::{
    sequential_reference, QuerySpec, ServeError, ServeRequest, ServeResponse, ServiceConfig,
    SimilarityService,
};
use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn model() -> NeuTrajModel {
    let grid = Grid::new(BoundingBox::new(0.0, 0.0, 1000.0, 500.0), 50.0).unwrap();
    let cfg = TrainConfig {
        backbone: BackboneKind::SamLstm,
        dim: 8,
        seed: 11,
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

/// Holds the shard scans `hold` picks (by their order, from 0) until the
/// test lets them go: a held scan says on `started` that it has begun,
/// then waits for one message on `go`. A failing assert drops `go` as it
/// unwinds (declare the hold after the service, so it drops first), which
/// lets the scan go, so no failure hangs the test; the wait also ends on
/// its own after ten seconds.
struct ScanHold {
    started: Receiver<()>,
    go: Sender<()>,
}

impl ScanHold {
    fn install(
        service: &SimilarityService,
        hold: impl Fn(usize) -> bool + Send + Sync + 'static,
    ) -> Self {
        let (started_tx, started) = channel();
        let (go, go_rx) = channel();
        let go_rx = Mutex::new(go_rx);
        let scans = AtomicUsize::new(0);
        service.set_scan_fault(Some(Arc::new(move |_shard| {
            if hold(scans.fetch_add(1, Ordering::SeqCst)) {
                let _ = started_tx.send(());
                let _ = go_rx.lock().unwrap().recv_timeout(Duration::from_secs(10));
            }
            false
        })));
        Self { started, go }
    }

    /// Waits until the next held scan has begun.
    fn started(&self) {
        self.started
            .recv_timeout(Duration::from_secs(10))
            .expect("the held scan never started");
    }

    /// Lets the held scan go.
    fn release(&self) {
        self.go.send(()).unwrap();
    }
}

/// Silences the *injected* panics (they are supposed to fire — their
/// backtraces would drown the test output) while forwarding every other
/// panic to the default hook, so a real failure still reports normally.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected shard") && !msg.contains("deliberate queue poison") {
                default(info);
            }
        }));
    });
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry.counter(name).get()
}

/// A panicking shard is isolated, quarantined, and — after its backoff —
/// re-admitted; the service answers throughout, first `partial`, then
/// (recovered) bit-identical to the full oracle.
#[test]
fn injected_shard_panic_quarantines_then_recovers() {
    silence_injected_panics();
    let registry = Registry::new();
    let cfg = ServiceConfig {
        nshards: 2,
        scan_threads: 2,
        max_batch: 4,
        batch_deadline: Duration::from_micros(200),
        quarantine_backoff: Duration::from_millis(30),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(model(), corpus(30), &cfg, &registry).unwrap();
    let snapshot = service.snapshot();
    let query = traj(5000, 11);
    let spec = QuerySpec::new(5);
    let oracle = snapshot.search(&query, &spec).unwrap();

    let failing = Arc::new(AtomicBool::new(true));
    let hook = Arc::clone(&failing);
    service.set_scan_fault(Some(Arc::new(move |s| {
        s == 1 && hook.load(Ordering::SeqCst)
    })));

    // First faulted query: shard 1 panics inside the isolation boundary;
    // the answer covers shard 0 only and says so.
    let resp = service
        .query(ServeRequest::new(1, query.clone(), spec))
        .unwrap();
    assert!(resp.partial, "a lost shard must be reported as partial");
    assert!(
        resp.neighbors.iter().all(|n| n.index % 2 == 0),
        "a partial answer over shard 0 holds only even global indices: {:?}",
        resp.neighbors
    );
    assert_eq!(service.quarantined_shards(), vec![1]);
    assert!(counter(&registry, names::SERVE_SHARD_QUARANTINED_TOTAL) >= 1);

    // While quarantined, scans skip the shard (no more panics burned)
    // and answers stay partial + deterministic.
    let again = service
        .query(ServeRequest::new(2, query.clone(), spec))
        .unwrap();
    assert!(again.partial);
    assert_eq!(again.neighbors, resp.neighbors);

    // Heal the shard; after the backoff the trial scan succeeds and the
    // service returns to full, oracle-identical answers.
    failing.store(false, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let resp = service
            .query(ServeRequest::new(3, query.clone(), spec))
            .unwrap();
        if !resp.partial {
            assert_eq!(
                resp.neighbors, oracle,
                "a recovered (non-partial, non-degraded) answer must be \
                 bit-identical to the sequential oracle"
            );
            assert!(service.quarantined_shards().is_empty());
            break;
        }
        assert!(Instant::now() < deadline, "shard never left quarantine");
    }
}

/// Repeated panics keep the shard quarantined with growing backoff; the
/// service never deadlocks and never returns a wrong answer for the
/// healthy remainder.
#[test]
fn persistent_shard_failure_keeps_serving_the_healthy_shards() {
    silence_injected_panics();
    let cfg = ServiceConfig {
        nshards: 3,
        scan_threads: 3,
        batch_deadline: Duration::from_micros(200),
        quarantine_backoff: Duration::from_millis(1),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::new(model(), corpus(30), &cfg).unwrap();
    service.set_scan_fault(Some(Arc::new(|s| s == 2)));
    let query = traj(6000, 9);
    for i in 0..20u64 {
        let resp = service
            .query(ServeRequest::new(i, query.clone(), QuerySpec::new(4)))
            .unwrap();
        assert!(resp.partial);
        assert!(
            resp.neighbors.iter().all(|n| n.index % 3 != 2),
            "quarantined shard 2 leaked global indices: {:?}",
            resp.neighbors
        );
    }
}

/// A shard panic under the *graph* backend follows the same isolation
/// contract as exact scans: the lost shard is quarantined, the answer is
/// `partial` over the healthy remainder, and recovery returns the
/// service to full graph-reference answers.
#[test]
fn injected_shard_panic_under_graph_queries_quarantines_then_recovers() {
    silence_injected_panics();
    let registry = Registry::new();
    let cfg = ServiceConfig {
        nshards: 2,
        scan_threads: 2,
        max_batch: 4,
        batch_deadline: Duration::from_micros(200),
        quarantine_backoff: Duration::from_millis(30),
        graph: Some(neutraj_model::HnswParams::default()),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(model(), corpus(30), &cfg, &registry).unwrap();
    let snapshot = service.snapshot();
    let query = traj(5100, 11);
    let spec = QuerySpec::new(5).shortlist_graph(24);
    let oracle = snapshot.search(&query, &spec).unwrap();

    let failing = Arc::new(AtomicBool::new(true));
    let hook = Arc::clone(&failing);
    service.set_scan_fault(Some(Arc::new(move |s| {
        s == 1 && hook.load(Ordering::SeqCst)
    })));

    let resp = service
        .query(ServeRequest::new(1, query.clone(), spec))
        .unwrap();
    assert!(resp.partial, "a lost graph shard must be reported partial");
    assert!(
        !resp.degraded,
        "losing a shard is partial coverage, not a backend fallback"
    );
    assert!(
        resp.neighbors.iter().all(|n| n.index % 2 == 0),
        "a partial graph answer over shard 0 holds only even global \
         indices: {:?}",
        resp.neighbors
    );
    assert_eq!(service.quarantined_shards(), vec![1]);
    assert!(counter(&registry, names::SERVE_SHARD_QUARANTINED_TOTAL) >= 1);

    failing.store(false, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let resp = service
            .query(ServeRequest::new(3, query.clone(), spec))
            .unwrap();
        if !resp.partial {
            assert_eq!(
                resp.neighbors, oracle,
                "a recovered graph answer must equal the snapshot's own \
                 graph reference"
            );
            assert!(service.quarantined_shards().is_empty());
            break;
        }
        assert!(Instant::now() < deadline, "shard never left quarantine");
    }
}

/// A graph spec against a snapshot built with IVF but no graph index is
/// rejected at admission with the database's own `InvalidConfig` — the
/// answer `SimilarityDb::search` gives — and counted once; nothing
/// answers it through another view.
#[test]
fn graph_spec_on_ann_only_snapshot_is_rejected_typed() {
    let registry = Registry::new();
    let cfg = ServiceConfig {
        nshards: 2,
        scan_threads: 2,
        ann: ivf(4),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(model(), corpus(30), &cfg, &registry).unwrap();
    let graph_spec = QuerySpec::new(5).shortlist_graph(24);
    let query = traj(5200, 10);
    assert!(matches!(
        service.snapshot().search(&query, &graph_spec),
        Err(DbError::InvalidConfig(_))
    ));

    let reply = service
        .submit(ServeRequest::new(1, query, graph_spec))
        .recv()
        .unwrap();
    assert!(
        matches!(reply, Err(ServeError::Db(DbError::InvalidConfig(_)))),
        "a graph spec on a graph-less snapshot must be rejected typed, got {reply:?}"
    );
    assert_eq!(counter(&registry, names::DB_REJECTS_TOTAL), 1);
    assert_eq!(counter(&registry, names::SERVE_REQUESTS_TOTAL), 0);
}

/// A poisoned queue mutex (a thread panicked while holding it) does not
/// wedge the service: lock recovery keeps admission and dispatch alive.
#[test]
fn poisoned_queue_lock_recovers() {
    silence_injected_panics();
    let service = SimilarityService::new(
        model(),
        corpus(20),
        &ServiceConfig {
            batch_deadline: Duration::from_micros(200),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let query = traj(7000, 8);
    let spec = QuerySpec::new(3);
    let before = service
        .query(ServeRequest::new(1, query.clone(), spec))
        .unwrap();
    service.poison_queue_for_test();
    let after = service
        .query(ServeRequest::new(2, query.clone(), spec))
        .unwrap();
    assert_eq!(before.neighbors, after.neighbors);
}

/// A storm of already-expired deadlines is answered typed — every
/// request gets `DeadlineExceeded`, counted, without burning scans — and
/// the service keeps answering fresh work afterwards, including live
/// requests queued between expired ones.
#[test]
fn deadline_storm_answers_typed_without_burning_scans() {
    let registry = Registry::new();
    let cfg = ServiceConfig {
        max_batch: 2,
        batch_deadline: Duration::from_millis(5),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(model(), corpus(20), &cfg, &registry).unwrap();
    let query = traj(8000, 10);
    let spec = QuerySpec::new(3);

    const STORM: u64 = 24;
    let receivers: Vec<_> = (0..STORM)
        .map(|i| {
            service.submit(ServeRequest::new(i, query.clone(), spec).with_deadline(Duration::ZERO))
        })
        .collect();
    for rx in receivers {
        match rx.recv().unwrap() {
            Err(ServeError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    assert!(counter(&registry, names::SERVE_DEADLINE_EXPIRED_TOTAL) >= STORM);

    // An un-deadlined request still gets a full answer.
    let resp = service
        .query(ServeRequest::new(999, query.clone(), spec))
        .unwrap();
    assert!(!resp.partial && !resp.degraded);
    assert_eq!(
        resp.neighbors,
        service.snapshot().search(&query, &spec).unwrap()
    );

    // A generous deadline is not a death sentence: it completes Ok.
    let resp = service
        .query(ServeRequest::new(1000, query.clone(), spec).with_deadline(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(
        resp.neighbors,
        service.snapshot().search(&query, &spec).unwrap()
    );

    // Expired requests queued *between* live ones. The first scan below
    // is held, so six requests queue behind it, out-of-time and
    // un-deadlined in turn; the purge answers the three expired and
    // leaves the three live ones in arrival order. At `max_batch` 2 the
    // older two leave first, and the third scan — the youngest live
    // request's — is held too while the test checks that everything
    // older has been answered and it has not.
    let hold = ScanHold::install(&service, |scan| matches!(scan, 0 | 2));
    let expired_before = counter(&registry, names::SERVE_DEADLINE_EXPIRED_TOTAL);
    let dispatched_before = counter(&registry, names::SERVE_REQUESTS_TOTAL);
    let held = service.submit(ServeRequest::new(2000, query.clone(), spec));
    hold.started();
    let mut behind: Vec<_> = (0..6u64)
        .map(|i| {
            let t = traj(8100 + i, 6 + i as usize);
            let req = ServeRequest::new(2001 + i, t.clone(), spec);
            let req = if i % 2 == 0 {
                req.with_deadline(Duration::ZERO)
            } else {
                req
            };
            (i % 2 == 0, t, service.submit(req))
        })
        .collect();
    assert_eq!(registry.gauge(names::SERVE_QUEUE_DEPTH).get(), 6.0);
    hold.release();
    assert!(held.recv().unwrap().is_ok());
    let snapshot = service.snapshot();
    let check = |expired: bool, t: &Trajectory, reply| match reply {
        Err(ServeError::DeadlineExceeded) if expired => {}
        Ok(ServeResponse {
            neighbors,
            partial: false,
            degraded: false,
            ..
        }) if !expired => assert_eq!(neighbors, snapshot.search(t, &spec).unwrap()),
        other => panic!("request {} (expired: {expired}) got {other:?}", t.id),
    };
    let (_, youngest, youngest_rx) = behind.pop().unwrap();
    hold.started();
    for (expired, t, rx) in behind {
        check(
            expired,
            &t,
            rx.try_recv().expect("answered before a younger scan"),
        );
    }
    assert!(matches!(youngest_rx.try_recv(), Err(TryRecvError::Empty)));
    hold.release();
    check(false, &youngest, youngest_rx.recv().unwrap());
    assert_eq!(
        counter(&registry, names::SERVE_DEADLINE_EXPIRED_TOTAL) - expired_before,
        3
    );
    // Only the held request and the three live ones reached a scan.
    assert_eq!(
        counter(&registry, names::SERVE_REQUESTS_TOTAL) - dispatched_before,
        4
    );
}

/// Overload burst against a tiny bounded queue: overflow is answered
/// `Overloaded` with a nonzero retry hint, the accepted remainder is
/// answered oracle-identical, and every shed counts.
#[test]
fn overload_burst_sheds_typed_and_answers_the_rest() {
    let registry = Registry::new();
    let cfg = ServiceConfig {
        max_queue: 4,
        max_batch: 64,
        batch_deadline: Duration::from_millis(50),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(model(), corpus(25), &cfg, &registry).unwrap();
    let snapshot = service.snapshot();
    let query = traj(9000, 12);
    let spec = QuerySpec::new(5);
    let oracle = snapshot.search(&query, &spec).unwrap();

    const BURST: u64 = 50;
    let receivers: Vec<_> = (0..BURST)
        .map(|i| service.submit(ServeRequest::new(i, query.clone(), spec)))
        .collect();
    let mut accepted = 0u64;
    let mut shed = 0u64;
    for rx in receivers {
        match rx.recv().unwrap() {
            Ok(resp) => {
                accepted += 1;
                if !resp.degraded && !resp.partial {
                    assert_eq!(resp.neighbors, oracle, "accepted answer diverged");
                }
            }
            Err(ServeError::Overloaded { retry_after_hint }) => {
                shed += 1;
                assert!(
                    retry_after_hint > Duration::ZERO,
                    "the retry hint must be a usable backoff"
                );
            }
            Err(other) => panic!("unexpected error under overload: {other:?}"),
        }
    }
    assert_eq!(accepted + shed, BURST);
    assert!(
        shed >= BURST - 8,
        "a 4-deep queue under a {BURST}-request burst must shed most of it \
         (accepted {accepted}, shed {shed})"
    );
    assert!(accepted >= 4, "the queue's capacity must still be served");
    assert_eq!(counter(&registry, names::SERVE_SHED_TOTAL), shed);
}

/// An IVF index over each shard with `nlists` lists.
fn ivf(nlists: usize) -> Option<AnnParams> {
    Some(AnnParams {
        nlists,
        ..AnnParams::default()
    })
}

/// A full queue changes nothing about what is answered: with IVF built
/// on every shard and the queue filled past half its bound behind a held
/// scan, every exact read still answers its own spec, bit-identical to
/// the sequential oracle, and no reply is tagged `degraded`.
#[test]
fn exact_reads_under_pressure_answer_the_exact_oracle() {
    let registry = Registry::new();
    let cfg = ServiceConfig {
        nshards: 2,
        ann: ivf(5),
        max_queue: 4,
        batch_deadline: Duration::from_millis(2),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(model(), corpus(40), &cfg, &registry).unwrap();
    let snapshot = service.snapshot();
    let requests: Vec<ServeRequest> = (0..5u64)
        .map(|i| {
            let spec = if i % 2 == 0 {
                QuerySpec::new(5)
            } else {
                QuerySpec::new(5).quantized()
            };
            ServeRequest::new(i, traj(9200 + i, 8 + i as usize), spec)
        })
        .collect();
    let oracle = sequential_reference(&snapshot, &requests);

    // The first scan is held, so the four requests behind it fill the
    // queue to its bound before any leaves.
    let hold = ScanHold::install(&service, |scan| scan == 0);
    let held = service.submit(requests[0].clone());
    hold.started();
    let queued: Vec<_> = requests[1..]
        .iter()
        .map(|r| service.submit(r.clone()))
        .collect();
    assert_eq!(registry.gauge(names::SERVE_QUEUE_DEPTH).get(), 4.0);
    hold.release();

    let replies = std::iter::once(held).chain(queued);
    for (rx, want) in replies.zip(oracle) {
        let resp = rx.recv().unwrap().unwrap();
        assert!(!resp.degraded && !resp.partial);
        assert_eq!(resp.neighbors, want.unwrap());
    }
    assert_eq!(counter(&registry, names::SERVE_DEGRADED_TOTAL), 0);
}

/// Dropping the service drains the queue: every request accepted before
/// shutdown is answered (correctly), none is left hanging.
#[test]
fn shutdown_drains_accepted_requests() {
    let cfg = ServiceConfig {
        max_batch: 64,
        batch_deadline: Duration::from_millis(200),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::new(model(), corpus(20), &cfg).unwrap();
    let snapshot = service.snapshot();
    let query = traj(9400, 10);
    let spec = QuerySpec::new(4);
    let oracle = snapshot.search(&query, &spec).unwrap();

    let receivers: Vec<_> = (0..10u64)
        .map(|i| service.submit(ServeRequest::new(i, query.clone(), spec)))
        .collect();
    // Long batch_deadline: the queue is still coalescing when we drop.
    drop(service);
    for rx in receivers {
        let resp = rx.recv().expect("request dropped unanswered at shutdown");
        assert_eq!(resp.unwrap().neighbors, oracle);
    }
}

/// Invalid configurations are rejected at construction, typed and
/// counted — not discovered by a wedged scheduler later.
#[test]
fn invalid_service_configs_are_rejected_at_construction() {
    let registry = Registry::new();
    let bad_configs = [
        ServiceConfig {
            max_batch: 0,
            ..ServiceConfig::default()
        },
        ServiceConfig {
            batch_deadline: Duration::ZERO,
            ..ServiceConfig::default()
        },
        ServiceConfig {
            max_queue: 0,
            ..ServiceConfig::default()
        },
    ];
    for (i, cfg) in bad_configs.iter().enumerate() {
        let err = SimilarityService::with_metrics(model(), corpus(8), cfg, &registry)
            .err()
            .unwrap_or_else(|| panic!("bad config {i} was accepted"));
        assert!(
            matches!(
                err,
                ServeError::Db(neutraj_model::DbError::InvalidConfig(_))
            ),
            "bad config {i}: wrong error {err:?}"
        );
    }
    assert_eq!(
        registry.counter(names::DB_REJECTS_TOTAL).get(),
        bad_configs.len() as u64,
        "every construction rejection must count"
    );
}

/// Adds every series of `registry` that is nonzero right now to `seen`.
fn note_moved(registry: &Registry, seen: &mut BTreeSet<String>) {
    let report = registry.snapshot();
    seen.extend(
        report
            .counters
            .into_iter()
            .filter_map(|(n, v)| (v > 0).then_some(n)),
    );
    seen.extend(
        report
            .gauges
            .into_iter()
            .filter_map(|(n, v)| (v != 0.0).then_some(n)),
    );
    seen.extend(
        report
            .histograms
            .into_iter()
            .filter_map(|h| (h.count > 0).then_some(h.name)),
    );
}

/// The metric catalogue, service half: one instrumented service is driven
/// through a normal batch, an overloaded burst, a deadline expiry, a
/// quarantined shard, an insert and a rejected insert;
/// afterwards every series the service registered must have moved at
/// some point. A registered series that nothing can move is a bug (the
/// database half is `db::tests::each_scan_path_moves_its_own_series_and_no_other`).
#[test]
fn every_registered_serve_series_moves() {
    // Registered series no scenario below is expected to move. Empty on
    // purpose: add a name only with the reason it cannot be driven here.
    const NOT_APPLICABLE: [&str; 0] = [];

    silence_injected_panics();
    let registry = Registry::new();
    let cfg = ServiceConfig {
        nshards: 2,
        max_queue: 4,
        max_batch: 8,
        batch_deadline: Duration::from_millis(2),
        quarantine_backoff: Duration::from_millis(1),
        ..ServiceConfig::default()
    };
    let service = SimilarityService::with_metrics(model(), corpus(30), &cfg, &registry).unwrap();
    let query = traj(9500, 10);
    let spec = QuerySpec::new(5);
    let request = |id: u64| ServeRequest::new(id, query.clone(), spec);
    let mut moved = BTreeSet::new();

    // A normal batch: a lone request. It leaves the coalescing target at one, so the next request dispatches alone.
    let resp = service.query(request(1)).unwrap();
    assert!(!resp.degraded && !resp.partial);
    note_moved(&registry, &mut moved);

    // The next scan is held until the test lets it go, so the queue
    // behind it is filled while the scheduler provably cannot drain it.
    let hold = ScanHold::install(&service, |scan| scan == 0);
    let held = service.submit(request(2));
    hold.started();
    // Behind the held scan: one request that is already out of time, three
    // that fill the queue to its bound of four, three more that are shed.
    let expired = service.submit(request(3).with_deadline(Duration::ZERO));
    let queued: Vec<_> = (4..7).map(|id| service.submit(request(id))).collect();
    let shed: Vec<_> = (7..10).map(|id| service.submit(request(id))).collect();
    note_moved(&registry, &mut moved); // the queue-depth gauge reads 4 now
    hold.release();
    assert!(held.recv().unwrap().is_ok());
    assert!(matches!(
        expired.recv().unwrap(),
        Err(ServeError::DeadlineExceeded)
    ));
    for rx in shed {
        assert!(matches!(
            rx.recv().unwrap(),
            Err(ServeError::Overloaded { .. })
        ));
    }
    // The three survivors leave as one batch and are answered.
    for rx in queued {
        assert!(rx.recv().unwrap().is_ok());
    }

    // A quarantined shard.
    service.set_scan_fault(Some(Arc::new(|shard| shard == 1)));
    assert!(service.query(request(10)).unwrap().partial);
    service.set_scan_fault(None);

    // An insert, and a rejected one.
    service.insert(traj(30, 9)).unwrap();
    let poisoned = vec![
        traj(31, 9),
        Trajectory::new_unchecked(32, vec![]),
        traj(33, 9),
    ];
    assert!(service.insert_batch(poisoned).is_err());
    note_moved(&registry, &mut moved);

    let report = registry.snapshot();
    let registered: Vec<String> = (report.counters.into_iter().map(|(n, _)| n))
        .chain(report.gauges.into_iter().map(|(n, _)| n))
        .chain(report.histograms.into_iter().map(|h| h.name))
        .filter(|n| {
            n.starts_with("neutraj_serve_")
                || n == names::DB_REJECTS_TOTAL
                || n == names::EXACT_BOUND_SURVIVORS
        })
        .collect();
    for name in [
        names::DB_REJECTS_TOTAL,
        names::EXACT_BOUND_SURVIVORS,
        names::SERVE_QUEUE_DEPTH,
        names::SERVE_INSERT_SECONDS,
        names::SERVE_INSERT_ROWS_TOTAL,
    ] {
        assert!(
            registered.iter().any(|n| n == name),
            "{name} is not registered"
        );
    }
    let stuck: Vec<&String> = registered
        .iter()
        .filter(|n| !moved.contains(*n) && !NOT_APPLICABLE.contains(&n.as_str()))
        .collect();
    assert!(stuck.is_empty(), "series that never moved: {stuck:?}");
}
