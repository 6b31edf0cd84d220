//! The async similarity service: epoch-rotated snapshots, a coalescing
//! micro-batch scheduler, and a typed, panic-free request route, hardened
//! against overload and shard failure.
//!
//! # Snapshot rotation
//!
//! The served corpus lives in an `Arc<Snapshot>` behind a mutex that
//! guards **only the pointer**: readers clone the `Arc` (nanoseconds) and
//! scan entirely outside any lock; writers build the next snapshot
//! copy-on-write off to the side and swap the pointer when done. Readers
//! therefore never block on insert *work* — a query admitted before a
//! swap finishes on the old snapshot, one admitted after sees the new
//! corpus, and nothing in between is observable (no torn reads). This is
//! the std-only equivalent of arc-swap's load/store protocol.
//!
//! Building the next snapshot costs the new rows, not the corpus
//! ([`Snapshot::inserted`]): the rows are embedded in one lockstep
//! batch; the stored trajectories, the embedding rows with their norms
//! and the rows' int8 codes are all shared between epochs in fixed-size
//! chunks, so a rotation copies at most one partial chunk of each; a
//! shard that receives no row is shared whole. The rotation suite
//! (`tests/rotation.rs`) checks the sharing against a deep-copy oracle.
//! The retired snapshot is freed after the pointer mutex is released, by
//! whoever holds its last handle. `DESIGN.md` §13 has the chunk layout,
//! what is left that grows with the corpus and the designs that were
//! rejected.
//!
//! # Adaptive micro-batching
//!
//! Single queries enter a coalescing queue. The scheduler dispatches a
//! batch when either `target` requests are waiting or the *oldest*
//! request has waited `batch_deadline`, and a batch takes everything
//! queued up to `max_batch`. `target` is learned from the traffic: it is
//! the size of the batch dispatched last, so between 1 and `max_batch`,
//! and starts at `max_batch`. A caller that arrives alone is therefore
//! held for the deadline once — that batch of one sets the target to 1 —
//! and afterwards dispatched the moment the scheduler sees it, while `W`
//! callers in a closed loop keep producing batches of `W` (the `W`
//! replies bring `W` new requests and the scheduler waits for all of
//! them). The deadline stays the upper bound on how long any request is
//! held. `DESIGN.md` §13 has the regimes, the switches between them and
//! the two simpler rules that were measured and rejected. Batches group
//! by [`QuerySpec`] and ride the lockstep batched embed and the exact
//! cascade, which reads the int8 codes once per batch and whose per-row
//! arithmetic is batch-size-invariant — coalesced results are
//! bit-identical to issuing each query sequentially.
//!
//! # The overload and failure ladder
//!
//! Every failure path is typed, counted, and survivable (`DESIGN.md` §14
//! carries the invariants the chaos suite enforces):
//!
//! 1. **Bounded admission** — the queue holds at most `max_queue`
//!    requests; overflow is answered [`ServeError::Overloaded`] with a
//!    backlog-drain retry hint instead of growing without bound, and
//!    counted into `neutraj_serve_shed_total`. The queue is one FIFO:
//!    the arrival is what is shed, and what is queued keeps its place.
//! 2. **Deadlines** — a request's time budget is checked at dequeue
//!    (expired work is answered [`ServeError::DeadlineExceeded`] without
//!    burning a scan) and cooperatively between shard scans.
//! 3. **Panic isolation and quarantine** — shard scans run under
//!    `catch_unwind`; a panicking shard is quarantined with exponential
//!    backoff re-admission (one trial scan per backoff expiry, strikes
//!    reset on success) while the service keeps answering from healthy
//!    shards with responses tagged `partial: true`. Queue locks recover
//!    from poisoning, so a panic can never wedge admission or dispatch.

use crate::request::{QuerySpec, ServeError, ServeRequest, ServeResponse};
use crate::snapshot::{ScanFault, ScanGuard, ShardConfig, Snapshot};
use neutraj_model::{DbError, NeuTrajModel};
use neutraj_obs::{names, Counter, Gauge, Histogram, Registry};
use neutraj_trajectory::Trajectory;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Round-robin shard count for the snapshot (see [`ShardConfig`]).
    pub nshards: usize,
    /// Most requests in one batch, and the coalescing target of a cold
    /// service; afterwards the target follows the traffic (module docs).
    pub max_batch: usize,
    /// A batch is dispatched, whatever the target, as soon as the oldest
    /// queued request has waited this long. Must be nonzero (a zero
    /// deadline would spin the scheduler).
    pub batch_deadline: Duration,
    /// Scoped threads for the parallel per-shard scan (1 = sequential).
    pub scan_threads: usize,
    /// Threads for the bulk corpus embed at construction.
    pub build_threads: usize,
    /// Train a per-shard IVF index at construction when set.
    pub ann: Option<neutraj_model::AnnParams>,
    /// Build a per-shard HNSW graph index at construction when set.
    pub graph: Option<neutraj_model::HnswParams>,
    /// Inert: every shard keeps its store's int8 codes, and the exact
    /// scan reads them whenever that is faster, whatever this says; a
    /// saved snapshot does not record it. Kept so existing
    /// configurations compile; slated for removal.
    pub quantized: bool,
    /// Bounded admission: at most this many requests may wait in the
    /// coalescing queue; overflow is answered
    /// [`ServeError::Overloaded`]. Must be nonzero (use `usize::MAX`
    /// for an explicitly unbounded queue, e.g. as a bench baseline).
    pub max_queue: usize,
    /// Base quarantine backoff after a shard scan panics; doubles per
    /// consecutive strike (capped at 64×), halts at zero strikes.
    pub quarantine_backoff: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            nshards: 1,
            max_batch: 32,
            batch_deadline: Duration::from_micros(200),
            scan_threads: 1,
            build_threads: 1,
            ann: None,
            graph: None,
            quantized: false,
            max_queue: 1024,
            quarantine_backoff: Duration::from_millis(100),
        }
    }
}

/// Instrument handles for the service route, resolved once (the request
/// path only touches atomics). Rejections share the database's
/// `neutraj_db_rejects_total` so one counter covers every boundary, and
/// exact scans the database's `neutraj_exact_bound_survivors` (the shard
/// databases themselves are not instrumented).
#[derive(Debug, Clone)]
struct ServeMetrics {
    requests_total: Counter,
    batches_total: Counter,
    batch_size: Histogram,
    queue_depth: Gauge,
    coalesce_seconds: Histogram,
    request_seconds: Histogram,
    snapshot_epoch: Gauge,
    insert_seconds: Histogram,
    insert_rows_total: Counter,
    rejects_total: Counter,
    shed_total: Counter,
    deadline_expired_total: Counter,
    shard_quarantined_total: Counter,
    exact_bound_survivors: Histogram,
}

impl ServeMetrics {
    fn register(registry: &Registry) -> Self {
        Self {
            requests_total: registry.counter(names::SERVE_REQUESTS_TOTAL),
            batches_total: registry.counter(names::SERVE_BATCHES_TOTAL),
            batch_size: registry.histogram(names::SERVE_BATCH_SIZE),
            queue_depth: registry.gauge(names::SERVE_QUEUE_DEPTH),
            coalesce_seconds: registry.histogram(names::SERVE_COALESCE_SECONDS),
            request_seconds: registry.histogram(names::SERVE_REQUEST_SECONDS),
            snapshot_epoch: registry.gauge(names::SERVE_SNAPSHOT_EPOCH),
            insert_seconds: registry.histogram(names::SERVE_INSERT_SECONDS),
            insert_rows_total: registry.counter(names::SERVE_INSERT_ROWS_TOTAL),
            rejects_total: registry.counter(names::DB_REJECTS_TOTAL),
            shed_total: registry.counter(names::SERVE_SHED_TOTAL),
            deadline_expired_total: registry.counter(names::SERVE_DEADLINE_EXPIRED_TOTAL),
            shard_quarantined_total: registry.counter(names::SERVE_SHARD_QUARANTINED_TOTAL),
            exact_bound_survivors: registry.histogram(names::EXACT_BOUND_SURVIVORS),
        }
    }
}

/// Locks a mutex, recovering from poisoning: the protected state is a
/// queue of requests (or plain bookkeeping), every transition of which is
/// valid on its own, so a panic that poisoned the lock left consistent
/// data behind — recovery keeps the service answering instead of
/// cascading the panic into every thread that touches the lock.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One queued request plus its reply slot, arrival time, and absolute
/// deadline (resolved from the request's relative budget at submission).
struct Pending {
    req: ServeRequest,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: SyncSender<Result<ServeResponse, ServeError>>,
}

impl Pending {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Per-shard failure bookkeeping for quarantine and re-admission.
#[derive(Debug, Clone, Copy, Default)]
struct ShardHealth {
    quarantined_until: Option<Instant>,
    strikes: u32,
}

/// State shared between the front door, the scheduler thread, and
/// writers.
struct Shared {
    /// The mutex guards the *pointer*, never the scan — see module docs.
    snapshot: Mutex<Arc<Snapshot>>,
    /// Serializes writers so concurrent inserts compose instead of
    /// overwriting each other's snapshots.
    write_lock: Mutex<()>,
    /// The coalescing queue, in arrival order.
    queue: Mutex<VecDeque<Pending>>,
    notify: Condvar,
    shutdown: AtomicBool,
    health: Mutex<Vec<ShardHealth>>,
    fault: Mutex<Option<Arc<ScanFault>>>,
    max_batch: usize,
    batch_deadline: Duration,
    scan_threads: usize,
    max_queue: usize,
    quarantine_backoff: Duration,
    /// Wall time of the scheduler's last dispatch in nanoseconds (0 =
    /// nothing dispatched yet). A statistic for [`Shared::retry_hint`];
    /// it publishes no other data, hence `Relaxed`.
    last_dispatch_nanos: AtomicU64,
    metrics: Option<ServeMetrics>,
}

impl Shared {
    fn count_shed(&self) {
        if let Some(m) = &self.metrics {
            m.shed_total.inc();
        }
    }

    fn count_deadline(&self) {
        if let Some(m) = &self.metrics {
            m.deadline_expired_total.inc();
        }
    }

    /// Backlog-drain estimate at queue depth `depth`: the backlog leaves
    /// in `max_batch` slices, each priced at what the last dispatch took
    /// (one coalescing deadline until something has been dispatched). A
    /// hint, not a promise — callers should treat it as a floor.
    fn retry_hint(&self, depth: usize) -> Duration {
        let batches = (depth / self.max_batch.max(1)) as u32 + 1;
        let slice = match self.last_dispatch_nanos.load(Ordering::Relaxed) {
            0 => self.batch_deadline,
            nanos => Duration::from_nanos(nanos),
        };
        slice.saturating_mul(batches)
    }
}

/// The async similarity service — see the module docs for the
/// architecture and `DESIGN.md` §13–§14 for the proofs and the failure
/// ladder.
///
/// Dropping the service flushes the queue: queued requests are answered,
/// then the scheduler thread exits.
pub struct SimilarityService {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SimilarityService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimilarityService")
            .field("len", &self.len())
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl SimilarityService {
    /// Builds the epoch-0 snapshot over `corpus` and starts the
    /// scheduler thread.
    pub fn new(
        model: NeuTrajModel,
        corpus: Vec<Trajectory>,
        cfg: &ServiceConfig,
    ) -> Result<Self, ServeError> {
        let snapshot = Snapshot::build(&model, corpus, &Self::shard_config(cfg))?;
        Self::build(snapshot, cfg, None)
    }

    /// Like [`SimilarityService::new`], recording serving metrics into
    /// `registry` (`neutraj_serve_*`, plus rejections into
    /// `neutraj_db_rejects_total`).
    pub fn with_metrics(
        model: NeuTrajModel,
        corpus: Vec<Trajectory>,
        cfg: &ServiceConfig,
        registry: &Registry,
    ) -> Result<Self, ServeError> {
        let metrics = ServeMetrics::register(registry);
        let snapshot = match Snapshot::build(&model, corpus, &Self::shard_config(cfg)) {
            Ok(s) => s,
            Err(e) => {
                metrics.rejects_total.inc();
                return Err(e.into());
            }
        };
        Self::build(snapshot, cfg, Some(metrics))
    }

    /// Starts a service around an already-built snapshot — the crash
    /// recovery entry point: pair with [`Snapshot::load`] to resume
    /// serving a persisted corpus at its saved epoch (the snapshot's own
    /// shard layout wins over `cfg`'s shard fields).
    pub fn from_snapshot(snapshot: Snapshot, cfg: &ServiceConfig) -> Result<Self, ServeError> {
        Self::build(snapshot, cfg, None)
    }

    /// [`SimilarityService::from_snapshot`] with metrics.
    pub fn from_snapshot_with_metrics(
        snapshot: Snapshot,
        cfg: &ServiceConfig,
        registry: &Registry,
    ) -> Result<Self, ServeError> {
        Self::build(snapshot, cfg, Some(ServeMetrics::register(registry)))
    }

    fn shard_config(cfg: &ServiceConfig) -> ShardConfig {
        ShardConfig {
            nshards: cfg.nshards,
            build_threads: cfg.build_threads,
            ann: cfg.ann.clone(),
            graph: cfg.graph,
            quantized: cfg.quantized,
        }
    }

    fn build(
        snapshot: Snapshot,
        cfg: &ServiceConfig,
        metrics: Option<ServeMetrics>,
    ) -> Result<Self, ServeError> {
        let invalid = |reason: &str| {
            if let Some(m) = &metrics {
                m.rejects_total.inc();
            }
            Err(ServeError::Db(DbError::InvalidConfig(reason.into())))
        };
        if cfg.max_batch == 0 {
            return invalid("max_batch must be positive (a zero-size batch never dispatches)");
        }
        if cfg.batch_deadline.is_zero() {
            return invalid(
                "batch_deadline must be positive (a zero deadline spins the scheduler)",
            );
        }
        if cfg.max_queue == 0 {
            return invalid(
                "max_queue must be positive (bounded admission needs room for at least \
                 one request; use usize::MAX for an unbounded queue)",
            );
        }
        if let Some(m) = &metrics {
            m.snapshot_epoch.set(snapshot.epoch() as f64);
        }
        let nshards = snapshot.nshards();
        let shared = Arc::new(Shared {
            snapshot: Mutex::new(Arc::new(snapshot)),
            write_lock: Mutex::new(()),
            queue: Mutex::new(VecDeque::new()),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            health: Mutex::new(vec![ShardHealth::default(); nshards]),
            fault: Mutex::new(None),
            max_batch: cfg.max_batch,
            batch_deadline: cfg.batch_deadline,
            scan_threads: cfg.scan_threads,
            max_queue: cfg.max_queue,
            quarantine_backoff: cfg.quarantine_backoff,
            last_dispatch_nanos: AtomicU64::new(0),
            metrics,
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("neutraj-serve".into())
                .spawn(move || scheduler_loop(&shared))
                .expect("spawn scheduler thread")
        };
        Ok(Self {
            shared,
            worker: Some(worker),
        })
    }

    /// The snapshot currently served. Readers may hold it as long as
    /// they like; writers never mutate it.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        lock_recover(&self.shared.snapshot).clone()
    }

    /// Current corpus size.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Returns `true` when the served corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Epoch of the snapshot currently served.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Persists the currently served snapshot through the sealed
    /// `NTFILE01` envelope (see [`Snapshot::save`]) — pair with
    /// [`Snapshot::load`] + [`SimilarityService::from_snapshot`] to
    /// recover after a crash or restart.
    pub fn save_snapshot<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<(), neutraj_model::PersistError> {
        self.snapshot().save(path)
    }

    /// Enqueues one request and returns the channel its answer will
    /// arrive on — the open-loop entry point: the call never blocks on
    /// scan work. Invalid requests are answered (with a typed error)
    /// through the same channel without ever occupying the queue, and
    /// when the bounded queue is full the request is answered
    /// [`ServeError::Overloaded`] instead of growing the backlog.
    pub fn submit(&self, req: ServeRequest) -> Receiver<Result<ServeResponse, ServeError>> {
        let (tx, rx) = sync_channel(1);
        if let Err(e) = self.admit(&req) {
            let _ = tx.try_send(Err(e));
            return rx;
        }
        let enqueued = Instant::now();
        let pending = Pending {
            deadline: req.deadline.map(|budget| enqueued + budget),
            req,
            enqueued,
            reply: tx,
        };
        // Admission under the queue lock; a shed is answered after release.
        let (depth, shed) = {
            let mut q = lock_recover(&self.shared.queue);
            if q.len() >= self.shared.max_queue {
                (q.len(), Some(pending))
            } else {
                q.push_back(pending);
                (q.len(), None)
            }
        };
        if let Some(shed) = shed {
            self.shared.count_shed();
            let hint = self.shared.retry_hint(depth);
            let _ = shed.reply.try_send(Err(ServeError::Overloaded {
                retry_after_hint: hint,
            }));
        }
        if let Some(m) = &self.shared.metrics {
            m.queue_depth.set(depth as f64);
        }
        self.shared.notify.notify_all();
        rx
    }

    /// Submits and waits: the closed-loop entry point.
    pub fn query(&self, req: ServeRequest) -> Result<ServeResponse, ServeError> {
        self.submit(req).recv().map_err(|_| ServeError::Dropped)?
    }

    /// The admission check — every rejection is typed, counted, and
    /// never panics the service.
    fn admit(&self, req: &ServeRequest) -> Result<(), ServeError> {
        let verdict = (|| {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            req.spec.validate().map_err(DbError::InvalidConfig)?;
            req.trajectory
                .validate()
                .map_err(|reason| DbError::InvalidTrajectory {
                    id: req.trajectory.id,
                    reason,
                })?;
            // Configuration-vs-snapshot checks (ANN / graph index
            // actually built) — shards are uniform, shard 0 speaks for
            // all. Uses the un-instrumented scan seam so the rejection
            // is not double-counted below.
            self.snapshot()
                .shard(0)
                .scan_embeddings(&[], 0, &req.spec)?;
            Ok(())
        })();
        if verdict.is_err() {
            if let Some(m) = &self.shared.metrics {
                m.rejects_total.inc();
            }
        }
        verdict
    }

    /// Inserts one trajectory and publishes the next snapshot; returns
    /// the new **global** index. In-flight readers keep the old snapshot
    /// until they next ask for one.
    pub fn insert(&self, t: Trajectory) -> Result<usize, ServeError> {
        self.rotate(std::slice::from_ref(&t))
    }

    /// Inserts many trajectories as one epoch step (all-or-nothing).
    pub fn insert_batch(&self, ts: Vec<Trajectory>) -> Result<(), ServeError> {
        self.rotate(&ts).map(|_| ())
    }

    /// One epoch step: builds the successor of the served snapshot with
    /// `ts` appended and publishes it; returns the global index of the
    /// first new row. A rejected batch publishes nothing and counts into
    /// `neutraj_db_rejects_total`. The recorded time includes the wait
    /// for the writer lock — it is what an inserting caller sees.
    fn rotate(&self, ts: &[Trajectory]) -> Result<usize, ServeError> {
        let called = Instant::now();
        let _writer = lock_recover(&self.shared.write_lock);
        let current = self.snapshot();
        let built = current.inserted(ts);
        let m = self.shared.metrics.as_ref();
        match built {
            Ok(next) => {
                self.publish(next);
                if let Some(m) = m {
                    m.insert_rows_total.add(ts.len() as u64);
                    m.insert_seconds.observe(called.elapsed().as_secs_f64());
                }
                Ok(current.len())
            }
            Err(e) => {
                if let Some(m) = m {
                    m.rejects_total.inc();
                }
                Err(e.into())
            }
        }
    }

    /// The swap — the only instant the snapshot mutex is held by a
    /// writer, and it holds no other work: the next `Arc` is built before
    /// the lock is taken and the retired one is dropped after it is
    /// released, so a reader waiting for the pointer never waits for an
    /// allocation or for a corpus being freed.
    fn publish(&self, next: Snapshot) {
        let epoch = next.epoch();
        let next = Arc::new(next);
        let retired = {
            let mut served = lock_recover(&self.shared.snapshot);
            std::mem::replace(&mut *served, next)
        };
        drop(retired);
        if let Some(m) = &self.shared.metrics {
            m.snapshot_epoch.set(epoch as f64);
        }
    }

    /// Shard indices currently under quarantine (chaos-test seam, also
    /// handy for health endpoints).
    pub fn quarantined_shards(&self) -> Vec<usize> {
        let now = Instant::now();
        lock_recover(&self.shared.health)
            .iter()
            .enumerate()
            .filter(|(_, h)| h.quarantined_until.is_some_and(|u| now < u))
            .map(|(s, _)| s)
            .collect()
    }

    /// Installs (or clears) a scan fault injector: called with the shard
    /// index before each shard scan, a `true` return panics that scan
    /// inside the isolation boundary. Test seam for the chaos suite.
    #[doc(hidden)]
    pub fn set_scan_fault(&self, fault: Option<Arc<ScanFaultHook>>) {
        *lock_recover(&self.shared.fault) = fault;
    }

    /// Deliberately poisons the queue mutex from a panicking thread —
    /// chaos-test seam proving the lock-recovery path keeps the service
    /// answering.
    #[doc(hidden)]
    pub fn poison_queue_for_test(&self) {
        let shared = Arc::clone(&self.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.queue.lock().expect("queue lock");
            panic!("deliberate queue poison (chaos test)");
        })
        .join();
    }
}

/// Public alias of the scan fault injector signature (see
/// [`SimilarityService::set_scan_fault`]).
pub type ScanFaultHook = dyn Fn(usize) -> bool + Send + Sync;

impl Drop for SimilarityService {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The scheduler: coalesce → purge expired → drain the oldest
/// `max_batch` → dispatch.
///
/// It dispatches when the queue holds `target` requests or the oldest
/// has waited `batch_deadline`. `target` is the size of the batch it
/// dispatched last (so between 1 and `max_batch`; see the module docs)
/// and starts at `max_batch`: a cold service coalesces exactly as it
/// would with a fixed target.
fn scheduler_loop(shared: &Shared) {
    let mut target = shared.max_batch;
    loop {
        let batch = {
            let mut q = lock_recover(&shared.queue);
            loop {
                let shutting_down = shared.shutdown.load(Ordering::Acquire);
                purge_expired(shared, &mut q);
                if let Some(oldest) = q.front() {
                    let deadline = oldest.enqueued + shared.batch_deadline;
                    let now = Instant::now();
                    if q.len() >= target || now >= deadline || shutting_down {
                        break;
                    }
                    q = shared
                        .notify
                        .wait_timeout(q, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                } else if shutting_down {
                    return;
                } else {
                    q = shared
                        .notify
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
            let n = q.len().min(shared.max_batch);
            let batch: Vec<Pending> = q.drain(..n).collect();
            if let Some(m) = &shared.metrics {
                m.queue_depth.set(q.len() as f64);
            }
            batch
        };
        if !batch.is_empty() {
            target = batch.len();
            dispatch(shared, batch);
        }
    }
}

/// Answers and removes every queued request whose deadline has already
/// passed — the "without burning a scan" half of the deadline contract.
/// One pass from the first expired request: the expired are answered in
/// arrival order, the rest keep theirs (a queue with none moves nothing).
fn purge_expired(shared: &Shared, q: &mut VecDeque<Pending>) {
    let now = Instant::now();
    let Some(first) = q.iter().position(|p| p.expired(now)) else {
        return;
    };
    for p in q.split_off(first) {
        if p.expired(now) {
            shared.count_deadline();
            answer(shared, p, Err(ServeError::DeadlineExceeded));
        } else {
            q.push_back(p);
        }
    }
}

/// Resolves the quarantine mask for this dispatch: quarantined shards
/// whose backoff has not expired are skipped; expired ones get a trial
/// scan (strikes persist until a success clears them).
fn quarantine_mask(shared: &Shared, nshards: usize, now: Instant) -> Vec<bool> {
    let mut health = lock_recover(&shared.health);
    health.resize(nshards, ShardHealth::default());
    health
        .iter_mut()
        .map(|h| match h.quarantined_until {
            Some(until) if now < until => true,
            Some(_) => {
                // Backoff expired: re-admit for one trial scan.
                h.quarantined_until = None;
                false
            }
            None => false,
        })
        .collect()
}

/// Folds one scan's outcome back into quarantine state: panicking shards
/// gain a strike and a doubled backoff window; shards that scanned
/// cleanly reset to zero strikes.
fn update_health(shared: &Shared, nshards: usize, skip: &[bool], failed: &[usize], now: Instant) {
    let mut health = lock_recover(&shared.health);
    health.resize(nshards, ShardHealth::default());
    for (s, h) in health.iter_mut().enumerate() {
        if failed.contains(&s) {
            h.strikes = (h.strikes + 1).min(7);
            let backoff = shared
                .quarantine_backoff
                .saturating_mul(1u32 << (h.strikes - 1).min(6));
            h.quarantined_until = Some(now + backoff);
            if let Some(m) = &shared.metrics {
                m.shard_quarantined_total.inc();
            }
        } else if !skip.get(s).copied().unwrap_or(false) && h.quarantined_until.is_none() {
            h.strikes = 0;
        }
    }
}

/// Runs one coalesced micro-batch: group members by spec, embed each
/// group in lockstep, scan healthy shards under panic isolation, merge,
/// reply.
fn dispatch(shared: &Shared, batch: Vec<Pending>) {
    let dispatched_at = Instant::now();
    if let Some(m) = &shared.metrics {
        m.batches_total.inc();
        m.batch_size.observe(batch.len() as f64);
        m.requests_total.add(batch.len() as u64);
        for p in &batch {
            m.coalesce_seconds
                .observe(dispatched_at.duration_since(p.enqueued).as_secs_f64());
        }
    }
    let snapshot = {
        lock_recover(&shared.snapshot).clone()
        // Lock released here: the whole scan runs against our Arc,
        // unaffected by any concurrent swap.
    };
    // Group by spec, preserving arrival order within each group.
    let mut groups: Vec<(QuerySpec, Vec<Pending>)> = Vec::new();
    for p in batch {
        let spec = p.req.spec;
        match groups.iter_mut().find(|(s, _)| *s == spec) {
            Some((_, members)) => members.push(p),
            None => groups.push((spec, vec![p])),
        }
    }
    let fault = lock_recover(&shared.fault).clone();
    for (spec, members) in groups {
        run_group(shared, &snapshot, spec, members, fault.as_deref());
    }
    let nanos = u64::try_from(dispatched_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared
        .last_dispatch_nanos
        .store(nanos.max(1), Ordering::Relaxed);
}

/// Scans one spec-group under the full guard set and answers its
/// members.
fn run_group(
    shared: &Shared,
    snapshot: &Snapshot,
    spec: QuerySpec,
    members: Vec<Pending>,
    fault: Option<&ScanFault>,
) {
    let now = Instant::now();
    let nshards = snapshot.nshards();
    let skip = quarantine_mask(shared, nshards, now);
    // Cooperative cancellation aborts only once *no* member can still
    // use the result: the guard deadline is the latest member deadline,
    // and absent entirely when any member has no deadline.
    let group_deadline = if members.iter().any(|p| p.deadline.is_none()) {
        None
    } else {
        members.iter().filter_map(|p| p.deadline).max()
    };
    let trajs: Vec<&Trajectory> = members.iter().map(|p| &p.req.trajectory).collect();
    let guard = ScanGuard {
        deadline: group_deadline,
        skip: &skip,
        fault,
    };
    match snapshot.scan_batch_guarded(&trajs, &spec, shared.scan_threads, &guard) {
        Ok(scan) => {
            update_health(shared, nshards, &skip, &scan.failed, Instant::now());
            let survivors = scan.stats.survivors_per_query(members.len());
            if let (Some(m), Some(survivors)) = (&shared.metrics, survivors) {
                m.exact_bound_survivors.observe(survivors);
            }
            if scan.expired {
                for p in members {
                    shared.count_deadline();
                    answer(shared, p, Err(ServeError::DeadlineExceeded));
                }
                return;
            }
            let partial = scan.is_partial();
            let done = Instant::now();
            for (p, neighbors) in members.into_iter().zip(scan.results) {
                if p.expired(done) {
                    shared.count_deadline();
                    answer(shared, p, Err(ServeError::DeadlineExceeded));
                    continue;
                }
                let resp = ServeResponse {
                    id: p.req.id,
                    neighbors,
                    epoch: snapshot.epoch(),
                    degraded: false,
                    partial,
                };
                answer(shared, p, Ok(resp));
            }
        }
        // A group-level rejection (raced with nothing — admission
        // already vetted each request) falls back to per-request
        // answers so one bad request cannot fail its batch peers. The
        // fallback stays inside the guarded scan so a panicking shard
        // still cannot take the scheduler down.
        Err(_) => {
            for p in members {
                let one = snapshot
                    .scan_batch_guarded(
                        &[&p.req.trajectory],
                        &spec,
                        1,
                        &ScanGuard {
                            deadline: p.deadline,
                            skip: &skip,
                            fault,
                        },
                    )
                    .map_err(ServeError::from);
                let result = match one {
                    Err(e) => {
                        if let Some(m) = &shared.metrics {
                            m.rejects_total.inc();
                        }
                        Err(e)
                    }
                    Ok(scan) if scan.expired => {
                        shared.count_deadline();
                        Err(ServeError::DeadlineExceeded)
                    }
                    Ok(mut scan) => Ok(ServeResponse {
                        id: p.req.id,
                        neighbors: scan.results.pop().unwrap_or_default(),
                        epoch: snapshot.epoch(),
                        degraded: false,
                        partial: scan.is_partial(),
                    }),
                };
                answer(shared, p, result);
            }
        }
    }
}

/// Sends one reply (ignoring receivers the client abandoned) and records
/// the end-to-end latency.
fn answer(shared: &Shared, p: Pending, result: Result<ServeResponse, ServeError>) {
    let _ = p.reply.try_send(result);
    if let Some(m) = &shared.metrics {
        m.request_seconds
            .observe(p.enqueued.elapsed().as_secs_f64());
    }
}

/// A one-query-at-a-time reference implementation over the same
/// snapshot semantics — what the bench's unbatched baseline and the
/// bit-identity suite compare the coalesced service against. (It is the
/// service with `max_batch = 1` and no queue, minus the thread hop.)
pub fn sequential_reference(
    snapshot: &Snapshot,
    requests: &[ServeRequest],
) -> Vec<Result<Vec<neutraj_measures::Neighbor>, DbError>> {
    requests
        .iter()
        .map(|r| snapshot.search(&r.trajectory, &r.spec))
        .collect()
}
