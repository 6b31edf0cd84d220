//! Scheduling suite: the coalescing target follows the traffic
//! (`DESIGN.md` §13). A caller that arrives alone is dispatched at once
//! instead of being held for the deadline, a full window of callers
//! still rides full batches, the scheduler moves between the two within
//! a few requests, and in every regime `batch_deadline` stays the bound
//! on how long a request is held.
//!
//! The deadlines here are far longer than a scan of the tiny corpus, so
//! a wrongly held request shows up as a wait two orders of magnitude
//! above the service time rather than as a marginal timing difference.

use neutraj_model::{BackboneKind, NeuTrajModel, TrainConfig};
use neutraj_obs::{names, Registry};
use neutraj_serve::{
    QuerySpec, ServeError, ServeRequest, ServeResponse, ServiceConfig, SimilarityService,
};
use neutraj_trajectory::{BoundingBox, Grid, Point, Trajectory};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A request answered this quickly was not held for a deadline.
const PROMPT: Duration = Duration::from_millis(50);

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

fn corpus() -> Vec<Trajectory> {
    (0..64)
        .map(|i| traj(i, 3 + (i as usize * 7) % 23))
        .collect()
}

fn request(id: u64) -> ServeRequest {
    ServeRequest::new(
        id,
        traj(1000 + id % 32, 4 + (id as usize * 5) % 19),
        QuerySpec::new(5),
    )
}

fn config(max_batch: usize, batch_deadline: Duration) -> ServiceConfig {
    ServiceConfig {
        max_batch,
        batch_deadline,
        ..ServiceConfig::default()
    }
}

/// How long a lone `query` takes, answer unwrapped.
fn timed_query(service: &SimilarityService, id: u64) -> Duration {
    let start = Instant::now();
    service.query(request(id)).expect("a valid request");
    start.elapsed()
}

type Reply = Result<ServeResponse, ServeError>;

/// The benchmark's load generator: one thread keeps a window of
/// `submit()` receivers in flight and, each time the oldest reply
/// arrives, sends the next request from that slot.
struct Window<'a> {
    service: &'a SimilarityService,
    inflight: VecDeque<Receiver<Reply>>,
    sent: u64,
}

impl<'a> Window<'a> {
    fn new(service: &'a SimilarityService) -> Self {
        Self {
            service,
            inflight: VecDeque::new(),
            sent: 0,
        }
    }

    fn submit(&mut self) {
        self.inflight
            .push_back(self.service.submit(request(self.sent)));
        self.sent += 1;
    }

    fn fill(&mut self, window: usize) {
        while self.inflight.len() < window {
            self.submit();
        }
    }

    fn receive(&mut self) {
        let rx = self.inflight.pop_front().expect("a request in flight");
        rx.recv()
            .expect("the service answers")
            .expect("a valid request");
    }

    fn steps(&mut self, n: usize) {
        for _ in 0..n {
            self.receive();
            self.submit();
        }
    }

    fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.receive();
        }
    }
}

/// `(batches, requests)` dispatched so far.
fn dispatched(registry: &Registry) -> (u64, f64) {
    let sizes = registry.histogram(names::SERVE_BATCH_SIZE);
    (sizes.count(), sizes.sum())
}

/// Mean size of the batches dispatched while `f` ran.
fn mean_batch_during(registry: &Registry, f: impl FnOnce()) -> f64 {
    let (batches0, requests0) = dispatched(registry);
    f();
    let (batches1, requests1) = dispatched(registry);
    (requests1 - requests0) / (batches1 - batches0).max(1) as f64
}

/// A cold service coalesces as before — the first request waits out the
/// deadline unless `max_batch` arrive — and once one lone batch has
/// shown the scheduler its traffic, a lone caller is answered at once.
#[test]
fn a_lone_caller_is_dispatched_at_once_after_one_warm_up() {
    let deadline = Duration::from_millis(200);
    let service = SimilarityService::new(model(), corpus(), &config(4, deadline)).unwrap();
    assert!(
        timed_query(&service, 0) >= deadline,
        "a cold service holds its first lone request for the deadline"
    );
    for id in 1..5 {
        let took = timed_query(&service, id);
        assert!(took < PROMPT, "warm lone query {id} took {took:?}");
    }

    // Cold again, but `max_batch` callers at once: dispatched by count.
    let service = SimilarityService::new(model(), corpus(), &config(4, deadline)).unwrap();
    let start = Instant::now();
    let mut window = Window::new(&service);
    window.fill(4);
    window.drain();
    let took = start.elapsed();
    assert!(took < PROMPT, "a full cold batch took {took:?}");
}

/// Sixteen slots driven from one thread keep riding full batches: the
/// target does not decay under the traffic it was learned from.
#[test]
fn a_full_window_keeps_full_batches() {
    let registry = Registry::new();
    let cfg = config(16, Duration::from_millis(200));
    let service = SimilarityService::with_metrics(model(), corpus(), &cfg, &registry).unwrap();
    let mut window = Window::new(&service);
    window.fill(16);
    window.steps(64);
    let mean = mean_batch_during(&registry, || window.steps(256));
    window.drain();
    assert!(
        mean >= 12.0,
        "mean batch size {mean} under a 16-slot window"
    );
}

/// 16-way → lone → 16-way: each regime is back within eight requests of
/// the switch. The lone phase fails if the target stays at the last
/// 16-way batch. The second 16-way phase starts from the split the
/// target must not get stuck in: a scan hook holds one lone request in
/// its scan while fifteen more arrive, so the scheduler returns to a
/// queue of 15 with a target of 1. Dispatching whatever is queued would
/// keep alternating batches of 1 and 15 (mean 8) from there.
#[test]
fn regimes_switch_within_eight_requests() {
    let registry = Registry::new();
    let cfg = config(16, Duration::from_millis(200));
    let service = SimilarityService::with_metrics(model(), corpus(), &cfg, &registry).unwrap();
    let mut window = Window::new(&service);
    window.fill(16);
    window.steps(64);
    window.drain();

    for id in 0..8 {
        service.query(request(id)).unwrap();
    }
    for id in 8..12 {
        let took = timed_query(&service, id);
        assert!(
            took < PROMPT,
            "lone query {id} after a 16-way phase took {took:?}"
        );
    }

    // The first scan meets the test at the barrier twice: once to say it
    // has started, once to be let go.
    let gate = Arc::new(Barrier::new(2));
    let first = AtomicBool::new(true);
    let hook = Arc::clone(&gate);
    service.set_scan_fault(Some(Arc::new(move |_shard| {
        if first.swap(false, Ordering::SeqCst) {
            hook.wait();
            hook.wait();
        }
        false
    })));
    window.fill(1);
    gate.wait();
    window.fill(16);
    gate.wait();
    window.steps(8);
    let start = Instant::now();
    let mean = mean_batch_during(&registry, || window.steps(128));
    let took = start.elapsed();
    window.drain();
    assert!(
        mean >= 12.0,
        "mean batch size {mean} back under a 16-slot window"
    );
    assert!(
        took < Duration::from_millis(200),
        "128 closed-loop requests took {took:?}: some batch waited out the deadline"
    );
}

/// Requests that trickle in below the target are still dispatched one
/// deadline after the *oldest* of them arrived — under a cold target
/// (`max_batch`) and under a target learned from a burst.
#[test]
fn no_request_is_held_past_the_deadline() {
    let deadline = Duration::from_millis(100);
    // One deadline plus the scan of a handful of requests over 64 rows,
    // with room for a slow CI host; a deadline measured from the newest
    // arrival would hold the first request of a trickle for 250 ms.
    let bound = Duration::from_millis(190);
    let registry = Registry::new();
    let cfg = config(16, deadline);
    let service = SimilarityService::with_metrics(model(), corpus(), &cfg, &registry).unwrap();
    let mut window = Window::new(&service);
    let trickle = |window: &mut Window| {
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(30));
            window.submit();
        }
        window.drain();
    };
    trickle(&mut window);
    // A burst moves the target off `max_batch`, then the trickle comes
    // back.
    window.fill(8);
    window.drain();
    trickle(&mut window);
    let held = registry.histogram(names::SERVE_COALESCE_SECONDS).max();
    let answered = registry.histogram(names::SERVE_REQUEST_SECONDS).max();
    assert!(
        held < bound.as_secs_f64() && answered < bound.as_secs_f64(),
        "a request was held {held} s before dispatch and answered after {answered} s"
    );
    assert!(
        held >= 0.9 * deadline.as_secs_f64(),
        "the trickle never waited for the deadline ({held} s): the test lost its subject"
    );
}
