//! The typed request/response surface shared by the service, the CLI,
//! and library callers.
//!
//! [`QuerySpec`] — the owned, hashable form of the library's query
//! builder, re-exported from [`neutraj_model`] — says how to search;
//! [`ServeRequest`] adds the trajectory, a deadline and a priority.

use neutraj_measures::Neighbor;
use neutraj_model::DbError;
pub use neutraj_model::QuerySpec;
use neutraj_trajectory::Trajectory;
use std::time::Duration;

/// Scheduling class of a request in the coalescing queue. The scheduler
/// serves the high lane first, with anti-starvation promotion for
/// overdue normal work (see the [`service`](crate::service) docs); when
/// the bounded queue is full, an arriving high-priority request may
/// evict the newest queued normal-priority request (typed
/// [`ServeError::Overloaded`], counted in `neutraj_serve_shed_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Best-effort work: served in arrival order after the high lane,
    /// sheddable under overload.
    #[default]
    Normal,
    /// Latency-sensitive work: dispatched ahead of the normal lane and
    /// never evicted by admission shedding.
    High,
}

/// One query request: a caller-chosen correlation id, the ad-hoc query
/// trajectory, and the spec describing how to search.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Caller-chosen id, echoed in the response (requests coalesced into
    /// one batch complete in arbitrary order relative to each other).
    pub id: u64,
    /// The query trajectory; embedded once, in lockstep with the rest of
    /// its micro-batch.
    pub trajectory: Trajectory,
    /// How to search.
    pub spec: QuerySpec,
    /// Time budget measured from submission. Work whose budget expires
    /// is answered [`ServeError::DeadlineExceeded`] — at dequeue without
    /// burning a scan, or by the cooperative between-shard cancellation
    /// checks mid-scan. `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Scheduling class (see [`Priority`]).
    pub priority: Priority,
}

impl ServeRequest {
    /// Convenience constructor: no deadline, normal priority.
    pub fn new(id: u64, trajectory: Trajectory, spec: QuerySpec) -> Self {
        Self {
            id,
            trajectory,
            spec,
            deadline: None,
            priority: Priority::Normal,
        }
    }

    /// Sets the time budget, measured from the moment the request is
    /// submitted.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// The answer to one [`ServeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Top-k neighbors as **global** corpus indices, bit-identical to a
    /// sequential [`Query`](neutraj_model::Query) search over the same
    /// snapshot.
    pub neighbors: Vec<Neighbor>,
    /// Epoch of the snapshot that answered — two responses with the same
    /// epoch saw the identical corpus.
    pub epoch: u64,
    /// `true` when the overload ladder downgraded this request's
    /// exact-scan spec to the IVF shortlist under queue pressure (or a
    /// graph spec to it on a snapshot without graphs): the answer is a best-effort shortlist result, not the
    /// exact-scan oracle answer. Never set silently — every degraded
    /// response counts into `neutraj_serve_degraded_total`.
    pub degraded: bool,
    /// `true` when one or more shards were quarantined (or panicked)
    /// during this scan: the answer covers the healthy shards only.
    /// Counted into `neutraj_serve_shard_quarantined_total` at the
    /// quarantine event.
    pub partial: bool,
}

/// Typed failure of the service route. The service never panics on
/// request input: every invalid request folds into a [`ServeError`]
/// (and counts into `neutraj_db_rejects_total` when instrumented).
#[derive(Debug)]
pub enum ServeError {
    /// The request was rejected at a validation boundary — the spec's
    /// own invariants, the trajectory check, or a per-shard database
    /// rejection, all folded into the one typed [`DbError`].
    Db(DbError),
    /// The service is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The worker dropped the reply channel without answering — only
    /// possible if the service was torn down mid-request.
    Dropped,
    /// The bounded admission queue is full (or this request was evicted
    /// to admit higher-priority work). The hint estimates how long the
    /// backlog needs to drain — callers should back off at least that
    /// long before retrying.
    Overloaded {
        /// Estimated backlog drain time at the moment of rejection.
        retry_after_hint: Duration,
    },
    /// The request's time budget expired before an answer was produced.
    DeadlineExceeded,
}

impl From<DbError> for ServeError {
    fn from(e: DbError) -> Self {
        ServeError::Db(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Db(e) => write!(f, "request rejected: {e}"),
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::Dropped => write!(f, "service dropped the request mid-flight"),
            Self::Overloaded { retry_after_hint } => write!(
                f,
                "service overloaded: retry after ~{:.1}ms",
                retry_after_hint.as_secs_f64() * 1e3
            ),
            Self::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Db(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neutraj_measures::MeasureKind;

    #[test]
    fn request_builders_set_deadline_and_priority() {
        let t = Trajectory::new_unchecked(1, vec![]);
        let req = ServeRequest::new(7, t.clone(), QuerySpec::new(3));
        assert_eq!(req.priority, Priority::Normal);
        assert!(req.deadline.is_none());
        let req = req
            .with_deadline(Duration::from_millis(5))
            .with_priority(Priority::High);
        assert_eq!(req.deadline, Some(Duration::from_millis(5)));
        assert_eq!(req.priority, Priority::High);
        // Only the full-precision exhaustive scan is downgrade-eligible.
        assert!(QuerySpec::new(3).is_exact_scan());
        assert!(QuerySpec::new(3).rerank(MeasureKind::Dtw).is_exact_scan());
        // A "quantized" spec is the plain one: an exact scan.
        assert!(QuerySpec::new(3).quantized().is_exact_scan());
        assert!(!QuerySpec::new(3).shortlist_ann(2).is_exact_scan());
        // A graph spec already sits on a shortlist view.
        assert!(!QuerySpec::new(3).shortlist_graph(8).is_exact_scan());
    }
}
