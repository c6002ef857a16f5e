//! Cooperative cancellation and deadlines for long-running sweeps.
//!
//! A [`RunToken`] is a cheap shared flag the collapsed executors poll
//! once per row (the plain and guarded runs and the scan) or once per
//! grid chunk (the reductions), never per point: live checks cost one
//! relaxed atomic load, and a deadline adds one coarse timestamp probe
//! at the same granularity. Executors that accept a token
//! return a [`RunOutcome`] describing how the run ended — completed,
//! cancelled, or past its deadline — with the exact number of body
//! invocations that happened before the stop was honoured.
//!
//! The token stops *new* rows (or grid chunks) from starting; a worker
//! mid-row finishes that row first, so a cancelled run halts within one
//! row (or grid chunk) per worker and the reported `points_done` stays
//! exact.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

/// Why a run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCause {
    /// [`RunToken::cancel`] was called.
    Cancelled,
    /// The token's deadline passed.
    DeadlineExpired,
}

/// How a token-carrying executor run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every iteration ran.
    Completed,
    /// The run was cancelled; `points_done` body invocations completed
    /// before the executors honoured the stop.
    Cancelled {
        /// Exact number of body invocations that ran.
        points_done: u64,
    },
    /// The deadline passed mid-run; `points_done` body invocations
    /// completed before the executors honoured the stop.
    DeadlineExpired {
        /// Exact number of body invocations that ran.
        points_done: u64,
    },
}

impl RunOutcome {
    /// True iff the run covered its whole domain.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }

    /// The exact body-invocation count of a stopped run (`None` for
    /// [`RunOutcome::Completed`], whose count is the domain total).
    pub fn points_done(&self) -> Option<u64> {
        match self {
            RunOutcome::Completed => None,
            RunOutcome::Cancelled { points_done } => Some(*points_done),
            RunOutcome::DeadlineExpired { points_done } => Some(*points_done),
        }
    }
}

struct Inner {
    /// `LIVE` / `CANCELLED` / `DEADLINE`; the first cause to trip wins
    /// (compare-exchange from `LIVE` only).
    state: AtomicU8,
    /// Absolute deadline, probed at the executors' poll granularity.
    deadline: Option<Instant>,
}

/// Shared cancellation flag (plus optional deadline) for one or more
/// executor runs. Clones share the same flag; cancelling any clone
/// stops every run polling the token.
#[derive(Clone)]
pub struct RunToken {
    inner: Arc<Inner>,
}

impl RunToken {
    /// A live token with no deadline.
    pub fn new() -> RunToken {
        RunToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: None,
            }),
        }
    }

    /// A token whose runs stop once `timeout` has elapsed from now.
    pub fn with_deadline(timeout: Duration) -> RunToken {
        RunToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Requests cancellation. Idempotent; a deadline that already
    /// tripped keeps its cause (first cause wins).
    pub fn cancel(&self) {
        let _ =
            self.inner
                .state
                .compare_exchange(LIVE, CANCELLED, Ordering::AcqRel, Ordering::Acquire);
    }

    /// The cause already recorded on the token, without probing the
    /// clock. `None` while live.
    pub fn cause(&self) -> Option<StopCause> {
        match self.inner.state.load(Ordering::Acquire) {
            CANCELLED => Some(StopCause::Cancelled),
            DEADLINE => Some(StopCause::DeadlineExpired),
            _ => None,
        }
    }

    /// The hot-path poll the executors run once per row or grid chunk:
    /// one relaxed load while live, plus one timestamp probe when a
    /// deadline is set. Trips (and records) the deadline cause on the
    /// first observer.
    #[inline]
    pub fn should_stop(&self) -> Option<StopCause> {
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => return Some(StopCause::Cancelled),
            DEADLINE => return Some(StopCause::DeadlineExpired),
            _ => {}
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                let _ = self.inner.state.compare_exchange(
                    LIVE,
                    DEADLINE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                // Re-read: a concurrent `cancel` may have won the race.
                return self.cause();
            }
        }
        None
    }
}

impl Default for RunToken {
    fn default() -> Self {
        RunToken::new()
    }
}

impl std::fmt::Debug for RunToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunToken")
            .field("cause", &self.cause())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_token_reports_nothing() {
        let t = RunToken::new();
        assert_eq!(t.should_stop(), None);
        assert_eq!(t.cause(), None);
    }

    #[test]
    fn cancel_trips_all_clones() {
        let t = RunToken::new();
        let c = t.clone();
        c.cancel();
        assert_eq!(t.should_stop(), Some(StopCause::Cancelled));
        assert_eq!(t.cause(), Some(StopCause::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_on_first_poll() {
        let t = RunToken::with_deadline(Duration::ZERO);
        assert_eq!(t.cause(), None, "deadline trips on poll, not creation");
        assert_eq!(t.should_stop(), Some(StopCause::DeadlineExpired));
        assert_eq!(t.cause(), Some(StopCause::DeadlineExpired));
    }

    #[test]
    fn first_cause_wins() {
        let t = RunToken::with_deadline(Duration::ZERO);
        t.cancel();
        assert_eq!(t.should_stop(), Some(StopCause::Cancelled));
    }

    #[test]
    fn outcome_accessors() {
        assert!(RunOutcome::Completed.is_completed());
        assert_eq!(RunOutcome::Completed.points_done(), None);
        assert_eq!(
            RunOutcome::Cancelled { points_done: 7 }.points_done(),
            Some(7)
        );
        assert_eq!(
            RunOutcome::DeadlineExpired { points_done: 9 }.points_done(),
            Some(9)
        );
    }
}
