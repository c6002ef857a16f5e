//! Request/response types of the serving boundary.
//!
//! These are the types a frontend speaks: everything that crosses the
//! service boundary is either one of the structs here or a plain
//! scalar. The FFI/WASM boundary from the ROADMAP is out of scope for
//! this layer, but the scalar-bearing types are already `repr`-stable
//! ([`Tenant`] is `repr(transparent)` over `u32`, [`RejectReason`] is
//! `repr(u32)`) so an `extern "C"` shim can map them without
//! re-encoding.

use nrl_core::{Collapsed, Recovery, RecoveryStats};
use nrl_parfor::{RunOutcome, Schedule};
use nrl_plan::{PlanContext, PlanError};
use nrl_polyhedra::NestSpec;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A tenant identifier. The service tracks admission quotas and
/// counters per tenant; the id itself is opaque (an FFI frontend maps
/// its own principals onto it).
#[repr(transparent)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tenant(pub u32);

impl fmt::Display for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One collapse request: the loop-nest shape to serve, the parameter
/// values to instantiate at, the cache context, and the admission
/// envelope (deadline + tenant).
///
/// The same request feeds both service verbs:
/// [`CollapseService::bind`](crate::CollapseService::bind) returns the
/// bound plan handle, [`CollapseService::run`](crate::CollapseService::run)
/// executes a body over it. For `run`, the context doubles as the
/// execution configuration: `ctx.schedule` / `ctx.recovery` select the
/// schedule and recovery strategy (defaults: static schedule,
/// once-per-chunk recovery).
#[derive(Clone, Debug)]
pub struct CollapseRequest {
    /// The loop-nest shape (together with `ctx`, the plan-cache key).
    pub nest: NestSpec,
    /// Parameter values to instantiate the plan at.
    pub params: Vec<i64>,
    /// Cache context; for runs, also the execution configuration.
    pub ctx: PlanContext,
    /// Relative deadline for the whole request. The clock starts at
    /// admission, so time spent queued counts; `None` = no deadline.
    pub deadline: Option<Duration>,
    /// The requesting tenant.
    pub tenant: Tenant,
}

impl CollapseRequest {
    /// A request with default context and no deadline.
    pub fn new(nest: NestSpec, params: Vec<i64>, tenant: Tenant) -> CollapseRequest {
        CollapseRequest {
            nest,
            params,
            ctx: PlanContext::default(),
            deadline: None,
            tenant,
        }
    }

    /// Sets the cache/execution context.
    pub fn with_ctx(mut self, ctx: PlanContext) -> CollapseRequest {
        self.ctx = ctx;
        self
    }

    /// Sets the relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> CollapseRequest {
        self.deadline = Some(deadline);
        self
    }
}

/// A reduction the service can run on a caller's behalf: the dyn-safe
/// (object-callable) face of [`nrl_core::Reducer`], fixed at `f64`
/// accumulators so the result crosses the boundary as one scalar (the
/// natural shape for the future FFI surface — `f64` is `repr`-stable
/// by definition).
///
/// The same determinism contract as the engine applies: the service
/// folds per-chunk partials in fixed chunk-index order, so the reply's
/// [`reduced`](RunReply::reduced) value is bit-identical across pool
/// sizes, schedules, and recovery strategies, provided `join` is
/// associative with `identity` as two-sided unit.
pub trait ServeReducer: Sync {
    /// The fold's identity element.
    fn identity(&self) -> f64;
    /// Folds one iteration-space point into the running accumulator.
    fn accum(&self, tid: usize, point: &[i64], acc: &mut f64);
    /// Combines two partial accumulators.
    fn join(&self, left: f64, right: f64) -> f64;
}

/// What a run request executes over the instantiated domain.
pub enum RunWork<'w> {
    /// A side-effecting loop body, invoked once per point.
    Body(&'w (dyn Fn(usize, &[i64]) + Sync)),
    /// A deterministic reduction; its value comes back in
    /// [`RunReply::reduced`].
    Reduce(&'w dyn ServeReducer),
}

impl fmt::Debug for RunWork<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunWork::Body(_) => write!(f, "RunWork::Body"),
            RunWork::Reduce(_) => write!(f, "RunWork::Reduce"),
        }
    }
}

/// One execution request over an already-bound plan: the admission
/// envelope (tenant + deadline), the execution configuration, and the
/// work itself. This is the single parameter of
/// [`CollapseService::submit_bound`](crate::CollapseService::submit_bound),
/// folding what used to be a six-argument verb.
#[derive(Debug)]
pub struct RunRequest<'w> {
    /// The requesting tenant.
    pub tenant: Tenant,
    /// OpenMP-style schedule for the flattened loop.
    pub schedule: Schedule,
    /// Index-recovery strategy.
    pub recovery: Recovery,
    /// Relative deadline (queue wait counts); `None` = no deadline.
    pub deadline: Option<Duration>,
    /// The body or reduction to execute.
    pub work: RunWork<'w>,
}

impl<'w> RunRequest<'w> {
    /// A request with the default execution configuration
    /// ([`Schedule::Static`], [`Recovery::OncePerChunk`], no deadline).
    pub fn new(tenant: Tenant, work: RunWork<'w>) -> RunRequest<'w> {
        RunRequest {
            tenant,
            schedule: Schedule::Static,
            recovery: Recovery::OncePerChunk,
            deadline: None,
            work,
        }
    }

    /// Sets the schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> RunRequest<'w> {
        self.schedule = schedule;
        self
    }

    /// Sets the recovery strategy.
    pub fn with_recovery(mut self, recovery: Recovery) -> RunRequest<'w> {
        self.recovery = recovery;
        self
    }

    /// Sets the relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> RunRequest<'w> {
        self.deadline = Some(deadline);
        self
    }
}

/// Why admission refused a request (`repr(u32)` for the future FFI
/// boundary).
#[repr(u32)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// `queue_capacity` admitted callers already wait for the pool
    /// (backpressure: retry later or shed load upstream).
    QueueFull = 0,
    /// The tenant already has its quota of requests in flight.
    QuotaExceeded = 1,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "queue_full"),
            RejectReason::QuotaExceeded => write!(f, "quota_exceeded"),
        }
    }
}

/// Any failure a service verb can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission refused the request before any engine work ran.
    Rejected {
        /// What admission check failed.
        reason: RejectReason,
    },
    /// Plan resolution or instantiation failed (bad shape, bad
    /// parameters, or a quarantined shape).
    Plan(PlanError),
    /// The shape's analysis panicked while *this* request led the
    /// coalesced flight. Parked waiters of the same flight see
    /// [`ServeError::Plan`] with the `Quarantined` failure instead —
    /// this variant is the leader-side view of the same fault, caught
    /// at the service boundary so it never unwinds into a frontend.
    AnalyzePanicked,
    /// The loop body panicked mid-run. The pool and the service
    /// survive (the panic is contained around the caller's run, and
    /// the next caller's ticket is called); only this request fails.
    BodyPanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected { reason } => write!(f, "request rejected: {reason}"),
            ServeError::Plan(e) => write!(f, "{e}"),
            ServeError::AnalyzePanicked => write!(f, "shape analysis panicked"),
            ServeError::BodyPanicked => write!(f, "loop body panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> ServeError {
        ServeError::Plan(e)
    }
}

/// The result of an executed run request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunReply {
    /// How the run ended (completed, cancelled, or deadline-expired —
    /// the latter two with the exact point count).
    pub outcome: RunOutcome,
    /// The recovery-counter delta this run contributed (snapshotted
    /// around the run; also folded into the service-wide totals of
    /// [`ServeMetrics`](crate::ServeMetrics)).
    pub recovery: RecoveryStats,
    /// The reduction value when the work was [`RunWork::Reduce`]
    /// (`None` for plain bodies). On a cancelled or deadline-expired
    /// run this is the deterministic joined prefix over exactly
    /// `points_done` points.
    pub reduced: Option<f64>,
    /// Time the caller waited in line, from admission until its
    /// ticket was called. Together with
    /// [`exec_time`](RunReply::exec_time) a caller can tell admission
    /// latency from execution latency without parsing
    /// `metrics_report()`.
    pub queue_wait: Duration,
    /// Time the caller spent executing its run on the pool
    /// (excludes queue wait and plan resolution).
    pub exec_time: Duration,
    /// The request's end-to-end trace id — the same value tagged on
    /// every span this request emitted, so a chrome-trace export can be
    /// filtered down to one request's timeline. Never 0 for an
    /// executed run.
    pub trace_id: u64,
}

/// What a successfully served request produced.
#[derive(Clone, Debug)]
pub enum CollapseResponse {
    /// A bind-only request: the bound plan handle, shareable and cheap
    /// to clone (eviction from the plan cache never invalidates it).
    Bound(Arc<Collapsed>),
    /// A run request: the completed (or stopped) execution.
    Ran(RunReply),
}
