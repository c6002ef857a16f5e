#![warn(missing_docs)]
//! # nrl-serve — collapse-as-a-service
//!
//! A long-lived, thread-pool-backed service front over the collapse
//! engine: requests go in as [`CollapseRequest`] (shape + parameters +
//! cache context + deadline + tenant), and come out as either a bound
//! plan handle (`Arc<Collapsed>`) or a completed run
//! ([`RunReply`]: `RunOutcome` + the run's recovery-counter delta).
//! There is no service thread: an admitted caller runs its own work
//! on the shared service pool, on its own thread, in FIFO admission
//! order.
//!
//! Three mechanisms make it a *service* rather than a function call:
//!
//! * **Request coalescing** — plan resolution goes through
//!   [`PlanCache::get_or_analyze_coalesced`](nrl_plan::PlanCache::get_or_analyze_coalesced),
//!   so a thundering herd of N concurrent requests for one uncached
//!   shape pays exactly one symbolic analysis (N−1 callers park on the
//!   leader's flight; a leader panic fails the waiters with the
//!   `Quarantined` error without poisoning the table).
//! * **Admission control** — admitted callers take tickets in a
//!   bounded FIFO line for the pool; a full line rejects immediately
//!   ([`RejectReason::QueueFull`]) instead of letting latency pile up,
//!   and a per-tenant in-flight quota
//!   ([`RejectReason::QuotaExceeded`]) keeps one tenant from starving
//!   the rest.
//! * **Deadlines** — each run carries a
//!   [`RunToken`](nrl_parfor::RunToken) armed at admission, so time
//!   spent waiting in line counts against the request's deadline and an expired
//!   run reports exactly how many points completed.
//!
//! Observability is plain text by design:
//! [`CollapseService::metrics_report`] aggregates the plan-cache
//! counters, the recovery-counter totals, per-tenant accept/reject/
//! outcome counts, the live count of callers waiting for the pool
//! plus its lifetime high-water mark, and log2 latency histograms per verb and per request phase
//! ([`LatencyMetrics`]) — see `docs/COUNTERS.md` for every counter and
//! the invariants the stress bins assert. Each request also gets an
//! end-to-end trace id ([`RunReply::trace_id`]) tagging its
//! `serve.resolve` / `serve.queue_wait` / `serve.exec` spans, so a
//! chrome-trace export (`nrl_obs::TraceSession`, `obs-trace` feature;
//! see `docs/OBSERVABILITY.md`) can be filtered to one request.
//!
//! ```
//! use nrl_serve::{CollapseRequest, CollapseService, ServeConfig, Tenant};
//! use nrl_polyhedra::NestSpec;
//! use std::sync::atomic::{AtomicI64, Ordering};
//!
//! let service = CollapseService::new(ServeConfig::default());
//! let request = CollapseRequest::new(NestSpec::correlation(), vec![100], Tenant(7));
//! let sum = AtomicI64::new(0);
//! let reply = service
//!     .run(&request, &|_tid, p| {
//!         sum.fetch_add(p[0] + p[1], Ordering::Relaxed);
//!     })
//!     .unwrap();
//! assert!(reply.outcome.is_completed());
//! println!("{}", service.metrics_report());
//! ```

pub mod metrics;
pub mod request;
pub mod service;

pub use metrics::{LatencyMetrics, ServeMetrics, TenantStats};
pub use request::{
    CollapseRequest, CollapseResponse, RejectReason, RunReply, RunRequest, RunWork, ServeError,
    ServeReducer, Tenant,
};
pub use service::{CollapseService, ServeConfig};
