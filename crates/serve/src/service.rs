//! The service itself: admission, the line for the pool, and the verbs.
//!
//! [`CollapseService`] owns the full serving stack — its own
//! [`PlanCache`] (isolated from the process-global one), a
//! [`ThreadPool`], and a bounded FIFO line of admitted callers waiting
//! for that pool. There is no service thread: an admitted caller runs
//! its own [`Runner`](nrl_core::Runner) on the shared pool, on its own
//! thread, once its ticket is called. The verbs:
//!
//! * [`CollapseService::bind`] — synchronous on the caller thread:
//!   coalesced plan resolution + instantiation, returning the bound
//!   `Arc<Collapsed>` handle. Herds of callers binding one uncached
//!   shape share a single analysis.
//! * [`CollapseService::submit`] — resolves the plan the same way,
//!   then executes a [`RunWork`] (a loop body or a deterministic
//!   reduction) on the pool. The caller takes a ticket in the line
//!   (or is rejected at once when the line is full — backpressure is
//!   explicit, not implicit latency), waits for its turn, and runs.
//!   [`CollapseService::run`] and [`CollapseService::reduce`] are the
//!   body/reducer conveniences over it.
//! * [`CollapseService::submit_bound`] — executes a [`RunRequest`]
//!   over an already-bound plan through the same line (admission,
//!   FIFO ordering, deadline, fault containment — no plan
//!   resolution).
//!
//! Runs are serialized in admission order — each run already spreads
//! over the whole pool, so the line orders *pool-wide* runs rather
//! than oversubscribing workers, and the before/after recovery delta
//! of each run stays exact. Concurrency across callers comes from
//! admission (many callers wait; the herd coalesces on analysis), not
//! from overlapping pool runs.
//!
//! # Fault containment
//!
//! A panicking loop body is caught around the caller's run: the
//! request fails with [`ServeError::BodyPanicked`], the pool recovers
//! (the panic re-throws on the caller after the worker barrier, where
//! it is caught), and the caller's turn passes to the next ticket on
//! every path, unwinding included. A panicking *analysis* is caught on
//! the caller thread ([`ServeError::AnalyzePanicked`] for the flight
//! leader, the `Quarantined` plan error for coalesced waiters). No
//! lock is poisoned and no caller is wedged behind a failed one.

use crate::metrics::{stats_delta, LatencyTotals, RecoveryTotals, ServeMetrics, TenantStats};
use crate::request::{
    CollapseRequest, RejectReason, RunReply, RunRequest, RunWork, ServeError, ServeReducer, Tenant,
};
use nrl_core::{Collapsed, Reducer, Strategy};
use nrl_obs::{now_ns, span_traced, SharedHist, TraceId};
use nrl_parfor::{RunOutcome, RunToken, ThreadPool};
use nrl_plan::PlanCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks ignoring poisoning (same discipline as the pool and the plan
/// cache): every critical section below completes its mutation before
/// unlocking, so an unwinding thread never leaves partial state.
fn lock_immune<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sizing knobs for a [`CollapseService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Threads in the execution pool, including the calling thread:
    /// an admitted caller runs as thread 0 of its own run.
    pub workers: usize,
    /// Most admitted callers that may wait for the pool at once
    /// (minimum 1); past it a run is rejected with
    /// [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests one tenant may have in flight (admitted but
    /// not finished); `0` refuses the tenant's every request.
    pub tenant_quota: usize,
    /// Lock stripes of the service's plan cache.
    pub cache_shards: usize,
    /// Plans each cache shard retains (LRU beyond that).
    pub cache_plans_per_shard: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            tenant_quota: 16,
            cache_shards: 8,
            cache_plans_per_shard: 8,
        }
    }
}

/// Adapts a dyn [`ServeReducer`] to the engine's [`Reducer`] trait for
/// [`Runner::reduce`](nrl_core::Runner::reduce).
struct DynReducer<'r>(&'r dyn ServeReducer);

impl Reducer<f64> for DynReducer<'_> {
    fn identity(&self) -> f64 {
        self.0.identity()
    }
    fn accum(&self, tid: usize, point: &[i64], acc: &mut f64) {
        self.0.accum(tid, point, acc)
    }
    fn join(&self, left: f64, right: f64) -> f64 {
        self.0.join(left, right)
    }
}

/// The FIFO line of admitted callers: tickets are handed out at
/// admission and called one at a time, in order.
#[derive(Default)]
struct Line {
    /// The ticket the next admitted caller takes.
    next: u64,
    /// The ticket whose holder may run on the pool now.
    serving: u64,
    /// Admitted callers whose ticket has not been called yet.
    waiting: usize,
}

/// An admitted caller's turn on the pool. Dropping it — on every path,
/// unwinding included — calls the next ticket.
struct Turn<'s>(&'s CollapseService);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        lock_immune(&self.0.line).serving += 1;
        self.0.called.notify_all();
    }
}

/// The service front (see the [module docs](self) and the crate docs).
pub struct CollapseService {
    cache: PlanCache,
    pool: ThreadPool,
    line: Mutex<Line>,
    /// Signalled whenever a turn ends and the next ticket is called.
    called: Condvar,
    queue_capacity: usize,
    tenant_quota: u64,
    tenants: Mutex<Vec<(Tenant, TenantStats)>>,
    recovery: RecoveryTotals,
    /// Per-verb / per-phase latency histograms (always on; lock-free).
    latency: LatencyTotals,
    /// High-water mark of [`Line::waiting`], so backpressure incidents
    /// outlive the line draining.
    queue_depth_max: AtomicU64,
    /// Completed pool runs (all outcomes), for the demo/stress tools.
    runs: AtomicU64,
}

impl CollapseService {
    /// Builds the full serving stack: pool, cache and line.
    pub fn new(config: ServeConfig) -> CollapseService {
        CollapseService {
            cache: PlanCache::new(config.cache_shards, config.cache_plans_per_shard),
            pool: ThreadPool::new(config.workers.max(1)),
            line: Mutex::new(Line::default()),
            called: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            tenant_quota: config.tenant_quota as u64,
            tenants: Mutex::new(Vec::new()),
            recovery: RecoveryTotals::default(),
            latency: LatencyTotals::default(),
            queue_depth_max: AtomicU64::new(0),
            runs: AtomicU64::new(0),
        }
    }

    /// Serves a bind-only request: coalesced plan resolution plus
    /// instantiation, on the caller thread. The returned handle stays
    /// valid regardless of later cache evictions.
    pub fn bind(&self, request: &CollapseRequest) -> Result<Arc<Collapsed>, ServeError> {
        let trace = TraceId::next().0;
        let _verb = span_traced("serve", "serve.bind", trace);
        let t_verb = now_ns();
        self.admit(request.tenant)?;
        match self.resolve(request, trace) {
            Ok(collapsed) => {
                self.with_tenant(request.tenant, |t| {
                    t.inflight -= 1;
                    t.bound += 1;
                });
                self.latency.bind.record(now_ns().saturating_sub(t_verb));
                Ok(Arc::new(collapsed))
            }
            Err(e) => {
                self.with_tenant(request.tenant, |t| {
                    t.inflight -= 1;
                    t.plan_failed += 1;
                });
                Err(e)
            }
        }
    }

    /// Serves an execution request end to end: coalesced plan
    /// resolution, then an execution of `work` over every point of the
    /// instantiated domain on the service pool, both on the caller
    /// thread. Blocks until the run finished (or admission rejected
    /// it); the reply carries the outcome, the run's recovery-counter
    /// delta, and — for [`RunWork::Reduce`] — the deterministic
    /// reduction value.
    ///
    /// `request.ctx.schedule` / `request.ctx.recovery` configure the
    /// execution; an axis the context leaves unpinned comes from
    /// [`Strategy::DEFAULT`].
    pub fn submit(
        &self,
        request: &CollapseRequest,
        work: RunWork<'_>,
    ) -> Result<RunReply, ServeError> {
        let trace = TraceId::next().0;
        let is_reduce = matches!(work, RunWork::Reduce(_));
        let _verb = span_traced("serve", verb_name(is_reduce), trace);
        let t_verb = now_ns();
        self.admit(request.tenant)?;
        let collapsed = match self.resolve(request, trace) {
            Ok(resolved) => resolved,
            Err(e) => {
                self.with_tenant(request.tenant, |t| {
                    t.inflight -= 1;
                    t.plan_failed += 1;
                });
                return Err(e);
            }
        };
        let run = RunRequest {
            tenant: request.tenant,
            schedule: request.ctx.schedule.unwrap_or(Strategy::DEFAULT.schedule),
            recovery: request.ctx.recovery.unwrap_or(Strategy::DEFAULT.recovery),
            deadline: request.deadline,
            work,
        };
        let reply = self.execute(&collapsed, run, trace)?;
        self.verb_hist(is_reduce)
            .record(now_ns().saturating_sub(t_verb));
        Ok(reply)
    }

    /// Body-shaped convenience over [`submit`](Self::submit).
    pub fn run(
        &self,
        request: &CollapseRequest,
        body: &(dyn Fn(usize, &[i64]) + Sync),
    ) -> Result<RunReply, ServeError> {
        self.submit(request, RunWork::Body(body))
    }

    /// Reduction-shaped convenience over [`submit`](Self::submit): the
    /// reply's [`reduced`](RunReply::reduced) field carries the value.
    pub fn reduce(
        &self,
        request: &CollapseRequest,
        reducer: &dyn ServeReducer,
    ) -> Result<RunReply, ServeError> {
        self.submit(request, RunWork::Reduce(reducer))
    }

    /// Executes a [`RunRequest`] over an already-bound plan through
    /// the service line (admission, FIFO ordering, deadline, and
    /// fault containment — but no plan resolution): the verb for a
    /// frontend that binds once and runs many times, and the path the
    /// `serve_overhead/served` bench measures.
    pub fn submit_bound(
        &self,
        collapsed: &Collapsed,
        request: RunRequest<'_>,
    ) -> Result<RunReply, ServeError> {
        let trace = TraceId::next().0;
        let is_reduce = matches!(request.work, RunWork::Reduce(_));
        let _verb = span_traced("serve", verb_name(is_reduce), trace);
        let t_verb = now_ns();
        self.admit(request.tenant)?;
        let reply = self.execute(collapsed, request, trace)?;
        self.verb_hist(is_reduce)
            .record(now_ns().saturating_sub(t_verb));
        Ok(reply)
    }

    /// Snapshot of every counter the service exposes.
    pub fn metrics(&self) -> ServeMetrics {
        let mut tenants = lock_immune(&self.tenants).clone();
        tenants.sort_by_key(|(t, _)| *t);
        ServeMetrics {
            cache: self.cache.stats(),
            recovery: self.recovery.snapshot(),
            tenants,
            queue_depth: lock_immune(&self.line).waiting,
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            queue_capacity: self.queue_capacity,
            latency: self.latency.snapshot(),
        }
    }

    /// [`Self::metrics`] rendered as plain text.
    pub fn metrics_report(&self) -> String {
        self.metrics().report()
    }

    /// Pool runs executed so far (all outcomes).
    pub fn runs_executed(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Runs `f` on the tenant's counter row (created on first touch).
    fn with_tenant<R>(&self, tenant: Tenant, f: impl FnOnce(&mut TenantStats) -> R) -> R {
        let mut tenants = lock_immune(&self.tenants);
        if let Some((_, stats)) = tenants.iter_mut().find(|(t, _)| *t == tenant) {
            return f(stats);
        }
        tenants.push((tenant, TenantStats::default()));
        let (_, stats) = tenants.last_mut().expect("row just pushed");
        f(stats)
    }

    fn verb_hist(&self, is_reduce: bool) -> &SharedHist {
        if is_reduce {
            &self.latency.reduce
        } else {
            &self.latency.run
        }
    }

    /// Quota check + in-flight accounting, shared by every verb.
    fn admit(&self, tenant: Tenant) -> Result<(), ServeError> {
        let quota = self.tenant_quota;
        self.with_tenant(tenant, |t| {
            if t.inflight >= quota {
                t.rejected_quota += 1;
                return Err(ServeError::Rejected {
                    reason: RejectReason::QuotaExceeded,
                });
            }
            t.inflight += 1;
            Ok(())
        })
    }

    /// Coalesced plan resolution + instantiation, with analysis panics
    /// contained at the service boundary (see [`ServeError`]).
    fn resolve(&self, request: &CollapseRequest, trace: u64) -> Result<Collapsed, ServeError> {
        let _span = span_traced("serve", "serve.resolve", trace);
        let t0 = now_ns();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.cache
                .collapse_coalesced(&request.nest, request.ctx, &request.params)
        }));
        self.latency.resolve.record(now_ns().saturating_sub(t0));
        match outcome {
            Ok(result) => result.map_err(ServeError::from),
            Err(_panic) => Err(ServeError::AnalyzePanicked),
        }
    }

    /// Takes a ticket in the line — or rejects at once when
    /// `queue_capacity` callers already wait — and parks until the
    /// ticket is called.
    fn take_turn(&self, tenant: Tenant) -> Result<Turn<'_>, ServeError> {
        let ticket = {
            let mut line = lock_immune(&self.line);
            if line.waiting >= self.queue_capacity {
                drop(line);
                self.with_tenant(tenant, |t| {
                    t.inflight -= 1;
                    t.rejected_queue_full += 1;
                });
                return Err(ServeError::Rejected {
                    reason: RejectReason::QueueFull,
                });
            }
            line.waiting += 1;
            self.queue_depth_max
                .fetch_max(line.waiting as u64, Ordering::Relaxed);
            line.next += 1;
            line.next - 1
        };
        self.with_tenant(tenant, |t| t.accepted += 1);
        let mut line = lock_immune(&self.line);
        while line.serving != ticket {
            line = self
                .called
                .wait(line)
                .unwrap_or_else(PoisonError::into_inner);
        }
        line.waiting -= 1;
        Ok(Turn(self))
    }

    /// Admits one execution into the line, waits for its turn, and
    /// runs it on the pool on the caller thread with the body panic
    /// contained.
    fn execute(
        &self,
        collapsed: &Collapsed,
        request: RunRequest<'_>,
        trace: u64,
    ) -> Result<RunReply, ServeError> {
        let tenant = request.tenant;
        // The token is armed *now*: waiting in line counts against the
        // deadline, so a request that rots in the line reports
        // `DeadlineExpired { points_done: 0 }` instead of running late.
        let token = match request.deadline {
            Some(d) => RunToken::with_deadline(d),
            None => RunToken::new(),
        };
        let t_admit = now_ns();
        let turn = self.take_turn(tenant)?;
        let t_turn = now_ns();
        let queue_wait_ns = t_turn.saturating_sub(t_admit);
        self.latency.queue_wait.record(queue_wait_ns);
        nrl_obs::emit("serve", "serve.queue_wait", t_admit, t_turn, trace);
        let before = collapsed.stats();
        let runner = collapsed
            .runner(&self.pool)
            .schedule(request.schedule)
            .recovery(request.recovery)
            .token(&token);
        let t_exec = now_ns();
        let ran = {
            let _exec = span_traced("serve", "serve.exec", trace);
            catch_unwind(AssertUnwindSafe(|| match request.work {
                RunWork::Body(body) => (runner.run(body).outcome, None),
                RunWork::Reduce(reducer) => {
                    let red = runner.reduce(&DynReducer(reducer));
                    (red.outcome, Some(red.value))
                }
            }))
        };
        let exec_ns = now_ns().saturating_sub(t_exec);
        // Snapshot before the next ticket is called, so the delta holds
        // this run's counters only.
        let ran = ran.map(|done| (done, stats_delta(&before, &collapsed.stats())));
        drop(turn);
        self.latency.exec.record(exec_ns);
        self.runs.fetch_add(1, Ordering::Relaxed);
        let reply = match ran {
            Ok(((outcome, reduced), delta)) => {
                self.recovery.add(&delta);
                Ok(RunReply {
                    outcome,
                    recovery: delta,
                    reduced,
                    queue_wait: Duration::from_nanos(queue_wait_ns),
                    exec_time: Duration::from_nanos(exec_ns),
                    trace_id: trace,
                })
            }
            // The pool already recovered (the panic re-threw here after
            // the worker barrier); fail this request only.
            Err(_payload) => Err(ServeError::BodyPanicked),
        };
        self.with_tenant(tenant, |t| {
            t.inflight -= 1;
            match &reply {
                Ok(r) => match r.outcome {
                    RunOutcome::Completed => t.completed += 1,
                    RunOutcome::Cancelled { .. } => t.cancelled += 1,
                    RunOutcome::DeadlineExpired { .. } => t.deadline_expired += 1,
                },
                Err(_) => t.body_panicked += 1,
            }
        });
        reply
    }
}

/// The verb span's name for a run of either work shape.
fn verb_name(is_reduce: bool) -> &'static str {
    if is_reduce {
        "serve.reduce"
    } else {
        "serve.run"
    }
}

impl std::fmt::Debug for CollapseService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CollapseService(line {}/{}, {} runs)",
            lock_immune(&self.line).waiting,
            self.queue_capacity,
            self.runs_executed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::CollapseResponse;
    use nrl_core::Recovery;
    use nrl_parfor::Schedule;
    use nrl_plan::PlanError;
    use nrl_polyhedra::NestSpec;
    use std::sync::atomic::{AtomicBool, AtomicI64};
    use std::time::Duration;

    fn request(n: i64, tenant: u32) -> CollapseRequest {
        CollapseRequest::new(NestSpec::correlation(), vec![n], Tenant(tenant))
    }

    #[test]
    fn run_covers_the_domain_and_counts() {
        let service = CollapseService::new(ServeConfig::default());
        let sum = AtomicI64::new(0);
        let reply = service
            .run(&request(100, 1), &|_tid, p| {
                sum.fetch_add(3 * p[0] + p[1], Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(reply.outcome, RunOutcome::Completed);
        let expect: i64 = NestSpec::correlation()
            .enumerate(&[100])
            .map(|p| 3 * p[0] + p[1])
            .sum();
        assert_eq!(sum.into_inner(), expect);
        let m = service.metrics();
        let (_, t) = m.tenants[0];
        assert_eq!((t.accepted, t.completed, t.inflight), (1, 1, 0));
        assert_eq!(m.cache.misses, 1);
        // The run recovered indices: its delta reached the totals.
        let recovered = m.recovery.closed_form_exact
            + m.recovery.corrected
            + m.recovery.binary_search
            + m.recovery.linear_exact;
        assert!(recovered > 0, "a chunked run must recover at least once");
    }

    #[test]
    fn bind_returns_a_reusable_handle() {
        let service = CollapseService::new(ServeConfig::default());
        let collapsed = service.bind(&request(50, 2)).unwrap();
        assert_eq!(collapsed.total(), 49 * 50 / 2);
        let response = CollapseResponse::Bound(Arc::clone(&collapsed));
        match response {
            CollapseResponse::Bound(c) => assert_eq!(c.total(), collapsed.total()),
            CollapseResponse::Ran(_) => unreachable!(),
        }
        let (_, t) = service.metrics().tenants[0];
        assert_eq!((t.bound, t.inflight), (1, 0));
    }

    #[test]
    fn bad_params_fail_as_plan_errors() {
        let service = CollapseService::new(ServeConfig::default());
        let err = service.run(&request(0, 3), &|_, _| {}).unwrap_err();
        assert!(matches!(err, ServeError::Plan(PlanError::Bind(_))));
        let (_, t) = service.metrics().tenants[0];
        assert_eq!((t.plan_failed, t.inflight, t.accepted), (1, 0, 0));
    }

    #[test]
    fn zero_quota_rejects_everything() {
        let service = CollapseService::new(ServeConfig {
            tenant_quota: 0,
            ..ServeConfig::default()
        });
        let err = service.bind(&request(10, 4)).unwrap_err();
        assert_eq!(
            err,
            ServeError::Rejected {
                reason: RejectReason::QuotaExceeded
            }
        );
        let (_, t) = service.metrics().tenants[0];
        assert_eq!((t.rejected_quota, t.inflight), (1, 0));
    }

    #[test]
    fn expired_deadline_stops_before_running() {
        let service = CollapseService::new(ServeConfig::default());
        let req = request(200, 5).with_deadline(Duration::ZERO);
        let reply = service
            .run(&req, &|_, _| {
                panic!("must not run past an expired deadline")
            })
            .unwrap();
        assert_eq!(
            reply.outcome,
            RunOutcome::DeadlineExpired { points_done: 0 }
        );
        let (_, t) = service.metrics().tenants[0];
        assert_eq!((t.deadline_expired, t.completed, t.inflight), (1, 0, 0));
    }

    #[test]
    fn body_panic_fails_the_request_and_the_service_survives() {
        let service = CollapseService::new(ServeConfig::default());
        let err = service
            .run(&request(50, 6), &|_, p| {
                if p[0] == 25 {
                    panic!("injected body fault");
                }
            })
            .unwrap_err();
        assert_eq!(err, ServeError::BodyPanicked);
        // The pool and the line survive: a clean run completes
        // afterwards.
        let count = AtomicU64::new(0);
        let reply = service
            .run(&request(50, 6), &|_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(reply.outcome, RunOutcome::Completed);
        assert_eq!(count.into_inner(), 49 * 50 / 2);
        let (_, t) = service.metrics().tenants[0];
        assert_eq!((t.body_panicked, t.completed, t.inflight), (1, 1, 0));
    }

    #[test]
    fn herd_on_one_shape_pays_one_analysis() {
        let service = Arc::new(CollapseService::new(ServeConfig {
            tenant_quota: 64,
            ..ServeConfig::default()
        }));
        let herd = 32usize;
        std::thread::scope(|scope| {
            for i in 0..herd {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let collapsed = service.bind(&request(100, i as u32 % 4)).unwrap();
                    assert_eq!(collapsed.total(), 99 * 100 / 2);
                });
            }
        });
        let m = service.metrics();
        assert_eq!(m.cache.misses, 1, "the herd shares a single analysis");
        assert_eq!(
            m.cache.hits + m.cache.coalesced,
            herd as u64 - 1,
            "everyone else either coalesced onto the flight or hit the cache"
        );
        let bound: u64 = m.tenants.iter().map(|(_, t)| t.bound).sum();
        assert_eq!(bound, herd as u64);
    }

    /// Blocks until `n` admitted callers wait in the service's line.
    fn wait_for_line(service: &CollapseService, n: usize) {
        while lock_immune(&service.line).waiting != n {
            std::thread::yield_now();
        }
    }

    /// A body that flags `running`, then holds the pool until `gate`
    /// opens.
    fn hold_pool<'a>(
        running: &'a AtomicBool,
        gate: &'a AtomicBool,
    ) -> impl Fn(usize, &[i64]) + Sync + 'a {
        move |_, _| {
            running.store(true, Ordering::Release);
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn queue_full_rejects_with_backpressure() {
        let service = CollapseService::new(ServeConfig {
            workers: 2,
            queue_capacity: 1,
            tenant_quota: 16,
            ..ServeConfig::default()
        });
        let (gate, running) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|scope| {
            // First run: occupies the pool until the gate opens.
            let first = scope.spawn(|| service.run(&request(10, 9), &hold_pool(&running, &gate)));
            // Wait until the first run is on the pool (so it no longer
            // counts as waiting).
            while !running.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // Second run takes the single place in the line.
            let second = scope.spawn(|| service.run(&request(10, 9), &|_, _| {}));
            wait_for_line(&service, 1);
            // Third run must be rejected without blocking.
            let err = service.run(&request(10, 9), &|_, _| {}).unwrap_err();
            assert_eq!(
                err,
                ServeError::Rejected {
                    reason: RejectReason::QueueFull
                }
            );
            gate.store(true, Ordering::Release);
            assert!(first.join().unwrap().unwrap().outcome.is_completed());
            assert!(second.join().unwrap().unwrap().outcome.is_completed());
        });
        let (_, t) = service.metrics().tenants[0];
        assert_eq!(
            (t.accepted, t.completed, t.rejected_queue_full, t.inflight),
            (2, 2, 1, 0)
        );
    }

    #[test]
    fn panicking_body_releases_the_pool_to_the_next_caller() {
        let service = CollapseService::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let (gate, running) = (AtomicBool::new(false), AtomicBool::new(false));
        let count = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let hold = hold_pool(&running, &gate);
                service.run(&request(10, 14), &move |tid, p| {
                    hold(tid, p);
                    panic!("injected body fault");
                })
            });
            while !running.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let b = scope.spawn(|| {
                service.run(&request(10, 14), &|_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                })
            });
            wait_for_line(&service, 1);
            gate.store(true, Ordering::Release);
            assert_eq!(a.join().unwrap().unwrap_err(), ServeError::BodyPanicked);
            assert!(b.join().unwrap().unwrap().outcome.is_completed());
        });
        assert_eq!(count.into_inner(), 9 * 10 / 2);
        let (_, t) = service.metrics().tenants[0];
        assert_eq!((t.body_panicked, t.completed, t.inflight), (1, 1, 0));
    }

    #[test]
    fn admitted_callers_run_in_admission_order() {
        let service = CollapseService::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let (gate, running) = (AtomicBool::new(false), AtomicBool::new(false));
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let first = scope.spawn(|| service.run(&request(10, 15), &hold_pool(&running, &gate)));
            while !running.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // Admit callers one by one; each correlation N=2 run has a
            // single point, so each body records its caller once.
            let callers: Vec<_> = (1..=5usize)
                .map(|caller| {
                    let order = &order;
                    let service = &service;
                    let handle = scope.spawn(move || {
                        service.run(&request(2, 15), &move |_, _| {
                            lock_immune(order).push(caller)
                        })
                    });
                    wait_for_line(service, caller);
                    handle
                })
                .collect();
            gate.store(true, Ordering::Release);
            assert!(first.join().unwrap().unwrap().outcome.is_completed());
            for caller in callers {
                assert!(caller.join().unwrap().unwrap().outcome.is_completed());
            }
        });
        assert_eq!(order.into_inner().unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(service.metrics().queue_depth_max, 5);
    }

    /// Σ (3i + j) over the correlation triangle as a service-side
    /// reduction.
    struct WeightedSum;

    impl ServeReducer for WeightedSum {
        fn identity(&self) -> f64 {
            0.0
        }
        fn accum(&self, _tid: usize, p: &[i64], acc: &mut f64) {
            *acc += (3 * p[0] + p[1]) as f64;
        }
        fn join(&self, left: f64, right: f64) -> f64 {
            left + right
        }
    }

    #[test]
    fn reduce_verb_returns_the_deterministic_value() {
        let expect: f64 = NestSpec::correlation()
            .enumerate(&[100])
            .map(|p| (3 * p[0] + p[1]) as f64)
            .sum();
        let mut values = Vec::new();
        for workers in [1usize, 3, 8] {
            let service = CollapseService::new(ServeConfig {
                workers,
                ..ServeConfig::default()
            });
            let reply = service.reduce(&request(100, 7), &WeightedSum).unwrap();
            assert_eq!(reply.outcome, RunOutcome::Completed);
            values.push(reply.reduced.expect("reduction must produce a value"));
        }
        assert_eq!(values[0], expect);
        assert_eq!(
            values[0].to_bits(),
            values[1].to_bits(),
            "reduction must be bit-identical across pool sizes"
        );
        assert_eq!(values[0].to_bits(), values[2].to_bits());
    }

    #[test]
    fn submit_bound_runs_both_work_shapes() {
        let service = CollapseService::new(ServeConfig::default());
        let collapsed = service.bind(&request(60, 8)).unwrap();
        let count = AtomicU64::new(0);
        let reply = service
            .submit_bound(
                &collapsed,
                RunRequest::new(
                    Tenant(8),
                    RunWork::Body(&|_t, _p| {
                        count.fetch_add(1, Ordering::Relaxed);
                    }),
                )
                .with_schedule(Schedule::Dynamic(16)),
            )
            .unwrap();
        assert_eq!(reply.outcome, RunOutcome::Completed);
        assert_eq!(reply.reduced, None, "plain bodies carry no value");
        assert_eq!(count.into_inner(), 59 * 60 / 2);
        let reply = service
            .submit_bound(
                &collapsed,
                RunRequest::new(Tenant(8), RunWork::Reduce(&WeightedSum))
                    .with_recovery(Recovery::BinarySearch),
            )
            .unwrap();
        let expect: f64 = NestSpec::correlation()
            .enumerate(&[60])
            .map(|p| (3 * p[0] + p[1]) as f64)
            .sum();
        assert_eq!(reply.reduced, Some(expect));
    }

    #[test]
    fn deadline_expired_reduction_reports_the_prefix() {
        let service = CollapseService::new(ServeConfig::default());
        let req = request(200, 12).with_deadline(Duration::ZERO);
        let reply = service.reduce(&req, &WeightedSum).unwrap();
        assert_eq!(
            reply.outcome,
            RunOutcome::DeadlineExpired { points_done: 0 }
        );
        assert_eq!(
            reply.reduced,
            Some(0.0),
            "zero points folded means the identity comes back"
        );
    }

    #[test]
    fn replies_carry_timing_and_metrics_carry_histograms() {
        let service = CollapseService::new(ServeConfig::default());
        let reply = service.run(&request(100, 13), &|_, _| {}).unwrap();
        assert_ne!(reply.trace_id, 0, "every executed run gets a trace id");
        assert!(
            reply.exec_time > Duration::ZERO,
            "a 4950-point run takes measurable time"
        );
        let reply2 = service.reduce(&request(100, 13), &WeightedSum).unwrap();
        assert_ne!(reply2.trace_id, reply.trace_id, "trace ids are per request");
        let _ = service.bind(&request(100, 13)).unwrap();
        let m = service.metrics();
        assert!(
            m.queue_depth_max >= 1,
            "an executed run must have raised the high-water mark"
        );
        assert_eq!(m.latency.run.count(), 1);
        assert_eq!(m.latency.reduce.count(), 1);
        assert_eq!(m.latency.bind.count(), 1);
        // submit + reduce + bind all resolved; queue_wait/exec saw the
        // two executed runs.
        assert_eq!(m.latency.resolve.count(), 3);
        assert_eq!(m.latency.queue_wait.count(), 2);
        assert_eq!(m.latency.exec.count(), 2);
        let report = m.report();
        assert!(report.contains("latency.verb.run: n=1"));
        assert!(report.contains("latency.phase.exec: n=2"));
        assert!(report.contains(&format!("max {}", m.queue_depth_max)));
    }

    #[test]
    fn half_pinned_contexts_keep_the_pinned_axis() {
        // Each schedule chunk recovers one anchor, so the engine
        // buckets of a run's recovery delta tell which schedule ran.
        // An unpinned axis must run as `Strategy::DEFAULT`'s.
        let service = CollapseService::new(ServeConfig::default());
        let anchors = |schedule, recovery| {
            let ctx = nrl_plan::PlanContext { schedule, recovery };
            let r = service
                .run(&request(100, 23).with_ctx(ctx), &|_, _| {})
                .unwrap()
                .recovery;
            r.closed_form_exact + r.corrected + r.binary_search + r.linear_exact
        };
        let dynamic = Some(Schedule::Dynamic(16));
        let (schedule, recovery) = (Strategy::DEFAULT.schedule, Strategy::DEFAULT.recovery);
        assert_eq!(anchors(dynamic, None), anchors(dynamic, Some(recovery)));
        assert_eq!(anchors(None, None), anchors(Some(schedule), Some(recovery)));
        assert_ne!(anchors(dynamic, None), anchors(None, None));
    }

    #[test]
    fn drop_drains_admitted_work() {
        let service = CollapseService::new(ServeConfig::default());
        let count = Arc::new(AtomicU64::new(0));
        {
            let c = Arc::clone(&count);
            service
                .run(&request(30, 11), &move |_, _| {
                    c.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
        }
        drop(service);
        assert_eq!(count.load(Ordering::Relaxed), 29 * 30 / 2);
    }
}
