//! The plain-text observability surface.
//!
//! Every counter the service exposes is aggregated here:
//! [`ServeMetrics`] snapshots the plan-cache counters
//! ([`CacheStats`]), the service-wide recovery-counter totals
//! ([`RecoveryStats`], summed over every run's delta), the per-tenant
//! admission/outcome counters ([`TenantStats`]), and the live count
//! of callers waiting for the pool. [`ServeMetrics::report`] renders the whole snapshot as plain
//! text — the format the `serve_demo` example prints and the
//! `serve_stress` CI bin parses nothing from (it asserts on the typed
//! snapshot; the text is for humans).
//!
//! The counter semantics and the exact consistency invariants the
//! stress bins assert are documented in `docs/COUNTERS.md`.

use crate::request::Tenant;
use nrl_core::RecoveryStats;
use nrl_obs::{Hist, SharedHist};
use nrl_plan::CacheStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-tenant admission and outcome counters.
///
/// Every `run` submission ends in exactly one of `accepted`,
/// `rejected_queue_full`, `rejected_quota`, or `plan_failed`; every
/// accepted run ends in exactly one of `completed`, `cancelled`,
/// `deadline_expired`, or `body_panicked`. Every `bind` submission
/// ends in exactly one of `bound`, `rejected_quota`, or `plan_failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Run requests admitted to the line for the pool.
    pub accepted: u64,
    /// Run requests refused because the line for the pool was full.
    pub rejected_queue_full: u64,
    /// Requests refused because the tenant's in-flight quota was hit.
    pub rejected_quota: u64,
    /// Requests whose plan resolution or instantiation failed after
    /// admission (bad shape/parameters, quarantined or panicking
    /// analysis).
    pub plan_failed: u64,
    /// Runs whose whole domain executed.
    pub completed: u64,
    /// Runs stopped by cancellation.
    pub cancelled: u64,
    /// Runs stopped by their deadline (including expiry while waiting
    /// in line).
    pub deadline_expired: u64,
    /// Runs whose body panicked (the request fails, the service
    /// survives).
    pub body_panicked: u64,
    /// Bind-only requests served successfully.
    pub bound: u64,
    /// Requests currently admitted and not yet finished.
    pub inflight: u64,
}

/// Snapshot of the service's log2 latency-histogram families: one
/// [`Hist`] per verb (end-to-end, admission to reply) and one per
/// request phase. All values are nanoseconds; only requests that
/// passed admission and finished their verb record (rejections are
/// counted by [`TenantStats`], not timed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyMetrics {
    /// End-to-end `bind` verb latency (resolve + instantiate).
    pub bind: Hist,
    /// End-to-end latency of body-shaped runs (`run`, and
    /// `submit_bound` with [`RunWork::Body`](crate::RunWork::Body)).
    pub run: Hist,
    /// End-to-end latency of reduction-shaped runs.
    pub reduce: Hist,
    /// Phase: coalesced plan resolution + instantiation.
    pub resolve: Hist,
    /// Phase: time an admitted caller waited in line for the pool.
    pub queue_wait: Hist,
    /// Phase: the caller's own pool execution of the run.
    pub exec: Hist,
}

impl LatencyMetrics {
    /// Renders the histogram families as plain text, one
    /// `label: n=… p50≤… p95≤… p99≤… max≤…` line per family (the
    /// `hist_report()` section of [`ServeMetrics::report`]).
    pub fn hist_report(&self) -> String {
        let mut out = String::new();
        for (label, h) in [
            ("latency.verb.bind", &self.bind),
            ("latency.verb.run", &self.run),
            ("latency.verb.reduce", &self.reduce),
            ("latency.phase.resolve", &self.resolve),
            ("latency.phase.queue_wait", &self.queue_wait),
            ("latency.phase.exec", &self.exec),
        ] {
            let _ = writeln!(out, "{}", h.render(label));
        }
        out
    }
}

/// One full metrics snapshot (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Plan-cache counters (hits/misses/coalesced/evictions/
    /// quarantined/entries) of the service's own cache.
    pub cache: CacheStats,
    /// Recovery-counter totals summed over every run the service
    /// executed.
    pub recovery: RecoveryStats,
    /// Per-tenant counters, ordered by tenant id.
    pub tenants: Vec<(Tenant, TenantStats)>,
    /// Admitted callers waiting for the pool right now (racy by
    /// nature).
    pub queue_depth: usize,
    /// High-water mark of the queue depth over the service's lifetime
    /// (updated at every admission), so a backpressure incident stays
    /// visible after the line drains.
    pub queue_depth_max: u64,
    /// Most admitted callers that may wait for the pool
    /// (`ServeConfig::queue_capacity`).
    pub queue_capacity: usize,
    /// Per-verb and per-phase latency histograms.
    pub latency: LatencyMetrics,
}

impl ServeMetrics {
    /// Renders the snapshot as plain text, one line per subsystem and
    /// one line per tenant.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "nrl_serve metrics");
        let _ = writeln!(
            out,
            "queue: depth {} max {} capacity {}",
            self.queue_depth, self.queue_depth_max, self.queue_capacity
        );
        let c = &self.cache;
        let _ = writeln!(
            out,
            "plan_cache: hits {} misses {} coalesced {} evictions {} quarantined {} entries {}",
            c.hits, c.misses, c.coalesced, c.evictions, c.quarantined, c.entries
        );
        let r = &self.recovery;
        let _ = writeln!(
            out,
            "recovery: closed_form_exact {} corrected {} binary_search {} linear_exact {} \
             spec_cache_hit {} spec_cache_miss {}",
            r.closed_form_exact,
            r.corrected,
            r.binary_search,
            r.linear_exact,
            r.spec_cache_hit,
            r.spec_cache_miss
        );
        for (tenant, t) in &self.tenants {
            let _ = writeln!(
                out,
                "{tenant}: accepted {} rejected_queue_full {} rejected_quota {} plan_failed {} \
                 completed {} cancelled {} deadline_expired {} body_panicked {} bound {} inflight {}",
                t.accepted,
                t.rejected_queue_full,
                t.rejected_quota,
                t.plan_failed,
                t.completed,
                t.cancelled,
                t.deadline_expired,
                t.body_panicked,
                t.bound,
                t.inflight
            );
        }
        out.push_str(&self.latency.hist_report());
        out
    }
}

/// The live (recording) side of [`LatencyMetrics`]: one [`SharedHist`]
/// per family, recorded lock-free from caller threads.
#[derive(Default)]
pub(crate) struct LatencyTotals {
    pub(crate) bind: SharedHist,
    pub(crate) run: SharedHist,
    pub(crate) reduce: SharedHist,
    pub(crate) resolve: SharedHist,
    pub(crate) queue_wait: SharedHist,
    pub(crate) exec: SharedHist,
}

impl LatencyTotals {
    pub(crate) fn snapshot(&self) -> LatencyMetrics {
        LatencyMetrics {
            bind: self.bind.snapshot(),
            run: self.run.snapshot(),
            reduce: self.reduce.snapshot(),
            resolve: self.resolve.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            exec: self.exec.snapshot(),
        }
    }
}

/// Service-wide recovery-counter totals, accumulated run by run from
/// each run's snapshot delta.
#[derive(Default)]
pub(crate) struct RecoveryTotals {
    closed_form_exact: AtomicU64,
    corrected: AtomicU64,
    binary_search: AtomicU64,
    linear_exact: AtomicU64,
    spec_cache_hit: AtomicU64,
    spec_cache_miss: AtomicU64,
}

impl RecoveryTotals {
    pub(crate) fn add(&self, d: &RecoveryStats) {
        self.closed_form_exact
            .fetch_add(d.closed_form_exact, Ordering::Relaxed);
        self.corrected.fetch_add(d.corrected, Ordering::Relaxed);
        self.binary_search
            .fetch_add(d.binary_search, Ordering::Relaxed);
        self.linear_exact
            .fetch_add(d.linear_exact, Ordering::Relaxed);
        self.spec_cache_hit
            .fetch_add(d.spec_cache_hit, Ordering::Relaxed);
        self.spec_cache_miss
            .fetch_add(d.spec_cache_miss, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> RecoveryStats {
        RecoveryStats {
            closed_form_exact: self.closed_form_exact.load(Ordering::Relaxed),
            corrected: self.corrected.load(Ordering::Relaxed),
            binary_search: self.binary_search.load(Ordering::Relaxed),
            linear_exact: self.linear_exact.load(Ordering::Relaxed),
            spec_cache_hit: self.spec_cache_hit.load(Ordering::Relaxed),
            spec_cache_miss: self.spec_cache_miss.load(Ordering::Relaxed),
        }
    }
}

/// `after − before` for two monotone snapshots of one `Collapsed`'s
/// counters (saturating, in case a counter is shared with runs outside
/// the service).
pub(crate) fn stats_delta(before: &RecoveryStats, after: &RecoveryStats) -> RecoveryStats {
    RecoveryStats {
        closed_form_exact: after
            .closed_form_exact
            .saturating_sub(before.closed_form_exact),
        corrected: after.corrected.saturating_sub(before.corrected),
        binary_search: after.binary_search.saturating_sub(before.binary_search),
        linear_exact: after.linear_exact.saturating_sub(before.linear_exact),
        spec_cache_hit: after.spec_cache_hit.saturating_sub(before.spec_cache_hit),
        spec_cache_miss: after.spec_cache_miss.saturating_sub(before.spec_cache_miss),
    }
}
