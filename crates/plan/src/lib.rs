#![warn(missing_docs)]
//! # nrl-plan — the concurrent plan cache
//!
//! The collapse pipeline splits into an expensive analyze-once half
//! ([`ParamPlan::analyze`]: symbolic ranking sums, parametric
//! lowering, Fourier–Motzkin certificates — see `nrl_core::plan`) and
//! a cheap instantiate-many half
//! ([`ParamPlan::instantiate`]). This crate adds the serving layer on
//! top: [`PlanCache`], a sharded, lock-striped LRU keyed by the nest
//! **shape fingerprint** plus the execution context (schedule +
//! recovery mode), with hit/miss/eviction counters in the
//! `RecoveryCounters` style. Every kernel in the registry and every
//! DSL-built nest resolves its plan through the
//! [global cache](PlanCache::global), so repeated binds of the same
//! shape — the service workload — cost one cache probe and one
//! microsecond-scale instantiation.
//!
//! For service fronts the cache also offers **request coalescing**
//! ([`PlanCache::get_or_analyze_coalesced`]): a per-shape in-flight
//! table makes a thundering herd of N concurrent requests for one
//! uncached shape pay exactly one analysis — one leader runs
//! `analyze`, the other N−1 callers park on its result (counted in
//! [`CacheStats::coalesced`], not as hits or misses). A leader panic
//! propagates the [`CollapseError::Quarantined`] failure to every
//! waiter without poisoning the table: the flight is removed before
//! the payload re-throws, so the next request starts a clean retry.
//!
//! ```
//! use nrl_plan::{PlanCache, PlanContext};
//! use nrl_polyhedra::NestSpec;
//!
//! let cache = PlanCache::new(4, 8);
//! let nest = NestSpec::correlation();
//! // First touch analyzes; later touches (any thread) hit.
//! let collapsed = cache.collapse(&nest, PlanContext::default(), &[1000]).unwrap();
//! assert_eq!(collapsed.total(), 999 * 1000 / 2);
//! let again = cache.collapse(&nest, PlanContext::default(), &[500]).unwrap();
//! assert_eq!(again.total(), 499 * 500 / 2);
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! ```

use nrl_core::{BindError, CollapseError, Collapsed, Recovery};
use nrl_parfor::Schedule;
use nrl_polyhedra::NestSpec;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a cache mutex ignoring poisoning: an `analyze` unwind (or a
/// panicking borrower) never leaves shard or quarantine bookkeeping in
/// an invalid state — every mutation below is complete before the lock
/// drops — so later callers proceed instead of cascading the panic.
fn lock_immune<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Consecutive analyze panics after which a shape is quarantined:
/// further lookups fail fast with [`CollapseError::Quarantined`]
/// instead of re-running an analysis that keeps crashing the caller.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// The execution context a plan is cached under. The symbolic plan
/// itself is schedule-independent today, but the key space reserves
/// the axes future context-specialized plans (schedule-shaped chunk
/// hints) will occupy — and keeps ablation runs from sharing entries
/// with production ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PlanContext {
    /// Schedule the plan will execute under (`None` = unspecified).
    pub schedule: Option<Schedule>,
    /// Recovery mode the plan will execute under (`None` = unspecified).
    pub recovery: Option<Recovery>,
}

/// Any failure along the cached collapse path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The analyze half failed (nest too deep).
    Analyze(CollapseError),
    /// Instantiation rejected the parameters.
    Bind(BindError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Analyze(e) => write!(f, "plan analysis failed: {e}"),
            PlanError::Bind(e) => write!(f, "plan instantiation failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<CollapseError> for PlanError {
    fn from(e: CollapseError) -> Self {
        PlanError::Analyze(e)
    }
}

impl From<BindError> for PlanError {
    fn from(e: BindError) -> Self {
        PlanError::Bind(e)
    }
}

/// A plain snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a cached plan.
    pub hits: u64,
    /// Lookups that had to analyze (including racing analyses whose
    /// insert lost to a concurrent thread's).
    pub misses: u64,
    /// Entries displaced by the per-shard LRU policy.
    pub evictions: u64,
    /// Lookups refused because the shape is quarantined (counted
    /// separately from hits/misses: a quarantined lookup serves no
    /// plan and runs no analysis).
    pub quarantined: u64,
    /// Coalesced lookups: callers that parked on another thread's
    /// in-flight analysis of the same shape instead of analyzing
    /// themselves (counted separately from hits/misses — a coalesced
    /// wait probes no shard and runs no analysis; only
    /// [`PlanCache::get_or_analyze_coalesced`] can increment this).
    pub coalesced: u64,
    /// Plans currently resident across all shards.
    pub entries: usize,
}

/// One in-flight analysis: the leader publishes its result here and
/// wakes every parked waiter. The slot is written exactly once —
/// including on a leader panic, where the failure is published *before*
/// the payload re-throws — so waiters can never block forever.
struct Flight {
    slot: Mutex<Option<Result<Arc<ParamPlan>, CollapseError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Publishes the leader's result and wakes all waiters.
    fn publish(&self, result: Result<Arc<ParamPlan>, CollapseError>) {
        *lock_immune(&self.slot) = Some(result);
        self.cv.notify_all();
    }

    /// Parks until the leader publishes, then returns its result.
    fn wait(&self) -> Result<Arc<ParamPlan>, CollapseError> {
        let mut slot = lock_immune(&self.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Entry {
    fingerprint: u64,
    ctx: PlanContext,
    /// Full shape stored for exact matching: fingerprint collisions
    /// must never serve a foreign plan.
    nest: NestSpec,
    plan: Arc<ParamPlan>,
    last_used: u64,
}

struct Shard {
    entries: Mutex<Vec<Entry>>,
}

/// A sharded, lock-striped LRU cache of analyzed [`ParamPlan`]s.
///
/// Lookups hash the nest shape + [`PlanContext`] to a shard; each
/// shard guards a small LRU with one mutex, so concurrent lookups of
/// different shapes rarely contend. Plans are handed out as
/// `Arc<ParamPlan>` — eviction never invalidates a plan a borrower is
/// still instantiating from (the eviction-vs-borrow race is resolved
/// by refcounting, exercised by the `plan_cache_stress` CI smoke).
/// Analysis on a miss runs **outside** the shard lock: a racing
/// analysis of the same shape wastes one analyze but never blocks
/// readers of other shapes on the same shard.
pub struct PlanCache {
    shards: Box<[Shard]>,
    capacity_per_shard: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
    coalesced: AtomicU64,
    /// Consecutive analyze-panic counts per shape fingerprint; a
    /// successful analysis clears the shape's entry. Tiny (only shapes
    /// that crashed analysis appear), so one mutex suffices.
    quarantine: Mutex<Vec<(u64, u32)>>,
    /// In-flight analyses keyed by shape fingerprint (the coalescing
    /// table). Tiny — an entry exists only while an analysis runs —
    /// so one mutex suffices; it is held only for table bookkeeping,
    /// never across an analysis or a shard operation.
    inflight: Mutex<Vec<(u64, Arc<Flight>)>>,
}

impl PlanCache {
    /// Creates a cache with `shards` lock stripes (rounded up to a
    /// power of two, minimum 1) of `capacity_per_shard` plans each.
    pub fn new(shards: usize, capacity_per_shard: usize) -> PlanCache {
        let shards = shards.max(1).next_power_of_two();
        PlanCache {
            shards: (0..shards)
                .map(|_| Shard {
                    entries: Mutex::new(Vec::new()),
                })
                .collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            quarantine: Mutex::new(Vec::new()),
            inflight: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide cache the kernel registry and the DSL pipeline
    /// resolve their plans through (8 shards × 8 plans).
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PlanCache::new(8, 8))
    }

    /// Total plans the cache can hold.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.capacity_per_shard
    }

    /// Snapshot of the hit/miss/eviction counters and residency.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| lock_immune(&s.entries).len())
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries,
        }
    }

    fn fingerprint(nest: &NestSpec, ctx: &PlanContext) -> u64 {
        let mut h = DefaultHasher::new();
        let space = nest.space();
        space.niters().hash(&mut h);
        space.nparams().hash(&mut h);
        for name in space.names() {
            name.hash(&mut h);
        }
        for k in 0..nest.depth() {
            for a in [nest.lower(k), nest.upper(k)] {
                for v in 0..space.len() {
                    a.coeff(v).hash(&mut h);
                }
                a.constant_term().hash(&mut h);
            }
        }
        ctx.hash(&mut h);
        h.finish()
    }

    /// Resolves the plan for `(nest shape, context)`: a cached `Arc` on
    /// a hit, a fresh analysis (inserted LRU-wise) on a miss.
    ///
    /// # Fault story
    ///
    /// Analysis runs outside every lock, so a panicking `analyze`
    /// unwinds with the cache fully consistent: the miss is counted,
    /// no entry (or half-entry) exists, the shard's LRU clock is
    /// untouched, and the next caller of the same shape retries
    /// cleanly. The panic itself keeps propagating to the caller.
    /// A shape whose analysis panics [`QUARANTINE_THRESHOLD`] times in
    /// a row is quarantined: further lookups fail fast with
    /// [`CollapseError::Quarantined`] (counted in
    /// [`CacheStats::quarantined`], not as hits or misses) instead of
    /// re-running an analysis that keeps crashing its callers. One
    /// successful analysis clears the shape's failure record.
    pub fn get_or_analyze(
        &self,
        nest: &NestSpec,
        ctx: PlanContext,
    ) -> Result<Arc<ParamPlan>, CollapseError> {
        let fp = Self::fingerprint(nest, &ctx);
        let shard = &self.shards[(fp as usize) & (self.shards.len() - 1)];
        if let Some(plan) = self.lookup(shard, fp, &ctx, nest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        if let Some(failures) = self.quarantine_failures(fp) {
            if failures >= QUARANTINE_THRESHOLD {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                return Err(CollapseError::Quarantined { failures });
            }
        }
        self.analyze_miss(nest, ctx, fp, shard)
    }

    /// [`Self::get_or_analyze`] with **request coalescing**: when
    /// another thread is already analyzing this `(shape, context)`,
    /// the call parks on that leader's result instead of running a
    /// duplicate analysis — a thundering herd of N concurrent requests
    /// for one uncached shape pays exactly one `analyze` (1 miss,
    /// N−1 [`CacheStats::coalesced`] waits, 0 hits).
    ///
    /// # Fault story
    ///
    /// The leader runs the exact [`Self::get_or_analyze`] miss path,
    /// so its own caller sees identical semantics (panic propagation,
    /// quarantine bookkeeping). Waiters never observe the panic
    /// itself: a leader panic publishes
    /// [`CollapseError::Quarantined`] — with the consecutive-failure
    /// count recorded so far, the same failure the quarantine gate
    /// reports once the threshold is reached — to every parked waiter,
    /// *after* removing the flight from the in-flight table. The table
    /// is therefore never poisoned: the next request for the shape
    /// starts a fresh flight and retries cleanly.
    pub fn get_or_analyze_coalesced(
        &self,
        nest: &NestSpec,
        ctx: PlanContext,
    ) -> Result<Arc<ParamPlan>, CollapseError> {
        let fp = Self::fingerprint(nest, &ctx);
        let shard = &self.shards[(fp as usize) & (self.shards.len() - 1)];
        if let Some(plan) = self.lookup(shard, fp, &ctx, nest) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        if let Some(failures) = self.quarantine_failures(fp) {
            if failures >= QUARANTINE_THRESHOLD {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                return Err(CollapseError::Quarantined { failures });
            }
        }
        // Join the in-flight analysis if one exists, else lead one.
        let (flight, leader) = {
            let mut inflight = lock_immune(&self.inflight);
            match inflight.iter().find(|(f, _)| *f == fp) {
                Some((_, flight)) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight::new());
                    inflight.push((fp, Arc::clone(&flight)));
                    (flight, true)
                }
            }
        };
        if !leader {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let _wait = obs::span("plan", "plan.coalesced_wait");
            return flight.wait();
        }
        // Leader: run the ordinary miss path (analysis outside every
        // lock), then publish to the waiters. `analyze_miss` re-throws
        // an analyze panic after recording it — catch it here so the
        // flight can be retired and the waiters unblocked first.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.analyze_miss(nest, ctx, fp, shard)));
        let (published, unwind) = match outcome {
            Ok(result) => (result, None),
            Err(payload) => {
                let failures = self.quarantine_failures(fp).unwrap_or(1);
                (Err(CollapseError::Quarantined { failures }), Some(payload))
            }
        };
        // Retire the flight *before* publishing: a request arriving
        // after the waiters wake must start fresh, not join a dead
        // flight. (Waiters hold their own `Arc`, so removal is safe.)
        {
            let mut inflight = lock_immune(&self.inflight);
            if let Some(i) = inflight.iter().position(|(f, _)| *f == fp) {
                inflight.swap_remove(i);
            }
        }
        flight.publish(published.clone());
        match unwind {
            Some(payload) => resume_unwind(payload),
            None => published,
        }
    }

    /// The shared miss path: count the miss, analyze outside every
    /// lock, insert LRU-wise with a racing-insert double-check. An
    /// analyze panic unwinds with the failure recorded for the
    /// quarantine threshold (see [`Self::get_or_analyze`]).
    fn analyze_miss(
        &self,
        nest: &NestSpec,
        ctx: PlanContext,
        fp: u64,
        shard: &Shard,
    ) -> Result<Arc<ParamPlan>, CollapseError> {
        // Analyze outside the shard lock: symbolic analysis is the
        // expensive path and must not serialize unrelated lookups.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let analyzed = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(any(test, feature = "fault-inject"))]
            faults::maybe_panic_in_analyze();
            // Inside the catch: an analyze unwind still closes (and
            // records) the span on the way out.
            let _analyze = obs::span("plan", "plan.analyze");
            ParamPlan::analyze(nest)
        }));
        let plan = match analyzed {
            Ok(result) => Arc::new(result?),
            Err(payload) => {
                // Unwound with no lock held and no entry inserted —
                // record the failure for the quarantine threshold and
                // let the panic keep propagating.
                self.record_analyze_panic(fp);
                resume_unwind(payload);
            }
        };
        self.clear_analyze_panics(fp);
        let mut entries = lock_immune(&shard.entries);
        // Double-check: a racing thread may have inserted the same key
        // while we analyzed — reuse its entry rather than duplicating.
        if let Some(e) = entries
            .iter_mut()
            .find(|e| e.fingerprint == fp && e.ctx == ctx && &e.nest == nest)
        {
            e.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&e.plan));
        }
        if entries.len() >= self.capacity_per_shard {
            let victim = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty shard at capacity");
            entries.swap_remove(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        entries.push(Entry {
            fingerprint: fp,
            ctx,
            nest: nest.clone(),
            plan: Arc::clone(&plan),
            last_used: self.clock.fetch_add(1, Ordering::Relaxed),
        });
        Ok(plan)
    }

    /// Consecutive analyze-panic count recorded for `fp` (`None` when
    /// the shape has no failure record).
    fn quarantine_failures(&self, fp: u64) -> Option<u32> {
        lock_immune(&self.quarantine)
            .iter()
            .find(|(f, _)| *f == fp)
            .map(|(_, n)| *n)
    }

    fn record_analyze_panic(&self, fp: u64) {
        let mut q = lock_immune(&self.quarantine);
        match q.iter_mut().find(|(f, _)| *f == fp) {
            Some((_, n)) => *n = n.saturating_add(1),
            None => q.push((fp, 1)),
        }
    }

    fn clear_analyze_panics(&self, fp: u64) {
        let mut q = lock_immune(&self.quarantine);
        if let Some(i) = q.iter().position(|(f, _)| *f == fp) {
            q.swap_remove(i);
        }
    }

    fn lookup(
        &self,
        shard: &Shard,
        fp: u64,
        ctx: &PlanContext,
        nest: &NestSpec,
    ) -> Option<Arc<ParamPlan>> {
        let mut entries = lock_immune(&shard.entries);
        let e = entries
            .iter_mut()
            .find(|e| e.fingerprint == fp && &e.ctx == ctx && &e.nest == nest)?;
        e.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&e.plan))
    }

    /// The one-call service path: resolve the plan (cached or fresh)
    /// and instantiate it at `params`, with full domain validation.
    pub fn collapse(
        &self,
        nest: &NestSpec,
        ctx: PlanContext,
        params: &[i64],
    ) -> Result<Collapsed, PlanError> {
        let plan = self.get_or_analyze(nest, ctx)?;
        let _inst = obs::span("plan", "plan.instantiate");
        Ok(plan.instantiate(params)?)
    }

    /// [`Self::collapse`] over the coalescing lookup
    /// ([`Self::get_or_analyze_coalesced`]): the service-front path,
    /// where concurrent requests for one uncached shape must share a
    /// single analysis.
    pub fn collapse_coalesced(
        &self,
        nest: &NestSpec,
        ctx: PlanContext,
        params: &[i64],
    ) -> Result<Collapsed, PlanError> {
        let plan = self.get_or_analyze_coalesced(nest, ctx)?;
        let _inst = obs::span("plan", "plan.instantiate");
        Ok(plan.instantiate(params)?)
    }
}

pub use nrl_core::ParamPlan;

/// Tracing shim: real `nrl_obs` probes under the `obs-trace` feature,
/// zero-size no-ops otherwise (same pattern as `faults`). Only the
/// cache's slow paths carry spans — hits stay probe-free.
mod obs {
    #[cfg(feature = "obs-trace")]
    pub(crate) use nrl_obs::span;

    #[cfg(not(feature = "obs-trace"))]
    mod noop {
        /// Disabled-probe stand-in; holds nothing, drops to nothing.
        #[derive(Debug)]
        pub(crate) struct Span;

        #[inline(always)]
        pub(crate) fn span(_cat: &'static str, _name: &'static str) -> Option<Span> {
            None
        }
    }
    #[cfg(not(feature = "obs-trace"))]
    pub(crate) use noop::span;
}

/// Deterministic fault hooks for the containment tests (compiled for
/// this crate's own unit tests and under the `fault-inject` feature).
#[cfg(any(test, feature = "fault-inject"))]
pub mod faults {
    use std::cell::Cell;

    thread_local! {
        static ANALYZE_PANICS: Cell<u32> = const { Cell::new(0) };
        static ANALYZE_DELAY: Cell<Option<std::time::Duration>> = const { Cell::new(None) };
    }

    /// The payload message injected analyze panics carry.
    pub const INJECTED_ANALYZE_PANIC: &str = "injected fault: analyze panic";

    /// Makes the next `n` [`PlanCache`](crate::PlanCache) analyses
    /// **on this thread** panic before any real analysis work runs.
    /// Thread-local on purpose: concurrently running tests (or pool
    /// workers) never consume each other's injected faults.
    pub fn inject_analyze_panics(n: u32) {
        ANALYZE_PANICS.with(|c| c.set(n));
    }

    /// Makes every [`PlanCache`](crate::PlanCache) analysis **on this
    /// thread** sleep for `d` before running (and before any injected
    /// panic fires). The coalescing herd tests use this to pin flight
    /// leadership deterministically: arm a delay on the designated
    /// leader, let it enter first, then release the herd while the
    /// leader is provably still inside `analyze`.
    pub fn delay_analyze(d: std::time::Duration) {
        ANALYZE_DELAY.with(|c| c.set(Some(d)));
    }

    /// Clears a [`delay_analyze`] armed on this thread.
    pub fn clear_analyze_delay() {
        ANALYZE_DELAY.with(|c| c.set(None));
    }

    pub(crate) fn maybe_panic_in_analyze() {
        if let Some(d) = ANALYZE_DELAY.with(|c| c.get()) {
            std::thread::sleep(d);
        }
        let fire = ANALYZE_PANICS.with(|c| {
            let v = c.get();
            if v > 0 {
                c.set(v - 1);
            }
            v > 0
        });
        if fire {
            panic!("{INJECTED_ANALYZE_PANIC}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrl_polyhedra::Space;

    fn shape(c: i64) -> NestSpec {
        let s = Space::new(&["i", "j"], &["N"]);
        NestSpec::new(
            s.clone(),
            vec![(s.cst(0), s.var("N") - 1), (s.cst(0), s.var("i") + c)],
        )
        .unwrap()
    }

    #[test]
    fn hits_after_first_analysis() {
        let cache = PlanCache::new(2, 4);
        let nest = NestSpec::correlation();
        let a = cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
        let b = cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn context_separates_entries() {
        let cache = PlanCache::new(2, 4);
        let nest = NestSpec::correlation();
        let plain = cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
        let pinned = cache
            .get_or_analyze(
                &nest,
                PlanContext {
                    schedule: Some(Schedule::Dynamic(8)),
                    recovery: Some(Recovery::BinarySearch),
                },
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&plain, &pinned));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard of two entries: touching A keeps it resident while
        // C displaces B.
        let cache = PlanCache::new(1, 2);
        let (a, b, c) = (shape(0), shape(1), shape(2));
        cache.get_or_analyze(&a, PlanContext::default()).unwrap();
        cache.get_or_analyze(&b, PlanContext::default()).unwrap();
        cache.get_or_analyze(&a, PlanContext::default()).unwrap(); // refresh A
        cache.get_or_analyze(&c, PlanContext::default()).unwrap(); // evicts B
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        cache.get_or_analyze(&a, PlanContext::default()).unwrap();
        assert_eq!(cache.stats().hits, 2, "A must have survived the eviction");
    }

    #[test]
    fn evicted_plans_stay_usable_by_borrowers() {
        let cache = PlanCache::new(1, 1);
        let held = cache
            .get_or_analyze(&NestSpec::correlation(), PlanContext::default())
            .unwrap();
        // Displace the only entry while `held` is still borrowed.
        cache
            .get_or_analyze(&NestSpec::figure6(), PlanContext::default())
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        let collapsed = held.instantiate(&[100]).unwrap();
        assert_eq!(collapsed.total(), 99 * 100 / 2);
    }

    #[test]
    fn cached_collapse_matches_fresh_bind() {
        let cache = PlanCache::new(4, 4);
        let nest = NestSpec::figure6();
        for n in [3i64, 9, 30] {
            let cached = cache.collapse(&nest, PlanContext::default(), &[n]).unwrap();
            let fresh = nrl_core::CollapseSpec::new(&nest)
                .unwrap()
                .bind(&[n])
                .unwrap();
            assert_eq!(cached.total(), fresh.total());
            for pc in 1..=cached.total() {
                assert_eq!(cached.unrank(pc), fresh.unrank(pc), "N={n} pc={pc}");
            }
        }
    }

    #[test]
    fn bind_errors_surface_through_the_cache() {
        let cache = PlanCache::new(1, 4);
        let err = cache
            .collapse(&NestSpec::correlation(), PlanContext::default(), &[0])
            .unwrap_err();
        assert!(matches!(
            err,
            PlanError::Bind(BindError::NegativeTripCount { .. })
        ));
        let err = cache
            .collapse(&NestSpec::correlation(), PlanContext::default(), &[])
            .unwrap_err();
        assert!(matches!(err, PlanError::Bind(BindError::ParamArity { .. })));
    }

    #[test]
    fn concurrent_lookups_keep_counters_consistent() {
        let cache = Arc::new(PlanCache::new(2, 2));
        let shapes: Vec<NestSpec> = (0..5).map(shape).collect();
        let threads = 8usize;
        let per_thread = 50usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                let shapes = &shapes;
                scope.spawn(move || {
                    let mut state = t as u64 + 1;
                    for _ in 0..per_thread {
                        // xorshift — deterministic per-thread mix.
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let nest = &shapes[(state % shapes.len() as u64) as usize];
                        let collapsed =
                            cache.collapse(nest, PlanContext::default(), &[20]).unwrap();
                        assert!(collapsed.total() > 0);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, (threads * per_thread) as u64);
        assert!(stats.entries <= cache.capacity());
    }

    /// Runs one lookup expecting the injected analyze panic, returning
    /// the panic message.
    fn panicking_lookup(cache: &PlanCache, nest: &NestSpec) -> String {
        faults::inject_analyze_panics(1);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_analyze(nest, PlanContext::default())
        }))
        .expect_err("injected analyze panic must propagate to the caller");
        *payload
            .downcast::<String>()
            .expect("injected panic carries its message")
    }

    #[test]
    fn analyze_panic_leaves_cache_consistent_and_retries() {
        let cache = PlanCache::new(1, 4);
        let nest = NestSpec::correlation();
        let msg = panicking_lookup(&cache, &nest);
        assert_eq!(msg, faults::INJECTED_ANALYZE_PANIC);
        // Fault story: miss counted, no entry (or half-entry), nothing
        // quarantined yet.
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries, stats.quarantined),
            (0, 1, 0, 0)
        );
        // The same shape retries cleanly and caches as usual.
        let plan = cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
        assert_eq!(plan.instantiate(&[100]).unwrap().total(), 99 * 100 / 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
        cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
        assert_eq!(cache.stats().hits, 1, "third lookup must hit");
    }

    #[test]
    fn repeated_analyze_panics_quarantine_the_shape() {
        let cache = PlanCache::new(1, 4);
        let nest = NestSpec::correlation();
        for _ in 0..QUARANTINE_THRESHOLD {
            panicking_lookup(&cache, &nest);
        }
        // No injection armed: the quarantine itself must refuse the
        // lookup before analysis runs.
        let err = cache
            .get_or_analyze(&nest, PlanContext::default())
            .unwrap_err();
        assert!(matches!(
            err,
            CollapseError::Quarantined {
                failures: QUARANTINE_THRESHOLD
            }
        ));
        let err = cache
            .collapse(&nest, PlanContext::default(), &[100])
            .unwrap_err();
        assert!(matches!(
            err,
            PlanError::Analyze(CollapseError::Quarantined { .. })
        ));
        let stats = cache.stats();
        assert_eq!(stats.quarantined, 2, "both refusals counted");
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (0, QUARANTINE_THRESHOLD as u64, 0),
            "quarantined lookups are neither hits nor misses"
        );
        // Other shapes are unaffected.
        cache
            .get_or_analyze(&NestSpec::figure6(), PlanContext::default())
            .unwrap();
    }

    #[test]
    fn successful_analysis_clears_the_failure_record() {
        // One shard, one entry — so a second shape can evict the first
        // and force re-analysis later.
        let cache = PlanCache::new(1, 1);
        let nest = NestSpec::correlation();
        for _ in 0..QUARANTINE_THRESHOLD - 1 {
            panicking_lookup(&cache, &nest);
        }
        // One success wipes the streak.
        cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
        // Evict it, then panic twice more: the pre-success failures
        // must not count toward the threshold.
        cache
            .get_or_analyze(&NestSpec::figure6(), PlanContext::default())
            .unwrap();
        for _ in 0..QUARANTINE_THRESHOLD - 1 {
            panicking_lookup(&cache, &nest);
        }
        let plan = cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
        assert_eq!(plan.instantiate(&[10]).unwrap().total(), 9 * 10 / 2);
        assert_eq!(cache.stats().quarantined, 0);
    }

    #[test]
    fn coalesced_lookup_behaves_like_plain_on_hits_and_solo_misses() {
        let cache = PlanCache::new(2, 4);
        let nest = NestSpec::correlation();
        let a = cache
            .get_or_analyze_coalesced(&nest, PlanContext::default())
            .unwrap();
        let b = cache
            .get_or_analyze_coalesced(&nest, PlanContext::default())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (1, 1, 0));
        let collapsed = cache
            .collapse_coalesced(&nest, PlanContext::default(), &[100])
            .unwrap();
        assert_eq!(collapsed.total(), 99 * 100 / 2);
        assert_eq!(cache.stats().hits, 2);
    }

    /// Parks a herd of waiters behind a delayed leader and returns the
    /// herd's per-waiter results plus the leader's outcome (its panic
    /// message when `leader_panics`). Leadership is deterministic: the
    /// leader arms a thread-local analyze delay, and the waiters are
    /// only released once the leader's miss is visible in the stats —
    /// i.e. while it is provably inside its (slowed) analysis.
    type WaiterResults = Vec<Result<Arc<ParamPlan>, CollapseError>>;

    fn run_herd(
        cache: &Arc<PlanCache>,
        nest: &NestSpec,
        waiters: usize,
        leader_panics: bool,
    ) -> (WaiterResults, Result<Arc<ParamPlan>, String>) {
        std::thread::scope(|scope| {
            let leader = {
                let cache = Arc::clone(cache);
                let nest = nest.clone();
                scope.spawn(move || {
                    faults::delay_analyze(std::time::Duration::from_millis(300));
                    if leader_panics {
                        faults::inject_analyze_panics(1);
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        cache.get_or_analyze_coalesced(&nest, PlanContext::default())
                    }));
                    faults::clear_analyze_delay();
                    match outcome {
                        Ok(result) => Ok(result.expect("delayed analysis must succeed")),
                        Err(payload) => Err(*payload
                            .downcast::<String>()
                            .expect("injected panic carries its message")),
                    }
                })
            };
            // Release the herd only once the leader owns the flight
            // (its miss is counted before its delayed analysis runs).
            while cache.stats().misses == 0 {
                std::thread::yield_now();
            }
            let herd: Vec<_> = (0..waiters)
                .map(|_| {
                    let cache = Arc::clone(cache);
                    let nest = nest.clone();
                    scope.spawn(move || {
                        cache.get_or_analyze_coalesced(&nest, PlanContext::default())
                    })
                })
                .collect();
            let results = herd.into_iter().map(|h| h.join().unwrap()).collect();
            (results, leader.join().unwrap())
        })
    }

    #[test]
    fn coalesced_herd_pays_exactly_one_analysis() {
        let cache = Arc::new(PlanCache::new(2, 4));
        let nest = NestSpec::correlation();
        let waiters = 32usize;
        let (results, leader) = run_herd(&cache, &nest, waiters, false);
        let lead_plan = leader.expect("leader must succeed");
        for r in &results {
            let plan = r.as_ref().expect("waiters share the leader's success");
            assert!(
                Arc::ptr_eq(plan, &lead_plan),
                "every waiter must receive the leader's plan"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "the herd pays exactly one analysis");
        assert_eq!(stats.hits, 0);
        assert_eq!(
            stats.coalesced, waiters as u64,
            "every waiter parked on the leader's flight"
        );
        assert!(
            lock_immune(&cache.inflight).is_empty(),
            "the flight is retired once published"
        );
        // The shape is cached for subsequent lookups.
        cache
            .get_or_analyze_coalesced(&nest, PlanContext::default())
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn coalesced_herd_leader_panic_fails_waiters_without_poisoning() {
        let cache = Arc::new(PlanCache::new(2, 4));
        let nest = NestSpec::correlation();
        let waiters = 32usize;
        let (results, leader) = run_herd(&cache, &nest, waiters, true);
        // The leader's own caller sees the raw panic (PR 6 semantics).
        assert_eq!(leader.unwrap_err(), faults::INJECTED_ANALYZE_PANIC);
        // Every waiter gets the Quarantined-path error, not a panic
        // and not a hang.
        for r in results {
            assert!(
                matches!(r, Err(CollapseError::Quarantined { failures: 1 })),
                "waiters observe the recorded failure"
            );
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.coalesced, stats.entries),
            (1, 0, waiters as u64, 0),
            "one failed analysis, no cached entry"
        );
        assert!(
            lock_immune(&cache.inflight).is_empty(),
            "a panicking leader must still retire its flight"
        );
        // The next request starts a fresh flight and retries cleanly.
        let plan = cache
            .get_or_analyze_coalesced(&nest, PlanContext::default())
            .unwrap();
        assert_eq!(plan.instantiate(&[100]).unwrap().total(), 99 * 100 / 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn injected_panics_are_thread_local() {
        // A panic armed on a worker thread fires there and only there:
        // the owning thread's analysis of the same shape succeeds.
        let cache = Arc::new(PlanCache::new(1, 4));
        let nest = NestSpec::correlation();
        std::thread::scope(|scope| {
            let worker = {
                let cache = Arc::clone(&cache);
                let nest = nest.clone();
                scope.spawn(move || panicking_lookup(&cache, &nest))
            };
            assert_eq!(worker.join().unwrap(), faults::INJECTED_ANALYZE_PANIC);
            cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
        });
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.quarantined), (1, 0));
    }
}
