//! The persistent worker pool and the `parallel_for` entry points.

use crate::schedule::Schedule;
use crate::stats::{ImbalanceReport, ThreadStats};
use crate::sync::{CachePadded, Condvar, Mutex};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle worker polls for the next job, and the master for
/// the last worker to finish, before parking on its condvar. Longer
/// than a small loop's dispatch-to-join (a few µs), short enough that
/// an idle pool burns at most `nthreads × SPIN_BUDGET` of CPU per run.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// `spin_loop` hints per poll round; a spinning waiter yields its CPU
/// between rounds, so one that shares a CPU with the thread it waits
/// for hands that CPU over instead of starving it.
const SPIN_ROUND: u32 = 64;

/// Polls `ready` until it holds or [`SPIN_BUDGET`] has passed. Returns
/// whether `ready` held; on `false` the caller falls back to its
/// condvar park, which re-checks the same condition.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..SPIN_ROUND {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN_BUDGET {
            return false;
        }
        std::thread::yield_now();
    }
}

/// Type-erased reference to the loop body shared with the workers for
/// the duration of one `run` call.
///
/// Safety: the pointee lives on the caller's stack; `ThreadPool::run`
/// does not return until every worker has finished executing it (the
/// `done` barrier, reached by spinning or by parking), so the reference
/// never dangles while in use. `master_panic_waits_for_workers_then_propagates`
/// and the `spin_*` tests below fail if `run` ever returns early.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared execution is the whole point)
// and the pointer's lifetime is bracketed by `run` as described above.
unsafe impl Send for JobPtr {}
unsafe impl Sync for JobPtr {}

/// The job slot and the count of workers parked on `job_cv`, guarded
/// by one lock.
struct Slot {
    /// The current run's job.
    job: Option<JobPtr>,
    /// Workers waiting on `job_cv`. A worker counts itself under the
    /// slot lock right before it waits, after re-checking the epoch
    /// under that lock; so a publisher that reads zero here, under the
    /// same lock, knows every worker is either spinning or will see the
    /// new epoch before it could wait, and may skip its notify.
    parked: usize,
}

/// Test-only gate between a waiter's failed spin and its locked
/// re-check: while `armed`, the waiter counts itself in `entered` and
/// then waits, without parking, until the condition it waits for holds
/// — so the other side's publish (a new job, the last finish) lands
/// exactly in that window, deterministically.
#[cfg(test)]
#[derive(Default)]
struct ParkGate {
    armed: AtomicBool,
    entered: AtomicUsize,
}

/// Indexes of [`Shared::park_gates`].
#[cfg(test)]
const WORKER: usize = 0;
#[cfg(test)]
const MASTER: usize = 1;

struct Shared {
    /// Serializes [`ThreadPool::run`] across concurrent callers: held
    /// from publishing the job through the `done` barrier and the panic
    /// re-throw, so one run's `slot`, `done` count and panic payload
    /// never mix with another's.
    run_lock: Mutex<()>,
    /// The current run's job, published under this lock, and the
    /// parked-worker count.
    slot: Mutex<Slot>,
    /// Counts published jobs. Advanced only under the `slot` lock, so a
    /// worker that re-checks it under that lock before parking cannot
    /// miss a wake-up; a spinning worker watches it without the lock.
    epoch: CachePadded<AtomicU64>,
    job_cv: Condvar,
    done: AtomicUsize,
    /// Whether the master is waiting on `done_cv`: set under this lock
    /// right before it waits, after re-checking `done` under the lock,
    /// so the last worker reads it under the same lock and notifies
    /// only a master that is (or is about to be) asleep.
    master_parked: Mutex<bool>,
    done_cv: Condvar,
    shutdown: AtomicBool,
    nworkers: usize,
    /// First panic payload caught during the current `run` (worker or
    /// master); re-thrown on the caller thread once every thread has
    /// reached the `done` barrier. The `Mutex` is the poison-immune
    /// shim from [`crate::sync`], so a panicking payload never wedges
    /// the pool.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Fast-path flag mirroring `panic.is_some()`: checked per chunk by
    /// `parallel_for` so surviving workers stop picking up new chunks
    /// once a sibling has panicked.
    panicked: AtomicBool,
    /// Chrome-trace process id for this pool's worker timelines (pid 0
    /// is reserved for caller threads outside any pool).
    #[cfg(feature = "obs-trace")]
    obs_pid: u32,
    /// Per side ([`WORKER`], [`MASTER`]).
    #[cfg(test)]
    park_gates: [ParkGate; 2],
}

impl Shared {
    /// Passes `side`'s [`ParkGate`]: when armed, holds the waiter
    /// until `ready` — the condition it is about to re-check under its
    /// lock — holds.
    #[cfg(test)]
    fn gate_before_park(&self, side: usize, ready: impl Fn() -> bool) {
        let gate = &self.park_gates[side];
        if gate.armed.load(Ordering::SeqCst) {
            gate.entered.fetch_add(1, Ordering::SeqCst);
            while !ready() {
                std::thread::yield_now();
            }
        }
    }

    /// Records a caught panic payload (first one wins) and raises the
    /// `panicked` flag so in-flight chunk loops wind down early.
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.panicked.store(true, Ordering::Release);
    }
}

/// A fixed-size pool of persistent worker threads implementing OpenMP
/// `parallel for` semantics: the calling thread participates as thread 0
/// and `nthreads − 1` workers wait between loops.
///
/// A waiting thread spins before it sleeps, as OpenMP runtimes do
/// (libgomp's `OMP_WAIT_POLICY`): an idle worker polls for the next
/// job, and the caller polls for the last worker to finish, for up to
/// 100 µs, yielding the CPU every 64 polls, and only then parks on a
/// condvar. Back-to-back loops thus hand off without a kernel wake-up,
/// and an idle pool stops spending CPU 100 µs after its last loop. A
/// published job or a finished barrier notifies only waiters that have
/// parked, so a handoff between spinning threads makes no futex call. The
/// rule holds for a pool with more threads than CPUs too: there the
/// yields hand the CPU to the thread being waited for.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    nthreads: usize,
}

impl ThreadPool {
    /// Creates a pool that runs loops on `nthreads` threads total
    /// (including the caller). `nthreads = 1` degenerates to serial
    /// execution with no worker threads.
    ///
    /// # Panics
    /// Panics if `nthreads == 0`.
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            run_lock: Mutex::new(()),
            slot: Mutex::new(Slot {
                job: None,
                parked: 0,
            }),
            epoch: CachePadded::new(AtomicU64::new(0)),
            job_cv: Condvar::new(),
            done: AtomicUsize::new(0),
            master_parked: Mutex::new(false),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            nworkers: nthreads - 1,
            panic: Mutex::new(None),
            panicked: AtomicBool::new(false),
            #[cfg(feature = "obs-trace")]
            obs_pid: nrl_obs::next_pool_id(),
            #[cfg(test)]
            park_gates: Default::default(),
        });
        let mut handles = Vec::with_capacity(nthreads - 1);
        for tid in 1..nthreads {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("nrl-parfor-{tid}"))
                    .spawn(move || worker_loop(shared, tid))
                    .expect("failed to spawn pool worker"),
            );
        }
        ThreadPool {
            shared,
            handles,
            nthreads,
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(n)
    }

    /// Number of threads (including the calling thread).
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Runs `f(tid)` once on every thread of the pool (an OpenMP
    /// `parallel` region) and returns when all invocations finished.
    ///
    /// # Panics
    /// If `f` panics on any thread, the first payload is re-thrown here
    /// on the caller thread — **after** every thread has reached the
    /// completion barrier, so the type-erased job reference never
    /// outlives its pointee and the pool stays fully reusable (the next
    /// `run` starts from a clean epoch; no mutex is poisoned).
    ///
    /// # Concurrent callers
    /// Any number of threads may call `run` on one pool: the runs are
    /// serialized, each waiting until the previous one has passed its
    /// completion barrier (a one-thread pool has no shared state and
    /// runs each body on its own caller). A nested `run` on the same
    /// multi-thread pool from inside its own body is unsupported: it
    /// waits on itself forever.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        let nworkers = self.handles.len();
        if nworkers == 0 {
            // Serial degenerate case: a panic propagates directly; no
            // shared state is mid-flight, so the pool stays usable.
            let _busy = crate::obs::span("pool", "pool.busy");
            f(0);
            return;
        }
        // Held until this function returns or unwinds; the shim
        // mutex ignores poisoning, so a re-thrown panic frees it too.
        let _run = self.shared.run_lock.lock();
        // SAFETY: see `JobPtr`. We erase the lifetime only for the span
        // of this call; the wait below restores the invariant.
        let job = JobPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                f as *const _,
            )
        });
        let any_parked = {
            let mut slot = self.shared.slot.lock();
            self.shared.done.store(0, Ordering::Relaxed);
            slot.job = Some(job);
            self.shared.epoch.fetch_add(1, Ordering::Release);
            slot.parked > 0
        };
        // Spinning workers see the epoch move; only parked ones need
        // the wake-up (see `Slot::parked`).
        if any_parked {
            self.shared.job_cv.notify_all();
        }
        // The master participates as thread 0. Its panic must not
        // unwind past the barrier below: the workers still hold the
        // type-erased reference to `f`'s stack frame.
        {
            let _busy = crate::obs::span("pool", "pool.busy");
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(0))) {
                self.shared.record_panic(payload);
            }
        }
        let all_done = || self.shared.done.load(Ordering::Acquire) >= nworkers;
        if !spin_until(all_done) {
            #[cfg(test)]
            self.shared.gate_before_park(MASTER, all_done);
            let mut parked = self.shared.master_parked.lock();
            while !all_done() {
                *parked = true;
                self.shared.done_cv.wait(&mut parked);
                *parked = false;
            }
        }
        // Every worker is waiting again: re-throw the run's first panic
        // (if any) on the caller thread, leaving the pool reusable.
        if self.shared.panicked.swap(false, Ordering::AcqRel) {
            let payload = self
                .shared
                .panic
                .lock()
                .take()
                .expect("panicked flag set without a payload");
            resume_unwind(payload);
        }
    }

    /// Distributes iterations `0..n` across the pool under `schedule`.
    ///
    /// `body(tid, start, end)` is invoked once per *chunk* with a
    /// half-open range; the caller iterates inside. Returns an
    /// [`ImbalanceReport`] with per-thread iteration counts and busy
    /// times (the Fig. 2 measurement).
    pub fn parallel_for(
        &self,
        n: u64,
        schedule: Schedule,
        body: &(dyn Fn(usize, u64, u64) + Sync),
    ) -> ImbalanceReport {
        let nthreads = self.nthreads;
        let iter_counts: Vec<CachePadded<AtomicU64>> = (0..nthreads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        let busy_nanos: Vec<CachePadded<AtomicU64>> = (0..nthreads)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        let next = AtomicU64::new(0); // shared cursor for dynamic/guided
        let wall_start = Instant::now();

        self.run(&|tid| {
            let t0 = Instant::now();
            let mut local_iters = 0u64;
            match schedule {
                Schedule::Static => {
                    let (s, e) = Schedule::static_block(n, nthreads, tid);
                    if s < e {
                        body(tid, s, e);
                        local_iters += e - s;
                    }
                }
                Schedule::StaticChunk(chunk) => {
                    for (s, e) in Schedule::static_chunks(n, nthreads, tid, chunk) {
                        if self.shared.panicked.load(Ordering::Relaxed) {
                            break; // a sibling panicked: stop taking chunks
                        }
                        body(tid, s, e);
                        local_iters += e - s;
                    }
                }
                Schedule::Dynamic(chunk) => {
                    let chunk = chunk.max(1);
                    loop {
                        if self.shared.panicked.load(Ordering::Relaxed) {
                            break; // a sibling panicked: stop taking chunks
                        }
                        let s = next.fetch_add(chunk, Ordering::Relaxed);
                        if s >= n {
                            break;
                        }
                        let e = (s + chunk).min(n);
                        body(tid, s, e);
                        local_iters += e - s;
                    }
                }
                Schedule::Guided(min) => {
                    let min = min.max(1);
                    loop {
                        if self.shared.panicked.load(Ordering::Relaxed) {
                            break; // a sibling panicked: stop taking chunks
                        }
                        let mut cur = next.load(Ordering::Relaxed);
                        let take = loop {
                            if cur >= n {
                                break 0;
                            }
                            let remaining = n - cur;
                            let take = (remaining / nthreads as u64).max(min).min(remaining);
                            match next.compare_exchange_weak(
                                cur,
                                cur + take,
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            ) {
                                Ok(_) => break take,
                                Err(actual) => cur = actual,
                            }
                        };
                        if take == 0 {
                            break;
                        }
                        body(tid, cur, cur + take);
                        local_iters += take;
                    }
                }
            }
            iter_counts[tid].store(local_iters, Ordering::Relaxed);
            busy_nanos[tid].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });

        let wall = wall_start.elapsed();
        let per_thread = (0..nthreads)
            .map(|t| ThreadStats {
                iterations: iter_counts[t].load(Ordering::Relaxed),
                busy_nanos: busy_nanos[t].load(Ordering::Relaxed),
            })
            .collect();
        ImbalanceReport::new(per_thread, wall)
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadPool({} threads)", self.nthreads)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Shutdown audit (the same barrier-leak shape as the run
        // deadlock): workers only decide to park after re-checking
        // `shutdown` while holding the slot lock, so the
        // store-then-lock-then-notify sequence below cannot race a
        // worker between its epoch check and its wait — every parked
        // worker observes the flag and exits, and a spinning one sees
        // it in its spin, then again under the lock. Workers
        // never exit mid-job: `run`'s barrier completed before we got
        // here, so joins cannot hang on a running body.
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _slot = self.shared.slot.lock();
        }
        self.shared.job_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, tid: usize) {
    // One chrome-trace thread row per worker, grouped under this
    // pool's pid; the gaps between busy spans are the idle time.
    #[cfg(feature = "obs-trace")]
    nrl_obs::set_thread_meta(shared.obs_pid, tid as u32, &format!("nrl-parfor-{tid}"));
    let mut last_epoch = 0u64;
    loop {
        // Spin for the next job first; the park below re-checks the
        // epoch under the slot lock, so it returns at once when the
        // spin saw the job (or shutdown) arrive.
        let ready = || {
            shared.epoch.load(Ordering::Acquire) != last_epoch
                || shared.shutdown.load(Ordering::Acquire)
        };
        let _spun = spin_until(ready);
        #[cfg(test)]
        if !_spun {
            shared.gate_before_park(WORKER, ready);
        }
        let job = {
            let mut slot = shared.slot.lock();
            while shared.epoch.load(Ordering::Acquire) == last_epoch
                && !shared.shutdown.load(Ordering::Acquire)
            {
                slot.parked += 1;
                shared.job_cv.wait(&mut slot);
                slot.parked -= 1;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            last_epoch = shared.epoch.load(Ordering::Acquire);
            slot.job.expect("epoch advanced without a job")
        };
        // SAFETY: `run` keeps the pointee alive until `done` reaches the
        // worker count, which happens only after this call returns;
        // `master_panic_waits_for_workers_then_propagates` and the
        // `spin_*` tests catch a `run` that returns before that.
        let f = unsafe { &*job.0 };
        // A panicking body must not skip the `done` increment below —
        // that is the deadlock: `run` waits for `nworkers` increments
        // and an unwinding worker would never deliver its own. Catch,
        // record, and complete the barrier unconditionally.
        {
            let _busy = crate::obs::span("pool", "pool.busy");
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(tid))) {
                shared.record_panic(payload);
            }
        }
        let prev = shared.done.fetch_add(1, Ordering::Release);
        if prev + 1 == shared.nworkers {
            // A master still spinning sees `done`; only a parked one
            // needs the wake-up (see `Shared::master_parked`).
            if *shared.master_parked.lock() {
                shared.done_cv.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_on_all_threads() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        pool.run(&|tid| {
            hits[tid].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn reusable_across_many_loops() {
        let pool = ThreadPool::new(3);
        let counter = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn single_thread_pool_is_serial() {
        let pool = ThreadPool::new(1);
        let mut touched = false;
        let cell = std::sync::Mutex::new(&mut touched);
        pool.run(&|tid| {
            assert_eq!(tid, 0);
            **cell.lock().unwrap() = true;
        });
        assert!(touched);
    }

    fn coverage_check(schedule: Schedule, n: u64, threads: usize) {
        let pool = ThreadPool::new(threads);
        let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let report = pool.parallel_for(n, schedule, &|_tid, s, e| {
            for i in s..e {
                seen[i as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "iteration {i} executed wrong number of times under {schedule:?}"
            );
        }
        assert_eq!(report.total_iterations(), n);
    }

    #[test]
    fn static_covers_exactly_once() {
        coverage_check(Schedule::Static, 1000, 4);
        coverage_check(Schedule::Static, 3, 8); // more threads than work
        coverage_check(Schedule::Static, 0, 4); // empty loop
    }

    #[test]
    fn static_chunk_covers_exactly_once() {
        coverage_check(Schedule::StaticChunk(7), 1000, 4);
        coverage_check(Schedule::StaticChunk(1), 17, 3);
    }

    #[test]
    fn dynamic_covers_exactly_once() {
        coverage_check(Schedule::Dynamic(4), 1000, 4);
        coverage_check(Schedule::Dynamic(1), 33, 8);
    }

    #[test]
    fn guided_covers_exactly_once() {
        coverage_check(Schedule::Guided(1), 1000, 4);
        coverage_check(Schedule::Guided(16), 500, 3);
    }

    /// Runs `f` on a throwaway thread with a deadline, so a regressed
    /// barrier leak fails the suite instead of hanging it forever.
    fn with_deadline(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("pool deadlocked: the done barrier leaked");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        with_deadline(|| {
            let pool = ThreadPool::new(4);
            for round in 0..3 {
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.run(&|tid| {
                        if tid == 2 {
                            panic!("injected worker panic, round {round}");
                        }
                    });
                }));
                let payload = caught.expect_err("worker panic must reach the caller");
                let msg = payload
                    .downcast_ref::<String>()
                    .expect("payload must be the panic message");
                assert!(msg.contains("injected worker panic"), "got: {msg}");
                // The pool must be fully reusable after the panic.
                let counter = AtomicU64::new(0);
                pool.run(&|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(counter.load(Ordering::Relaxed), 4, "round {round}");
            }
        });
    }

    #[test]
    fn master_panic_waits_for_workers_then_propagates() {
        with_deadline(|| {
            let pool = ThreadPool::new(3);
            let finished = Arc::new(AtomicUsize::new(0));
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let finished = Arc::clone(&finished);
                pool.run(&|tid| {
                    if tid == 0 {
                        panic!("injected master panic");
                    }
                    // Outlive the master's unwind window: if `run`
                    // returned before the barrier, the job reference
                    // would dangle right here.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }));
            assert!(caught.is_err(), "master panic must propagate");
            assert_eq!(
                finished.load(Ordering::SeqCst),
                2,
                "workers must have completed before run unwound"
            );
            let counter = AtomicU64::new(0);
            pool.run(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 3);
        });
    }

    #[test]
    fn parallel_for_panic_propagates_and_pool_survives() {
        with_deadline(|| {
            let pool = ThreadPool::new(4);
            for schedule in [
                Schedule::Static,
                Schedule::StaticChunk(3),
                Schedule::Dynamic(2),
                Schedule::Guided(1),
            ] {
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.parallel_for(1000, schedule, &|_tid, s, _e| {
                        if s >= 500 {
                            panic!("injected chunk panic");
                        }
                    });
                }));
                assert!(caught.is_err(), "{schedule:?}: panic must propagate");
                // Clean follow-up loop covers everything exactly once.
                coverage_check(schedule, 257, 4);
            }
        });
    }

    #[test]
    fn first_panic_payload_wins() {
        with_deadline(|| {
            let pool = ThreadPool::new(4);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(&|tid| panic!("thread {tid} panicked"));
            }));
            let payload = caught.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<String>().expect("message payload");
            assert!(msg.contains("panicked"), "got: {msg}");
            // Exactly one payload was kept; the slot is clean again.
            assert!(pool.shared.panic.lock().is_none());
            assert!(!pool.shared.panicked.load(Ordering::Relaxed));
        });
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        // Unserialized, two callers clobber each other's job slot and
        // `done` count: iterations go missing, then the barrier hangs.
        with_deadline(|| {
            let pool = ThreadPool::new(2);
            std::thread::scope(|scope| {
                for (caller, schedule) in
                    [Schedule::Static, Schedule::Dynamic(4), Schedule::Guided(2)]
                        .into_iter()
                        .enumerate()
                {
                    let pool = &pool;
                    scope.spawn(move || {
                        for round in 0..2000 {
                            let seen: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
                            let report = pool.parallel_for(64, schedule, &|_tid, s, e| {
                                for i in s..e {
                                    seen[i as usize].fetch_add(1, Ordering::Relaxed);
                                }
                            });
                            for (i, c) in seen.iter().enumerate() {
                                assert_eq!(
                                    c.load(Ordering::Relaxed),
                                    1,
                                    "caller {caller} round {round}: iteration {i}"
                                );
                            }
                            assert_eq!(report.total_iterations(), 64);
                        }
                    });
                }
            });
        });
    }

    /// One `Dynamic(1)` loop of `n` iterations, each counted once,
    /// whose iterations on `slow_tid` sleep for `slow` first.
    fn counted_loop(pool: &ThreadPool, n: u64, slow_tid: usize, slow: Duration) {
        let seen: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let report = pool.parallel_for(n, Schedule::Dynamic(1), &|tid, s, e| {
            if tid == slow_tid {
                std::thread::sleep(slow);
            }
            for i in s..e {
                seen[i as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "iteration {i}");
        }
        assert_eq!(report.total_iterations(), n);
    }

    #[test]
    fn spin_handoff_and_park_fallback_count_every_iteration() {
        // Gaps shorter than the budget hand the next job to spinning
        // workers; longer ones find them parked. A worker slower than
        // the budget makes the master park on `done` instead of
        // spinning through it. The second pool has more threads than
        // the machine has CPUs, so its waiters spin on CPUs that the
        // threads they wait for need.
        with_deadline(|| {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            for nthreads in [2, cpus + 1] {
                let pool = ThreadPool::new(nthreads);
                let half = SPIN_BUDGET / 2;
                let twice = SPIN_BUDGET * 2;
                for gap in [Duration::ZERO, half, twice] {
                    for slow in [Duration::ZERO, twice] {
                        for _ in 0..50 {
                            if !gap.is_zero() {
                                std::thread::sleep(gap);
                            }
                            counted_loop(&pool, 64, 1, slow);
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn spin_drop_right_after_run_joins_the_workers() {
        // The workers are still spinning for a next job when the pool
        // drops: they must see the shutdown and exit.
        with_deadline(|| {
            for _ in 0..200 {
                let pool = ThreadPool::new(2);
                counted_loop(&pool, 16, usize::MAX, Duration::ZERO);
                drop(pool);
            }
        });
    }

    #[test]
    fn handoffs_landing_between_spin_and_park_are_not_lost() {
        // Each waiter gives up spinning and is held at its gate until
        // the other side has acted: the master publishes the next job,
        // or the last worker finishes, while finding nobody parked, so
        // it skips its notify. The waiter must then find the job (or the
        // finished barrier) under its lock instead of sleeping through
        // it; a lost wake-up hangs the pool and trips the deadline.
        with_deadline(|| {
            let pool = ThreadPool::new(2);
            let gates = &pool.shared.park_gates;
            gates[WORKER].armed.store(true, Ordering::SeqCst);
            // After this loop the idle worker's spin runs out and it
            // enters the gate; the next job is published while it is
            // held there.
            counted_loop(&pool, 64, usize::MAX, Duration::ZERO);
            for round in 1..=20 {
                while gates[WORKER].entered.load(Ordering::SeqCst) < round {
                    std::thread::yield_now();
                }
                counted_loop(&pool, 64, usize::MAX, Duration::ZERO);
            }
            gates[WORKER].armed.store(false, Ordering::SeqCst);
            gates[MASTER].armed.store(true, Ordering::SeqCst);
            let hits: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
            for round in 1..=20 {
                // The worker finishes only once the master, out of
                // spin, is held at its gate.
                pool.run(&|tid| {
                    if tid == 1 {
                        while gates[MASTER].entered.load(Ordering::SeqCst) < round {
                            std::thread::yield_now();
                        }
                    }
                    hits[tid].fetch_add(1, Ordering::Relaxed);
                });
                for h in &hits {
                    assert_eq!(h.load(Ordering::Relaxed), round, "round {round}");
                }
            }
        });
    }

    #[test]
    fn static_imbalance_is_visible_in_report() {
        // A triangular workload distributed statically: thread 0 gets the
        // heavy low-i rows. We only check the bookkeeping (counts), the
        // imbalance math lives in stats.rs tests.
        let pool = ThreadPool::new(4);
        let report = pool.parallel_for(100, Schedule::Static, &|_t, s, e| {
            for _ in s..e {
                std::hint::black_box(0u64);
            }
        });
        assert_eq!(report.per_thread().len(), 4);
        assert_eq!(report.total_iterations(), 100);
    }
}
