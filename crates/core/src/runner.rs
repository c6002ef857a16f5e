//! The unified execution builder: one entry point for every way of
//! running a collapsed loop.
//!
//! One free function per (execution form × token × resume)
//! combination would repeat pool/schedule/recovery in every signature,
//! and a reduction variant would double them. [`Runner`] folds the
//! cross-cutting configuration into a builder on [`Collapsed`]:
//!
//! ```
//! use nrl_core::{reducer, CollapseSpec, Recovery, RunToken, Schedule, ThreadPool};
//! use nrl_polyhedra::NestSpec;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let collapsed = CollapseSpec::new(&NestSpec::correlation())
//!     .unwrap()
//!     .bind(&[60])
//!     .unwrap();
//! let pool = ThreadPool::new(4);
//!
//! // Plain parallel execution:
//! let count = AtomicU64::new(0);
//! let report = collapsed
//!     .runner(&pool)
//!     .schedule(Schedule::Dynamic(64))
//!     .recovery(Recovery::OncePerChunk)
//!     .run(|_tid, _p| {
//!         count.fetch_add(1, Ordering::Relaxed);
//!     });
//! assert!(report.outcome.is_completed());
//! assert_eq!(count.load(Ordering::Relaxed) as i128, collapsed.total());
//!
//! // A cancellable run:
//! let token = RunToken::new();
//! let report = collapsed.runner(&pool).token(&token).run(|_t, _p| {});
//! assert!(report.outcome.is_completed());
//!
//! // A deterministic parallel reduction (new in this module):
//! let sum = reducer(|| 0u64, |_t, p: &[i64], a: &mut u64| *a += p[1] as u64, |a, b| a + b);
//! let red = collapsed.runner(&pool).reduce(&sum);
//! assert!(red.outcome.is_completed());
//! ```
//!
//! Configuration methods ([`schedule`](Runner::schedule),
//! [`recovery`](Runner::recovery), [`token`](Runner::token),
//! [`resume`](Runner::resume), [`over`](Runner::over)) chain in any
//! order; terminals ([`run`](Runner::run),
//! [`run_guarded`](Runner::run_guarded), [`warp`](Runner::warp),
//! [`reduce`](Runner::reduce),
//! [`reduce_guarded`](Runner::reduce_guarded),
//! [`scan`](Runner::scan)) execute. `Runner` is the only way into the
//! collapsed executors.

use crate::collapsed::Collapsed;
use crate::exec::{
    run_collapsed_window, run_outcome, run_warp_sim_ctl, total_points, walk_subtree, Recovery,
    TokenCtl,
};
use crate::imperfect::{run_collapsed_guarded_ctl, NestPosition};
use crate::reduce::{
    run_reduce_guarded_window, run_reduce_window, run_scan_rows_window, GuardedReducer, Reducer,
    Reduction,
};
use crate::unrank::MAX_DEPTH;
use nrl_parfor::{ImbalanceReport, RunOutcome, RunToken, Schedule, ThreadPool, WorkerLocal};
use nrl_polyhedra::BoundNest;

impl Collapsed {
    /// Starts a [`Runner`] over this collapsed loop on `pool`, with the
    /// default configuration ([`Schedule::Static`],
    /// [`Recovery::OncePerChunk`], no token, no resume offset).
    pub fn runner<'a>(&'a self, pool: &'a ThreadPool) -> Runner<'a> {
        Runner {
            collapsed: self,
            pool,
            schedule: Strategy::DEFAULT.schedule,
            recovery: Strategy::DEFAULT.recovery,
            token: None,
            skip: 0,
            full: None,
        }
    }
}

/// The two execution axes a caller can pin: the chunk schedule and
/// the index-recovery scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Strategy {
    /// Chunk schedule.
    pub schedule: Schedule,
    /// Index-recovery scheme.
    pub recovery: Recovery,
}

impl Strategy {
    /// The §V scheme every run uses unless an axis is pinned
    /// ([`Schedule::Static`] + [`Recovery::OncePerChunk`] — the pair
    /// [`Collapsed::runner`] starts from).
    pub const DEFAULT: Strategy = Strategy {
        schedule: Schedule::Static,
        recovery: Recovery::OncePerChunk,
    };
}

/// How a [`Runner::run`] ended: the [`RunOutcome`] (always
/// `Completed` when no token was attached) plus the pool's
/// per-thread [`ImbalanceReport`].
#[derive(Debug)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Per-thread iteration/time accounting from the pool.
    pub report: ImbalanceReport,
}

/// The unified execution builder over a [`Collapsed`] loop — see the
/// [module docs](self) for the full tour.
#[derive(Clone, Copy)]
pub struct Runner<'a> {
    collapsed: &'a Collapsed,
    pool: &'a ThreadPool,
    schedule: Schedule,
    recovery: Recovery,
    token: Option<&'a RunToken>,
    skip: u64,
    full: Option<&'a BoundNest>,
}

impl<'a> Runner<'a> {
    /// Sets the chunk schedule (default [`Schedule::Static`]).
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the index-recovery strategy (default
    /// [`Recovery::OncePerChunk`]).
    pub fn recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// The currently configured strategy pair (what [`run`](Self::run)
    /// would execute).
    pub fn strategy(&self) -> Strategy {
        Strategy {
            schedule: self.schedule,
            recovery: self.recovery,
        }
    }

    /// Resets both axes to the §V default, [`Strategy::DEFAULT`].
    pub fn auto(self) -> Self {
        self.schedule(Strategy::DEFAULT.schedule)
            .recovery(Strategy::DEFAULT.recovery)
    }

    /// Attaches a cancellation/deadline token, polled once per row (or,
    /// by the reductions, once per grid chunk).
    pub fn token(mut self, token: &'a RunToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Resumes after the first `skip` ranks: the run covers ranks
    /// `skip+1 ..= total` (pass the stopped run's `points_done`).
    pub fn resume(mut self, skip: u64) -> Self {
        self.skip = skip;
        self
    }

    /// Partial collapse (the paper's `collapse(c)` with `c < depth`):
    /// the collapsed loop ranges over the outer `c` levels of `full`
    /// (built from [`NestSpec::prefix`](nrl_polyhedra::NestSpec::prefix)),
    /// and the remaining inner levels run sequentially inside each
    /// flattened iteration. Bodies and reducers observe complete
    /// `full.depth()`-tuples; `points_done`/`resume` count **prefix**
    /// ranks.
    pub fn over(mut self, full: &'a BoundNest) -> Self {
        let c = self.collapsed.depth();
        assert!(c >= 1 && c <= full.depth(), "prefix depth out of range");
        self.full = Some(full);
        self
    }

    /// The configured rank window: `(base, count)` in the collapsed
    /// loop's own rank space.
    fn window(&self) -> (u64, u64) {
        let total = total_points(self.collapsed);
        assert!(self.skip <= total, "resume offset past the domain");
        (self.skip, total - self.skip)
    }

    /// Runs `body(tid, point)` over every point of the window.
    pub fn run<F>(&self, body: F) -> RunReport
    where
        F: Fn(usize, &[i64]) + Sync,
    {
        let (base, count) = self.window();
        match self.full {
            Some(full) if self.collapsed.depth() < full.depth() => {
                let c = self.collapsed.depth();
                let d = full.depth();
                // Per-worker full-tuple buffers, same `WorkerLocal`
                // design as the executors' per-worker unrankers.
                let points = WorkerLocal::new(self.pool.nthreads(), |_| [0i64; MAX_DEPTH]);
                self.run_window(base, count, |tid, prefix| {
                    points.with(tid, |point| {
                        let point = &mut point[..d];
                        point[..c].copy_from_slice(prefix);
                        let mut call = |p: &[i64]| body(tid, p);
                        walk_subtree(full, point, c, &mut call);
                    })
                })
            }
            _ => self.run_window(base, count, body),
        }
    }

    fn run_window<F>(&self, base: u64, count: u64, body: F) -> RunReport
    where
        F: Fn(usize, &[i64]) + Sync,
    {
        let ctl = self.token.map(TokenCtl::new);
        let report = run_collapsed_window(
            self.pool,
            self.collapsed,
            base,
            count,
            self.schedule,
            self.recovery,
            ctl.as_ref(),
            body,
        );
        RunReport {
            outcome: run_outcome(ctl.as_ref()),
            report,
        }
    }

    /// Runs a guarded (imperfect) nest: `body(tid, point, position)`,
    /// with the [`NestPosition`] guards derived from the row walk.
    pub fn run_guarded<F>(&self, body: F) -> RunReport
    where
        F: Fn(usize, &[i64], NestPosition) + Sync,
    {
        assert!(
            self.skip == 0 && self.full.is_none(),
            "guarded execution has no resume/prefix form"
        );
        let ctl = self.token.map(TokenCtl::new);
        let report = run_collapsed_guarded_ctl(
            self.pool,
            self.collapsed,
            self.schedule,
            self.recovery,
            ctl.as_ref(),
            body,
        );
        RunReport {
            outcome: run_outcome(ctl.as_ref()),
            report,
        }
    }

    /// Simulates a GPU warp of `warp` lanes (§VI.B): lane `t` executes
    /// ranks `t+1, t+1+W, …`. Ignores the schedule and recovery
    /// settings — the warp scheme fixes both (one anchor recovery per
    /// lane, strided advance).
    pub fn warp<F>(&self, warp: usize, body: F) -> RunOutcome
    where
        F: Fn(usize, &[i64]) + Sync,
    {
        assert!(
            self.skip == 0 && self.full.is_none(),
            "warp execution has no resume/prefix form"
        );
        let ctl = self.token.map(TokenCtl::new);
        run_warp_sim_ctl(self.pool, self.collapsed, warp, ctl.as_ref(), body);
        run_outcome(ctl.as_ref())
    }

    /// Reduces the window with a deterministic fixed-grid parallel
    /// fold: bit-identical across schedule, recovery, thread count,
    /// and cancellation point (see [`crate::reduce`]).
    pub fn reduce<A, R>(&self, reducer: &R) -> Reduction<A>
    where
        A: Send,
        R: Reducer<A>,
    {
        let (base, count) = self.window();
        match self.full {
            Some(full) if self.collapsed.depth() < full.depth() => {
                let wrapped = PrefixReducer {
                    inner: reducer,
                    full,
                    c: self.collapsed.depth(),
                    points: WorkerLocal::new(self.pool.nthreads(), |_| [0i64; MAX_DEPTH]),
                };
                self.reduce_window(base, count, &wrapped)
            }
            _ => self.reduce_window(base, count, reducer),
        }
    }

    fn reduce_window<A, R>(&self, base: u64, count: u64, reducer: &R) -> Reduction<A>
    where
        A: Send,
        R: Reducer<A>,
    {
        let ctl = self.token.map(TokenCtl::new);
        run_reduce_window(
            self.pool,
            self.collapsed,
            base,
            count,
            self.schedule,
            self.recovery,
            ctl.as_ref(),
            reducer,
        )
    }

    /// The guarded form of [`reduce`](Runner::reduce): the reducer's
    /// `accum` receives each point's [`NestPosition`], so sunken
    /// prologue/epilogue statements contribute exactly once.
    /// Every recovery anchors once per schedule chunk and walks rows,
    /// so [`Recovery::Naive`] runs like [`Recovery::OncePerChunk`].
    pub fn reduce_guarded<A, R>(&self, reducer: &R) -> Reduction<A>
    where
        A: Send,
        R: GuardedReducer<A>,
    {
        assert!(self.full.is_none(), "guarded reduction has no prefix form");
        let (base, count) = self.window();
        let ctl = self.token.map(TokenCtl::new);
        run_reduce_guarded_window(
            self.pool,
            self.collapsed,
            base,
            count,
            self.schedule,
            self.recovery,
            ctl.as_ref(),
            reducer,
        )
    }

    /// Segmented scan over [`RowWalker`](crate::rowwalk::RowWalker)
    /// rows: `emit(tid, point, &acc)` observes the row-inclusive
    /// prefix aggregate at every point, independent of chunking and
    /// thread count (see [`crate::reduce`]).
    /// Every recovery anchors once per schedule chunk and walks rows,
    /// so [`Recovery::Naive`] runs like [`Recovery::OncePerChunk`].
    pub fn scan<A, R, E>(&self, reducer: &R, emit: E) -> RunOutcome
    where
        A: Send,
        R: Reducer<A>,
        E: Fn(usize, &[i64], &A) + Sync,
    {
        assert!(self.full.is_none(), "scans have no prefix form");
        let (base, count) = self.window();
        let ctl = self.token.map(TokenCtl::new);
        run_scan_rows_window(
            self.pool,
            self.collapsed,
            base,
            count,
            self.schedule,
            self.recovery,
            ctl.as_ref(),
            reducer,
            &emit,
        )
    }
}

/// Wraps a full-depth reducer for partial collapse: each flattened
/// prefix rank expands its inner sub-nest sequentially inside `accum`,
/// through per-worker full-tuple buffers. The grid chunks (and with
/// them the join tree) live in prefix-rank space, so the determinism
/// contract carries over unchanged.
struct PrefixReducer<'x, R> {
    inner: &'x R,
    full: &'x BoundNest,
    c: usize,
    points: WorkerLocal<[i64; MAX_DEPTH]>,
}

impl<A, R> Reducer<A> for PrefixReducer<'_, R>
where
    A: Send,
    R: Reducer<A>,
{
    fn identity(&self) -> A {
        self.inner.identity()
    }
    fn accum(&self, tid: usize, prefix: &[i64], acc: &mut A) {
        self.points.with(tid, |point| {
            let d = self.full.depth();
            let point = &mut point[..d];
            point[..self.c].copy_from_slice(prefix);
            let mut call = |p: &[i64]| self.inner.accum(tid, p, acc);
            walk_subtree(self.full, point, self.c, &mut call);
        })
    }
    fn join(&self, left: A, right: A) -> A {
        self.inner.join(left, right)
    }
}
