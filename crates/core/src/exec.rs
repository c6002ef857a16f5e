//! Executing collapsed and non-collapsed nests (§V, §VI).
//!
//! Four execution strategies, mirroring the paper's evaluation:
//!
//! * [`run_seq`] — the original sequential nest (baseline and
//!   correctness reference),
//! * [`run_outer_parallel`] — OpenMP-style parallelization of the
//!   *outermost* loop only (`schedule(static)` / `schedule(dynamic)`)
//!   — the pre-collapse state of the art the paper compares against,
//! * [`Runner::run`](crate::Runner::run) — the collapsed single loop
//!   under any schedule, recovering one anchor per chunk (§V) through
//!   the engine [`Recovery`] selects,
//! * [`Runner::warp`](crate::Runner::warp) — the §VI.B GPU scheme: `W`
//!   lanes execute interleaved ranks, each lane recovering once and then
//!   advancing by `W` odometer steps.

use crate::collapsed::{Collapsed, Unranker};
use crate::rowwalk::RowWalker;
use crate::unrank::MAX_DEPTH;
use nrl_parfor::{
    ImbalanceReport, RunOutcome, RunToken, Schedule, StopCause, ThreadPool, ThreadStats,
    WorkerLocal,
};
use nrl_polyhedra::BoundNest;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// How a collapsed executor recovers original indices inside a chunk
/// (§V of the paper).
///
/// All modes except [`Recovery::Reference`] recover through per-worker
/// [`Unranker`] slots, so the specialization caches survive chunk
/// boundaries under dynamic and guided schedules too.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Recovery {
    /// Costly recovery at *every* iteration (the paper's worst case,
    /// unavoidable under dynamic scheduling of single iterations) in
    /// [`Runner::run`](crate::Runner::run),
    /// [`Runner::run_guarded`](crate::Runner::run_guarded) and
    /// [`Runner::reduce`](crate::Runner::reduce).
    /// [`Runner::scan`](crate::Runner::scan) and
    /// [`Runner::reduce_guarded`](crate::Runner::reduce_guarded) anchor
    /// once per chunk under every recovery; there `Naive` recovers like
    /// [`Recovery::OncePerChunk`].
    Naive,
    /// Costly recovery once per chunk, then odometer incrementation —
    /// the paper's Fig. 4 / §V scheme, through the adaptive per-level
    /// engines.
    OncePerChunk,
    /// Like [`Recovery::OncePerChunk`] but recovery uses the pure
    /// binary-search unranker (no floating point) — per-engine
    /// ablation mode.
    BinarySearch,
    /// Like [`Recovery::OncePerChunk`] but recovery always solves the
    /// closed form where one exists (the paper's assumption) — the
    /// other per-engine ablation mode.
    ClosedForm,
    /// Like [`Recovery::OncePerChunk`] but recovery runs through the
    /// pre-compilation reference engine (term-by-term multivariate
    /// evaluation per probe) — the ablation baseline that quantifies
    /// what the compiled Horner ladders buy end-to-end.
    Reference,
}

/// Per-worker cache-carrying unrankers, one [`WorkerLocal`] slot per
/// pool thread, created once per loop and reused across every chunk.
/// `None` for the cacheless [`Recovery::Reference`] ablation.
pub(crate) fn worker_unrankers<'c>(
    pool: &ThreadPool,
    collapsed: &'c Collapsed,
    recovery: Recovery,
) -> Option<WorkerLocal<Unranker<'c>>> {
    (recovery != Recovery::Reference)
        .then(|| WorkerLocal::new(pool.nthreads(), |_| collapsed.unranker()))
}

/// One costly recovery at a chunk's first rank, through the worker's
/// cache-carrying unranker (or the reference engine for the cacheless
/// ablation). Shared by [`run_collapsed_window`], the guarded executor
/// in [`crate::imperfect`] and the reductions, so they cannot drift on
/// how a recovery mode resolves its anchor.
pub(crate) fn recover_chunk_anchor(
    collapsed: &Collapsed,
    unrankers: Option<&WorkerLocal<Unranker<'_>>>,
    recovery: Recovery,
    tid: usize,
    s: u64,
    point: &mut [i64],
) {
    let pc = (s + 1) as i128;
    let Some(unrankers) = unrankers else {
        return collapsed.unrank_reference_into(pc, point);
    };
    unrankers.with(tid, |u| match recovery {
        Recovery::BinarySearch => u.unrank_binary_into(pc, point),
        Recovery::ClosedForm => u.unrank_closed_form_into(pc, point),
        _ => u.unrank_into(pc, point),
    })
}

/// Shared control block for token-carrying runs: the token being
/// polled, a sticky run-local stop flag (so workers stop re-probing
/// the clock once any of them observed the stop), and the exact count
/// of body invocations that completed. One per executor call, shared
/// by every worker of that run.
pub(crate) struct TokenCtl<'t> {
    token: &'t RunToken,
    stopped: AtomicBool,
    done: AtomicU64,
}

impl<'t> TokenCtl<'t> {
    pub(crate) fn new(token: &'t RunToken) -> TokenCtl<'t> {
        TokenCtl {
            token,
            stopped: AtomicBool::new(false),
            done: AtomicU64::new(0),
        }
    }

    /// The per-row (or, in the reductions, per-grid-chunk) poll: true
    /// once the run must stop. A worker that observes the token's stop
    /// latches the run-local flag so later polls (on every worker) cost
    /// one relaxed load.
    #[inline]
    pub(crate) fn stop_requested(&self) -> bool {
        if self.stopped.load(Ordering::Relaxed) {
            return true;
        }
        if self.token.should_stop().is_some() {
            self.stopped.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Flushes a worker's chunk-local invocation count (once per chunk,
    /// not per point).
    #[inline]
    pub(crate) fn add_done(&self, n: u64) {
        if n > 0 {
            self.done.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The run's outcome, decided after the pool joined: if no worker
    /// ever observed a stop the sweep covered the whole window, even if
    /// the token tripped after the last point ran.
    pub(crate) fn outcome(&self) -> RunOutcome {
        if !self.stopped.load(Ordering::Relaxed) {
            return RunOutcome::Completed;
        }
        let points_done = self.done.load(Ordering::Relaxed);
        match self.token.cause() {
            Some(StopCause::DeadlineExpired) => RunOutcome::DeadlineExpired { points_done },
            _ => RunOutcome::Cancelled { points_done },
        }
    }
}

/// How a run with the optional control block ended: its
/// [`TokenCtl::outcome`], or `Completed` when no token was attached.
pub(crate) fn run_outcome(ctl: Option<&TokenCtl<'_>>) -> RunOutcome {
    ctl.map_or(RunOutcome::Completed, TokenCtl::outcome)
}

/// `collapsed.total()` as the `u64` the schedules distribute.
pub(crate) fn total_points(collapsed: &Collapsed) -> u64 {
    let total = collapsed.total();
    assert!(total >= 0, "invalid domain");
    u64::try_from(total).expect("total exceeds u64")
}

/// Runs the original nest sequentially, invoking `body` on every point
/// in lexicographic order — with the same tight nested-loop structure
/// the original program would compile to (the innermost level is a
/// plain counted loop, not an odometer).
pub fn run_seq<F: FnMut(&[i64])>(nest: &BoundNest, mut body: F) {
    let d = nest.depth();
    let mut point = vec![0i64; d];
    walk_subtree(nest, &mut point, 0, &mut body);
}

/// Walks the sub-nest of `nest` rooted at `level` with `point[..level]`
/// fixed, invoking `body` on every completed point. The innermost level
/// runs as a tight loop so the walk costs what the original nest costs.
pub(crate) fn walk_subtree<F: FnMut(&[i64])>(
    nest: &BoundNest,
    point: &mut [i64],
    level: usize,
    body: &mut F,
) {
    let d = nest.depth();
    if level == d {
        body(point);
        return;
    }
    let lo = nest.lower(level, point);
    let hi = nest.upper(level, point);
    if level == d - 1 {
        let mut x = lo;
        while x <= hi {
            point[level] = x;
            body(point);
            x += 1;
        }
        return;
    }
    let mut x = lo;
    while x <= hi {
        point[level] = x;
        walk_subtree(nest, point, level + 1, body);
        x += 1;
    }
}

/// Parallelizes the **outermost** loop under the given schedule — the
/// `#pragma omp parallel for schedule(...)` baseline of the paper's
/// Fig. 1. Inner loops run sequentially inside each outer iteration.
///
/// `body(tid, point)` must tolerate concurrent invocation for distinct
/// outer-iterator values.
pub fn run_outer_parallel<F>(
    pool: &ThreadPool,
    nest: &BoundNest,
    schedule: Schedule,
    body: F,
) -> ImbalanceReport
where
    F: Fn(usize, &[i64]) + Sync,
{
    let d = nest.depth();
    assert!(d >= 1, "outer-parallel execution needs at least one loop");
    let lb0 = nest.lower(0, &[]);
    let ub0 = nest.upper(0, &[]);
    let n_outer = (ub0 - lb0 + 1).max(0) as u64;
    run_outer_rows(
        pool,
        nest,
        n_outer,
        schedule,
        |s, e| (lb0 + s as i64, lb0 + e as i64),
        body,
    )
}

/// The row loop behind [`run_outer_parallel`] and
/// [`run_outer_partitioned`](crate::partition::run_outer_partitioned):
/// distributes `n_items` items under `schedule`, runs the outer rows
/// `rows(s, e) = [lo, hi)` of each item chunk `[s, e)` with the inner
/// levels sequential, and reports executed **points** per thread.
pub(crate) fn run_outer_rows<F, R>(
    pool: &ThreadPool,
    nest: &BoundNest,
    n_items: u64,
    schedule: Schedule,
    rows: R,
    body: F,
) -> ImbalanceReport
where
    F: Fn(usize, &[i64]) + Sync,
    R: Fn(u64, u64) -> (i64, i64) + Sync,
{
    let d = nest.depth();
    assert!(d >= 1, "outer-parallel execution needs at least one loop");
    // `parallel_for` counts items; the Fig. 2 imbalance is about
    // *inner* iterations, so count executed points per thread here —
    // per-worker scratch slots, no atomics in the loop.
    let mut point_counts = WorkerLocal::new(pool.nthreads(), |_| 0u64);
    let report = pool.parallel_for(n_items, schedule, &|tid, s, e| {
        let mut point = vec![0i64; d];
        let mut local = 0u64;
        let (lo, hi) = rows(s, e);
        for row in lo..hi {
            point[0] = row;
            let mut call = |p: &[i64]| {
                local += 1;
                body(tid, p)
            };
            walk_subtree(nest, &mut point, 1, &mut call);
        }
        point_counts.with(tid, |count| *count += local);
    });
    let per_thread: Vec<ThreadStats> = report
        .per_thread()
        .iter()
        .zip(point_counts.iter_mut())
        .map(|(st, &mut iterations)| ThreadStats {
            iterations,
            busy_nanos: st.busy_nanos,
        })
        .collect();
    ImbalanceReport::new(per_thread, report.wall())
}

/// The one collapsed executor behind [`Runner::run`](crate::Runner::run):
/// runs the rank window `base+1 ..= base+count` (0-based offsets
/// `base..base+count`) under `schedule`, distributing **iterations**
/// (not outer rows) across threads. Within each chunk `body` observes
/// points in the original lexicographic order. The optional
/// [`TokenCtl`] is polled once per chunk and then once per row, as the
/// walk's stop hook — never per point (except the deliberately
/// per-point Naive ablation).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_collapsed_window<F>(
    pool: &ThreadPool,
    collapsed: &Collapsed,
    base: u64,
    count: u64,
    schedule: Schedule,
    recovery: Recovery,
    ctl: Option<&TokenCtl<'_>>,
    body: F,
) -> ImbalanceReport
where
    F: Fn(usize, &[i64]) + Sync,
{
    let total_u64 = total_points(collapsed);
    assert!(
        base <= total_u64 && count <= total_u64 - base,
        "rank window out of range"
    );
    let d = collapsed.depth();
    // Per-worker unrankers, reused across chunks so the specialization
    // caches survive chunk boundaries under every schedule — lock-free
    // (each slot belongs to its tid; see `WorkerLocal`). The reference
    // ablation deliberately runs cacheless, as the pre-compilation
    // engine did.
    let unrankers = worker_unrankers(pool, collapsed, recovery);
    pool.parallel_for(count, schedule, &|tid, s, e| {
        debug_assert!(s < e);
        // Shift the schedule's window-relative chunk into rank space.
        let (s, e) = (base + s, base + e);
        if let Some(ctl) = ctl {
            if ctl.stop_requested() {
                return;
            }
        }
        // One span per schedule chunk — the same granularity as the
        // token poll above, never per point.
        let _chunk = crate::obs::span("exec", "exec.chunk");
        let mut point = [0i64; MAX_DEPTH];
        let point = &mut point[..d];
        if d == 0 {
            // A zero-depth nest has exactly one (empty-tuple) iteration.
            for _ in s..e {
                body(tid, point);
            }
            if let Some(ctl) = ctl {
                ctl.add_done(e - s);
            }
            return;
        }
        match recovery {
            Recovery::Naive => {
                // Per-iteration recovery, but through this worker's
                // cache-carrying unranker: consecutive ranks share
                // their outer prefix most of the time, so the per-level
                // specialized Horner ladders are reused instead of
                // re-folded — across chunk boundaries too. (The token
                // poll is per point here too: this ablation already
                // pays a full recovery per point, so a relaxed load is
                // noise — and it is the one mode with no rows to walk.)
                let unrankers = unrankers.as_ref().expect("cached modes hold unrankers");
                unrankers.with(tid, |unranker| {
                    let mut local = 0u64;
                    for pc in s..e {
                        if let Some(ctl) = ctl {
                            if ctl.stop_requested() {
                                break;
                            }
                        }
                        unranker.unrank_into((pc + 1) as i128, point);
                        body(tid, point);
                        local += 1;
                    }
                    if let Some(ctl) = ctl {
                        ctl.add_done(local);
                    }
                });
            }
            Recovery::OncePerChunk
            | Recovery::BinarySearch
            | Recovery::ClosedForm
            | Recovery::Reference => {
                recover_chunk_anchor(collapsed, unrankers.as_ref(), recovery, tid, s, point);
                // Fused row walk (the `j++` of the paper's Fig. 4): the
                // shared `RowWalker` iterates each row as a tight
                // innermost loop and carries inline at its end. The
                // token poll is the walk's once-per-row stop hook.
                let mut walker = RowWalker::anchor(collapsed.nest(), point);
                let stop = || ctl.is_some_and(TokenCtl::stop_requested);
                let local = walker.walk(e - s, stop, |p| body(tid, p));
                if let Some(ctl) = ctl {
                    ctl.add_done(local);
                }
            }
        }
    })
}

/// Lane steps between token polls in the warp executor.
const WARP_POLL_STRIDE: u64 = 32;

/// The §VI.B executor behind [`Runner::warp`](crate::Runner::warp):
/// lane `t` of a `warp`-lane warp executes ranks `t+1, t+1+W, …`.
/// Lanes are dealt round-robin over the pool's threads; each thread
/// recovers its lane anchors one by one through its scalar cached
/// unranker (`⌈warp/threads⌉` anchors, against a full domain walk),
/// then each lane advances `W` odometer steps between iterations. The
/// optional [`TokenCtl`] is polled at every lane anchor and then every
/// [`WARP_POLL_STRIDE`] strided steps within a lane.
pub(crate) fn run_warp_sim_ctl<F>(
    pool: &ThreadPool,
    collapsed: &Collapsed,
    warp: usize,
    ctl: Option<&TokenCtl<'_>>,
    body: F,
) where
    F: Fn(usize, &[i64]) + Sync,
{
    let warp = warp.max(1);
    let total = collapsed.total();
    let d = collapsed.depth();
    let nthreads = pool.nthreads();
    let unrankers = WorkerLocal::new(nthreads, |_| collapsed.unranker());
    pool.run(&|tid| {
        // Lanes tid, tid+T, tid+2T, … below both caps: `lane < warp`
        // and `lane + 1 ≤ total` (the lane's first rank exists).
        let lane_cap = (warp as i128).min(total).max(0);
        let nlanes = if (tid as i128) < lane_cap {
            ((lane_cap - tid as i128) as u128).div_ceil(nthreads as u128) as usize
        } else {
            0
        };
        if nlanes == 0 {
            return;
        }
        if d == 0 {
            // A zero-depth nest has exactly one (empty-tuple)
            // iteration per surviving rank.
            let mut local = 0u64;
            let mut lane = tid;
            while lane < warp {
                if let Some(ctl) = ctl {
                    if ctl.stop_requested() {
                        break;
                    }
                }
                let mut pc = (lane + 1) as i128;
                while pc <= total {
                    body(lane, &[]);
                    local += 1;
                    pc += warp as i128;
                }
                lane += nthreads;
            }
            if let Some(ctl) = ctl {
                ctl.add_done(local);
            }
            return;
        }
        unrankers.with(tid, |unranker| {
            let mut anchor = [0i64; MAX_DEPTH];
            let anchor = &mut anchor[..d];
            let mut local = 0u64;
            'lanes: for l in 0..nlanes {
                if let Some(ctl) = ctl {
                    if ctl.stop_requested() {
                        break 'lanes;
                    }
                }
                let lane = tid + l * nthreads;
                let mut pc = (lane + 1) as i128;
                unranker.unrank_into(pc, anchor);
                let mut walker = RowWalker::anchor(collapsed.nest(), anchor);
                let mut steps = 0u64;
                loop {
                    body(lane, walker.point());
                    local += 1;
                    steps += 1;
                    pc += warp as i128;
                    if pc > total {
                        break;
                    }
                    if let Some(ctl) = ctl {
                        if steps.is_multiple_of(WARP_POLL_STRIDE) && ctl.stop_requested() {
                            break 'lanes;
                        }
                    }
                    // Row-segmented stride: O(rows crossed) per step
                    // instead of `warp` single-point odometer advances.
                    let ok = walker.skip(warp as u64);
                    debug_assert!(ok, "strided walk ran off the domain");
                }
            }
            if let Some(ctl) = ctl {
                ctl.add_done(local);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapsed::CollapseSpec;
    use nrl_polyhedra::NestSpec;
    use std::sync::Mutex;

    /// Collects (point) invocations into a sorted multiset for
    /// order-independent comparison.
    fn collect_parallel<R>(
        run: impl FnOnce(&(dyn Fn(usize, &[i64]) + Sync)) -> R,
    ) -> Vec<Vec<i64>> {
        let seen = Mutex::new(Vec::new());
        run(&|_tid, p: &[i64]| {
            seen.lock().unwrap().push(p.to_vec());
        });
        let mut v = seen.into_inner().unwrap();
        v.sort();
        v
    }

    fn reference(nest: &NestSpec, params: &[i64]) -> Vec<Vec<i64>> {
        let mut v: Vec<Vec<i64>> = nest.enumerate(params).collect();
        v.sort();
        v
    }

    #[test]
    fn run_seq_matches_enumeration() {
        let nest = NestSpec::figure6();
        let bound = nest.bind(&[8]);
        let mut seen = Vec::new();
        run_seq(&bound, |p| seen.push(p.to_vec()));
        let expect: Vec<Vec<i64>> = nest.enumerate(&[8]).collect();
        assert_eq!(seen, expect, "sequential order must be lexicographic");
    }

    #[test]
    fn outer_parallel_covers_domain() {
        let nest = NestSpec::correlation();
        let pool = ThreadPool::new(4);
        for schedule in [Schedule::Static, Schedule::Dynamic(2), Schedule::Guided(1)] {
            let bound = nest.bind(&[20]);
            let got = collect_parallel(|body| {
                run_outer_parallel(&pool, &bound, schedule, |t, p| body(t, p))
            });
            assert_eq!(got, reference(&nest, &[20]), "{schedule:?}");
        }
    }

    #[test]
    fn collapsed_covers_domain_under_all_recoveries() {
        let nest = NestSpec::correlation();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[25]).unwrap();
        let pool = ThreadPool::new(4);
        for recovery in [
            Recovery::Naive,
            Recovery::OncePerChunk,
            Recovery::BinarySearch,
            Recovery::ClosedForm,
            Recovery::Reference,
        ] {
            let got = collect_parallel(|body| {
                collapsed
                    .runner(&pool)
                    .recovery(recovery)
                    .run(|t, p| body(t, p))
            });
            assert_eq!(got, reference(&nest, &[25]), "{recovery:?}");
        }
    }

    #[test]
    fn collapsed_covers_domain_under_all_schedules() {
        let nest = NestSpec::figure6();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[10]).unwrap();
        let pool = ThreadPool::new(3);
        for schedule in [
            Schedule::Static,
            Schedule::StaticChunk(7),
            Schedule::Dynamic(5),
            Schedule::Guided(2),
        ] {
            let got = collect_parallel(|body| {
                collapsed
                    .runner(&pool)
                    .schedule(schedule)
                    .run(|t, p| body(t, p))
            });
            assert_eq!(got, reference(&nest, &[10]), "{schedule:?}");
        }
    }

    #[test]
    fn collapsed_static_balances_triangle() {
        // The headline claim: static scheduling of the collapsed loop
        // balances the triangular domain that static-outer butchers.
        let nest = NestSpec::correlation();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[200]).unwrap();
        let pool = ThreadPool::new(5);
        let outer = run_outer_parallel(&pool, &nest.bind(&[200]), Schedule::Static, |_, _| {});
        let flat = collapsed.runner(&pool).run(|_, _| {}).report;
        assert!(
            outer.iteration_imbalance() > 1.5,
            "outer static should be imbalanced: ×{:.3}",
            outer.iteration_imbalance()
        );
        assert!(
            flat.iteration_imbalance() < 1.01,
            "collapsed static should be near-perfectly balanced: ×{:.3}",
            flat.iteration_imbalance()
        );
    }

    #[test]
    fn partial_collapse_covers_domain() {
        // The paper's ltmp situation: 3-deep nest, collapse only (i, j).
        let nest = NestSpec::figure6();
        let n = 11i64;
        let full = nest.bind(&[n]);
        let prefix_spec = CollapseSpec::new(&nest.prefix(2)).unwrap();
        let collapsed = prefix_spec.bind(&[n]).unwrap();
        // Flattened total counts (i, j) pairs, not all iterations.
        assert_eq!(
            collapsed.total() as u128,
            nest.prefix(2).count_enumerated(&[n])
        );
        let pool = ThreadPool::new(3);
        for recovery in [Recovery::OncePerChunk, Recovery::Naive] {
            let got = collect_parallel(|body| {
                collapsed
                    .runner(&pool)
                    .over(&full)
                    .schedule(Schedule::Dynamic(4))
                    .recovery(recovery)
                    .run(|t, p| body(t, p))
            });
            assert_eq!(got, reference(&nest, &[n]), "{recovery:?}");
        }
    }

    #[test]
    fn partial_collapse_full_depth_degenerates() {
        let nest = NestSpec::correlation();
        let full = nest.bind(&[12]);
        let spec = CollapseSpec::new(&nest.prefix(2)).unwrap();
        let collapsed = spec.bind(&[12]).unwrap();
        let pool = ThreadPool::new(2);
        let got =
            collect_parallel(|body| collapsed.runner(&pool).over(&full).run(|t, p| body(t, p)));
        assert_eq!(got, reference(&nest, &[12]));
    }

    #[test]
    fn warp_sim_covers_domain() {
        let nest = NestSpec::figure6();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[7]).unwrap();
        let pool = ThreadPool::new(2);
        for warp in [1usize, 3, 32, 1000] {
            let got =
                collect_parallel(|body| collapsed.runner(&pool).warp(warp, |t, p| body(t, p)));
            assert_eq!(got, reference(&nest, &[7]), "warp={warp}");
        }
    }

    #[test]
    fn worker_cache_survives_chunk_boundaries() {
        // Two workers, round-robin chunks far smaller than the domain:
        // once-per-chunk recovery goes through the per-worker unranker,
        // so every chunk after a worker's first must *hit* the level-0
        // specialization cache (its prefix is empty — it can only miss
        // once per worker). The old code rebuilt per chunk. A
        // one-thread pool would run the domain as one block, so the
        // test needs two threads to have chunks at all.
        let nest = NestSpec::correlation();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[40]).unwrap();
        let total = collapsed.total() as u64; // 780
        let chunk = 13u64;
        let nchunks = total.div_ceil(chunk);
        assert!(nchunks >= 4, "test needs several chunks per worker");
        let pool = ThreadPool::new(2);
        collapsed
            .runner(&pool)
            .schedule(Schedule::StaticChunk(chunk))
            .run(|_, _| {});
        let stats = collapsed.stats();
        assert!(
            stats.spec_cache_hit >= nchunks - 2,
            "level-0 ladder must be reused across chunks: {stats:?} ({nchunks} chunks)"
        );
        assert!(
            stats.spec_cache_miss <= 2 * nchunks,
            "misses bounded by prefix changes: {stats:?}"
        );
    }

    #[test]
    fn mid_row_chunks_cover_domain_across_grains_and_schedules() {
        // Grains far below figure6's row lengths put chunk boundaries
        // inside rows: every chunk anchors mid-row and its walk must
        // resume there.
        let nest = NestSpec::figure6();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[9]).unwrap();
        let pool = ThreadPool::new(3);
        for grain in [1u64, 3, 4, 8, 17] {
            for schedule in [Schedule::StaticChunk(grain), Schedule::Dynamic(grain)] {
                let got = collect_parallel(|body| {
                    collapsed
                        .runner(&pool)
                        .schedule(schedule)
                        .run(|t, p| body(t, p))
                });
                assert_eq!(got, reference(&nest, &[9]), "{schedule:?}");
            }
        }
    }

    #[test]
    fn mid_row_chunk_order_is_lexicographic() {
        // Each worker takes its round-robin chunks in rank order, so
        // even with every boundary cutting a row its sweep must replay
        // the original lexicographic order of exactly those chunks (the
        // paper's incrementation argument across chunk anchors).
        let nest = NestSpec::correlation();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[30]).unwrap();
        let (nthreads, chunk) = (2, 13);
        let pool = ThreadPool::new(nthreads);
        let seen: Vec<Mutex<Vec<Vec<i64>>>> = (0..nthreads).map(|_| Mutex::default()).collect();
        collapsed
            .runner(&pool)
            .schedule(Schedule::StaticChunk(chunk))
            .run(|tid, p| {
                seen[tid].lock().unwrap().push(p.to_vec());
            });
        let all: Vec<Vec<i64>> = nest.enumerate(&[30]).collect();
        let total = all.len() as u64;
        for (tid, seen) in seen.into_iter().enumerate() {
            let expect: Vec<Vec<i64>> = Schedule::static_chunks(total, nthreads, tid, chunk)
                .flat_map(|(s, e)| all[s as usize..e as usize].iter().cloned())
                .collect();
            assert_eq!(seen.into_inner().unwrap(), expect, "thread {tid}");
        }
    }

    #[test]
    fn one_thread_pool_runs_a_dynamic_schedule_as_one_block() {
        // Nothing to balance on one thread: `Dynamic(16)` anchors once,
        // not once per 16 points, and walks the whole enumeration in
        // order.
        let nest = NestSpec::figure6();
        let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[12]).unwrap();
        assert!(collapsed.total() > 16 * 4, "needs many Dynamic(16) chunks");
        let levels = |s: crate::RecoveryStats| {
            s.closed_form_exact + s.corrected + s.binary_search + s.linear_exact
        };
        // Level recoveries of one run (one per level an anchor solves).
        let recovered = |nthreads: usize, schedule: Schedule| {
            let pool = ThreadPool::new(nthreads);
            let seen = Mutex::new(Vec::new());
            let before = levels(collapsed.stats());
            collapsed
                .runner(&pool)
                .schedule(schedule)
                .run(|_, p| seen.lock().unwrap().push(p.to_vec()));
            (
                levels(collapsed.stats()) - before,
                seen.into_inner().unwrap(),
            )
        };
        let (one_block, _) = recovered(1, Schedule::Static);
        let (dynamic, seen) = recovered(1, Schedule::Dynamic(16));
        assert!(one_block > 0, "a run recovers its anchor");
        assert_eq!(dynamic, one_block, "Dynamic(16) on one thread: one anchor");
        let (chunked, _) = recovered(2, Schedule::Dynamic(16));
        assert!(
            chunked > one_block,
            "two threads anchor per chunk: {chunked} vs {one_block}"
        );
        let expect: Vec<Vec<i64>> = nest.enumerate(&[12]).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn empty_domain_runs_nothing() {
        let nest = NestSpec::correlation();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[1]).unwrap();
        let pool = ThreadPool::new(2);
        let got = collect_parallel(|body| collapsed.runner(&pool).run(|t, p| body(t, p)));
        assert!(got.is_empty());
        run_seq(&nest.bind(&[1]), |_| panic!("no iterations expected"));
    }

    /// The token is polled once per row by `run` and once per grid
    /// chunk by `reduce`, never once per chunk of the schedule: on one
    /// thread (one chunk spanning the domain), a cancel from inside the
    /// body at point `k` stops by the end of `k`'s row. The domain is
    /// sized so every row holding a cancel point is at least one grid
    /// chunk long, so both executors meet the same bound.
    #[test]
    fn token_is_polled_once_per_row() {
        use crate::reduce::{reduce_grain, reducer};
        let nest = NestSpec::correlation();
        let n = 300;
        let bound = nest.bind(&[n]);
        let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[n]).unwrap();
        let total = collapsed.total() as u64;
        let pool = ThreadPool::new(1);
        for k in [1u64, 100, 299, 300, 5000, 12000] {
            let p = collapsed.unrank(k as i128);
            let row = (bound.upper(1, &p) - bound.lower(1, &p) + 1) as u64;
            assert!(
                row >= reduce_grain(total),
                "k={k}: row shorter than a grid chunk"
            );
            // Cancels `token` at the `k`-th body call counted in `calls`.
            let hit = |token: &RunToken, calls: &AtomicU64| {
                if calls.fetch_add(1, Ordering::Relaxed) + 1 == k {
                    token.cancel();
                }
            };
            let done = |outcome: RunOutcome| outcome.points_done().expect("cancelled");
            let (token, calls) = (RunToken::new(), AtomicU64::new(0));
            let runner = collapsed.runner(&pool).token(&token);
            let run = done(runner.run(|_, _| hit(&token, &calls)).outcome);
            assert!(
                k <= run && run <= k + row,
                "run: k={k} row={row} done={run}"
            );
            let (token, calls) = (RunToken::new(), AtomicU64::new(0));
            let count = reducer(
                || 0u64,
                |_, _, acc: &mut u64| {
                    hit(&token, &calls);
                    *acc += 1;
                },
                |a, b| a + b,
            );
            let red = collapsed.runner(&pool).token(&token).reduce(&count);
            let joined = done(red.outcome);
            assert_eq!(red.value, joined, "reduce: the joined prefix is what ran");
            assert!(
                k <= joined && joined <= k + row,
                "reduce: k={k} row={row} done={joined}"
            );
        }
    }

    #[test]
    fn chunk_order_is_lexicographic() {
        // Within one chunk, OncePerChunk must deliver points in original
        // order (the paper's incrementation argument).
        let nest = NestSpec::correlation();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[30]).unwrap();
        let pool = ThreadPool::new(1); // single chunk ⇒ full order
        let seen = Mutex::new(Vec::new());
        collapsed.runner(&pool).run(|_, p| {
            seen.lock().unwrap().push(p.to_vec());
        });
        let seen = seen.into_inner().unwrap();
        let expect: Vec<Vec<i64>> = nest.enumerate(&[30]).collect();
        assert_eq!(seen, expect);
    }
}
