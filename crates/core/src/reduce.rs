//! Deterministic parallel reductions and segmented scans over
//! collapsed iterations.
//!
//! A collapsed chunk is a rank interval, so Farzan & Nicolet's
//! divide-and-conquer synthesis applies directly: fold each chunk into
//! a partial aggregate, then combine the partials with an associative
//! `join`. Two design decisions make the result **bit-reproducible**
//! regardless of schedule, recovery strategy, thread count, or
//! cancellation point:
//!
//! 1. **A fixed chunk grid.** Partial boundaries are *not* the
//!    schedule's chunks: the domain is cut into grid chunks of
//!    [`reduce_grain`] points, a pure function of the domain size
//!    (`(total / 256).clamp(256, 65_536)`: ~256 chunks on large
//!    domains, chunks of at least 256 points on small ones).
//!    The user's [`Schedule`] distributes *grid-chunk indices*, so a
//!    dynamic schedule on 8 threads folds exactly the same partials as
//!    a static schedule on 1 thread.
//! 2. **Fixed join order.** After the pool joins, the per-worker
//!    partials (accumulated into [`WorkerLocal`] scratch, one
//!    `(chunk, partial)` pair per grid chunk) are combined in
//!    ascending chunk-index order — a left fold over the grid, never a
//!    race-ordered tree.
//!
//! The grid cuts the *accumulator*, not the walk. Index recovery
//! follows §V: a schedule chunk (a run of adjacent grid chunks)
//! recovers **one** anchor at its first grid chunk and keeps one
//! [`RowWalker`] going across every later grid seam, where it pushes
//! the partial and starts a fresh `identity()` (`Recovery::Naive`, the
//! ablation, still recovers every point). Partials, token polls and
//! `reduce.chunk` spans stay per grid chunk.
//!
//! With an exact accumulator (integer, wrapping arithmetic) the result
//! is additionally bit-identical to the *sequential* fold whenever the
//! reducer satisfies the homomorphism law on [`Reducer`]. Floating-
//! point reducers keep the cross-configuration guarantee (same value
//! for every schedule × recovery × thread count) because the grid and
//! the join order never move; only the grouping relative to a
//! sequential fold differs. The grouping does differ from builds older
//! than the 256-point minimum grain (see [`reduce_grain`]).
//!
//! **Cancellation** reuses the `RunToken` window machinery: the token
//! is polled once per grid chunk, a stopped run returns the joined
//! *contiguous prefix* of completed chunks plus the exact
//! `points_done` those chunks cover, and completed chunks beyond a gap
//! are discarded (visible in [`ReduceCounters::discarded`]). Because
//! `points_done` is always grid-aligned, resuming at
//! `skip = points_done` re-runs exactly the missing chunks of the same
//! absolute grid — `join(prefix, resumed)` is bit-identical to the
//! uninterrupted run.
//!
//! The entry points live on the [`Runner`](crate::runner::Runner)
//! builder (`collapsed.runner(&pool).reduce(&r)`); this module holds
//! the traits, the result types, and the executors.

use crate::collapsed::Collapsed;
use crate::collapsed::Unranker;
use crate::exec::{
    recover_chunk_anchor, run_outcome, total_points, worker_unrankers, Recovery, TokenCtl,
};
use crate::imperfect::{run_guarded_segment, NestPosition};
use crate::rowwalk::RowWalker;
use crate::unrank::MAX_DEPTH;
use nrl_parfor::{RunOutcome, Schedule, ThreadPool, WorkerLocal};

/// A parallel reduction over collapsed iterations.
///
/// # Laws
///
/// For the parallel result to equal the sequential left fold
/// (`acc = identity; for p in domain { accum(p, &mut acc) }`), the
/// three operations must form a *fold homomorphism*:
///
/// * `join` is associative and `identity()` is its two-sided identity;
/// * folding a rank interval from `identity` and joining it onto a
///   left aggregate equals folding the interval directly onto that
///   aggregate: `join(a, fold(identity, pts)) == fold(a, pts)`.
///
/// Integer sums/products/min/max (wrapping or checked) satisfy both
/// exactly. Floating-point addition satisfies them only up to
/// rounding: the executor still produces *one* deterministic grouping
/// (see the [module docs](self)), but that grouping differs from the
/// sequential fold's.
///
/// `accum` must not depend on the executing `tid` for the result to be
/// schedule-independent; the `tid` is passed for instrumentation
/// (per-worker counters, scratch) only.
pub trait Reducer<A: Send>: Sync {
    /// The neutral accumulator a fresh chunk starts from.
    fn identity(&self) -> A;
    /// Folds one iteration-space point into the accumulator.
    fn accum(&self, tid: usize, point: &[i64], acc: &mut A);
    /// Combines two adjacent aggregates (left-to-right in rank order).
    fn join(&self, left: A, right: A) -> A;
}

/// A reduction over a *guarded* (imperfect) nest: `accum` additionally
/// receives the point's [`NestPosition`], so sunken prologue/epilogue
/// statements can contribute to the aggregate exactly once, at their
/// original program position. Same laws as [`Reducer`].
pub trait GuardedReducer<A: Send>: Sync {
    /// The neutral accumulator a fresh chunk starts from.
    fn identity(&self) -> A;
    /// Folds one guarded point into the accumulator.
    fn accum(&self, tid: usize, point: &[i64], pos: NestPosition, acc: &mut A);
    /// Combines two adjacent aggregates (left-to-right in rank order).
    fn join(&self, left: A, right: A) -> A;
}

/// A [`Reducer`] assembled from three closures — the quick way to
/// build one at a call site:
///
/// ```
/// use nrl_core::{reducer, CollapseSpec, ThreadPool};
/// use nrl_polyhedra::NestSpec;
///
/// let collapsed = CollapseSpec::new(&NestSpec::correlation())
///     .unwrap()
///     .bind(&[100])
///     .unwrap();
/// let pool = ThreadPool::new(4);
/// let sum = reducer(
///     || 0i64,
///     |_tid, p: &[i64], acc: &mut i64| *acc += p[0] + p[1],
///     |a, b| a + b,
/// );
/// let red = collapsed.runner(&pool).reduce(&sum);
/// assert!(red.outcome.is_completed());
/// ```
pub struct FnReducer<I, F, J> {
    identity: I,
    accum: F,
    join: J,
}

/// Builds a [`FnReducer`] from `identity`/`accum`/`join` closures.
pub fn reducer<A, I, F, J>(identity: I, accum: F, join: J) -> FnReducer<I, F, J>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(usize, &[i64], &mut A) + Sync,
    J: Fn(A, A) -> A + Sync,
{
    FnReducer {
        identity,
        accum,
        join,
    }
}

impl<A, I, F, J> Reducer<A> for FnReducer<I, F, J>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(usize, &[i64], &mut A) + Sync,
    J: Fn(A, A) -> A + Sync,
{
    fn identity(&self) -> A {
        (self.identity)()
    }
    fn accum(&self, tid: usize, point: &[i64], acc: &mut A) {
        (self.accum)(tid, point, acc)
    }
    fn join(&self, left: A, right: A) -> A {
        (self.join)(left, right)
    }
}

/// A [`GuardedReducer`] assembled from three closures (see
/// [`guarded_reducer`]).
pub struct FnGuardedReducer<I, F, J> {
    identity: I,
    accum: F,
    join: J,
}

/// Builds a [`FnGuardedReducer`] from `identity`/`accum`/`join`
/// closures, where `accum` receives the point's [`NestPosition`].
pub fn guarded_reducer<A, I, F, J>(identity: I, accum: F, join: J) -> FnGuardedReducer<I, F, J>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(usize, &[i64], NestPosition, &mut A) + Sync,
    J: Fn(A, A) -> A + Sync,
{
    FnGuardedReducer {
        identity,
        accum,
        join,
    }
}

impl<A, I, F, J> GuardedReducer<A> for FnGuardedReducer<I, F, J>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(usize, &[i64], NestPosition, &mut A) + Sync,
    J: Fn(A, A) -> A + Sync,
{
    fn identity(&self) -> A {
        (self.identity)()
    }
    fn accum(&self, tid: usize, point: &[i64], pos: NestPosition, acc: &mut A) {
        (self.accum)(tid, point, pos, acc)
    }
    fn join(&self, left: A, right: A) -> A {
        (self.join)(left, right)
    }
}

/// Counters a reduction reports alongside its value (documented in
/// `docs/COUNTERS.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReduceCounters {
    /// Grid chunks the reduced window decomposes into.
    pub chunks: u64,
    /// Partials joined into the returned value — equals `chunks` on a
    /// completed run, the contiguous-prefix length on a stopped one.
    pub joined: u64,
    /// Completed partials discarded because an earlier chunk was
    /// stopped first (their work is re-done by a resume).
    pub discarded: u64,
    /// Points per full grid chunk ([`reduce_grain`] of the domain).
    pub grain: u64,
}

/// The result of a parallel reduction: the joined value, how the run
/// ended, and the join-tree counters.
///
/// On [`RunOutcome::Cancelled`]/[`RunOutcome::DeadlineExpired`],
/// `value` aggregates exactly the contiguous prefix of the reduced
/// window (`points_done` points), and `points_done` is grid-aligned,
/// so resuming at `skip + points_done` reduces exactly the remainder.
#[derive(Debug)]
pub struct Reduction<A> {
    /// The joined aggregate (of the whole window, or of the stopped
    /// run's contiguous prefix).
    pub value: A,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Join-tree accounting.
    pub counters: ReduceCounters,
}

/// Points per grid chunk for a domain of `total` points — a pure
/// function of the domain size, so the partial boundaries (and with
/// them the join tree) are identical for every schedule, recovery,
/// and thread count: `(total / 256).clamp(256, 65_536)`. Large domains
/// get ~256 chunks (enough slack for dynamic balancing on any realistic
/// pool), with the grain capped so a single chunk never starves
/// cancellation; small ones get chunks of at least 256 points, so a
/// partial, a token poll and a join are never paid per handful of
/// points (figure 6 at N = 24, 2,300 points, folds 9 chunks, not 288).
///
/// Builds before the 256-point minimum used `clamp(1, 65_536)`, so on
/// domains under 65,536 points floating-point reductions associate
/// differently than there; integer (exact) results are unchanged.
pub fn reduce_grain(total: u64) -> u64 {
    (total / 256).clamp(256, 65_536)
}

/// One partial: window-relative grid-chunk index, aggregate, points.
type Partial<A> = (u64, A, u64);

/// The join half of a reducer — lets the grid core serve both
/// [`Reducer`] and [`GuardedReducer`] without duplicating the
/// fixed-order join.
trait Joiner<A>: Sync {
    fn identity(&self) -> A;
    fn join(&self, left: A, right: A) -> A;
}

struct PlainJoiner<'r, R>(&'r R);

impl<A: Send, R: Reducer<A>> Joiner<A> for PlainJoiner<'_, R> {
    fn identity(&self) -> A {
        self.0.identity()
    }
    fn join(&self, left: A, right: A) -> A {
        self.0.join(left, right)
    }
}

struct GuardedJoiner<'r, R>(&'r R);

impl<A: Send, R: GuardedReducer<A>> Joiner<A> for GuardedJoiner<'_, R> {
    fn identity(&self) -> A {
        self.0.identity()
    }
    fn join(&self, left: A, right: A) -> A {
        self.0.join(left, right)
    }
}

/// The grid-reduction core behind `Runner::reduce`: reduces the rank
/// window `base+1 ..= base+count` of `collapsed` over the fixed chunk
/// grid (anchored at rank 1, never at the window), joining partials in
/// ascending chunk order. See the [module docs](self) for the
/// determinism and cancellation contract.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_reduce_window<A, R>(
    pool: &ThreadPool,
    collapsed: &Collapsed,
    base: u64,
    count: u64,
    schedule: Schedule,
    recovery: Recovery,
    ctl: Option<&TokenCtl<'_>>,
    reducer: &R,
) -> Reduction<A>
where
    A: Send,
    R: Reducer<A>,
{
    run_reduce_grid(
        pool,
        collapsed,
        base,
        count,
        schedule,
        ctl,
        &PlainJoiner(reducer),
        |unrankers, tid, walk, s, e, acc| {
            accumulate_chunk(collapsed, unrankers, recovery, tid, walk, s, e, |p| {
                reducer.accum(tid, p, acc)
            })
        },
        recovery,
    )
}

/// The guarded twin of [`run_reduce_window`]: every accumulated point
/// carries its [`NestPosition`], derived from the row walker's carry
/// depths exactly like
/// [`Runner::run_guarded`](crate::Runner::run_guarded).
/// Only a walk's anchor pays the `NestPosition::of` scan; every
/// recovery mode anchors through [`recover_chunk_anchor`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_reduce_guarded_window<A, R>(
    pool: &ThreadPool,
    collapsed: &Collapsed,
    base: u64,
    count: u64,
    schedule: Schedule,
    recovery: Recovery,
    ctl: Option<&TokenCtl<'_>>,
    reducer: &R,
) -> Reduction<A>
where
    A: Send,
    R: GuardedReducer<A>,
{
    let nest = collapsed.nest();
    run_reduce_grid(
        pool,
        collapsed,
        base,
        count,
        schedule,
        ctl,
        &GuardedJoiner(reducer),
        |unrankers, tid, walk, s, e, acc| {
            if collapsed.depth() == 0 {
                for _ in s..e {
                    reducer.accum(tid, &[], NestPosition::from_parts(0, 0, 0), acc);
                }
                return;
            }
            let (walker, anchored) = seam_walker(walk, collapsed, unrankers, recovery, tid, s);
            let mut first_pos = anchored.then(|| NestPosition::of(nest, walker.point()));
            let mut remaining = e - s;
            while remaining > 0 {
                let seg = walker.next_segment(remaining);
                run_guarded_segment(walker, &seg, first_pos.take(), &mut |p, pos| {
                    reducer.accum(tid, p, pos, acc)
                });
                remaining -= seg.len;
            }
        },
        recovery,
    )
}

/// Shared grid machinery behind the plain and guarded reductions:
/// distributes window-relative grid-chunk indices under `schedule`,
/// folds each chunk with `fold_chunk(unrankers, tid, walk, s, e, &mut
/// acc)` into per-worker [`WorkerLocal`] partial lists, and joins the
/// contiguous prefix in fixed chunk order after the pool joins.
///
/// `walk` is one row walk per schedule chunk: the grid chunks of a
/// schedule chunk are adjacent, so the first one recovers the anchor
/// (see [`seam_walker`]) and every later one continues the same walk
/// across the seam. The grid only cuts the accumulator.
#[allow(clippy::too_many_arguments)]
fn run_reduce_grid<'c, A, J, FoldChunk>(
    pool: &ThreadPool,
    collapsed: &'c Collapsed,
    base: u64,
    count: u64,
    schedule: Schedule,
    ctl: Option<&TokenCtl<'_>>,
    joiner: &J,
    fold_chunk: FoldChunk,
    recovery: Recovery,
) -> Reduction<A>
where
    A: Send,
    J: Joiner<A>,
    FoldChunk: Fn(Option<&WorkerLocal<Unranker<'_>>>, usize, &mut Option<RowWalker<'c>>, u64, u64, &mut A)
        + Sync,
{
    let total = total_points(collapsed);
    assert!(
        base <= total && count <= total - base,
        "rank window out of range"
    );
    let grain = reduce_grain(total.max(1));
    if count == 0 {
        return Reduction {
            value: joiner.identity(),
            outcome: run_outcome(ctl),
            counters: ReduceCounters {
                grain,
                ..ReduceCounters::default()
            },
        };
    }
    // The grid is anchored at rank 1, not at the window: a resumed
    // window starting at a chunk boundary folds exactly the chunks the
    // stopped run did not join.
    let first_chunk = base / grain;
    let last_chunk = (base + count - 1) / grain;
    let nchunks = last_chunk - first_chunk + 1;
    // Per-worker partial lists plus the executor's per-worker
    // unrankers: both live in `WorkerLocal` slots, allocated once per
    // reduction; the partials are drained (never reused) on join —
    // they cannot leak into a later run.
    let partials: WorkerLocal<Vec<Partial<A>>> = WorkerLocal::new(pool.nthreads(), |_| Vec::new());
    let unrankers = worker_unrankers(pool, collapsed, recovery);
    pool.parallel_for(nchunks, schedule, &|tid, ws, we| {
        let mut walk = None;
        for w in ws..we {
            // The token is polled once per grid chunk: a chunk either
            // folds whole or not at all, so every produced partial is
            // joinable.
            if let Some(ctl) = ctl {
                if ctl.stop_requested() {
                    return;
                }
            }
            let g = first_chunk + w;
            let s = (g * grain).max(base);
            let e = ((g + 1) * grain).min(base + count);
            // One span per *grid* chunk (not schedule chunk): a
            // completed reduction records exactly
            // `ReduceCounters::chunks` of these — the invariant
            // `trace_smoke` asserts against the export.
            let _chunk = crate::obs::span("reduce", "reduce.chunk");
            let mut acc = joiner.identity();
            fold_chunk(unrankers.as_ref(), tid, &mut walk, s, e, &mut acc);
            partials.with(tid, |list| list.push((w, acc, e - s)));
        }
    });
    // Fixed-order join: gather every worker's partials, order by grid
    // index, and left-fold the contiguous prefix. Each grid chunk was
    // folded by exactly one worker, so indices are unique — a partial
    // is joined at most once by construction.
    let join_span = crate::obs::span("reduce", "reduce.join");
    let mut produced: Vec<Partial<A>> = partials.into_iter().flatten().collect();
    produced.sort_unstable_by_key(|(w, _, _)| *w);
    let nproduced = produced.len() as u64;
    let mut value = joiner.identity();
    let mut joined = 0u64;
    let mut points = 0u64;
    for (w, acc, n) in produced {
        if w != joined {
            // A gap: an earlier chunk was stopped before this one
            // completed. Everything past the gap is discarded (and
            // re-done by a resume).
            break;
        }
        value = joiner.join(value, acc);
        joined += 1;
        points += n;
    }
    drop(join_span);
    let discarded = nproduced - joined;
    if let Some(ctl) = ctl {
        ctl.add_done(points);
    }
    let outcome = run_outcome(ctl);
    debug_assert!(
        !outcome.is_completed() || joined == nchunks,
        "a completed reduction joins every chunk"
    );
    Reduction {
        value,
        outcome,
        counters: ReduceCounters {
            chunks: nchunks,
            joined,
            discarded,
            grain,
        },
    }
}

/// Folds the rank window `s+1 ..= e` (0-based offsets `s..e`) of one
/// grid chunk: per-point recovery for the Naive ablation, otherwise
/// the schedule chunk's seam-crossing row walk (`walk`), whose one
/// anchor every other mode recovers through
/// [`recover_chunk_anchor`].
#[allow(clippy::too_many_arguments)]
fn accumulate_chunk<'c, F>(
    collapsed: &'c Collapsed,
    unrankers: Option<&WorkerLocal<Unranker<'_>>>,
    recovery: Recovery,
    tid: usize,
    walk: &mut Option<RowWalker<'c>>,
    s: u64,
    e: u64,
    mut body: F,
) where
    F: FnMut(&[i64]),
{
    debug_assert!(s < e);
    let d = collapsed.depth();
    let mut point = [0i64; MAX_DEPTH];
    let point = &mut point[..d];
    if d == 0 {
        for _ in s..e {
            body(point);
        }
        return;
    }
    if recovery == Recovery::Naive {
        let unrankers = unrankers.expect("cached modes hold unrankers");
        unrankers.with(tid, |unranker| {
            for pc in s..e {
                unranker.unrank_into((pc + 1) as i128, point);
                body(point);
            }
        });
        return;
    }
    let (walker, _) = seam_walker(walk, collapsed, unrankers, recovery, tid, s);
    walker.walk(e - s, || false, body);
}

/// The walker a schedule chunk folds its grid chunks with: the first
/// call recovers the anchor at offset `s` and reports `true`; later
/// calls return the same walker, already standing at `s` because the
/// grid chunks before it walked up to the seam.
fn seam_walker<'w, 'c>(
    walk: &'w mut Option<RowWalker<'c>>,
    collapsed: &'c Collapsed,
    unrankers: Option<&WorkerLocal<Unranker<'_>>>,
    recovery: Recovery,
    tid: usize,
    s: u64,
) -> (&'w mut RowWalker<'c>, bool) {
    let anchored = walk.is_none();
    let walker = walk.get_or_insert_with(|| {
        let mut point = [0i64; MAX_DEPTH];
        let point = &mut point[..collapsed.depth()];
        recover_chunk_anchor(collapsed, unrankers, recovery, tid, s, point);
        RowWalker::anchor(collapsed.nest(), point)
    });
    (walker, anchored)
}

/// The segmented-scan core behind `Runner::scan`: for every point of
/// the rank window `base+1 ..= base+count`, `emit(tid, point, &acc)`
/// observes the **row-inclusive prefix aggregate** — the fold of
/// `accum` from the point's row start (innermost lower bound) through
/// the point itself. This is the prefix-wise join form of the
/// reduction: the aggregate emitted at each point is `join` applied
/// left-to-right over the point's [`RowWalker`] row prefix.
///
/// Each point's value depends only on its row prefix, so the emitted
/// values are independent of chunking, schedule, and thread count by
/// construction. A chunk anchored mid-row re-folds its row's silent
/// prefix (the points before the anchor) without emitting — bounded by
/// one row per chunk.
///
/// All recovery modes anchor once per chunk through
/// [`recover_chunk_anchor`]; the token (when present) is polled once
/// per row segment and `points_done` counts **emitted** points
/// exactly, matching the stop discipline of
/// [`Runner::run`](crate::Runner::run).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_scan_rows_window<A, R, E>(
    pool: &ThreadPool,
    collapsed: &Collapsed,
    base: u64,
    count: u64,
    schedule: Schedule,
    recovery: Recovery,
    ctl: Option<&TokenCtl<'_>>,
    reducer: &R,
    emit: &E,
) -> RunOutcome
where
    A: Send,
    R: Reducer<A>,
    E: Fn(usize, &[i64], &A) + Sync,
{
    let total = total_points(collapsed);
    assert!(
        base <= total && count <= total - base,
        "rank window out of range"
    );
    let d = collapsed.depth();
    let nest = collapsed.nest();
    let unrankers = worker_unrankers(pool, collapsed, recovery);
    pool.parallel_for(count, schedule, &|tid, s, e| {
        debug_assert!(s < e);
        let (s, e) = (base + s, base + e);
        if let Some(ctl) = ctl {
            if ctl.stop_requested() {
                return;
            }
        }
        // Once per schedule chunk, same granularity as the token poll.
        let _chunk = crate::obs::span("exec", "exec.chunk");
        let mut point = [0i64; MAX_DEPTH];
        let point = &mut point[..d];
        if d == 0 {
            // A zero-depth nest has no rows: every (empty-tuple)
            // iteration is its own one-point row.
            let mut local = 0u64;
            for _ in s..e {
                let mut acc = reducer.identity();
                reducer.accum(tid, point, &mut acc);
                emit(tid, point, &acc);
                local += 1;
            }
            if let Some(ctl) = ctl {
                ctl.add_done(local);
            }
            return;
        }
        recover_chunk_anchor(collapsed, unrankers.as_ref(), recovery, tid, s, point);
        // Re-fold the anchor row's silent prefix: everything from the
        // row start up to (excluding) the anchor, accumulated without
        // emitting.
        let last = d - 1;
        let anchor_j = point[last];
        let mut acc = reducer.identity();
        let row_lo = nest.lower(last, point);
        for j in row_lo..anchor_j {
            point[last] = j;
            reducer.accum(tid, point, &mut acc);
        }
        point[last] = anchor_j;
        let mut walker = RowWalker::anchor(nest, point);
        let mut remaining = e - s;
        let mut local = 0u64;
        while remaining > 0 {
            if let Some(ctl) = ctl {
                if ctl.stop_requested() {
                    break;
                }
            }
            let seg = walker.next_segment(remaining);
            // A carry into a new row resets the prefix aggregate;
            // mid-row continuations keep it.
            if let Some(carry) = seg.pre_from {
                if carry < d {
                    acc = reducer.identity();
                }
            }
            walker.for_each(&seg, |p| {
                reducer.accum(tid, p, &mut acc);
                emit(tid, p, &acc);
            });
            local += seg.len;
            remaining -= seg.len;
        }
        if let Some(ctl) = ctl {
            ctl.add_done(local);
        }
    });
    run_outcome(ctl)
}
