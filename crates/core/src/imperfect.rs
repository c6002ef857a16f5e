//! Collapsing imperfectly nested loops (the paper's §IX future work,
//! dependence-free case).
//!
//! The paper handles *perfect* nests: all statements live in the
//! innermost loop. Its conclusion announces an extension to imperfect
//! nests — programs like
//!
//! ```text
//! for (i = 0; i < N-1; i++) {
//!     pre(i);                       // level-0 prologue
//!     for (j = i+1; j < N; j++) {
//!         body(i, j);               // innermost body
//!     }
//!     post(i);                      // level-0 epilogue
//! }
//! ```
//!
//! The classical way to collapse such programs is to convert them to a
//! *perfect guarded* nest: every statement sinks into the innermost
//! loop, guarded so it executes exactly at the point where the original
//! program would have executed it —
//!
//! * a **prologue** of level `k` runs when all deeper iterators sit at
//!   their *lexicographic minimum* for the current prefix (the nest is
//!   "entering" level `k`'s body),
//! * an **epilogue** of level `k` runs when all deeper iterators sit at
//!   their *maximum* (the nest is "leaving").
//!
//! [`NestPosition`] captures both conditions for a point; the
//! [`run_seq_guarded`]/[`Runner::run_guarded`](crate::Runner::run_guarded)
//! executors hand it to the body along with the indices, so one
//! collapsed parallel loop carries all the statements of the imperfect
//! program.
//!
//! **Preconditions.** The guard transformation is exact only when every
//! inner loop executes at least once for every prefix (strict trip
//! counts — validate with
//! [`NestSpec::prove_trip_counts`](nrl_polyhedra::NestSpec) in strict
//! mode): if some prefix had an empty inner nest, the original program
//! would still run the prologue/epilogue there, but no point of the
//! perfect nest exists to carry them. **Parallel execution** further
//! requires the sunk statements to be dependence-free across
//! iterations, exactly like the paper requires of the collapsed loops;
//! collapsing imperfect nests *carrying dependences* (the full §IX
//! programme) needs synchronization and stays out of scope here.

use crate::collapsed::Collapsed;
use crate::exec::{recover_chunk_anchor, total_points, worker_unrankers, Recovery, TokenCtl};
use crate::rowwalk::{RowSegment, RowWalker};
use crate::unrank::MAX_DEPTH;
use nrl_parfor::{ImbalanceReport, Schedule, ThreadPool};
use nrl_polyhedra::BoundNest;

/// Where a point sits inside the nest structure: which levels it
/// enters (prologues to run, outermost first) and which it leaves
/// (epilogues to run, innermost first).
///
/// For a depth-`d` nest, prologue/epilogue levels range over
/// `0..d-1` — a "level-`k` prologue" is a statement textually between
/// the `k`-th and `(k+1)`-th loop headers, and the corresponding
/// epilogue sits after the `(k+1)`-th loop closes. (Statements of the
/// innermost loop are the ordinary body and always run.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NestPosition {
    /// Smallest `k` such that all iterators deeper than `k` are at
    /// their lexicographic minimum (`d` if none are).
    pre_from: usize,
    /// Smallest `k` such that all iterators deeper than `k` are at
    /// their maximum (`d` if none are).
    post_from: usize,
    /// Nest depth.
    depth: usize,
}

impl NestPosition {
    /// Computes the position of `point` within `nest`. `O(depth)`.
    pub fn of(nest: &BoundNest, point: &[i64]) -> NestPosition {
        let d = nest.depth();
        debug_assert_eq!(point.len(), d);
        // One fused inward-out scan: `pre_from` keeps shrinking while
        // every deeper iterator matches its lower bound, `post_from`
        // while every deeper one matches its upper bound, and the scan
        // stops as soon as both chains are broken — for the common
        // mid-row point that is one level, where the old two-loop form
        // paid two loop setups to learn the same thing.
        let mut pre_from = d;
        let mut post_from = d;
        let mut pre_live = true;
        let mut post_live = true;
        for k in (1..d).rev() {
            if pre_live {
                if point[k] == nest.lower(k, &point[..k]) {
                    pre_from = k - 1;
                } else {
                    pre_live = false;
                }
            }
            if post_live {
                if point[k] == nest.upper(k, &point[..k]) {
                    post_from = k - 1;
                } else {
                    post_live = false;
                }
            }
            if !pre_live && !post_live {
                break;
            }
        }
        NestPosition {
            pre_from,
            post_from,
            depth: d,
        }
    }

    /// Assembles a position from already-known guard boundaries — the
    /// row-segmented executor derives them from odometer carry depths
    /// (see [`crate::rowwalk`]) instead of rescanning the bounds.
    pub(crate) fn from_parts(pre_from: usize, post_from: usize, depth: usize) -> NestPosition {
        debug_assert!(pre_from <= depth && post_from <= depth);
        NestPosition {
            pre_from,
            post_from,
            depth,
        }
    }

    /// The smallest level whose prologue fires here (`depth` if none
    /// does): the raw boundary behind [`Self::fires_prologue`].
    pub fn pre_from(&self) -> usize {
        self.pre_from
    }

    /// The smallest level whose epilogue fires here (`depth` if none
    /// does): the raw boundary behind [`Self::fires_epilogue`].
    pub fn post_from(&self) -> usize {
        self.post_from
    }

    /// True iff the level-`k` prologue runs at this point
    /// (`k < depth − 1`).
    pub fn fires_prologue(&self, k: usize) -> bool {
        debug_assert!(k + 1 < self.depth, "level {k} has no prologue slot");
        k >= self.pre_from
    }

    /// True iff the level-`k` epilogue runs at this point
    /// (`k < depth − 1`).
    pub fn fires_epilogue(&self, k: usize) -> bool {
        debug_assert!(k + 1 < self.depth, "level {k} has no epilogue slot");
        k >= self.post_from
    }

    /// Prologue levels firing at this point, in execution order
    /// (outermost first — the order the original imperfect program
    /// reaches them on the way in).
    pub fn prologues(&self) -> impl Iterator<Item = usize> {
        self.pre_from..self.depth.saturating_sub(1)
    }

    /// Epilogue levels firing at this point, in execution order
    /// (innermost first — loops close from the inside out).
    pub fn epilogues(&self) -> impl Iterator<Item = usize> {
        (self.post_from..self.depth.saturating_sub(1)).rev()
    }

    /// True iff this point opens an outermost-loop iteration: all
    /// iterators below level 0 are at their lexicographic minimum
    /// (equivalently, the level-0 prologue fires).
    pub fn is_row_first(&self) -> bool {
        self.pre_from == 0
    }

    /// True iff this point closes an outermost-loop iteration: all
    /// iterators below level 0 are at their maximum (equivalently, the
    /// level-0 epilogue fires).
    pub fn is_row_last(&self) -> bool {
        self.post_from == 0
    }
}

/// Runs the guarded perfect nest sequentially: `body(point, position)`
/// for every point in lexicographic order. The correctness reference
/// for [`Runner::run_guarded`](crate::Runner::run_guarded), and the
/// shape a hand-written imperfect program flattens to.
pub fn run_seq_guarded<F: FnMut(&[i64], NestPosition)>(nest: &BoundNest, mut body: F) {
    let d = nest.depth();
    let mut point = [0i64; MAX_DEPTH];
    let point = &mut point[..d];
    let Some(first) = nest.first_point() else {
        return;
    };
    point.copy_from_slice(&first);
    loop {
        let pos = NestPosition::of(nest, point);
        body(point, pos);
        if !nest.advance(point) {
            break;
        }
    }
}

/// Runs one row segment of the guarded walk: the first point carries
/// the segment's entry guards (from the carry depth, or the
/// chunk-anchor `NestPosition::of` in `first_pos`), the last point its
/// exit guards, and every interior point a neutral position — no
/// per-point bounds scan anywhere.
#[inline]
pub(crate) fn run_guarded_segment<F>(
    walker: &mut RowWalker<'_>,
    seg: &RowSegment,
    first_pos: Option<NestPosition>,
    body: &mut F,
) where
    F: FnMut(&[i64], NestPosition),
{
    let d = walker.depth();
    let pre0 = match (first_pos, seg.pre_from) {
        // The chunk anchor's one-off scan wins: the walker cannot know
        // the entry carry of a point it did not walk to.
        (Some(pos), _) => pos.pre_from,
        (None, Some(carry)) => carry,
        (None, None) => unreachable!("non-anchor segments know their entry carry"),
    };
    let n = seg.len;
    let mut r = 0u64;
    walker.for_each(seg, |p| {
        let pre_from = if r == 0 { pre0 } else { d };
        let post_from = if r + 1 == n { seg.post_from } else { d };
        body(p, NestPosition::from_parts(pre_from, post_from, d));
        r += 1;
    });
}

/// The guarded executor behind
/// [`Runner::run_guarded`](crate::Runner::run_guarded): runs the
/// collapsed loop in parallel, handing each iteration its
/// [`NestPosition`] so sunken prologue/epilogue statements fire exactly
/// once, at their original program position.
///
/// The positions are **derived, not scanned**: the row-segmented walk
/// ([`RowWalker`]) already performs, once per row, exactly the bound
/// comparisons that decide the guards — a carry at depth `k` means all
/// deeper iterators reset to their minima (prologues `k..d−1` fire at
/// the row's first point) and the symmetric exhaustion fires the
/// epilogues at its last. Only a chunk's first point, which may sit
/// mid-row, pays one `O(depth)` [`NestPosition::of`] scan; every other
/// iteration costs what the unguarded executor costs. Recovery
/// amortization (§V) is unchanged. The optional [`TokenCtl`] is polled
/// once per row segment, so a segment either runs whole — prologues,
/// bodies, epilogues — or not at all.
pub(crate) fn run_collapsed_guarded_ctl<F>(
    pool: &ThreadPool,
    collapsed: &Collapsed,
    schedule: Schedule,
    recovery: Recovery,
    ctl: Option<&TokenCtl<'_>>,
    body: F,
) -> ImbalanceReport
where
    F: Fn(usize, &[i64], NestPosition) + Sync,
{
    let total = total_points(collapsed);
    let d = collapsed.depth();
    let nest = collapsed.nest();
    // Same per-worker unrankers as the unguarded executor (the
    // reference ablation deliberately runs cacheless).
    let unrankers = worker_unrankers(pool, collapsed, recovery);
    pool.parallel_for(total, schedule, &|tid, s, e| {
        debug_assert!(s < e);
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
            // A zero-depth nest has no prologue/epilogue slots; every
            // (empty-tuple) iteration gets the neutral position.
            for _ in s..e {
                body(tid, point, NestPosition::from_parts(0, 0, 0));
            }
            if let Some(ctl) = ctl {
                ctl.add_done(e - s);
            }
            return;
        }
        match recovery {
            Recovery::Naive => {
                // Per-iteration recovery is the whole point of this
                // ablation, so the per-point bounds scan stays too
                // (and so does the per-point token poll — this mode
                // has no segments to amortize over).
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
                        body(tid, point, NestPosition::of(nest, point));
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
                // One bounds scan for the chunk's (possibly mid-row)
                // first point; every further guard comes from the
                // walker's carry depths. The token poll rides the
                // segment cadence.
                let mut first_pos = Some(NestPosition::of(nest, point));
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
                    run_guarded_segment(&mut walker, &seg, first_pos.take(), &mut |p, pos| {
                        body(tid, p, pos)
                    });
                    local += seg.len;
                    remaining -= seg.len;
                }
                if let Some(ctl) = ctl {
                    ctl.add_done(local);
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapsed::CollapseSpec;
    use nrl_polyhedra::{NestSpec, Space};
    use std::sync::Mutex;

    /// The reference semantics: execute the imperfect program with real
    /// nested loops, recording every statement instance in order.
    /// Levels: Pre(k, prefix), Body(point), Post(k, prefix).
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Instance {
        Pre(usize, Vec<i64>),
        Body(Vec<i64>),
        Post(usize, Vec<i64>),
    }

    fn imperfect_reference(nest: &BoundNest) -> Vec<Instance> {
        fn walk(nest: &BoundNest, prefix: &mut Vec<i64>, out: &mut Vec<Instance>) {
            let d = nest.depth();
            let level = prefix.len();
            let lo = nest.lower(level, prefix);
            let hi = nest.upper(level, prefix);
            for x in lo..=hi {
                prefix.push(x);
                if level + 1 == d {
                    out.push(Instance::Body(prefix.clone()));
                } else {
                    out.push(Instance::Pre(level, prefix.clone()));
                    walk(nest, prefix, out);
                    out.push(Instance::Post(level, prefix.clone()));
                }
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        if nest.depth() > 0 {
            walk(nest, &mut Vec::new(), &mut out);
        }
        out
    }

    /// Collects statement instances produced by the guarded executor.
    fn guarded_instances(nest: &BoundNest) -> Vec<Instance> {
        let mut out = Vec::new();
        run_seq_guarded(nest, |point, pos| {
            for k in pos.prologues() {
                out.push(Instance::Pre(k, point[..=k].to_vec()));
            }
            out.push(Instance::Body(point.to_vec()));
            for k in pos.epilogues() {
                out.push(Instance::Post(k, point[..=k].to_vec()));
            }
        });
        out
    }

    #[test]
    fn guarded_matches_imperfect_correlation() {
        for n in [2i64, 3, 7, 15] {
            let bound = NestSpec::correlation().bind(&[n]);
            assert_eq!(
                guarded_instances(&bound),
                imperfect_reference(&bound),
                "N={n}"
            );
        }
    }

    #[test]
    fn guarded_matches_imperfect_figure6() {
        for n in [2i64, 3, 6, 9] {
            let bound = NestSpec::figure6().bind(&[n]);
            assert_eq!(
                guarded_instances(&bound),
                imperfect_reference(&bound),
                "N={n}"
            );
        }
    }

    #[test]
    fn guarded_matches_imperfect_rectangular() {
        let bound = NestSpec::rectangular(&[3, 4, 2]).bind(&[]);
        assert_eq!(guarded_instances(&bound), imperfect_reference(&bound));
    }

    #[test]
    fn position_flags_on_triangle() {
        // N = 4 triangle: rows (0: j=1..3), (1: j=2..3), (2: j=3).
        let bound = NestSpec::correlation().bind(&[4]);
        let pos = NestPosition::of(&bound, &[0, 1]);
        assert!(pos.fires_prologue(0), "row start");
        assert!(!pos.fires_epilogue(0), "not row end");
        let pos = NestPosition::of(&bound, &[0, 3]);
        assert!(!pos.fires_prologue(0));
        assert!(pos.fires_epilogue(0), "row end");
        // Single-iteration row: both fire.
        let pos = NestPosition::of(&bound, &[2, 3]);
        assert!(pos.fires_prologue(0) && pos.fires_epilogue(0));
    }

    #[test]
    fn parallel_guarded_matches_sequential() {
        let nest = NestSpec::figure6();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[8]).unwrap();
        let pool = ThreadPool::new(4);
        for schedule in [Schedule::Static, Schedule::Dynamic(5), Schedule::Guided(2)] {
            let seen = Mutex::new(Vec::new());
            collapsed
                .runner(&pool)
                .schedule(schedule)
                .run_guarded(|_tid, point, pos| {
                    let mut local = Vec::new();
                    for k in pos.prologues() {
                        local.push(Instance::Pre(k, point[..=k].to_vec()));
                    }
                    local.push(Instance::Body(point.to_vec()));
                    for k in pos.epilogues() {
                        local.push(Instance::Post(k, point[..=k].to_vec()));
                    }
                    seen.lock().unwrap().extend(local);
                });
            let mut got = seen.into_inner().unwrap();
            got.sort();
            let mut expect = imperfect_reference(&nest.bind(&[8]));
            expect.sort();
            assert_eq!(got, expect, "{schedule:?}");
        }
    }

    #[test]
    fn prologue_fires_once_per_prefix() {
        // Summing with a level-0 prologue computes Σ_i 1 = #rows even
        // though the statement is sunk into the innermost loop.
        let nest = NestSpec::correlation();
        let spec = CollapseSpec::new(&nest).unwrap();
        let n = 30i64;
        let collapsed = spec.bind(&[n]).unwrap();
        let pool = ThreadPool::new(3);
        let rows = std::sync::atomic::AtomicU64::new(0);
        collapsed.runner(&pool).run_guarded(|_t, _p, pos| {
            if pos.fires_prologue(0) {
                rows.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert_eq!(
            rows.load(std::sync::atomic::Ordering::Relaxed),
            (n - 1) as u64
        );
    }

    #[test]
    fn guard_precondition_strict_trips() {
        // A nest with an occasionally-empty inner loop fails the strict
        // proof — exactly the domains where guard sinking would drop
        // prologue instances.
        let s = Space::new(&["i", "j"], &["N"]);
        let nest = NestSpec::new(
            s.clone(),
            vec![(s.cst(0), s.var("N") - 1), (s.cst(2), s.var("i"))],
        )
        .unwrap();
        // i rows 0 and 1 have empty j ranges (2..=i).
        assert!(nest.check_trip_counts(&[6], true).is_err());
        // The guarded executor visits only existing points; callers are
        // told (module docs) to validate strictness first.
        let perfect = NestSpec::correlation();
        assert!(perfect.check_trip_counts(&[6], true).is_ok());
    }

    #[test]
    fn depth_one_nest_has_no_prologue_slots() {
        let bound = NestSpec::rectangular(&[5]).bind(&[]);
        let mut count = 0;
        run_seq_guarded(&bound, |_point, pos| {
            assert_eq!(pos.prologues().count(), 0);
            assert_eq!(pos.epilogues().count(), 0);
            count += 1;
        });
        assert_eq!(count, 5);
    }
}
