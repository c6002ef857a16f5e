//! [`RowWalker`]: the shared row-segmented iteration core of every
//! collapsed executor.
//!
//! A chunk of the collapsed loop is a contiguous run of ranks, and in
//! the original iteration space a contiguous run decomposes into **rows**:
//! maximal runs where only the innermost iterator moves. Walking a chunk
//! therefore costs one inclusive-bound query per row plus one odometer
//! carry per row transition — never a per-point bounds query. Every
//! executor — the once-per-chunk loop, the guarded walk, the reductions
//! and scans, the warp executor's strided advance — shares this one
//! implementation, and the row-exit scan and the carry exist once
//! (`row_exit` and `carry`), shared by every way of driving it.
//!
//! There are two ways to drive a walker:
//!
//! * [`walk`](RowWalker::walk) visits the next `n` points in one fused
//!   loop — the paper's §V premise that after one recovery each point
//!   costs what it costs in the original nest. For depths 2 and 3 the
//!   point lives in a local `[i64; D]` for the whole call; each row runs
//!   on a fresh copy of its prefix (so the body can vectorize) and each
//!   row end carries inline. A `stop` hook is polled once per row, before
//!   the row's first point: token-carrying executors pass their token
//!   poll, every other caller a constant `false`. Every plain-body
//!   consumer walks this way.
//! * [`next_segment`](RowWalker::next_segment) +
//!   [`for_each`](RowWalker::for_each) hand out one [`RowSegment`] at a
//!   time, carrying the row's **carry depths** — exactly the information
//!   the guarded (imperfect-nest) executors and the row scan need:
//!
//!   * Entering a row, the carry that produced it incremented some level
//!     `c` and reset every deeper level to its lexicographic minimum —
//!     so the row's first point has `pre_from = c` (all prologues from
//!     level `c` inward fire there), pointwise identical to
//!     [`NestPosition::of`](crate::imperfect::NestPosition::of).
//!   * Leaving a row, the first level able to advance — the level the
//!     next carry will increment first — is `post_from` of the row's
//!     last point (all epilogues from it inward fire).
//!
//!   Both equalities are *pointwise* (they are the same bound
//!   comparisons `NestPosition::of` performs, done once per row instead
//!   of once per point), so they hold on any domain — including domains
//!   with empty inner sub-nests, where the carry bounces.
//!
//! Both ways leave the walker where the other picks up: mid-row, or with
//! the carry out of a finished row **deferred** to the next call. The
//! deferral lets [`for_each`](RowWalker::for_each) still see a segment's
//! own row prefix, and a chunk's final carry is never paid at all.
//!
//! The innermost loop — the original nest's `j++`, run once per point —
//! is compiled once per nest depth for depths 2 and 3 (every paper and
//! benchmark shape is 2–3 deep): the row prefix is copied into a local
//! `[i64; D]` and only its last entry changes per point. A body inlined
//! into that loop sees a point of constant length, so a body reading
//! constant indexes (`c0·p[0] + c1·p[1] + c2·p[2]`) becomes a
//! register-only loop with no bounds checks, which the compiler may
//! vectorize. Opaque bodies gain nothing: a body behind `black_box`, a
//! `dyn Fn`, or serve's type-erased bodies still receive a slice they
//! must index at run time. Other depths share one loop over a local
//! `[i64; MAX_DEPTH]`.

use crate::unrank::MAX_DEPTH;
use nrl_polyhedra::BoundNest;

/// One row segment of a collapsed chunk: at most one row's worth of
/// consecutive points, all sharing the outer prefix held by the
/// [`RowWalker`] that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowSegment {
    /// Innermost-iterator value of the segment's first point.
    pub start: i64,
    /// Number of points in the segment (≥ 1).
    pub len: u64,
    /// Carry depth that opened this row — `pre_from` of the segment's
    /// first point in [`NestPosition`](crate::imperfect::NestPosition)
    /// terms. `Some(depth)` when the segment continues mid-row (no
    /// guard fires); `None` when the walker was anchored mid-chunk and
    /// the entry carry is unknown (derive it with `NestPosition::of`
    /// if you need it — the executors pay that once per chunk).
    pub pre_from: Option<usize>,
    /// Carry depth that will close this row — `post_from` of the
    /// segment's **last** point: the nest depth when the segment stops
    /// before the row's end (no epilogue fires), otherwise the
    /// outermost-exhausted boundary computed from the same bound
    /// comparisons the next carry performs.
    pub post_from: usize,
}

/// What must happen to the walker's point before the next row can be
/// walked (carries are deferred so segment consumers can keep reading
/// the current row's prefix).
#[derive(Clone, Copy, Debug)]
enum Pending {
    /// Point is already the next point to visit.
    Ready,
    /// Move the innermost iterator to this value (mid-row
    /// continuation).
    InRow(i64),
    /// Carry into the next row, first incrementing at this level
    /// (`None`: the finished row was the domain's last).
    Carry(Option<usize>),
}

/// The shared row-segmented iteration core: owns the current point and
/// walks it over a [`BoundNest`] — fused ([`walk`](Self::walk)), by
/// [`RowSegment`]s, or by strided skips — paying one carry per row
/// transition.
///
/// Create one per chunk anchor with [`RowWalker::anchor`] (executors
/// recover the anchor from the chunk's first rank); the walker is
/// plain data — no allocation, not `Sync`, one per worker.
#[derive(Clone, Debug)]
pub struct RowWalker<'a> {
    nest: &'a BoundNest,
    depth: usize,
    point: [i64; MAX_DEPTH],
    /// `pre_from` of the current point (`None` = unknown: anchored).
    entry: Option<usize>,
    pending: Pending,
    exhausted: bool,
}

impl<'a> RowWalker<'a> {
    /// Anchors a walker at `anchor`, which must be a valid domain point
    /// of `nest` (executors obtain it by unranking a chunk's first
    /// rank). The nest must have depth ≥ 1 (zero-depth nests have no
    /// rows; executors special-case them).
    pub fn anchor(nest: &'a BoundNest, anchor: &[i64]) -> RowWalker<'a> {
        let depth = nest.depth();
        assert!(
            (1..=MAX_DEPTH).contains(&depth),
            "row walking needs 1..=MAX_DEPTH loops"
        );
        debug_assert_eq!(anchor.len(), depth, "anchor arity mismatch");
        debug_assert!(nest.contains(anchor), "anchor must lie in the domain");
        let mut point = [0i64; MAX_DEPTH];
        point[..depth].copy_from_slice(anchor);
        RowWalker {
            nest,
            depth,
            point,
            entry: None,
            pending: Pending::Ready,
            exhausted: false,
        }
    }

    /// Nest depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The current point — the next point a [`walk`](Self::walk) visits
    /// or [`next_segment`](Self::next_segment) starts at (or, for
    /// [`skip`](Self::skip)-driven walks, the point to execute).
    ///
    /// After `next_segment`, the **prefix** `point()[..depth−1]` keeps
    /// describing the produced segment's row until the next call; the
    /// innermost entry is unspecified (use [`RowSegment::start`]).
    pub fn point(&mut self) -> &[i64] {
        self.resolve_pending();
        &self.point[..self.depth]
    }

    /// Applies any deferred movement so `point` is the next point to
    /// visit.
    fn resolve_pending(&mut self) {
        match self.pending {
            Pending::Ready => {}
            Pending::InRow(j) => {
                self.point[self.depth - 1] = j;
                self.entry = Some(self.depth);
                self.pending = Pending::Ready;
            }
            Pending::Carry(level) => {
                self.pending = Pending::Ready;
                self.carry_into_next_row(level);
            }
        }
    }

    /// Visits the next `n` points in lexicographic order, invoking `f`
    /// on each (`f` always receives a slice of length
    /// [`depth`](Self::depth)), and returns how many it visited.
    ///
    /// `stop` is polled once per row, before the row's first point: when
    /// it returns `true` the walk ends there, leaving the walker at that
    /// row's first unvisited point, and the return value counts the
    /// points visited before it. Callers without a stop condition pass
    /// `|| false`. A walk that ends at a row's end defers that row's
    /// carry to the next call, as [`next_segment`](Self::next_segment)
    /// does.
    ///
    /// # Panics
    /// If the domain ends with points still owed — in release builds
    /// too: a caller that miscounts its chunk must not run short
    /// silently.
    #[inline]
    pub fn walk(&mut self, n: u64, stop: impl FnMut() -> bool, f: impl FnMut(&[i64])) -> u64 {
        match self.depth {
            2 => self.walk_rows::<2>(n, stop, f),
            3 => self.walk_rows::<3>(n, stop, f),
            _ => self.walk_rows::<MAX_DEPTH>(n, stop, f),
        }
    }

    /// The loop behind [`walk`](Self::walk) with the point in a local
    /// `[i64; D]`: `D` is the depth itself for the specialized depths
    /// and `MAX_DEPTH` for the rest, which use its first `depth`
    /// entries.
    #[inline(always)]
    fn walk_rows<const D: usize>(
        &mut self,
        mut n: u64,
        mut stop: impl FnMut() -> bool,
        mut f: impl FnMut(&[i64]),
    ) -> u64 {
        if n == 0 {
            return 0;
        }
        self.resolve_pending();
        if self.exhausted {
            ran_past_end(n);
        }
        let d = if D < MAX_DEPTH { D } else { self.depth };
        let last = d - 1;
        let nest = self.nest;
        let mut p = [0i64; D];
        p[..d].copy_from_slice(&self.point[..d]);
        let mut entry = self.entry;
        let owed = n;
        loop {
            if stop() {
                break;
            }
            let start = p[last];
            let row_end = nest.upper(last, &p[..d]);
            debug_assert!(start <= row_end, "walker sits outside its row");
            let row_left = (row_end - start + 1) as u64;
            if n < row_left {
                // The walk ends mid-row: no carry.
                row(&p, d, start, n, &mut f);
                p[last] = start + n as i64;
                n = 0;
                entry = Some(d);
                break;
            }
            row(&p, d, start, row_left, &mut f);
            n -= row_left;
            p[last] = row_end;
            let (_, level) = row_exit(nest, &p[..d]);
            if n == 0 {
                // The walk ends at the row's end: defer its carry.
                self.pending = Pending::Carry(level);
                break;
            }
            entry = level.and_then(|k| carry(nest, &mut p[..d], k));
            if entry.is_none() {
                self.exhausted = true;
                ran_past_end(n);
            }
        }
        self.point[..d].copy_from_slice(&p[..d]);
        self.entry = entry;
        owed - n
    }

    /// Produces the next row segment, at most `limit` points long
    /// (≥ 1). Walk at most `total-rank` points overall — the walker
    /// trusts its caller's count and must not be asked for a segment
    /// past the domain's last point.
    pub fn next_segment(&mut self, limit: u64) -> RowSegment {
        debug_assert!(limit >= 1, "segments have at least one point");
        self.resolve_pending();
        debug_assert!(!self.exhausted, "domain ended before the chunk");
        let last = self.depth - 1;
        let start = self.point[last];
        let row_end = self.nest.upper(last, &self.point);
        debug_assert!(start <= row_end, "walker sits outside its row");
        let row_left = (row_end - start + 1) as u64;
        let pre_from = self.entry;
        if limit < row_left {
            // The segment stops mid-row: no carry, no epilogue.
            self.pending = Pending::InRow(start + limit as i64);
            return RowSegment {
                start,
                len: limit,
                pre_from,
                post_from: self.depth,
            };
        }
        // The segment completes its row: the boundary scan below is the
        // next carry's failed-increment chain, done once and reused —
        // its result is exactly `post_from` of the row's last point.
        self.point[last] = row_end;
        let (post_from, level) = row_exit(self.nest, &self.point[..self.depth]);
        self.pending = Pending::Carry(level);
        RowSegment {
            start,
            len: row_left,
            pre_from,
            post_from,
        }
    }

    /// Invokes `f` on every point of `seg` in lexicographic order; `f`
    /// always receives a slice of length [`depth`](Self::depth). `seg`
    /// must be the segment just produced by
    /// [`next_segment`](Self::next_segment) (the walker still holds its
    /// row prefix).
    ///
    /// Runs the same per-depth row loop as [`walk`](Self::walk). The
    /// walker's own point is not written.
    #[inline]
    pub fn for_each(&self, seg: &RowSegment, mut f: impl FnMut(&[i64])) {
        let (start, len) = (seg.start, seg.len);
        match self.depth {
            2 => row(&prefix::<2>(&self.point), 2, start, len, &mut f),
            3 => row(&prefix::<3>(&self.point), 3, start, len, &mut f),
            d => row(&self.point, d, start, len, &mut f),
        }
    }

    /// Advances the walker by `n` points in `O(rows crossed)` — the
    /// warp executor's stride, which previously cost `n` single-step
    /// odometer advances. Returns `false` when the domain ends first
    /// (the walker is then exhausted).
    pub fn skip(&mut self, mut n: u64) -> bool {
        self.resolve_pending();
        let last = self.depth - 1;
        loop {
            if self.exhausted {
                return false;
            }
            if n == 0 {
                return true;
            }
            let row_end = self.nest.upper(last, &self.point);
            let room = (row_end - self.point[last]) as u64;
            if n <= room {
                self.point[last] += n as i64;
                self.entry = Some(self.depth);
                return true;
            }
            n -= room + 1;
            self.point[last] = row_end;
            let (_, level) = row_exit(self.nest, &self.point[..self.depth]);
            self.carry_into_next_row(level);
        }
    }

    /// Performs the row carry out of a finished row (see [`carry`]),
    /// recording the new row's entry depth, or exhaustion when `level`
    /// is `None` or the domain ends.
    fn carry_into_next_row(&mut self, level: Option<usize>) {
        match level.and_then(|k| carry(self.nest, &mut self.point[..self.depth], k)) {
            Some(entry) => self.entry = Some(entry),
            None => self.exhausted = true,
        }
    }
}

/// The walk's one failure path, kept out of the row loop.
#[cold]
#[inline(never)]
fn ran_past_end(owed: u64) -> ! {
    panic!("row walk ran past the domain's end with {owed} points still owed")
}

/// The first `D` entries of a walker's point, as a local array.
#[inline(always)]
fn prefix<const D: usize>(point: &[i64; MAX_DEPTH]) -> [i64; D] {
    let mut p = [0i64; D];
    p.copy_from_slice(&point[..D]);
    p
}

/// The row loop — the original nest's `j++` — shared by
/// [`RowWalker::walk`] and [`RowWalker::for_each`]: visits the `len`
/// points of the row whose prefix is `point[..d−1]`, starting at
/// innermost value `start`. The prefix is copied into a fresh local
/// `[i64; D]` and only its innermost entry is written per point, so an
/// inlined body sees a fixed-length point whose constant indexes need
/// no bounds checks and can stay in registers (a row run on the array
/// the carry updates stops the body vectorizing).
#[inline(always)]
fn row<const D: usize>(
    point: &[i64; D],
    d: usize,
    start: i64,
    len: u64,
    f: &mut impl FnMut(&[i64]),
) {
    let mut q = *point;
    for r in 0..len {
        q[d - 1] = start + r as i64;
        f(&q[..d]);
    }
}

/// With the innermost iterator of `p` at its row end, finds the first
/// level (inward-out) still below its upper bound — the level the next
/// carry increments first. Returns `(post_from, carry level)`:
/// `post_from` of the row's last point per the `NestPosition`
/// convention (`depth` for depth-1 nests, matching `NestPosition::of`,
/// whose scans never reach level 0; `0` when every level is
/// exhausted), and `None` for the carry when the whole domain is
/// exhausted.
#[inline(always)]
fn row_exit(nest: &BoundNest, p: &[i64]) -> (usize, Option<usize>) {
    let d = p.len();
    let mut k = d - 1;
    while k > 0 {
        let k1 = k - 1;
        if p[k1] < nest.upper(k1, p) {
            return (k1, Some(k1));
        }
        k = k1;
    }
    (if d == 1 { 1 } else { 0 }, None)
}

/// The row carry: increments `p` at level `k` (proven able to advance
/// by [`row_exit`]), then descends the lower-bound chain, re-carrying
/// past empty sub-nests. Returns the outermost level that changed —
/// `pre_from` of the new row's first point — or `None` when the domain
/// is exhausted.
#[inline(always)]
fn carry(nest: &BoundNest, p: &mut [i64], mut k: usize) -> Option<usize> {
    let d = p.len();
    // The scan proved level `k` can advance, so the first increment
    // needs no bound check.
    p[k] += 1;
    loop {
        // Descend: every deeper level to its lower bound.
        let mut level = k + 1;
        while level < d {
            p[level] = nest.lower(level, p);
            if p[level] > nest.upper(level, p) {
                break;
            }
            level += 1;
        }
        if level == d {
            return Some(k);
        }
        // Empty sub-nest: resume carrying at its parent.
        k = level - 1;
        loop {
            p[k] += 1;
            if p[k] <= nest.upper(k, p) {
                break;
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imperfect::NestPosition;
    use nrl_polyhedra::{NestSpec, Space};
    use std::cell::Cell;

    /// A nest with empty inner sub-nests: i in 0..=2, j in i..=1 —
    /// points (0,0) (0,1) (1,1); i = 2 is empty (carry bounces).
    fn bouncy_nest() -> NestSpec {
        let s = Space::new(&["i", "j"], &[]);
        NestSpec::new(
            s.clone(),
            vec![(s.cst(0), s.cst(2)), (s.var("i"), s.cst(1))],
        )
        .unwrap()
    }

    /// A 3-deep nest whose middle level can be empty mid-domain:
    /// i in 0..=3, j in 2..=i (empty for i < 2), k in 0..=j.
    fn bouncy3() -> NestSpec {
        let s = Space::new(&["i", "j", "k"], &[]);
        NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.cst(3)),
                (s.cst(2), s.var("i")),
                (s.cst(0), s.var("j")),
            ],
        )
        .unwrap()
    }

    fn enumerate(nest: &NestSpec, params: &[i64]) -> Vec<Vec<i64>> {
        nest.enumerate(params).collect()
    }

    /// Walking the whole domain in one `limit = total` chunk must
    /// reproduce the enumeration, and every segment's guard fields
    /// must match per-point `NestPosition::of`.
    fn check_full_walk(nest: &NestSpec, params: &[i64]) {
        let bound = nest.bind(params);
        let points = enumerate(nest, params);
        if points.is_empty() {
            return;
        }
        let d = bound.depth();
        let mut walker = RowWalker::anchor(&bound, &points[0]);
        let mut remaining = points.len() as u64;
        let mut idx = 0usize;
        let mut first = true;
        while remaining > 0 {
            let seg = walker.next_segment(remaining);
            let mut offsets = Vec::new();
            walker.for_each(&seg, |p| {
                assert_eq!(p, &points[idx + offsets.len()][..], "point {idx}");
                offsets.push(p[d - 1]);
            });
            assert_eq!(offsets.len() as u64, seg.len);
            // Guard fields vs the per-point reference.
            let first_pos = NestPosition::of(&bound, &points[idx]);
            match seg.pre_from {
                Some(pre) => assert_eq!(pre, first_pos.pre_from(), "pre at {idx}"),
                None => assert!(first, "unknown entry only at the anchor"),
            }
            let last_pos = NestPosition::of(&bound, &points[idx + offsets.len() - 1]);
            assert_eq!(seg.post_from, last_pos.post_from(), "post at {idx}");
            // Interior points fire nothing.
            for (off, p) in points[idx..idx + offsets.len()].iter().enumerate() {
                let pos = NestPosition::of(&bound, p);
                if off > 0 {
                    assert_eq!(pos.pre_from(), d, "interior pre at {}", idx + off);
                }
                if off + 1 < offsets.len() {
                    assert_eq!(pos.post_from(), d, "interior post at {}", idx + off);
                }
            }
            idx += offsets.len();
            remaining -= seg.len;
            first = false;
        }
        assert_eq!(idx, points.len());
    }

    #[test]
    fn full_walk_matches_enumeration_and_positions() {
        check_full_walk(&NestSpec::correlation(), &[7]);
        check_full_walk(&NestSpec::figure6(), &[6]);
        check_full_walk(&NestSpec::rectangular(&[3, 4, 2]), &[]);
        check_full_walk(&NestSpec::rectangular(&[5]), &[]);
        check_full_walk(&bouncy_nest(), &[]);
        check_full_walk(&bouncy3(), &[]);
    }

    #[test]
    fn chunked_walks_cover_the_domain_at_every_chunk_size() {
        let nest = NestSpec::figure6();
        let bound = nest.bind(&[6]);
        let points = enumerate(&nest, &[6]);
        for chunk in [1u64, 2, 3, 5, 7, 100] {
            let mut got = Vec::new();
            // Anchor a fresh walker at every chunk head, as the
            // executors do.
            let mut s = 0usize;
            while s < points.len() {
                let len = (chunk as usize).min(points.len() - s);
                let mut walker = RowWalker::anchor(&bound, &points[s]);
                let mut remaining = len as u64;
                while remaining > 0 {
                    let seg = walker.next_segment(remaining);
                    walker.for_each(&seg, |p| got.push(p.to_vec()));
                    remaining -= seg.len;
                }
                s += len;
            }
            assert_eq!(got, points, "chunk={chunk}");
        }
    }

    #[test]
    fn mid_row_segments_report_no_guards() {
        // Split a 9-point row into 4+5: the first segment must report
        // post_from = depth (no epilogue) and the continuation
        // pre_from = depth (no prologue).
        let nest = NestSpec::correlation();
        let bound = nest.bind(&[10]); // row 0: j in 1..=9
        let mut walker = RowWalker::anchor(&bound, &[0, 1]);
        let seg = walker.next_segment(4);
        assert_eq!((seg.start, seg.len), (1, 4));
        assert_eq!(seg.post_from, 2);
        assert_eq!(seg.pre_from, None, "anchored: entry unknown");
        let seg = walker.next_segment(5);
        assert_eq!((seg.start, seg.len), (5, 5));
        assert_eq!(seg.pre_from, Some(2), "mid-row continuation");
        assert_eq!(seg.post_from, 0, "row 0 of the triangle ends here");
        // Next row opens with the level-0 carry.
        let seg = walker.next_segment(100);
        assert_eq!((seg.start, seg.len), (2, 8));
        assert_eq!(seg.pre_from, Some(0));
    }

    /// A depth-`d` nest with empty inner sub-nests: x0 in 0..=3 and,
    /// for 1 ≤ k < d−1, x_k in (k mod 2)..=x_{k−1}, so odd levels are
    /// empty under a zero parent and the carry bounces; the innermost
    /// level runs (d−1 mod 2)..=x_{d−2}+2, rows long enough to split.
    fn bouncy_deep(d: usize) -> NestSpec {
        let names: Vec<String> = (0..d).map(|k| format!("x{k}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let s = Space::new(&names, &[]);
        let mut bounds = vec![(s.cst(0), s.cst(3))];
        for k in 1..d {
            let lo = s.cst((k % 2) as i64);
            let hi = s.var(names[k - 1]);
            bounds.push(if k + 1 == d { (lo, hi + 2) } else { (lo, hi) });
        }
        NestSpec::new(s, bounds).unwrap()
    }

    /// Depths 2–3 run the per-depth row loop and 1, 4–6 the fallback:
    /// segments and the fused walk must both reproduce the
    /// `BoundNest::advance` enumeration under every chunk split (and
    /// segments under every mid-row limit), always handing the body a
    /// point of length `depth`.
    #[test]
    fn every_depth_walks_the_advance_enumeration() {
        for d in 1..=6 {
            let mut extents = vec![2i64; d - 1];
            extents.push(5);
            for nest in [bouncy_deep(d), NestSpec::rectangular(&extents)] {
                let bound = nest.bind(&[]);
                let points = advance_points(&bound);
                let total = points.len();
                for chunk in 1..=total {
                    for limit in [1u64, 2, 3, u64::MAX] {
                        let mut got = Vec::with_capacity(total);
                        for head in (0..total).step_by(chunk) {
                            let mut walker = RowWalker::anchor(&bound, &points[head]);
                            let mut remaining = chunk.min(total - head) as u64;
                            while remaining > 0 {
                                let seg = walker.next_segment(remaining.min(limit));
                                walker.for_each(&seg, |p| {
                                    assert_eq!(p.len(), d, "point length");
                                    got.push(p.to_vec());
                                });
                                remaining -= seg.len;
                            }
                        }
                        assert_eq!(got, points, "depth {d} chunk {chunk} limit {limit}");
                    }
                    // The fused walk over the same chunk split.
                    let mut got = Vec::with_capacity(total);
                    for head in (0..total).step_by(chunk) {
                        let mut walker = RowWalker::anchor(&bound, &points[head]);
                        let n = chunk.min(total - head) as u64;
                        let done = walker.walk(
                            n,
                            || false,
                            |p| {
                                assert_eq!(p.len(), d, "point length");
                                got.push(p.to_vec());
                            },
                        );
                        assert_eq!(done, n);
                    }
                    assert_eq!(got, points, "depth {d} chunk {chunk} fused");
                }
            }
        }
    }

    /// The `BoundNest::advance` enumeration of a non-empty nest.
    fn advance_points(bound: &BoundNest) -> Vec<Vec<i64>> {
        let mut points = Vec::new();
        let mut p = bound.first_point().expect("non-empty domain");
        loop {
            points.push(p.clone());
            if !bound.advance(&mut p) {
                break;
            }
        }
        points
    }

    /// A seeded xorshift stream: `below(n)` is uniform enough in `0..n`
    /// to pick the next driver call.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// One walker driven by a seeded mix of fused walks (some stopped
    /// by their hook), segments, skips and `point()` reads must visit
    /// exactly the `advance` enumeration, and every segment that knows
    /// its entry carry must report the per-point `NestPosition`
    /// reference — so each driver leaves the walker where the others
    /// pick up, mid-row or with the row-end carry deferred.
    #[test]
    fn mixed_drivers_reproduce_the_advance_enumeration() {
        for d in 1..=6 {
            let mut extents = vec![2i64; d - 1];
            extents.push(5);
            for nest in [bouncy_deep(d), NestSpec::rectangular(&extents)] {
                let bound = nest.bind(&[]);
                let points = advance_points(&bound);
                let total = points.len();
                for seed in 1..=40u64 {
                    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
                    let head = rng.below(total as u64) as usize;
                    let mut walker = RowWalker::anchor(&bound, &points[head]);
                    let mut at = head;
                    let ctx = |at: usize| format!("depth {d} seed {seed} at {at}");
                    while at < total {
                        let left = (total - at) as u64;
                        match rng.below(5) {
                            0 => {
                                let k = 1 + rng.below(left.min(12));
                                let mut got = Vec::new();
                                let done = walker.walk(k, || false, |p| got.push(p.to_vec()));
                                assert_eq!(done, k, "{}", ctx(at));
                                assert_eq!(got, points[at..at + k as usize], "{}", ctx(at));
                                at += k as usize;
                            }
                            1 => {
                                // Stop at the `polls`-th row start.
                                let k = 1 + rng.below(left);
                                let polls = 1 + rng.below(3);
                                let mut polled = 0;
                                let mut stopped_at = None;
                                let visited = Cell::new(0u64);
                                let mut got = Vec::new();
                                let stop = || {
                                    polled += 1;
                                    if polled == polls {
                                        stopped_at = Some(visited.get());
                                    }
                                    polled == polls
                                };
                                let done = walker.walk(k, stop, |p| {
                                    visited.set(visited.get() + 1);
                                    got.push(p.to_vec());
                                });
                                assert_eq!(done, stopped_at.unwrap_or(k), "{}", ctx(at));
                                assert_eq!(got, points[at..at + done as usize], "{}", ctx(at));
                                at += done as usize;
                            }
                            2 => {
                                let seg = walker.next_segment(1 + rng.below(left));
                                let mut got = Vec::new();
                                walker.for_each(&seg, |p| got.push(p.to_vec()));
                                assert_eq!(got.len() as u64, seg.len, "{}", ctx(at));
                                assert_eq!(got, points[at..at + got.len()], "{}", ctx(at));
                                if let Some(pre) = seg.pre_from {
                                    let pos = NestPosition::of(&bound, &points[at]);
                                    assert_eq!(pre, pos.pre_from(), "{}", ctx(at));
                                }
                                let last = NestPosition::of(&bound, &points[at + got.len() - 1]);
                                assert_eq!(seg.post_from, last.post_from(), "{}", ctx(at));
                                at += got.len();
                            }
                            3 => {
                                let k = rng.below(left);
                                assert!(walker.skip(k), "{}", ctx(at));
                                at += k as usize;
                            }
                            _ => assert_eq!(walker.point(), &points[at][..], "{}", ctx(at)),
                        }
                    }
                }
            }
        }
    }

    /// A walk that owes points past the domain's end fails loudly, in
    /// release builds too.
    #[test]
    #[should_panic(expected = "ran past the domain's end")]
    fn walking_past_the_end_panics() {
        let bound = NestSpec::correlation().bind(&[9]);
        let total = NestSpec::correlation().count_enumerated(&[9]) as u64;
        let mut walker = RowWalker::anchor(&bound, &[0, 1]);
        walker.walk(total + 1, || false, |_| {});
    }

    #[test]
    fn skip_matches_advance_by() {
        for (nest, params) in [
            (NestSpec::correlation(), vec![9i64]),
            (NestSpec::figure6(), vec![6]),
            (bouncy_nest(), vec![]),
            (bouncy3(), vec![]),
        ] {
            let bound = nest.bind(&params);
            let points = enumerate(&nest, &params);
            for stride in [1u64, 2, 3, 7, 32] {
                let mut walker = RowWalker::anchor(&bound, &points[0]);
                let mut reference = points[0].clone();
                let mut at = 0usize;
                loop {
                    assert_eq!(walker.point(), &reference[..], "stride={stride} at={at}");
                    if at + (stride as usize) >= points.len() {
                        assert!(!walker.skip(stride), "must exhaust");
                        assert!(!bound.advance_by(&mut reference, stride));
                        break;
                    }
                    assert!(walker.skip(stride));
                    assert!(bound.advance_by(&mut reference, stride));
                    at += stride as usize;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=MAX_DEPTH")]
    fn zero_depth_nests_are_rejected() {
        let bound = nrl_polyhedra::BoundNest::new(vec![]);
        let _ = RowWalker::anchor(&bound, &[]);
    }
}
