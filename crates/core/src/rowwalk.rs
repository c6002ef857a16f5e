//! [`RowWalker`]: the shared row-segmented iteration core of every
//! collapsed executor.
//!
//! A chunk of the collapsed loop is a contiguous run of ranks, and in
//! the original iteration space a contiguous run decomposes into **row
//! segments**: maximal runs where only the innermost iterator moves.
//! Walking a chunk therefore costs one inclusive-bound query per row
//! plus one odometer carry per row transition — never a per-point
//! bounds query. Every executor — the once-per-chunk loop, the guarded
//! walk, the reductions and scans, the warp executor's strided advance
//! — shares this one implementation.
//!
//! The walker also exposes, for free, exactly the information the
//! guarded (imperfect-nest) executor needs: the **carry depths** at a
//! row's two ends.
//!
//! * Entering a row, the carry that produced it incremented some level
//!   `c` and reset every deeper level to its lexicographic minimum —
//!   so the row's first point has `pre_from = c` (all prologues from
//!   level `c` inward fire there), pointwise identical to
//!   [`NestPosition::of`](crate::imperfect::NestPosition::of).
//! * Leaving a row, the first level able to advance — the level the
//!   next carry will increment first — is `post_from` of the row's
//!   last point (all epilogues from it inward fire).
//!
//! Both equalities are *pointwise* (they are the same bound
//! comparisons `NestPosition::of` performs, done once per row instead
//! of once per point), so they hold on any domain — including domains
//! with empty inner sub-nests, where the carry bounces.
//!
//! The carry out of a finished row is **deferred** to the next
//! [`next_segment`](RowWalker::next_segment) call: after a segment is
//! produced, [`for_each`](RowWalker::for_each) still sees the
//! segment's own row prefix, and a chunk's final carry is never paid
//! at all.
//!
//! The innermost loop — the original nest's `j++`, run once per point
//! — is [`for_each`](RowWalker::for_each), and it is compiled once per
//! nest depth for depths 2 and 3 (every paper and benchmark shape is
//! 2–3 deep): the row prefix is copied into a local `[i64; D]` and only
//! its last entry changes per point. A body inlined into that loop sees a
//! point of constant length, so a body reading constant indexes
//! (`c0·p[0] + c1·p[1] + c2·p[2]`) becomes a register-only loop with no
//! bounds checks, which the compiler may vectorize. Opaque bodies gain
//! nothing: a body behind `black_box`, a `dyn Fn`, or serve's
//! type-erased bodies still receive a slice they must index at run
//! time. Other depths share one loop over a local `[i64; MAX_DEPTH]`.

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

/// What must happen to the walker's point before the next segment can
/// be produced (carries are deferred so segment consumers can keep
/// reading the current row's prefix).
#[derive(Clone, Copy, Debug)]
enum Pending {
    /// Point is already the next segment's first point (fresh anchor).
    Ready,
    /// Move the innermost iterator to this value (mid-row
    /// continuation).
    InRow(i64),
    /// Carry into the next row, first incrementing at this level
    /// (`None`: the finished row was the domain's last).
    Carry(Option<usize>),
}

/// The shared row-segmented iteration core: owns the current point and
/// yields [`RowSegment`]s (or strided skips) over a [`BoundNest`],
/// paying one carry per row transition.
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

    /// The current point — the first point of the segment that
    /// [`next_segment`](Self::next_segment) will produce next (or, for
    /// [`skip`](Self::skip)-driven walks, the point to execute).
    ///
    /// After `next_segment`, the **prefix** `point()[..depth−1]` keeps
    /// describing the produced segment's row until the next call; the
    /// innermost entry is unspecified (use [`RowSegment::start`]).
    pub fn point(&mut self) -> &[i64] {
        self.resolve_pending();
        &self.point[..self.depth]
    }

    /// Applies any deferred movement so `point` is the next segment's
    /// first point.
    fn resolve_pending(&mut self) {
        match self.pending {
            Pending::Ready => {}
            Pending::InRow(j) => {
                self.point[self.depth - 1] = j;
                self.entry = Some(self.depth);
                self.pending = Pending::Ready;
            }
            Pending::Carry(carry) => {
                self.pending = Pending::Ready;
                self.carry_into_next_row(carry);
            }
        }
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
        let (post_from, carry) = self.scan_row_exit();
        self.pending = Pending::Carry(carry);
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
    /// Nests of depth 2 and 3 run a loop compiled for their depth (see
    /// the module docs); other depths share one loop over a local copy
    /// of the point. The walker's own point is not written.
    #[inline]
    pub fn for_each(&self, seg: &RowSegment, mut f: impl FnMut(&[i64])) {
        match self.depth {
            2 => row::<2>(&self.point, seg, f),
            3 => row::<3>(&self.point, seg, f),
            d => {
                let mut p = self.point;
                for r in 0..seg.len {
                    p[d - 1] = seg.start + r as i64;
                    f(&p[..d]);
                }
            }
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
            let (_, carry) = self.scan_row_exit();
            self.carry_into_next_row(carry);
        }
    }

    /// With the innermost iterator at its row end, finds the first
    /// level (inward-out) still below its upper bound — the level the
    /// next carry increments first. Returns `(post_from, carry
    /// level)`: `post_from` of the row's last point per the
    /// `NestPosition` convention (`depth` for depth-1 nests, matching
    /// `NestPosition::of`, whose scans never reach level 0; `0` when
    /// every level is exhausted), and `None` for the carry when the
    /// whole domain is exhausted.
    fn scan_row_exit(&self) -> (usize, Option<usize>) {
        let mut k = self.depth - 1;
        while k > 0 {
            let k1 = k - 1;
            if self.point[k1] < self.nest.upper(k1, &self.point) {
                return (k1, Some(k1));
            }
            k = k1;
        }
        (if self.depth == 1 { 1 } else { 0 }, None)
    }

    /// Performs the row carry: increments at `carry` (proven able to
    /// advance by [`scan_row_exit`](Self::scan_row_exit)), then
    /// descends the lower-bound chain, re-carrying past empty
    /// sub-nests. On success `entry` holds the outermost level that
    /// changed — `pre_from` of the new row's first point.
    fn carry_into_next_row(&mut self, carry: Option<usize>) {
        let Some(mut k) = carry else {
            self.exhausted = true;
            return;
        };
        let d = self.depth;
        // The scan proved level `k` can advance, so the first increment
        // needs no bound check.
        self.point[k] += 1;
        loop {
            // Descend: every deeper level to its lower bound.
            let mut level = k + 1;
            while level < d {
                self.point[level] = self.nest.lower(level, &self.point);
                if self.point[level] > self.nest.upper(level, &self.point) {
                    break;
                }
                level += 1;
            }
            if level == d {
                self.entry = Some(k);
                return;
            }
            // Empty sub-nest: resume carrying at its parent.
            k = level - 1;
            loop {
                self.point[k] += 1;
                if self.point[k] <= self.nest.upper(k, &self.point) {
                    break;
                }
                if k == 0 {
                    self.exhausted = true;
                    return;
                }
                k -= 1;
            }
        }
    }
}

/// The row loop of [`RowWalker::for_each`] for a nest of depth `D`:
/// the row prefix is copied once into a local `[i64; D]` and only its
/// innermost entry is written per point, so an inlined body sees a
/// fixed-length point whose constant indexes need no bounds checks and
/// can stay in registers.
#[inline(always)]
fn row<const D: usize>(point: &[i64; MAX_DEPTH], seg: &RowSegment, mut f: impl FnMut(&[i64])) {
    let mut p = [0i64; D];
    p.copy_from_slice(&point[..D]);
    for r in 0..seg.len {
        p[D - 1] = seg.start + r as i64;
        f(&p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imperfect::NestPosition;
    use nrl_polyhedra::{NestSpec, Space};

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

    /// Depths 2–3 run the per-depth `row::<D>` loop and 1, 4–6 the
    /// fallback: both must reproduce the `BoundNest::advance`
    /// enumeration under every chunk split and mid-row segment limit,
    /// always handing the body a point of length `depth`.
    #[test]
    fn every_depth_walks_the_advance_enumeration() {
        for d in 1..=6 {
            let mut extents = vec![2i64; d - 1];
            extents.push(5);
            for nest in [bouncy_deep(d), NestSpec::rectangular(&extents)] {
                let bound = nest.bind(&[]);
                let mut points = Vec::new();
                let mut p = bound.first_point().expect("non-empty domain");
                loop {
                    points.push(p.clone());
                    if !bound.advance(&mut p) {
                        break;
                    }
                }
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
                }
            }
        }
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
