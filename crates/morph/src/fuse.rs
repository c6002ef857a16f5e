//! Load-balanced fusion of collapsed nests of different shapes.

use crate::MorphError;
use nrl_core::unrank::MAX_DEPTH;
use nrl_core::{Collapsed, RowWalker};
use nrl_parfor::{ImbalanceReport, Schedule, ThreadPool};

/// Walks the `count ≥ 1` iterations of `collapsed` from rank `pc` on,
/// invoking `body` on each: one recovery at `pc`, then the shared
/// [`RowWalker`] row walk (one odometer carry per row, not per point).
fn walk_from<F: FnMut(&[i64])>(collapsed: &Collapsed, pc: i128, count: u64, mut body: F) {
    let d = collapsed.depth();
    if d == 0 {
        for _ in 0..count {
            body(&[]);
        }
        return;
    }
    let mut anchor = [0i64; MAX_DEPTH];
    let anchor = &mut anchor[..d];
    collapsed.unrank_into(pc, anchor);
    RowWalker::anchor(collapsed.nest(), anchor).walk(count, || false, body);
}

/// Several collapsed nests concatenated into one flat index space.
///
/// Part `p` with `total_p` iterations occupies global ranks
/// `offset_p + 1 ..= offset_p + total_p` where `offset_p` is the sum of
/// the preceding parts' totals. A single parallel loop over
/// `1 ..= Σ total_p` then schedules *all* the work at once: each thread
/// receives an equal slice of the combined iteration count, regardless
/// of how differently shaped (or sized) the individual nests are.
///
/// Compare with the alternatives the paper's motivation rules out:
/// running the nests one after another pays a barrier and a fresh
/// imbalance per nest; fusing by hand requires the nests to have
/// compatible bounds. Rank-space fusion needs neither.
///
/// Within a chunk, iterations run in global rank order: all remaining
/// points of the part containing the chunk start, then the following
/// parts' points, each in its own lexicographic order. Index recovery
/// is paid once per chunk *entry* into a part (the §V cost model);
/// subsequent points advance by odometer steps.
///
/// # Example
///
/// ```
/// use nrl_core::{CollapseSpec, NestSpec};
/// use nrl_morph::FusedLoop;
///
/// let tri = CollapseSpec::new(&NestSpec::correlation()).unwrap().bind(&[5]).unwrap();
/// let tetra = CollapseSpec::new(&NestSpec::figure6()).unwrap().bind(&[4]).unwrap();
/// let fused = FusedLoop::new(vec![tri, tetra]).unwrap();
/// assert_eq!(fused.total(), 10 + 10);
/// // Global rank 11 is the tetrahedron's first point (0, 0, 0).
/// assert_eq!(fused.locate(11), (1, 1));
/// let mut buf = vec![0i64; fused.max_depth()];
/// assert_eq!(fused.unrank_into(11, &mut buf), 1);
/// assert_eq!(&buf[..3], &[0, 0, 0]);
/// ```
#[derive(Debug)]
pub struct FusedLoop {
    parts: Vec<Collapsed>,
    /// `starts[p]` = global rank offset of part `p`; `starts[len]` = total.
    starts: Vec<i128>,
}

impl FusedLoop {
    /// Fuses the given nests in order. At least one part is required
    /// (parts with zero iterations are allowed and simply contribute
    /// nothing).
    pub fn new(parts: Vec<Collapsed>) -> Result<Self, MorphError> {
        if parts.is_empty() {
            return Err(MorphError::NoParts);
        }
        let mut starts = Vec::with_capacity(parts.len() + 1);
        let mut acc = 0i128;
        for part in &parts {
            starts.push(acc);
            acc += part.total().max(0);
        }
        starts.push(acc);
        Ok(FusedLoop { parts, starts })
    }

    /// Total iterations across all parts.
    pub fn total(&self) -> i128 {
        *self.starts.last().expect("at least one part")
    }

    /// Number of fused parts.
    pub fn nparts(&self) -> usize {
        self.parts.len()
    }

    /// The fused parts, in fusion order.
    pub fn parts(&self) -> &[Collapsed] {
        &self.parts
    }

    /// Largest depth over the parts (buffer size for
    /// [`Self::unrank_into`]).
    pub fn max_depth(&self) -> usize {
        self.parts.iter().map(|p| p.depth()).max().unwrap_or(0)
    }

    /// Maps a global rank `pc ∈ 1..=total` to `(part, local_pc)` with
    /// `local_pc ∈ 1..=parts[part].total()`.
    ///
    /// # Panics
    /// Panics if `pc` is out of range.
    pub fn locate(&self, pc: i128) -> (usize, i128) {
        assert!(
            pc >= 1 && pc <= self.total(),
            "pc {pc} outside 1..={}",
            self.total()
        );
        // First part whose end (starts[p+1]) reaches pc. Zero-total
        // parts have start == end < pc and are skipped.
        let part = self.starts[1..].partition_point(|&end| end < pc);
        (part, pc - self.starts[part])
    }

    /// Global rank of `point` in part `part`.
    pub fn rank(&self, part: usize, point: &[i64]) -> i128 {
        self.starts[part] + self.parts[part].rank(point)
    }

    /// Recovers the iteration of global rank `pc`, writing the point
    /// into the first `depth` slots of `point` and returning the part
    /// index. `point` must hold at least [`Self::max_depth`] values.
    pub fn unrank_into(&self, pc: i128, point: &mut [i64]) -> usize {
        let (part, local) = self.locate(pc);
        self.parts[part].unrank_into(local, &mut point[..self.parts[part].depth()]);
        part
    }

    /// Runs `body(tid, part, point)` for every iteration of every part,
    /// sequentially, in global rank order — the correctness reference
    /// for [`Self::par_for_each`].
    pub fn seq_for_each<F: FnMut(usize, &[i64])>(&self, mut body: F) {
        for (part, collapsed) in self.parts.iter().enumerate() {
            if collapsed.total() > 0 {
                walk_from(collapsed, 1, collapsed.total() as u64, |p| body(part, p));
            }
        }
    }

    /// Runs `body(tid, part, point)` for every iteration of every part
    /// in parallel under `schedule`, slicing the *combined* rank space.
    ///
    /// Index recovery runs once per (chunk, part-entry); within a part,
    /// points advance by odometer steps.
    pub fn par_for_each<F>(&self, pool: &ThreadPool, schedule: Schedule, body: F) -> ImbalanceReport
    where
        F: Fn(usize, usize, &[i64]) + Sync,
    {
        let total_u64 = u64::try_from(self.total().max(0)).expect("total exceeds u64");
        pool.parallel_for(total_u64, schedule, &|tid, s, e| {
            debug_assert!(s < e);
            // Global ranks are 1-based: the chunk covers s+1 ..= e.
            let (mut part, mut local) = self.locate((s + 1) as i128);
            let mut remaining = e - s;
            while remaining > 0 {
                let collapsed = &self.parts[part];
                // Points left in this part from `local` on, capped by
                // the chunk.
                let in_part = ((collapsed.total() - local + 1) as u64).min(remaining);
                let this_part = part;
                walk_from(collapsed, local, in_part, |p| body(tid, this_part, p));
                remaining -= in_part;
                // Enter the next non-empty part at its first point.
                part += 1;
                while part < self.parts.len() && self.parts[part].total() <= 0 {
                    part += 1;
                }
                local = 1;
                debug_assert!(
                    remaining == 0 || part < self.parts.len(),
                    "ran out of parts with work remaining"
                );
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrl_core::{CollapseSpec, NestSpec, Schedule, ThreadPool};
    use std::sync::Mutex;

    fn collapse(nest: &NestSpec, params: &[i64]) -> Collapsed {
        CollapseSpec::new(nest).unwrap().bind(params).unwrap()
    }

    fn reference(fused: &FusedLoop) -> Vec<(usize, Vec<i64>)> {
        let mut v = Vec::new();
        fused.seq_for_each(|part, p| v.push((part, p.to_vec())));
        v
    }

    #[test]
    fn rejects_empty_part_list() {
        assert_eq!(FusedLoop::new(vec![]).unwrap_err(), MorphError::NoParts);
    }

    #[test]
    fn totals_and_locate() {
        let fused = FusedLoop::new(vec![
            collapse(&NestSpec::correlation(), &[5]), // 10 points
            collapse(&NestSpec::figure6(), &[4]),     // 10 points
        ])
        .unwrap();
        assert_eq!(fused.total(), 20);
        assert_eq!(fused.locate(1), (0, 1));
        assert_eq!(fused.locate(10), (0, 10));
        assert_eq!(fused.locate(11), (1, 1));
        assert_eq!(fused.locate(20), (1, 10));
    }

    #[test]
    fn locate_skips_empty_parts() {
        let fused = FusedLoop::new(vec![
            collapse(&NestSpec::correlation(), &[1]), // empty
            collapse(&NestSpec::correlation(), &[4]), // 6 points
            collapse(&NestSpec::correlation(), &[1]), // empty
            collapse(&NestSpec::correlation(), &[3]), // 3 points
        ])
        .unwrap();
        assert_eq!(fused.total(), 9);
        assert_eq!(fused.locate(1), (1, 1));
        assert_eq!(fused.locate(6), (1, 6));
        assert_eq!(fused.locate(7), (3, 1));
        assert_eq!(fused.locate(9), (3, 3));
    }

    #[test]
    fn seq_matches_part_enumerations() {
        let fused = FusedLoop::new(vec![
            collapse(&NestSpec::correlation(), &[6]),
            collapse(&NestSpec::figure6(), &[5]),
        ])
        .unwrap();
        let got = reference(&fused);
        let mut expect = Vec::new();
        for p in NestSpec::correlation().enumerate(&[6]) {
            expect.push((0usize, p));
        }
        for p in NestSpec::figure6().enumerate(&[5]) {
            expect.push((1usize, p));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn unrank_roundtrips_global_ranks() {
        let fused = FusedLoop::new(vec![
            collapse(&NestSpec::figure6(), &[6]),
            collapse(&NestSpec::correlation(), &[7]),
        ])
        .unwrap();
        let mut buf = vec![0i64; fused.max_depth()];
        for pc in 1..=fused.total() {
            let part = fused.unrank_into(pc, &mut buf);
            let d = fused.parts()[part].depth();
            assert_eq!(fused.rank(part, &buf[..d]), pc, "pc={pc}");
        }
    }

    #[test]
    fn par_covers_everything_under_all_schedules() {
        let fused = FusedLoop::new(vec![
            collapse(&NestSpec::correlation(), &[15]),
            collapse(&NestSpec::figure6(), &[8]),
            collapse(&NestSpec::rectangular(&[3, 4]), &[]),
        ])
        .unwrap();
        let pool = ThreadPool::new(4);
        let mut expect = reference(&fused);
        expect.sort();
        for schedule in [
            Schedule::Static,
            Schedule::StaticChunk(5),
            Schedule::Dynamic(3),
            Schedule::Guided(2),
        ] {
            let seen = Mutex::new(Vec::new());
            fused.par_for_each(&pool, schedule, |_tid, part, p| {
                seen.lock().unwrap().push((part, p.to_vec()));
            });
            let mut got = seen.into_inner().unwrap();
            got.sort();
            assert_eq!(got, expect, "{schedule:?}");
        }
    }

    #[test]
    fn par_handles_empty_parts_between_work() {
        let fused = FusedLoop::new(vec![
            collapse(&NestSpec::correlation(), &[1]),
            collapse(&NestSpec::correlation(), &[10]),
            collapse(&NestSpec::figure6(), &[2]),
            collapse(&NestSpec::figure6(), &[6]),
        ])
        .unwrap();
        let pool = ThreadPool::new(3);
        let seen = Mutex::new(Vec::new());
        fused.par_for_each(&pool, Schedule::StaticChunk(4), |_tid, part, p| {
            seen.lock().unwrap().push((part, p.to_vec()));
        });
        let mut got = seen.into_inner().unwrap();
        got.sort();
        let mut expect = reference(&fused);
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn fusion_balances_mismatched_shapes() {
        // A large triangle plus a small one: a per-part parallel run
        // leaves threads idle during the small part; the fused loop
        // splits the union evenly.
        let fused = FusedLoop::new(vec![
            collapse(&NestSpec::correlation(), &[120]),
            collapse(&NestSpec::correlation(), &[20]),
        ])
        .unwrap();
        let pool = ThreadPool::new(5);
        let report = fused.par_for_each(&pool, Schedule::Static, |_, _, _| {});
        assert!(
            report.iteration_imbalance() < 1.01,
            "fused static should be near-perfectly balanced: ×{:.3}",
            report.iteration_imbalance()
        );
    }

    #[test]
    fn single_part_fusion_degenerates_to_collapse() {
        let fused = FusedLoop::new(vec![collapse(&NestSpec::correlation(), &[12])]).unwrap();
        let pool = ThreadPool::new(2);
        let seen = Mutex::new(Vec::new());
        fused.par_for_each(&pool, Schedule::Static, |_tid, part, p| {
            assert_eq!(part, 0);
            seen.lock().unwrap().push(p.to_vec());
        });
        let mut got = seen.into_inner().unwrap();
        got.sort();
        let mut expect: Vec<Vec<i64>> = NestSpec::correlation().enumerate(&[12]).collect();
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn all_empty_runs_nothing() {
        // N = 1 gives an empty (but well-formed) correlation domain.
        let fused = FusedLoop::new(vec![
            collapse(&NestSpec::correlation(), &[1]),
            collapse(&NestSpec::correlation(), &[1]),
        ])
        .unwrap();
        assert_eq!(fused.total(), 0);
        fused.seq_for_each(|_, _| panic!("no iterations expected"));
        let pool = ThreadPool::new(2);
        fused.par_for_each(&pool, Schedule::Static, |_, _, _| {
            panic!("no iterations expected")
        });
    }
}
