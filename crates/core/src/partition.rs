//! Balanced *outer-loop* partitioning — the related-work baseline the
//! paper positions itself against (§VIII).
//!
//! Sakellariou \[14\], Kejariwal et al. \[15\] and Kafri–Sbeih \[16\] balance
//! non-rectangular loops by cutting the **outermost** loop into
//! contiguous ranges of near-equal iteration mass (computed from
//! symbolic cost estimates or geometry). Having the exact ranking
//! polynomial lets this library implement the *idealized* version of
//! those schemes: cut points are placed by binary search on the exact
//! rank, so each thread's range holds as close to `total/T` iterations
//! as row granularity allows.
//!
//! The comparison this enables (see the `ablation` harness) is the
//! paper's §VIII argument made quantitative:
//!
//! * on row-rich domains, exact outer partitioning nearly matches the
//!   collapsed schedule (rows are fine-grained enough to balance);
//! * it can never split a *single* outer row across threads, so it
//!   degrades on short-fat domains (rows ≤ threads) and on any domain
//!   whose last rows are large — while the collapsed loop's rank-space
//!   split is granularity-free.

use crate::collapsed::Collapsed;
use crate::exec::run_outer_rows;
use nrl_parfor::{ImbalanceReport, Schedule, ThreadPool};

/// Contiguous outer-index ranges `[start, end)`, one per thread, with
/// near-equal iteration mass. Empty ranges (`start == end`) appear when
/// there are fewer outer rows than threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OuterCuts {
    /// `cuts[t]..cuts[t+1]` is thread `t`'s outer-index range.
    pub cuts: Vec<i64>,
}

impl OuterCuts {
    /// The outer range of thread `t`.
    pub fn range(&self, t: usize) -> (i64, i64) {
        (self.cuts[t], self.cuts[t + 1])
    }

    /// Number of threads the cuts were computed for.
    pub fn nthreads(&self) -> usize {
        self.cuts.len() - 1
    }
}

/// Rank of the first iteration whose outermost index is `i` (the row's
/// first point, following the lexmin continuation), minus one — i.e.
/// the number of iterations strictly before row `i`.
fn iterations_before_row(collapsed: &Collapsed, i: i64) -> i128 {
    let nest = collapsed.nest();
    let d = collapsed.depth();
    let mut point = vec![0i64; d];
    point[0] = i;
    for k in 1..d {
        point[k] = nest.lower(k, &point[..k]);
    }
    collapsed.rank(&point) - 1
}

/// Computes balanced outer cuts for `nthreads` threads by exact-rank
/// binary search: thread `t` receives outer rows `[cuts[t], cuts[t+1])`
/// where `cuts[t]` is the smallest row with at least `t·total/T`
/// iterations before it.
///
/// Cost: `O(T · depth · log(rows))` exact polynomial evaluations.
///
/// # Example
///
/// ```
/// use nrl_core::{balanced_outer_cuts, CollapseSpec, NestSpec};
///
/// // The N = 9 triangle has rows of 8, 7, …, 1 iterations (36 total).
/// let collapsed = CollapseSpec::new(&NestSpec::correlation())
///     .unwrap()
///     .bind(&[9])
///     .unwrap();
/// let cuts = balanced_outer_cuts(&collapsed, 2);
/// // The cut lands at the first row with ≥ 18 iterations before it:
/// // rows 0–2 hold 21 iterations, rows 3–7 hold 15 (a row-aligned
/// // split can do no better than 21/15 on this triangle).
/// assert_eq!(cuts.range(0), (0, 3));
/// assert_eq!(cuts.range(1), (3, 8));
/// ```
///
/// # Panics
/// Panics if `nthreads == 0` or the collapsed domain has depth 0.
pub fn balanced_outer_cuts(collapsed: &Collapsed, nthreads: usize) -> OuterCuts {
    assert!(nthreads > 0, "need at least one thread");
    assert!(collapsed.depth() > 0, "need at least one loop");
    let nest = collapsed.nest();
    let lb0 = nest.lower(0, &[]);
    let ub0 = nest.upper(0, &[]);
    let total = collapsed.total().max(0);
    let t128 = nthreads as i128;
    let mut cuts = Vec::with_capacity(nthreads + 1);
    cuts.push(lb0);
    for t in 1..nthreads {
        let target = total * t as i128 / t128;
        // Smallest row r in [prev, ub0+1] with iterations_before_row(r)
        // ≥ target. `iterations_before_row` is monotone in the row.
        let (mut lo, mut hi) = (*cuts.last().unwrap(), ub0 + 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if iterations_before_row(collapsed, mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        cuts.push(lo);
    }
    cuts.push(ub0 + 1);
    OuterCuts { cuts }
}

/// Runs the original (non-collapsed) nest with each thread executing
/// its [`OuterCuts`] row range — the idealized related-work baseline.
/// The items are the threads' ranges: a static schedule over `T` items
/// gives item `t` to thread `t`.
pub fn run_outer_partitioned<F>(
    pool: &ThreadPool,
    collapsed: &Collapsed,
    cuts: &OuterCuts,
    body: F,
) -> ImbalanceReport
where
    F: Fn(usize, &[i64]) + Sync,
{
    assert_eq!(
        cuts.nthreads(),
        pool.nthreads(),
        "cuts were computed for a different thread count"
    );
    run_outer_rows(
        pool,
        collapsed.nest(),
        cuts.nthreads() as u64,
        Schedule::Static,
        |s, e| (cuts.cuts[s as usize], cuts.cuts[e as usize]),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapsed::CollapseSpec;
    use nrl_polyhedra::{NestSpec, Space};
    use std::sync::Mutex;

    fn collapse(nest: &NestSpec, params: &[i64]) -> Collapsed {
        CollapseSpec::new(nest).unwrap().bind(params).unwrap()
    }

    /// Iterations inside an outer-row range, counted by enumeration.
    fn mass(nest: &NestSpec, params: &[i64], lo: i64, hi: i64) -> i128 {
        nest.enumerate(params)
            .filter(|p| p[0] >= lo && p[0] < hi)
            .count() as i128
    }

    #[test]
    fn cuts_partition_the_outer_range() {
        let nest = NestSpec::correlation();
        let collapsed = collapse(&nest, &[50]);
        for t in [1usize, 2, 3, 5, 12] {
            let cuts = balanced_outer_cuts(&collapsed, t);
            assert_eq!(cuts.cuts.len(), t + 1);
            assert_eq!(cuts.cuts[0], 0);
            assert_eq!(*cuts.cuts.last().unwrap(), 49); // ub0 + 1 = 48 + 1
            for w in cuts.cuts.windows(2) {
                assert!(w[0] <= w[1], "cuts must be monotone: {cuts:?}");
            }
        }
    }

    #[test]
    fn cuts_balance_within_one_row() {
        // On a triangle, any two threads' masses differ by at most the
        // largest row crossing a cut boundary.
        let nest = NestSpec::correlation();
        let n = 101i64;
        let collapsed = collapse(&nest, &[n]);
        let total = collapsed.total();
        for t in [2usize, 4, 7] {
            let cuts = balanced_outer_cuts(&collapsed, t);
            let ideal = total / t as i128;
            for k in 0..t {
                let (lo, hi) = cuts.range(k);
                let m = mass(&nest, &[n], lo, hi);
                // Each share is within one max-row-size of ideal.
                let max_row = (n - 1) as i128;
                assert!(
                    (m - ideal).abs() <= max_row,
                    "thread {k} of {t}: mass {m}, ideal {ideal}"
                );
            }
        }
    }

    #[test]
    fn short_fat_domain_starves_threads() {
        // 3 rows, 8 threads: at least 5 ranges must be empty — the
        // structural weakness of outer partitioning that collapsing
        // does not have.
        let s = Space::new(&["i", "j"], &["R", "W"]);
        let nest = NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.var("R") - 1),
                (s.var("i"), s.var("i") + s.var("W")),
            ],
        )
        .unwrap();
        let collapsed = collapse(&nest, &[3, 1000]);
        let cuts = balanced_outer_cuts(&collapsed, 8);
        let empty = (0..8)
            .filter(|&t| {
                let (lo, hi) = cuts.range(t);
                lo == hi
            })
            .count();
        assert!(empty >= 5, "{cuts:?}");
    }

    #[test]
    fn partitioned_execution_covers_domain() {
        let nest = NestSpec::figure6();
        let collapsed = collapse(&nest, &[10]);
        let pool = ThreadPool::new(3);
        let cuts = balanced_outer_cuts(&collapsed, 3);
        let seen = Mutex::new(Vec::new());
        run_outer_partitioned(&pool, &collapsed, &cuts, |_t, p| {
            seen.lock().unwrap().push(p.to_vec());
        });
        let mut got = seen.into_inner().unwrap();
        got.sort();
        let mut expect: Vec<Vec<i64>> = nest.enumerate(&[10]).collect();
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn partitioned_beats_naive_static_on_triangle() {
        // The related-work schemes DO fix the naive-static skew on a
        // row-rich triangle…
        let nest = NestSpec::correlation();
        let collapsed = collapse(&nest, &[400]);
        let pool = ThreadPool::new(4);
        let cuts = balanced_outer_cuts(&collapsed, 4);
        let part = run_outer_partitioned(&pool, &collapsed, &cuts, |_, _| {});
        let naive = crate::exec::run_outer_parallel(
            &pool,
            collapsed.nest(),
            nrl_parfor::Schedule::Static,
            |_, _| {},
        );
        assert!(
            part.iteration_imbalance() < 1.02,
            "×{:.3}",
            part.iteration_imbalance()
        );
        assert!(
            naive.iteration_imbalance() > 1.4,
            "×{:.3}",
            naive.iteration_imbalance()
        );
    }

    #[test]
    fn collapsing_beats_partitioning_on_short_fat() {
        // …but cannot use more threads than rows, where collapsing can.
        let s = Space::new(&["i", "j"], &["R", "W"]);
        let nest = NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.var("R") - 1),
                (s.var("i"), s.var("i") + s.var("W")),
            ],
        )
        .unwrap();
        let collapsed = collapse(&nest, &[2, 5000]);
        let pool = ThreadPool::new(6);
        let cuts = balanced_outer_cuts(&collapsed, 6);
        let part = run_outer_partitioned(&pool, &collapsed, &cuts, |_, _| {});
        let busy_part = part
            .per_thread()
            .iter()
            .filter(|t| t.iterations > 0)
            .count();
        assert!(
            busy_part <= 2,
            "outer partitioning is capped at the row count"
        );
        let flat = collapsed.runner(&pool).run(|_, _| {}).report;
        let busy_flat = flat
            .per_thread()
            .iter()
            .filter(|t| t.iterations > 0)
            .count();
        assert_eq!(busy_flat, 6, "the collapsed loop uses every thread");
    }

    /// Thread `t` must execute exactly the points of `cuts.range(t)`:
    /// a cut/thread mix-up keeps coverage and the imbalance ratio but
    /// fails here.
    fn assert_threads_run_their_cuts(nest: &NestSpec, params: &[i64], nthreads: usize) {
        let collapsed = collapse(nest, params);
        let pool = ThreadPool::new(nthreads);
        let cuts = balanced_outer_cuts(&collapsed, nthreads);
        let report = run_outer_partitioned(&pool, &collapsed, &cuts, |_, _| {});
        for t in 0..nthreads {
            let (lo, hi) = cuts.range(t);
            assert_eq!(
                report.per_thread()[t].iterations as i128,
                mass(nest, params, lo, hi),
                "thread {t} of {nthreads}: {cuts:?}"
            );
        }
    }

    #[test]
    fn per_thread_points_match_cut_mass() {
        for t in [1usize, 2, 3, 5] {
            assert_threads_run_their_cuts(&NestSpec::correlation(), &[60], t);
        }
        let s = Space::new(&["i", "j"], &["R", "W"]);
        let short_fat = NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.var("R") - 1),
                (s.var("i"), s.var("i") + s.var("W")),
            ],
        )
        .unwrap();
        assert_threads_run_their_cuts(&short_fat, &[2, 5000], 6);
    }

    #[test]
    fn single_thread_cuts_are_whole_range() {
        let collapsed = collapse(&NestSpec::correlation(), &[20]);
        let cuts = balanced_outer_cuts(&collapsed, 1);
        assert_eq!(cuts.cuts, vec![0, 20 - 1]);
    }

    #[test]
    fn empty_domain_cuts_are_degenerate() {
        let collapsed = collapse(&NestSpec::correlation(), &[1]);
        let cuts = balanced_outer_cuts(&collapsed, 3);
        // ub0 = N − 2 = −1 < lb0 = 0: all ranges empty.
        for t in 0..3 {
            let (lo, hi) = cuts.range(t);
            assert!(lo >= hi, "range {t} must be empty: {cuts:?}");
        }
    }
}
