//! Real reduction bodies over kernel domains.
//!
//! The kernel set's correctness story so far has been *materialize and
//! checksum*: run the loop, fill the output matrix, fold it afterwards.
//! This module computes the same matrix aggregates directly as
//! **deterministic parallel reductions** over the collapsed iteration
//! space — no output array, one fold per point — through
//! [`Runner::reduce`](nrl_core::Runner::reduce), which guarantees the
//! result is bit-identical across schedules, recovery strategies, and
//! thread counts.
//!
//! Two implementations of every aggregate exist on purpose:
//!
//! * [`reduce_sum`] — the engine path: fixed-grid chunking, per-chunk
//!   partials joined in ascending chunk order (see
//!   [`nrl_core::reduce`]). The grid is a function of the domain alone,
//!   so the floating-point association — and therefore the bit pattern
//!   of the result — is identical across schedules, recovery
//!   strategies, and pool sizes.
//! * [`outer_sum`] — the hand-rolled baseline a programmer would write
//!   against the outer-parallel executor: per-worker
//!   [`WorkerLocal`] partials joined in thread-id order. Fast, but its
//!   value depends on how the schedule happened to split rows across
//!   workers — the exact non-determinism the engine path removes. The
//!   `reduce/` benches compare the two.
//!
//! The materialized checksums stay available on every kernel as the
//! ablation reference.

use nrl_core::{reducer, run_outer_parallel, run_seq, Recovery, Schedule, ThreadPool};
use nrl_parfor::WorkerLocal;
use nrl_polyhedra::BoundNest;

/// Folds `point_value` over every point of `collapsed` with the
/// deterministic fixed-grid reduction: the returned sum is bit-identical
/// across schedules, recovery strategies, and pool sizes (the chunk
/// grid — hence the fold's association — depends only on the domain),
/// and agrees with the sequential rank-order fold up to FP
/// reassociation of the chunk boundaries.
pub fn reduce_sum<F>(
    collapsed: &nrl_core::Collapsed,
    pool: &ThreadPool,
    schedule: Schedule,
    recovery: Recovery,
    point_value: F,
) -> f64
where
    F: Fn(&[i64]) -> f64 + Sync,
{
    let red = reducer(
        || 0.0f64,
        |_tid, p: &[i64], acc: &mut f64| *acc += point_value(p),
        |a, b| a + b,
    );
    collapsed
        .runner(pool)
        .schedule(schedule)
        .recovery(recovery)
        .reduce(&red)
        .value
}

/// The hand-rolled baseline: outer-parallel execution with per-worker
/// partials joined in thread-id order. Matches [`reduce_sum`] up to
/// floating-point reassociation — but not bitwise, and its exact value
/// shifts with the schedule's row placement.
pub fn outer_sum<F>(pool: &ThreadPool, bound: &BoundNest, schedule: Schedule, point_value: F) -> f64
where
    F: Fn(&[i64]) -> f64 + Sync,
{
    let partials = WorkerLocal::new(pool.nthreads(), |_| 0.0f64);
    run_outer_parallel(pool, bound, schedule, |tid, p| {
        partials.with(tid, |acc| *acc += point_value(p))
    });
    partials.into_iter().sum()
}

/// The sequential rank-order fold — the reference both parallel forms
/// are measured against ([`reduce_sum`] bitwise, [`outer_sum`]
/// approximately).
pub fn seq_sum<F>(bound: &BoundNest, point_value: F) -> f64
where
    F: Fn(&[i64]) -> f64,
{
    let mut acc = 0.0f64;
    run_seq(bound, |p| acc += point_value(p));
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Correlation, Covariance, Syrk};

    /// The engine aggregate must be bit-identical across every pool
    /// size, schedule, and recovery combination tested — the fixed
    /// chunk grid pins the fold's association — and must agree with
    /// the sequential rank-order fold up to boundary reassociation.
    #[test]
    fn reduce_is_bitwise_deterministic_across_everything() {
        let corr = Correlation::new(48);
        let cov = Covariance::new(37);
        let syrk = Syrk::new(41);
        type Aggregate<'a> = &'a dyn Fn(&ThreadPool, Schedule, Recovery) -> f64;
        let cases: [(&str, Aggregate, f64); 3] = [
            (
                "correlation",
                &|p, s, r| corr.update_aggregate(p, s, r),
                corr.update_aggregate_seq(),
            ),
            (
                "covariance",
                &|p, s, r| cov.update_aggregate(p, s, r),
                cov.update_aggregate_seq(),
            ),
            (
                "syrk",
                &|p, s, r| syrk.update_aggregate(p, s, r),
                syrk.update_aggregate_seq(),
            ),
        ];
        for (name, aggregate, seq) in cases {
            assert!(seq.is_finite() && seq != 0.0, "{name} reference");
            let canonical = aggregate(
                &ThreadPool::new(1),
                Schedule::Static,
                Recovery::OncePerChunk,
            );
            let rel = ((canonical - seq) / seq).abs();
            assert!(rel < 1e-12, "{name} vs seq fold: rel err {rel}");
            for nthreads in [1usize, 3, 8] {
                let pool = ThreadPool::new(nthreads);
                for schedule in [
                    Schedule::Static,
                    Schedule::Dynamic(7),
                    Schedule::StaticChunk(3),
                ] {
                    for recovery in [Recovery::OncePerChunk, Recovery::BinarySearch] {
                        let value = aggregate(&pool, schedule, recovery);
                        assert_eq!(
                            value.to_bits(),
                            canonical.to_bits(),
                            "{name} with {nthreads} threads under {schedule:?}/{recovery:?}"
                        );
                    }
                }
            }
        }
    }

    /// The hand-rolled outer baseline reassociates the fold, so it only
    /// approximates the reference — but it must land within normal FP
    /// accumulation error of it.
    #[test]
    fn outer_baseline_approximates_the_reference() {
        let corr = Correlation::new(48);
        let reference = corr.update_aggregate_seq();
        for nthreads in [1usize, 4] {
            let pool = ThreadPool::new(nthreads);
            for schedule in [Schedule::Static, Schedule::Dynamic(1)] {
                let value = corr.update_aggregate_outer(&pool, schedule);
                let rel = ((value - reference) / reference).abs();
                assert!(
                    rel < 1e-12,
                    "{nthreads} threads under {schedule:?}: rel err {rel}"
                );
            }
        }
    }

    /// Cross-check the reduction against an independent brute-force
    /// enumeration of the triangle — no collapse machinery involved, so
    /// a ranking/unranking bug cannot hide on both sides.
    #[test]
    fn aggregate_agrees_with_brute_force_enumeration() {
        let n = 40usize;
        let corr = Correlation::new(n);
        let mut brute = 0.0f64;
        for i in 0..n.saturating_sub(1) {
            for j in i + 1..n {
                brute += corr.point_value()(&[i as i64, j as i64]);
            }
        }
        let pool = ThreadPool::new(4);
        let reduced = corr.update_aggregate(&pool, Schedule::Static, Recovery::OncePerChunk);
        let rel = ((reduced - brute) / brute).abs();
        assert!(rel < 1e-12, "rel err {rel}");
    }
}
