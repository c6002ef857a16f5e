#![cfg(feature = "fault-inject")]
//! The containment matrix: deterministic faults (body panics, worker
//! delays, forced recovery overflow, analyze panics) swept across every
//! schedule × recovery combination, asserting the three containment
//! guarantees end to end:
//!
//! 1. a panic propagates to the caller of the `Runner` — and the pool
//!    survives: a follow-up sweep on the *same* pool is bit-identical
//!    to an undisturbed baseline;
//! 2. cancellation and deadlines halt within one row segment per
//!    worker, and `points_done` is the exact body-invocation count;
//! 3. every counter surface (`RecoveryStats`, `CacheStats`) stays
//!    consistent across faulted runs.
//!
//! Every test arms a [`FaultPlan`] — an empty one where no fault is
//! wanted — because arming holds the process-wide fault lock: the
//! armed sections serialize instead of observing each other's faults
//! (the cargo test harness runs `#[test]`s concurrently).

use nrl::parfor::faults::{self, FaultPlan};
use nrl::plan::{PlanCache, PlanContext};
use nrl::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

const N: i64 = 24;
const THREADS: usize = 4;

const SCHEDULES: [Schedule; 4] = [
    Schedule::Static,
    Schedule::StaticChunk(13),
    Schedule::Dynamic(7),
    Schedule::Guided(2),
];

const RECOVERIES: [Recovery; 5] = [
    Recovery::Naive,
    Recovery::OncePerChunk,
    Recovery::BinarySearch,
    Recovery::ClosedForm,
    Recovery::Reference,
];

/// Order-independent per-point contribution (wrapping sums commute, so
/// the checksum is schedule-blind and any lost or duplicated point
/// shifts it).
fn point_hash(p: &[i64]) -> i64 {
    let mut h = 0i64;
    for &x in p {
        h = h.rotate_left(13) ^ x.wrapping_mul(0x2545_F491_4F6C_DD1Du64 as i64);
    }
    h
}

/// Panic payloads are `&str` for literal `panic!`s and `String` for
/// formatted ones — normalize both.
fn payload_str(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .expect("panic payload must be a string")
}

fn collapse(n: i64) -> Collapsed {
    CollapseSpec::new(&NestSpec::correlation())
        .unwrap()
        .bind(&[n])
        .unwrap()
}

fn baseline_checksum(n: i64) -> i64 {
    NestSpec::correlation()
        .enumerate(&[n])
        .fold(0i64, |acc, p| acc.wrapping_add(point_hash(&p)))
}

/// A panic injected at the Kth body call propagates out of
/// `Runner::run` under every schedule × recovery, and the pool it
/// interrupted serves a bit-identical clean sweep right after.
#[test]
fn injected_panic_propagates_and_pool_survives() {
    let collapsed = collapse(N);
    let expect = baseline_checksum(N);
    let pool = ThreadPool::new(THREADS);
    for schedule in SCHEDULES {
        for recovery in RECOVERIES {
            {
                let _armed = FaultPlan::new().panic_at(37).arm();
                let sum = AtomicI64::new(0);
                let err = catch_unwind(AssertUnwindSafe(|| {
                    collapsed
                        .runner(&pool)
                        .schedule(schedule)
                        .recovery(recovery)
                        .run(|tid, p| {
                            faults::on_body_call(tid);
                            sum.fetch_add(point_hash(p), Ordering::Relaxed);
                        });
                }))
                .expect_err("injected panic must reach the caller");
                assert_eq!(
                    payload_str(&*err),
                    faults::INJECTED_PANIC,
                    "{schedule:?}/{recovery:?}"
                );
                assert!(
                    faults::body_calls() >= 37,
                    "the 37th call must have happened"
                );
            }
            // Guard dropped: same pool, clean sweep, bit-identical sum.
            let sum = AtomicI64::new(0);
            collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .run(|_, p| {
                    sum.fetch_add(point_hash(p), Ordering::Relaxed);
                });
            assert_eq!(
                sum.into_inner(),
                expect,
                "pool must be reusable after a panic ({schedule:?}/{recovery:?})"
            );
        }
    }
}

/// Cancelling mid-run yields `Cancelled` with `points_done` exactly
/// equal to the number of body invocations, and every worker stops
/// within one row segment (≤ N−1 extra points each).
#[test]
fn cancellation_halts_within_one_segment() {
    let collapsed = collapse(N);
    let total = NestSpec::correlation().enumerate(&[N]).count() as u64;
    let pool = ThreadPool::new(THREADS);
    let _armed = FaultPlan::new().arm(); // lock only: no faults wanted
    const CANCEL_AT: u64 = 50;
    for schedule in SCHEDULES {
        for recovery in RECOVERIES {
            let token = RunToken::new();
            let calls = AtomicU64::new(0);
            let outcome = collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .token(&token)
                .run(|_, _| {
                    if calls.fetch_add(1, Ordering::Relaxed) + 1 == CANCEL_AT {
                        token.cancel();
                    }
                })
                .outcome;
            let done = match outcome {
                RunOutcome::Cancelled { points_done } => points_done,
                other => panic!("expected Cancelled, got {other:?} ({schedule:?}/{recovery:?})"),
            };
            assert_eq!(
                done,
                calls.into_inner(),
                "points_done must be the exact invocation count ({schedule:?}/{recovery:?})"
            );
            // Each of the THREADS workers finishes at most the row
            // segment it is inside; correlation rows have ≤ N−1 points.
            let bound = CANCEL_AT + (THREADS as u64) * (N as u64 - 1);
            assert!(
                done <= bound.min(total),
                "stop must land within one segment per worker: \
                 {done} > {bound} ({schedule:?}/{recovery:?})"
            );
        }
    }
}

/// An already-expired deadline stops every executor at its first poll:
/// no body runs, and the outcome reports the deadline, not completion.
#[test]
fn expired_deadline_runs_no_bodies() {
    let collapsed = collapse(N);
    let pool = ThreadPool::new(THREADS);
    let _armed = FaultPlan::new().arm();
    for schedule in SCHEDULES {
        for recovery in RECOVERIES {
            let token = RunToken::with_deadline(Duration::ZERO);
            let outcome = collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .token(&token)
                .run(|_, _| {
                    panic!("no body may run under an expired deadline");
                })
                .outcome;
            assert_eq!(
                outcome,
                RunOutcome::DeadlineExpired { points_done: 0 },
                "{schedule:?}/{recovery:?}"
            );
            assert_eq!(token.cause(), Some(StopCause::DeadlineExpired));
        }
    }
}

/// A straggling worker (injected delay) does not break `points_done`
/// exactness when the run is cancelled under it.
#[test]
fn straggler_delay_keeps_points_done_exact() {
    let collapsed = collapse(N);
    let pool = ThreadPool::new(THREADS);
    let _armed = FaultPlan::new()
        .delay_on(1, 1, Duration::from_micros(200))
        .arm();
    for schedule in [
        Schedule::Static,
        Schedule::Dynamic(5),
        Schedule::StaticChunk(4),
    ] {
        for recovery in [Recovery::OncePerChunk, Recovery::BinarySearch] {
            let token = RunToken::new();
            let calls = AtomicU64::new(0);
            let outcome = collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .token(&token)
                .run(|tid, _| {
                    faults::on_body_call(tid);
                    if calls.fetch_add(1, Ordering::Relaxed) + 1 == 30 {
                        token.cancel();
                    }
                })
                .outcome;
            match outcome {
                RunOutcome::Cancelled { points_done } => {
                    assert_eq!(points_done, calls.into_inner(), "{schedule:?}/{recovery:?}");
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }
}

/// Forced rank-target overflow panics inside recovery (not in the
/// body), propagates to the caller, and leaves the pool reusable.
#[test]
fn forced_overflow_is_contained() {
    let collapsed = collapse(N);
    let expect = baseline_checksum(N);
    let pool = ThreadPool::new(THREADS);
    {
        let _armed = FaultPlan::new().force_overflow().arm();
        let err = catch_unwind(AssertUnwindSafe(|| {
            collapsed.runner(&pool).run(|_, _| {});
        }))
        .expect_err("forced overflow must reach the caller");
        let msg = payload_str(&*err);
        assert!(msg.contains("overflows"), "unexpected payload: {msg}");
    }
    let sum = AtomicI64::new(0);
    collapsed.runner(&pool).run(|_, p| {
        sum.fetch_add(point_hash(p), Ordering::Relaxed);
    });
    assert_eq!(sum.into_inner(), expect);
}

/// The guarded (imperfect-nest) and warp-sim executors honour the same
/// token contract: exact `points_done` on cancellation.
#[test]
fn guarded_and_warp_executors_honour_tokens() {
    let collapsed = collapse(N);
    let pool = ThreadPool::new(THREADS);
    let _armed = FaultPlan::new().arm();

    let token = RunToken::new();
    let calls = AtomicU64::new(0);
    let outcome = collapsed
        .runner(&pool)
        .schedule(Schedule::Dynamic(7))
        .token(&token)
        .run_guarded(|_, _, _pos| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == 40 {
                token.cancel();
            }
        })
        .outcome;
    match outcome {
        RunOutcome::Cancelled { points_done } => {
            assert_eq!(points_done, calls.into_inner(), "guarded executor");
        }
        other => panic!("guarded: expected Cancelled, got {other:?}"),
    }

    let token = RunToken::new();
    let calls = AtomicU64::new(0);
    let outcome = collapsed.runner(&pool).token(&token).warp(8, |_, _| {
        if calls.fetch_add(1, Ordering::Relaxed) + 1 == 40 {
            token.cancel();
        }
    });
    match outcome {
        RunOutcome::Cancelled { points_done } => {
            assert_eq!(points_done, calls.into_inner(), "warp-sim executor");
        }
        other => panic!("warp-sim: expected Cancelled, got {other:?}"),
    }
}

/// Counter surfaces survive faulted runs consistently: `RecoveryStats`
/// only grows and stays coherent across a panic-interrupted sweep, and
/// the plan cache's `CacheStats` keeps its hit/miss/quarantine
/// bookkeeping exact under injected analyze panics.
#[test]
fn counters_stay_consistent_across_faults() {
    let collapsed = collapse(N);
    let pool = ThreadPool::new(THREADS);
    {
        let _armed = FaultPlan::new().panic_at(20).arm();
        let before = collapsed.stats();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            collapsed
                .runner(&pool)
                .schedule(Schedule::Dynamic(7))
                .run(|tid, _| faults::on_body_call(tid));
        }));
        let after = collapsed.stats();
        // Monotone: an unwind never loses or corrupts recovery tallies.
        assert!(after.closed_form_exact >= before.closed_form_exact);
        assert!(after.corrected >= before.corrected);
        assert!(after.binary_search >= before.binary_search);
        assert!(after.linear_exact >= before.linear_exact);
        let recoveries =
            after.closed_form_exact + after.corrected + after.binary_search + after.linear_exact;
        assert!(
            recoveries > 0,
            "the interrupted run still recovered anchors"
        );
    }

    // Plan cache: one injected analyze panic, then a clean retry — the
    // books must balance (miss counted, no entry leaked, no quarantine).
    let cache = PlanCache::new(1, 4);
    let nest = NestSpec::correlation();
    nrl::plan::faults::inject_analyze_panics(1);
    let err = catch_unwind(AssertUnwindSafe(|| {
        cache.get_or_analyze(&nest, PlanContext::default())
    }));
    assert!(err.is_err(), "injected analyze panic must propagate");
    cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
    cache.get_or_analyze(&nest, PlanContext::default()).unwrap();
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries, stats.quarantined),
        (1, 2, 1, 0)
    );
}
