//! Cancellation properties: on random nests of depth 1–6, a cancelled
//! run reports `points_done` exactly, and (on one thread, where ranks
//! execute in order) resuming the remaining rank interval completes
//! the sweep bit-identically to an undisturbed enumeration.

use nrl_core::{CollapseSpec, Recovery, RunOutcome, Schedule, ThreadPool};
use nrl_polyhedra::{NestSpec, Space};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const SCHEDULES: [Schedule; 4] = [
    Schedule::Static,
    Schedule::StaticChunk(5),
    Schedule::Dynamic(3),
    Schedule::Guided(2),
];

const RECOVERIES: [Recovery; 3] = [
    Recovery::Naive,
    Recovery::OncePerChunk,
    Recovery::BinarySearch,
];

/// Random nest of depth 1..=6: either a rectangular box (the only
/// shape available at every depth) or one of the paper's triangular /
/// tetrahedral nests, plus the rank to cancel at.
fn arb_case() -> impl Strategy<Value = (NestSpec, Vec<i64>, u64)> {
    (
        0u8..4,    // shape family
        1usize..7, // rectangular depth
        1i64..5,   // rectangular extents (per-axis, rotated)
        2i64..6,
        1i64..4,
        3i64..13, // N for the paper shapes
        1u64..65, // cancel at this body call
    )
        .prop_filter_map("valid domain", |(fam, d, l0, l1, l2, n, k)| {
            let (nest, params) = match fam {
                0 | 1 => {
                    let names: Vec<String> = (0..d).map(|i| format!("i{i}")).collect();
                    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    let s = Space::new(&name_refs, &[]);
                    let lens = [l0, l1, l2];
                    let bounds = (0..d).map(|i| (s.cst(0), s.cst(lens[i % 3] - 1))).collect();
                    (NestSpec::new(s, bounds).ok()?, vec![])
                }
                2 => (NestSpec::correlation(), vec![n]),
                _ => (NestSpec::figure6(), vec![n.min(8)]),
            };
            nest.check_trip_counts(&params, false).ok()?;
            Some((nest, params, k))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One thread executes ranks in order under every schedule, so a
    /// cancelled run is exactly the enumeration prefix of length
    /// `points_done` — and resuming from that rank finishes the suffix,
    /// concatenating to the full enumeration bit-identically.
    #[test]
    fn cancelled_prefix_plus_resume_is_the_full_enumeration(
        (nest, params, k) in arb_case()
    ) {
        let collapsed = CollapseSpec::new(&nest).expect("spec")
            .bind(&params).expect("bind");
        let expect: Vec<Vec<i64>> = nest.enumerate(&params).collect();
        let total = expect.len() as u64;
        let pool = ThreadPool::new(1);
        for schedule in SCHEDULES {
            for recovery in RECOVERIES {
                let token = nrl_core::RunToken::new();
                let seen = Mutex::new(Vec::new());
                let outcome = collapsed.runner(&pool)
                    .schedule(schedule).recovery(recovery).token(&token)
                    .run(|_, p| {
                        let mut s = seen.lock().unwrap();
                        s.push(p.to_vec());
                        if s.len() as u64 == k {
                            token.cancel();
                        }
                    })
                    .outcome;
                let mut got = seen.into_inner().unwrap();
                let done = match outcome {
                    RunOutcome::Cancelled { points_done } => {
                        prop_assert!(k <= total, "cancel only fires within the domain");
                        points_done
                    }
                    RunOutcome::Completed => {
                        // A cancel landing in the final segment (or past
                        // the domain) is never observed by a later check:
                        // the sweep legitimately completes in full.
                        prop_assert_eq!(got.len() as u64, total,
                            "{:?}/{:?}: Completed must mean every point ran",
                            schedule, recovery);
                        total
                    }
                    other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
                };
                prop_assert_eq!(done, got.len() as u64,
                    "points_done must equal the invocation count ({:?}/{:?})",
                    schedule, recovery);
                prop_assert_eq!(&got[..], &expect[..done as usize],
                    "one thread runs the exact rank prefix ({:?}/{:?})",
                    schedule, recovery);

                // Resume the remaining interval with a live token.
                let live = nrl_core::RunToken::new();
                let rest = Mutex::new(Vec::new());
                let outcome = collapsed.runner(&pool)
                    .schedule(schedule).recovery(recovery).token(&live).resume(done)
                    .run(|_, p| rest.lock().unwrap().push(p.to_vec()))
                    .outcome;
                prop_assert_eq!(outcome, RunOutcome::Completed);
                got.extend(rest.into_inner().unwrap());
                prop_assert_eq!(&got, &expect,
                    "prefix + resumed suffix must be the enumeration ({:?}/{:?})",
                    schedule, recovery);
            }
        }
    }

    /// With several workers the interleaving is nondeterministic, but
    /// `points_done` must still be the exact body-invocation count.
    #[test]
    fn points_done_is_exact_under_contention((nest, params, k) in arb_case()) {
        let collapsed = CollapseSpec::new(&nest).expect("spec")
            .bind(&params).expect("bind");
        let pool = ThreadPool::new(3);
        for schedule in [Schedule::Static, Schedule::Dynamic(3)] {
            for recovery in RECOVERIES {
                let token = nrl_core::RunToken::new();
                let calls = AtomicU64::new(0);
                let outcome = collapsed.runner(&pool)
                    .schedule(schedule).recovery(recovery).token(&token)
                    .run(|_, _| {
                        if calls.fetch_add(1, Ordering::Relaxed) + 1 == k {
                            token.cancel();
                        }
                    })
                    .outcome;
                let calls = calls.load(Ordering::Relaxed);
                match outcome {
                    RunOutcome::Cancelled { points_done } => {
                        prop_assert_eq!(points_done, calls,
                            "{:?}/{:?}", schedule, recovery);
                    }
                    RunOutcome::Completed => {
                        prop_assert_eq!(calls, collapsed.total() as u64,
                            "{:?}/{:?}", schedule, recovery);
                    }
                    other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
                }
            }
        }
    }
}
