//! Differential property tests for the deterministic reduction and
//! scan engines: on random nests of depth 1–6, `Runner::reduce` with
//! an exact (wrapping) accumulator must equal the sequential left fold
//! **bit-exactly** under every schedule × recovery × pool-size
//! combination; a cancelled reduction must return exactly the joined
//! contiguous prefix, and joining it with the resumed remainder must
//! reproduce the uninterrupted value.
//!
//! `Runner::reduce_guarded` is held to the same bar against the
//! sequential guarded fold, with each point's [`NestPosition`] folded
//! into its map. The random nests stay small enough for exhaustive
//! sweeps, which leaves most of them one or two 256-point grid
//! chunks, so a second sweep takes domains of 1,024+ points at every
//! depth 1–6 (4+ chunks) through the same join, guarded and cancel
//! checks.
//! Fixed-size domains also check that reductions recover one anchor
//! per schedule chunk, and that a cancel between grid chunks cut
//! mid-row still resumes to the exact whole.
//!
//! The accumulator is an affine map `x ↦ a·x + b` over wrapping u64
//! composed left-to-right — associative but **non-commutative**, so a
//! partial joined out of order, twice, or not at all shifts the result
//! (a plain wrapping sum would hide ordering bugs).

use nrl_core::{
    guarded_reducer, reducer, run_seq, run_seq_guarded, CollapseSpec, Collapsed, NestPosition,
    NestSpec, Recovery, ReduceCounters, RunOutcome, RunToken, Schedule, ThreadPool,
};
use nrl_polyhedra::Space;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// `Dynamic(1)` hands out one grid chunk at a time, so every grid seam
/// — most of them mid-row — is also an anchor recovery.
const SCHEDULES: [Schedule; 5] = [
    Schedule::Static,
    Schedule::StaticChunk(7),
    Schedule::Dynamic(5),
    Schedule::Dynamic(1),
    Schedule::Guided(2),
];

const RECOVERIES: [Recovery; 3] = [
    Recovery::OncePerChunk,
    Recovery::Naive,
    Recovery::BinarySearch,
];

const POOLS: [usize; 3] = [1, 3, 8];

/// The affine accumulator: composing `x ↦ a·x + b` maps in rank order.
type Aff = (u64, u64);

const AFF_ID: Aff = (1, 0);

/// One iteration point as an affine map, from a point hash.
fn point_aff(point: &[i64]) -> Aff {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &x in point {
        h = (h ^ x as u64).wrapping_mul(0x1000_0000_01B3);
    }
    // An even multiplier would collapse long products toward 0.
    (h | 1, h.rotate_left(17))
}

/// `left` then `right`: (a2·a1, a2·b1 + b2), all wrapping.
fn compose(left: Aff, right: Aff) -> Aff {
    (
        right.0.wrapping_mul(left.0),
        right.0.wrapping_mul(left.1).wrapping_add(right.1),
    )
}

/// A guarded point as an affine map: the position's guard boundaries
/// are hashed in, so a wrong `NestPosition` shifts the result too.
fn guarded_aff(point: &[i64], pos: NestPosition) -> Aff {
    let (a, b) = point_aff(point);
    let g = (pos.pre_from() as u64) << 8 | pos.post_from() as u64;
    (a ^ g.wrapping_mul(0x9E37_79B9_7F4A_7C16), b.wrapping_add(g))
}

/// `reduce_guarded` under every schedule × recovery × pool size equals
/// the `run_seq_guarded` fold of [`guarded_aff`] bit-exactly.
fn assert_guarded_reduction_matches_seq(nest: &NestSpec, params: &[i64]) {
    let collapsed = CollapseSpec::new(nest).unwrap().bind(params).unwrap();
    let mut expect = AFF_ID;
    run_seq_guarded(&nest.bind(params), |p, pos| {
        expect = compose(expect, guarded_aff(p, pos))
    });
    let red = guarded_reducer(
        || AFF_ID,
        |_tid, p: &[i64], pos, acc: &mut Aff| *acc = compose(*acc, guarded_aff(p, pos)),
        compose,
    );
    for &nthreads in &POOLS {
        let pool = ThreadPool::new(nthreads);
        for schedule in SCHEDULES {
            for recovery in RECOVERIES {
                let got = collapsed
                    .runner(&pool)
                    .schedule(schedule)
                    .recovery(recovery)
                    .reduce_guarded(&red);
                let case = format!("{nthreads} threads under {schedule:?}/{recovery:?}");
                assert_eq!(got.outcome, RunOutcome::Completed, "{case}");
                assert_eq!(got.value, expect, "{case}");
                assert_eq!(got.counters.joined, got.counters.chunks, "{case}");
            }
        }
    }
}

fn aff_reducer() -> impl nrl_core::Reducer<Aff> {
    reducer(
        || AFF_ID,
        |_tid, p: &[i64], acc: &mut Aff| *acc = compose(*acc, point_aff(p)),
        compose,
    )
}

/// The fixed-grid reduction of an exact accumulator equals the
/// sequential left fold bit-exactly, no matter how the work is
/// scheduled, recovered, or spread across threads. Returns the number
/// of grid chunks the domain was cut into.
fn check_reduction_matches_seq(nest: &NestSpec, params: &[i64]) -> Result<u64, TestCaseError> {
    let collapsed = CollapseSpec::new(nest)
        .expect("spec")
        .bind(params)
        .expect("bind");
    let mut expect = AFF_ID;
    run_seq(&nest.bind(params), |p| {
        expect = compose(expect, point_aff(p))
    });
    let red = aff_reducer();
    let mut chunks = 0;
    for &nthreads in &POOLS {
        let pool = ThreadPool::new(nthreads);
        for schedule in SCHEDULES {
            for recovery in RECOVERIES {
                let got = collapsed
                    .runner(&pool)
                    .schedule(schedule)
                    .recovery(recovery)
                    .reduce(&red);
                prop_assert_eq!(got.outcome, RunOutcome::Completed);
                prop_assert_eq!(
                    got.value,
                    expect,
                    "{} threads under {:?}/{:?}",
                    nthreads,
                    schedule,
                    recovery
                );
                prop_assert_eq!(got.counters.joined, got.counters.chunks);
                prop_assert_eq!(got.counters.discarded, 0);
                chunks = got.counters.chunks;
            }
        }
    }
    Ok(chunks)
}

/// A reduction cancelled `cancel_permille`‰ of the way through its
/// points returns the joined contiguous prefix and a grid-aligned
/// `points_done`; resuming at that offset and joining the two values
/// reproduces the uninterrupted reduction bit-exactly.
fn check_cancel_then_resume(
    nest: &NestSpec,
    params: &[i64],
    cancel_permille: u64,
    nthreads: usize,
) -> Result<(), TestCaseError> {
    let collapsed = CollapseSpec::new(nest)
        .expect("spec")
        .bind(params)
        .expect("bind");
    let total = collapsed.total() as u64;
    let cancel_at = 1 + cancel_permille * total / 1000;
    let red = aff_reducer();
    let pool = ThreadPool::new(nthreads);
    for schedule in SCHEDULES {
        for recovery in [Recovery::OncePerChunk, Recovery::BinarySearch] {
            let full = collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .reduce(&red);

            let token = RunToken::new();
            let calls = AtomicU64::new(0);
            let cancelling = reducer(
                || AFF_ID,
                |_tid, p: &[i64], acc: &mut Aff| {
                    if calls.fetch_add(1, Ordering::Relaxed) + 1 == cancel_at {
                        token.cancel();
                    }
                    *acc = compose(*acc, point_aff(p));
                },
                compose,
            );
            let stopped = collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .token(&token)
                .reduce(&cancelling);
            let done = match stopped.outcome {
                RunOutcome::Cancelled { points_done } => points_done,
                // The cancel landed in the final grid chunk (or past
                // the domain): the reduction legitimately completes.
                RunOutcome::Completed => {
                    prop_assert_eq!(
                        stopped.value,
                        full.value,
                        "a completed run must carry the full value"
                    );
                    continue;
                }
                other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
            };
            // The prefix is grid-aligned: whole chunks, never a
            // partial one.
            let grain = stopped.counters.grain;
            prop_assert!(done < total);
            prop_assert_eq!(
                done % grain,
                0,
                "points_done {} not aligned to grain {}",
                done,
                grain
            );
            prop_assert_eq!(done, stopped.counters.joined * grain);

            // The prefix value is the rank-order fold of the first
            // `done` points.
            let mut seen = 0u64;
            let mut prefix = AFF_ID;
            run_seq(&nest.bind(params), |p| {
                if seen < done {
                    prefix = compose(prefix, point_aff(p));
                }
                seen += 1;
            });
            prop_assert_eq!(
                stopped.value,
                prefix,
                "stopped value must be the contiguous prefix fold"
            );

            // Resume the remainder; the join reproduces the whole.
            let resumed = collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .resume(done)
                .reduce(&red);
            prop_assert_eq!(resumed.outcome, RunOutcome::Completed);
            prop_assert_eq!(
                compose(stopped.value, resumed.value),
                full.value,
                "join(prefix, resumed) must equal the full reduction"
            );
        }
    }
    Ok(())
}

/// The rectangular box `0 ≤ i_k < lens[k]` of depth `lens.len()`.
fn box_nest(lens: &[i64]) -> Option<NestSpec> {
    let names: Vec<String> = (0..lens.len()).map(|i| format!("i{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let s = Space::new(&name_refs, &[]);
    let bounds = lens.iter().map(|&l| (s.cst(0), s.cst(l - 1))).collect();
    NestSpec::new(s, bounds).ok()
}

/// Per depth 1–6, the range of box extents whose every box holds
/// 1,024 to 4,096 points: 4 to 16 grid chunks of 256.
const LARGE_EXTENTS: [(i64, i64); 6] = [(1024, 4096), (32, 64), (11, 16), (6, 8), (4, 5), (4, 4)];

/// One box per depth 1–6 from [`LARGE_EXTENTS`], each axis drawn from
/// `seed`, plus the paper's triangle (depth 2, 1,035–4,005 points)
/// and tetrahedron (depth 3, 1,140–3,654 points), whose grid seams
/// fall mid-row.
fn large_cases(seed: u64) -> Vec<(NestSpec, Vec<i64>)> {
    let mut cases: Vec<(NestSpec, Vec<i64>)> = LARGE_EXTENTS
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| {
            let lens: Vec<i64> = (0..=i)
                .map(|axis| {
                    let r = seed
                        .rotate_left(11 * axis as u32)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    lo + ((r >> 32) % (hi - lo + 1) as u64) as i64
                })
                .collect();
            (box_nest(&lens).expect("box"), vec![])
        })
        .collect();
    cases.push((NestSpec::correlation(), vec![46 + (seed % 45) as i64]));
    cases.push((NestSpec::figure6(), vec![19 + (seed % 10) as i64]));
    cases
}

/// Random nest of depth 1..=6: a rectangular box (the only shape at
/// every depth), or one of the paper's triangular/tetrahedral nests.
fn arb_case() -> impl Strategy<Value = (NestSpec, Vec<i64>)> {
    (
        0u8..4,    // shape family
        1usize..7, // rectangular depth
        1i64..5,   // rectangular extents (per-axis, rotated)
        2i64..6,
        1i64..4,
        3i64..14, // N for the paper shapes
    )
        .prop_filter_map("valid domain", |(fam, d, l0, l1, l2, n)| {
            let (nest, params) = match fam {
                0 | 1 => {
                    let lens: Vec<i64> = (0..d).map(|i| [l0, l1, l2][i % 3]).collect();
                    (box_nest(&lens)?, vec![])
                }
                2 => (NestSpec::correlation(), vec![n]),
                _ => (NestSpec::figure6(), vec![n.min(8)]),
            };
            nest.check_trip_counts(&params, false).ok()?;
            Some((nest, params))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fixed-grid reduction of an exact accumulator equals the
    /// sequential left fold bit-exactly, no matter how the work is
    /// scheduled, recovered, or spread across threads.
    #[test]
    fn reduction_equals_sequential_fold((nest, params) in arb_case()) {
        check_reduction_matches_seq(&nest, &params)?;
    }

    /// The guarded reduction equals the sequential guarded fold
    /// bit-exactly: positions derived from the walk's carry depths
    /// (across grid seams too) match the per-point scan.
    #[test]
    fn guarded_reduction_equals_sequential_guarded_fold((nest, params) in arb_case()) {
        assert_guarded_reduction_matches_seq(&nest, &params);
    }

    /// A cancelled reduction returns the joined contiguous prefix and
    /// a grid-aligned `points_done`; resuming at that offset and
    /// joining the two values reproduces the uninterrupted reduction
    /// bit-exactly — on any pool size, not just one thread.
    #[test]
    fn cancelled_prefix_plus_resume_joins_to_the_full_value(
        (nest, params) in arb_case(),
        cancel_permille in 0u64..1000,
        nthreads in prop::sample::select(POOLS.to_vec()),
    ) {
        check_cancel_then_resume(&nest, &params, cancel_permille, nthreads)?;
    }

    /// The segmented scan emits the row-inclusive prefix aggregate at
    /// every point — equal to the sequential per-row running fold,
    /// independent of schedule and pool size.
    #[test]
    fn scan_emits_row_prefix_aggregates((nest, params) in arb_case()) {
        let collapsed = CollapseSpec::new(&nest).expect("spec")
            .bind(&params).expect("bind");
        let d = nest.depth();
        // Sequential reference: restart the fold at each row start.
        let mut expect: Vec<(Vec<i64>, Aff)> = Vec::new();
        let mut row_acc = AFF_ID;
        let mut prev: Option<Vec<i64>> = None;
        run_seq(&nest.bind(&params), |p| {
            let new_row = match &prev {
                Some(q) => p[..d - 1] != q[..d - 1],
                None => true,
            };
            if new_row {
                row_acc = AFF_ID;
            }
            row_acc = compose(row_acc, point_aff(p));
            expect.push((p.to_vec(), row_acc));
            prev = Some(p.to_vec());
        });
        let red = aff_reducer();
        for &nthreads in &[1usize, 4] {
            let pool = ThreadPool::new(nthreads);
            for schedule in [Schedule::Static, Schedule::Dynamic(5)] {
                for recovery in [Recovery::OncePerChunk, Recovery::Naive] {
                    let got = std::sync::Mutex::new(Vec::new());
                    let outcome = collapsed.runner(&pool)
                        .schedule(schedule)
                        .recovery(recovery)
                        .scan(&red, |_t, p, acc: &Aff| {
                            got.lock().unwrap().push((p.to_vec(), *acc));
                        });
                    prop_assert_eq!(outcome, RunOutcome::Completed);
                    let mut got = got.into_inner().unwrap();
                    got.sort();
                    let mut want = expect.clone();
                    want.sort();
                    prop_assert_eq!(got, want,
                        "{} threads under {:?}/{:?}",
                        nthreads, schedule, recovery);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Domains of 1,024+ points at every depth 1–6 span at least four
    /// 256-point grid chunks, so the plain and guarded joins and the
    /// cancel/resume prefix run across several multi-point chunks,
    /// cut mid-row on the triangle and the tetrahedron.
    #[test]
    fn multi_chunk_reductions_at_every_depth(
        seed in 0u64..1 << 32,
        cancel_permille in 0u64..1000,
        nthreads in prop::sample::select(POOLS.to_vec()),
    ) {
        for (nest, params) in large_cases(seed) {
            let chunks = check_reduction_matches_seq(&nest, &params)?;
            prop_assert!(chunks >= 4, "depth {}: {} chunks", nest.depth(), chunks);
            assert_guarded_reduction_matches_seq(&nest, &params);
            check_cancel_then_resume(&nest, &params, cancel_permille, nthreads)?;
        }
    }
}

/// Satellite regression for the PR 2 scratch-survival cache: worker
/// scratch and partial lists must not leak between reductions on the
/// same pool/collapsed — including after a cancelled run whose
/// discarded partials must never be joined into a later call.
#[test]
fn repeated_reductions_never_leak_partials() {
    let collapsed = CollapseSpec::new(&NestSpec::correlation())
        .unwrap()
        .bind(&[120])
        .unwrap();
    let pool = ThreadPool::new(4);
    let red = aff_reducer();
    let baseline = collapsed.runner(&pool).reduce(&red);
    assert!(baseline.outcome.is_completed());
    for round in 0..8 {
        // A cancelled reduction in between produces discarded partials
        // and a short prefix…
        let token = RunToken::new();
        token.cancel();
        let stopped = collapsed.runner(&pool).token(&token).reduce(&red);
        assert!(
            !stopped.outcome.is_completed(),
            "round {round}: pre-cancelled token must stop the run"
        );
        // …which must leave no trace in the next full reduction.
        let again = collapsed.runner(&pool).reduce(&red);
        assert_eq!(again.outcome, RunOutcome::Completed, "round {round}");
        assert_eq!(again.value, baseline.value, "round {round}");
        assert_eq!(again.counters, baseline.counters, "round {round}");
    }
}

/// An empty window reduces to the identity with zeroed counters.
#[test]
fn empty_window_reduces_to_identity() {
    let collapsed = CollapseSpec::new(&NestSpec::correlation())
        .unwrap()
        .bind(&[50])
        .unwrap();
    let pool = ThreadPool::new(2);
    let red = aff_reducer();
    let total = collapsed.total() as u64;
    let empty = collapsed.runner(&pool).resume(total).reduce(&red);
    assert_eq!(empty.value, AFF_ID);
    assert!(empty.outcome.is_completed());
    assert_eq!(
        empty.counters,
        ReduceCounters {
            grain: empty.counters.grain,
            ..ReduceCounters::default()
        }
    );
}

/// The random proptest domains stay under 512 points (at most two
/// grid chunks); these are cut into 28 and 9 chunks of 256 points, so
/// the guarded walk crosses many seams inside rows.
#[test]
fn guarded_reduction_crosses_multi_point_grid_seams() {
    assert_guarded_reduction_matches_seq(&NestSpec::correlation(), &[120]);
    assert_guarded_reduction_matches_seq(&NestSpec::figure6(), &[24]);
}

/// Level recoveries (one per level an anchor recovers) since `before`.
fn level_recoveries(collapsed: &Collapsed, before: nrl_core::RecoveryStats) -> u64 {
    let after = collapsed.stats();
    (after.closed_form_exact + after.corrected + after.binary_search + after.linear_exact)
        - (before.closed_form_exact + before.corrected + before.binary_search + before.linear_exact)
}

/// A reduction recovers one anchor per schedule chunk, not one per grid
/// chunk: under `Static` each pool thread gets one schedule chunk, so
/// the level recoveries stay within depth × threads however many grid
/// chunks (9 here) the partials are cut into.
#[test]
fn reduce_recovers_one_anchor_per_schedule_chunk() {
    let red = aff_reducer();
    for nthreads in [1usize, 2] {
        let collapsed = CollapseSpec::new(&NestSpec::figure6())
            .unwrap()
            .bind(&[24])
            .unwrap();
        let pool = ThreadPool::new(nthreads);
        let before = collapsed.stats();
        let got = collapsed
            .runner(&pool)
            .schedule(Schedule::Static)
            .reduce(&red);
        assert!(got.outcome.is_completed());
        let total = collapsed.total() as u64;
        assert_eq!(
            got.counters.chunks,
            total.div_ceil(nrl_core::reduce_grain(total))
        );
        let recoveries = level_recoveries(&collapsed, before);
        let bound = (collapsed.depth() * nthreads) as u64;
        assert!(
            recoveries <= bound,
            "{nthreads} threads: {recoveries} level recoveries > {bound}"
        );
    }
}

/// Cancel and resume on domains whose grid chunks hold several points
/// (`grain > 1`) and whose grid seams fall mid-row: the stopped run's
/// `points_done` is grid-aligned, its value is the prefix fold, and
/// `join(prefix, resumed)` equals the uninterrupted value.
#[test]
fn cancel_and_resume_across_mid_row_grid_seams() {
    let red = aff_reducer();
    for (nest, n) in [(NestSpec::correlation(), 120), (NestSpec::figure6(), 24)] {
        let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[n]).unwrap();
        let total = collapsed.total() as u64;
        let mut seq = Vec::with_capacity(total as usize);
        run_seq(&nest.bind(&[n]), |p| seq.push(point_aff(p)));
        let grain = nrl_core::reduce_grain(total);
        assert!(grain > 1, "N={n}: grain {grain}");
        // Some grid seam splits a row: the points either side of it
        // share their outer prefix.
        let d = collapsed.depth();
        assert!(
            (1..total / grain).any(|g| {
                let at = (g * grain) as i128;
                collapsed.unrank(at)[..d - 1] == collapsed.unrank(at + 1)[..d - 1]
            }),
            "N={n}: no mid-row grid seam"
        );
        for &nthreads in &POOLS {
            let pool = ThreadPool::new(nthreads);
            for (schedule, recovery) in [
                (Schedule::Dynamic(5), Recovery::OncePerChunk),
                (Schedule::Static, Recovery::OncePerChunk),
                (Schedule::StaticChunk(1), Recovery::OncePerChunk),
                (Schedule::Dynamic(5), Recovery::BinarySearch),
            ] {
                let runner = collapsed
                    .runner(&pool)
                    .schedule(schedule)
                    .recovery(recovery);
                let full = runner.reduce(&red);
                for cancel_at in [1, grain / 2, grain + 3, total / 3, total - grain] {
                    let token = RunToken::new();
                    let calls = AtomicU64::new(0);
                    let cancelling = reducer(
                        || AFF_ID,
                        |_tid, p: &[i64], acc: &mut Aff| {
                            if calls.fetch_add(1, Ordering::Relaxed) + 1 == cancel_at {
                                token.cancel();
                            }
                            *acc = compose(*acc, point_aff(p));
                        },
                        compose,
                    );
                    let stopped = runner.token(&token).reduce(&cancelling);
                    let case = format!(
                        "N={n} {nthreads} threads {schedule:?}/{recovery:?} cancel at {cancel_at}"
                    );
                    let done = match stopped.outcome {
                        RunOutcome::Cancelled { points_done } => points_done,
                        RunOutcome::Completed => {
                            assert_eq!(stopped.value, full.value, "{case}");
                            continue;
                        }
                        other => panic!("{case}: unexpected {other:?}"),
                    };
                    assert_eq!(done % grain, 0, "{case}: points_done {done}");
                    assert_eq!(done, stopped.counters.joined * grain, "{case}");
                    let prefix = seq[..done as usize]
                        .iter()
                        .fold(AFF_ID, |a, &p| compose(a, p));
                    assert_eq!(stopped.value, prefix, "{case}");
                    let resumed = runner.resume(done).reduce(&red);
                    assert_eq!(resumed.outcome, RunOutcome::Completed, "{case}");
                    assert_eq!(compose(stopped.value, resumed.value), full.value, "{case}");
                }
            }
        }
    }
}
