//! Differential property tests for the row-segmented guarded executor:
//! on randomized nests of depth 1–6, the statement-instance stream of
//! `Runner::run_guarded` — prologues, bodies and epilogues, with
//! their prefixes — must equal the **imperfect reference** (the
//! original program executed with real nested loops) under every
//! schedule and recovery, including:
//!
//! * chunk boundaries that split rows mid-segment (small dynamic /
//!   odd static chunks, down to grains of 2–3), where the chunk-anchor
//!   `NestPosition::of` must agree with the neighbouring chunks'
//!   carry-derived guards;
//! * single-iteration rows, where a prologue and its epilogue fire at
//!   the same point (`pile_up` nests with small offsets produce rows
//!   of every length ≥ 1 down to exactly 1).
//!
//! The generated nests have lower bound 0 everywhere and upper bounds
//! `x_q + c` with `c ≥ 0`, so every inner loop runs at least once for
//! every prefix — the strict-trip-count precondition under which guard
//! sinking is exact (see `nrl_core::imperfect`).

use nrl_core::imperfect::run_seq_guarded;
use nrl_core::{CollapseSpec, NestSpec, Recovery, Schedule, ThreadPool};
use nrl_polyhedra::{BoundNest, Space};
use proptest::prelude::*;
use std::sync::Mutex;

const VAR_NAMES: [&str; 6] = ["i", "j", "k", "l", "m", "n"];

/// A randomized nest of the given depth: level 0 is `0..=N−1`; each
/// deeper level is `0..=(x_q + c)` for a random outer variable `q` and
/// small offset `c`. `pile_up = 1` hangs every deeper level off `x_0`,
/// driving the level-0 inversion degree to `depth` — past the
/// closed-form boundary at depth 5+. With `c = 0` and `x_q = 0` rows
/// of length 1 occur naturally, so prologue and epilogue fire at the
/// same point.
fn arb_nest(depth: usize) -> impl Strategy<Value = (NestSpec, Vec<i64>)> {
    (
        proptest::collection::vec((0usize..6, 0i64..3), depth.saturating_sub(1)),
        2i64..6,
        0u8..2,
    )
        .prop_map(move |(shape, n, pile_up)| {
            let s = Space::new(&VAR_NAMES[..depth], &["N"]);
            let mut bounds = vec![(s.cst(0), s.var("N") - 1)];
            for (k, &(q, c)) in shape.iter().enumerate() {
                let outer = if pile_up == 1 { 0 } else { q % (k + 1) };
                bounds.push((s.cst(0), s.var(VAR_NAMES[outer]) + c));
            }
            let nest = NestSpec::new(s, bounds).expect("structurally valid");
            (nest, vec![n])
        })
}

/// One statement instance of the imperfect program: a level-`k`
/// prologue, the innermost body, or a level-`k` epilogue, each with
/// the iterator prefix it executes at.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Instance {
    Pre(usize, Vec<i64>),
    Body(Vec<i64>),
    Post(usize, Vec<i64>),
}

/// The ground truth: run the imperfect program with real nested loops.
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

/// The instance stream one guarded-executor iteration contributes, in
/// its in-iteration order (prologues outermost-first, body, epilogues
/// innermost-first).
fn record(point: &[i64], pos: nrl_core::NestPosition, out: &mut Vec<Instance>) {
    for k in pos.prologues() {
        out.push(Instance::Pre(k, point[..=k].to_vec()));
    }
    out.push(Instance::Body(point.to_vec()));
    for k in pos.epilogues() {
        out.push(Instance::Post(k, point[..=k].to_vec()));
    }
}

fn check_guarded(nest: &NestSpec, params: &[i64]) -> Result<(), TestCaseError> {
    let bound = nest.bind(params);
    // The generator's bounds are strict by construction; make the
    // precondition explicit so a generator change cannot silently turn
    // these tests vacuous.
    prop_assert!(nest.check_trip_counts(params, true).is_ok());
    let mut expect = imperfect_reference(&bound);
    // Sequential guarded execution preserves the exact order.
    let mut seq = Vec::new();
    run_seq_guarded(&bound, |p, pos| record(p, pos, &mut seq));
    prop_assert_eq!(&seq, &expect, "sequential guarded stream");
    expect.sort();

    let spec = CollapseSpec::new(nest).expect("spec");
    let collapsed = spec.bind(params).expect("bind");
    let pool = ThreadPool::new(3);
    for recovery in [
        Recovery::OncePerChunk,
        Recovery::BinarySearch,
        Recovery::Naive,
        Recovery::Reference,
    ] {
        for schedule in [
            Schedule::Static,
            // Odd and tiny chunk sizes split rows mid-segment on purpose.
            Schedule::StaticChunk(7),
            Schedule::StaticChunk(3),
            Schedule::Dynamic(5),
            Schedule::Dynamic(2),
            Schedule::Guided(2),
        ] {
            let seen = Mutex::new(Vec::new());
            collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .run_guarded(|_tid, p, pos| {
                    let mut local = Vec::new();
                    record(p, pos, &mut local);
                    seen.lock().unwrap().extend(local);
                });
            let mut got = seen.into_inner().unwrap();
            got.sort();
            prop_assert_eq!(
                &got,
                &expect,
                "{:?} under {:?} at {:?}",
                recovery,
                schedule,
                params
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn depth1_guarded((nest, params) in arb_nest(1)) {
        check_guarded(&nest, &params)?;
    }

    #[test]
    fn depth2_guarded((nest, params) in arb_nest(2)) {
        check_guarded(&nest, &params)?;
    }

    #[test]
    fn depth3_guarded((nest, params) in arb_nest(3)) {
        check_guarded(&nest, &params)?;
    }

    #[test]
    fn depth4_guarded((nest, params) in arb_nest(4)) {
        check_guarded(&nest, &params)?;
    }

    #[test]
    fn depth5_guarded((nest, params) in arb_nest(5)) {
        check_guarded(&nest, &params)?;
    }

    #[test]
    fn depth6_guarded((nest, params) in arb_nest(6)) {
        check_guarded(&nest, &params)?;
    }
}

/// Single-iteration rows, deterministically: `j in 0..=0` under every
/// `i` makes *every* row one point long, so each iteration fires its
/// prologue and epilogue together; a middle one-point level in a
/// 3-deep nest does the same for two guard slots at once.
#[test]
fn single_iteration_rows_fire_prologue_and_epilogue_together() {
    let s = Space::new(&["i", "j"], &["N"]);
    let nest = NestSpec::new(
        s.clone(),
        vec![(s.cst(0), s.var("N") - 1), (s.cst(0), s.cst(0))],
    )
    .unwrap();
    check_guarded(&nest, &[9]).unwrap();

    let s = Space::new(&["i", "j", "k"], &["N"]);
    let pancake = NestSpec::new(
        s.clone(),
        vec![
            (s.cst(0), s.var("N") - 1),
            (s.cst(0), s.cst(0)),
            (s.cst(0), s.var("i")),
        ],
    )
    .unwrap();
    check_guarded(&pancake, &[6]).unwrap();
}

/// A chunk boundary placed **inside** a row must hand the epilogue to
/// the chunk that owns the row's last point and the prologue to the
/// one that owns its first: with one thread and a chunk size smaller
/// than every row, each dynamic chunk anchors mid-row (exercising the
/// anchor `NestPosition::of` + carry-derived guards hand-off on every
/// chunk seam).
#[test]
fn chunk_seams_inside_rows_assign_guards_to_the_right_points() {
    let nest = NestSpec::correlation();
    let bound = nest.bind(&[30]);
    let mut expect = imperfect_reference(&bound);
    expect.sort();
    let spec = CollapseSpec::new(&nest).unwrap();
    let collapsed = spec.bind(&[30]).unwrap();
    let pool = ThreadPool::new(1);
    for chunk in [1u64, 2, 3, 5] {
        for recovery in [Recovery::OncePerChunk, Recovery::BinarySearch] {
            let seen = Mutex::new(Vec::new());
            collapsed
                .runner(&pool)
                .schedule(Schedule::Dynamic(chunk))
                .recovery(recovery)
                .run_guarded(|_tid, p, pos| {
                    let mut local = Vec::new();
                    record(p, pos, &mut local);
                    seen.lock().unwrap().extend(local);
                });
            let mut got = seen.into_inner().unwrap();
            got.sort();
            assert_eq!(got, expect, "chunk={chunk} {recovery:?}");
        }
    }
}

/// On a single thread — one static chunk, or row-cutting chunks taken
/// in rank order — the guarded executor must reproduce the reference
/// stream **in order**, not just as a multiset: the row segmentation
/// preserves the lexicographic walk across chunk anchors.
#[test]
fn single_chunk_guarded_stream_is_in_order() {
    let nest = NestSpec::figure6();
    let bound = nest.bind(&[9]);
    let expect = imperfect_reference(&bound);
    let spec = CollapseSpec::new(&nest).unwrap();
    let collapsed = spec.bind(&[9]).unwrap();
    let pool = ThreadPool::new(1);
    // One worker takes chunks in rank order, so chunks of 8 that cut
    // rows must replay the same in-order stream as the single chunk.
    for schedule in [Schedule::Static, Schedule::StaticChunk(8)] {
        let seen = Mutex::new(Vec::new());
        collapsed
            .runner(&pool)
            .schedule(schedule)
            .run_guarded(|_tid, p, pos| {
                let mut local = Vec::new();
                record(p, pos, &mut local);
                seen.lock().unwrap().extend(local);
            });
        assert_eq!(seen.into_inner().unwrap(), expect, "{schedule:?}");
    }
}
