//! Property tests for the collapse pipeline: on randomly generated
//! affine nests (with validated domains), ranking is a bijection onto
//! `1..=total`, unranking inverts it exactly, and every executor
//! produces the same iteration multiset as the sequential reference.
//! `Runner::auto` is held to the same bar.

use nrl_core::{reducer, run_seq, CollapseSpec, Recovery, Schedule, ThreadPool};
use nrl_polyhedra::{NestSpec, Space};
use proptest::prelude::*;
use std::sync::Mutex;

/// Random 2-deep nest with a parameter, constrained (by construction +
/// filtering) to valid domains.
fn arb_nest2() -> impl Strategy<Value = (NestSpec, Vec<i64>)> {
    (
        0i64..3,  // outer lower
        2i64..9,  // outer extent
        -1i64..2, // inner lower slope
        -2i64..3, // inner lower offset
        -1i64..2, // inner upper slope
        0i64..2,  // inner upper N-coefficient
        -1i64..8, // inner upper offset
        2i64..9,  // N
    )
        .prop_filter_map("domain must be valid", |(a, ext, c, e, d, f, g, n)| {
            let s = Space::new(&["i", "j"], &["N"]);
            let nest = NestSpec::new(
                s.clone(),
                vec![
                    (s.cst(a), s.cst(a + ext)),
                    (s.var("i") * c + e, s.var("i") * d + s.var("N") * f + g),
                ],
            )
            .ok()?;
            nest.check_trip_counts(&[n], false).ok()?;
            Some((nest, vec![n]))
        })
}

/// Random 3-deep nest (triangular/tetrahedral family).
fn arb_nest3() -> impl Strategy<Value = (NestSpec, Vec<i64>)> {
    (
        2i64..7,  // N
        0i64..2,  // j lower offset
        -1i64..2, // k lower slope on j
        0i64..3,  // k upper slope choice
    )
        .prop_filter_map("domain must be valid", |(n, jl, kls, kus)| {
            let s = Space::new(&["i", "j", "k"], &["N"]);
            // i in 0..=N−1; j in jl..=i+1; k in kls·j..=(i or j or const)+ku
            let k_upper = match kus {
                0 => s.var("i") + 1,
                1 => s.var("j") + 2,
                _ => s.var("i") + s.var("j"),
            };
            let nest = NestSpec::new(
                s.clone(),
                vec![
                    (s.cst(0), s.var("N") - 1),
                    (s.cst(jl), s.var("i") + 1),
                    (s.var("j") * kls, k_upper),
                ],
            )
            .ok()?;
            nest.check_trip_counts(&[n], false).ok()?;
            Some((nest, vec![n]))
        })
}

fn check_roundtrip(nest: &NestSpec, params: &[i64]) -> Result<(), TestCaseError> {
    let spec = CollapseSpec::new(nest).expect("spec");
    let collapsed = spec.bind(params).expect("bind");
    let mut pc = 1i128;
    for point in nest.enumerate(params) {
        prop_assert_eq!(collapsed.rank(&point), pc, "rank({:?})", &point);
        let recovered = collapsed.unrank(pc);
        prop_assert_eq!(&recovered, &point, "unrank({})", pc);
        pc += 1;
    }
    prop_assert_eq!(pc - 1, collapsed.total());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn roundtrip_2deep((nest, params) in arb_nest2()) {
        check_roundtrip(&nest, &params)?;
    }

    #[test]
    fn roundtrip_3deep((nest, params) in arb_nest3()) {
        check_roundtrip(&nest, &params)?;
    }

    #[test]
    fn executors_agree_with_seq((nest, params) in arb_nest3()) {
        let spec = CollapseSpec::new(&nest).expect("spec");
        let collapsed = spec.bind(&params).expect("bind");
        let mut expected = Vec::new();
        run_seq(&nest.bind(&params), |p| expected.push(p.to_vec()));
        expected.sort();

        let pool = ThreadPool::new(3);
        for (schedule, recovery) in [
            (Schedule::Dynamic(3), Recovery::Naive),
            (Schedule::Dynamic(3), Recovery::OncePerChunk),
            (Schedule::StaticChunk(2), Recovery::OncePerChunk),
        ] {
            let seen = Mutex::new(Vec::new());
            collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .run(|_t, p| {
                    seen.lock().unwrap().push(p.to_vec());
                });
            let mut got = seen.into_inner().unwrap();
            got.sort();
            prop_assert_eq!(&got, &expected, "{:?}/{:?}", schedule, recovery);
        }
    }

    #[test]
    fn binary_and_closed_form_unrankers_agree((nest, params) in arb_nest2()) {
        let spec = CollapseSpec::new(&nest).expect("spec");
        let collapsed = spec.bind(&params).expect("bind");
        let total = collapsed.total();
        let d = nest.depth();
        for pc in 1..=total {
            let mut a = vec![0i64; d];
            let mut b = vec![0i64; d];
            collapsed.unrank_into(pc, &mut a);
            collapsed.unrank_binary_into(pc, &mut b);
            prop_assert_eq!(&a, &b, "pc={}", pc);
        }
    }

    #[test]
    fn total_matches_enumeration((nest, params) in arb_nest3()) {
        let spec = CollapseSpec::new(&nest).expect("spec");
        let collapsed = spec.bind(&params).expect("bind");
        prop_assert_eq!(collapsed.total() as u128, nest.count_enumerated(&params));
    }

    #[test]
    fn partial_collapse_equals_full_walk((nest, params) in arb_nest3()) {
        // Collapse only the outer 2 of 3 loops; executing the prefix
        // with inner walks must visit exactly the full domain.
        let prefix = nest.prefix(2);
        let spec = CollapseSpec::new(&prefix).expect("spec");
        let collapsed = match spec.bind(&params) {
            Ok(c) => c,
            // The prefix domain may be invalid even when the full nest
            // is fine only if trip counts differ — it cannot here (the
            // outer two bounds are identical), so bind must succeed.
            Err(e) => return Err(TestCaseError::fail(format!("prefix bind failed: {e}"))),
        };
        let full = nest.bind(&params);
        let mut expected: Vec<Vec<i64>> = nest.enumerate(&params).collect();
        expected.sort();
        let pool = ThreadPool::new(2);
        let seen = Mutex::new(Vec::new());
        collapsed
            .runner(&pool)
            .over(&full)
            .run(|_t, p| seen.lock().unwrap().push(p.to_vec()));
        let mut got = seen.into_inner().unwrap();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn prefix_rank_counts_prefix_tuples((nest, params) in arb_nest3()) {
        let prefix = nest.prefix(2);
        let spec = CollapseSpec::new(&prefix).expect("spec");
        if let Ok(collapsed) = spec.bind(&params) {
            prop_assert_eq!(
                collapsed.total() as u128,
                prefix.count_enumerated(&params)
            );
        }
    }
}

/// A triangular chain of the given depth: `i1 in 0..=N−1`, then each
/// `ik in 0..=i_{k−1}+1`. Depth ≥ 5 pushes the ranking polynomial past
/// the closed-form degree limit.
fn chain_nest(depth: usize) -> NestSpec {
    let names: Vec<String> = (1..=depth).map(|k| format!("i{k}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let s = Space::new(&name_refs, &["N"]);
    let mut levels = vec![(s.cst(0), s.var("N") - 1)];
    for k in 1..depth {
        levels.push((s.cst(0), s.var(&names[k - 1]) + 1));
    }
    NestSpec::new(s, levels).expect("chain nest is well-formed")
}

/// Σ over the domain of a point hash, as an order-sensitive f64 fold:
/// bit-equality of two reductions means identical values folded in an
/// identical chunk structure.
fn point_hash_sum() -> impl nrl_core::Reducer<f64> {
    reducer(
        || 0.0f64,
        |_tid, p: &[i64], acc: &mut f64| {
            let mut h = 1.0f64;
            for (k, &x) in p.iter().enumerate() {
                h = h * 1.31 + (x as f64) * (k + 1) as f64;
            }
            *acc += h;
        },
        |a, b| a + b,
    )
}

#[test]
fn auto_covers_the_domain_exactly() {
    for depth in 1..=6usize {
        let nest = chain_nest(depth);
        let n = if depth >= 5 { 3 } else { 6 };
        let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[n]).unwrap();
        let expect: Vec<Vec<i64>> = nest.enumerate(&[n]).collect();
        for workers in [1usize, 3, 8] {
            let pool = ThreadPool::new(workers);
            let seen = Mutex::new(Vec::new());
            collapsed.runner(&pool).auto().run(|_tid, p| {
                seen.lock().unwrap().push(p.to_vec());
            });
            let mut got = seen.into_inner().unwrap();
            got.sort();
            assert_eq!(
                got, expect,
                "depth {depth} workers {workers}: auto run missed/duplicated points"
            );
        }
    }
}

#[test]
fn auto_is_bit_identical_to_the_default_strategy() {
    let sum = point_hash_sum();
    for depth in 1..=6usize {
        let nest = chain_nest(depth);
        let n = if depth >= 5 { 4 } else { 7 };
        let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[n]).unwrap();
        for workers in [1usize, 3, 8] {
            let pool = ThreadPool::new(workers);
            // `.auto()` overrides whatever was pinned before it.
            let auto = collapsed
                .runner(&pool)
                .schedule(Schedule::Dynamic(3))
                .recovery(Recovery::Naive)
                .auto();
            assert_eq!(auto.strategy(), nrl_core::Strategy::DEFAULT);
            let default = collapsed
                .runner(&pool)
                .schedule(Schedule::Static)
                .recovery(Recovery::OncePerChunk);
            assert_eq!(
                auto.reduce(&sum).value.to_bits(),
                default.reduce(&sum).value.to_bits(),
                "depth {depth} workers {workers}: .auto() diverged from Strategy::DEFAULT"
            );
        }
    }
}
