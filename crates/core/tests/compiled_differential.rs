//! Differential property tests for the compiled unranking engine: on
//! randomized nests of depth 1–6 (including degree > 4 levels that only
//! the binary-search path can invert), the compiled Horner-ladder
//! recovery must match the pre-compilation reference engine bit-exactly,
//! and both must agree with `run_seq`'s lexicographic enumeration.

use nrl_core::{run_seq, CollapseSpec, Recovery, Schedule, ThreadPool};
use nrl_polyhedra::{NestSpec, Space};
use proptest::prelude::*;

const VAR_NAMES: [&str; 6] = ["i", "j", "k", "l", "m", "n"];

/// A randomized nest of the given depth: level 0 is `0..=N−1`; each
/// deeper level is `0..=(x_q + c)` for a random outer variable `q` and
/// small offset `c` — valid for every `N ≥ 1` by construction, and
/// deliberately able to pile all levels onto `x_0` so the level-0
/// inversion degree reaches `depth` (> 4 ⇒ no closed form).
fn arb_nest(depth: usize) -> impl Strategy<Value = (NestSpec, Vec<i64>)> {
    (
        proptest::collection::vec((0usize..6, 0i64..3), depth.saturating_sub(1)),
        2i64..6,
        0u8..2, // bias: 1 ⇒ every deeper level hangs off x_0 (max degree)
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

/// One depth's differential check: every recovery engine agrees with
/// the sequential enumeration order at every rank.
fn check_engines_agree(nest: &NestSpec, params: &[i64]) -> Result<(), TestCaseError> {
    let spec = CollapseSpec::new(nest).expect("spec");
    let collapsed = spec.bind(params).expect("bind");
    let d = nest.depth();
    // Ground truth: the original nested-loop walk.
    let mut seq = Vec::new();
    run_seq(&nest.bind(params), |p| seq.push(p.to_vec()));
    prop_assert_eq!(seq.len() as i128, collapsed.total());
    let mut unranker = collapsed.unranker();
    let mut compiled = vec![0i64; d];
    let mut binary = vec![0i64; d];
    let mut reference = vec![0i64; d];
    let mut cached = vec![0i64; d];
    for (idx, expected) in seq.iter().enumerate() {
        let pc = idx as i128 + 1;
        collapsed.unrank_into(pc, &mut compiled);
        collapsed.unrank_binary_into(pc, &mut binary);
        collapsed.unrank_reference_into(pc, &mut reference);
        unranker.unrank_into(pc, &mut cached);
        prop_assert_eq!(&compiled, expected, "closed-form+verify at pc={}", pc);
        prop_assert_eq!(&binary, expected, "compiled binary search at pc={}", pc);
        prop_assert_eq!(&reference, expected, "reference engine at pc={}", pc);
        prop_assert_eq!(&cached, expected, "cached unranker at pc={}", pc);
        prop_assert_eq!(collapsed.rank(expected), pc, "rank round-trip");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn depth1_engines_agree((nest, params) in arb_nest(1)) {
        check_engines_agree(&nest, &params)?;
    }

    #[test]
    fn depth2_engines_agree((nest, params) in arb_nest(2)) {
        check_engines_agree(&nest, &params)?;
    }

    #[test]
    fn depth3_engines_agree((nest, params) in arb_nest(3)) {
        check_engines_agree(&nest, &params)?;
    }

    #[test]
    fn depth4_engines_agree((nest, params) in arb_nest(4)) {
        check_engines_agree(&nest, &params)?;
    }

    #[test]
    fn depth5_engines_agree((nest, params) in arb_nest(5)) {
        check_engines_agree(&nest, &params)?;
    }

    #[test]
    fn depth6_engines_agree((nest, params) in arb_nest(6)) {
        check_engines_agree(&nest, &params)?;
    }

    /// Degree > 4 by construction: depth-6 pile-up nests have a level-0
    /// inversion polynomial of degree 6 — closed forms must be
    /// unavailable yet all engines still agree (tested above); here we
    /// additionally pin the degree claim itself.
    #[test]
    fn pile_up_exceeds_closed_form_degree(n in 2i64..6) {
        let s = Space::new(&VAR_NAMES[..6], &["N"]);
        let mut bounds = vec![(s.cst(0), s.var("N") - 1)];
        for _ in 1..6 {
            bounds.push((s.cst(0), s.var("i")));
        }
        let nest = NestSpec::new(s, bounds).expect("valid");
        let spec = CollapseSpec::new(&nest).expect("spec");
        prop_assert!(!spec.closed_form_available(), "degree 6 has no closed form");
        check_engines_agree(&nest, &[n])?;
    }

    /// Executor-level parity: the collapsed executors (which now thread
    /// the compiled unranker and its per-thread cache) produce exactly
    /// the sequential multiset under every recovery mode.
    #[test]
    fn executors_match_seq_on_deep_nests((nest, params) in arb_nest(4)) {
        let spec = CollapseSpec::new(&nest).expect("spec");
        let collapsed = spec.bind(&params).expect("bind");
        let mut expected = Vec::new();
        run_seq(&nest.bind(&params), |p| expected.push(p.to_vec()));
        expected.sort();
        let pool = ThreadPool::new(3);
        for recovery in [
            Recovery::Naive,
            Recovery::OncePerChunk,
            Recovery::BinarySearch,
            Recovery::Reference,
        ] {
            let seen = std::sync::Mutex::new(Vec::new());
            collapsed
                .runner(&pool)
                .schedule(Schedule::Dynamic(5))
                .recovery(recovery)
                .run(|_t, p| {
                    seen.lock().unwrap().push(p.to_vec());
                });
            let mut got = seen.into_inner().unwrap();
            got.sort();
            prop_assert_eq!(&got, &expected, "{:?}", recovery);
        }
    }
}
