//! Differential property tests for the §VI.B warp executor: on
//! randomized nests of depth 1–6, every lane of a `W`-lane warp must
//! visit exactly the ranks `lane+1, lane+1+W, …`, in that order, and
//! each visited point must equal the enumerated point of its rank.
//! Lane anchors come from one scalar `unrank_into` per lane and the
//! lanes advance by the row-segmented `skip`, so the widths in
//! {1, 3, 4, 8, 17} put anchors mid-row, at row carries and past the
//! domain end (lanes with no rank).

use nrl_core::{run_seq, CollapseSpec, NestSpec, ThreadPool};
use nrl_polyhedra::Space;
use proptest::prelude::*;
use std::sync::Mutex;

const VAR_NAMES: [&str; 6] = ["i", "j", "k", "l", "m", "n"];
const WARP_WIDTHS: [usize; 5] = [1, 3, 4, 8, 17];

/// A randomized nest of the given depth: level 0 is `0..=N−1`; each
/// deeper level is `0..=(x_q + c)` for a random outer variable `q` and
/// small offset `c`. `pile_up = 1` hangs every deeper level off `x_0`,
/// driving the level-0 inversion degree to `depth` — past the
/// closed-form boundary at depth 5+, so anchor recovery runs through
/// the binary search too.
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

/// The warp differential: per lane, the visited stream equals the
/// enumeration walk sampled at stride `W` from the lane's first rank.
fn check_warp(nest: &NestSpec, params: &[i64]) -> Result<(), TestCaseError> {
    let collapsed = CollapseSpec::new(nest)
        .expect("spec")
        .bind(params)
        .expect("bind");
    let mut walk = Vec::new();
    run_seq(&nest.bind(params), |p| walk.push(p.to_vec()));
    prop_assert_eq!(walk.len() as i128, collapsed.total());
    for threads in [1usize, 3] {
        let pool = ThreadPool::new(threads);
        for warp in WARP_WIDTHS {
            let lanes: Vec<Mutex<Vec<Vec<i64>>>> =
                (0..warp).map(|_| Mutex::new(Vec::new())).collect();
            collapsed.runner(&pool).warp(warp, |lane, p| {
                lanes[lane].lock().unwrap().push(p.to_vec());
            });
            for (lane, seen) in lanes.into_iter().enumerate() {
                let expect: Vec<Vec<i64>> = walk.iter().skip(lane).step_by(warp).cloned().collect();
                prop_assert_eq!(
                    seen.into_inner().unwrap(),
                    expect,
                    "threads={} warp={} lane={}",
                    threads,
                    warp,
                    lane
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn depth1_warp_lanes((nest, params) in arb_nest(1)) {
        check_warp(&nest, &params)?;
    }

    #[test]
    fn depth2_warp_lanes((nest, params) in arb_nest(2)) {
        check_warp(&nest, &params)?;
    }

    #[test]
    fn depth3_warp_lanes((nest, params) in arb_nest(3)) {
        check_warp(&nest, &params)?;
    }

    #[test]
    fn depth4_warp_lanes((nest, params) in arb_nest(4)) {
        check_warp(&nest, &params)?;
    }

    #[test]
    fn depth5_warp_lanes((nest, params) in arb_nest(5)) {
        check_warp(&nest, &params)?;
    }

    #[test]
    fn depth6_warp_lanes((nest, params) in arb_nest(6)) {
        check_warp(&nest, &params)?;
    }
}
