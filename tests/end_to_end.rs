//! Cross-crate integration: the full pipeline over the shape zoo the
//! paper enumerates (triangular, tetrahedral, trapezoidal, rhomboidal,
//! parallelepiped), through every executor.

use nrl::core::CollapseSpec;
use nrl::polyhedra::Shape;
use nrl::prelude::*;
use std::sync::Mutex;

/// The shape zoo: name, nest, parameters, expected shape label.
fn zoo() -> Vec<(&'static str, NestSpec, Vec<i64>, &'static str)> {
    let mut out = Vec::new();

    out.push((
        "triangular",
        NestSpec::correlation(),
        vec![40],
        "triangular",
    ));

    out.push(("tetrahedral", NestSpec::figure6(), vec![14], "tetrahedral"));

    // Trapezoidal: j over a band shrinking with i but never empty. The
    // coarse classifier files unit-slope trapezoids under the simplicial
    // (triangular) family — geometrically it is a truncated triangle.
    let s = Space::new(&["i", "j"], &["N"]);
    out.push((
        "trapezoidal",
        NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.cst(9)),
                (s.cst(0), s.var("N") - s.var("i") - 1),
            ],
        )
        .unwrap(),
        vec![30],
        "triangular",
    ));
    // A steep trapezoid lands in the general-affine bucket.
    let s = Space::new(&["i", "j"], &["N"]);
    out.push((
        "trapezoidal_steep",
        NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.cst(9)),
                (s.cst(0), s.var("N") - s.var("i") * 2 - 1),
            ],
        )
        .unwrap(),
        vec![40],
        "general affine",
    ));

    // Rhomboidal / parallelepiped: constant-width skewed band.
    let s = Space::new(&["i", "j"], &["N"]);
    out.push((
        "rhomboidal",
        NestSpec::new(
            s.clone(),
            vec![(s.cst(0), s.var("N") - 1), (s.var("i") * 1, s.var("i") + 6)],
        )
        .unwrap(),
        vec![25],
        "parallelepiped",
    ));

    // 3-D parallelepiped with two skews.
    let s = Space::new(&["i", "j", "k"], &["N"]);
    out.push((
        "parallelepiped3",
        NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.var("N") - 1),
                (s.var("i"), s.var("i") + 3),
                (s.var("j") - s.var("i"), s.var("j") - s.var("i") + 2),
            ],
        )
        .unwrap(),
        vec![12],
        "parallelepiped",
    ));

    // Rectangular control case.
    out.push((
        "rectangular",
        NestSpec::rectangular(&[7, 5, 3]),
        vec![],
        "rectangular",
    ));

    out
}

#[test]
fn shapes_classified_as_documented() {
    for (name, nest, _params, label) in zoo() {
        assert_eq!(nest.shape().label(), label, "{name}");
        if label == "rectangular" {
            assert_eq!(nest.shape(), Shape::Rectangular);
        }
    }
}

#[test]
fn rank_unrank_bijection_across_zoo() {
    for (name, nest, params, _) in zoo() {
        let spec = CollapseSpec::new(&nest).expect(name);
        let collapsed = spec.bind(&params).expect(name);
        let mut pc = 1i128;
        for point in nest.enumerate(&params) {
            assert_eq!(collapsed.rank(&point), pc, "{name}: rank{point:?}");
            assert_eq!(collapsed.unrank(pc), point, "{name}: unrank({pc})");
            pc += 1;
        }
        assert_eq!(pc - 1, collapsed.total(), "{name}: total");
    }
}

#[test]
fn all_executors_cover_each_zoo_domain() {
    let pool = ThreadPool::new(4);
    for (name, nest, params, _) in zoo() {
        let spec = CollapseSpec::new(&nest).expect(name);
        let collapsed = spec.bind(&params).expect(name);
        let mut expected: Vec<Vec<i64>> = nest.enumerate(&params).collect();
        expected.sort();

        let runs: Vec<(String, Vec<Vec<i64>>)> = vec![
            ("collapsed-static".into(), {
                let seen = Mutex::new(Vec::new());
                collapsed.runner(&pool).run(|_t, p| {
                    seen.lock().unwrap().push(p.to_vec());
                });
                seen.into_inner().unwrap()
            }),
            ("collapsed-dynamic-naive".into(), {
                let seen = Mutex::new(Vec::new());
                collapsed
                    .runner(&pool)
                    .schedule(Schedule::Dynamic(8))
                    .recovery(Recovery::Naive)
                    .run(|_t, p| {
                        seen.lock().unwrap().push(p.to_vec());
                    });
                seen.into_inner().unwrap()
            }),
            ("collapsed-chunk3-mid-row".into(), {
                let seen = Mutex::new(Vec::new());
                collapsed
                    .runner(&pool)
                    .schedule(Schedule::StaticChunk(3))
                    .recovery(Recovery::OncePerChunk)
                    .run(|_t, p| {
                        seen.lock().unwrap().push(p.to_vec());
                    });
                seen.into_inner().unwrap()
            }),
            ("warp-64".into(), {
                let seen = Mutex::new(Vec::new());
                collapsed.runner(&pool).warp(64, |_t, p| {
                    seen.lock().unwrap().push(p.to_vec());
                });
                seen.into_inner().unwrap()
            }),
            ("outer-dynamic".into(), {
                let seen = Mutex::new(Vec::new());
                run_outer_parallel(&pool, &nest.bind(&params), Schedule::Dynamic(1), |_t, p| {
                    seen.lock().unwrap().push(p.to_vec());
                });
                seen.into_inner().unwrap()
            }),
        ];
        for (mode, mut got) in runs {
            got.sort();
            assert_eq!(got, expected, "{name} under {mode}");
        }
    }
}

#[test]
fn collapsed_static_balances_every_non_rectangular_shape() {
    let pool = ThreadPool::new(6);
    for (name, nest, params, _) in zoo() {
        let spec = CollapseSpec::new(&nest).expect(name);
        let collapsed = spec.bind(&params).expect(name);
        if collapsed.total() < 100 {
            continue;
        }
        let report = collapsed.runner(&pool).run(|_t, _p| {}).report;
        assert!(
            report.iteration_imbalance() < 1.10,
            "{name}: collapsed static imbalance ×{:.3}",
            report.iteration_imbalance()
        );
    }
}

#[test]
fn stats_report_no_binary_search_on_closed_form_nests() {
    // Exercise many recoveries through the forced closed-form engine
    // and confirm the closed forms (plus exact verification) never fall
    // through to the bisection path for the paper's nests. (The
    // *adaptive* default may legitimately choose the binary search for
    // narrow levels — that crossover is asserted separately below.)
    for (nest, params) in [
        (NestSpec::correlation(), vec![500i64]),
        (NestSpec::figure6(), vec![40]),
    ] {
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&params).unwrap();
        let total = collapsed.total();
        let mut point = vec![0i64; nest.depth()];
        let step = (total / 997).max(1);
        let mut pc = 1;
        while pc <= total {
            collapsed.unrank_closed_form_into(pc, &mut point);
            pc += step;
        }
        let stats = collapsed.stats();
        assert_eq!(stats.binary_search, 0, "{stats:?}");
    }
}

#[test]
fn adaptive_recovery_matches_forced_engines() {
    // The adaptive engine must agree bit-exactly with both forced
    // paths, whatever it picked per level.
    for (nest, params) in [
        (NestSpec::correlation(), vec![300i64]),
        (NestSpec::figure6(), vec![25]),
    ] {
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&params).unwrap();
        let d = nest.depth();
        for pc in 1..=collapsed.total() {
            let mut adaptive = vec![0i64; d];
            let mut closed = vec![0i64; d];
            let mut binary = vec![0i64; d];
            collapsed.unrank_into(pc, &mut adaptive);
            collapsed.unrank_closed_form_into(pc, &mut closed);
            collapsed.unrank_binary_into(pc, &mut binary);
            assert_eq!(adaptive, closed, "pc={pc}");
            assert_eq!(adaptive, binary, "pc={pc}");
        }
    }
}
