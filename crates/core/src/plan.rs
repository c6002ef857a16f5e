//! [`ParamPlan`]: the analyze-once / instantiate-many split of the
//! collapse pipeline.
//!
//! [`CollapseSpec::bind`] repeats, on every call, work that only
//! depends on the nest *shape*: rational parameter folding of every
//! level polynomial, ring shrinking, Horner lowering, and a
//! Fourier–Motzkin feasibility proof. A service answering many
//! collapse requests over the same shapes at different sizes should
//! pay the symbolic analysis once and stamp out per-request
//! [`Collapsed`] instances from precompiled artifacts — the same
//! modularity argument modular loop-acceleration and synthesis systems
//! make for their expensive analyses.
//!
//! `ParamPlan` is that split:
//!
//! * [`ParamPlan::analyze`] runs the full symbolic pipeline — ranking
//!   construction (Bernoulli/Faulhaber sums), per-level inversion
//!   polynomials, **parametric lowering**
//!   ([`nrl_poly::ParamCompiledPoly`]: ladders whose coefficients are
//!   themselves small integer ladders in the parameter vector), the
//!   denominator-cleared total polynomial, and the parameter-space
//!   Fourier–Motzkin [trip-count certificate](TripCountCertificate);
//! * [`ParamPlan::instantiate`] folds a concrete parameter vector
//!   through those artifacts: coefficient evaluation, interval
//!   analysis, per-level engine choice and overflow proof — no
//!   `Rational` arithmetic, no ring surgery, no elimination. The
//!   result is **bit-identical** to `CollapseSpec::new(nest)?.bind(params)?`
//!   (same totals, engines, overflow proofs, recovery results), at a
//!   small fraction of the cost.
//!
//! ```
//! use nrl_core::{CollapseSpec, ParamPlan};
//! use nrl_polyhedra::NestSpec;
//!
//! let nest = NestSpec::correlation();
//! let plan = ParamPlan::analyze(&nest).unwrap();     // once per shape
//! for n in [100i64, 1000, 10_000] {
//!     let collapsed = plan.instantiate(&[n]).unwrap(); // per request
//!     let fresh = CollapseSpec::new(&nest).unwrap().bind(&[n]).unwrap();
//!     assert_eq!(collapsed.total(), fresh.total());
//!     assert_eq!(collapsed.unrank(collapsed.total()), fresh.unrank(fresh.total()));
//! }
//! ```

use crate::collapsed::{
    assemble_level, assemble_rank, bind_poly, iterator_box, BindError, CollapseError, CollapseSpec,
    Collapsed,
};
use nrl_poly::{IntPoly, ParamCompiledPoly};
use nrl_polyhedra::{NestSpec, TripCountCertificate, TripProof};

/// The reusable, parameter-independent product of analyzing one nest
/// shape: symbolic ranking/inversion polynomials plus every bind-time
/// artifact that does not depend on parameter values. Cheap to
/// [`instantiate`](Self::instantiate), safe to share across threads
/// (`Sync` — typically behind an `Arc` in a plan cache).
#[derive(Clone, Debug)]
pub struct ParamPlan {
    spec: CollapseSpec,
    /// Per level `k`: `R_k` parametrically lowered univariate-in-`i_k`.
    levels: Vec<ParamCompiledPoly>,
    /// The ranking polynomial parametrically lowered in the innermost
    /// index (`None` only at depth 0).
    rank: Option<ParamCompiledPoly>,
    /// Denominator-cleared total-count polynomial over the full ring.
    total: IntPoly,
    /// Parameter-space projection of the per-level trip-count
    /// violation systems (the analyze-time half of `bind` validation).
    cert: TripCountCertificate,
}

impl ParamPlan {
    /// Runs the analyze-once half of the pipeline on a nest shape.
    pub fn analyze(nest: &NestSpec) -> Result<ParamPlan, CollapseError> {
        Ok(CollapseSpec::new(nest)?.into_plan())
    }

    /// The symbolic collapse spec the plan was compiled from (ranking
    /// polynomial, level equations — the codegen-facing surface).
    pub fn spec(&self) -> &CollapseSpec {
        &self.spec
    }

    /// The nest shape this plan collapses.
    pub fn nest(&self) -> &NestSpec {
        self.spec.nest()
    }

    /// Instantiates the plan at concrete parameters, validating the
    /// domain exactly as [`CollapseSpec::bind`] does — but through the
    /// precomputed certificate, falling back to the exhaustive prefix
    /// walk only where the rational relaxation cannot rule a violation
    /// out.
    pub fn instantiate(&self, params: &[i64]) -> Result<Collapsed, BindError> {
        let nest = self.nest();
        if params.len() != nest.nparams() {
            return Err(BindError::ParamArity {
                expected: nest.nparams(),
                got: params.len(),
            });
        }
        if self.cert.check(params) != TripProof::Proved {
            if let Err((level, prefix)) = nest.check_trip_counts(params, false) {
                return Err(BindError::NegativeTripCount { level, prefix });
            }
        }
        Ok(self.instantiate_unchecked(params))
    }

    /// Instantiates without domain validation (the counterpart of
    /// [`CollapseSpec::bind_unchecked`], with the same contract).
    pub fn instantiate_unchecked(&self, params: &[i64]) -> Collapsed {
        let nest = self.nest();
        let d = nest.depth();
        let bound_nest = nest.bind(params);
        let mut full = vec![0i64; nest.space().len()];
        full[d..].copy_from_slice(params);
        let total = self.total.eval_int(&full);
        let var_box = iterator_box(nest, params);
        let levels = self
            .levels
            .iter()
            .enumerate()
            .map(|(k, pl)| {
                let (compiled, rk) = pl.instantiate(params);
                assemble_level(compiled, rk, k, &var_box)
            })
            .collect();
        let (rank_int, rank_compiled, rank_i64_safe) = match &self.rank {
            Some(pr) => {
                let (cp, ip) = pr.instantiate(params);
                let (compiled, safe) = assemble_rank(cp, d, &var_box);
                (ip, compiled, safe)
            }
            // Depth 0: no innermost index to lower in — keep the
            // (constant) reference polynomial only, like bind does.
            None => (
                IntPoly::from_poly(&bind_poly(self.spec.ranking().rank_poly(), d, params)),
                None,
                false,
            ),
        };
        Collapsed::from_parts(
            bound_nest,
            d,
            total,
            levels,
            rank_int,
            rank_compiled,
            rank_i64_safe,
        )
    }
}

impl CollapseSpec {
    /// Finishes the analyze half on an already-built spec: parametric
    /// lowering of every level equation and the ranking polynomial,
    /// plus the parameter-space trip-count certificate. Together with
    /// [`CollapseSpec::new`] this is exactly
    /// [`ParamPlan::analyze`].
    pub fn into_plan(self) -> ParamPlan {
        let nest = self.nest();
        let d = nest.depth();
        let levels = (0..d)
            .map(|k| {
                ParamCompiledPoly::lower(self.level_poly(k), k, d)
                    .expect("collapsible nests stay within the compiled-ladder capacity")
            })
            .collect();
        let rank = (d > 0).then(|| {
            ParamCompiledPoly::lower(self.ranking().rank_poly(), d - 1, d)
                .expect("collapsible nests stay within the compiled-ladder capacity")
        });
        let total = IntPoly::from_poly(self.ranking().total_poly());
        let cert = nest.trip_count_certificate(false);
        ParamPlan {
            spec: self,
            levels,
            rank,
            total,
            cert,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unrank::LevelEngine;

    fn assert_plan_matches_bind(nest: &NestSpec, params: &[i64]) {
        let spec = CollapseSpec::new(nest).unwrap();
        let plan = ParamPlan::analyze(nest).unwrap();
        match (plan.instantiate(params), spec.bind(params)) {
            (Ok(inst), Ok(fresh)) => {
                assert_eq!(inst.total(), fresh.total(), "total at {params:?}");
                for k in 0..nest.depth() {
                    assert_eq!(
                        inst.level_engine(k),
                        fresh.level_engine(k),
                        "engine at level {k}, {params:?}"
                    );
                    assert_eq!(
                        inst.level_i64_proven(k),
                        fresh.level_i64_proven(k),
                        "overflow proof at level {k}, {params:?}"
                    );
                }
                assert_eq!(inst.rank_i64_proven(), fresh.rank_i64_proven());
                let total = inst.total();
                let step = (total / 37).max(1);
                let mut a = vec![0i64; nest.depth()];
                let mut b = vec![0i64; nest.depth()];
                let mut pc = 1i128;
                while pc <= total {
                    inst.unrank_into(pc, &mut a);
                    fresh.unrank_into(pc, &mut b);
                    assert_eq!(a, b, "unrank({pc}) at {params:?}");
                    assert_eq!(inst.rank(&a), fresh.rank(&a));
                    pc += step;
                }
            }
            (Err(e1), Err(e2)) => assert_eq!(e1, e2, "bind errors diverge at {params:?}"),
            (inst, fresh) => panic!(
                "plan/bind outcomes diverge at {params:?}: {:?} vs {:?}",
                inst.map(|c| c.total()),
                fresh.map(|c| c.total())
            ),
        }
    }

    #[test]
    fn instantiate_matches_bind_on_paper_nests() {
        for n in [1i64, 2, 3, 12, 40, 1000] {
            assert_plan_matches_bind(&NestSpec::correlation(), &[n]);
            assert_plan_matches_bind(&NestSpec::figure6(), &[n]);
        }
        assert_plan_matches_bind(&NestSpec::rectangular(&[4, 3, 2]), &[]);
    }

    #[test]
    fn instantiate_matches_bind_errors() {
        let plan = ParamPlan::analyze(&NestSpec::correlation()).unwrap();
        assert!(matches!(
            plan.instantiate(&[]),
            Err(BindError::ParamArity {
                expected: 1,
                got: 0
            })
        ));
        assert!(matches!(
            plan.instantiate(&[0]),
            Err(BindError::NegativeTripCount { level: 0, .. })
        ));
    }

    #[test]
    fn engine_choice_is_a_bind_time_fact_through_the_plan_too() {
        let plan = ParamPlan::analyze(&NestSpec::correlation()).unwrap();
        let narrow = plan.instantiate(&[64]).unwrap();
        assert_eq!(narrow.level_engine(0), LevelEngine::BinarySearch);
        let wide = plan.instantiate(&[2_000_000]).unwrap();
        assert_eq!(wide.level_engine(0), LevelEngine::ClosedForm);
    }

    #[test]
    fn plan_execution_roundtrips() {
        let plan = ParamPlan::analyze(&NestSpec::figure6()).unwrap();
        let collapsed = plan.instantiate(&[9]).unwrap();
        for (pc, point) in (1i128..).zip(NestSpec::figure6().enumerate(&[9])) {
            assert_eq!(collapsed.unrank(pc), point);
            assert_eq!(collapsed.rank(&point), pc);
        }
    }
}
