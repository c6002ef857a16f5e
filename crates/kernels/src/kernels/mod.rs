//! The individual evaluation programs.

mod cholupd;
mod correlation;
mod covariance;
mod extended;
mod guarded;
mod ltmp;
mod symm;
mod syr2k;
mod syrk;
mod trmm;
mod utma;

pub use cholupd::CholUpd;
pub use correlation::{Correlation, CorrelationTiled};
pub use covariance::{Covariance, CovarianceTiled};
pub use extended::{Banded, Sheared3d};
pub use guarded::GuardedNest;
pub use ltmp::Ltmp;
pub use symm::Symm;
pub use syr2k::Syr2k;
pub use syrk::Syrk;
pub use trmm::Trmm;
pub use utma::Utma;

use nrl_core::{CollapseSpec, Collapsed};
use nrl_plan::{PlanCache, PlanContext};
use nrl_polyhedra::{BoundNest, NestSpec};
use std::sync::atomic::{AtomicBool, Ordering};

/// When set (see [`crate::registry::set_plan_verification`]), every
/// [`build_collapse`] additionally binds the nest from scratch and
/// asserts the cache-served instance is bit-identical — the
/// `kernel_smoke` fidelity mode.
pub(crate) static PLAN_VERIFY: AtomicBool = AtomicBool::new(false);

/// Builds the run-time collapse objects for a kernel's nest, resolving
/// the analyzed plan through the global [`PlanCache`]: re-instantiating
/// a registered shape at a new size (tiled variants, scaled harness
/// runs) skips the symbolic analysis entirely.
pub(crate) fn build_collapse(nest: &NestSpec, params: &[i64]) -> (BoundNest, Collapsed) {
    let plan = PlanCache::global()
        .get_or_analyze(nest, PlanContext::default())
        .expect("kernel nest within supported depth");
    let collapsed = plan
        .instantiate(params)
        .expect("kernel domain must have non-negative trip counts");
    if PLAN_VERIFY.load(Ordering::Relaxed) {
        verify_against_fresh_bind(nest, params, &collapsed);
    }
    (nest.bind(params), collapsed)
}

/// Asserts a cache-served [`Collapsed`] is bit-identical to binding the
/// concretized nest from scratch: totals, per-level engine choices,
/// overflow proofs, and a sampled unrank/rank sweep.
fn verify_against_fresh_bind(nest: &NestSpec, params: &[i64], cached: &Collapsed) {
    let fresh = CollapseSpec::new(nest)
        .expect("kernel nest within supported depth")
        .bind(params)
        .expect("kernel domain must have non-negative trip counts");
    assert_eq!(cached.total(), fresh.total(), "plan-vs-fresh total");
    assert_eq!(
        cached.rank_i64_proven(),
        fresh.rank_i64_proven(),
        "plan-vs-fresh rank overflow proof"
    );
    for k in 0..nest.depth() {
        assert_eq!(
            cached.level_engine(k),
            fresh.level_engine(k),
            "plan-vs-fresh engine at level {k}"
        );
        assert_eq!(
            cached.level_i64_proven(k),
            fresh.level_i64_proven(k),
            "plan-vs-fresh overflow proof at level {k}"
        );
    }
    let total = cached.total();
    let step = (total / 257).max(1);
    let mut a = vec![0i64; nest.depth()];
    let mut b = vec![0i64; nest.depth()];
    let mut pc = 1i128;
    while pc <= total {
        cached.unrank_into(pc, &mut a);
        fresh.unrank_into(pc, &mut b);
        assert_eq!(a, b, "plan-vs-fresh unrank({pc})");
        assert_eq!(cached.rank(&a), fresh.rank(&a), "plan-vs-fresh rank");
        pc += step;
    }
}
