#![warn(missing_docs)]
//! # nrl — automatic collapsing of non-rectangular loops
//!
//! A Rust reproduction of *Clauss, Altıntaş, Kuhn — "Automatic
//! Collapsing of Non-Rectangular Loops" (IPDPS 2017)*: flatten any
//! perfect nest of parallel loops with affine bounds (triangular,
//! tetrahedral, trapezoidal, rhomboidal, parallelepiped iteration
//! spaces) into a single loop whose iterations can be divided evenly
//! across threads — the load-balanced schedule OpenMP's `collapse`
//! clause only offers for rectangular nests.
//!
//! This facade crate re-exports the whole stack:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | exact arithmetic | [`rational`] | rationals, Bernoulli numbers |
//! | symbolic algebra | [`poly`] | multivariate polynomials, Faulhaber sums |
//! | domains | [`polyhedra`] | affine nests, lexmin, Fourier–Motzkin |
//! | closed forms | [`solver`] | complex arithmetic, Cardano/Ferrari |
//! | runtime | [`parfor`] | OpenMP-like schedules on a thread pool |
//! | **the paper** | [`core`] | ranking polynomials, unranking, executors |
//! | caching | [`plan`] | analyze-once/instantiate-many plan cache with request coalescing |
//! | serving | [`serve`] | collapse-as-a-service: admission, queues, quotas, metrics |
//! | observability | [`obs`] | spans, event rings, log2 latency histograms, chrome-trace export |
//! | extensions | [`morph`] | shape remapping, fusion, packed layouts (§IX future work) |
//! | tooling | [`dsl`] | C-like parser, collapsed-code generation |
//! | evaluation | [`kernels`] | the paper's 11 benchmark programs |
//!
//! The crate-by-crate map with the full request lifecycle lives in
//! `docs/ARCHITECTURE.md`; every observable counter is documented in
//! `docs/COUNTERS.md`.
//!
//! ## Quickstart
//!
//! ```
//! use nrl::prelude::*;
//!
//! // The paper's Fig. 1 nest: i in 0..N−1, j in i+1..N (triangular).
//! let nest = NestSpec::correlation();
//! let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[1000]).unwrap();
//!
//! // 499500 iterations, distributed perfectly evenly:
//! let pool = ThreadPool::new(4);
//! let report = collapsed
//!     .runner(&pool)
//!     .run(|_tid, point| { let (_i, _j) = (point[0], point[1]); })
//!     .report;
//! assert_eq!(report.total_iterations(), 499_500);
//! assert!(report.iteration_imbalance() < 1.01);
//!
//! // Deterministic parallel reduction over the same points: the value
//! // is bit-identical for any schedule, recovery, or pool size.
//! let sum = reducer(|| 0i64, |_t, p: &[i64], acc: &mut i64| *acc += p[1], |a, b| a + b);
//! let expect: i64 = (0..1000).map(|j| j * j).sum();
//! assert_eq!(collapsed.runner(&pool).reduce(&sum).value, expect);
//! ```

pub use nrl_core as core;
pub use nrl_dsl as dsl;
pub use nrl_kernels as kernels;
pub use nrl_morph as morph;
pub use nrl_obs as obs;
pub use nrl_parfor as parfor;
pub use nrl_plan as plan;
pub use nrl_poly as poly;
pub use nrl_polyhedra as polyhedra;
pub use nrl_rational as rational;
pub use nrl_serve as serve;
pub use nrl_solver as solver;

/// The names most programs need.
pub mod prelude {
    pub use nrl_core::{
        balanced_outer_cuts, guarded_reducer, reducer, run_outer_parallel, run_outer_partitioned,
        run_seq, run_seq_guarded, CollapseSpec, Collapsed, GuardedReducer, NestPosition, OuterCuts,
        ParamPlan, Ranking, Recovery, ReduceCounters, Reducer, Reduction, RunReport, Runner,
    };
    pub use nrl_morph::{FusedLoop, PackedArray, PackedLayout, RankRemap};
    pub use nrl_parfor::{RunOutcome, RunToken, Schedule, StopCause, ThreadPool};
    pub use nrl_plan::{PlanCache, PlanContext};
    pub use nrl_polyhedra::{Affine, NestSpec, Space};
    pub use nrl_serve::{
        CollapseRequest, CollapseService, RunRequest, RunWork, ServeConfig, ServeReducer, Tenant,
    };
}
