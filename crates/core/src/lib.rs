#![warn(missing_docs)]
//! # nrl-core — automatic collapsing of non-rectangular loops
//!
//! This crate implements the central contribution of *Clauss, Altıntaş,
//! Kuhn — "Automatic Collapsing of Non-Rectangular Loops" (IPDPS 2017)*:
//! flattening a perfect nest of parallel loops with affine bounds into a
//! single loop `for pc in 1..=total`, so that OpenMP-style static
//! scheduling divides the *iterations* — not the unbalanced outer rows —
//! evenly across threads.
//!
//! The pipeline:
//!
//! 1. [`Ranking::new`] builds the **ranking Ehrhart polynomial**
//!    `r(i1..id)` of a [`NestSpec`] by symbolic
//!    Faulhaber summation (§III of the paper), together with the total
//!    iteration count.
//! 2. [`CollapseSpec::new`] prepares, per loop level, the univariate
//!    equation `r(i1..i_{k−1}, x, lexmin-continuation) − pc = 0` (§IV).
//! 3. [`CollapseSpec::bind`] fixes the size parameters, producing a
//!    [`Collapsed`] object whose [`unrank`](Collapsed::unrank) recovers
//!    original indices from `pc` — closed-form roots (degree ≤ 4, complex
//!    arithmetic as required by §IV-C) followed by an **exact integer
//!    verification** that repairs any floating-point rounding, with a
//!    monotone binary search as a guaranteed fallback (this also lifts
//!    the paper's degree-4 limitation, §IV-B).
//! 4. [`Collapsed::runner`] runs the collapsed loop under OpenMP-like
//!    schedules with the recovery-cost minimization of §V (one anchor
//!    recovery per chunk, then odometer incrementation row by row) and
//!    the §VI.B GPU-warp simulation ([`Runner::warp`]).
//!
//! ```
//! use nrl_core::CollapseSpec;
//! use nrl_polyhedra::NestSpec;
//!
//! // The paper's motivating triangular nest (Fig. 1), N = 100.
//! let nest = NestSpec::correlation();
//! let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[100]).unwrap();
//! assert_eq!(collapsed.total(), 99 * 100 / 2);
//!
//! // Recover (i, j) from the flattened index, exactly.
//! let point = collapsed.unrank(1);
//! assert_eq!(point, vec![0, 1]);
//! ```

pub mod collapsed;
pub mod exec;
pub mod imperfect;
pub(crate) mod obs;
pub mod partition;
pub mod plan;
pub mod ranking;
pub mod reduce;
pub mod rowwalk;
pub mod runner;
pub mod unrank;

pub use collapsed::{BindError, CollapseError, CollapseSpec, Collapsed, Unranker};
pub use exec::{run_outer_parallel, run_seq, Recovery};
pub use imperfect::{run_seq_guarded, NestPosition};
pub use partition::{balanced_outer_cuts, run_outer_partitioned, OuterCuts};
pub use plan::ParamPlan;
pub use ranking::Ranking;
pub use reduce::{
    guarded_reducer, reduce_grain, reducer, FnGuardedReducer, FnReducer, GuardedReducer,
    ReduceCounters, Reducer, Reduction,
};
pub use rowwalk::{RowSegment, RowWalker};
pub use runner::{RunReport, Runner, Strategy};
pub use unrank::{LevelEngine, RecoveryStats};

// Re-exports so downstream users need only one crate.
pub use nrl_parfor::{RunOutcome, RunToken, Schedule, StopCause, ThreadPool};
pub use nrl_polyhedra::{Affine, BoundNest, NestSpec, Space};
