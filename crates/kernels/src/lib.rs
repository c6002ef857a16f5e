#![warn(missing_docs)]
//! The paper's evaluation programs (§VII).
//!
//! Eleven kernels: nine Polybench-derived non-rectangular nests plus the
//! two triangular-matrix programs the paper adds (`utma`, `ltmp`). Each
//! kernel exposes the same set of execution modes the paper compares:
//!
//! * sequential (correctness reference + Fig. 10 baseline),
//! * outer-loop parallel with `schedule(static)` / `schedule(dynamic)`,
//! * collapsed with any schedule and recovery strategy,
//! * serial-with-`k`-recoveries (the Fig. 10 overhead probe).
//!
//! Every kernel's collapsed loops are dependence-free by construction:
//! each `(i, j)` iteration writes only cells owned by that pair, and the
//! inner `k` loops are per-iteration reductions. (Where the original
//! Polybench loop carries a dependence — e.g. in-place `trmm` — the
//! kernel is re-expressed out-of-place; see DESIGN.md for the
//! substitution table.)
//!
//! Output arrays are written concurrently through [`SyncSlice`], whose
//! safety contract (disjoint indices per iteration) each kernel upholds
//! structurally and the tests verify by comparing parallel outputs
//! bitwise against the sequential reference.

pub mod data;
pub mod kernels;
pub mod mode;
pub mod reductions;
pub mod registry;
pub mod shared;

pub use data::Matrix;
pub use mode::{execute_mode, Mode};
pub use reductions::{outer_sum, reduce_sum, seq_sum};
pub use registry::{
    all_kernels, extended_kernels, guarded_kernels, kernel_by_name, set_plan_verification, Kernel,
    KernelInfo,
};
pub use shared::SyncSlice;
