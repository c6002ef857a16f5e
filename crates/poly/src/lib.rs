#![warn(missing_docs)]
//! Exact multivariate polynomials over rationals, with the discrete
//! (Faulhaber) summation operator used to build ranking Ehrhart
//! polynomials.
//!
//! The collapsing transformation of Clauss et al. (IPDPS'17) needs three
//! symbolic operations on polynomials whose variables are loop iterators
//! and size parameters:
//!
//! 1. ring arithmetic (add/mul/pow) — to assemble trip counts,
//! 2. substitution of a variable by another polynomial — to plug in
//!    affine loop bounds and lexicographic-minimum continuations,
//! 3. **discrete summation** `Σ_{t=lo}^{hi} p(t, ·)` with polynomial
//!    limits — the Ehrhart-counting step. For nests with affine bounds
//!    this is exactly iterated Faulhaber summation and produces the same
//!    polynomial a polyhedral counter (PolyLib/barvinok) would.
//!
//! [`Poly`] is the exact rational-coefficient workhorse; [`IntPoly`] is a
//! denominator-cleared specialisation for fast exact `i128` evaluation in
//! the run-time index-recovery path.
//!
//! # Examples
//!
//! Counting the triangle `{0 <= i < N, i+1 <= j < N}` by summing 1 over
//! both loops symbolically (variables: 0 = i, 1 = j, 2 = N):
//!
//! ```
//! use nrl_poly::Poly;
//! use nrl_rational::Rational;
//!
//! let one = Poly::constant_int(3, 1);
//! let i = Poly::var(3, 0);
//! let n = Poly::var(3, 2);
//! // inner count: sum_{j = i+1}^{N-1} 1 = N - 1 - i
//! let inner = one.discrete_sum(1, &(&i + &one), &(&n - &one));
//! // total: sum_{i = 0}^{N-2} (N - 1 - i) = (N^2 - N)/2
//! let total = inner.discrete_sum(0, &Poly::zero(3), &(&n - &Poly::constant_int(3, 2)));
//! assert_eq!(total.eval_i128(&[0, 0, 10]), Rational::from_int(45));
//! ```

pub mod compiled;
pub mod display;
pub mod eval;
pub mod intpoly;
pub mod monomial;
pub mod param;
pub mod poly;
pub mod subst;
pub mod sum;

pub use compiled::{CompileError, CompiledPoly, SpecializedPoly, MAX_COMPILED_COEFFS};
pub use intpoly::IntPoly;
pub use monomial::Monomial;
pub use nrl_rational::Rational;
pub use param::ParamCompiledPoly;
pub use poly::Poly;
