//! Index recovery: inverting the ranking polynomial (§IV).
//!
//! Per level `k`, the equation `R_k(x) = pc` is solved where `R_k` is the
//! ranking polynomial with levels deeper than `k` pinned to their
//! lexicographic-minimum continuation. The closed-form root (degree ≤ 4,
//! complex arithmetic) gives a floating-point estimate; an **exact
//! integer verification** (`R_k(v) ≤ pc < R_k(v+1)` in `i128`) then pins
//! the true index, nudging ±1 when rounding drifted and falling back to
//! a monotone binary search in the worst case. The paper floors the
//! float directly and relies on well-behaved rounding; the verification
//! step makes the recovery exact for arbitrary parameter sizes, and the
//! binary-search fallback additionally handles ranking polynomials of
//! degree > 4 (beyond the paper's closed-form limit).
//!
//! ## The compiled hot path
//!
//! Every probe of one recovery evaluates `R_k` at the *same* prefix
//! `(i_0 … i_{k−1})`, varying only `x = i_k`. Since this workspace's
//! v1, each level therefore holds a [`CompiledPoly`] — `R_k` lowered
//! once at bind time into a Horner-ordered coefficient ladder,
//! univariate in `x` — and `BoundLevel::recover_with` begins by
//! **specializing** the ladder at the prefix: a single pass that folds
//! `point[..k]` into a flat `[i128; deg+1]` array. After that, the ±1
//! verification, every binary-search step and the closed-form
//! coefficient assembly are `O(deg)` Horner sweeps with zero allocation
//! and no pow recomputation; probes compare `numer(x) ≤ pc·den` so not
//! even a division remains. A bind-time magnitude analysis proves, per
//! level, when the sweeps cannot overflow `i64` (unchecked fast path);
//! otherwise they run in checked `i128`.
//!
//! The original term-by-term multivariate evaluation survives as
//! `BoundLevel::recover_reference` — the ground truth the
//! differential tests and ablation benches compare against.

use nrl_poly::{CompiledPoly, IntPoly, SpecializedPoly, MAX_COMPILED_COEFFS};
use nrl_solver::{polish_real_root, solve_into, solve_real, Complex64, MAX_DEGREE};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum supported nest depth for the stack-allocated hot path.
pub const MAX_DEPTH: usize = 16;

/// The recovery engine one level uses on the adaptive hot path, decided
/// once at bind time from the level's univariate degree and the proven
/// width of its search range (degree-1 levels bypass both engines
/// through the exact linear path).
///
/// The crossover logic: a binary-search probe is an `O(deg)` Horner
/// sweep costing a few nanoseconds (more when only the checked `i128`
/// path is proven), and the search pays `⌈log₂ width⌉` of them; the
/// closed form pays a fixed price per degree (real quadratic/cubic
/// formulas, or the complex Ferrari route for quartics) plus the exact
/// ±1 verification. Narrow levels therefore binary-search, wide levels
/// solve — the opposite ends of the trade the paper's §IV assumes is
/// always won by the closed form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelEngine {
    /// Closed-form root + exact verification (degree 2–4), with the
    /// binary search kept as the guaranteed fallback.
    ClosedForm,
    /// Monotone integer binary search over the compiled ladder.
    BinarySearch,
}

/// Equivalent-probe cost of one closed-form solve per degree, in units
/// of one proven-`i64` Horner probe of the same degree. Calibrated on
/// the `unrank` microbenches (see `crates/bench/benches/unranking.rs`):
/// the fused real quadratic costs about as much as 14 quadratic probes
/// (solve+verify ≈ one 10-probe search + 30 ns at ~7 ns/probe), the
/// real cubic about 22 cubic probes, and the complex-arithmetic Ferrari
/// quartic remains far more expensive.
const CLOSED_FORM_PROBE_EQUIV: [u32; MAX_DEGREE + 1] = [0, 0, 14, 22, 60];

impl LevelEngine {
    /// Picks the engine for a level of univariate degree `deg` whose
    /// search range is proven at most `width` values wide (`None` when
    /// the interval analysis overflowed — treated as unbounded).
    /// `i64_safe` scales the probe cost: unproven levels probe through
    /// checked `i128` arithmetic, roughly 3× dearer. The crossover runs
    /// on the committed `CLOSED_FORM_PROBE_EQUIV` constants, so the
    /// choice depends only on the bound level, never on timing.
    pub fn choose(deg: usize, width: Option<i64>, i64_safe: bool) -> LevelEngine {
        // Degree 0/1 levels never consult the engine (the exact linear
        // path runs first); report the search so introspection via
        // `Collapsed::level_engine` stays honest. Degrees beyond the
        // closed forms can only search.
        if !(2..=MAX_DEGREE).contains(&deg) {
            return LevelEngine::BinarySearch;
        }
        // ⌈log₂(width + 1)⌉ probes to pin one value in `width` many.
        let probes = match width {
            Some(w) if w >= 0 => 64 - (w as u64).leading_zeros(),
            _ => 63,
        };
        let probe_cost = if i64_safe { 1 } else { 3 };
        if probes * probe_cost > CLOSED_FORM_PROBE_EQUIV[deg] {
            LevelEngine::ClosedForm
        } else {
            LevelEngine::BinarySearch
        }
    }
}

/// One collapsed level with parameters bound: everything needed to
/// recover `i_k` from `pc` and the outer prefix.
#[derive(Clone, Debug)]
pub struct BoundLevel {
    /// `R_k` lowered univariate-in-`i_k`: the production hot path.
    pub(crate) compiled: CompiledPoly,
    /// `R_k` as a plain multivariate integer polynomial — the reference
    /// evaluation path (differential tests, ablation baseline).
    pub(crate) rk: IntPoly,
    /// Whether the univariate degree allows a closed form (≤ 4).
    pub(crate) closed_form: bool,
    /// Bind-time proof that specialized Horner sweeps fit in `i64` for
    /// every reachable probe (see `CompiledPoly::magnitude_bound`).
    pub(crate) i64_safe: bool,
    /// The engine the adaptive hot path uses for this level.
    pub(crate) engine: LevelEngine,
}

/// Counters describing which recovery path unranking has taken (useful
/// for the §V overhead analysis and for regression tests asserting the
/// closed form almost always lands exactly).
#[derive(Debug, Default)]
pub struct RecoveryCounters {
    /// Closed-form root verified exactly on the first candidate.
    pub closed_form_exact: AtomicU64,
    /// Closed-form root needed a ±1 nudge.
    pub corrected: AtomicU64,
    /// Fell back to the monotone binary search.
    pub binary_search: AtomicU64,
    /// Level solved by the exact integer linear path (degree 1).
    pub linear_exact: AtomicU64,
    /// `Unranker` cache hits: a specialization reused because the outer
    /// prefix had not moved (incl. across chunk boundaries under the
    /// per-worker scratch slots).
    pub spec_cache_hit: AtomicU64,
    /// `Unranker` cache misses: the prefix moved, a fresh
    /// specialization was folded.
    pub spec_cache_miss: AtomicU64,
}

/// A plain snapshot of [`RecoveryCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Closed-form root verified exactly on the first candidate.
    pub closed_form_exact: u64,
    /// Closed-form root needed a ±1 nudge.
    pub corrected: u64,
    /// Fell back to the monotone binary search.
    pub binary_search: u64,
    /// Level solved by the exact integer linear path.
    pub linear_exact: u64,
    /// `Unranker` specialization-cache hits.
    pub spec_cache_hit: u64,
    /// `Unranker` specialization-cache misses.
    pub spec_cache_miss: u64,
}

impl RecoveryCounters {
    /// Takes a snapshot.
    pub fn snapshot(&self) -> RecoveryStats {
        RecoveryStats {
            closed_form_exact: self.closed_form_exact.load(Ordering::Relaxed),
            corrected: self.corrected.load(Ordering::Relaxed),
            binary_search: self.binary_search.load(Ordering::Relaxed),
            linear_exact: self.linear_exact.load(Ordering::Relaxed),
            spec_cache_hit: self.spec_cache_hit.load(Ordering::Relaxed),
            spec_cache_miss: self.spec_cache_miss.load(Ordering::Relaxed),
        }
    }
}

/// The probe target `pc·den`, overflow-checked: every recovery probe
/// compares numerators against this product, so an overflow here (a
/// rank beyond what the denominator leaves room for in `i128`) must
/// fail loudly instead of wrapping into a wrong index. Under the
/// `fault-inject` feature the containment tests can force this path
/// without a 10³⁸-point domain.
#[inline]
fn rank_target(pc: i128, den: i128) -> i128 {
    #[cfg(feature = "fault-inject")]
    if nrl_parfor::faults::forced_overflow() {
        panic!("rank target overflows i128 at this denominator (forced by fault injection)");
    }
    pc.checked_mul(den)
        .expect("rank target overflows i128 at this denominator")
}

impl BoundLevel {
    /// Folds the prefix `point[..k]` into the flat Horner ladder for
    /// this recovery (the once-per-recovery specialization step).
    #[inline]
    pub(crate) fn specialize(&self, point: &[i64]) -> SpecializedPoly {
        self.compiled.specialize(point, self.i64_safe)
    }

    /// Recovers `i_k` given the outer prefix in `point[..k]`, through
    /// this level's bind-time-chosen engine. `lb`/`ub` bound the
    /// search; `pc` is 1-based.
    ///
    /// Requires `R_k(lb) ≤ pc` (true whenever the prefix was recovered
    /// correctly and `pc ≤ total`).
    pub(crate) fn recover(
        &self,
        point: &mut [i64],
        k: usize,
        lb: i64,
        ub: i64,
        pc: i128,
        counters: &RecoveryCounters,
    ) -> i64 {
        self.recover_with(point, k, lb, ub, pc, counters, self.engine)
    }

    /// [`Self::recover`] with the engine forced — the per-engine
    /// ablation axes ([`LevelEngine::BinarySearch`] is the pure integer
    /// unranker; [`LevelEngine::ClosedForm`] is the always-solve path
    /// the paper assumes, still falling back to the search where no
    /// closed form exists).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recover_with(
        &self,
        point: &mut [i64],
        k: usize,
        lb: i64,
        ub: i64,
        pc: i128,
        counters: &RecoveryCounters,
        engine: LevelEngine,
    ) -> i64 {
        debug_assert!(lb <= ub, "empty level reached during recovery");
        if lb == ub {
            return lb;
        }
        debug_assert_eq!(self.compiled.x(), k, "level/ladder mismatch");
        let spec = self.specialize(point);
        self.recover_spec(&spec, lb, ub, pc, counters, engine)
    }

    /// The recovery engine over an already-specialized ladder (callers
    /// holding a [`SpecializedPoly`] cache — see
    /// [`Unranker`](crate::collapsed::Unranker) — skip straight here).
    #[inline]
    pub(crate) fn recover_spec(
        &self,
        spec: &SpecializedPoly,
        lb: i64,
        ub: i64,
        pc: i128,
        counters: &RecoveryCounters,
        engine: LevelEngine,
    ) -> i64 {
        debug_assert!(lb <= ub, "empty level reached during recovery");
        if lb == ub {
            return lb;
        }
        let den = spec.denominator();
        // All probes compare numerators against `pc·den`: no division
        // (or exactness check) anywhere in the probe loop.
        let target = rank_target(pc, den);
        let deg = spec.degree();
        // Exact integer path for linear levels (covers the innermost
        // level — the paper's `ic = pc − r(i1..i_{c−1}, 0)` — and every
        // level of a rectangular-in-x nest).
        if deg == 1 {
            let c0 = spec.coeff(0);
            let c1 = spec.coeff(1);
            // R_k(x) = (c0 + c1·x)/den ⇒ x = (pc·den − c0)/c1, floored.
            debug_assert!(c1 > 0, "ranking must increase with the index");
            let x = (target - c0).div_euclid(c1);
            let x = (x.clamp(lb as i128, ub as i128)) as i64;
            counters.linear_exact.fetch_add(1, Ordering::Relaxed);
            return x;
        }
        if engine == LevelEngine::ClosedForm && self.closed_form {
            // O(deg) coefficient assembly from the specialized ladder.
            let mut cf = [0.0f64; MAX_COMPILED_COEFFS];
            spec.write_f64_coeffs(&mut cf);
            cf[0] -= pc as f64;
            let found = if deg <= 3 {
                // Fused real path: quadratic/cubic real roots with
                // Newton polishing folded in — no complex arithmetic,
                // no allocation.
                solve_real(&cf[..=deg], 2)
                    .and_then(|roots| self.try_real_roots(&roots, spec, target, lb, ub, counters))
            } else {
                // Quartics keep the complex Ferrari route, through the
                // fixed-size buffer (no allocation either).
                let mut buf = [Complex64::ZERO; MAX_DEGREE];
                let n = solve_into(&cf[..=deg], &mut buf);
                self.try_complex_roots(&buf[..n], &cf[..=deg], spec, target, lb, ub, counters)
            };
            if let Some(x) = found {
                return x;
            }
        }
        // Guaranteed fallback: R_k is non-decreasing over [lb, ub+1], so
        // the answer is the largest v with R_k(v) ≤ pc. Each probe is an
        // O(deg) Horner sweep.
        counters.binary_search.fetch_add(1, Ordering::Relaxed);
        let (mut lo, mut hi) = (lb, ub);
        while lo < hi {
            let mid = lo + (hi - lo + 1) / 2;
            if spec.eval_numer(mid) <= target {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// Exact verification of one floored root candidate with the ±1
    /// correction window: returns the index iff
    /// `R_k(v) ≤ pc < R_k(v+1)` for some `v ∈ {⌊root⌋, ⌊root⌋±1}`.
    #[inline]
    fn verify_candidate(
        &self,
        spec: &SpecializedPoly,
        target: i128,
        lb: i64,
        ub: i64,
        root: f64,
        counters: &RecoveryCounters,
    ) -> Option<i64> {
        let base = root.floor();
        if !base.is_finite() {
            return None;
        }
        let base = (base as i64).clamp(lb, ub);
        for (attempt, delta) in [0i64, 1, -1].into_iter().enumerate() {
            let v = base + delta;
            if v < lb || v > ub {
                continue;
            }
            if spec.eval_numer(v) <= target && target < spec.eval_numer(v + 1) {
                if attempt == 0 {
                    counters.closed_form_exact.fetch_add(1, Ordering::Relaxed);
                } else {
                    counters.corrected.fetch_add(1, Ordering::Relaxed);
                }
                return Some(v);
            }
        }
        None
    }

    /// Tries the already-polished real roots of the fused fast path.
    fn try_real_roots(
        &self,
        roots: &[f64],
        spec: &SpecializedPoly,
        target: i128,
        lb: i64,
        ub: i64,
        counters: &RecoveryCounters,
    ) -> Option<i64> {
        for &root in roots {
            // Reject roots far outside the feasible range before paying
            // for verification.
            if !root.is_finite() || root < lb as f64 - 2.0 || root > ub as f64 + 2.0 {
                continue;
            }
            if let Some(v) = self.verify_candidate(spec, target, lb, ub, root, counters) {
                return Some(v);
            }
        }
        None
    }

    /// Tries the closed-form complex roots (nearest-to-real first) with
    /// exact verification — the quartic route.
    #[allow(clippy::too_many_arguments)]
    fn try_complex_roots(
        &self,
        roots: &[Complex64],
        cf: &[f64],
        spec: &SpecializedPoly,
        target: i128,
        lb: i64,
        ub: i64,
        counters: &RecoveryCounters,
    ) -> Option<i64> {
        // Order candidate roots by imaginary magnitude: per §IV-D the
        // convenient root is the (essentially) real one.
        let n = roots.len();
        let mut order: [usize; 4] = [0, 1, 2, 3];
        order[..n].sort_by(|&a, &b| roots[a].im.abs().total_cmp(&roots[b].im.abs()));
        for &idx in &order[..n] {
            let root = roots[idx];
            if !root.is_finite() {
                continue;
            }
            // Reject roots that are far from the feasible range before
            // paying for polishing/verification.
            if root.re < lb as f64 - 2.0 || root.re > ub as f64 + 2.0 {
                continue;
            }
            let polished = polish_real_root(cf, root.re, 3);
            if let Some(v) = self.verify_candidate(spec, target, lb, ub, polished, counters) {
                return Some(v);
            }
        }
        None
    }

    /// Exact evaluation of `R_k` through the **uncompiled** reference
    /// polynomial, with the level value `x` placed at position `k` of
    /// `point` (deeper positions are ignored — the continuation was
    /// substituted symbolically).
    #[inline]
    pub(crate) fn rk_at_reference(&self, point: &mut [i64], k: usize, x: i64) -> i128 {
        point[k] = x;
        self.rk.eval_int(point)
    }

    /// The pre-compilation unranker, kept verbatim as the differential
    /// ground truth: a monotone binary search whose every probe
    /// evaluates the full multivariate `R_k` term-by-term.
    pub(crate) fn recover_reference(
        &self,
        point: &mut [i64],
        k: usize,
        lb: i64,
        ub: i64,
        pc: i128,
    ) -> i64 {
        debug_assert!(lb <= ub, "empty level reached during recovery");
        if lb == ub {
            return lb;
        }
        let (mut lo, mut hi) = (lb, ub);
        while lo < hi {
            let mid = lo + (hi - lo + 1) / 2;
            if self.rk_at_reference(point, k, mid) <= pc {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        point[k] = lo;
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrl_poly::Poly;
    use nrl_rational::Rational;

    /// Builds the correlation level-0 solver by hand: R_0(x) =
    /// rank(x, x+1) = −x²/2 + (N − 1/2)x + 1 with N bound. The engine
    /// is pinned to the closed form so the tests below exercise the
    /// solve-and-verify path regardless of the adaptive crossover.
    fn correlation_level0(n: i64) -> BoundLevel {
        let d = 2; // iterator ring (i, j)
        let x = Poly::var(d, 0);
        let r0 = x.pow(2).scale(Rational::new(-1, 2))
            + x.scale(Rational::new(2 * n as i128 - 1, 2))
            + Poly::constant_int(d, 1);
        let compiled = CompiledPoly::lower(&r0, 0).expect("lowerable");
        let i64_safe = compiled
            .magnitude_bound(&[n + 1, n + 1], n + 1)
            .is_some_and(|b| b <= i64::MAX as i128);
        BoundLevel {
            compiled,
            rk: IntPoly::from_poly(&r0),
            closed_form: true,
            i64_safe,
            engine: LevelEngine::ClosedForm,
        }
    }

    #[test]
    fn engine_choice_crossover() {
        // Narrow quadratic levels binary-search, wide ones solve.
        assert_eq!(
            LevelEngine::choose(2, Some(100), true),
            LevelEngine::BinarySearch
        );
        assert_eq!(
            LevelEngine::choose(2, Some(1 << 20), true),
            LevelEngine::ClosedForm
        );
        // Unproven i64 safety triples probe cost, shifting the
        // crossover toward the closed form.
        assert_eq!(
            LevelEngine::choose(2, Some(100), false),
            LevelEngine::ClosedForm
        );
        // Degrees beyond the closed forms always search, at any width.
        assert_eq!(
            LevelEngine::choose(6, None, true),
            LevelEngine::BinarySearch
        );
        // Unknown width counts as unbounded.
        assert_eq!(LevelEngine::choose(2, None, true), LevelEngine::ClosedForm);
    }

    #[test]
    fn recovers_outer_index_for_every_pc() {
        let n = 12i64;
        let level = correlation_level0(n);
        assert!(level.i64_safe, "small N must prove the i64 fast path");
        let counters = RecoveryCounters::default();
        let total = (n - 1) * n / 2;
        // Ground truth from enumeration.
        let mut expected = Vec::new();
        for i in 0..n - 1 {
            for _j in i + 1..n {
                expected.push(i);
            }
        }
        for pc in 1..=total {
            let mut point = [0i64, 0];
            let got = level.recover(&mut point, 0, 0, n - 2, pc as i128, &counters);
            assert_eq!(got, expected[(pc - 1) as usize], "pc={pc}");
        }
        let stats = counters.snapshot();
        assert_eq!(
            stats.binary_search, 0,
            "closed form should always hit: {stats:?}"
        );
    }

    #[test]
    fn huge_parameters_stay_exact() {
        // N = 1 << 20: pc values near 2^39 still recover exactly thanks
        // to integer verification.
        let n = 1i64 << 20;
        let level = correlation_level0(n);
        let counters = RecoveryCounters::default();
        let total = ((n - 1) as i128) * (n as i128) / 2;
        // Check first, last, and the boundary between two specific rows:
        // the exact rank of the first point of row i = 777_777, computed
        // via the polynomial itself to avoid hand-arithmetic slips.
        let i_probe = 777_777i64;
        let mut point = [i_probe, 0];
        let exact_rank = level.rk.eval_int(&point);
        let spec = level.specialize(&point);
        for pc in [1i128, total, exact_rank, exact_rank - 1, exact_rank + 1] {
            if pc < 1 || pc > total {
                continue;
            }
            let mut p = [0i64, 0];
            let got = level.recover(&mut p, 0, 0, n - 2, pc, &counters);
            // Verify the defining property directly, through both the
            // specialized ladder and the reference polynomial.
            assert!(spec.eval_int(got) <= pc);
            assert!(pc < spec.eval_int(got + 1));
            assert!(level.rk_at_reference(&mut point, 0, got) <= pc);
            assert!(pc < level.rk_at_reference(&mut point, 0, got + 1));
        }
    }

    #[test]
    fn binary_search_fallback_is_exact() {
        // Degenerate closed_form = false forces the fallback everywhere.
        let n = 30i64;
        let mut level = correlation_level0(n);
        level.closed_form = false;
        let counters = RecoveryCounters::default();
        let total = (n - 1) * n / 2;
        let mut expected = Vec::new();
        for i in 0..n - 1 {
            for _ in i + 1..n {
                expected.push(i);
            }
        }
        for pc in 1..=total {
            let mut point = [0i64, 0];
            let got = level.recover(&mut point, 0, 0, n - 2, pc as i128, &counters);
            assert_eq!(got, expected[(pc - 1) as usize], "pc={pc}");
        }
        assert_eq!(counters.snapshot().binary_search as i64, total);
    }

    #[test]
    fn reference_unranker_matches_compiled() {
        let n = 40i64;
        let level = correlation_level0(n);
        let counters = RecoveryCounters::default();
        let total = (n - 1) * n / 2;
        for pc in 1..=total {
            let mut a = [0i64, 0];
            let mut b = [0i64, 0];
            let compiled = level.recover(&mut a, 0, 0, n - 2, pc as i128, &counters);
            let reference = level.recover_reference(&mut b, 0, 0, n - 2, pc as i128);
            assert_eq!(compiled, reference, "pc={pc}");
        }
    }

    #[test]
    fn checked_i128_path_matches_fast_path() {
        let n = 500i64;
        let fast = correlation_level0(n);
        assert!(
            fast.i64_safe,
            "n=500 must prove the i64 fast path or this test compares checked vs checked"
        );
        let mut checked = fast.clone();
        checked.i64_safe = false;
        let counters = RecoveryCounters::default();
        let total = (n - 1) * n / 2;
        for pc in (1..=total).step_by(97) {
            let mut a = [0i64, 0];
            let mut b = [0i64, 0];
            assert_eq!(
                fast.recover(&mut a, 0, 0, n - 2, pc as i128, &counters),
                checked.recover(&mut b, 0, 0, n - 2, pc as i128, &counters),
                "pc={pc}"
            );
        }
    }

    #[test]
    fn single_value_level_shortcuts() {
        let level = correlation_level0(10);
        let counters = RecoveryCounters::default();
        let mut point = [0i64, 0];
        assert_eq!(level.recover(&mut point, 0, 5, 5, 999, &counters), 5);
        // Nothing counted: the shortcut bypasses all machinery.
        assert_eq!(counters.snapshot(), RecoveryStats::default());
    }
}
