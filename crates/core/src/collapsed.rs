//! The collapse pipeline: symbolic preparation and parameter binding.

use crate::ranking::Ranking;
use crate::rowwalk::RowWalker;
use crate::unrank::{BoundLevel, LevelEngine, RecoveryCounters, RecoveryStats, MAX_DEPTH};
use nrl_poly::{CompiledPoly, IntPoly, Poly, SpecializedPoly};
use nrl_polyhedra::{BoundNest, NestSpec};
use nrl_rational::Rational;
use nrl_solver::MAX_DEGREE;
use std::fmt;
use std::sync::atomic::Ordering;

/// Errors from symbolic collapse preparation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollapseError {
    /// The nest is deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Requested depth.
        depth: usize,
    },
    /// A plan cache refused to analyze the shape: its analysis
    /// panicked repeatedly and the shape is quarantined (see
    /// `nrl_plan::PlanCache`).
    Quarantined {
        /// Consecutive analyze failures recorded for the shape.
        failures: u32,
    },
}

impl fmt::Display for CollapseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollapseError::TooDeep { depth } => {
                write!(
                    f,
                    "nest depth {depth} exceeds the supported maximum {MAX_DEPTH}"
                )
            }
            CollapseError::Quarantined { failures } => {
                write!(
                    f,
                    "shape quarantined after {failures} consecutive analyze failures"
                )
            }
        }
    }
}

impl std::error::Error for CollapseError {}

/// Errors from binding parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// Wrong number of parameter values.
    ParamArity {
        /// Parameters the nest declares.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A trip count is negative somewhere in the domain, so the ranking
    /// polynomial does not count this domain correctly.
    NegativeTripCount {
        /// Level with the offending trip count.
        level: usize,
        /// Outer-iterator prefix exhibiting it.
        prefix: Vec<i64>,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::ParamArity { expected, got } => {
                write!(f, "nest declares {expected} parameters but {got} values were supplied")
            }
            BindError::NegativeTripCount { level, prefix } => write!(
                f,
                "negative trip count at level {level} for prefix {prefix:?}: the affine bounds do not describe a well-formed domain at these parameters"
            ),
        }
    }
}

impl std::error::Error for BindError {}

/// The symbolic (parameter-independent) part of collapsing a nest:
/// ranking polynomial plus the per-level inversion equations.
#[derive(Clone, Debug)]
pub struct CollapseSpec {
    ranking: Ranking,
    /// Per level `k`: `R_k` — the rank with the lexmin continuation of
    /// deeper levels substituted (a polynomial in `i_0..i_k` + params).
    level_polys: Vec<Poly>,
}

impl CollapseSpec {
    /// Prepares the collapse of all `nest.depth()` loops.
    pub fn new(nest: &NestSpec) -> Result<Self, CollapseError> {
        let d = nest.depth();
        if d > MAX_DEPTH {
            return Err(CollapseError::TooDeep { depth: d });
        }
        let ranking = Ranking::new(nest);
        let n = nest.space().len();
        let mut level_polys = Vec::with_capacity(d);
        for k in 0..d {
            // Lexmin continuation: m_q = l_q with earlier continuations
            // substituted, for q > k. Each m_q only uses i_0..i_k.
            let mut continuation: Vec<(usize, Poly)> = Vec::with_capacity(d - k - 1);
            for q in k + 1..d {
                let mut m_q = nest.lower(q).to_poly();
                for (p, m_p) in &continuation {
                    m_q = m_q.substitute(*p, m_p);
                }
                debug_assert!(
                    (k + 1..n.min(d)).all(|v| m_q.degree_in(v) == 0),
                    "continuation must only use the outer prefix"
                );
                continuation.push((q, m_q));
            }
            let rk = ranking.rank_poly().substitute_all(&continuation);
            level_polys.push(rk);
        }
        Ok(CollapseSpec {
            ranking,
            level_polys,
        })
    }

    /// The underlying ranking.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// The nest being collapsed.
    pub fn nest(&self) -> &NestSpec {
        self.ranking.nest()
    }

    /// `R_k`: the level-`k` inversion polynomial (rank with the lexmin
    /// continuation substituted).
    pub fn level_poly(&self, k: usize) -> &Poly {
        &self.level_polys[k]
    }

    /// True iff every level can use the closed-form root formulas
    /// (univariate degree ≤ 4, the paper's §IV-B applicability
    /// condition). Deeper-degree nests still collapse here via the
    /// binary-search unranker.
    pub fn closed_form_available(&self) -> bool {
        (0..self.nest().depth()).all(|k| self.level_polys[k].degree_in(k) as usize <= MAX_DEGREE)
    }

    /// Binds the size parameters, validating the domain (non-negative
    /// trip counts). Validation first attempts an `O(depth)` symbolic
    /// Fourier–Motzkin proof with the parameters pinned; only if the
    /// rational relaxation cannot rule out a violation does it fall
    /// back to the exhaustive prefix walk, so production-sized domains
    /// bind in microseconds.
    pub fn bind(&self, params: &[i64]) -> Result<Collapsed, BindError> {
        let nest = self.nest();
        if params.len() != nest.nparams() {
            return Err(BindError::ParamArity {
                expected: nest.nparams(),
                got: params.len(),
            });
        }
        if nest.prove_trip_counts_at(params, false) != nrl_polyhedra::TripProof::Proved {
            if let Err((level, prefix)) = nest.check_trip_counts(params, false) {
                return Err(BindError::NegativeTripCount { level, prefix });
            }
        }
        Ok(self.bind_unchecked(params))
    }

    /// Binds without domain validation (for callers that already proved
    /// trip counts symbolically, or benchmark loops where validation
    /// cost would pollute measurements). An invalid domain makes
    /// `unrank` results meaningless but never unsound (no unsafe code
    /// depends on them).
    pub fn bind_unchecked(&self, params: &[i64]) -> Collapsed {
        let nest = self.nest();
        let d = nest.depth();
        let bound_nest = nest.bind(params);
        let total = self.ranking.total_at(params);
        // Over-approximate per-iterator value intervals once: the
        // magnitude analysis below proves, per level, whether the
        // specialized Horner sweeps can use unchecked i64 arithmetic,
        // and the proven range widths drive the per-level engine
        // decision (closed form vs. binary search).
        let var_box = iterator_box(nest, params);
        let levels = (0..d)
            .map(|k| {
                let bound = bind_poly(&self.level_polys[k], d, params);
                let compiled = CompiledPoly::lower(&bound, k)
                    .expect("collapsible nests stay within the compiled-ladder capacity");
                assemble_level(compiled, IntPoly::from_poly(&bound), k, &var_box)
            })
            .collect();
        let rank_bound = bind_poly(self.ranking.rank_poly(), d, params);
        let rank_int = IntPoly::from_poly(&rank_bound);
        // `rank()` goes through the same ladder machinery as recovery:
        // lowered univariate in the innermost index, so batched ranking
        // can fold the outer prefix once and Horner-evaluate per point.
        let (rank_compiled, rank_i64_safe) = if d > 0 {
            let cp = CompiledPoly::lower(&rank_bound, d - 1)
                .expect("collapsible nests stay within the compiled-ladder capacity");
            assemble_rank(cp, d, &var_box)
        } else {
            (None, false)
        };
        Collapsed {
            nest: bound_nest,
            depth: d,
            total,
            levels,
            rank_int,
            rank_compiled,
            rank_i64_safe,
            counters: RecoveryCounters::default(),
        }
    }
}

/// Finishes one level from its lowered ladder: the bind-time facts
/// (closed-form availability, i64-overflow proof, engine choice) that
/// both [`CollapseSpec::bind_unchecked`] and
/// [`ParamPlan::instantiate`](crate::plan::ParamPlan::instantiate)
/// derive — shared so the two paths cannot diverge.
pub(crate) fn assemble_level(
    compiled: CompiledPoly,
    rk: IntPoly,
    k: usize,
    var_box: &Option<IterBox>,
) -> BoundLevel {
    let closed_form = compiled.degree() <= MAX_DEGREE;
    let i64_safe = var_box
        .as_ref()
        .and_then(|b| compiled.magnitude_bound(&b.abs, b.abs.get(k).copied().unwrap_or(i64::MAX)))
        .is_some_and(|bnd| bnd <= i64::MAX as i128);
    let engine = LevelEngine::choose(
        compiled.degree(),
        var_box.as_ref().map(|b| b.width[k]),
        i64_safe,
    );
    BoundLevel {
        compiled,
        rk,
        closed_form,
        i64_safe,
        engine,
    }
}

/// Finishes the compiled `rank()` ladder (the depth ≥ 1 case): the
/// overflow proof for its innermost-index Horner sweeps.
pub(crate) fn assemble_rank(
    cp: CompiledPoly,
    d: usize,
    var_box: &Option<IterBox>,
) -> (Option<CompiledPoly>, bool) {
    let safe = var_box
        .as_ref()
        .and_then(|b| cp.magnitude_bound(&b.abs, b.abs[d - 1]))
        .is_some_and(|bnd| bnd <= i64::MAX as i128);
    (Some(cp), safe)
}

/// Bind-time interval facts per iterator: the magnitude bound feeding
/// the i64-overflow proof and the proven range width feeding the
/// per-level engine decision.
pub(crate) struct IterBox {
    /// `max(|i_k|) + 1` per iterator (the `+1` covers the `R_k(v+1)`
    /// verification probe).
    pub(crate) abs: Vec<i64>,
    /// Over-approximate count of values level `k` can range over at
    /// any prefix (`hi − lo + 1`, clamped non-negative).
    pub(crate) width: Vec<i64>,
}

/// Over-approximates per-iterator value intervals by interval-evaluating
/// the affine bounds outward-in. Returns `None` when the intervals
/// overflow — callers then keep the checked `i128` evaluation path and
/// treat the widths as unbounded.
pub(crate) fn iterator_box(nest: &NestSpec, params: &[i64]) -> Option<IterBox> {
    let d = nest.depth();
    let mut lo = Vec::with_capacity(d);
    let mut hi = Vec::with_capacity(d);
    let mut abs = Vec::with_capacity(d);
    let mut width = Vec::with_capacity(d);
    for k in 0..d {
        let lower = nest.lower(k).bind_params(params);
        let upper = nest.upper(k).bind_params(params);
        let (ll, lh) = interval_eval(lower.coeffs(), lower.constant_term(), &lo, &hi)?;
        let (ul, uh) = interval_eval(upper.coeffs(), upper.constant_term(), &lo, &hi)?;
        // Widen across both bound forms: sound even for prefixes whose
        // level is empty (the probe clamp keeps x within [lb, ub] + 1).
        let k_lo = ll.min(ul);
        let k_hi = lh.max(uh);
        lo.push(k_lo);
        hi.push(k_hi);
        abs.push(
            k_lo.checked_abs()?
                .max(k_hi.checked_abs()?)
                .checked_add(1)?,
        );
        width.push(k_hi.checked_sub(k_lo)?.checked_add(1)?.max(0));
    }
    Some(IterBox { abs, width })
}

/// Interval arithmetic for `Σ c_v·x_v + constant` over per-variable
/// boxes; `None` on overflow.
fn interval_eval(coeffs: &[i64], constant: i64, lo: &[i64], hi: &[i64]) -> Option<(i64, i64)> {
    let mut min = constant;
    let mut max = constant;
    for (v, &c) in coeffs.iter().enumerate() {
        if c == 0 || v >= lo.len() {
            continue;
        }
        let (a, b) = if c >= 0 {
            (c.checked_mul(lo[v])?, c.checked_mul(hi[v])?)
        } else {
            (c.checked_mul(hi[v])?, c.checked_mul(lo[v])?)
        };
        min = min.checked_add(a)?;
        max = max.checked_add(b)?;
    }
    Some((min, max))
}

/// Folds the parameters of `p` (ring = d iterators + params) to concrete
/// values and shrinks to the iterator-only ring.
pub(crate) fn bind_poly(p: &Poly, d: usize, params: &[i64]) -> Poly {
    let mut out = p.clone();
    for (offset, &value) in params.iter().enumerate() {
        out = out.eval_var(d + offset, Rational::from_int(value as i128));
    }
    out.shrink_vars(d)
}

/// A nest collapsed at concrete parameters: the run-time object.
///
/// `unrank` is `&self` and thread-safe: collapsed loops are executed by
/// many threads recovering indices concurrently.
#[derive(Debug)]
pub struct Collapsed {
    nest: BoundNest,
    depth: usize,
    total: i128,
    levels: Vec<BoundLevel>,
    /// Reference ranking polynomial (multivariate, term-by-term).
    rank_int: IntPoly,
    /// The ranking polynomial lowered univariate in the innermost
    /// index — the compiled `rank()` path (`None` only at depth 0).
    rank_compiled: Option<CompiledPoly>,
    /// Bind-time i64-overflow proof for the compiled rank ladder.
    rank_i64_safe: bool,
    counters: RecoveryCounters,
}

impl Collapsed {
    /// Assembles the run-time object from already-finished parts — the
    /// [`ParamPlan`](crate::plan::ParamPlan) instantiation path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        nest: BoundNest,
        depth: usize,
        total: i128,
        levels: Vec<BoundLevel>,
        rank_int: IntPoly,
        rank_compiled: Option<CompiledPoly>,
        rank_i64_safe: bool,
    ) -> Collapsed {
        Collapsed {
            nest,
            depth,
            total,
            levels,
            rank_int,
            rank_compiled,
            rank_i64_safe,
            counters: RecoveryCounters::default(),
        }
    }

    /// Total number of iterations (the collapsed loop runs
    /// `pc = 1..=total`).
    pub fn total(&self) -> i128 {
        self.total
    }

    /// Nest depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The bound nest (for odometer advancing between recoveries).
    pub fn nest(&self) -> &BoundNest {
        &self.nest
    }

    /// Exact 1-based rank of a domain point, through the compiled
    /// ladder (the outer prefix is folded once, the innermost index is
    /// one Horner sweep — no multivariate term walk).
    pub fn rank(&self, point: &[i64]) -> i128 {
        assert_eq!(point.len(), self.depth, "point arity mismatch");
        match &self.rank_compiled {
            Some(cp) => cp.eval_int_at(point),
            None => self.rank_int.eval_int(point),
        }
    }

    /// [`Self::rank`] through the **uncompiled** reference polynomial
    /// (term-by-term multivariate evaluation) — differential-test and
    /// ablation baseline.
    pub fn rank_reference(&self, point: &[i64]) -> i128 {
        assert_eq!(point.len(), self.depth, "point arity mismatch");
        self.rank_int.eval_int(point)
    }

    /// The engine the adaptive recovery uses at level `k` (bind-time
    /// decision; see [`LevelEngine::choose`]).
    pub fn level_engine(&self, k: usize) -> LevelEngine {
        self.levels[k].engine
    }

    /// Whether the bind-time magnitude analysis proved level `k`'s
    /// specialized Horner sweeps can run in unchecked `i64` (the fast
    /// path; `false` keeps the checked `i128` ladder). Exposed for the
    /// plan-vs-fresh-bind differential tests and overhead studies.
    pub fn level_i64_proven(&self, k: usize) -> bool {
        self.levels[k].i64_safe
    }

    /// Whether the compiled `rank()` ladder's overflow proof succeeded
    /// (see [`Self::level_i64_proven`]).
    pub fn rank_i64_proven(&self) -> bool {
        self.rank_i64_safe
    }

    /// Recovers the original indices of the iteration with rank `pc`
    /// (1-based), writing them into `point` — the **adaptive** hot
    /// path: each level runs the engine chosen for it at bind time.
    ///
    /// # Panics
    /// Panics if `pc` is out of `1..=total` or `point.len() != depth`.
    pub fn unrank_into(&self, pc: i128, point: &mut [i64]) {
        assert!(
            pc >= 1 && pc <= self.total,
            "pc {pc} outside 1..={}",
            self.total
        );
        assert_eq!(point.len(), self.depth, "point arity mismatch");
        for k in 0..self.depth {
            let lb = self.nest.lower(k, point);
            let ub = self.nest.upper(k, point);
            let v = self.levels[k].recover(point, k, lb, ub, pc, &self.counters);
            point[k] = v;
        }
    }

    /// Allocating convenience wrapper around [`Self::unrank_into`].
    pub fn unrank(&self, pc: i128) -> Vec<i64> {
        let mut point = vec![0i64; self.depth];
        self.unrank_into(pc, &mut point);
        point
    }

    /// Unranks with a forced engine on every level (ablation axes; the
    /// adaptive [`Self::unrank_into`] is the production path).
    fn unrank_forced_into(&self, pc: i128, point: &mut [i64], engine: LevelEngine) {
        assert!(
            pc >= 1 && pc <= self.total,
            "pc {pc} outside 1..={}",
            self.total
        );
        assert_eq!(point.len(), self.depth, "point arity mismatch");
        for k in 0..self.depth {
            let lb = self.nest.lower(k, point);
            let ub = self.nest.upper(k, point);
            let v = self.levels[k].recover_with(point, k, lb, ub, pc, &self.counters, engine);
            point[k] = v;
        }
    }

    /// Unranks using only the exact binary-search path (no floating
    /// point at all): the ablation baseline, and the only path for
    /// ranking degrees above the closed-form limit.
    pub fn unrank_binary_into(&self, pc: i128, point: &mut [i64]) {
        self.unrank_forced_into(pc, point, LevelEngine::BinarySearch);
    }

    /// Unranks solving the closed form wherever one exists (the paper's
    /// always-solve strategy; levels beyond degree 4 still fall back to
    /// the binary search) — the other ablation axis.
    pub fn unrank_closed_form_into(&self, pc: i128, point: &mut [i64]) {
        self.unrank_forced_into(pc, point, LevelEngine::ClosedForm);
    }

    /// Unranks through the **uncompiled** reference path: every probe
    /// re-evaluates the multivariate `R_k` term-by-term, exactly as the
    /// pre-compilation engine did. Ground truth for differential tests
    /// and the ablation baseline benches.
    pub fn unrank_reference_into(&self, pc: i128, point: &mut [i64]) {
        assert!(
            pc >= 1 && pc <= self.total,
            "pc {pc} outside 1..={}",
            self.total
        );
        assert_eq!(point.len(), self.depth, "point arity mismatch");
        for k in 0..self.depth {
            let lb = self.nest.lower(k, point);
            let ub = self.nest.upper(k, point);
            let v = self.levels[k].recover_reference(point, k, lb, ub, pc);
            point[k] = v;
        }
    }

    /// Snapshot of the recovery-path counters accumulated so far.
    pub fn stats(&self) -> RecoveryStats {
        self.counters.snapshot()
    }

    /// A recovery handle with a per-level specialization cache.
    ///
    /// Executors create one per worker: successive `unrank_into` calls
    /// whose outer prefix has not moved (the common case under
    /// consecutive or nearby ranks) reuse the already-folded Horner
    /// ladders instead of re-specializing every level.
    pub fn unranker(&self) -> Unranker<'_> {
        Unranker {
            collapsed: self,
            cache: vec![LevelCache::default(); self.depth],
            rank_cache: LevelCache::default(),
        }
    }

    /// Segment introspection: a [`RowWalker`] anchored at the domain
    /// point of rank `pc` — the row-segmented view of the collapsed
    /// range every executor walks (chunk planning, diagnostics, the
    /// `imperfect_rows` example's per-row guard dump).
    ///
    /// # Panics
    /// Panics if `pc` is out of `1..=total` or the nest has depth 0
    /// (zero-depth nests have no rows).
    pub fn rows_from(&self, pc: i128) -> RowWalker<'_> {
        let mut point = [0i64; MAX_DEPTH];
        let point = &mut point[..self.depth];
        self.unrank_into(pc, point);
        RowWalker::anchor(&self.nest, point)
    }
}

/// Cached specialization of one level at one prefix.
#[derive(Clone, Copy, Default)]
struct LevelCache {
    valid: bool,
    prefix: [i64; MAX_DEPTH],
    spec: Option<SpecializedPoly>,
}

/// A stateful recovery handle over a [`Collapsed`] loop: caches each
/// level's [`SpecializedPoly`] keyed by the outer prefix it was folded
/// at (see [`Collapsed::unranker`]). Cheap to create; not `Sync` —
/// one per worker thread.
pub struct Unranker<'a> {
    collapsed: &'a Collapsed,
    cache: Vec<LevelCache>,
    /// Specialization cache for the compiled `rank()` ladder, keyed by
    /// the `depth − 1` outer indices.
    rank_cache: LevelCache,
}

impl Unranker<'_> {
    /// The underlying collapsed loop.
    pub fn collapsed(&self) -> &Collapsed {
        self.collapsed
    }

    /// Cache-aware [`Collapsed::unrank_into`] (adaptive engines).
    pub fn unrank_into(&mut self, pc: i128, point: &mut [i64]) {
        self.unrank_with(pc, point, None);
    }

    /// Cache-aware [`Collapsed::unrank_binary_into`] (no floating
    /// point; ablation mode and degrees beyond the closed forms).
    pub fn unrank_binary_into(&mut self, pc: i128, point: &mut [i64]) {
        self.unrank_with(pc, point, Some(LevelEngine::BinarySearch));
    }

    /// Cache-aware [`Collapsed::unrank_closed_form_into`] (always-solve
    /// ablation mode).
    pub fn unrank_closed_form_into(&mut self, pc: i128, point: &mut [i64]) {
        self.unrank_with(pc, point, Some(LevelEngine::ClosedForm));
    }

    fn unrank_with(&mut self, pc: i128, point: &mut [i64], force: Option<LevelEngine>) {
        let c = self.collapsed;
        assert!(pc >= 1 && pc <= c.total, "pc {pc} outside 1..={}", c.total);
        assert_eq!(point.len(), c.depth, "point arity mismatch");
        for k in 0..c.depth {
            let lb = c.nest.lower(k, point);
            let ub = c.nest.upper(k, point);
            // Single-valued level: no probe will read the ladder, so
            // don't specialize (or touch the cache) for it.
            if lb == ub {
                point[k] = lb;
                continue;
            }
            let level = &c.levels[k];
            let entry = &mut self.cache[k];
            let hit = entry.valid && entry.prefix[..k] == point[..k];
            if !hit {
                entry.spec = Some(level.specialize(point));
                entry.prefix[..k].copy_from_slice(&point[..k]);
                entry.valid = true;
                c.counters.spec_cache_miss.fetch_add(1, Ordering::Relaxed);
            } else {
                c.counters.spec_cache_hit.fetch_add(1, Ordering::Relaxed);
            }
            let spec = entry.spec.as_ref().expect("cache entry just filled");
            let engine = force.unwrap_or(level.engine);
            point[k] = level.recover_spec(spec, lb, ub, pc, &c.counters, engine);
        }
    }

    /// Cache-aware [`Collapsed::rank`]: consecutive or same-row points
    /// (the batched-ranking shape — morph slot maps, packed layouts)
    /// fold the outer prefix into the rank ladder once and pay a single
    /// Horner sweep per point afterwards.
    ///
    /// `point` must lie in the domain: the cached sweep may use the
    /// bind-time-proven unchecked `i64` Horner path, whose overflow
    /// proof only covers domain points — out-of-domain values can
    /// return a meaningless rank instead of panicking. Callers mapping
    /// untrusted points check containment first (as morph's
    /// `PackedSlots` and `Mapper` do) or use [`Collapsed::rank`],
    /// which evaluates fully checked.
    pub fn rank(&mut self, point: &[i64]) -> i128 {
        let c = self.collapsed;
        assert_eq!(point.len(), c.depth, "point arity mismatch");
        debug_assert!(
            c.nest.contains(point),
            "Unranker::rank on out-of-domain point {point:?}"
        );
        let Some(cp) = &c.rank_compiled else {
            return c.rank_int.eval_int(point);
        };
        let p = c.depth - 1;
        let entry = &mut self.rank_cache;
        let hit = entry.valid && entry.prefix[..p] == point[..p];
        if !hit {
            entry.spec = Some(cp.specialize(point, c.rank_i64_safe));
            entry.prefix[..p].copy_from_slice(&point[..p]);
            entry.valid = true;
            c.counters.spec_cache_miss.fetch_add(1, Ordering::Relaxed);
        } else {
            c.counters.spec_cache_hit.fetch_add(1, Ordering::Relaxed);
        }
        let spec = entry.spec.as_ref().expect("cache entry just filled");
        spec.eval_int(point[p])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrl_polyhedra::Space;

    fn roundtrip(nest: &NestSpec, params: &[i64]) {
        let spec = CollapseSpec::new(nest).expect("collapse spec");
        let collapsed = spec.bind(params).expect("bind");
        let mut pc = 1i128;
        for point in nest.enumerate(params) {
            assert_eq!(
                collapsed.unrank(pc),
                point,
                "unrank({pc}) for {nest:?} params {params:?}"
            );
            assert_eq!(collapsed.rank(&point), pc, "rank{point:?}");
            assert_eq!(
                collapsed.rank_reference(&point),
                pc,
                "reference rank{point:?}"
            );
            pc += 1;
        }
        assert_eq!(pc - 1, collapsed.total(), "total");
    }

    #[test]
    fn correlation_roundtrip() {
        for n in [2i64, 3, 5, 10, 40] {
            roundtrip(&NestSpec::correlation(), &[n]);
        }
    }

    #[test]
    fn figure6_roundtrip() {
        for n in [2i64, 3, 6, 12] {
            roundtrip(&NestSpec::figure6(), &[n]);
        }
    }

    #[test]
    fn rectangular_roundtrip() {
        roundtrip(&NestSpec::rectangular(&[4, 3, 2]), &[]);
        roundtrip(&NestSpec::rectangular(&[1, 7]), &[]);
    }

    #[test]
    fn rhomboid_roundtrip() {
        let s = Space::new(&["i", "j"], &["N"]);
        let nest = NestSpec::new(
            s.clone(),
            vec![(s.cst(0), s.var("N") - 1), (s.var("i"), s.var("i") + 3)],
        )
        .unwrap();
        for n in [1i64, 4, 9] {
            roundtrip(&nest, &[n]);
        }
    }

    #[test]
    fn trapezoid_roundtrip() {
        // for i in 0..=3 { for j in 0..=N−1−i }
        let s = Space::new(&["i", "j"], &["N"]);
        let nest = NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.cst(3)),
                (s.cst(0), s.var("N") - s.var("i") - 1),
            ],
        )
        .unwrap();
        for n in [4i64, 6, 11] {
            roundtrip(&nest, &[n]);
        }
    }

    #[test]
    fn four_deep_quartic_roundtrip() {
        let s = Space::new(&["i", "j", "k", "l"], &["N"]);
        let nest = NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.var("N") - 1),
                (s.cst(0), s.var("i")),
                (s.cst(0), s.var("i")),
                (s.cst(0), s.var("i")),
            ],
        )
        .unwrap();
        let spec = CollapseSpec::new(&nest).unwrap();
        assert!(spec.closed_form_available());
        for n in [2i64, 4, 6] {
            roundtrip(&nest, &[n]);
        }
    }

    #[test]
    fn five_deep_beyond_closed_form_still_collapses() {
        // Five loops all bounded by i: degree 5 in i — beyond Abel–
        // Ruffini, handled by the binary-search unranker (our extension).
        let s = Space::new(&["i", "j", "k", "l", "m"], &["N"]);
        let nest = NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.var("N") - 1),
                (s.cst(0), s.var("i")),
                (s.cst(0), s.var("i")),
                (s.cst(0), s.var("i")),
                (s.cst(0), s.var("i")),
            ],
        )
        .unwrap();
        let spec = CollapseSpec::new(&nest).unwrap();
        assert!(!spec.closed_form_available());
        for n in [2i64, 3, 4] {
            roundtrip(&nest, &[n]);
        }
    }

    #[test]
    fn all_engines_agree() {
        let spec = CollapseSpec::new(&NestSpec::figure6()).unwrap();
        let collapsed = spec.bind(&[9]).unwrap();
        for pc in 1..=collapsed.total() {
            let mut a = vec![0i64; 3];
            let mut b = vec![0i64; 3];
            let mut c = vec![0i64; 3];
            collapsed.unrank_into(pc, &mut a);
            collapsed.unrank_binary_into(pc, &mut b);
            collapsed.unrank_closed_form_into(pc, &mut c);
            assert_eq!(a, b, "adaptive vs binary at pc={pc}");
            assert_eq!(a, c, "adaptive vs closed form at pc={pc}");
        }
    }

    #[test]
    fn engine_selection_tracks_width() {
        // Narrow quadratic outer level → binary search; wide → closed
        // form. Same nest, different parameters: the decision is a
        // bind-time fact, not a symbolic one.
        let spec = CollapseSpec::new(&NestSpec::correlation()).unwrap();
        let narrow = spec.bind(&[64]).unwrap();
        assert_eq!(narrow.level_engine(0), LevelEngine::BinarySearch);
        let wide = spec.bind(&[2_000_000]).unwrap();
        assert_eq!(wide.level_engine(0), LevelEngine::ClosedForm);
    }

    #[test]
    fn cached_rank_matches_stateless() {
        let spec = CollapseSpec::new(&NestSpec::figure6()).unwrap();
        let collapsed = spec.bind(&[12]).unwrap();
        let mut unranker = collapsed.unranker();
        for (pc, point) in (1i128..).zip(NestSpec::figure6().enumerate(&[12])) {
            assert_eq!(collapsed.rank(&point), pc, "compiled rank{point:?}");
            assert_eq!(unranker.rank(&point), pc, "cached rank{point:?}");
        }
        // The sweep walks rows in order: the rank-ladder cache must hit
        // for every point that shares its row prefix with the previous.
        let stats = collapsed.stats();
        assert!(
            stats.spec_cache_hit > stats.spec_cache_miss,
            "row-order ranking should mostly hit: {stats:?}"
        );
    }

    #[test]
    fn bind_rejects_arity_mismatch() {
        let spec = CollapseSpec::new(&NestSpec::correlation()).unwrap();
        assert!(matches!(
            spec.bind(&[]),
            Err(BindError::ParamArity {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn bind_rejects_negative_trips() {
        let spec = CollapseSpec::new(&NestSpec::correlation()).unwrap();
        let err = spec.bind(&[0]).unwrap_err();
        match err {
            BindError::NegativeTripCount { level: 0, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_domain_binds_with_zero_total() {
        // N = 1: zero iterations but non-negative trips at level 0? The
        // outer trip count is 1 − 1 = 0 → valid, total = 0.
        let spec = CollapseSpec::new(&NestSpec::correlation()).unwrap();
        let collapsed = spec.bind(&[1]).unwrap();
        assert_eq!(collapsed.total(), 0);
    }

    #[test]
    fn unrank_out_of_range_panics() {
        let spec = CollapseSpec::new(&NestSpec::correlation()).unwrap();
        let collapsed = spec.bind(&[5]).unwrap();
        let result = std::panic::catch_unwind(|| collapsed.unrank(0));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| collapsed.unrank(collapsed.total() + 1));
        assert!(result.is_err());
    }

    #[test]
    fn closed_form_dominates_recovery_stats() {
        let spec = CollapseSpec::new(&NestSpec::figure6()).unwrap();
        let collapsed = spec.bind(&[30]).unwrap();
        for pc in 1..=collapsed.total() {
            let mut p = vec![0i64; 3];
            collapsed.unrank_closed_form_into(pc, &mut p);
        }
        let stats = collapsed.stats();
        assert_eq!(stats.binary_search, 0, "{stats:?}");
        // The innermost level takes the exact linear path whenever its
        // range has more than one value (single-value levels shortcut
        // before any counter), and the outer levels use closed forms.
        assert!(stats.linear_exact > 0, "{stats:?}");
        assert!(stats.closed_form_exact > 0, "{stats:?}");
        // Every pc triggers at most depth recoveries in total.
        let touched = stats.linear_exact + stats.closed_form_exact + stats.corrected;
        assert!(touched <= 3 * collapsed.total() as u64, "{stats:?}");
    }

    #[test]
    fn level_polys_match_paper_equations() {
        // For correlation: R_0(x) = r(x, x+1) = −x²/2 + (N − 1/2)x + 1.
        let spec = CollapseSpec::new(&NestSpec::correlation()).unwrap();
        let r0 = spec.level_poly(0);
        // Evaluate at a few (x, N) pairs: R_0(x) = (2xN − x² − x + 2)/2,
        // compared with exact rationals to avoid truncation pitfalls.
        for n in [5i128, 10, 31] {
            for x in 0..n - 1 {
                let val = r0.eval_i128(&[x, 0, n]);
                let expect = nrl_rational::Rational::new(2 * x * n - x * x - x + 2, 2);
                assert_eq!(val, expect, "x={x} N={n}");
            }
        }
    }
}
