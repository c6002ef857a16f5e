//! Closed-form recovery formulas as symbolic expressions (§IV).
//!
//! For each collapsed level this module constructs the explicit root
//! expression the generated code will evaluate — the quadratic formula
//! or Cardano's cubic formula over complex intermediates — and selects
//! the *convenient branch* the same way the paper does with Maxima: the
//! branch whose floored evaluation reproduces the first iteration
//! (§IV-A), validated here against the exact unranker on a sample of
//! ranks (§IV-D guarantees the branch choice is stable across `pc`).
//! Floating point can still land an index one off, so each level also
//! carries the integer arithmetic (`IntRecovery`) that the emitted
//! code uses to make it exact.

use crate::sym::SymExpr;
use nrl_core::CollapseSpec;
use nrl_poly::Poly;
use std::collections::HashMap;
use std::fmt;

/// Why symbolic formula construction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormulaError {
    /// The level equation has degree 4+: Ferrari's symbolic form is too
    /// large to print usefully (the paper's examples stop at cubic);
    /// generated code must call the runtime solver instead.
    DegreeTooHigh {
        /// Offending level.
        level: usize,
        /// Univariate degree at that level.
        degree: usize,
    },
    /// Every root branch evaluated to NaN or ±∞ at some validation
    /// sample, so none can start the level's correction.
    NoValidBranch {
        /// Offending level.
        level: usize,
    },
    /// The nest has no iterations at the sample parameters, so branch
    /// selection has nothing to validate against.
    EmptySample,
}

impl fmt::Display for FormulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormulaError::DegreeTooHigh { level, degree } => write!(
                f,
                "level {level} equation has degree {degree}: symbolic closed forms are emitted up to degree 3 (use the runtime solver for quartics)"
            ),
            FormulaError::NoValidBranch { level } => {
                write!(f, "no symbolic root branch validated at level {level}")
            }
            FormulaError::EmptySample => {
                write!(f, "sample parameters give an empty domain; cannot select root branches")
            }
        }
    }
}

impl std::error::Error for FormulaError {}

/// The recovery formula of one level.
#[derive(Debug, Clone)]
pub struct LevelFormula {
    /// Iterator name.
    pub var: String,
    /// The full expression (already wrapped in `floor(creal(…))` for
    /// root-based levels; a plain integer expression for the exact
    /// innermost level).
    pub expr: SymExpr,
    /// True when the expression requires complex arithmetic (§IV-C).
    pub needs_complex: bool,
    /// True for the exact (no-floor-needed) innermost formula.
    pub exact: bool,
    /// The integer arithmetic the emitted code uses instead of `expr`
    /// (innermost level) or after it (root levels).
    pub(crate) int: IntRecovery,
}

fn neg(e: SymExpr) -> SymExpr {
    SymExpr::Neg(Box::new(e))
}

fn add(ts: Vec<SymExpr>) -> SymExpr {
    SymExpr::Add(ts)
}

fn mul(ts: Vec<SymExpr>) -> SymExpr {
    SymExpr::Mul(ts)
}

fn div(a: SymExpr, b: SymExpr) -> SymExpr {
    SymExpr::Div(Box::new(a), Box::new(b))
}

fn sqrt(e: SymExpr) -> SymExpr {
    SymExpr::Sqrt(Box::new(e))
}

fn cbrt(e: SymExpr) -> SymExpr {
    SymExpr::Cbrt(Box::new(e))
}

fn pow(e: SymExpr, k: u32) -> SymExpr {
    SymExpr::Pow(Box::new(e), k)
}

fn rat(n: i128, d: i128) -> SymExpr {
    SymExpr::Rat(nrl_rational::Rational::new(n, d))
}

/// Recursively checks whether an expression contains a cube root.
fn contains_cbrt(e: &SymExpr) -> bool {
    match e {
        SymExpr::Cbrt(_) => true,
        SymExpr::Rat(_) | SymExpr::Var(_) => false,
        SymExpr::Add(ts) | SymExpr::Mul(ts) => ts.iter().any(contains_cbrt),
        SymExpr::Neg(t) | SymExpr::Pow(t, _) | SymExpr::Re(t) | SymExpr::Floor(t) => {
            contains_cbrt(t)
        }
        SymExpr::Sqrt(t) => contains_cbrt(t),
        SymExpr::Div(a, b) => contains_cbrt(a) || contains_cbrt(b),
    }
}

/// All symbolic roots of `Σ coeffs[j]·x^j = 0` for degrees 1–3, in a
/// deterministic branch order. Coefficients are arbitrary [`SymExpr`]s.
pub fn symbolic_roots(coeffs: &[SymExpr]) -> Result<Vec<SymExpr>, usize> {
    match coeffs.len() - 1 {
        1 => Ok(vec![div(neg(coeffs[0].clone()), coeffs[1].clone())]),
        2 => {
            let (c0, c1, c2) = (coeffs[0].clone(), coeffs[1].clone(), coeffs[2].clone());
            let disc = add(vec![
                pow(c1.clone(), 2),
                mul(vec![rat(-4, 1), c2.clone(), c0]),
            ]);
            let two_a = mul(vec![rat(2, 1), c2]);
            Ok(vec![
                div(
                    add(vec![neg(c1.clone()), sqrt(disc.clone())]),
                    two_a.clone(),
                ),
                div(add(vec![neg(c1), neg(sqrt(disc))]), two_a),
            ])
        }
        3 => {
            let (c0, c1, c2, c3) = (
                coeffs[0].clone(),
                coeffs[1].clone(),
                coeffs[2].clone(),
                coeffs[3].clone(),
            );
            // Normalize: x³ + a x² + b x + c.
            let a = div(c2, c3.clone());
            let b = div(c1, c3.clone());
            let c = div(c0, c3);
            // Depressed: t³ + p t + q, x = t − a/3.
            let p = add(vec![b.clone(), neg(div(pow(a.clone(), 2), rat(3, 1)))]);
            let q = add(vec![
                div(mul(vec![rat(2, 1), pow(a.clone(), 3)]), rat(27, 1)),
                neg(div(mul(vec![a.clone(), b]), rat(3, 1))),
                c,
            ]);
            // u = cbrt(−q/2 + sqrt(q²/4 + p³/27)).
            let inner = add(vec![
                div(pow(q.clone(), 2), rat(4, 1)),
                div(pow(p.clone(), 3), rat(27, 1)),
            ]);
            let u = cbrt(add(vec![neg(div(q, rat(2, 1))), sqrt(inner)]));
            // ω = (−1 + √−3)/2 as a symbolic complex constant.
            let omega = div(add(vec![rat(-1, 1), sqrt(rat(-3, 1))]), rat(2, 1));
            let shift = neg(div(a, rat(3, 1)));
            let mut roots = Vec::with_capacity(3);
            for m in 0..3u32 {
                let uk = if m == 0 {
                    u.clone()
                } else {
                    mul(vec![pow(omega.clone(), m), u.clone()])
                };
                let t = add(vec![
                    uk.clone(),
                    neg(div(p.clone(), mul(vec![rat(3, 1), uk]))),
                ]);
                roots.push(add(vec![t, shift.clone()]));
            }
            Ok(roots)
        }
        d => Err(d),
    }
}

/// The integer arithmetic that makes a level's emitted index exact.
///
/// The formulas are evaluated in floating point, and that can land an
/// index one off: Cardano's cancellations put the wedge
/// `0 ≤ k ≤ j − i`'s level-0 root at −7.7e−8 at N = 15, pc = 1, where
/// the index is 0, and the innermost formula's rational coefficients
/// can sum to just below an integer. With `R_k(x)` the level's rank
/// polynomial — the rank of the first point whose level-`k` index is
/// `x` — the exact index is the largest `x` in `[lower, upper]` with
/// `R_k(x) ≤ pc`, and `R_k` is non-decreasing there. So the emitted
/// code
/// - at a root level, clamps the floored root into the bounds, then
///   steps it up while `R_k(x + 1) ≤ pc` and down while `R_k(x) > pc`;
/// - at the innermost level, where `R_k` grows by one per index,
///   computes `x = lower + pc − R_k(lower)`.
///
/// Both compare or subtract `den·R_k` (`den` clears the denominators of
/// `R_k`'s coefficients) and `den·pc`, so they are exact in integer
/// arithmetic.
#[derive(Debug, Clone)]
pub(crate) struct IntRecovery {
    /// The level.
    pub(crate) level: usize,
    /// `R_k` (iterators, then parameters).
    pub(crate) rank: Poly,
    /// The least common denominator of `R_k`'s coefficients.
    pub(crate) den: i128,
    /// The level's inclusive lower bound.
    pub(crate) lower: Poly,
    /// The level's inclusive upper bound.
    pub(crate) upper: Poly,
}

impl IntRecovery {
    fn new(spec: &CollapseSpec, k: usize) -> IntRecovery {
        let rank = spec.level_poly(k).clone();
        IntRecovery {
            level: k,
            den: rank.denominator_lcm(),
            rank,
            lower: spec.nest().lower(k).to_poly(),
            upper: spec.nest().upper(k).to_poly(),
        }
    }

    /// A root level's exact index for a floored `guess`, stepped the
    /// way the emitted code steps it. `point` holds the outer indices
    /// and then the parameters; its entries at this level and deeper
    /// are ignored.
    #[cfg(test)]
    pub(crate) fn correct(&self, guess: i64, point: &[i64], pc: i64) -> i64 {
        let mut at: Vec<i128> = point.iter().map(|&v| v as i128).collect();
        let lo = self.lower.eval_int(&at) as i64;
        let hi = self.upper.eval_int(&at) as i64;
        let mut rank = |x: i64| {
            at[self.level] = x as i128;
            self.rank.eval_int(&at)
        };
        let pc = pc as i128;
        let mut x = guess.clamp(lo, hi);
        while x < hi && rank(x + 1) <= pc {
            x += 1;
        }
        while x > lo && rank(x) > pc {
            x -= 1;
        }
        x
    }

    /// The innermost level's exact index, `lower + pc − R_k(lower)`
    /// (`point` as in [`correct`](Self::correct)).
    #[cfg(test)]
    pub(crate) fn offset(&self, point: &[i64], pc: i64) -> i64 {
        let mut at: Vec<i128> = point.iter().map(|&v| v as i128).collect();
        let lo = self.lower.eval_int(&at);
        at[self.level] = lo;
        (lo + pc as i128 - self.rank.eval_int(&at)) as i64
    }
}

/// Builds the per-level recovery formulas for `spec`, selecting root
/// branches by validation at `sample_params` (which must give a
/// non-empty valid domain).
pub fn build_formulas(
    spec: &CollapseSpec,
    sample_params: &[i64],
) -> Result<Vec<LevelFormula>, FormulaError> {
    let nest = spec.nest();
    let d = nest.depth();
    let names: Vec<&str> = nest.space().names().iter().map(String::as_str).collect();
    let collapsed = spec
        .bind(sample_params)
        .map_err(|_| FormulaError::EmptySample)?;
    let total = collapsed.total();
    if total <= 0 {
        return Err(FormulaError::EmptySample);
    }
    // Validation sample: first, last, and a spread of ranks.
    let mut sample_pcs: Vec<i128> = vec![1, total];
    for f in 1..20 {
        sample_pcs.push(1 + (total - 1) * f / 20);
    }
    sample_pcs.sort_unstable();
    sample_pcs.dedup();
    let sample_points: Vec<(i128, Vec<i64>)> = sample_pcs
        .iter()
        .map(|&pc| (pc, collapsed.unrank(pc)))
        .collect();
    // One set of bindings per sample (pc, the exact point and the
    // parameters), shared by every level and branch.
    let sample_bindings: Vec<HashMap<String, f64>> = sample_points
        .iter()
        .map(|(pc, point)| {
            let mut bind = HashMap::with_capacity(names.len() + 1);
            bind.insert("pc".to_string(), *pc as f64);
            for (v, name) in names.iter().enumerate() {
                let value = if v < d {
                    point[v]
                } else {
                    sample_params[v - d]
                };
                bind.insert((*name).to_string(), value as f64);
            }
            bind
        })
        .collect();

    let mut out = Vec::with_capacity(d);
    for k in 0..d {
        if k == d - 1 {
            // Exact innermost formula: x = lb + pc − R(prefix, lb).
            let lb = nest.lower(k).to_poly();
            let r_at_lb = spec.level_poly(k).substitute(k, &lb);
            let expr = add(vec![
                SymExpr::from_poly(&lb, &names),
                SymExpr::var("pc"),
                neg(SymExpr::from_poly(&r_at_lb, &names)),
            ]);
            out.push(LevelFormula {
                var: names[k].to_string(),
                expr,
                needs_complex: false,
                exact: true,
                int: IntRecovery::new(spec, k),
            });
            continue;
        }
        let coeff_polys: Vec<Poly> = spec.level_poly(k).univariate_coeffs(k);
        let degree = coeff_polys.len() - 1;
        let mut coeffs: Vec<SymExpr> = coeff_polys
            .iter()
            .map(|p| SymExpr::from_poly(p, &names))
            .collect();
        // The equation is R_k(x) − pc = 0.
        coeffs[0] = add(vec![coeffs[0].clone(), neg(SymExpr::var("pc"))]);
        let branches = symbolic_roots(&coeffs).map_err(|deg| FormulaError::DegreeTooHigh {
            level: k,
            degree: deg,
        })?;
        let _ = degree;
        // How far a branch's floor lands from the exact index (at the
        // worst validation sample), or `None` once a sample misses by
        // more than `limit` or evaluates to NaN or ±∞; with whether any
        // intermediate value was genuinely complex. The floor forgives
        // rounding to just below an integer by 1e-9.
        let worst_miss = |branch: &SymExpr, limit: f64| {
            let mut worst = 0.0f64;
            let mut complex = false;
            for (bind, (_, point)) in sample_bindings.iter().zip(&sample_points) {
                let v = branch.eval(bind);
                complex |= v.im.abs() > 1e-9;
                let miss = ((v.re + 1e-9).floor() - point[k] as f64).abs();
                if !miss.is_finite() || miss > limit {
                    return None;
                }
                worst = worst.max(miss);
            }
            Some((worst, complex))
        };
        // The first branch whose floor is exact at every sample (the
        // paper's convenient branch); failing that, the branch whose
        // floor lands nearest, which the emitted correction then steps
        // to the exact index.
        let (branch, observed_complex) = branches
            .iter()
            .find_map(|b| worst_miss(b, 0.0).map(|(_, complex)| (b, complex)))
            .or_else(|| {
                branches
                    .iter()
                    .filter_map(|b| {
                        worst_miss(b, f64::INFINITY).map(|(m, complex)| (m, b, complex))
                    })
                    .min_by(|x, y| x.0.total_cmp(&y.0))
                    .map(|(_, b, complex)| (b, complex))
            })
            .ok_or(FormulaError::NoValidBranch { level: k })?;
        let branch = branch.clone();
        // Complex arithmetic is required when a cube root occurs (its
        // principal branch is complex for negative radicands, §IV-C), or
        // when a sampled evaluation was complex. For pure square-root
        // (quadratic) formulas the discriminant is *linear* in pc, so
        // real values at the sampled endpoints (pc = 1 and pc = total)
        // prove realness across the whole range — matching the paper's
        // Fig. 3, which emits plain sqrt for the quadratic case.
        let has_cbrt = contains_cbrt(&branch);
        let needs_complex = branch.needs_complex() && (has_cbrt || observed_complex);
        let expr = SymExpr::Floor(Box::new(if needs_complex {
            SymExpr::Re(Box::new(branch))
        } else {
            branch
        }));
        out.push(LevelFormula {
            var: names[k].to_string(),
            expr,
            needs_complex,
            exact: false,
            int: IntRecovery::new(spec, k),
        });
    }
    Ok(out)
}

/// The total-iteration-count expression (the collapsed loop's upper
/// bound), in terms of the parameters.
pub fn total_expr(spec: &CollapseSpec) -> SymExpr {
    let names: Vec<&str> = spec
        .nest()
        .space()
        .names()
        .iter()
        .map(String::as_str)
        .collect();
    SymExpr::from_poly(spec.ranking().total_poly(), &names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrl_polyhedra::NestSpec;

    fn bindings(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn correlation_formula_matches_paper() {
        // Paper Fig. 3:
        //   i = floor(−(sqrt(4N² − 4N − 8pc + 9) − 2N + 1)/2)
        //   j = floor(−(2iN − 2pc − i² − 3i)/2)
        let spec = CollapseSpec::new(&NestSpec::correlation()).unwrap();
        let formulas = build_formulas(&spec, &[50]).unwrap();
        assert_eq!(formulas.len(), 2);
        assert!(!formulas[0].exact);
        assert!(formulas[1].exact);
        let n = 50f64;
        let collapsed = spec.bind(&[50]).unwrap();
        for pc in 1..=collapsed.total() {
            let point = collapsed.unrank(pc);
            // Our symbolic i-formula:
            let ours = formulas[0]
                .expr
                .eval(&bindings(&[("pc", pc as f64), ("N", n)]));
            // The paper's printed formula:
            let paper = (-((4.0 * n * n - 4.0 * n - 8.0 * pc as f64 + 9.0).sqrt() - 2.0 * n + 1.0)
                / 2.0)
                .floor();
            assert_eq!(ours.re as i64, point[0], "pc={pc} (ours)");
            assert_eq!(paper as i64, point[0], "pc={pc} (paper)");
            // And the j-formula given i:
            let j = formulas[1].expr.eval(&bindings(&[
                ("pc", pc as f64),
                ("N", n),
                ("i", point[0] as f64),
            ]));
            let paper_j = -(2.0 * point[0] as f64 * n
                - 2.0 * pc as f64
                - (point[0] * point[0]) as f64
                - 3.0 * point[0] as f64)
                / 2.0;
            assert_eq!(j.re.round() as i64, point[1], "pc={pc} j (ours)");
            assert_eq!(paper_j.floor() as i64, point[1], "pc={pc} j (paper)");
        }
    }

    #[test]
    fn figure6_cubic_formula_recovers_indices() {
        // The §IV-C cubic with complex intermediates.
        let spec = CollapseSpec::new(&NestSpec::figure6()).unwrap();
        let formulas = build_formulas(&spec, &[20]).unwrap();
        assert_eq!(formulas.len(), 3);
        assert!(
            formulas[0].needs_complex,
            "cubic root needs complex arithmetic"
        );
        let collapsed = spec.bind(&[20]).unwrap();
        for pc in 1..=collapsed.total() {
            let point = collapsed.unrank(pc);
            let i = formulas[0]
                .expr
                .eval(&bindings(&[("pc", pc as f64), ("N", 20.0)]));
            assert_eq!(i.re as i64, point[0], "pc={pc} i");
            let j = formulas[1].expr.eval(&bindings(&[
                ("pc", pc as f64),
                ("N", 20.0),
                ("i", point[0] as f64),
            ]));
            assert_eq!(j.re as i64, point[1], "pc={pc} j (i={})", point[0]);
            let k = formulas[2].expr.eval(&bindings(&[
                ("pc", pc as f64),
                ("N", 20.0),
                ("i", point[0] as f64),
                ("j", point[1] as f64),
            ]));
            assert_eq!(k.re.round() as i64, point[2], "pc={pc} k");
        }
    }

    #[test]
    fn figure6_formula_at_pc1_passes_through_complex_zero() {
        // §IV-C: at pc = 1 the discriminant is negative (√−1) yet the
        // root evaluates to 0 + 0i.
        let spec = CollapseSpec::new(&NestSpec::figure6()).unwrap();
        let formulas = build_formulas(&spec, &[10]).unwrap();
        let v = formulas[0]
            .expr
            .eval(&bindings(&[("pc", 1.0), ("N", 10.0)]));
        assert_eq!(v.re as i64, 0);
    }

    /// Recovers every index of `pc` the way the emitted code does: a
    /// root level's floored formula evaluated in f64 and truncated to
    /// an integer (the C assignment to a `long`), then corrected; the
    /// innermost level in integer arithmetic.
    fn emitted_recovery(
        formulas: &[LevelFormula],
        names: &[&str],
        params: &[i64],
        pc: i64,
    ) -> Vec<i64> {
        let d = formulas.len();
        let mut point = vec![0i64; d];
        point.extend_from_slice(params);
        let mut bind = bindings(&[("pc", pc as f64)]);
        for (name, &v) in names[d..].iter().zip(params) {
            bind.insert(name.to_string(), v as f64);
        }
        for (k, f) in formulas.iter().enumerate() {
            point[k] = if f.exact {
                f.int.offset(&point, pc)
            } else {
                f.int.correct(f.expr.eval(&bind).re as i64, &point, pc)
            };
            bind.insert(names[k].to_string(), point[k] as f64);
        }
        point.truncate(d);
        point
    }

    /// The wedge `0 ≤ i < N, i ≤ j < N, 0 ≤ k ≤ j − i`: its level-0
    /// cubic root floors one index low at some ranks (at N = 10 and 15
    /// no branch floors exactly at pc = 1), so codegen must still
    /// choose a branch and the emitted correction must make every
    /// index exact.
    #[test]
    fn wedge_recovery_is_exact_at_every_rank() {
        let src = "params N;
            for (i = 0; i < N; i++)
              for (j = i; j < N; j++)
                for (k = 0; k <= j - i; k++)
                { body(i, j, k); }";
        let prog = crate::parse(src).unwrap();
        let spec = CollapseSpec::new(&prog.to_nest().unwrap()).unwrap();
        let names = ["i", "j", "k", "N"];
        let mut floor_was_off = false;
        for n in (4..=16).chain([50]) {
            let formulas = build_formulas(&spec, &[n]).unwrap_or_else(|e| panic!("N = {n}: {e}"));
            let collapsed = spec.bind(&[n]).unwrap();
            for pc in 1..=collapsed.total() {
                let bind = bindings(&[("pc", pc as f64), ("N", n as f64)]);
                let exact = collapsed.unrank(pc);
                floor_was_off |= formulas[0].expr.eval(&bind).re as i64 != exact[0];
                let got = emitted_recovery(&formulas, &names, &[n], pc as i64);
                assert_eq!(got, exact, "N = {n}, pc = {pc}");
            }
            let opts = crate::CodegenOptions {
                sample_params: vec![n],
                ..Default::default()
            };
            let code =
                crate::generate_c(&prog, &spec, &opts).unwrap_or_else(|e| panic!("N = {n}: {e}"));
            assert!(code.contains("body(i, j, k);"), "{code}");
        }
        assert!(
            floor_was_off,
            "the floor alone was exact: the correction went untested"
        );
    }

    /// The paper's nests: the emitted recovery is exact at every rank
    /// (the floored figure-6 formulas alone are one off at some ranks,
    /// e.g. N = 5, pc = 10).
    #[test]
    fn paper_nests_recover_exactly_at_every_rank() {
        for (nest, ns) in [
            (NestSpec::correlation(), vec![2, 3, 50]),
            (NestSpec::figure6(), vec![2, 5, 40]),
        ] {
            let spec = CollapseSpec::new(&nest).unwrap();
            let names: Vec<&str> = nest.space().names().iter().map(String::as_str).collect();
            for n in ns {
                let formulas = build_formulas(&spec, &[n]).unwrap();
                let collapsed = spec.bind(&[n]).unwrap();
                for pc in 1..=collapsed.total() {
                    let got = emitted_recovery(&formulas, &names, &[n], pc as i64);
                    assert_eq!(got, collapsed.unrank(pc), "N = {n}, pc = {pc}");
                }
            }
        }
    }

    /// The correction reaches the exact index from any start, however
    /// far off, so recovery never depends on the branch choice.
    #[test]
    fn correction_steps_from_any_guess_to_the_exact_index() {
        let spec = CollapseSpec::new(&NestSpec::figure6()).unwrap();
        let formulas = build_formulas(&spec, &[9]).unwrap();
        let collapsed = spec.bind(&[9]).unwrap();
        for pc in 1..=collapsed.total() {
            let exact = collapsed.unrank(pc);
            for (k, f) in formulas.iter().enumerate().take(2) {
                let mut point = exact.clone();
                point.push(9);
                for guess in [-100, -1, 0, exact[k] - 1, exact[k] + 1, 8, 100] {
                    let got = f.int.correct(guess, &point, pc as i64);
                    assert_eq!(got, exact[k], "pc = {pc}, level {k}, guess {guess}");
                }
            }
        }
    }

    #[test]
    fn total_expr_matches_total_poly() {
        let spec = CollapseSpec::new(&NestSpec::correlation()).unwrap();
        let e = total_expr(&spec);
        let v = e.eval(&bindings(&[("N", 100.0)]));
        assert_eq!(v.re as i64, 99 * 100 / 2);
    }

    #[test]
    fn quartic_reports_degree_error() {
        use nrl_polyhedra::Space;
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
        let err = build_formulas(&spec, &[6]).unwrap_err();
        assert!(matches!(
            err,
            FormulaError::DegreeTooHigh {
                level: 0,
                degree: 4
            }
        ));
    }

    #[test]
    fn empty_sample_rejected() {
        let spec = CollapseSpec::new(&NestSpec::correlation()).unwrap();
        assert_eq!(
            build_formulas(&spec, &[1]).unwrap_err(),
            FormulaError::EmptySample
        );
    }
}
