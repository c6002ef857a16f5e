//! Symbolic expression trees for the generated recovery code.
//!
//! These are the expressions the paper prints in its Figs. 3, 4 and 7 —
//! nested arithmetic with square/cube roots over complex intermediates.
//! [`SymExpr`] supports exact construction from polynomials, numeric
//! evaluation through [`Complex64`] (to select root branches and to test
//! the emitted formulas), and printing as C (with `csqrt`/`cpow`/
//! `creal`) or Rust (with our `Complex64` API).

use nrl_poly::Poly;
use nrl_rational::Rational;
use nrl_solver::Complex64;
use std::collections::HashMap;
use std::fmt;

/// A symbolic arithmetic expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SymExpr {
    /// Rational constant.
    Rat(Rational),
    /// Named variable (`pc`, a parameter, or an outer iterator).
    Var(String),
    /// Sum of the operands.
    Add(Vec<SymExpr>),
    /// Product of the operands.
    Mul(Vec<SymExpr>),
    /// Negation.
    Neg(Box<SymExpr>),
    /// Quotient.
    Div(Box<SymExpr>, Box<SymExpr>),
    /// Integer power (exponent ≥ 0).
    Pow(Box<SymExpr>, u32),
    /// Principal (complex) square root.
    Sqrt(Box<SymExpr>),
    /// Principal (complex) cube root.
    Cbrt(Box<SymExpr>),
    /// Real part.
    Re(Box<SymExpr>),
    /// Floor of the (real) value.
    Floor(Box<SymExpr>),
}

impl SymExpr {
    /// Integer constant helper.
    pub fn int(n: i128) -> SymExpr {
        SymExpr::Rat(Rational::from_int(n))
    }

    /// Variable helper.
    pub fn var(name: &str) -> SymExpr {
        SymExpr::Var(name.to_string())
    }

    /// Builds a [`SymExpr`] from a polynomial, naming variable `v` as
    /// `names[v]`.
    pub fn from_poly(p: &Poly, names: &[&str]) -> SymExpr {
        assert_eq!(names.len(), p.nvars(), "name arity mismatch");
        let mut terms = Vec::new();
        for (m, c) in p.terms() {
            let mut factors = vec![SymExpr::Rat(*c)];
            for (v, &e) in m.0.iter().enumerate() {
                match e {
                    0 => {}
                    1 => factors.push(SymExpr::var(names[v])),
                    _ => factors.push(SymExpr::Pow(Box::new(SymExpr::var(names[v])), e)),
                }
            }
            terms.push(if factors.len() == 1 {
                factors.pop().expect("nonempty")
            } else {
                SymExpr::Mul(factors)
            });
        }
        match terms.len() {
            0 => SymExpr::int(0),
            1 => terms.pop().expect("nonempty"),
            _ => SymExpr::Add(terms),
        }
    }

    /// Numeric evaluation with complex intermediates.
    pub fn eval(&self, bindings: &HashMap<String, f64>) -> Complex64 {
        match self {
            SymExpr::Rat(r) => Complex64::real(r.to_f64()),
            SymExpr::Var(v) => Complex64::real(
                *bindings
                    .get(v)
                    .unwrap_or_else(|| panic!("unbound variable {v:?}")),
            ),
            SymExpr::Add(ts) => ts
                .iter()
                .fold(Complex64::ZERO, |acc, t| acc + t.eval(bindings)),
            SymExpr::Mul(ts) => ts
                .iter()
                .fold(Complex64::ONE, |acc, t| acc * t.eval(bindings)),
            SymExpr::Neg(t) => -t.eval(bindings),
            SymExpr::Div(a, b) => a.eval(bindings) / b.eval(bindings),
            SymExpr::Pow(t, e) => t.eval(bindings).powi(*e as i32),
            SymExpr::Sqrt(t) => t.eval(bindings).sqrt(),
            SymExpr::Cbrt(t) => t.eval(bindings).cbrt(),
            SymExpr::Re(t) => Complex64::real(t.eval(bindings).re),
            SymExpr::Floor(t) => Complex64::real(t.eval(bindings).re.floor()),
        }
    }

    /// True iff the expression contains a `Sqrt`/`Cbrt` (and therefore
    /// needs complex arithmetic in the generated code — §IV-C).
    pub fn needs_complex(&self) -> bool {
        match self {
            SymExpr::Sqrt(_) | SymExpr::Cbrt(_) => true,
            SymExpr::Rat(_) | SymExpr::Var(_) => false,
            SymExpr::Add(ts) | SymExpr::Mul(ts) => ts.iter().any(SymExpr::needs_complex),
            SymExpr::Neg(t) | SymExpr::Pow(t, _) | SymExpr::Re(t) | SymExpr::Floor(t) => {
                t.needs_complex()
            }
            SymExpr::Div(a, b) => a.needs_complex() || b.needs_complex(),
        }
    }

    /// Emits C source. When `complex` is true, roots become
    /// `csqrt`/`cpow(..., 1.0/3.0)` and numeric leaves are cast to
    /// `double` (matching the paper's Fig. 7 output style); otherwise
    /// `sqrt`/`cbrt` are used.
    pub fn to_c(&self, complex: bool) -> String {
        match self {
            SymExpr::Rat(r) => {
                if r.is_integer() {
                    format!("{}", r.numer())
                } else {
                    format!("({}.0/{}.0)", r.numer(), r.denom())
                }
            }
            SymExpr::Var(v) => format!("(double){v}"),
            SymExpr::Add(ts) => {
                let parts: Vec<String> = ts.iter().map(|t| t.to_c(complex)).collect();
                format!("({})", parts.join(" + "))
            }
            SymExpr::Mul(ts) => {
                let parts: Vec<String> = ts.iter().map(|t| t.to_c(complex)).collect();
                format!("({})", parts.join("*"))
            }
            SymExpr::Neg(t) => format!("(-{})", t.to_c(complex)),
            SymExpr::Div(a, b) => format!("({}/{})", a.to_c(complex), b.to_c(complex)),
            SymExpr::Pow(t, e) => {
                let f = if complex { "cpow" } else { "pow" };
                format!("{f}({}, {}.0)", t.to_c(complex), e)
            }
            SymExpr::Sqrt(t) => {
                let f = if complex { "csqrt" } else { "sqrt" };
                format!("{f}({})", t.to_c(complex))
            }
            SymExpr::Cbrt(t) => {
                if complex {
                    format!("cpow({}, 1.0/3.0)", t.to_c(true))
                } else {
                    format!("cbrt({})", t.to_c(false))
                }
            }
            SymExpr::Re(t) => format!("creal({})", t.to_c(true)),
            SymExpr::Floor(t) => format!("floor({})", t.to_c(complex)),
        }
    }

    /// Emits Rust source over `nrl_solver::Complex64` (variables are
    /// assumed bound as `f64` locals; the expression value is `Complex64`
    /// unless wrapped in `Re`/`Floor`, which produce `f64`).
    pub fn to_rust(&self) -> String {
        match self {
            SymExpr::Rat(r) => {
                if r.is_integer() {
                    format!("c({}.0)", r.numer())
                } else {
                    format!("c({}.0 / {}.0)", r.numer(), r.denom())
                }
            }
            SymExpr::Var(v) => format!("c({v})"),
            SymExpr::Add(ts) => {
                let parts: Vec<String> = ts.iter().map(SymExpr::to_rust).collect();
                format!("({})", parts.join(" + "))
            }
            SymExpr::Mul(ts) => {
                let parts: Vec<String> = ts.iter().map(SymExpr::to_rust).collect();
                format!("({})", parts.join(" * "))
            }
            SymExpr::Neg(t) => format!("(-{})", t.to_rust()),
            SymExpr::Div(a, b) => format!("({} / {})", a.to_rust(), b.to_rust()),
            SymExpr::Pow(t, e) => format!("{}.powi({e})", t.to_rust()),
            SymExpr::Sqrt(t) => format!("{}.sqrt()", t.to_rust()),
            SymExpr::Cbrt(t) => format!("{}.cbrt()", t.to_rust()),
            SymExpr::Re(t) => format!("{}.re", t.to_rust()),
            SymExpr::Floor(t) => match **t {
                SymExpr::Re(_) => format!("({}).floor()", t.to_rust()),
                _ => format!("({}).re.floor()", t.to_rust()),
            },
        }
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_c(self.needs_complex()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn eval_basic_arithmetic() {
        // (2x + 1)² / 3
        let e = SymExpr::Div(
            Box::new(SymExpr::Pow(
                Box::new(SymExpr::Add(vec![
                    SymExpr::Mul(vec![SymExpr::int(2), SymExpr::var("x")]),
                    SymExpr::int(1),
                ])),
                2,
            )),
            Box::new(SymExpr::int(3)),
        );
        let v = e.eval(&bind(&[("x", 4.0)]));
        assert!((v.re - 27.0).abs() < 1e-12);
        assert_eq!(v.im, 0.0);
    }

    #[test]
    fn sqrt_of_negative_stays_finite() {
        let e = SymExpr::Sqrt(Box::new(SymExpr::int(-4)));
        let v = e.eval(&HashMap::new());
        assert!((v.im - 2.0).abs() < 1e-12);
        assert!(e.needs_complex());
    }

    #[test]
    fn from_poly_matches_polynomial_eval() {
        // r(i, j) over (i, j, N) = (2iN + 2j − i² − 3i)/2
        let i = Poly::var(3, 0);
        let j = Poly::var(3, 1);
        let n = Poly::var(3, 2);
        let r = (Poly::constant_int(3, 2) * &i * &n + Poly::constant_int(3, 2) * &j
            - i.pow(2)
            - Poly::constant_int(3, 3) * &i)
            .scale(Rational::new(1, 2));
        let e = SymExpr::from_poly(&r, &["i", "j", "N"]);
        for (iv, jv, nv) in [(0i64, 1i64, 10i64), (3, 7, 10), (5, 9, 12)] {
            let sym = e.eval(&bind(&[
                ("i", iv as f64),
                ("j", jv as f64),
                ("N", nv as f64),
            ]));
            let exact = r.eval_int(&[iv as i128, jv as i128, nv as i128]) as f64;
            assert!((sym.re - exact).abs() < 1e-9, "({iv},{jv},{nv})");
        }
    }

    #[test]
    fn c_rendering_of_paper_style_formula() {
        // floor(−(sqrt(X) − 2N + 1)/2) renders with sqrt and floor.
        let e = SymExpr::Floor(Box::new(SymExpr::Div(
            Box::new(SymExpr::Neg(Box::new(SymExpr::Add(vec![
                SymExpr::Sqrt(Box::new(SymExpr::var("X"))),
                SymExpr::Mul(vec![SymExpr::int(-2), SymExpr::var("N")]),
                SymExpr::int(1),
            ])))),
            Box::new(SymExpr::int(2)),
        )));
        let c = e.to_c(false);
        assert!(c.contains("floor("));
        assert!(c.contains("sqrt("));
        let c_complex = e.to_c(true);
        assert!(c_complex.contains("csqrt("));
    }

    #[test]
    fn rust_rendering_compiles_shape() {
        let e = SymExpr::Re(Box::new(SymExpr::Cbrt(Box::new(SymExpr::var("q")))));
        assert_eq!(e.to_rust(), "c(q).cbrt().re");
    }

    #[test]
    fn needs_complex_detection() {
        assert!(!SymExpr::var("x").needs_complex());
        assert!(!SymExpr::Add(vec![SymExpr::int(1), SymExpr::var("y")]).needs_complex());
        assert!(SymExpr::Cbrt(Box::new(SymExpr::int(5))).needs_complex());
    }
}
