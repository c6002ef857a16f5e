//! Loop nests as this benchmark describes them: affine bounds over
//! earlier iterators and parameters, with inclusive lower and
//! exclusive upper bounds. From one description the benchmark renders
//! the DSL source the library parses and enumerates the reference
//! points itself, so references never go through the code under test.

use crate::util::Rng;

const ITERS: [&str; 4] = ["i", "j", "k", "l"];

/// `c + Σ it[v]·iter_v + Σ par[p]·param_p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aff {
    pub c: i64,
    pub it: [i64; 4],
    pub par: [i64; 3],
}

impl Aff {
    pub const fn c(c: i64) -> Aff {
        Aff {
            c,
            it: [0; 4],
            par: [0; 3],
        }
    }

    /// `c + k·iter_v`.
    pub const fn iter(v: usize, k: i64, c: i64) -> Aff {
        let mut a = Aff::c(c);
        a.it[v] = k;
        a
    }

    /// `c + k·param_p`.
    pub const fn param(p: usize, k: i64, c: i64) -> Aff {
        let mut a = Aff::c(c);
        a.par[p] = k;
        a
    }

    /// Adds `k·iter_v`.
    #[cfg(test)]
    pub const fn plus_iter(mut self, v: usize, k: i64) -> Aff {
        self.it[v] += k;
        self
    }

    /// Adds `k·param_p`.
    pub const fn plus_param(mut self, p: usize, k: i64) -> Aff {
        self.par[p] += k;
        self
    }

    pub fn eval(&self, point: &[i64], params: &[i64]) -> i64 {
        let its: i64 = point.iter().zip(&self.it).map(|(x, k)| x * k).sum();
        let pars: i64 = params.iter().zip(&self.par).map(|(x, k)| x * k).sum();
        self.c + its + pars
    }

    fn render(&self, params: &[&str]) -> String {
        let mut terms: Vec<(i64, &str)> = Vec::new();
        terms.extend(
            self.it
                .iter()
                .zip(ITERS)
                .filter(|(k, _)| **k != 0)
                .map(|(k, n)| (*k, n)),
        );
        terms.extend(
            self.par
                .iter()
                .zip(params)
                .filter(|(k, _)| **k != 0)
                .map(|(k, n)| (*k, *n)),
        );
        if self.c != 0 || terms.is_empty() {
            terms.push((self.c, ""));
        }
        let mut out = String::new();
        for (n, (k, name)) in terms.into_iter().enumerate() {
            let sign = match (n, k < 0) {
                (0, false) => "",
                (0, true) => "-",
                (_, false) => " + ",
                (_, true) => " - ",
            };
            let a = k.abs();
            let term = match (name, a) {
                ("", _) => a.to_string(),
                (_, 1) => name.to_string(),
                _ => format!("{a}*{name}"),
            };
            out.push_str(sign);
            out.push_str(&term);
        }
        out
    }
}

/// One nest: per level, `lower ≤ iter < upper`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Nest {
    pub name: &'static str,
    pub params: &'static [&'static str],
    pub loops: Vec<(Aff, Aff)>,
}

impl Nest {
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// The DSL source of this nest.
    pub fn source(&self) -> String {
        let mut src = String::new();
        if !self.params.is_empty() {
            src.push_str(&format!("params {};\n", self.params.join(", ")));
        }
        for (v, (lo, hi)) in self.loops.iter().enumerate() {
            let x = ITERS[v];
            src.push_str(&format!(
                "{}for ({x} = {}; {x} < {}; {x}++)\n",
                "  ".repeat(v),
                lo.render(self.params),
                hi.render(self.params)
            ));
        }
        src.push_str(&format!("{}{{ body; }}\n", "  ".repeat(self.depth())));
        src
    }

    /// Calls `f` on every point in lexicographic order.
    pub fn for_each(&self, params: &[i64], mut f: impl FnMut(&[i64])) {
        let mut point = vec![0i64; self.depth()];
        self.walk(params, 0, &mut point, &mut f);
    }

    fn walk(&self, params: &[i64], level: usize, point: &mut Vec<i64>, f: &mut impl FnMut(&[i64])) {
        if level == self.depth() {
            f(point);
            return;
        }
        let (lo, hi) = &self.loops[level];
        let (lo, hi) = (
            lo.eval(&point[..level], params),
            hi.eval(&point[..level], params),
        );
        for x in lo..hi {
            point[level] = x;
            self.walk(params, level + 1, point, f);
        }
    }

    #[cfg(test)]
    pub fn count(&self, params: &[i64]) -> u64 {
        let mut n = 0u64;
        self.for_each(params, |_| n += 1);
        n
    }
}

/// Shorthands for the catalogue below: iterator `v`, parameter `p`,
/// a constant.
const fn it(v: usize, c: i64) -> Aff {
    Aff::iter(v, 1, c)
}
const fn par(p: usize, c: i64) -> Aff {
    Aff::param(p, 1, c)
}
const fn cst(c: i64) -> Aff {
    Aff::c(c)
}

fn nest(name: &'static str, params: &'static [&'static str], loops: &[(Aff, Aff)]) -> Nest {
    Nest {
        name,
        params,
        loops: loops.to_vec(),
    }
}

/// Correlation (Fig. 1): `0 ≤ i < N−1, i+1 ≤ j < N`.
pub fn correlation() -> Nest {
    nest(
        "correlation",
        &["N"],
        &[(cst(0), par(0, -1)), (it(0, 1), par(0, 0))],
    )
}

/// Upper triangle with diagonal (trmm, utma): `i ≤ j < N`.
pub fn upper() -> Nest {
    nest(
        "upper",
        &["N"],
        &[(cst(0), par(0, 0)), (it(0, 0), par(0, 0))],
    )
}

/// Lower triangle with diagonal: `0 ≤ j ≤ i`.
pub fn lower() -> Nest {
    nest("lower", &["N"], &[(cst(0), par(0, 0)), (cst(0), it(0, 1))])
}

/// Fig. 6: `0 ≤ i < N−1, 0 ≤ j ≤ i, j ≤ k ≤ i`.
pub fn figure6() -> Nest {
    nest(
        "figure6",
        &["N"],
        &[
            (cst(0), par(0, -1)),
            (cst(0), it(0, 1)),
            (it(1, 0), it(0, 1)),
        ],
    )
}

/// Tetrahedron: `0 ≤ k ≤ j ≤ i < N`.
pub fn tetra() -> Nest {
    nest(
        "tetra",
        &["N"],
        &[(cst(0), par(0, 0)), (cst(0), it(0, 1)), (cst(0), it(1, 1))],
    )
}

/// Trapezoid: `0 ≤ j < i + M`.
pub fn trapezoid() -> Nest {
    nest(
        "trapezoid",
        &["N", "M"],
        &[(cst(0), par(0, 0)), (cst(0), it(0, 0).plus_param(1, 1))],
    )
}

/// Short-fat band (rhomboid): `i ≤ j < i + W` over `R` rows.
pub fn band() -> Nest {
    nest(
        "band",
        &["R", "W"],
        &[(cst(0), par(0, 0)), (it(0, 0), it(0, 0).plus_param(1, 1))],
    )
}

/// Triangular prism: `0 ≤ j ≤ i < N, 0 ≤ k < M`.
pub fn prism() -> Nest {
    nest(
        "prism",
        &["N", "M"],
        &[(cst(0), par(0, 0)), (cst(0), it(0, 1)), (cst(0), par(1, 0))],
    )
}

/// Skewed rows: `2i ≤ j < 2i + N`.
pub fn skew() -> Nest {
    let two_i = Aff::iter(0, 2, 0);
    nest(
        "skew",
        &["N"],
        &[(cst(0), par(0, 0)), (two_i, two_i.plus_param(0, 1))],
    )
}

/// Doubly sheared box (parallelepiped): `i ≤ j < i + Q, j ≤ k < j + R`.
pub fn sheared() -> Nest {
    nest(
        "sheared",
        &["P", "Q", "R"],
        &[
            (cst(0), par(0, 0)),
            (it(0, 0), it(0, 0).plus_param(1, 1)),
            (it(1, 0), it(1, 0).plus_param(2, 1)),
        ],
    )
}

/// One generated accepted nest of depth 2 or 3 with small parameters
/// at which every trip count is positive, so the whole pipeline must
/// succeed on it.
pub fn generated(rng: &mut Rng, depth: usize) -> (Nest, Vec<i64>) {
    let n = rng.range(8, 16);
    if depth == 2 {
        match rng.below(3) {
            // a ≤ i < N + b;  c·i + d ≤ j < e·i + N + f  (e ≥ c, N + f > d)
            0 => {
                let (a, b) = (rng.range(0, 2), rng.range(-1, 1));
                let c = rng.range(0, 1);
                let e = c + rng.range(0, 1);
                let d = rng.range(0, 2);
                let f = rng.range(-1, 2);
                let lo = Aff::iter(0, c, d);
                let hi = Aff::iter(0, e, f).plus_param(0, 1);
                (
                    nest("gen2_slope", &["N"], &[(cst(a), par(0, b)), (lo, hi)]),
                    vec![n],
                )
            }
            // band with slope s: s·i ≤ j < s·i + W + t
            1 => {
                let s = rng.range(0, 2);
                let t = rng.range(0, 3);
                let lo = Aff::iter(0, s, 0);
                let hi = Aff::iter(0, s, t).plus_param(1, 1);
                let w = rng.range(3, 10);
                (
                    nest("gen2_band", &["N", "W"], &[(cst(0), par(0, 0)), (lo, hi)]),
                    vec![n, w],
                )
            }
            // lower triangle widened by a: 0 ≤ j < i + 1 + a
            _ => {
                let a = rng.range(0, 3);
                (
                    nest(
                        "gen2_lower",
                        &["N"],
                        &[(cst(0), par(0, 0)), (cst(0), it(0, 1 + a))],
                    ),
                    vec![n],
                )
            }
        }
    } else {
        // 0 ≤ j < i + 1 + a,  j ≤ k < i + 1 + a + b. One family only:
        // the 3-deep families tried alongside it (wedge, prism) compile
        // 1.3× slower or faster, and the median of that mix flipped
        // between clusters from seed to seed.
        let (a, b) = (rng.range(0, 2), rng.range(0, 2));
        let loops = [
            (cst(0), par(0, 0)),
            (cst(0), it(0, 1 + a)),
            (it(1, 0), it(0, 1 + a + b)),
        ];
        (nest("gen3_tetra", &["N"], &loops), vec![n.min(12)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_render_affine_bounds() {
        assert_eq!(
            correlation().source(),
            "params N;\nfor (i = 0; i < N - 1; i++)\n  for (j = i + 1; j < N; j++)\n    { body; }\n"
        );
        assert!(skew().source().contains("for (j = 2*i; j < 2*i + N; j++)"));
        assert_eq!(
            Aff::iter(1, 1, 1).plus_iter(0, -1).render(&[]),
            "-i + j + 1"
        );
    }

    #[test]
    fn enumeration_counts_match_closed_forms() {
        assert_eq!(correlation().count(&[10]), 45);
        assert_eq!(figure6().count(&[10]), 165);
        assert_eq!(tetra().count(&[10]), 220);
        assert_eq!(sheared().count(&[3, 4, 5]), 60);
        assert_eq!(band().count(&[3, 7]), 21);
    }
}
