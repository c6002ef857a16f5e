//! Emission of collapsed source code (the paper's Figs. 3, 4 and 7).

use crate::ast::ProgramAst;
use crate::formulas::{build_formulas, FormulaError, LevelFormula};
use nrl_core::CollapseSpec;
use nrl_poly::Poly;
use std::fmt::Write;

/// Which of the paper's code shapes to emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodegenStyle {
    /// Fig. 3: recover the indices with the root formulas at **every**
    /// iteration.
    Naive,
    /// Fig. 4 / §V: recover once per thread (guarded by a
    /// `firstprivate` flag) and advance indices by incrementation.
    Chunked,
    /// §V, second listing: `schedule(static, CHUNK)` with recovery at
    /// every chunk boundary (`(pc − 1) % CHUNK == 0`).
    ChunkedBy(u64),
    /// §VI.A: recover once per thread, pre-compute `vlength` index
    /// tuples into thread-private arrays by incrementation, then run
    /// the bodies under `#pragma omp simd`.
    Simd(usize),
    /// §VI.B: the GPU-warp scheme — `W` lanes execute interleaved
    /// ranks; each lane recovers once and then advances by `W`
    /// incrementations between its iterations. Emitted as the paper's
    /// portable C simulation of a warp.
    GpuWarp(usize),
}

/// Options controlling emission.
#[derive(Clone, Debug)]
pub struct CodegenOptions {
    /// Code shape (Fig. 3 vs Fig. 4).
    pub style: CodegenStyle,
    /// Text placed in the OpenMP `schedule(…)` clause.
    pub schedule: String,
    /// Parameter values used only to *select root branches* (must give a
    /// non-empty domain; the emitted code itself stays parametric).
    pub sample_params: Vec<i64>,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            style: CodegenStyle::Chunked,
            schedule: "static".to_string(),
            sample_params: vec![100],
        }
    }
}

fn iter_names(spec: &CollapseSpec) -> Vec<String> {
    let d = spec.nest().depth();
    spec.nest().space().names()[..d].to_vec()
}

/// Renders `scale·p`, which must have integer coefficients, as an
/// expression valid in C and Rust (`3*N*i - i*i + 2`), naming
/// variable `v` by `names[v]`.
fn int_poly(p: &Poly, scale: i128, names: &[String]) -> String {
    let mut out = String::new();
    for (m, c) in p.terms() {
        let c = c.numer() * (scale / c.denom());
        out.push_str(match (out.is_empty(), c < 0) {
            (true, false) => "",
            (true, true) => "-",
            (false, false) => " + ",
            (false, true) => " - ",
        });
        // A unit coefficient is left out unless the term is constant.
        let mut bare = c.unsigned_abs() == 1 && !m.is_constant();
        if !bare {
            write!(out, "{}", c.unsigned_abs()).expect("writing to a String");
        }
        for (v, &e) in m.0.iter().enumerate() {
            for _ in 0..e {
                if !bare {
                    out.push('*');
                }
                out.push_str(&names[v]);
                bare = false;
            }
        }
    }
    if out.is_empty() {
        out.push('0');
    }
    out
}

/// The iteration count (the collapsed loop's upper bound) in integer
/// arithmetic: `(den·total) / den`, an exact division.
fn total_int(spec: &CollapseSpec, names: &[String]) -> String {
    let total = spec.ranking().total_poly();
    let den = total.denominator_lcm();
    let scaled = int_poly(total, den, names);
    if den == 1 {
        format!("({scaled})")
    } else {
        format!("({scaled}) / {den}")
    }
}

/// The integer recovery of one level
/// ([`IntRecovery`](crate::formulas::IntRecovery)) as statements,
/// after the root levels' floored assignment. `names` renders the
/// variables, `pc` the rank; `inc`/`dec` step the index.
fn int_recovery(
    f: &LevelFormula,
    names: &[String],
    pc: &str,
    (inc, dec): (&str, &str),
    indent: &str,
) -> String {
    let int = &f.int;
    let x = &f.var;
    let den = int.den;
    // The variables with this level's index named `text`.
    let at = |text: String| {
        let mut names = names.to_vec();
        names[int.level] = text;
        names
    };
    let lower = int_poly(&int.lower, 1, names);
    let target = if den == 1 {
        pc.to_string()
    } else {
        format!("{den}*{pc}")
    };
    let rank = int_poly(&int.rank, den, &at(x.clone()));
    if f.exact {
        let step = if den == 1 {
            format!("{pc} - ({rank})")
        } else {
            format!("({target} - ({rank})) / {den}")
        };
        return format!("{indent}{x} = {lower};\n{indent}{x} += {step};\n");
    }
    let upper = int_poly(&int.upper, 1, names);
    let rank_next = int_poly(&int.rank, den, &at(format!("({x} + 1)")));
    format!(
        "{indent}if ({x} < {lower}) {{ {x} = {lower}; }}\n\
         {indent}if ({x} > {upper}) {{ {x} = {upper}; }}\n\
         {indent}while ({x} < {upper} && {rank_next} <= {target}) {{ {inc}; }}\n\
         {indent}while ({x} > {lower} && {rank} > {target}) {{ {dec}; }}\n"
    )
}

/// Emits the recovery assignments (one per level): a root level's
/// floored formula followed by its exact correction, the innermost
/// level in integer arithmetic.
fn recovery_c(formulas: &[LevelFormula], names: &[String], indent: &str) -> String {
    let mut out = String::new();
    for f in formulas {
        let x = &f.var;
        if !f.exact {
            out.push_str(&format!(
                "{indent}{x} = {};\n",
                f.expr.to_c(f.needs_complex)
            ));
        }
        out.push_str(&int_recovery(
            f,
            names,
            "pc",
            (&format!("{x}++"), &format!("{x}--")),
            indent,
        ));
    }
    out
}

/// Emits the odometer incrementation of the original nest (Fig. 4's
/// `j++; if (j >= N) { i++; j = i + 1; }`), generalized to any depth.
fn incrementation_c(spec: &CollapseSpec, indent: &str) -> String {
    let nest = spec.nest();
    let d = nest.depth();
    let names = iter_names(spec);
    let mut out = String::new();
    // Innermost increments; each carry recomputes inner lower bounds.
    out.push_str(&format!("{indent}{}++;\n", names[d - 1]));
    for k in (1..d).rev() {
        let ub = nest.upper(k).render();
        out.push_str(&format!("{indent}if ({} > {}) {{\n", names[k], ub));
        out.push_str(&format!("{indent}  {}++;\n", names[k - 1]));
        // Re-descend: reset levels k..d−1 to their lower bounds (in
        // order, since lower bounds may use the freshly updated outers).
        for (q, name) in names.iter().enumerate().take(d).skip(k) {
            out.push_str(&format!("{indent}  {name} = {};\n", nest.lower(q).render()));
        }
        out.push_str(&format!("{indent}}}\n"));
    }
    out
}

/// Renders the non-collapsed inner loops (`collapse(c)` with
/// `c < depth`) as plain C `for` headers wrapped around the body.
fn inner_loops_c(prog: &ProgramAst, c: usize, body: &str, indent: &str) -> String {
    let mut out = String::new();
    for (depth, l) in prog.loops[c..].iter().enumerate() {
        let pad = format!("{indent}{}", "  ".repeat(depth));
        let cmp = if l.upper_inclusive { "<=" } else { "<" };
        out.push_str(&format!(
            "{pad}for ({v} = {lo}; {v} {cmp} {hi}; {v}++)\n",
            v = l.var,
            lo = l.lower.render(),
            hi = l.upper.render()
        ));
    }
    let pad = format!("{indent}{}", "  ".repeat(prog.loops.len() - c));
    out.push_str(&format!("{pad}{{ {body} }}\n"));
    out
}

/// Generates the collapsed C function for a parsed program.
///
/// The emitted code mirrors the paper's figures: a single `pc` loop with
/// an OpenMP pragma, recovery of the original indices (complex math where
/// required, each floored root then corrected exactly in integer
/// arithmetic — see `IntRecovery` in the formulas module), and — in
/// [`CodegenStyle::Chunked`] — the first-iteration guard plus
/// incrementation. When the program carries a
/// `collapse(c)` pragma with `c` smaller than the nest depth, `spec`
/// must describe the **prefix** nest
/// ([`NestSpec::prefix`](nrl_polyhedra::NestSpec::prefix)) and the
/// remaining loops are re-emitted verbatim inside the body (the paper's
/// `ltmp` configuration).
pub fn generate_c(
    prog: &ProgramAst,
    spec: &CollapseSpec,
    opts: &CodegenOptions,
) -> Result<String, FormulaError> {
    let formulas = build_formulas(spec, &opts.sample_params)?;
    let names = iter_names(spec);
    let all_names = spec.nest().space().names();
    let c = spec.nest().depth();
    assert_eq!(
        c,
        prog.collapse.unwrap_or(prog.loops.len()),
        "spec depth must match the program's collapse clause (pass the prefix nest)"
    );
    let needs_complex = formulas.iter().any(|f| f.needs_complex);
    let total = total_int(spec, all_names);
    let body = if prog.body.is_empty() {
        "/* body */;".to_string()
    } else {
        prog.body.clone()
    };
    let params_decl: Vec<String> = prog.params.iter().map(|p| format!("long {p}")).collect();
    let all_iters: Vec<String> = prog.loops.iter().map(|l| l.var.clone()).collect();
    let locals = all_iters.join(", ");
    let schedule = prog
        .schedule
        .clone()
        .unwrap_or_else(|| opts.schedule.clone());
    let _ = &names;

    let mut out = String::new();
    out.push_str("/* Generated by nrl-dsl: automatic collapsing of a non-rectangular loop nest\n");
    out.push_str(" * (Clauss, Altintas, Kuhn - IPDPS 2017). Do not edit by hand. */\n");
    out.push_str("#include <math.h>\n");
    if needs_complex {
        out.push_str("#include <complex.h>\n");
    }
    out.push_str(&format!(
        "\nvoid collapsed_nest({})\n{{\n",
        params_decl.join(", ")
    ));
    out.push_str(&format!("  long pc, {locals};\n"));
    let payload = if c < prog.loops.len() {
        inner_loops_c(prog, c, &body, "    ")
    } else {
        format!("    {{ {body} }}\n")
    };
    match opts.style {
        CodegenStyle::Naive => {
            out.push_str(&format!(
                "  #pragma omp parallel for private({locals}) schedule({schedule})\n"
            ));
            out.push_str(&format!("  for (pc = 1; pc <= {total}; pc++) {{\n"));
            out.push_str(&recovery_c(&formulas, all_names, "    "));
            out.push_str(&payload);
            out.push_str("  }\n");
        }
        CodegenStyle::Chunked => {
            out.push_str("  int first_iteration = 1;\n");
            out.push_str(&format!(
                "  #pragma omp parallel for private({locals}) firstprivate(first_iteration) schedule({schedule})\n"
            ));
            out.push_str(&format!("  for (pc = 1; pc <= {total}; pc++) {{\n"));
            out.push_str("    if (first_iteration) {\n");
            out.push_str(&recovery_c(&formulas, all_names, "      "));
            out.push_str("      first_iteration = 0;\n");
            out.push_str("    }\n");
            out.push_str(&payload);
            out.push_str(&incrementation_c(spec, "    "));
            out.push_str("  }\n");
        }
        CodegenStyle::ChunkedBy(chunk) => {
            // §V second listing: recovery fires at every chunk
            // boundary, so any schedule distributing whole chunks
            // (here static,CHUNK) stays correct.
            out.push_str(&format!(
                "  #pragma omp parallel for private({locals}) schedule(static, {chunk})\n"
            ));
            out.push_str(&format!("  for (pc = 1; pc <= {total}; pc++) {{\n"));
            out.push_str(&format!("    if ((pc - 1) % {chunk} == 0) {{\n"));
            out.push_str(&recovery_c(&formulas, all_names, "      "));
            out.push_str("    }\n");
            out.push_str(&payload);
            out.push_str(&incrementation_c(spec, "    "));
            out.push_str("  }\n");
        }
        CodegenStyle::Simd(vlength) => {
            let vlength = vlength.max(1);
            // §VI.A: fill thread-private tuple buffers by
            // incrementation, then a separate simd loop over the
            // buffered tuples.
            let buf_decls: Vec<String> =
                names.iter().map(|n| format!("T_{n}[{vlength}]")).collect();
            out.push_str("  int first_iteration = 1;\n");
            out.push_str(&format!("  long v, {};\n", buf_decls.join(", ")));
            out.push_str(&format!(
                "  #pragma omp parallel for private({locals}, v, {tbufs}) firstprivate(first_iteration) schedule({schedule})\n",
                tbufs = names
                    .iter()
                    .map(|n| format!("T_{n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            out.push_str(&format!(
                "  for (pc = 1; pc <= {total}; pc += {vlength}) {{\n"
            ));
            out.push_str("    if (first_iteration) {\n");
            out.push_str(&recovery_c(&formulas, all_names, "      "));
            out.push_str("      first_iteration = 0;\n");
            out.push_str("    }\n");
            out.push_str(&format!(
                "    long vend = pc + {vlength} - 1 <= {total} ? pc + {vlength} - 1 : ({total});\n"
            ));
            out.push_str("    for (v = pc; v <= vend; v++) {\n");
            for n in &names {
                out.push_str(&format!("      T_{n}[v - pc] = {n};\n"));
            }
            out.push_str(&incrementation_c(spec, "      "));
            out.push_str("    }\n");
            out.push_str("    /* vectorization */\n");
            out.push_str("    #pragma omp simd\n");
            out.push_str("    for (v = pc; v <= vend; v++) {\n");
            for n in &names {
                out.push_str(&format!("      long {n} = T_{n}[v - pc];\n"));
            }
            out.push_str(&payload);
            out.push_str("    }\n");
            out.push_str("  }\n");
        }
        CodegenStyle::GpuWarp(warp) => {
            let warp = warp.max(1);
            // §VI.B: lane t runs ranks t+1, t+1+W, …; recovery once per
            // lane, then W incrementations between iterations. Emitted
            // as the paper's portable simulation (the outer `thread`
            // loop maps to warp lanes on a real GPU).
            out.push_str("  long thread, inc;\n");
            out.push_str("  /* parallel threads in a warp */\n");
            out.push_str(&format!(
                "  #pragma omp parallel for private(pc, inc, {locals}) schedule(static)\n"
            ));
            out.push_str(&format!(
                "  for (thread = 0; thread < {warp}; thread++) {{\n"
            ));
            out.push_str(&format!(
                "    for (pc = thread + 1; pc <= {total}; pc += {warp}) {{\n"
            ));
            out.push_str("      if (pc == thread + 1) {\n");
            out.push_str(&recovery_c(&formulas, all_names, "        "));
            out.push_str("      }\n");
            out.push_str(&payload);
            out.push_str(&format!(
                "      for (inc = 0; inc < {warp} && pc + inc + 1 <= {total}; inc++) {{\n"
            ));
            out.push_str(&incrementation_c(spec, "        "));
            out.push_str("      }\n");
            out.push_str("    }\n");
            out.push_str("  }\n");
        }
    }
    out.push_str("}\n");
    Ok(out)
}

/// Generates a standalone Rust function executing the collapsed loop
/// sequentially with the closed-form recovery (useful as a reviewable
/// artifact; parallel execution should go through `nrl_core::exec`).
pub fn generate_rust(
    prog: &ProgramAst,
    spec: &CollapseSpec,
    opts: &CodegenOptions,
) -> Result<String, FormulaError> {
    let formulas = build_formulas(spec, &opts.sample_params)?;
    let names = iter_names(spec);
    // Each index is computed as an `i128` (the other variables are
    // `f64` locals holding integers, cast at each use), then shadowed
    // as an `f64` for the formulas of the deeper levels.
    let names_i128: Vec<String> = spec
        .nest()
        .space()
        .names()
        .iter()
        .map(|v| format!("({v} as i128)"))
        .collect();
    let total = total_int(spec, &names_i128);
    let params_decl: Vec<String> = prog.params.iter().map(|p| format!("{p}: f64")).collect();
    let mut out = String::new();
    out.push_str("// Generated by nrl-dsl. The body is invoked with the recovered indices.\n");
    out.push_str("use nrl_solver::Complex64;\n\n");
    out.push_str("#[inline]\nfn c(x: f64) -> Complex64 { Complex64::real(x) }\n\n");
    out.push_str(&format!(
        "pub fn collapsed_nest(mut body: impl FnMut({}), {})\n{{\n",
        names.iter().map(|_| "i64").collect::<Vec<_>>().join(", "),
        params_decl.join(", ")
    ));
    out.push_str(&format!("    let total = ({total}) as i64;\n"));
    out.push_str("    for pc in 1..=total {\n");
    out.push_str("        let pc = pc as f64;\n");
    for f in &formulas {
        let x = &f.var;
        if f.exact {
            out.push_str(&format!("        let mut {x}: i128;\n"));
        } else {
            out.push_str(&format!(
                "        let mut {x} = ({}) as i128;\n",
                f.expr.to_rust()
            ));
        }
        out.push_str(&int_recovery(
            f,
            &names_i128,
            "(pc as i128)",
            (&format!("{x} += 1"), &format!("{x} -= 1")),
            "        ",
        ));
        out.push_str(&format!("        let {x} = {x} as f64;\n"));
    }
    let args: Vec<String> = names.iter().map(|n| format!("{n} as i64")).collect();
    out.push_str(&format!("        body({});\n", args.join(", ")));
    out.push_str("    }\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const CORRELATION_SRC: &str = "params N;
        for (i = 0; i < N - 1; i++)
          for (j = i + 1; j < N; j++)
          { a[i][j] += b[k][i] * c[k][j]; }";

    fn correlation() -> (ProgramAst, CollapseSpec) {
        let prog = parse(CORRELATION_SRC).unwrap();
        let spec = CollapseSpec::new(&prog.to_nest().unwrap()).unwrap();
        (prog, spec)
    }

    #[test]
    fn naive_c_matches_figure3_shape() {
        let (prog, spec) = correlation();
        let opts = CodegenOptions {
            style: CodegenStyle::Naive,
            ..CodegenOptions::default()
        };
        let code = generate_c(&prog, &spec, &opts).unwrap();
        assert!(code.contains("#pragma omp parallel for private(i, j) schedule(static)"));
        assert!(code.contains("for (pc = 1; pc <="));
        assert!(code.contains("i = floor("));
        assert!(code.contains("sqrt("));
        assert!(code.contains("a[i][j] += b[k][i] * c[k][j];"));
        // The collapsed bound is (N² − N)/2 in some arrangement.
        assert!(code.contains("pc <= ("), "total bound inline: {code}");
    }

    #[test]
    fn chunked_c_matches_figure4_shape() {
        let (prog, spec) = correlation();
        let code = generate_c(&prog, &spec, &CodegenOptions::default()).unwrap();
        assert!(code.contains("int first_iteration = 1;"));
        assert!(code.contains("firstprivate(first_iteration)"));
        assert!(code.contains("if (first_iteration)"));
        assert!(code.contains("first_iteration = 0;"));
        // Incrementation: j++; if (j > N - 1) { i++; j = i + 1; }
        assert!(code.contains("j++;"));
        assert!(code.contains("if (j > N - 1)"));
        assert!(code.contains("j = i + 1;"));
    }

    #[test]
    fn figure6_c_uses_complex_functions() {
        let src = "params N;
            for (i = 0; i < N - 1; i++)
              for (j = 0; j < i + 1; j++)
                for (k = j; k < i + 1; k++)
                  { S(i, j, k); }";
        let prog = parse(src).unwrap();
        let spec = CollapseSpec::new(&prog.to_nest().unwrap()).unwrap();
        let opts = CodegenOptions {
            style: CodegenStyle::Naive,
            sample_params: vec![12],
            ..CodegenOptions::default()
        };
        let code = generate_c(&prog, &spec, &opts).unwrap();
        assert!(code.contains("#include <complex.h>"), "{code}");
        assert!(code.contains("creal("));
        assert!(code.contains("csqrt(") || code.contains("cpow("));
    }

    #[test]
    fn rust_codegen_emits_compilable_shape() {
        let (prog, spec) = correlation();
        let code = generate_rust(&prog, &spec, &CodegenOptions::default()).unwrap();
        assert!(code.contains("pub fn collapsed_nest"));
        assert!(code.contains("for pc in 1..=total"));
        assert!(code.contains("Complex64"));
        assert!(code.contains("body(i as i64, j as i64);"));
    }

    #[test]
    fn recovery_is_exact_in_integer_arithmetic() {
        let (prog, spec) = correlation();
        let code = generate_c(&prog, &spec, &CodegenOptions::default()).unwrap();
        // The collapsed bound (N² − N)/2 as an exact integer division.
        assert!(code.contains("pc <= (-N + N*N) / 2;"), "{code}");
        // The floored root is clamped into 0 ≤ i ≤ N − 2 and stepped
        // against 2·R_0(i) ≤ 2·pc < 2·R_0(i + 1).
        assert!(code.contains("if (i < 0) { i = 0; }"), "{code}");
        assert!(code.contains("if (i > -2 + N) { i = -2 + N; }"), "{code}");
        assert!(
            code.contains(
                "while (i < -2 + N && 2 - (i + 1) + 2*(i + 1)*N - (i + 1)*(i + 1) <= 2*pc) { i++; }"
            ),
            "{code}"
        );
        assert!(
            code.contains("while (i > 0 && 2 - i + 2*i*N - i*i > 2*pc) { i--; }"),
            "{code}"
        );
        // The innermost index is an exact offset from its lower bound.
        assert!(code.contains("j = 1 + i;"), "{code}");
        assert!(
            code.contains("j += (2*pc - (2*j - 3*i + 2*i*N - i*i)) / 2;"),
            "{code}"
        );
        let rust = generate_rust(&prog, &spec, &CodegenOptions::default()).unwrap();
        assert!(
            rust.contains("let total = ((-(N as i128) + (N as i128)*(N as i128)) / 2) as i64;"),
            "{rust}"
        );
        assert!(rust.contains("let mut i = ("), "{rust}");
        assert!(
            rust.contains("{ i += 1; }") && rust.contains("{ i -= 1; }"),
            "{rust}"
        );
        assert!(!rust.contains("(double)"), "C casts in Rust: {rust}");
    }

    #[test]
    fn chunked_by_matches_section5_second_listing() {
        let (prog, spec) = correlation();
        let opts = CodegenOptions {
            style: CodegenStyle::ChunkedBy(256),
            ..CodegenOptions::default()
        };
        let code = generate_c(&prog, &spec, &opts).unwrap();
        assert!(code.contains("schedule(static, 256)"), "{code}");
        assert!(code.contains("if ((pc - 1) % 256 == 0)"), "{code}");
        // Recovery inside the guard, incrementation after the body.
        assert!(code.contains("i = floor("));
        assert!(code.contains("j++;"));
        // No firstprivate flag in this scheme.
        assert!(!code.contains("first_iteration"));
    }

    #[test]
    fn simd_matches_section6a_listing() {
        let (prog, spec) = correlation();
        let opts = CodegenOptions {
            style: CodegenStyle::Simd(8),
            ..CodegenOptions::default()
        };
        let code = generate_c(&prog, &spec, &opts).unwrap();
        // pc advances by vlength; tuples buffered per iterator.
        assert!(code.contains("pc += 8"), "{code}");
        assert!(code.contains("T_i[8]") && code.contains("T_j[8]"), "{code}");
        assert!(code.contains("T_i[v - pc] = i;"), "{code}");
        assert!(code.contains("#pragma omp simd"), "{code}");
        assert!(code.contains("long i = T_i[v - pc];"), "{code}");
        // Recovery still fires once per thread.
        assert!(code.contains("if (first_iteration)"));
        // The tail batch is clamped to the total.
        assert!(code.contains("vend"), "{code}");
    }

    #[test]
    fn gpu_warp_matches_section6b_listing() {
        let (prog, spec) = correlation();
        let opts = CodegenOptions {
            style: CodegenStyle::GpuWarp(32),
            ..CodegenOptions::default()
        };
        let code = generate_c(&prog, &spec, &opts).unwrap();
        assert!(code.contains("/* parallel threads in a warp */"), "{code}");
        assert!(code.contains("for (thread = 0; thread < 32; thread++)"));
        assert!(code.contains("for (pc = thread + 1; pc <="));
        assert!(code.contains("pc += 32"), "{code}");
        assert!(
            code.contains("if (pc == thread + 1)"),
            "lane recovery: {code}"
        );
        // W incrementations between a lane's iterations.
        assert!(code.contains("for (inc = 0; inc < 32"), "{code}");
    }

    #[test]
    fn simd_vlength_zero_is_clamped() {
        let (prog, spec) = correlation();
        let opts = CodegenOptions {
            style: CodegenStyle::Simd(0),
            ..CodegenOptions::default()
        };
        let code = generate_c(&prog, &spec, &opts).unwrap();
        assert!(
            code.contains("pc += 1"),
            "vlength 0 must clamp to 1: {code}"
        );
    }

    #[test]
    fn schedule_clause_is_configurable() {
        let (prog, spec) = correlation();
        let opts = CodegenOptions {
            schedule: "static,256".to_string(),
            ..CodegenOptions::default()
        };
        let code = generate_c(&prog, &spec, &opts).unwrap();
        assert!(code.contains("schedule(static,256)"));
    }
}
