#![warn(missing_docs)]
//! Source-to-source collapsing: the paper's "software tool".
//!
//! The authors' tool takes C sources whose non-rectangular nests carry
//! an OpenMP `collapse` clause and rewrites them into collapsed loops
//! with index-recovery code (their Figs. 3, 4 and 7). This crate
//! reproduces that pipeline for a C-like loop-nest language:
//!
//! 1. [`parse`] — lexer + recursive-descent parser for
//!    `params N; for (i = 0; i < N − 1; i++) … { body }` sources,
//!    producing a validated [`NestSpec`](nrl_polyhedra::NestSpec) and
//!    the body text;
//! 2. [`sym`] — a symbolic expression tree ([`SymExpr`]) with complex
//!    evaluation and C/Rust printers (`csqrt`/`cpow`/`creal` in C, our
//!    `Complex64` in Rust);
//! 3. [`formulas`] — closed-form root expressions per level (degrees
//!    1–3 symbolic, mirroring the quadratic/Cardano forms the paper
//!    prints; degree-4 nests fall back to emitting a runtime solver
//!    call), with the convenient branch selected numerically the same
//!    way the paper selects it with Maxima (`⌊x(1)⌋` = first index);
//! 4. [`codegen`] — emission of the collapsed C (Fig. 3 naive / Fig. 4
//!    chunked style, with OpenMP pragmas) and Rust sources. Each
//!    floored root is followed by an exact integer correction against
//!    the level's rank polynomial, and the innermost index and the
//!    iteration count are exact integer expressions, so floating-point
//!    error in the formulas never reaches the recovered indices.

pub mod ast;
pub mod codegen;
pub mod formulas;
pub mod parser;
pub mod sym;
pub mod token;
pub mod tool;

pub use ast::{LoopAst, ProgramAst};
pub use codegen::{generate_c, generate_rust, CodegenOptions, CodegenStyle};
pub use formulas::{build_formulas, FormulaError, LevelFormula};
pub use parser::{parse, ParseError};
pub use sym::SymExpr;
pub use tool::{collapse_source, ToolError};
