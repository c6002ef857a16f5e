//! `compile`: one thread, cold pipeline. Each unit is five DSL sources
//! (one of the paper's shapes, two generated 2-deep and one generated
//! 3-deep affine nests, and one input that must fail with a specific
//! typed error), each taken through `parse → to_nest →
//! ParamPlan::analyze → instantiate → generate_c`. `analyze` is called
//! directly: `collapse_source` would resolve through the global plan
//! cache and turn the pipeline warm.

use crate::pace::Pace;
use crate::shapes::{self, Aff, Nest};
use crate::trace::{SpanBuf, Trace};
use crate::util::{
    geomean, median, micros, quantile, report_failure, windows, Metrics, Rng, WindowLog, Windowed,
    WINDOW_S,
};
use crate::{Phase, Workload};
use nrl_core::{BindError, CollapseError, Collapsed, ParamPlan};
use nrl_dsl::ast::{AffineError, LowerError};
use nrl_dsl::{generate_c, CodegenOptions, CodegenStyle, FormulaError, ParseError};
use std::time::{Duration, Instant};

/// Units generated per run; the stream is replayed in a loop.
const STREAM_UNITS: usize = 1024;
/// Units compiled (and checked) during set-up.
const WARMUP_UNITS: usize = 50;
/// A pace sample (see `crate::pace`) is taken after every
/// `PACE_EVERY`-th unit.
const PACE_EVERY: usize = 4;
/// Ranks sampled per accepted source for the rank/unrank round trip.
const SAMPLED_RANKS: usize = 5;

const PAPER: [&str; 4] = ["correlation", "upper", "figure6", "band"];

/// The typed error a rejected source must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Accept,
    /// 4-deep nest: `FormulaError::DegreeTooHigh { level: 0, degree: 4 }`.
    Quartic,
    /// Truncated loop header: `ParseError::Unexpected`.
    Truncated,
    /// Loop header mixing iterators: `ParseError::InconsistentIterator`.
    MixedIterators,
    /// Product of iterators in a bound: `LowerError::Bound { level: 1, NonAffine }`.
    NonAffine,
    /// Undeclared parameter: `LowerError::Bound { level: 1, UnknownVar }`.
    UnknownVar,
    /// Empty trailing rows: `BindError::NegativeTripCount { level: 1 }`.
    NegativeTrip,
}

const REJECTS: [Expect; 6] = [
    Expect::Quartic,
    Expect::Truncated,
    Expect::MixedIterators,
    Expect::NonAffine,
    Expect::UnknownVar,
    Expect::NegativeTrip,
];

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Source {
    pub text: String,
    pub params: Vec<i64>,
    pub expect: Expect,
    /// The benchmark's own description of an accepted nest.
    pub nest: Option<Nest>,
    /// Index into [`PAPER`] for the paper's shapes.
    pub paper: Option<usize>,
}

fn accepted(nest: Nest, params: Vec<i64>, paper: Option<usize>) -> Source {
    Source {
        text: nest.source(),
        params,
        expect: Expect::Accept,
        nest: Some(nest),
        paper,
    }
}

fn paper_source(rng: &mut Rng, k: usize) -> Source {
    let (nest, params) = match PAPER[k] {
        "correlation" => (shapes::correlation(), vec![rng.range(8, 20)]),
        "upper" => (shapes::upper(), vec![rng.range(8, 20)]),
        "figure6" => (shapes::figure6(), vec![rng.range(6, 12)]),
        _ => (shapes::band(), vec![rng.range(2, 6), rng.range(4, 12)]),
    };
    accepted(nest, params, Some(k))
}

fn rejected(rng: &mut Rng, expect: Expect) -> Source {
    let n = rng.range(6, 12);
    let c = rng.range(1, 3);
    let text = match expect {
        Expect::Quartic => {
            let up = Aff::iter(0, 1, 1);
            let quartic = Nest {
                name: "quartic",
                params: &["N"],
                loops: vec![(Aff::c(0), Aff::param(0, 1, 0)), (Aff::c(0), up), (Aff::c(0), up), (Aff::c(0), up)],
            };
            quartic.source()
        }
        Expect::Truncated => format!("params N;\nfor (i = 0; i < N; i++\n  for (j = 0; j < i + {c}; j++)\n    {{ body; }}\n"),
        Expect::MixedIterators => format!("params N;\nfor (i = 0; j < N; i++)\n  for (j = 0; j < i + {c}; j++)\n    {{ body; }}\n"),
        Expect::NonAffine => format!("params N;\nfor (i = 0; i < N; i++)\n  for (j = 0; j < i * i + {c}; j++)\n    {{ body; }}\n"),
        Expect::UnknownVar => format!("params N;\nfor (i = 0; i < N; i++)\n  for (j = 0; j < M + {c}; j++)\n    {{ body; }}\n"),
        Expect::NegativeTrip => format!("params N;\nfor (i = 0; i < N; i++)\n  for (j = i + {}; j < N; j++)\n    {{ body; }}\n", c + 1),
        Expect::Accept => unreachable!("not a rejection"),
    };
    Source {
        text,
        params: vec![n],
        expect,
        nest: None,
        paper: None,
    }
}

/// The seeded source stream: `STREAM_UNITS` units of five sources.
pub fn units(seed: u64) -> Vec<Vec<Source>> {
    let mut rng = Rng::derive(seed, 0xC0);
    (0..STREAM_UNITS)
        .map(|u| {
            let mut unit = vec![paper_source(&mut rng, u % PAPER.len())];
            for depth in [2, 2, 3] {
                let (nest, params) = shapes::generated(&mut rng, depth);
                unit.push(accepted(nest, params, None));
            }
            unit.push(rejected(&mut rng, REJECTS[u % REJECTS.len()]));
            unit
        })
        .collect()
}

/// Where the pipeline stopped.
#[derive(Debug)]
enum Failure {
    Parse(ParseError),
    Lower(LowerError),
    Analyze(CollapseError),
    Bind(BindError),
    Codegen(FormulaError),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Parse(e) => write!(f, "parse: {e}"),
            Failure::Lower(e) => write!(f, "lower: {e}"),
            Failure::Analyze(e) => write!(f, "analyze: {e}"),
            Failure::Bind(e) => write!(f, "instantiate: {e}"),
            Failure::Codegen(e) => write!(f, "codegen: {e}"),
        }
    }
}

/// Runs one source through the pipeline, each stage in its span.
fn pipeline(src: &Source, spans: &mut SpanBuf, op: u64) -> Result<(Collapsed, String), Failure> {
    let opts = CodegenOptions {
        style: CodegenStyle::Chunked,
        schedule: "static".to_string(),
        sample_params: src.params.clone(),
    };
    let prog = spans
        .scope("dsl.parse", op, || nrl_dsl::parse(&src.text))
        .map_err(Failure::Parse)?;
    let nest = spans
        .scope("polyhedra.lower", op, || prog.to_nest())
        .map_err(Failure::Lower)?;
    let plan = spans
        .scope("core.analyze", op, || ParamPlan::analyze(&nest))
        .map_err(Failure::Analyze)?;
    let collapsed = spans
        .scope("core.instantiate", op, || plan.instantiate(&src.params))
        .map_err(Failure::Bind)?;
    let code = spans
        .scope("dsl.codegen", op, || generate_c(&prog, plan.spec(), &opts))
        .map_err(Failure::Codegen)?;
    Ok((collapsed, code))
}

fn rejected_as_expected(expect: Expect, f: &Failure) -> bool {
    match (expect, f) {
        (
            Expect::Quartic,
            Failure::Codegen(FormulaError::DegreeTooHigh {
                level: 0,
                degree: 4,
            }),
        ) => true,
        (Expect::Truncated, Failure::Parse(ParseError::Unexpected { .. })) => true,
        (Expect::MixedIterators, Failure::Parse(ParseError::InconsistentIterator { .. })) => true,
        (
            Expect::NonAffine,
            Failure::Lower(LowerError::Bound {
                level: 1,
                cause: AffineError::NonAffine,
            }),
        ) => true,
        (
            Expect::UnknownVar,
            Failure::Lower(LowerError::Bound {
                level: 1,
                cause: AffineError::UnknownVar(v),
            }),
        ) => v == "M",
        (Expect::NegativeTrip, Failure::Bind(BindError::NegativeTripCount { level: 1, .. })) => {
            true
        }
        _ => false,
    }
}

/// Checks an accepted source against brute-force enumeration: the
/// total, and a rank/unrank round trip at sampled ranks.
fn check_accepted(src: &Source, c: &Collapsed, code: &str, corrupt: bool) -> bool {
    let nest = src
        .nest
        .as_ref()
        .expect("accepted sources carry their nest");
    let mut points: Vec<Vec<i64>> = Vec::new();
    nest.for_each(&src.params, |p| points.push(p.to_vec()));
    let total = points.len() as i128 + corrupt as i128;
    if c.total() != total || !code.contains("#pragma omp") {
        return false;
    }
    let mut rng = Rng::new(total as u64);
    let mut point = vec![0i64; nest.depth()];
    (0..SAMPLED_RANKS).all(|s| {
        let r = match s {
            0 => 1,
            1 => total,
            _ => rng.range(1, total as i64) as i128,
        };
        c.unrank_into(r, &mut point);
        point == points[r as usize - 1] && c.rank(&point) == r
    })
}

pub struct Compile {
    units: Vec<Vec<Source>>,
    corrupt: bool,
}

/// Which latency class an accepted source's time counts in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Generated 2-deep nests.
    Small,
    /// Generated 3-deep nests.
    Large,
    /// The paper's shape with this index into [`PAPER`].
    Paper(usize),
}

/// One compiled unit.
struct Unit {
    us: f64,
    points: u64,
    sources: Vec<(Class, f64)>,
}

struct Log {
    units: WindowLog<'static, Unit>,
    attempted: u64,
    failed: u64,
    rejected_ok: u64,
}

impl Log {
    /// The log of a phase; its end-to-end metrics are computed per
    /// window (see [`Windowed`]).
    fn new() -> Log {
        let units = WindowLog::new(Compile::PACE_EXPONENT, |w: &[Unit], m: &mut Windowed| {
            let busy_s = w.iter().map(|u| u.us).sum::<f64>() / 1e6;
            let of = |c: Class| -> Vec<f64> {
                w.iter()
                    .flat_map(|u| &u.sources)
                    .filter(|s| s.0 == c)
                    .map(|s| s.1)
                    .collect()
            };
            let unit_us: Vec<f64> = w.iter().map(|u| u.us).collect();
            m.push("ops_per_s", w.len() as f64 / busy_s, "1/s");
            m.push("op_p50_us", median(&unit_us), "us");
            m.push(
                "points_per_s",
                w.iter().map(|u| u.points).sum::<u64>() as f64 / busy_s,
                "1/s",
            );
            m.push("small_p50_us", median(&of(Class::Small)), "us");
            m.push("small_p90_us", quantile(&of(Class::Small), 0.9), "us");
            m.push("large_p50_us", median(&of(Class::Large)), "us");
            let paper: Vec<f64> = (0..PAPER.len())
                .map(|k| median(&of(Class::Paper(k))) / 1e3)
                .collect();
            m.push("kernel_geomean_ms", geomean(&paper), "ms");
        });
        Log {
            units,
            attempted: 0,
            failed: 0,
            rejected_ok: 0,
        }
    }
}

impl Compile {
    fn unit(&self, u: usize, spans: &mut SpanBuf, log: &mut Log) {
        let unit = &self.units[u % self.units.len()];
        let span = spans.begin("compile.unit", u as u64);
        let mut unit_us = 0.0;
        let mut results = Vec::with_capacity(unit.len());
        for src in unit {
            let t0 = Instant::now();
            let r = pipeline(src, spans, u as u64);
            let us = micros(t0);
            unit_us += us;
            results.push((r, us));
        }
        spans.end(span);
        let mut done = Unit {
            us: unit_us,
            points: 0,
            sources: Vec::with_capacity(unit.len()),
        };
        let mut ok = true;
        for (src, (r, us)) in unit.iter().zip(results) {
            match (src.expect, r) {
                (Expect::Accept, Ok((c, code))) => {
                    if !check_accepted(src, &c, &code, self.corrupt) {
                        report_failure(|| {
                            format!("compile: wrong total, ranks or code for\n{}", src.text)
                        });
                        ok = false;
                    }
                    done.points += c.total() as u64;
                    let class = match src.paper {
                        Some(k) => Class::Paper(k),
                        None if c.depth() == 2 => Class::Small,
                        None => Class::Large,
                    };
                    done.sources.push((class, us));
                }
                (expect, Ok(_)) => {
                    report_failure(|| {
                        format!("compile: expected {expect:?}, accepted:\n{}", src.text)
                    });
                    ok = false;
                }
                (expect, Err(f)) => {
                    let good = rejected_as_expected(expect, &f);
                    if !good {
                        report_failure(|| {
                            format!("compile: expected {expect:?}, got {f}:\n{}", src.text)
                        });
                    }
                    log.rejected_ok += good as u64;
                    ok &= good;
                }
            }
        }
        log.attempted += 1;
        log.failed += !ok as u64;
        log.units.push(done);
    }
}

impl Workload for Compile {
    const NAME: &'static str = "compile";
    const PACE_EXPONENT: f64 = 0.9;
    const PRIMARY: &'static str = "ops_per_s";

    fn setup(seed: u64, corrupt: bool) -> Compile {
        let c = Compile {
            units: units(seed),
            corrupt,
        };
        let mut spans = SpanBuf::new(false, 0);
        let mut log = Log::new();
        for u in 0..WARMUP_UNITS {
            c.unit(u, &mut spans, &mut log);
        }
        c
    }

    fn threads(&self) -> String {
        "\"pool\": 0, \"workers\": 0, \"clients\": 1".to_string()
    }

    fn measure(&mut self, seconds: f64, traced: bool) -> Phase {
        let mut spans = SpanBuf::new(traced, 0);
        let mut log = Log::new();
        let mut pace = Pace::default();
        let mut u = 0;
        for _ in 0..windows(seconds) {
            let end = Instant::now() + Duration::from_secs_f64(WINDOW_S);
            while Instant::now() < end {
                self.unit(u, &mut spans, &mut log);
                if u.is_multiple_of(PACE_EVERY) {
                    pace.sample();
                }
                u += 1;
            }
            log.units.close(pace.take());
        }
        let mut trace = Trace::default();
        trace.absorb(spans);
        let (attempted, failed, rejected_ok) = (log.attempted, log.failed, log.rejected_ok);
        let m = log.units.finish();
        let mut layers = Metrics::default();
        if traced {
            for (metric, span) in [
                ("dsl.parse_us", "dsl.parse"),
                ("polyhedra.lower_us", "polyhedra.lower"),
                ("core.analyze_us", "core.analyze"),
                ("core.instantiate_us", "core.instantiate"),
                ("dsl.codegen_us", "dsl.codegen"),
            ] {
                layers.set(metric, trace.median_us(span), "us");
            }
            layers.set("compile.rejected_ok", rejected_ok as f64, "count");
        }
        Phase {
            attempted,
            failed,
            metrics: m,
            layers,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_stream_follows_the_seed() {
        assert_eq!(units(4), units(4));
        assert_ne!(units(4), units(5));
    }

    #[test]
    fn every_unit_compiles_and_checks() {
        for seed in [1, 2] {
            let c = Compile {
                units: units(seed),
                corrupt: false,
            };
            let mut spans = SpanBuf::new(false, 0);
            let mut log = Log::new();
            for u in 0..c.units.len() {
                c.unit(u, &mut spans, &mut log);
            }
            assert_eq!(log.failed, 0, "seed {seed}");
            assert_eq!(log.rejected_ok, c.units.len() as u64);
        }
    }

    /// A defect of the library this benchmark found: the wedge
    /// `i ≤ j < N, 0 ≤ k ≤ j − i` is a valid nest that analyzes and
    /// instantiates, but `generate_c` fails with `NoValidBranch` at
    /// level 0 when the sample parameter is N = 10. Un-ignore once fixed.
    #[test]
    #[ignore = "generate_c reports NoValidBranch { level: 0 } on a valid wedge nest"]
    fn wedge_codegen_defect() {
        let hi = Aff::iter(1, 1, 1).plus_iter(0, -1);
        let wedge = Nest {
            name: "wedge",
            params: &["N"],
            loops: vec![
                (Aff::c(0), Aff::param(0, 1, 0)),
                (Aff::iter(0, 1, 0), Aff::param(0, 1, 0)),
                (Aff::c(0), hi),
            ],
        };
        for n in 4..16 {
            let src = accepted(wedge.clone(), vec![n], None);
            let mut spans = SpanBuf::new(false, 0);
            let r = pipeline(&src, &mut spans, 0);
            assert!(
                r.is_ok(),
                "N = {n}: {}",
                r.err().map(|f| f.to_string()).unwrap_or_default()
            );
        }
    }
}
