//! `kernels`: the paper's §VII measure. One caller thread drives one
//! `ThreadPool` through a fixed sequence of the paper's programs via
//! `Collapsed::runner`; every run is checked bit-for-bit against a
//! plain nested loop owned by this file.

use crate::pace::Pace;
use crate::shapes::{self, Nest};
use crate::trace::{SpanBuf, Trace};
use crate::util::{
    geomean, median, micros, nproc, quantile, report_failure, windows, Metrics, Padded, Rng,
    WindowLog, Windowed, WINDOW_S,
};
use crate::{Phase, Workload};
use nrl_core::{reducer, Collapsed, ParamPlan, Schedule, ThreadPool};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pace samples each pool thread takes after each pass (see
/// `crate::pace`).
const PACE_PER_PASS: usize = 3;
/// Sizes (see README.md): each large program runs ≥ 80k points, the
/// small one ~2.3k, so one pass takes tens of milliseconds.
const CORR_N: usize = 400;
const CORR_M: usize = 400;
const TRMM_N: usize = 400;
const UTMA_N: usize = 1000;
const FIG6_N: i64 = 160;
const FIG6_SMALL_N: i64 = 24;
const BAND_W: usize = 500_000;
const SMALL_MAX_POINTS: u64 = 10_000;
/// Timed small-program runs per pass: enough samples for a p90 with
/// ten runs beyond it in every second of a run. Each pass runs the
/// small program once more first, checked but not timed: the first
/// small run after the large programs wakes the pool and refills the
/// caches, took about 1.5× as long as the rest and, one run in eleven,
/// put the p90 on the edge between the two populations.
const SMALL_PER_PASS: usize = 10;
/// `Dynamic` grain of the irregular-row program (trmm).
const TRMM_GRAIN: u64 = 256;

enum Body {
    /// O(M) dot product per point.
    Correlation { m: usize, data: Vec<f64> },
    /// O(N − i) irregular rows; `u2t` is `u2` transposed.
    Trmm { u1: Vec<f64>, u2t: Vec<f64> },
    /// O(1) memory-bound add.
    Utma { a: Vec<f64>, b: Vec<f64> },
    /// O(1) integer reduction over the tetrahedron.
    Figure6 { coef: [u64; 3] },
    /// O(1) short-fat band: `c = alpha·a + b`.
    Banded {
        alpha: f64,
        a: Vec<f64>,
        b: Vec<f64>,
    },
}

pub struct Program {
    pub name: &'static str,
    run_span: &'static str,
    collapsed: Collapsed,
    body: Body,
    /// Output row stride (`N` of the written matrix).
    cols: usize,
    out: Vec<AtomicU64>,
    /// Bit patterns of the plain-loop output (or the reduction value).
    reference: Vec<u64>,
}

fn analyze(nest: &Nest, params: &[i64]) -> Collapsed {
    let prog = nrl_dsl::parse(&nest.source()).expect("kernel source parses");
    let nest = prog.to_nest().expect("kernel source lowers");
    let plan = ParamPlan::analyze(&nest).expect("kernel nest analyzes");
    plan.instantiate(params)
        .expect("kernel parameters are valid")
}

fn random_vec(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.unit_f64()).collect()
}

fn fig6_value(coef: [u64; 3], p: &[i64]) -> u64 {
    coef[0] * p[0] as u64 + coef[1] * p[1] as u64 + coef[2] * p[2] as u64 + 1
}

impl Program {
    fn new(
        name: &'static str,
        run_span: &'static str,
        nest: Nest,
        params: &[i64],
        body: Body,
        cols: usize,
        cells: usize,
    ) -> Program {
        let mut p = Program {
            name,
            run_span,
            collapsed: analyze(&nest, params),
            body,
            cols,
            out: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            reference: Vec::new(),
        };
        p.reference = p.plain_loop();
        p
    }

    pub fn points(&self) -> u64 {
        self.collapsed.total() as u64
    }

    /// Small programs (≤ [`SMALL_MAX_POINTS`]) are where dispatch and
    /// anchor recovery dominate; they are run [`SMALL_PER_PASS`] times
    /// per pass and make the `small_*` metrics.
    fn small(&self) -> bool {
        self.points() <= SMALL_MAX_POINTS
    }

    /// The value one point writes (matrix programs).
    #[inline(always)]
    fn cell(&self, i: usize, j: usize) -> f64 {
        match &self.body {
            Body::Correlation { m, data } => {
                let (x, y) = (&data[i * m..(i + 1) * m], &data[j * m..(j + 1) * m]);
                let mut acc = 0.0f64;
                for k in 0..*m {
                    acc += x[k] * y[k];
                }
                acc
            }
            Body::Trmm { u1, u2t } => {
                let n = self.cols;
                let mut acc = 0.0f64;
                for k in i..=j {
                    acc += u1[i * n + k] * u2t[j * n + k];
                }
                acc
            }
            Body::Utma { a, b } => a[i * self.cols + j] + b[i * self.cols + j],
            Body::Banded { alpha, a, b } => {
                let d = j - i;
                alpha * a[i * self.cols + d] + b[i * self.cols + d]
            }
            Body::Figure6 { .. } => unreachable!("figure6 is a reduction"),
        }
    }

    fn slot(&self, i: usize, j: usize) -> usize {
        match self.body {
            Body::Banded { .. } => i * self.cols + (j - i),
            _ => i * self.cols + j,
        }
    }

    /// The reference: the literal sequential nest, independent of the
    /// collapsed executors (bounds written out by hand).
    fn plain_loop(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.out.len()];
        let n = self.cols;
        match &self.body {
            Body::Correlation { .. } => {
                for i in 0..n - 1 {
                    for j in i + 1..n {
                        out[self.slot(i, j)] = self.cell(i, j).to_bits();
                    }
                }
            }
            Body::Trmm { .. } | Body::Utma { .. } => {
                for i in 0..n {
                    for j in i..n {
                        out[self.slot(i, j)] = self.cell(i, j).to_bits();
                    }
                }
            }
            Body::Banded { .. } => {
                let rows = self.out.len() / n;
                for i in 0..rows {
                    for j in i..i + n {
                        out[self.slot(i, j)] = self.cell(i, j).to_bits();
                    }
                }
            }
            Body::Figure6 { coef } => {
                let big_n = self.cols as i64;
                let mut sum = 0u64;
                for i in 0..big_n - 1 {
                    for j in 0..=i {
                        for k in j..=i {
                            sum = sum.wrapping_add(fig6_value(*coef, &[i, j, k]));
                        }
                    }
                }
                return vec![sum];
            }
        }
        out
    }

    /// One timed collapsed run; returns the result to check.
    fn run(&self, pool: &ThreadPool) -> Vec<u64> {
        let runner = self.collapsed.runner(pool);
        let write = |_tid: usize, p: &[i64]| {
            let (i, j) = (p[0] as usize, p[1] as usize);
            self.out[self.slot(i, j)].store(self.cell(i, j).to_bits(), Ordering::Relaxed);
        };
        match &self.body {
            Body::Correlation { .. } => {
                runner.run(write);
            }
            Body::Trmm { .. } => {
                runner.schedule(Schedule::Dynamic(TRMM_GRAIN)).run(write);
            }
            Body::Utma { .. } | Body::Banded { .. } => {
                runner.auto().run(write);
            }
            Body::Figure6 { coef } => {
                let coef = *coef;
                let sum = reducer(
                    || 0u64,
                    move |_t, p: &[i64], acc: &mut u64| {
                        *acc = acc.wrapping_add(fig6_value(coef, p))
                    },
                    |a: u64, b: u64| a.wrapping_add(b),
                );
                return vec![runner.reduce(&sum).value];
            }
        }
        Vec::new()
    }

    fn reset(&self) {
        for c in &self.out {
            c.store(0, Ordering::Relaxed);
        }
    }

    fn check(&self, reduced: &[u64]) -> bool {
        match self.body {
            Body::Figure6 { .. } => reduced == self.reference.as_slice(),
            _ => self
                .out
                .iter()
                .zip(&self.reference)
                .all(|(c, r)| c.load(Ordering::Relaxed) == *r),
        }
    }

    fn corrupt_reference(&mut self) {
        let mid = self.reference.len() / 2;
        self.reference[mid] ^= 1;
    }
}

pub struct Kernels {
    pool: ThreadPool,
    programs: Vec<Program>,
}

fn upper_tri(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut m = random_vec(rng, n * n);
    for i in 0..n {
        for j in 0..i {
            m[i * n + j] = 0.0;
        }
    }
    m
}

/// The pool size: the machine's threads, at most two (the steadiness
/// measurements behind the benchmark were taken at two).
pub fn pool_threads() -> usize {
    nproc().min(2)
}

impl Workload for Kernels {
    const NAME: &'static str = "kernels";
    const PACE_EXPONENT: f64 = 0.8;
    const PRIMARY: &'static str = "points_per_s";

    fn setup(seed: u64, corrupt: bool) -> Kernels {
        let pool = ThreadPool::new(pool_threads());
        let mut rng = Rng::derive(seed, 0x6B65);
        let coef = [
            rng.range(1, 9) as u64,
            rng.range(1, 9) as u64,
            rng.range(1, 9) as u64,
        ];
        // Fewer band rows than threads: the outer loop alone cannot
        // occupy the pool.
        let rows = pool.nthreads().saturating_sub(1).max(1);
        let programs = vec![
            Program::new(
                "correlation",
                "kernels.correlation.run",
                shapes::correlation(),
                &[CORR_N as i64],
                Body::Correlation {
                    m: CORR_M,
                    data: random_vec(&mut rng, CORR_N * CORR_M),
                },
                CORR_N,
                CORR_N * CORR_N,
            ),
            Program::new(
                "trmm",
                "kernels.trmm.run",
                shapes::upper(),
                &[TRMM_N as i64],
                Body::Trmm {
                    u1: upper_tri(&mut rng, TRMM_N),
                    u2t: random_vec(&mut rng, TRMM_N * TRMM_N),
                },
                TRMM_N,
                TRMM_N * TRMM_N,
            ),
            Program::new(
                "utma",
                "kernels.utma.run",
                shapes::upper(),
                &[UTMA_N as i64],
                Body::Utma {
                    a: random_vec(&mut rng, UTMA_N * UTMA_N),
                    b: random_vec(&mut rng, UTMA_N * UTMA_N),
                },
                UTMA_N,
                UTMA_N * UTMA_N,
            ),
            Program::new(
                "figure6",
                "kernels.figure6.run",
                shapes::figure6(),
                &[FIG6_N],
                Body::Figure6 { coef },
                FIG6_N as usize,
                0,
            ),
            Program::new(
                "banded",
                "kernels.banded.run",
                shapes::band(),
                &[rows as i64, BAND_W as i64 + 1],
                Body::Banded {
                    alpha: 1.0 + rng.unit_f64().abs(),
                    a: random_vec(&mut rng, rows * (BAND_W + 1)),
                    b: random_vec(&mut rng, rows * (BAND_W + 1)),
                },
                BAND_W + 1,
                rows * (BAND_W + 1),
            ),
            Program::new(
                "figure6_small",
                "kernels.figure6_small.run",
                shapes::figure6(),
                &[FIG6_SMALL_N],
                Body::Figure6 { coef },
                FIG6_SMALL_N as usize,
                0,
            ),
        ];
        let mut k = Kernels { pool, programs };
        if corrupt {
            k.programs[0].corrupt_reference();
        }
        // Warm-up: one checked pass (first-touch of every output page,
        // code and branch caches).
        k.pass(&mut SpanBuf::new(false, 0), &mut k.times(), 0);
        k
    }

    fn threads(&self) -> String {
        format!(
            "\"pool\": {}, \"workers\": 0, \"clients\": 1",
            self.pool.nthreads()
        )
    }

    fn measure(&mut self, seconds: f64, traced: bool) -> Phase {
        let mut spans = SpanBuf::new(traced, 0);
        let mut times = self.times();
        // One pace per pool thread: the programs run on every CPU the
        // pool does, so every one of them is sampled.
        let paces: Vec<Mutex<Pace>> = (0..self.pool.nthreads())
            .map(|_| Mutex::new(Pace::default()))
            .collect();
        let mut pass = 0u64;
        for _ in 0..windows(seconds) {
            let end = Instant::now() + Duration::from_secs_f64(WINDOW_S);
            while Instant::now() < end {
                pass += 1;
                self.pass(&mut spans, &mut times, pass);
                self.pool.run(&|tid| {
                    let mut p = paces[tid].lock().expect("pace lock");
                    (0..PACE_PER_PASS).for_each(|_| p.sample());
                });
            }
            let mut pace = Pace::default();
            for p in &paces {
                pace.absorb(&mut p.lock().expect("pace lock"));
            }
            let pace = pace.take();
            times.runs.close(pace);
            times.passes.close(pace);
        }
        let mut trace = Trace::default();
        trace.absorb(spans);
        let (attempted, failed) = (times.attempted, times.failed);
        let mut metrics = times.runs.finish();
        metrics.extend(times.passes.finish());
        let layers = if traced {
            self.layers(&trace)
        } else {
            Metrics::default()
        };
        Phase {
            attempted,
            failed,
            metrics,
            layers,
            trace,
        }
    }
}

/// One timed kernel run.
struct Run {
    program: usize,
    us: f64,
}

/// A phase's timed runs and passes, reduced window by window.
struct PassTimes<'a> {
    runs: WindowLog<'a, Run>,
    /// Per pass: the summed run time of the pass (µs).
    passes: WindowLog<'a, f64>,
    attempted: u64,
    failed: u64,
}

impl Kernels {
    /// One pass over the fixed program sequence; every run is checked.
    fn pass(&self, spans: &mut SpanBuf, t: &mut PassTimes<'_>, pass: u64) {
        let mut pass_us = 0.0;
        for (k, p) in self.programs.iter().enumerate() {
            let reps = if p.small() { SMALL_PER_PASS + 1 } else { 1 };
            for rep in 0..reps {
                p.reset();
                let span = spans.begin(p.run_span, pass);
                let t0 = Instant::now();
                let reduced = p.run(&self.pool);
                let us = micros(t0);
                spans.end(span);
                t.attempted += 1;
                if !p.check(&reduced) {
                    report_failure(|| format!("kernels: {} differs from its plain loop", p.name));
                    t.failed += 1;
                }
                if !(p.small() && rep == 0) {
                    t.runs.push(Run { program: k, us });
                }
                pass_us += us;
            }
        }
        t.passes.push(pass_us);
    }

    /// The recorder of a phase; its end-to-end metrics are computed
    /// per window (see [`Windowed`]).
    fn times(&self) -> PassTimes<'_> {
        let small = self
            .programs
            .iter()
            .position(|p| p.small())
            .expect("a small program");
        let fig6 = self
            .programs
            .iter()
            .position(|p| p.name == "figure6")
            .expect("figure6");
        let runs = WindowLog::new(Self::PACE_EXPONENT, move |win: &[Run], w: &mut Windowed| {
            let of = |k: usize| -> Vec<f64> {
                win.iter()
                    .filter(|r| r.program == k)
                    .map(|r| r.us)
                    .collect()
            };
            let busy: f64 = win.iter().map(|r| r.us).sum();
            let points: u64 = win.iter().map(|r| self.programs[r.program].points()).sum();
            w.push("points_per_s", points as f64 / busy * 1e6, "1/s");
            let large: Vec<f64> = (0..self.programs.len())
                .filter(|&k| k != small)
                .map(|k| median(&of(k)) / 1e3)
                .collect();
            w.push("kernel_geomean_ms", geomean(&large), "ms");
            w.push("small_p50_us", median(&of(small)), "us");
            w.push("small_p90_us", quantile(&of(small), 0.9), "us");
            w.push("large_p50_us", median(&of(fig6)), "us");
        });
        let passes = WindowLog::new(Self::PACE_EXPONENT, |us: &[f64], w: &mut Windowed| {
            w.push(
                "ops_per_s",
                us.len() as f64 / us.iter().sum::<f64>() * 1e6,
                "1/s",
            );
            w.push("op_p50_us", median(us), "us");
        });
        PassTimes {
            runs,
            passes,
            attempted: 0,
            failed: 0,
        }
    }

    /// Per-layer numbers: the traced runs' spans plus probes timed
    /// around single public calls on the same domains.
    fn layers(&self, trace: &Trace) -> Metrics {
        let mut m = Metrics::default();
        let large: Vec<&Program> = self.programs.iter().filter(|p| !p.small()).collect();
        for p in &self.programs {
            m.set(
                format!("kernels.{}.run_ms", p.name),
                trace.median_us(p.run_span) / 1e3,
                "ms",
            );
            let seq: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(p.plain_loop());
                    micros(t0) / 1e3
                })
                .collect();
            m.set(format!("kernels.{}.seq_ms", p.name), median(&seq), "ms");
        }
        let points: u64 = large.iter().map(|p| p.points()).sum();
        let per_point = |f: &dyn Fn(&Program)| {
            let reps: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    for p in &large {
                        f(p);
                    }
                    micros(t0) * 1e3 / points as f64
                })
                .collect();
            median(&reps)
        };
        let pool = &self.pool;
        m.set(
            "exec.empty_ns_per_point",
            per_point(&|p| {
                p.collapsed.runner(pool).run(|_t, q| {
                    black_box(q);
                });
            }),
            "ns",
        );
        let count = reducer(
            || 0u64,
            |_t, _q: &[i64], a: &mut u64| *a += 1,
            |a: u64, b: u64| a + b,
        );
        m.set(
            "exec.reduce_ns_per_point",
            per_point(&|p| {
                black_box(p.collapsed.runner(pool).reduce(&count).value);
            }),
            "ns",
        );
        for (name, prog) in [
            ("exec.anchor_ns.deg2", "correlation"),
            ("exec.anchor_ns.deg3", "figure6"),
        ] {
            let c = &self
                .programs
                .iter()
                .find(|p| p.name == prog)
                .expect("program")
                .collapsed;
            m.set(name, anchor_ns(c), "ns");
        }
        let dispatch: Vec<f64> = (0..2000)
            .map(|_| {
                let t0 = Instant::now();
                pool.run(&|tid| {
                    black_box(tid);
                });
                micros(t0)
            })
            .collect();
        m.set("parfor.dispatch_us", median(&dispatch), "us");
        let counts: Vec<Padded> = (0..pool.nthreads()).map(|_| Padded::default()).collect();
        let mut worst = 1.0f64;
        for p in &large {
            counts.iter().for_each(Padded::reset);
            p.collapsed
                .runner(pool)
                .schedule(Schedule::Static)
                .run(|tid, _q| counts[tid].bump(1));
            let per: Vec<f64> = counts.iter().map(|c| c.get() as f64).collect();
            let mean = per.iter().sum::<f64>() / per.len() as f64;
            worst = worst.max(per.iter().cloned().fold(0.0, f64::max) / mean);
        }
        m.set("parfor.static_imbalance", worst, "ratio");
        m
    }
}

/// `Collapsed::unrank_into` per call (ns) over seeded ranks.
fn anchor_ns(c: &Collapsed) -> f64 {
    let mut rng = Rng::new(c.total() as u64);
    let ranks: Vec<i128> = (0..4096)
        .map(|_| rng.range(1, c.total() as i64) as i128)
        .collect();
    let mut point = vec![0i64; c.depth()];
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for &r in &ranks {
                c.unrank_into(r, &mut point);
                black_box(&point);
            }
            micros(t0) * 1e3 / ranks.len() as f64
        })
        .collect();
    median(&reps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_inputs() {
        let data = |seed| match Kernels::setup(seed, false).programs.swap_remove(0).body {
            Body::Correlation { data, .. } => data,
            _ => unreachable!(),
        };
        assert_eq!(data(5), data(5));
        assert_ne!(data(5), data(6));
    }
}
