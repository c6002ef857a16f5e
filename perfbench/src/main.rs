//! The nrl benchmark: three workloads (`kernels`, `serve`, `compile`)
//! that drive the library only through its public entry points and
//! time each layer from outside, around the calls into it.
//!
//! ```text
//! perfbench --workload <kernels|serve|compile> --seed <n> --seconds <s>
//!           --trace <0|1> [--trace-out <dir>] [--corrupt]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones (see README.md). `--corrupt` flips one value of the
//! workload's reference so that its output check must fail; the
//! benchmark's tests use it.

mod compile;
mod kernels;
mod pace;
mod serve;
mod shapes;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;
use util::{json_num, median, nproc, on_one_cpu, peak_rss_mb, Metrics};

/// What one measured phase of a workload produced.
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, except `setup_s` and `peak_rss_mb`.
    pub metrics: Metrics,
    /// Per-layer metrics (traced phases only).
    pub layers: Metrics,
    pub trace: Trace,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whether the workload runs with its process restricted to one
    /// CPU (see README.md: the serve workload's handoffs).
    const ONE_CPU: bool = false;
    /// How strongly the workload's times follow the reference work of
    /// [`pace`]: the slope of their logarithms against the reference's
    /// over the windows of runs on a loaded host (see README.md).
    const PACE_EXPONENT: f64;
    /// The throughput metric the tracing overhead is computed from.
    const PRIMARY: &'static str;
    /// Builds everything the timed phase uses, including warm-up.
    fn setup(seed: u64, corrupt: bool) -> Self;
    /// Pool, worker and client counts, as JSON members.
    fn threads(&self) -> String;
    /// Runs the workload for `seconds`, checking every output.
    fn measure(&mut self, seconds: f64, traced: bool) -> Phase;
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Pace samples taken before each set-up and after the last.
const PACE_PER_SETUP: usize = 10;
/// Length of the traced passes of the workloads other than the one
/// named on the command line (every traced run reports every layer).
const SIDE_PASS_SECONDS: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: PathBuf,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: PathBuf::from("target/perfbench-traces"),
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt" {
            args.corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--trace-out" => args.trace_out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Sets the workload up [`SETUPS`] times (dropping each before the
/// next) and keeps the last; returns it with the median set-up time,
/// paced by the reference samples taken around the set-ups (see
/// [`pace`]).
fn set_up<W: Workload>(args: &Args) -> (W, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    let mut pace = pace::Pace::default();
    for _ in 0..SETUPS {
        drop(kept.take());
        (0..PACE_PER_SETUP).for_each(|_| pace.sample());
        let t0 = Instant::now();
        let w = W::setup(args.seed, args.corrupt);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(w);
    }
    (0..PACE_PER_SETUP).for_each(|_| pace.sample());
    let paced = median(&times) * pace.take().powf(W::PACE_EXPONENT);
    (kept.expect("at least one set-up"), paced)
}

/// Runs `f` on one CPU when the workload asks for it.
fn scoped<W: Workload, R>(f: impl FnOnce() -> R) -> R {
    if W::ONE_CPU {
        on_one_cpu(f)
    } else {
        f()
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn end_to_end<W: Workload>(args: &Args) -> Outcome {
    let (setup_s, phase) = scoped::<W, _>(|| {
        let (mut w, setup_s) = set_up::<W>(args);
        provenance(args, &w.threads());
        (setup_s, w.measure(args.seconds, false))
    });
    let mut metrics = phase.metrics;
    metrics.set("setup_s", setup_s, "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
    }
}

fn write_trace(args: &Args, name: &str, trace: &Trace) {
    let path = args
        .trace_out
        .join(format!("{name}-seed{}.json", args.seed));
    match trace.write_chrome(&path) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            trace.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// The traced run: an untraced and a traced phase of the named
/// workload, half of `--seconds` each (their throughput ratio is
/// `trace.overhead_pct`), then a short traced pass of each other
/// workload, so that every traced run reports every layer.
fn traced<W: Workload>(args: &Args) -> Outcome {
    let half = args.seconds / 2.0;
    let (plain, traced) = scoped::<W, _>(|| {
        let mut w = W::setup(args.seed, args.corrupt);
        provenance(args, &w.threads());
        (w.measure(half, false), w.measure(half, true))
    });
    write_trace(args, W::NAME, &traced.trace);
    let mut out = Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: traced.layers,
    };
    let overhead = plain.metrics.get(W::PRIMARY) / traced.metrics.get(W::PRIMARY) - 1.0;
    out.metrics.set("trace.overhead_pct", overhead * 100.0, "%");
    for name in ["kernels", "serve", "compile"] {
        if name == W::NAME {
            continue;
        }
        let side = match name {
            "kernels" => side_pass::<kernels::Kernels>(args),
            "serve" => side_pass::<serve::Serve>(args),
            _ => side_pass::<compile::Compile>(args),
        };
        write_trace(args, name, &side.trace);
        out.attempted += side.attempted;
        out.failed += side.failed;
        out.metrics.extend(side.layers);
    }
    out
}

fn side_pass<W: Workload>(args: &Args) -> Phase {
    let seconds = SIDE_PASS_SECONDS.min(args.seconds);
    scoped::<W, _>(|| W::setup(args.seed, args.corrupt).measure(seconds, true))
}

fn provenance(args: &Args, threads: &str) {
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"cpus\": {}, {threads}}}}}",
        args.workload,
        args.seed,
        json_num(args.seconds),
        args.trace as u8,
        nproc(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );
}

fn run<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        traced::<W>(args)
    } else {
        end_to_end::<W>(args)
    }
}

fn main() -> ExitCode {
    nproc();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "kernels" => run::<kernels::Kernels>(&args),
        "serve" => run::<serve::Serve>(&args),
        "compile" => run::<compile::Compile>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (kernels, serve, compile)");
            return ExitCode::from(2);
        }
    };
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
