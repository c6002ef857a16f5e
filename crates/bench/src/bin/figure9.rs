//! **Figure 9**: gains of collapsed-static execution over outer-loop
//! `schedule(static)` and `schedule(dynamic)` parallelization, for every
//! evaluation program.
//!
//! ```text
//! cargo run --release -p nrl-bench --bin figure9 -- \
//!     [--threads 12] [--reps 3] [--scale 1.0] [--paper] [--only name] \
//!     [--chunk 0] [--extended]
//! ```
//!
//! `--extended` appends the non-paper shape kernels (`banded`,
//! `sheared3d`) that exercise the concurrency-exposure motivation.
//!
//! With `--threads 1` every schedule runs as one static block (see
//! `Schedule::effective`), so the `outer-dynamic` cells measure
//! outer-static and are marked `(as static)`.
//!
//! `gain = (t_baseline − t_collapsed) / t_baseline` — positive means the
//! collapsed loop wins, matching the paper's definition. Checksums of
//! every parallel run are compared against the sequential reference.

use nrl_bench::{as_run, fmt_duration, time_median, Args, Table};
use nrl_core::{Recovery, Schedule, ThreadPool};
use nrl_kernels::{all_kernels, extended_kernels, Mode};

fn main() {
    let args = Args::from_env();
    let threads = args.get_or(
        "threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    );
    let reps = args.get_or("reps", 5usize);
    let scale = if args.has("paper") {
        6.0
    } else {
        args.get_or("scale", 1.0f64)
    };
    let only = args.get("only").map(str::to_string);
    let dynamic_chunk = args.get_or("dyn-chunk", 16u64);

    let pool = ThreadPool::new(threads);
    println!(
        "Figure 9 reproduction: {threads} threads, {reps} reps, scale {scale} (dynamic chunk {dynamic_chunk})\n"
    );

    let mut table = Table::new(&[
        "program",
        "shape",
        "size",
        "seq",
        "outer-static",
        "outer-dynamic",
        "collapsed",
        "gain vs static",
        "gain vs dynamic",
    ]);

    let mut kernels = all_kernels(scale);
    if args.has("extended") {
        kernels.extend(extended_kernels(scale));
    }
    for mut kernel in kernels {
        let info = kernel.info();
        if let Some(ref name) = only {
            if info.name != name {
                continue;
            }
        }
        // Sequential reference (one timed run is enough: it only anchors
        // the checksum and gives context).
        kernel.reset();
        let t_seq = kernel.execute(&Mode::Seq);
        let reference = kernel.checksum();

        let mut timed = |mode: &Mode| {
            let d = time_median(reps, 1, || {
                kernel.reset();
                kernel.execute(mode)
            });
            assert_eq!(
                kernel.checksum(),
                reference,
                "{} produced wrong output under {}",
                info.name,
                mode.label()
            );
            d
        };

        let t_static = timed(&Mode::Outer {
            pool: &pool,
            schedule: Schedule::Static,
        });
        let dynamic = Schedule::Dynamic(1);
        let t_dynamic = timed(&Mode::Outer {
            pool: &pool,
            schedule: dynamic,
        });
        let t_collapsed = timed(&Mode::Collapsed {
            pool: &pool,
            schedule: Schedule::Static,
            recovery: Recovery::OncePerChunk,
        });

        let gain = |base: std::time::Duration| {
            100.0 * (base.as_secs_f64() - t_collapsed.as_secs_f64()) / base.as_secs_f64()
        };
        table.row(vec![
            info.name.to_string(),
            info.shape.clone(),
            info.size.clone(),
            fmt_duration(t_seq),
            fmt_duration(t_static),
            as_run(fmt_duration(t_dynamic), dynamic, threads),
            fmt_duration(t_collapsed),
            format!("{:+.1}%", gain(t_static)),
            format!("{:+.1}%", gain(t_dynamic)),
        ]);
    }

    println!("{}", table.render());
    println!("(paper: collapsed-static beats outer-static everywhere, beats or ties");
    println!(" outer-dynamic except ltmp, where the non-collapsed inner loop keeps");
    println!(" per-iteration work unbalanced)");
}
