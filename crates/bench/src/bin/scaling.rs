//! **Thread scaling**: collapsed-static vs outer-static/dynamic as the
//! thread count grows — the scalability claim of §II (dynamic
//! scheduling "is generally not scalable", collapsing is).
//!
//! ```text
//! cargo run --release -p nrl-bench --bin scaling -- [--kernel correlation] [--scale 1.0] [--reps 3]
//! ```
//!
//! A one-thread pool runs every schedule as one static block (see
//! `Schedule::effective`), so the `threads = 1` row's `outer-dynamic`
//! cell measures outer-static and is marked `(as static)`.

use nrl_bench::{as_run, fmt_duration, time_median, Args, Table};
use nrl_core::{Recovery, Schedule, ThreadPool};
use nrl_kernels::{kernel_by_name, Mode};

fn main() {
    let args = Args::from_env();
    let name = args.get("kernel").unwrap_or("correlation").to_string();
    let scale = args.get_or("scale", 1.0f64);
    let reps = args.get_or("reps", 3usize);
    let max_threads = args.get_or(
        "max-threads",
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(4),
    );

    let mut kernel = kernel_by_name(&name, scale)
        .unwrap_or_else(|| panic!("unknown kernel {name:?}; see `all_kernels`"));
    let info = kernel.info();
    println!(
        "Thread scaling: {} ({}, {})\n",
        info.name, info.shape, info.size
    );

    kernel.reset();
    kernel.execute(&Mode::Seq);
    let reference = kernel.checksum();

    let mut table = Table::new(&[
        "threads",
        "outer-static",
        "outer-dynamic",
        "collapsed-static",
        "collapsed speedup",
    ]);
    let mut threads = 1usize;
    let t_seq = time_median(reps, 1, || {
        kernel.reset();
        kernel.execute(&Mode::Seq)
    });
    while threads <= max_threads {
        let pool = ThreadPool::new(threads);
        let mut timed = |mode: &Mode| {
            let d = time_median(reps, 0, || {
                kernel.reset();
                kernel.execute(mode)
            });
            assert_eq!(kernel.checksum(), reference, "wrong output");
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
        let t_coll = timed(&Mode::Collapsed {
            pool: &pool,
            schedule: Schedule::Static,
            recovery: Recovery::OncePerChunk,
        });
        table.row(vec![
            threads.to_string(),
            fmt_duration(t_static),
            as_run(fmt_duration(t_dynamic), dynamic, threads),
            fmt_duration(t_coll),
            format!("{:.2}×", t_seq.as_secs_f64() / t_coll.as_secs_f64()),
        ]);
        threads *= 2;
    }
    println!("{}", table.render());
}
