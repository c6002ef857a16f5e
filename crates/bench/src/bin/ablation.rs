//! **Ablation**: the design choices DESIGN.md calls out, measured.
//!
//! 1. Recovery strategy (§V): naive per-iteration roots vs.
//!    once-per-chunk vs. pure binary search — on a collapsed loop with
//!    a trivial body, so recovery cost dominates.
//! 2. Chunk-size sweep for `schedule(static, chunk)` on the collapsed
//!    correlation loop. With `--threads 1` every row runs as one static
//!    block (see `Schedule::effective`) and is marked `(as static)`.
//! 3. Warp-width sweep for the §VI.B scheme.
//! 4. The related-work baseline (§VIII): exact outer partitioning à la
//!    Sakellariou \[14\] / Kafri–Sbeih \[16\], computed from the ranking
//!    polynomial — vs. naive outer static and vs. collapsing, on a
//!    row-rich triangle and a short-fat band.
//! 5. A work-stealing-style baseline over the flattened index space
//!    (scoped threads pulling single iterations off an atomic cursor,
//!    naive recovery per iteration) — what a Rust programmer would
//!    write without this library's §V machinery.
//!
//! ```text
//! cargo run --release -p nrl-bench --bin ablation -- [--n 1500] [--threads N] [--reps 3]
//! ```

use nrl_bench::{as_run, fmt_duration, time_median, Args, Table};
use nrl_core::{
    balanced_outer_cuts, run_outer_parallel, run_outer_partitioned, CollapseSpec, Recovery,
    Schedule, ThreadPool,
};
use nrl_polyhedra::NestSpec;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    let args = Args::from_env();
    let n = args.get_or("n", 1500i64);
    let threads = args.get_or(
        "threads",
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(4),
    );
    let reps = args.get_or("reps", 3usize);
    let pool = ThreadPool::new(threads);

    println!("Ablation study: correlation nest N={n}, {threads} threads, trivial body\n");

    let nest = NestSpec::correlation();
    let spec = CollapseSpec::new(&nest).expect("spec");
    let collapsed = spec.bind(&[n]).expect("bind");
    let sink = AtomicU64::new(0);
    let body = |_t: usize, p: &[i64]| {
        sink.fetch_add((p[0] ^ p[1]) as u64, Ordering::Relaxed);
    };

    // --- 1. recovery strategies -----------------------------------
    let mut t1 = Table::new(&["recovery", "time", "slowdown vs once-per-chunk"]);
    let once = time_median(reps, 1, || collapsed.runner(&pool).run(body).report.wall());
    for (label, recovery) in [
        ("once-per-chunk (§V)", Recovery::OncePerChunk),
        ("naive (per-iteration roots)", Recovery::Naive),
        ("binary-search (exact-only)", Recovery::BinarySearch),
    ] {
        let t = time_median(reps, 1, || {
            collapsed
                .runner(&pool)
                .recovery(recovery)
                .run(body)
                .report
                .wall()
        });
        t1.row(vec![
            label.to_string(),
            fmt_duration(t),
            format!("×{:.2}", t.as_secs_f64() / once.as_secs_f64()),
        ]);
    }
    println!("{}", t1.render());

    // --- 2. chunk sizes --------------------------------------------
    let mut t2 = Table::new(&["schedule", "time"]);
    for chunk in [0u64, 64, 256, 1024, 16384] {
        let schedule = if chunk == 0 {
            Schedule::Static
        } else {
            Schedule::StaticChunk(chunk)
        };
        let t = time_median(reps, 1, || {
            collapsed
                .runner(&pool)
                .schedule(schedule)
                .run(body)
                .report
                .wall()
        });
        t2.row(vec![
            as_run(schedule.label(), schedule, threads),
            fmt_duration(t),
        ]);
    }
    println!("{}", t2.render());

    // --- 3. warp widths (§VI.B) ------------------------------------
    // (CPU simulation cost grows with W — a real GPU pays nothing for
    // the in-warp parallelism; widths kept GPU-realistic.)
    let mut t3 = Table::new(&["warp width", "time"]);
    for warp in [32usize, 64, 128, 256] {
        let t = time_median(reps, 1, || {
            let start = std::time::Instant::now();
            collapsed.runner(&pool).warp(warp, body);
            start.elapsed()
        });
        t3.row(vec![warp.to_string(), fmt_duration(t)]);
    }
    println!("{}", t3.render());

    // --- 4. related-work baseline: exact outer partitioning ---------
    // Sakellariou [14] / Kafri–Sbeih [16] balance the OUTER loop into
    // contiguous ranges of near-equal mass; with the ranking polynomial
    // we can compute the idealized (exact) version of their cuts. It
    // matches collapsing on row-rich triangles but cannot split rows,
    // so it starves threads on short-fat domains.
    let mut t4 = Table::new(&["strategy", "triangle (rows≫threads)", "band (rows<threads)"]);
    let band_nest = {
        use nrl_polyhedra::Space;
        let s = Space::new(&["i", "j"], &["R", "W"]);
        NestSpec::new(
            s.clone(),
            vec![
                (s.cst(0), s.var("R") - 1),
                (s.var("i"), s.var("i") + s.var("W")),
            ],
        )
        .expect("band nest")
    };
    let band = CollapseSpec::new(&band_nest)
        .expect("band spec")
        .bind(&[(threads as i64 / 2).max(1), 400_000])
        .expect("band bind");
    // Padded per-thread accumulators: a single shared atomic would make
    // the better-parallelized strategy pay cache ping-pong that the
    // thread-starved ones avoid, inverting the comparison.
    let cells: Vec<AtomicU64> = (0..threads * 16).map(|_| AtomicU64::new(0)).collect();
    let cell_body = |t: usize, p: &[i64]| {
        cells[t * 16].fetch_add((p[0] ^ p[1]) as u64, Ordering::Relaxed);
    };
    let tri_cuts = balanced_outer_cuts(&collapsed, threads);
    let band_cuts = balanced_outer_cuts(&band, threads);
    let time_pair = |tri: &dyn Fn() -> std::time::Duration,
                     bnd: &dyn Fn() -> std::time::Duration| {
        (time_median(reps, 1, tri), time_median(reps, 1, bnd))
    };
    let (a, b) = time_pair(
        &|| run_outer_parallel(&pool, collapsed.nest(), Schedule::Static, cell_body).wall(),
        &|| run_outer_parallel(&pool, band.nest(), Schedule::Static, cell_body).wall(),
    );
    t4.row(vec![
        "outer static (naive)".into(),
        fmt_duration(a),
        fmt_duration(b),
    ]);
    let (a, b) = time_pair(
        &|| run_outer_partitioned(&pool, &collapsed, &tri_cuts, cell_body).wall(),
        &|| run_outer_partitioned(&pool, &band, &band_cuts, cell_body).wall(),
    );
    t4.row(vec![
        "outer partitioned [14][16], exact cuts".into(),
        fmt_duration(a),
        fmt_duration(b),
    ]);
    let (a, b) = time_pair(
        &|| collapsed.runner(&pool).run(cell_body).report.wall(),
        &|| band.runner(&pool).run(cell_body).report.wall(),
    );
    t4.row(vec![
        "collapsed (this paper)".into(),
        fmt_duration(a),
        fmt_duration(b),
    ]);
    println!("{}", t4.render());
    sink.fetch_add(
        cells.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>(),
        Ordering::Relaxed,
    );

    // --- 5. no-library baseline ------------------------------------
    // Scoped threads pulling single flattened iterations off a shared
    // atomic cursor with per-iteration recovery: the dynamic-over-ranks
    // loop a Rust programmer writes without the §V machinery.
    let total = collapsed.total() as u64;
    let t_naive_par = time_median(reps, 1, || {
        let start = std::time::Instant::now();
        let cursor = AtomicU64::new(1);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let pc = cursor.fetch_add(1, Ordering::Relaxed);
                    if pc > total {
                        break;
                    }
                    let point = collapsed.unrank(pc as i128);
                    body(0, &point);
                });
            }
        });
        start.elapsed()
    });
    println!(
        "naive parallel + per-iteration recovery: {} (the no-library baseline;",
        fmt_duration(t_naive_par)
    );
    println!(" compare against once-per-chunk above)\n");
    println!("checksum sink: {}", sink.load(Ordering::Relaxed));
}
