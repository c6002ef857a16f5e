//! Collapsing an *imperfect* nest — the paper's §IX future work,
//! dependence-free case (`nrl_core::imperfect`).
//!
//! The program below is imperfect: `b[i]` is written between the two
//! loop headers and `last[i]` after the inner loop closes —
//!
//! ```text
//! for (i = 0; i < N-1; i++) {
//!     b[i] = i * i;                 // level-0 prologue
//!     for (j = i+1; j < N; j++)
//!         a[i][j] = f(i, j);        // innermost body
//!     last[i] = i + N;              // level-0 epilogue
//! }
//! ```
//!
//! Guarded sinking turns it into a perfect triangular nest whose body
//! consults a [`NestPosition`]: the prologue fires exactly where all
//! inner iterators sit at their lexicographic minimum, the epilogue
//! where they sit at their maximum. The collapsed loop then balances
//! ALL the statements — including the per-row ones — across threads.
//!
//! Since the **row-segmented** executor, those positions are derived
//! from the odometer carry depths of the row walk (`RowWalker`) —
//! computed once per row, not once per point — and the per-row guard
//! counters printed below double as a smoke check: exactly `N − 1`
//! prologues and `N − 1` epilogues must fire, whether the chunks hold
//! whole rows or cut them mid-row.
//!
//! ```text
//! cargo run --release --example imperfect_rows
//! ```

use nrl::prelude::*;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

fn f(i: i64, j: i64) -> i64 {
    3 * i - 7 * j
}

fn main() {
    let n = 3000i64;
    let nest = NestSpec::correlation();

    // Precondition for guard sinking: every inner loop runs at least
    // once at every prefix (strict trip counts). Proven symbolically
    // under the assumption N ≥ 2.
    let s = nest.space().clone();
    let proof = nest.prove_trip_counts(&[s.var("N") - 2], true);
    println!("strict trip-count proof under N >= 2: {proof:?}");

    // Reference: run the imperfect program literally.
    let mut b_ref = vec![0i64; n as usize];
    let mut last_ref = vec![0i64; n as usize];
    let mut a_sum_ref = 0i64;
    for i in 0..n - 1 {
        b_ref[i as usize] = i * i;
        for j in i + 1..n {
            a_sum_ref = a_sum_ref.wrapping_add(f(i, j));
        }
        last_ref[i as usize] = i + n;
    }

    // Sequential guarded execution (the flattened shape).
    let bound = nest.bind(&[n]);
    let mut b_seq = vec![0i64; n as usize];
    let mut last_seq = vec![0i64; n as usize];
    let mut a_sum_seq = 0i64;
    run_seq_guarded(&bound, |p, pos| {
        let (i, j) = (p[0], p[1]);
        if pos.fires_prologue(0) {
            b_seq[i as usize] = i * i;
        }
        a_sum_seq = a_sum_seq.wrapping_add(f(i, j));
        if pos.fires_epilogue(0) {
            last_seq[i as usize] = i + n;
        }
    });
    assert_eq!(b_seq, b_ref);
    assert_eq!(last_seq, last_ref);
    assert_eq!(a_sum_seq, a_sum_ref);
    println!("sequential guarded run matches the imperfect program");

    // Parallel collapsed execution on the row-segmented guarded
    // executor: every statement instance fires exactly once, wherever
    // its rank lands — under static chunks and under small dynamic
    // chunks whose anchors sit mid-row.
    let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[n]).unwrap();
    let pool = ThreadPool::with_available_parallelism();
    let mut last_report = None;
    for (label, schedule) in [
        ("static", Schedule::Static),
        ("dynamic(7), mid-row chunks", Schedule::Dynamic(7)),
    ] {
        let b_par: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(0)).collect();
        let last_par: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(0)).collect();
        let a_sum_par = AtomicI64::new(0);
        let prologue_count = AtomicU64::new(0);
        let epilogue_count = AtomicU64::new(0);
        let report = collapsed
            .runner(&pool)
            .schedule(schedule)
            .run_guarded(|_tid, p, pos| {
                let (i, j) = (p[0], p[1]);
                if pos.fires_prologue(0) {
                    prologue_count.fetch_add(1, Ordering::Relaxed);
                    b_par[i as usize].store(i * i, Ordering::Relaxed);
                }
                a_sum_par.fetch_add(f(i, j), Ordering::Relaxed);
                if pos.fires_epilogue(0) {
                    epilogue_count.fetch_add(1, Ordering::Relaxed);
                    last_par[i as usize].store(i + n, Ordering::Relaxed);
                }
            })
            .report;
        let b_par: Vec<i64> = b_par.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        let last_par: Vec<i64> = last_par.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        assert_eq!(b_par, b_ref);
        assert_eq!(last_par, last_ref);
        assert_eq!(a_sum_par.load(Ordering::Relaxed), a_sum_ref);
        // The per-row guard counters ARE the smoke check: one prologue
        // and one epilogue per outer row, never more, never fewer.
        assert_eq!(prologue_count.load(Ordering::Relaxed), (n - 1) as u64);
        assert_eq!(epilogue_count.load(Ordering::Relaxed), (n - 1) as u64);
        println!(
            "parallel segmented run [{label}] matches: {} row prologues, {} row epilogues, checksum {}",
            prologue_count.load(Ordering::Relaxed),
            epilogue_count.load(Ordering::Relaxed),
            a_sum_par.load(Ordering::Relaxed)
        );
        last_report = Some(report);
    }

    // Segment introspection: the first few row segments of the walk a
    // worker would perform from rank 1 — carry depths are exactly the
    // guard boundaries the executor derives positions from.
    let mut walker = collapsed.rows_from(1);
    println!("first row segments from rank 1 (start, len, entry carry, exit carry):");
    let mut remaining = 4u64 * n as u64;
    for _ in 0..4 {
        let i = walker.point()[0];
        let seg = walker.next_segment(remaining);
        println!(
            "  row prefix i={i:<4} j from {:<4} len {:<5} pre_from {:?} post_from {}",
            seg.start, seg.len, seg.pre_from, seg.post_from
        );
        remaining -= seg.len;
    }
    print!("{}", last_report.expect("two runs completed").render());
}
