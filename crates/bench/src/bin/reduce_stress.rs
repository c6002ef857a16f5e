//! CI reduce stress smoke: drives the deterministic reduction engine
//! on a deliberately undersized pool through repeated cycles of clean
//! runs, injected body panics, and mid-run cancellations with resume.
//!
//! The reducer accumulates the exact rank moments `Σ rank` and
//! `Σ rank²` over the collapsed domain, so the closed forms
//! `T(T+1)/2` and `T(T+1)(2T+1)/6` prove **exactly-once
//! accumulation**: a point folded twice, dropped, or a partial joined
//! twice shifts at least one of the two moments. Asserts, per cycle:
//!
//! * a clean reduction matches both closed forms with every grid
//!   chunk joined and none discarded;
//! * a reduction whose body panics unwinds to the caller, and the
//!   *same* pool immediately serves a bit-exact clean reduction —
//!   no partial from the aborted run leaks into the next one;
//! * a cancelled reduction returns a grid-aligned contiguous prefix,
//!   and joining it with the resumed remainder reproduces both closed
//!   forms while each grid chunk is joined by exactly one of the two
//!   runs.
//!
//! Built with `--features fault-inject`, panics are additionally
//! injected through the `nrl_parfor::faults` hooks (with a straggler
//! delay on one worker, forcing out-of-order chunk completion and
//! discarded partials); without the feature the panic is raised
//! directly in the reducer body. Exit code 1 with a `::error`
//! annotation on any violation.

use nrl_core::{reducer, CollapseSpec, Recovery, RunOutcome, RunToken, Schedule};
use nrl_parfor::ThreadPool;
use nrl_polyhedra::NestSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: usize = 2; // undersized on purpose: determinism must not need spare workers
const CYCLES: u64 = 120;
const PARAM: i64 = 40;
const PANIC_MSG: &str = "reduce stress: injected body panic";

/// Exact rank moments: the accumulator is `(Σ rank, Σ rank²)`.
type Moments = (u64, u64);

fn moment_reducer(collapsed: &nrl_core::Collapsed) -> impl nrl_core::Reducer<Moments> + use<'_> {
    reducer(
        || (0u64, 0u64),
        |_tid, p: &[i64], acc: &mut Moments| {
            let rank = collapsed.rank(p) as u64;
            acc.0 = acc.0.wrapping_add(rank);
            acc.1 = acc.1.wrapping_add(rank.wrapping_mul(rank));
        },
        |a, b| (a.0.wrapping_add(b.0), a.1.wrapping_add(b.1)),
    )
}

fn main() {
    // Keep the log readable: swallow the expected injected panics,
    // let anything else print as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied());
        let injected = payload == Some(PANIC_MSG) || {
            #[cfg(feature = "fault-inject")]
            {
                payload == Some(nrl_parfor::faults::INJECTED_PANIC)
            }
            #[cfg(not(feature = "fault-inject"))]
            {
                false
            }
        };
        if !injected {
            default_hook(info);
        }
    }));

    let nest = NestSpec::correlation();
    let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[PARAM]).unwrap();
    let t = collapsed.total() as u64;
    let expect: Moments = (t * (t + 1) / 2, t * (t + 1) * (2 * t + 1) / 6);
    let red = moment_reducer(&collapsed);
    let pool = ThreadPool::new(THREADS);
    let schedules = [
        Schedule::Static,
        Schedule::StaticChunk(13),
        Schedule::Dynamic(7),
        Schedule::Guided(2),
    ];
    let recoveries = [
        Recovery::Naive,
        Recovery::OncePerChunk,
        Recovery::BinarySearch,
    ];
    let mut bad = 0u64;
    let mut state = 0x9E37_79B9u64;
    for cycle in 0..CYCLES {
        // xorshift: deterministic fault rank and config per cycle.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let fault_at = state % t + 1;
        let schedule = schedules[(cycle % schedules.len() as u64) as usize];
        let recovery = recoveries[(cycle % recoveries.len() as u64) as usize];
        let runner = collapsed
            .runner(&pool)
            .schedule(schedule)
            .recovery(recovery);

        // 1. Clean reduction: both closed forms, full join, no waste.
        let clean = runner.reduce(&red);
        if clean.value != expect
            || !clean.outcome.is_completed()
            || clean.counters.joined != clean.counters.chunks
            || clean.counters.discarded != 0
        {
            println!(
                "::error title=reduce stress::cycle {cycle}: clean reduction diverged \
                 (value {:?} expect {:?}, counters {:?})",
                clean.value, expect, clean.counters
            );
            bad += 1;
        }

        // 2. Injected panic mid-reduction, then a clean reduction on
        // the same pool.
        let calls = AtomicU64::new(0);
        let panicking = reducer(
            || (0u64, 0u64),
            |_tid, p: &[i64], acc: &mut Moments| {
                #[cfg(feature = "fault-inject")]
                nrl_parfor::faults::on_body_call(_tid);
                if calls.fetch_add(1, Ordering::Relaxed) + 1 == fault_at {
                    panic!("{PANIC_MSG}");
                }
                let rank = collapsed.rank(p) as u64;
                acc.0 = acc.0.wrapping_add(rank);
                acc.1 = acc.1.wrapping_add(rank.wrapping_mul(rank));
            },
            |a: Moments, b: Moments| (a.0.wrapping_add(b.0), a.1.wrapping_add(b.1)),
        );
        // Under fault-inject, also delay the other worker into a
        // straggler so chunk completions arrive out of order.
        #[cfg(feature = "fault-inject")]
        let _guard = nrl_parfor::faults::FaultPlan::new()
            .delay_on(1, 1, std::time::Duration::from_micros(50))
            .arm();
        let err = catch_unwind(AssertUnwindSafe(|| {
            runner.reduce(&panicking);
        }));
        #[cfg(feature = "fault-inject")]
        drop(_guard);
        if err.is_ok() {
            println!(
                "::error title=reduce stress::cycle {cycle}: panic at call {fault_at} \
                 of {t} never propagated"
            );
            bad += 1;
        }
        let after = runner.reduce(&red);
        if after.value != expect || !after.outcome.is_completed() {
            println!(
                "::error title=reduce stress::cycle {cycle}: post-panic reduction \
                 diverged (value {:?} expect {:?}) — a partial leaked",
                after.value, expect
            );
            bad += 1;
        }

        // 3. Cancellation: grid-aligned prefix + resumed remainder
        // join to the closed forms, every chunk joined exactly once.
        let token = RunToken::new();
        let calls = AtomicU64::new(0);
        let cancelling = reducer(
            || (0u64, 0u64),
            |_tid, p: &[i64], acc: &mut Moments| {
                if calls.fetch_add(1, Ordering::Relaxed) + 1 == fault_at {
                    token.cancel();
                }
                let rank = collapsed.rank(p) as u64;
                acc.0 = acc.0.wrapping_add(rank);
                acc.1 = acc.1.wrapping_add(rank.wrapping_mul(rank));
            },
            |a: Moments, b: Moments| (a.0.wrapping_add(b.0), a.1.wrapping_add(b.1)),
        );
        let stopped = runner.token(&token).reduce(&cancelling);
        let done = match stopped.outcome {
            RunOutcome::Cancelled { points_done } => points_done,
            RunOutcome::Completed => t, // cancel landed in the last chunk
            other => {
                println!("::error title=reduce stress::cycle {cycle}: unexpected {other:?}");
                bad += 1;
                continue;
            }
        };
        if done % stopped.counters.grain != 0 && done != t {
            println!(
                "::error title=reduce stress::cycle {cycle}: points_done {done} not \
                 aligned to grain {}",
                stopped.counters.grain
            );
            bad += 1;
        }
        let resumed = runner.resume(done).reduce(&red);
        let joined = (
            stopped.value.0.wrapping_add(resumed.value.0),
            stopped.value.1.wrapping_add(resumed.value.1),
        );
        if joined != expect || !resumed.outcome.is_completed() {
            println!(
                "::error title=reduce stress::cycle {cycle}: prefix+resume diverged \
                 (joined {joined:?} expect {expect:?})"
            );
            bad += 1;
        }
        if stopped.counters.joined + resumed.counters.chunks != clean.counters.chunks {
            println!(
                "::error title=reduce stress::cycle {cycle}: chunk double-join \
                 (prefix joined {} + resumed chunks {} != {})",
                stopped.counters.joined, resumed.counters.chunks, clean.counters.chunks
            );
            bad += 1;
        }
    }
    println!(
        "reduce stress: {CYCLES} cycles × (clean + panic + cancel/resume) on a \
         {THREADS}-thread pool, T={t}: {bad} violations"
    );
    if bad > 0 {
        std::process::exit(1);
    }
}
