//! CI pool-panic stress smoke: drives an undersized `nrl_parfor` pool
//! through repeated inject-panic → reuse cycles. Each cycle runs a
//! collapsed sweep whose body panics at a cycle-dependent rank, catches
//! the unwind at the caller, and immediately reruns a clean sweep on
//! the *same* pool — the panic-safe-pool guarantee under sustained
//! abuse rather than a single-shot unit test.
//!
//! Asserts, per cycle: the panic payload is the injected one and the
//! follow-up sweep reproduces the expected checksum bit-exactly. Exit
//! code 1 with a `::error` annotation on any violation.

use nrl_core::{CollapseSpec, Recovery, Schedule};
use nrl_parfor::ThreadPool;
use nrl_polyhedra::NestSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

const THREADS: usize = 2; // undersized on purpose: reuse must not depend on spare workers
const CYCLES: u64 = 200;
const PARAM: i64 = 40;
const PANIC_MSG: &str = "pool panic stress: injected body panic";

/// Order-independent wrapping checksum contribution of one point.
fn point_hash(p: &[i64]) -> i64 {
    let mut h = 0i64;
    for &x in p {
        h = h.rotate_left(13) ^ x.wrapping_mul(0x2545_F491_4F6C_DD1Du64 as i64);
    }
    h
}

fn main() {
    // Keep the log readable: swallow the expected injected panics,
    // let anything else print as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            == Some(PANIC_MSG);
        if !injected {
            default_hook(info);
        }
    }));
    let nest = NestSpec::correlation();
    let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[PARAM]).unwrap();
    let total = collapsed.total() as u64;
    let expect = nest
        .enumerate(&[PARAM])
        .fold(0i64, |acc, p| acc.wrapping_add(point_hash(&p)));
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
    let pool = ThreadPool::new(THREADS);
    let mut bad = 0u64;
    let mut state = 0x9E37_79B9u64;
    for cycle in 0..CYCLES {
        // xorshift: deterministic panic rank and config per cycle.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let panic_at = state % total + 1;
        let schedule = schedules[(cycle % schedules.len() as u64) as usize];
        let recovery = recoveries[(cycle % recoveries.len() as u64) as usize];
        let calls = AtomicU64::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            collapsed
                .runner(&pool)
                .schedule(schedule)
                .recovery(recovery)
                .run(|_, _| {
                    if calls.fetch_add(1, Ordering::Relaxed) + 1 == panic_at {
                        panic!("{PANIC_MSG}");
                    }
                });
        }));
        match err {
            Ok(()) => {
                println!(
                    "::error title=pool panic stress::cycle {cycle}: panic at rank {panic_at} \
                     of {total} never propagated"
                );
                bad += 1;
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("<non-string payload>");
                if msg != PANIC_MSG {
                    println!(
                        "::error title=pool panic stress::cycle {cycle}: foreign panic \
                         payload {msg:?}"
                    );
                    bad += 1;
                }
            }
        }
        // The same pool must serve a bit-identical clean sweep.
        let sum = AtomicI64::new(0);
        collapsed
            .runner(&pool)
            .schedule(schedule)
            .recovery(recovery)
            .run(|_, p| {
                sum.fetch_add(point_hash(p), Ordering::Relaxed);
            });
        let got = sum.into_inner();
        if got != expect {
            println!(
                "::error title=pool panic stress::cycle {cycle}: post-panic sweep checksum \
                 {got} != {expect}"
            );
            bad += 1;
        }
    }
    println!(
        "pool panic stress: {CYCLES} inject→reuse cycles on {THREADS} threads, \
         {total} points/sweep, checksum sink: {expect}"
    );
    if bad > 0 {
        eprintln!("pool panic stress FAILED: {bad} violation(s)");
        std::process::exit(1);
    }
    println!("pool panic stress passed");
}
