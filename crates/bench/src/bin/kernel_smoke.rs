//! CI kernels-registry smoke: runs **every** registered kernel (the
//! paper set and the extension shapes) once per execution engine at a
//! tiny scale and requires the collapsed and warp checksums to equal
//! the sequential reference **bit-exactly** (each output cell is
//! written by exactly one iteration, so floating-point summation order
//! is mode-independent).
//!
//! Exit code 1 on any mismatch; failures are also emitted as GitHub
//! `::error` annotations so the CI step pinpoints the kernel/engine
//! pair without log spelunking.

use nrl_core::{Recovery, Schedule, ThreadPool};
use nrl_kernels::{all_kernels, extended_kernels, guarded_kernels, set_plan_verification, Mode};
use nrl_plan::PlanCache;

fn main() {
    // Fidelity mode: every kernel construction resolves its plan
    // through the global cache AND binds from scratch, asserting the
    // two are bit-identical (totals, engine choices, overflow proofs,
    // sampled unrank/rank sweeps) — so the checksum loop below runs on
    // cache-served instances that are proven equal to fresh binds.
    set_plan_verification(true);
    let pool = ThreadPool::new(4);
    let mut checked = 0usize;
    let mut failures = 0usize;
    for mut kernel in all_kernels(0.08).into_iter().chain(extended_kernels(0.02)) {
        let name = kernel.info().name;
        kernel.execute(&Mode::Seq);
        let reference = kernel.checksum();
        if !reference.is_finite() {
            println!("::error title=kernel registry smoke::{name}: sequential checksum is not finite ({reference})");
            failures += 1;
            continue;
        }
        let modes: [(&str, Mode); 3] = [
            (
                "collapsed-once-per-chunk",
                Mode::Collapsed {
                    pool: &pool,
                    schedule: Schedule::Static,
                    recovery: Recovery::OncePerChunk,
                },
            ),
            (
                "collapsed-binary-search",
                Mode::Collapsed {
                    pool: &pool,
                    schedule: Schedule::Dynamic(37),
                    recovery: Recovery::BinarySearch,
                },
            ),
            (
                "warp-64",
                Mode::Warp {
                    pool: &pool,
                    warp: 64,
                },
            ),
        ];
        for (label, mode) in modes {
            kernel.reset();
            kernel.execute(&mode);
            let got = kernel.checksum();
            checked += 1;
            if got == reference {
                println!("ok   {name:<18} {label:<26} checksum {got}");
            } else {
                println!(
                    "::error title=kernel registry smoke::{name} under {label}: checksum {got} != sequential {reference}"
                );
                failures += 1;
            }
        }
    }
    // Guarded (imperfect-nest) variants of correlation/figure6: the
    // row-segmented guarded executor — guards derived from odometer
    // carry depths, one anchor per chunk — must reproduce the
    // sequential guarded reference (`run_seq_guarded`) bit-exactly,
    // across schedules that split rows mid-chunk.
    for mut kernel in guarded_kernels(0.08) {
        let name = kernel.info().name;
        kernel.execute(&Mode::Seq);
        let reference = kernel.checksum();
        let modes: [(&str, Mode); 3] = [
            (
                "guarded-segmented-static",
                Mode::Collapsed {
                    pool: &pool,
                    schedule: Schedule::Static,
                    recovery: Recovery::OncePerChunk,
                },
            ),
            (
                "guarded-segmented-dynamic",
                Mode::Collapsed {
                    pool: &pool,
                    schedule: Schedule::Dynamic(37),
                    recovery: Recovery::OncePerChunk,
                },
            ),
            (
                "guarded-binsearch-chunk5",
                Mode::Collapsed {
                    pool: &pool,
                    schedule: Schedule::StaticChunk(5),
                    recovery: Recovery::BinarySearch,
                },
            ),
        ];
        for (label, mode) in modes {
            kernel.reset();
            kernel.execute(&mode);
            let got = kernel.checksum();
            checked += 1;
            if got == reference {
                println!("ok   {name:<18} {label:<26} checksum {got}");
            } else {
                println!(
                    "::error title=kernel registry smoke::{name} under {label}: checksum {got} != sequential guarded reference {reference}"
                );
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("kernel registry smoke FAILED: {failures} mismatch(es)");
        std::process::exit(1);
    }
    let stats = PlanCache::global().stats();
    println!(
        "kernel registry smoke passed ({checked} kernel×engine checks, cache-served plans \
         verified against fresh binds; plan cache: {} hits / {} misses / {} entries)",
        stats.hits, stats.misses, stats.entries
    );
}
