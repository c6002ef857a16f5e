//! Every evaluation program, every execution mode, bitwise-identical
//! outputs (each output cell is written by exactly one iteration, so
//! floating-point summation order is mode-independent).

use nrl::kernels::{all_kernels, Mode};
use nrl::prelude::*;

#[test]
fn every_kernel_every_mode_matches_sequential() {
    let pool = ThreadPool::new(4);
    // Tiny scale: this sweeps 11 kernels × 7 modes.
    for mut kernel in all_kernels(0.08) {
        let info = kernel.info();
        kernel.reset();
        kernel.execute(&Mode::Seq);
        let reference = kernel.checksum();
        assert!(reference.is_finite(), "{}", info.name);

        let modes: Vec<(&str, Mode)> = vec![
            ("seq+12rec", Mode::SeqWithRecoveries(12)),
            (
                "outer-static",
                Mode::Outer {
                    pool: &pool,
                    schedule: Schedule::Static,
                },
            ),
            (
                "outer-dynamic",
                Mode::Outer {
                    pool: &pool,
                    schedule: Schedule::Dynamic(1),
                },
            ),
            (
                "collapsed-static",
                Mode::Collapsed {
                    pool: &pool,
                    schedule: Schedule::Static,
                    recovery: Recovery::OncePerChunk,
                },
            ),
            (
                "collapsed-dynamic-naive",
                Mode::Collapsed {
                    pool: &pool,
                    schedule: Schedule::Dynamic(32),
                    recovery: Recovery::Naive,
                },
            ),
            (
                "collapsed-chunk16-mid-row",
                Mode::Collapsed {
                    pool: &pool,
                    schedule: Schedule::StaticChunk(16),
                    recovery: Recovery::OncePerChunk,
                },
            ),
            (
                "warp-128",
                Mode::Warp {
                    pool: &pool,
                    warp: 128,
                },
            ),
        ];
        for (label, mode) in modes {
            kernel.reset();
            kernel.execute(&mode);
            assert_eq!(kernel.checksum(), reference, "{} under {label}", info.name);
        }
    }
}

#[test]
fn kernel_totals_match_shape_formulas() {
    for kernel in all_kernels(0.08) {
        let info = kernel.info();
        // Every kernel's collapsed total must equal the brute-force
        // count of its bound nest.
        assert_eq!(
            info.total_iterations,
            kernel.bound_nest().count_brute(),
            "{}",
            info.name
        );
        assert_eq!(info.collapsed_loops, 2, "{}", info.name);
    }
}

#[test]
fn collapsed_outperforms_outer_static_on_balance() {
    // Not a timing test (CI noise) — an *iteration distribution* test:
    // the imbalance factor of collapsed-static must beat outer-static
    // on every triangular kernel.
    let pool = ThreadPool::new(5);
    for kernel in all_kernels(0.15) {
        let info = kernel.info();
        let outer = nrl::core::run_outer_parallel(
            &pool,
            kernel.bound_nest(),
            Schedule::Static,
            |_t, _p| {},
        );
        let flat = kernel.collapsed().runner(&pool).run(|_t, _p| {}).report;
        assert!(
            flat.iteration_imbalance() <= outer.iteration_imbalance() + 1e-9,
            "{}: collapsed ×{:.3} vs outer ×{:.3}",
            info.name,
            flat.iteration_imbalance(),
            outer.iteration_imbalance()
        );
    }
}
