//! Guarded (imperfect-nest) kernel variants: the §IX extension shapes
//! in registry form, so the CI smoke can hold the row-segmented
//! guarded executor to the same bit-equal standard as the paper set.
//!
//! Each kernel is the guarded-sinking form of an imperfect program —
//! per loop level `k < depth−1` a prologue statement before the
//! `(k+1)`-th loop header and an epilogue after it closes, plus the
//! innermost body. Every statement instance folds a deterministic
//! integer hash of `(statement, level, prefix)` into a wrapping
//! per-statement accumulator: wrapping integer addition is commutative
//! and associative, so the checksum is **schedule- and
//! order-independent** and must match [`run_seq_guarded`]'s
//! bit-exactly under any collapsed schedule/recovery — a misfired,
//! dropped, or duplicated guard shifts the sum.
//!
//! [`run_seq_guarded`]: nrl_core::imperfect::run_seq_guarded

use crate::mode::Mode;
use crate::registry::{Kernel, KernelInfo};
use nrl_core::imperfect::{run_seq_guarded, NestPosition};
use nrl_core::Collapsed;
use nrl_polyhedra::{BoundNest, NestSpec};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// Deterministic statement-instance hash: `tag` distinguishes
/// prologue/body/epilogue, `level` the guard slot, and every prefix
/// coordinate feeds the mix (so a guard fired at the wrong prefix is
/// caught, not just a miscount).
#[inline]
fn instance_hash(tag: i64, level: usize, prefix: &[i64]) -> i64 {
    let mut h = tag
        .wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64)
        .wrapping_add((level as i64).wrapping_mul(0x517C_C1B7_2722_0A95u64 as i64));
    for &x in prefix {
        h = h.rotate_left(13) ^ x.wrapping_mul(0x2545_F491_4F6C_DD1Du64 as i64);
    }
    h
}

/// A guarded-nest kernel over one of the paper's shapes: supports
/// [`Mode::Seq`]/[`Mode::SeqWithRecoveries`] (both run the sequential
/// guarded reference) and [`Mode::Collapsed`] (the row-segmented
/// guarded executor). Outer-parallel and warp modes have no guarded
/// counterpart and panic.
pub struct GuardedNest {
    name: &'static str,
    shape: &'static str,
    n: usize,
    depth: usize,
    bound: BoundNest,
    collapsed: Collapsed,
    /// Wrapping sums: `[0]` the body, then per guard level `k` the
    /// prologue sum at `1 + 2k` and the epilogue sum at `2 + 2k`.
    sums: Vec<AtomicI64>,
}

impl GuardedNest {
    fn new(name: &'static str, shape: &'static str, nest: &NestSpec, n: usize) -> Self {
        let (bound, collapsed) = super::build_collapse(nest, &[n as i64]);
        let depth = collapsed.depth();
        let sums = (0..1 + 2 * depth.saturating_sub(1))
            .map(|_| AtomicI64::new(0))
            .collect();
        GuardedNest {
            name,
            shape,
            n,
            depth,
            bound,
            collapsed,
            sums,
        }
    }

    /// The guarded correlation triangle (Fig. 1 with a level-0
    /// prologue/epilogue pair — the `imperfect_rows` example's shape).
    pub fn correlation(n: usize) -> Self {
        GuardedNest::new(
            "correlation_guarded",
            "triangular",
            &NestSpec::correlation(),
            n,
        )
    }

    /// The guarded figure-6 tetrahedron: three levels, so prologues and
    /// epilogues fire at two distinct guard slots.
    pub fn figure6(n: usize) -> Self {
        GuardedNest::new("figure6_guarded", "tetrahedral", &NestSpec::figure6(), n)
    }

    /// The statement bodies, shared by the sequential reference and the
    /// collapsed executor so the two sums can only diverge if the
    /// *guards* diverge.
    #[inline]
    fn visit(&self, point: &[i64], pos: NestPosition) {
        for k in pos.prologues() {
            self.sums[1 + 2 * k].fetch_add(instance_hash(1, k, &point[..=k]), Ordering::Relaxed);
        }
        self.sums[0].fetch_add(instance_hash(0, 0, point), Ordering::Relaxed);
        for k in pos.epilogues() {
            self.sums[2 + 2 * k].fetch_add(instance_hash(2, k, &point[..=k]), Ordering::Relaxed);
        }
    }
}

impl Kernel for GuardedNest {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: self.name,
            shape: format!("{} (guarded imperfect)", self.shape),
            size: format!("N={}", self.n),
            total_iterations: self.collapsed.total() as u128,
            collapsed_loops: self.depth,
        }
    }

    fn reset(&mut self) {
        for s in &self.sums {
            s.store(0, Ordering::Relaxed);
        }
    }

    fn execute(&mut self, mode: &Mode) -> Duration {
        let start = Instant::now();
        match mode {
            Mode::Seq | Mode::SeqWithRecoveries(_) => {
                run_seq_guarded(&self.bound, |p, pos| self.visit(p, pos));
            }
            Mode::Collapsed {
                pool,
                schedule,
                recovery,
            } => {
                self.collapsed
                    .runner(pool)
                    .schedule(*schedule)
                    .recovery(*recovery)
                    .run_guarded(|_tid, p, pos| self.visit(p, pos));
            }
            Mode::Outer { .. } | Mode::Warp { .. } => {
                panic!("guarded kernels support Seq and Collapsed modes only")
            }
        }
        start.elapsed()
    }

    fn checksum(&self) -> f64 {
        // Fold the per-statement sums into one value and truncate to 52
        // bits so the result is exactly representable in an f64 (the
        // registry compares checksums with `==`; NaN patterns and
        // rounding must be impossible).
        let mut h = 0i64;
        for s in &self.sums {
            h = h.rotate_left(7).wrapping_add(s.load(Ordering::Relaxed));
        }
        ((h as u64) & ((1u64 << 52) - 1)) as f64
    }

    fn collapsed(&self) -> &Collapsed {
        &self.collapsed
    }

    fn bound_nest(&self) -> &BoundNest {
        &self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrl_core::{Recovery, Schedule, ThreadPool};

    #[test]
    fn guarded_checksums_match_sequential_reference() {
        let pool = ThreadPool::new(4);
        for mut kernel in [GuardedNest::correlation(40), GuardedNest::figure6(16)] {
            kernel.execute(&Mode::Seq);
            let reference = kernel.checksum();
            for (schedule, recovery) in [
                (Schedule::Static, Recovery::OncePerChunk),
                (Schedule::Dynamic(7), Recovery::OncePerChunk),
                (Schedule::Guided(2), Recovery::OncePerChunk),
                (Schedule::StaticChunk(3), Recovery::OncePerChunk),
                (Schedule::Dynamic(5), Recovery::Naive),
            ] {
                kernel.reset();
                kernel.execute(&Mode::Collapsed {
                    pool: &pool,
                    schedule,
                    recovery,
                });
                assert_eq!(
                    kernel.checksum(),
                    reference,
                    "{} under {schedule:?}/{recovery:?}",
                    kernel.info().name
                );
            }
        }
    }

    #[test]
    fn distinct_guard_slots_feed_distinct_sums() {
        let mut kernel = GuardedNest::figure6(10);
        kernel.execute(&Mode::Seq);
        // Depth 3: body + 2 prologue + 2 epilogue slots, all live.
        assert_eq!(kernel.sums.len(), 5);
        for (i, s) in kernel.sums.iter().enumerate() {
            assert_ne!(s.load(Ordering::Relaxed), 0, "sum slot {i} never fired");
        }
    }

    #[test]
    #[should_panic(expected = "Seq and Collapsed")]
    fn warp_mode_is_rejected() {
        let pool = ThreadPool::new(1);
        let mut kernel = GuardedNest::correlation(10);
        kernel.execute(&Mode::Warp {
            pool: &pool,
            warp: 8,
        });
    }
}
