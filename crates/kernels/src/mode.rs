//! Execution modes shared by every kernel, mapping one-to-one onto the
//! configurations the paper's experiments compare.

use nrl_core::{run_outer_parallel, run_seq, Collapsed, Recovery, RowWalker, Schedule, ThreadPool};
use nrl_polyhedra::BoundNest;
use std::time::{Duration, Instant};

/// One execution configuration of a kernel.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// Original sequential nest.
    Seq,
    /// Serial collapsed execution with `k` costly recoveries spread
    /// evenly over the range — the paper's Fig. 10 protocol ("root
    /// evaluations performed 12 times, simulating 12 threads").
    SeqWithRecoveries(usize),
    /// Outer loop parallelized (`#pragma omp parallel for` on the
    /// original nest).
    Outer {
        /// Thread pool to run on.
        pool: &'a ThreadPool,
        /// OpenMP schedule for the outer loop.
        schedule: Schedule,
    },
    /// Collapsed loop under the given schedule and recovery strategy.
    Collapsed {
        /// Thread pool to run on.
        pool: &'a ThreadPool,
        /// OpenMP schedule for the flattened `pc` loop.
        schedule: Schedule,
        /// Index-recovery strategy (§V).
        recovery: Recovery,
    },
    /// §VI.B GPU-warp simulation with the given warp width.
    Warp {
        /// Thread pool whose threads act as warp lanes.
        pool: &'a ThreadPool,
        /// Number of lanes.
        warp: usize,
    },
}

impl Mode<'_> {
    /// A short label for harness tables.
    pub fn label(&self) -> String {
        match self {
            Mode::Seq => "seq".into(),
            Mode::SeqWithRecoveries(k) => format!("seq+{k}rec"),
            Mode::Outer { schedule, .. } => format!("outer-{}", schedule.label()),
            Mode::Collapsed {
                schedule, recovery, ..
            } => format!("collapsed-{}-{recovery:?}", schedule.label()),
            Mode::Warp { warp, .. } => format!("warp-{warp}"),
        }
    }
}

/// Runs `body` over the nest under `mode`, returning the elapsed wall
/// time. This is the single shared driver every kernel delegates to.
pub fn execute_mode<B>(nest: &BoundNest, collapsed: &Collapsed, mode: &Mode, body: B) -> Duration
where
    B: Fn(usize, &[i64]) + Sync,
{
    let start = Instant::now();
    match mode {
        Mode::Seq => run_seq(nest, |p| body(0, p)),
        Mode::SeqWithRecoveries(k) => {
            let total = collapsed.total();
            let d = collapsed.depth();
            if total > 0 && d > 0 {
                let chunks = (*k).max(1) as i128;
                let mut point = vec![0i64; d];
                // Split 1..=total into `k` near-equal chunks; recover at
                // each chunk head, then walk its rows (Fig. 4 scheme run
                // serially).
                let base = total / chunks;
                let rem = total % chunks;
                let mut pc = 1i128;
                for c in 0..chunks {
                    let len = base + i128::from(c < rem);
                    if len == 0 {
                        continue;
                    }
                    collapsed.unrank_into(pc, &mut point);
                    let mut walker = RowWalker::anchor(collapsed.nest(), &point);
                    walker.walk(len as u64, || false, |p| body(0, p));
                    pc += len;
                }
            }
        }
        Mode::Outer { pool, schedule } => {
            run_outer_parallel(pool, nest, *schedule, body);
        }
        Mode::Collapsed {
            pool,
            schedule,
            recovery,
        } => {
            collapsed
                .runner(pool)
                .schedule(*schedule)
                .recovery(*recovery)
                .run(body);
        }
        Mode::Warp { pool, warp } => {
            collapsed.runner(pool).warp(*warp, body);
        }
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrl_core::CollapseSpec;
    use nrl_polyhedra::NestSpec;
    use std::sync::Mutex;

    #[test]
    fn seq_with_recoveries_visits_every_point_in_order() {
        let nest = NestSpec::correlation();
        let spec = CollapseSpec::new(&nest).unwrap();
        let collapsed = spec.bind(&[15]).unwrap();
        let bound = nest.bind(&[15]);
        let seen = Mutex::new(Vec::new());
        for k in [1usize, 5, 12, 1000] {
            seen.lock().unwrap().clear();
            execute_mode(&bound, &collapsed, &Mode::SeqWithRecoveries(k), |_, p| {
                seen.lock().unwrap().push(p.to_vec());
            });
            let got = seen.lock().unwrap().clone();
            let expect: Vec<Vec<i64>> = nest.enumerate(&[15]).collect();
            assert_eq!(got, expect, "k={k}");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let pool = ThreadPool::new(1);
        let modes = [
            Mode::Seq,
            Mode::SeqWithRecoveries(12),
            Mode::Outer {
                pool: &pool,
                schedule: Schedule::Static,
            },
            Mode::Collapsed {
                pool: &pool,
                schedule: Schedule::Static,
                recovery: Recovery::OncePerChunk,
            },
            Mode::Warp {
                pool: &pool,
                warp: 32,
            },
        ];
        let labels: Vec<String> = modes.iter().map(Mode::label).collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
