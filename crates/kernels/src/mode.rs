//! Execution modes shared by every kernel, mapping one-to-one onto the
//! configurations the paper's experiments compare.

use nrl_core::{
    run_outer_parallel, run_seq, Collapsed, Recovery, RunOutcome, RunToken, Schedule, ThreadPool,
};
use nrl_polyhedra::BoundNest;
use nrl_serve::{CollapseService, RunRequest, RunWork, Tenant};
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
    /// Collapsed execution observing a [`RunToken`]: the run can be
    /// cancelled or deadlined from outside and reports a
    /// [`RunOutcome`] instead of silently completing.
    CollapsedWith {
        /// Thread pool to run on.
        pool: &'a ThreadPool,
        /// OpenMP schedule for the flattened `pc` loop.
        schedule: Schedule,
        /// Index-recovery strategy (§V).
        recovery: Recovery,
        /// Cancellation/deadline token polled once per row segment.
        token: &'a RunToken,
    },
    /// §VI.B GPU-warp simulation with the given warp width.
    Warp {
        /// Thread pool whose threads act as warp lanes.
        pool: &'a ThreadPool,
        /// Number of lanes.
        warp: usize,
    },
    /// Collapsed execution routed through the serving front
    /// ([`nrl_serve::CollapseService::submit_bound`]): admission, the
    /// bounded FIFO queue, and dispatch onto the service's own pool
    /// all sit on the request path. The smoke configuration for
    /// measuring the serving layer's overhead over a direct run.
    Served {
        /// The service front to route through.
        service: &'a CollapseService,
        /// Tenant the request is admitted as.
        tenant: Tenant,
        /// OpenMP schedule for the flattened `pc` loop.
        schedule: Schedule,
        /// Index-recovery strategy (§V).
        recovery: Recovery,
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
            Mode::CollapsedWith {
                schedule, recovery, ..
            } => format!("collapsed-{}-{recovery:?}-token", schedule.label()),
            Mode::Warp { warp, .. } => format!("warp-{warp}"),
            Mode::Served {
                schedule, recovery, ..
            } => format!("served-{}-{recovery:?}", schedule.label()),
        }
    }
}

/// Runs `body` over the nest under `mode`, returning the elapsed wall
/// time. This is the single shared driver every kernel delegates to.
pub fn execute_mode<B>(nest: &BoundNest, collapsed: &Collapsed, mode: &Mode, body: B) -> Duration
where
    B: Fn(usize, &[i64]) + Sync,
{
    execute_mode_with_outcome(nest, collapsed, mode, body).0
}

/// Like [`execute_mode`], but also reports how the run ended. Modes
/// without a token always complete; [`Mode::CollapsedWith`] surfaces
/// cancellation and deadline expiry with the exact point count.
pub fn execute_mode_with_outcome<B>(
    nest: &BoundNest,
    collapsed: &Collapsed,
    mode: &Mode,
    body: B,
) -> (Duration, RunOutcome)
where
    B: Fn(usize, &[i64]) + Sync,
{
    let start = Instant::now();
    let mut outcome = RunOutcome::Completed;
    match mode {
        Mode::Seq => run_seq(nest, |p| body(0, p)),
        Mode::SeqWithRecoveries(k) => {
            let total = collapsed.total();
            let d = collapsed.depth();
            if total > 0 && d > 0 {
                let chunks = (*k).max(1) as i128;
                let mut point = vec![0i64; d];
                // Split 1..=total into `k` near-equal chunks; recover at
                // each chunk head, then walk rows with the tight
                // innermost loop + odometer carries (Fig. 4 scheme run
                // serially).
                let base = total / chunks;
                let rem = total % chunks;
                let nest_b = collapsed.nest();
                let last = d - 1;
                let mut pc = 1i128;
                for c in 0..chunks {
                    let len = base + i128::from(c < rem);
                    if len == 0 {
                        continue;
                    }
                    collapsed.unrank_into(pc, &mut point);
                    let mut remaining = len;
                    while remaining > 0 {
                        let row_end = nest_b.upper(last, &point);
                        let row_left = (row_end - point[last] + 1) as i128;
                        let take = row_left.min(remaining);
                        for _ in 0..take {
                            body(0, &point);
                            point[last] += 1;
                        }
                        remaining -= take;
                        if remaining > 0 {
                            point[last] -= 1;
                            let more = nest_b.advance(&mut point);
                            debug_assert!(more);
                        }
                    }
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
        Mode::CollapsedWith {
            pool,
            schedule,
            recovery,
            token,
        } => {
            outcome = collapsed
                .runner(pool)
                .schedule(*schedule)
                .recovery(*recovery)
                .token(token)
                .run(body)
                .outcome;
        }
        Mode::Warp { pool, warp } => {
            outcome = collapsed.runner(pool).warp(*warp, body);
        }
        Mode::Served {
            service,
            tenant,
            schedule,
            recovery,
        } => {
            let reply = service
                .submit_bound(
                    collapsed,
                    RunRequest::new(*tenant, RunWork::Body(&body))
                        .with_schedule(*schedule)
                        .with_recovery(*recovery),
                )
                .expect("serve smoke path must admit the request");
            outcome = reply.outcome;
        }
    }
    (start.elapsed(), outcome)
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
        let token = RunToken::new();
        let service = CollapseService::new(nrl_serve::ServeConfig {
            workers: 1,
            ..nrl_serve::ServeConfig::default()
        });
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
            Mode::CollapsedWith {
                pool: &pool,
                schedule: Schedule::Static,
                recovery: Recovery::OncePerChunk,
                token: &token,
            },
            Mode::Warp {
                pool: &pool,
                warp: 32,
            },
            Mode::Served {
                service: &service,
                tenant: nrl_serve::Tenant(0),
                schedule: Schedule::Static,
                recovery: Recovery::OncePerChunk,
            },
        ];
        let labels: Vec<String> = modes.iter().map(Mode::label).collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn collapsed_with_live_token_matches_plain_collapsed() {
        let nest = NestSpec::correlation();
        let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[20]).unwrap();
        let bound = nest.bind(&[20]);
        let pool = ThreadPool::new(2);
        let token = RunToken::new();
        let sum = std::sync::atomic::AtomicI64::new(0);
        let mode = Mode::CollapsedWith {
            pool: &pool,
            schedule: Schedule::Static,
            recovery: Recovery::OncePerChunk,
            token: &token,
        };
        let (_, outcome) = execute_mode_with_outcome(&bound, &collapsed, &mode, |_, p| {
            sum.fetch_add(3 * p[0] + p[1], std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(outcome, RunOutcome::Completed);
        let expect: i64 = nest.enumerate(&[20]).map(|p| 3 * p[0] + p[1]).sum();
        assert_eq!(sum.into_inner(), expect);
    }

    #[test]
    fn served_matches_direct_collapsed_run() {
        let nest = NestSpec::correlation();
        let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[20]).unwrap();
        let bound = nest.bind(&[20]);
        let service = CollapseService::new(nrl_serve::ServeConfig {
            workers: 2,
            ..nrl_serve::ServeConfig::default()
        });
        let sum = std::sync::atomic::AtomicI64::new(0);
        let mode = Mode::Served {
            service: &service,
            tenant: nrl_serve::Tenant(1),
            schedule: Schedule::Dynamic(8),
            recovery: Recovery::OncePerChunk,
        };
        let (_, outcome) = execute_mode_with_outcome(&bound, &collapsed, &mode, |_, p| {
            sum.fetch_add(3 * p[0] + p[1], std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(outcome, RunOutcome::Completed);
        let expect: i64 = nest.enumerate(&[20]).map(|p| 3 * p[0] + p[1]).sum();
        assert_eq!(sum.into_inner(), expect, "served run must cover the domain");
        assert_eq!(service.runs_executed(), 1);
    }

    #[test]
    fn collapsed_with_cancelled_token_runs_nothing() {
        let nest = NestSpec::correlation();
        let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[20]).unwrap();
        let bound = nest.bind(&[20]);
        let pool = ThreadPool::new(2);
        let token = RunToken::new();
        token.cancel();
        let mode = Mode::CollapsedWith {
            pool: &pool,
            schedule: Schedule::Static,
            recovery: Recovery::OncePerChunk,
            token: &token,
        };
        let (_, outcome) = execute_mode_with_outcome(&bound, &collapsed, &mode, |_, _| {
            panic!("body must not run under a pre-cancelled token");
        });
        assert_eq!(outcome, RunOutcome::Cancelled { points_done: 0 });
    }
}
