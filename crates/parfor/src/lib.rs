#![warn(missing_docs)]
//! An OpenMP-like `parallel for` runtime.
//!
//! The paper's evaluation compares three scheduling policies on the same
//! loop: OpenMP `schedule(static)`, `schedule(dynamic)`, and the
//! collapsed loop re-scheduled statically. To reproduce those comparisons
//! faithfully in Rust we implement the OpenMP iteration-distribution
//! policies directly (rather than borrowing rayon's work-stealing, which
//! has no OpenMP counterpart):
//!
//! * [`Schedule::Static`] — one contiguous block per thread (the default
//!   `schedule(static)` of libgomp),
//! * [`Schedule::StaticChunk`] — round-robin chunks (`schedule(static,
//!   chunk)`),
//! * [`Schedule::Dynamic`] — first-come-first-served chunks off an atomic
//!   counter (`schedule(dynamic, chunk)`),
//! * [`Schedule::Guided`] — exponentially shrinking chunks
//!   (`schedule(guided, min)`).
//!
//! [`ThreadPool`] keeps persistent workers between loops, so a
//! `parallel_for` costs two synchronization rounds (dispatch + join), not
//! thread spawns — mirroring an OpenMP parallel region. Like libgomp
//! under `OMP_WAIT_POLICY`, a waiting thread spins before it sleeps: an
//! idle worker polls for the next job, and the caller for the join, for
//! up to 100 µs (yielding the CPU every 64 polls) before parking on a
//! condvar, so back-to-back loops hand off without a kernel wake-up.
//! The yields let a pool with more threads than CPUs spin too: a waiter
//! hands its CPU to the thread it waits for. Per-thread iteration counts
//! and busy times are recorded for the load-imbalance study (Fig. 2).
//!
//! # Examples
//!
//! ```
//! use nrl_parfor::{Schedule, ThreadPool};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let sum = AtomicU64::new(0);
//! let schedule: Schedule = "dynamic,8".parse().unwrap(); // OMP_SCHEDULE syntax
//! let report = pool.parallel_for(1000, schedule, &|_tid, start, end| {
//!     sum.fetch_add(end - start, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 1000);
//! assert_eq!(report.total_iterations(), 1000);
//! ```

#[cfg(feature = "fault-inject")]
pub mod faults;
pub(crate) mod obs;
pub mod pool;
pub mod schedule;
pub mod scratch;
pub mod stats;
mod sync;
pub mod token;

pub use pool::ThreadPool;
pub use schedule::{ParseScheduleError, Schedule};
pub use scratch::WorkerLocal;
pub use stats::{ImbalanceReport, ThreadStats};
pub use token::{RunOutcome, RunToken, StopCause};
