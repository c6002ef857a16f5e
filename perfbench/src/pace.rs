//! The machine's pace: a fixed piece of benchmark-owned work, sampled
//! between the operations of each window (and around the set-ups),
//! against which the times measured in that window are scaled.
//!
//! On a shared host the same code ran up to 1.5–2× slower for seconds
//! to minutes at a time, in steps, while neighbours competed for the
//! caches. The reference work below (building and walking an ordered
//! map of short strings, as the symbolic layers and the request path
//! build and walk small heap structures) slowed in the same seconds:
//! over a 60 s run of the `compile` pipeline with the reference run
//! between its units, the pipeline's per-2-second medians varied by 21%
//! (coefficient of variation) and their ratio to the reference by 3%.
//! A plain arithmetic loop (4% variation of its own) and random memory
//! reads did not follow the pipeline.
//!
//! A paced time is `raw × (NOMINAL_US / reference)^e`, where
//! `reference` is the median of the window's samples and `e` is how
//! strongly the metric follows the reference (each workload's
//! `PACE_EXPONENT`, fitted on the loaded host; see README.md). The
//! reference does not call the library, so a change to the library
//! moves paced times exactly as it moves raw ones. Samples are timed in
//! the sampling thread's CPU time, so a sample that another thread of
//! the benchmark preempts (the serve workload shares one CPU) is not
//! stretched by the wait.

use std::collections::BTreeMap;
use std::hint::black_box;

/// Time of one reference sample (µs) that paced times are scaled to:
/// about its median on a two-vCPU Xeon guest in a quiet period.
pub const NOMINAL_US: f64 = 45.0;
/// Entries of the reference map.
const KEYS: usize = 200;
/// Samples taken when a window has none.
const REPS: usize = 15;

/// The reference work: an ordered map of `KEYS` short string keys to
/// small vectors, built in a scattered order and walked.
fn reference_work() -> usize {
    let mut map = BTreeMap::new();
    for i in 0..KEYS {
        map.insert(format!("k{}", (i * 7919) % KEYS), vec![i; 3]);
    }
    map.iter().map(|(k, v)| k.len() + v[0]).sum()
}

/// Reference samples of one window.
#[derive(Default)]
pub struct Pace {
    us: Vec<f64>,
}

impl Pace {
    /// Runs the reference work twice on the calling thread and keeps
    /// the time of the second run: the first brings its data back into
    /// the caches the workload's own operations evicted.
    pub fn sample(&mut self) {
        black_box(reference_work());
        let t0 = cpu::now_ns();
        black_box(reference_work());
        self.us.push((cpu::now_ns() - t0) as f64 / 1e3);
    }

    /// Moves `other`'s samples into this window.
    pub fn absorb(&mut self, other: &mut Pace) {
        self.us.append(&mut other.us);
    }

    /// The window's pace factor, `NOMINAL_US` over the median sample
    /// (a time `t` paces to `t × factor^e`, where `e` is how strongly
    /// the metric follows the reference); starts the next window. A
    /// window without samples is sampled now.
    pub fn take(&mut self) -> f64 {
        if self.us.is_empty() {
            (0..REPS).for_each(|_| self.sample());
        }
        let reference = crate::util::median(&self.us);
        self.us.clear();
        NOMINAL_US / reference
    }
}

#[cfg(target_os = "linux")]
mod cpu {
    use std::ffi::c_long;

    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// CPU time of the calling thread (ns).
    pub fn now_ns() -> u64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a writable timespec; the clock id is valid
        // on every Linux.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "thread CPU clock");
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Elapsed time since first use (ns): without a thread CPU clock,
    /// samples are timed by the wall clock.
    pub fn now_ns() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}
