//! Small shared pieces: the seeded generator, order statistics, the
//! metric map printed as JSON, and process-level measurements.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// SplitMix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed`, so a seed fixes the inputs exactly.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one purpose (`salt`) of one seed.
    pub fn derive(seed: u64, salt: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ salt);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A value in `[-1, 1)` with 2^-20 resolution, exactly
    /// representable, so sums in a different order stay comparable.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 43) as f64 / (1u64 << 20) as f64 - 1.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation
/// between order statistics; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Length of the windows the end-to-end metrics are computed over.
pub const WINDOW_S: f64 = 0.5;

/// Windows in a phase of `seconds` (at least one).
pub fn windows(seconds: f64) -> usize {
    ((seconds / WINDOW_S).floor() as usize).max(1)
}

/// Turns one window's samples into metric values.
type Reduce<'a, S> = Box<dyn FnMut(&[S], &mut Windowed) + Send + 'a>;

/// A phase's samples, collected one window at a time: the workload
/// closes each window with the pace factor of the reference samples
/// taken in it (see [`crate::pace`]); the window's samples are then
/// reduced to metric values and dropped, so the memory the benchmark holds (and the
/// `peak_rss_mb` it reports) does not grow with throughput.
pub struct WindowLog<'a, S> {
    buf: Vec<S>,
    reduce: Reduce<'a, S>,
    out: Windowed,
}

impl<'a, S> WindowLog<'a, S> {
    /// A log whose metrics follow the pace with `exponent` unless
    /// pushed with their own (see [`Windowed`]).
    pub fn new(exponent: f64, reduce: impl FnMut(&[S], &mut Windowed) + Send + 'a) -> Self {
        WindowLog {
            buf: Vec::new(),
            reduce: Box::new(reduce),
            out: Windowed {
                exponent,
                ..Windowed::default()
            },
        }
    }

    pub fn push(&mut self, sample: S) {
        self.buf.push(sample);
    }

    /// Ends the current window; `pace` is its pace factor (see
    /// [`crate::pace::Pace::take`]).
    pub fn close(&mut self, pace: f64) {
        if !self.buf.is_empty() {
            self.out.pace = pace;
            (self.reduce)(&self.buf, &mut self.out);
            self.buf.clear();
        }
    }

    pub fn finish(self) -> Metrics {
        self.out.finish()
    }
}

/// Per-window values of the end-to-end metrics, paced (see
/// [`crate::pace`]): a time (unit `s`, `ms` or `us`) is multiplied by
/// the window's pace factor to the power of the metric's exponent and
/// a rate (unit `1/…`) divided by it. Each metric is reported as the
/// median of its per-window values.
#[derive(Default)]
pub struct Windowed {
    values: BTreeMap<&'static str, (Vec<f64>, &'static str)>,
    pace: f64,
    exponent: f64,
}

impl Windowed {
    /// Records a metric that follows the pace with the log's exponent.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push_paced(name, value, unit, self.exponent);
    }

    /// Records a metric that follows the pace with `exponent`.
    pub fn push_paced(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        exponent: f64,
    ) {
        if !value.is_finite() {
            return;
        }
        let factor = self.pace.powf(exponent);
        let paced = match unit {
            "s" | "ms" | "us" => value * factor,
            _ if unit.starts_with("1/") => value / factor,
            _ => value,
        };
        self.values
            .entry(name)
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(paced);
    }

    pub fn finish(self) -> Metrics {
        let mut m = Metrics::default();
        for (name, (values, unit)) in self.values {
            m.set(name, median(&values), unit);
        }
        m
    }
}

/// A counter on its own cache line: one per worker or client, so
/// bodies that update them never share a line.
#[derive(Default)]
#[repr(align(128))]
pub struct Padded(pub AtomicU64);

impl Padded {
    /// Adds `v` to a slot only its owner thread writes: a plain
    /// load and store, never a contended read-modify-write.
    pub fn bump(&self, v: u64) {
        let cur = self.0.load(Ordering::Relaxed);
        self.0.store(cur.wrapping_add(v), Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Reports a failed operation on standard error: only the first few
/// of the process, so a systematic failure does not flood the log.
pub fn report_failure(what: impl FnOnce() -> String) {
    static REPORTED: AtomicU64 = AtomicU64::new(0);
    if REPORTED.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("perfbench: failed: {}", what());
    }
}

/// Threads the machine offers; every pool, worker and client count is
/// capped by it. Read once, before any workload narrows the process's
/// CPU mask (see [`on_one_cpu`]).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f` with the calling thread, and every thread started while it
/// runs, restricted to one CPU (the highest in the current mask); the
/// mask is restored afterwards. Where the mask cannot be read or set,
/// `f` runs unrestricted (the provenance line's `cpus` shows which).
pub fn on_one_cpu<R>(f: impl FnOnce() -> R) -> R {
    let Some(saved) = affinity::get() else {
        return f();
    };
    let mut one = [0u64; affinity::WORDS];
    if let Some((w, bits)) = saved.iter().enumerate().rev().find(|(_, b)| **b != 0) {
        one[w] = 1 << (63 - bits.leading_zeros());
    }
    let pinned = affinity::set(&one);
    let r = f();
    if pinned && !affinity::set(&saved) {
        eprintln!("perfbench: could not restore the CPU mask");
    }
    r
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Words of glibc's `cpu_set_t` (1024 CPUs).
    pub const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU mask; false if the kernel refused.
    pub fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub const WORDS: usize = 16;

    pub fn get() -> Option<[u64; WORDS]> {
        None
    }

    pub fn set(_: &[u64; WORDS]) -> bool {
        false
    }
}

/// Peak resident set of this process in MB (`VmHWM`), Linux only.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Named metrics with their units, printed in name order.
#[derive(Default, Debug, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map(|m| m.0).unwrap_or(f64::NAN)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust prints (non-finite values,
/// which JSON cannot carry, become `null` and fail any reader's parse
/// of that metric loudly instead of silently).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(8);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
