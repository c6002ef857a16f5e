#![warn(missing_docs)]
//! Shared harness utilities for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one figure of the paper (see
//! DESIGN.md §6 for the experiment index and EXPERIMENTS.md for recorded
//! results). The helpers here keep the binaries small: a tiny
//! `--key value` argument parser, repetition/timing helpers, and table
//! rendering.

use std::time::Duration;

pub mod compare;

/// Minimal `--key value` / `--flag` command-line parser.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(key) = raw[i].strip_prefix("--") {
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                let consumed = value.is_some();
                pairs.push((key.to_string(), value));
                i += if consumed { 2 } else { 1 };
            } else {
                i += 1;
            }
        }
        Args { pairs }
    }

    /// Builds from a prepared list (for tests).
    pub fn from_pairs(pairs: Vec<(String, Option<String>)>) -> Self {
        Args { pairs }
    }

    /// String value of `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parsed value of `--key`, falling back to `default`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// True if `--key` was present (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }
}

/// Times `f` `reps` times (after `warmup` unrecorded runs) and returns
/// the mean duration, matching the paper's average-of-runs protocol.
pub fn time_mean<F: FnMut() -> Duration>(reps: usize, warmup: usize, mut f: F) -> Duration {
    for _ in 0..warmup {
        let _ = f();
    }
    let mut acc = Duration::ZERO;
    let reps = reps.max(1);
    for _ in 0..reps {
        acc += f();
    }
    acc / reps as u32
}

/// Times `f` `reps` times (after `warmup` unrecorded runs) and returns
/// the **median** — markedly more robust than the mean on shared/noisy
/// machines, which is what the harness defaults to.
pub fn time_median<F: FnMut() -> Duration>(reps: usize, warmup: usize, mut f: F) -> Duration {
    for _ in 0..warmup {
        let _ = f();
    }
    let reps = reps.max(1);
    let mut samples: Vec<Duration> = (0..reps).map(|_| f()).collect();
    samples.sort_unstable();
    samples[reps / 2]
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// `cell` as printed for a run requested under `schedule` on an
/// `nthreads` pool: marked `(as static)` when the pool runs it as the
/// single static block instead (a one-thread pool, see
/// [`Schedule::effective`](nrl_parfor::Schedule::effective)), so a
/// table never shows a schedule it did not measure.
pub fn as_run(cell: String, schedule: nrl_parfor::Schedule, nthreads: usize) -> String {
    if schedule.effective(nthreads) == schedule {
        cell
    } else {
        format!("{cell} (as static)")
    }
}

/// A plain-text table printer with right-aligned numeric columns.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "table arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..ncols {
                if c > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[c];
                if c == 0 {
                    line.push_str(&format!("{cell:<width$}", width = widths[c]));
                } else {
                    line.push_str(&format!("{cell:>width$}", width = widths[c]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parsing() {
        let args = Args::from_pairs(vec![
            ("threads".into(), Some("8".into())),
            ("paper".into(), None),
            ("only".into(), Some("utma".into())),
        ]);
        assert_eq!(args.get_or("threads", 1usize), 8);
        assert_eq!(args.get_or("reps", 3usize), 3);
        assert!(args.has("paper"));
        assert!(!args.has("missing"));
        assert_eq!(args.get("only"), Some("utma"));
    }

    #[test]
    fn table_rendering_aligns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["x".into(), "1.0".into()]);
        t.row(vec!["longer".into(), "123.456".into()]);
        let text = t.render();
        assert!(text.contains("name"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.000 ms");
        assert!(fmt_duration(Duration::from_micros(7)).contains("µs"));
    }

    #[test]
    fn time_mean_averages() {
        let d = time_mean(4, 0, || Duration::from_millis(10));
        assert_eq!(d, Duration::from_millis(10));
    }
}
