//! Perf-trajectory comparison: diffing two bench JSON documents.
//!
//! The vendored criterion harness emits `{"results": [{"id",
//! "ns_per_iter"}]}` documents; CI keeps one per bench suite at the
//! repository root as the committed baseline and regenerates a fresh
//! one per run. This module implements the regression gate the
//! `bench_compare` binary applies between the two: per-id relative
//! slowdown beyond a threshold — with an absolute noise allowance so
//! nanosecond-scale ids cannot trip the gate on scheduler jitter —
//! fails the job; everything is reported as a markdown table for the
//! job summary.

use std::fmt::Write as _;

/// One `(id, ns_per_iter)` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark id (`group/function/parameter`).
    pub id: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// Parses the criterion-stub JSON document (one result object per
/// line). Unparseable lines are skipped — the format is first-party.
pub fn parse_bench_json(text: &str) -> Vec<BenchResult> {
    text.lines().filter_map(parse_result_line).collect()
}

fn parse_result_line(line: &str) -> Option<BenchResult> {
    let id_start = line.find("\"id\": \"")? + 7;
    let id_end = id_start + line[id_start..].find('"')?;
    let ns_start = line.find("\"ns_per_iter\": ")? + 15;
    let ns_str: String = line[ns_start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    Some(BenchResult {
        id: line[id_start..id_end].to_string(),
        ns_per_iter: ns_str.parse().ok()?,
    })
}

/// Verdict for one benchmark id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the threshold (either direction).
    Ok,
    /// Faster than baseline by more than the threshold.
    Improved,
    /// Slower than baseline beyond threshold *and* noise allowance —
    /// fails the gate.
    Regressed,
    /// Slower beyond the relative threshold but inside the absolute
    /// noise allowance — reported, not failed.
    Noise,
    /// Present only in the current run (no baseline yet).
    New,
    /// Present only in the baseline (bench removed or renamed) —
    /// reported, not failed.
    Missing,
}

/// One row of the comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark id.
    pub id: String,
    /// Baseline ns/iter (`None` for new ids).
    pub baseline: Option<f64>,
    /// Current ns/iter (`None` for missing ids).
    pub current: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

impl Row {
    /// `current / baseline` when both sides exist.
    pub fn ratio(&self) -> Option<f64> {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) if b > 0.0 => Some(c / b),
            _ => None,
        }
    }
}

/// The gate's configuration.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Maximum tolerated slowdown, in percent (e.g. `25.0`).
    pub threshold_pct: f64,
    /// Absolute slowdowns of at most this many ns/iter never fail the
    /// gate (CI-runner jitter floor).
    pub noise_ns: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            threshold_pct: 25.0,
            noise_ns: 30.0,
        }
    }
}

/// Compares `current` against `baseline` under `config`, producing one
/// row per id (baseline order first, then new ids in current order).
pub fn compare(baseline: &[BenchResult], current: &[BenchResult], config: GateConfig) -> Vec<Row> {
    let mut rows = Vec::with_capacity(baseline.len() + current.len());
    for base in baseline {
        let cur = current.iter().find(|r| r.id == base.id);
        let row = match cur {
            None => Row {
                id: base.id.clone(),
                baseline: Some(base.ns_per_iter),
                current: None,
                verdict: Verdict::Missing,
            },
            Some(cur) => {
                let delta = cur.ns_per_iter - base.ns_per_iter;
                let rel = if base.ns_per_iter > 0.0 {
                    delta / base.ns_per_iter
                } else {
                    0.0
                };
                let verdict = if rel > config.threshold_pct / 100.0 {
                    if delta <= config.noise_ns {
                        Verdict::Noise
                    } else {
                        Verdict::Regressed
                    }
                } else if rel < -config.threshold_pct / 100.0 {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                Row {
                    id: base.id.clone(),
                    baseline: Some(base.ns_per_iter),
                    current: Some(cur.ns_per_iter),
                    verdict,
                }
            }
        };
        rows.push(row);
    }
    for cur in current {
        if !baseline.iter().any(|b| b.id == cur.id) {
            rows.push(Row {
                id: cur.id.clone(),
                baseline: None,
                current: Some(cur.ns_per_iter),
                verdict: Verdict::New,
            });
        }
    }
    rows
}

/// The ids that fail the gate.
pub fn regressions(rows: &[Row]) -> Vec<&Row> {
    rows.iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .collect()
}

/// The ids present in the current run but absent from the committed
/// baseline. The `bench_compare` binary fails on these too: a new id
/// with no baseline has no 25%/30 ns gate at all, so letting it pass
/// silently would let every freshly added bench (e.g. `layer/row_walk/*`)
/// dodge the perf trajectory until someone remembers to commit a
/// baseline. The fix is always the same — refresh the committed
/// baseline JSON in the same PR that adds the bench.
pub fn new_ids(rows: &[Row]) -> Vec<&Row> {
    rows.iter().filter(|r| r.verdict == Verdict::New).collect()
}

/// Renders the comparison as a GitHub-flavored markdown table.
pub fn markdown_table(rows: &[Row], config: GateConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| benchmark | baseline ns | current ns | Δ | verdict |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---|");
    for row in rows {
        let fmt = |v: Option<f64>| v.map_or("—".to_string(), |ns| format!("{ns:.2}"));
        let delta = row
            .ratio()
            .map_or("—".to_string(), |r| format!("{:+.1}%", (r - 1.0) * 100.0));
        let verdict = match row.verdict {
            Verdict::Ok => "ok",
            Verdict::Improved => "**improved**",
            Verdict::Regressed => "**REGRESSED**",
            Verdict::Noise => "noise (abs Δ under allowance)",
            Verdict::New => "new (no baseline)",
            Verdict::Missing => "missing from current run",
        };
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            row.id,
            fmt(row.baseline),
            fmt(row.current),
            delta,
            verdict
        );
    }
    let _ = writeln!(
        out,
        "\nGate: fail on > {:.0}% per-id slowdown with absolute Δ > {:.0} ns.",
        config.threshold_pct, config.noise_ns
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(id: &str, ns: f64) -> BenchResult {
        BenchResult {
            id: id.to_string(),
            ns_per_iter: ns,
        }
    }

    #[test]
    fn parses_stub_json() {
        let doc = "{\"results\": [\n  {\"id\": \"unrank/adaptive/x\", \"ns_per_iter\": 151.20},\n  {\"id\": \"odometer\", \"ns_per_iter\": 4.70}\n]}";
        let parsed = parse_bench_json(doc);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id, "unrank/adaptive/x");
        assert!((parsed[1].ns_per_iter - 4.7).abs() < 1e-9);
    }

    #[test]
    fn flags_only_real_regressions() {
        let base = vec![res("a", 100.0), res("b", 100.0), res("tiny", 5.0)];
        // a: +50% and +50ns → regression. b: −40% → improved.
        // tiny: +100% but only +5ns → noise, not a failure.
        let cur = vec![res("a", 150.0), res("b", 60.0), res("tiny", 10.0)];
        let rows = compare(&base, &cur, GateConfig::default());
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Improved);
        assert_eq!(rows[2].verdict, Verdict::Noise);
        assert_eq!(regressions(&rows).len(), 1);
        assert_eq!(regressions(&rows)[0].id, "a");
    }

    #[test]
    fn within_threshold_is_ok() {
        let base = vec![res("a", 100.0)];
        let cur = vec![res("a", 120.0)]; // +20% < 25%
        let rows = compare(&base, &cur, GateConfig::default());
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert!(regressions(&rows).is_empty());
    }

    #[test]
    fn missing_ids_are_reported_but_never_regressions() {
        let base = vec![res("gone", 50.0)];
        let cur = vec![res("fresh", 70.0)];
        let rows = compare(&base, &cur, GateConfig::default());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Missing);
        assert_eq!(rows[1].verdict, Verdict::New);
        assert!(regressions(&rows).is_empty());
    }

    #[test]
    fn new_ids_are_listed_so_the_gate_can_fail_them() {
        let base = vec![res("old", 50.0)];
        let cur = vec![res("old", 50.0), res("autotuned/x", 70.0), res("b", 1.0)];
        let rows = compare(&base, &cur, GateConfig::default());
        let news = new_ids(&rows);
        assert_eq!(news.len(), 2, "every baseline-less id must be surfaced");
        assert_eq!(news[0].id, "autotuned/x");
        assert_eq!(news[1].id, "b");
        assert!(regressions(&rows).is_empty(), "new ≠ regressed");
    }

    #[test]
    fn markdown_includes_all_rows_and_gate_line() {
        let base = vec![res("a", 100.0)];
        let cur = vec![res("a", 200.0)];
        let rows = compare(&base, &cur, GateConfig::default());
        let md = markdown_table(&rows, GateConfig::default());
        assert!(md.contains("| `a` | 100.00 | 200.00 | +100.0% | **REGRESSED** |"));
        assert!(md.contains("Gate: fail on > 25%"));
    }

    #[test]
    fn roundtrips_through_real_document_shape() {
        let doc = "{\"results\": [\n  {\"id\": \"x\", \"ns_per_iter\": 10.00}\n]}";
        let rows = compare(
            &parse_bench_json(doc),
            &parse_bench_json(doc),
            GateConfig::default(),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[0].ratio(), Some(1.0));
    }
}
