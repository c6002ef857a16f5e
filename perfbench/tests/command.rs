//! The one command, end to end: each workload passes its output checks
//! and prints the result line, and a deliberately corrupted reference
//! makes the command fail.

use std::process::{Command, Output};

fn run(workload: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.6",
            "--trace",
            "0",
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_passes_its_checks() {
    for w in ["kernels", "serve", "compile"] {
        let out = run(w, &[]);
        let last = result_line(&out);
        assert!(out.status.success(), "{w}: {last}");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{w}: {last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{w}: {last}");
        for metric in [
            "setup_s",
            "peak_rss_mb",
            "ops_per_s",
            "points_per_s",
            "kernel_geomean_ms",
            "op_p50_us",
            "small_p50_us",
            "small_p90_us",
            "large_p50_us",
        ] {
            assert!(
                last.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{w} lacks {metric}: {last}"
            );
        }
    }
}

#[test]
fn corrupted_reference_fails_the_command() {
    for w in ["kernels", "serve", "compile"] {
        let out = run(w, &["--corrupt"]);
        let last = result_line(&out);
        assert!(
            !out.status.success(),
            "{w} passed with a corrupted reference: {last}"
        );
        assert!(last.starts_with("{\"correct\": false,"), "{w}: {last}");
    }
}

#[test]
fn bad_arguments_print_no_result() {
    let out = run("nonesuch", &[]);
    assert!(!out.status.success());
    assert!(!result_line(&out).contains("\"correct\""));
}
