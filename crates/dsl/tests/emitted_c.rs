//! The emitted C, compiled and run: for the paper's correlation and
//! figure-6 nests and the wedge, `generate_c` output under the `Naive`
//! and `Chunked` styles is built with `gcc -fopenmp`, run on three
//! threads at several `N`, and every point it visits is checked, rank
//! by rank, against the plain nest's enumeration.
//!
//! Needs `gcc` on `PATH`, so the test is ignored by default:
//!
//! ```text
//! cargo test --release -p nrl_dsl --test emitted_c -- --ignored
//! ```

use nrl_core::CollapseSpec;
use nrl_dsl::{generate_c, parse, CodegenOptions, CodegenStyle};
use std::path::Path;
use std::process::Command;

const NESTS: [(&str, &str); 3] = [
    (
        "correlation",
        "params N;
         for (i = 0; i < N - 1; i++)
           for (j = i + 1; j < N; j++)
           { rec(pc, i, j, 0); }",
    ),
    (
        "figure6",
        "params N;
         for (i = 0; i < N - 1; i++)
           for (j = 0; j < i + 1; j++)
             for (k = j; k < i + 1; k++)
             { rec(pc, i, j, k); }",
    ),
    (
        "wedge",
        "params N;
         for (i = 0; i < N; i++)
           for (j = i; j < N; j++)
             for (k = 0; k <= j - i; k++)
             { rec(pc, i, j, k); }",
    ),
];

const NS: [i64; 5] = [2, 5, 10, 15, 60];

/// Records each visited point under its rank and prints them in rank
/// order, so the output is deterministic under any thread count; an
/// out-of-range or repeated rank fails the run.
const HARNESS: &str = r#"#include <stdio.h>
#include <stdlib.h>

static long total;
static long *seen; /* per rank: i, j, k, visits */

static void rec(long pc, long i, long j, long k)
{
  if (pc < 1 || pc > total) {
    fprintf(stderr, "rank %ld outside 1..%ld\n", pc, total);
    exit(2);
  }
  long *slot = seen + 4 * (pc - 1);
  slot[0] = i;
  slot[1] = j;
  slot[2] = k;
  slot[3]++;
}
"#;

const MAIN: &str = r#"
int main(int argc, char **argv)
{
  long n = atol(argv[1]);
  total = atol(argv[2]);
  seen = calloc(4 * (total > 0 ? total : 1), sizeof(long));
  collapsed_nest(n);
  for (long r = 0; r < total; r++) {
    long *slot = seen + 4 * r;
    printf("%ld %ld %ld %ld\n", slot[0], slot[1], slot[2], slot[3]);
  }
  return 0;
}
"#;

fn compile(src: &str, dir: &Path, name: &str) -> std::path::PathBuf {
    let c_file = dir.join(format!("{name}.c"));
    let exe = dir.join(name);
    std::fs::write(&c_file, src).unwrap();
    let out = Command::new("gcc")
        .args(["-O1", "-fopenmp", "-o"])
        .arg(&exe)
        .arg(&c_file)
        .arg("-lm")
        .output()
        .expect("gcc must be on PATH");
    assert!(
        out.status.success(),
        "{name}: gcc failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    exe
}

#[test]
#[ignore = "needs gcc"]
fn emitted_c_visits_every_point_at_its_rank() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("emitted_c");
    std::fs::create_dir_all(&dir).unwrap();
    for (nest_name, source) in NESTS {
        let prog = parse(source).unwrap();
        let nest = prog.to_nest().unwrap();
        let spec = CollapseSpec::new(&nest).unwrap();
        for (style_name, style) in [
            ("naive", CodegenStyle::Naive),
            ("chunked", CodegenStyle::Chunked),
        ] {
            let opts = CodegenOptions {
                style,
                ..CodegenOptions::default()
            };
            let code = generate_c(&prog, &spec, &opts).unwrap();
            let name = format!("{nest_name}_{style_name}");
            let exe = compile(&format!("{HARNESS}\n{code}{MAIN}"), &dir, &name);
            for n in NS {
                let expect: Vec<Vec<i64>> = nest.enumerate(&[n]).collect();
                let out = Command::new(&exe)
                    .arg(n.to_string())
                    .arg(expect.len().to_string())
                    .env("OMP_NUM_THREADS", "3")
                    .output()
                    .unwrap();
                assert!(
                    out.status.success(),
                    "{name} N = {n}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let stdout = String::from_utf8(out.stdout).unwrap();
                let lines: Vec<&str> = stdout.lines().collect();
                assert_eq!(lines.len(), expect.len(), "{name} N = {n}: rank count");
                for (rank, (line, point)) in lines.iter().zip(&expect).enumerate() {
                    let mut want: Vec<i64> = point.clone();
                    want.resize(3, 0);
                    want.push(1);
                    let got: Vec<i64> = line.split(' ').map(|v| v.parse().unwrap()).collect();
                    assert_eq!(got, want, "{name} N = {n}: rank {}", rank + 1);
                }
            }
        }
    }
}
