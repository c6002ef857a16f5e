#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: perfbench/target). All
build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Traced runs (--trace 1) also
write chrome-trace JSON files to <target dir>/perfbench-traces.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["kernels", "serve", "compile"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [binary,
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--trace-out", os.path.join(target, "perfbench-traces")],
        timeout=RUN_TIMEOUT_S,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
