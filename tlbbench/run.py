#!/usr/bin/env python3
"""Builds the tlbmap benchmark from source and runs one workload.

Run from the repository root:

    python3 tlbbench/run.py --workload W --seed 1 --seconds 30 --trace 0

with W one of paper-suite, manycore-256, online-churn.

The build goes to .bench_build/tlbbench (Release) and temporary files to
.bench_build/tmp. Build output goes to stderr; the benchmark's standard
output is passed through unchanged, so its last line is the JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("paper-suite", "manycore-256", "online-churn")
# Every run must end well inside three minutes; the first run of a fresh
# checkout also compiles the library.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"tlbbench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(root):
    source = root / "tlbbench"
    binary_dir = root / ".bench_build" / "tlbbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "-S", str(source), "-B", str(binary_dir),
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        return None
    if not run_quiet(["cmake", "--build", str(binary_dir), "-j", jobs,
                      "--target", "tlbbench"], BUILD_TIMEOUT_S):
        return None
    exe = binary_dir / "tlbbench"
    return exe if exe.is_file() else None


def main():
    args = parse_args()
    root = pathlib.Path.cwd()
    # Keep the compiler's and the library's temporary files in the checkout.
    tmp = root / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    exe = build(root)
    if exe is None:
        print("tlbbench: build failed", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "work"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("tlbbench: run timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
