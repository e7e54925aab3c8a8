#!/usr/bin/env python3
"""Build and run the gevo search benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stencil-tail --seed 1 \
        --seconds 40 --trace 0

The first run configures and builds perfbench/ (the gevo library from
src/ plus the benchmark program) under $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only re-check it. Build output goes
to standard error. The benchmark's last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Any build or
run failure exits non-zero without printing that line.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("simcov-steady", "stencil-tail", "adept-isolated")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build(build_dir):
    """Configure and build; returns the benchmark binary path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 2**31:
        ap.error("--seed must be in [0, 2^31)")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work_dir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
