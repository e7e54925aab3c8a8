#!/usr/bin/env python3
"""Failures are counted: adept-isolated under injected worker crashes.

Runs the benchmark with GEVO_FAULT_INJECT=crash@N, which makes the
isolated backend's (N+1)-th dispatched evaluation segfault its worker in
every search of the run (each search builds a fresh backend, and fault
sequence numbers are per backend). The run must still finish, stay
correct (the crashed genotype is quarantined deterministically, so the
repeated search keeps its trajectory), and report exactly one failure per
search, with fail_rate = failed / attempted.

Run from the repository root: python3 perfbench/tests/test_fail_rate.py
"""

import json
import os
import re
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                   "run.py")


def run(env_extra):
    env = dict(os.environ, **env_extra)
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "adept-isolated", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = next(l for l in lines if " searches, run digest " in l)
    searches = int(re.search(r": (\d+) searches", summary).group(1))
    rate = float(re.search(r"fail_rate (\S+)", summary).group(1))
    return result, searches, rate


def main():
    clean, _, clean_rate = run({"GEVO_FAULT_INJECT": ""})
    assert clean["correct"], clean
    assert clean["failed"] == 0 and clean_rate == 0.0, clean

    faulty, searches, rate = run({"GEVO_FAULT_INJECT": "crash@5"})
    assert faulty["correct"], faulty
    assert faulty["failed"] == searches, (faulty["failed"], searches)
    expected = faulty["failed"] / faulty["attempted"]
    assert abs(rate - expected) <= 1e-5 * expected, (rate, expected)
    print(f"ok: {searches} injected crashes counted, fail_rate {rate:.6g} = "
          f"{faulty['failed']}/{faulty['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
