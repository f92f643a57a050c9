#!/usr/bin/env python3
"""Tests of the benchmark's own correctness checks.

    python3 perfbench/test_checks.py

Run from the root of a checkout, after (or instead of) a first
perfbench/run.py, which it uses to build. It runs the binary's self-test
(every check passes on a true input and fails on a perturbed one), then
short end-to-end runs: one clean run per workload, which must report
correct outputs, and one run per check with that check's input perturbed,
which must report incorrect outputs. Exits non-zero on any failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "rac_perfbench")

# (workload, perturbed check); None runs the workload unperturbed.
CASES = [
    ("paper-contexts", None),
    ("flash-day", None),
    ("fleet", None),
    ("paper-contexts", "mva"),
    ("paper-contexts", "bound"),
    ("paper-contexts", "ranges"),
    ("paper-contexts", "static"),
    ("paper-contexts", "checkpoint"),
    ("fleet", "checkpoint"),
    ("fleet", "sink"),
]


def run(workload, perturb):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    if perturb:
        command += ["--perturb", perturb]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    failures = 0
    run("paper-contexts", None)  # builds the binary if needed
    if subprocess.run([BINARY, "--self-test"], cwd=ROOT).returncode != 0:
        failures += 1
    for workload, perturb in CASES:
        result = run(workload, perturb)
        expected = perturb is None
        ok = result["correct"] == expected and result["failed"] == (
            1 if perturb == "ranges" else 0)
        print("%s: %s %s -> correct=%s failed=%d" % (
            "ok  " if ok else "FAIL", workload, perturb or "(clean)",
            result["correct"], result["failed"]))
        failures += 0 if ok else 1
    print("all checks behave" if failures == 0 else "%d failures" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
