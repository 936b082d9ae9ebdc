#!/usr/bin/env python3
# Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
"""Builds and runs the kwsc benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orp_broad --seed 1 --seconds 10 \
        --trace 0
    python3 perfbench/run.py --selftest

The first call builds perfbench/ (and the library sources in src/) with
CMake into .bench_build/perfbench; later calls rebuild only what changed.
Build output goes to standard error, and the benchmark's own output to
standard output, whose last line is the JSON result. The run's files
(flushed corpus and index files, the span log of a traced run) go to
.bench_build/perfbench-work.

--selftest runs every workload three times for one second: twice with one
seed, whose deterministic counts must be identical, and once with another
seed, whose inputs must differ.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "kwsc_perfbench")
WORKLOADS = ["orp_broad", "orp_selective", "dynamic_mixed", "sharded_topt"]


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "kwsc_perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def run(workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--dir", WORK]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def counts_of(output):
    for line in output.splitlines():
        if line.startswith("counts "):
            return json.loads(line[len("counts "):])
    return None


def selftest():
    ok = True
    for workload in WORKLOADS:
        runs = [run(workload, seed, 1, 0) for seed in (7, 7, 8)]
        counts = [counts_of(out) for _, out in runs]
        passed = (all(code == 0 for code, _ in runs)
                  and None not in counts
                  and counts[0] == counts[1]
                  and counts[0]["fingerprint"] != counts[2]["fingerprint"])
        print("%s %s" % ("ok  " if passed else "FAIL", workload))
        if not passed:
            for code, out in runs:
                print("  exit %d, counts %s" % (code, counts_of(out)))
        ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        return 0 if selftest() else 1
    code, output = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(output)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
