#!/usr/bin/env python3
# Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
"""Runs alternating perfbench pairs: a parent revision against this tree.

Run from anywhere inside a checkout:

    python3 tools/perf_pairs.py --parent HEAD~1 --workload dynamic_mixed \
        --pairs 10 --seconds 10 --seed 1 [--trace 1]

--workload takes one workload, a comma-separated list, or `all` for every
workload BENCHMARK.json declares; the workloads run one after another.

The parent revision is exported once with `git archive` into a temporary
directory (under $TMPDIR when set) and removed afterwards. Each side is
built once and run through its own perfbench/run.py, so each builds into
its own checkout's .bench_build/; nothing is written under perfbench/.
Every pair runs both sides once with the same seed, and the side that runs
first alternates from pair to pair.

The report, one per workload, gives for every end-to-end metric
BENCHMARK.json declares each side's median and quartiles, the change/parent
ratio of the medians, how many pairs the change won (by the metric's
`better` direction), and whether the median moved by more than the parent's
interquartile range. A median worse than the metric's bound is marked
WORSE. A metric whose runs spread too widely to read against its bound is
marked UNRESOLVED: either side's interquartile range, as a fraction of that
side's median, exceeds the bound, and not every change run beats every
parent run. With --trace 1 both sides run traced and the rows are the
per-layer metrics instead (those the workload reports; they have no bound,
so neither mark). Then it says whether the two sides' `counts` lines agree
and lists the keys that differ, names any key whose value varied between
the runs of one side, and gives how many operations failed on each side.
Each workload's report ends with one line naming its WORSE and UNRESOLVED
metrics. Exit status: 0, or 1 when any run failed.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(revision, into):
    """Writes the tree of `revision` into the directory `into`."""
    archive = os.path.join(into, "parent.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o",
                    archive, revision], check=True)
    tree = os.path.join(into, "parent")
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:
            tar.extractall(tree)
    os.remove(archive)
    return tree


def runner(tree, name):
    """Imports `tree`/perfbench/run.py as a module and builds it."""
    sys.dont_write_bytecode = True  # No __pycache__ under perfbench/.
    spec = importlib.util.spec_from_file_location(
        "perfbench_run_" + name, os.path.join(tree, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not module.build():
        sys.exit("perf_pairs: the %s side does not build" % name)
    return module


def parse(output):
    """The counts dict and the result dict of one run's standard output."""
    counts, result = None, None
    for line in output.splitlines():
        if line.startswith("counts "):
            counts = json.loads(line[len("counts "):])
        elif line.startswith("{"):
            result = json.loads(line)
    return counts, result


def differing_keys(a, b):
    """The keys whose values differ between two counts dicts."""
    return {k for k in set(a) | set(b) if a.get(k) != b.get(k)}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_pairs(sides, workload, metrics, args):
    """Runs `args.pairs` alternating pairs of `workload` and prints its
    report. Returns 1 when a run failed, else 0."""
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    counts = {side: None for side in sides}
    varying = {side: set() for side in sides}
    failed = {side: 0 for side in sides}
    status = 0
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else [
            "change", "parent"]
        results = {}
        for side in order:
            code, output = sides[side].run(workload, args.seed, args.seconds,
                                           args.trace)
            run_counts, result = parse(output)
            if code != 0 or result is None or run_counts is None:
                print("%s pair %d: %s run exited %d"
                      % (workload, pair, side, code))
                status = 1
                continue
            if counts[side] is None:
                counts[side] = run_counts
            varying[side] |= differing_keys(counts[side], run_counts)
            failed[side] += result.get("failed", 0)
            results[side] = result["metrics"]
        if len(results) == len(sides):  # Keep the pairs aligned.
            for side, result in results.items():
                for m in metrics:
                    values[side][m["name"]].append(result[m["name"]]["value"])
        print("# %s pair %d/%d done" % (workload, pair + 1, args.pairs),
              file=sys.stderr, flush=True)

    print("%s, seed %d, %d pairs of %g s %sruns, parent %s against this tree"
          % (workload, args.seed, args.pairs, args.seconds,
             "traced " if args.trace else "", args.parent))
    width = max(len(m["name"]) for m in metrics)
    marked = {"WORSE": [], "UNRESOLVED": []}
    print("%-*s %28s %28s %7s %6s %8s" % (
        width, "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "ratio", "wins", "gain>IQR"))
    for m in metrics:
        name = m["name"]
        parent, change = values["parent"][name], values["change"][name]
        pairs = list(zip(parent, change))
        if not any(parent + change):  # Not run, or not this workload's.
            continue
        lower = m["better"] == "lower"
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        pm, cm = statistics.median(parent), statistics.median(change)
        p1, p3 = quartiles(parent)
        c1, c3 = quartiles(change)
        ratio = cm / pm if pm else float("nan")
        gain = (pm - cm) if lower else (cm - pm)
        bound = m.get("bound", float("inf"))
        worse = (ratio > 1 + bound) if lower else (ratio < 1 - bound)
        spread = max((p3 - p1) / pm if pm else 0, (c3 - c1) / cm if cm else 0)
        separated = (max(change) < min(parent) if lower
                     else min(change) > max(parent))
        unresolved = spread > bound and not separated
        flags = ""
        if worse:
            flags += "  WORSE (bound %g)" % bound
            marked["WORSE"].append(name)
        if unresolved:
            flags += "  UNRESOLVED (IQR %.3g of median)" % spread
            marked["UNRESOLVED"].append(name)
        print("%-*s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %7.3f "
              "%3d/%-2d %8s%s" % (
                  width, name, pm, p1, p3, cm, c1, c3, ratio, wins,
                  len(pairs),
                  "yes" if gain > p3 - p1 else "no", flags))
    print("failed operations: parent %d, change %d"
          % (failed["parent"], failed["change"]))
    if counts["parent"] is None or counts["change"] is None:
        print("counts: missing on one side")
        status = 1
    else:
        differ = sorted(differing_keys(counts["parent"], counts["change"]))
        if not differ:
            print("counts: identical")
        for k in differ:
            print("counts differ: %s parent %s change %s"
                  % (k, counts["parent"].get(k), counts["change"].get(k)))
    for side in sides:
        if varying[side]:
            print("counts vary between the %s runs: %s"
                  % (side, ", ".join(sorted(varying[side]))))
    print("%s: WORSE %s; UNRESOLVED %s" % (
        workload, ", ".join(marked["WORSE"]) or "none",
        ", ".join(marked["UNRESOLVED"]) or "none"))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: run traced, report the per-layer metrics")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]
    declared = [w["name"] for w in benchmark["workloads"]]
    workloads = (declared if args.workload == "all"
                 else [w for w in args.workload.split(",") if w])
    unknown = [w for w in workloads if w not in declared]
    if unknown or not workloads:
        sys.exit("perf_pairs: unknown workload %s (declared: %s)"
                 % (", ".join(unknown) or "''", ", ".join(declared)))

    workdir = tempfile.mkdtemp(prefix="perf_pairs_")
    status = 0
    try:
        sides = {"parent": runner(export(args.parent, workdir), "parent"),
                 "change": runner(ROOT, "change")}
        for i, workload in enumerate(workloads):
            if i > 0:
                print()
            status |= run_pairs(sides, workload, metrics, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
