#!/usr/bin/env python3
"""Exact-repeat test of perfbench's host-independent counts.

For every workload in BENCHMARK.json: two traced runs of one seed must
print identical anchors (counts and prediction digest), an untraced run
must print the same digest, and no run may fail a request.

    python3 perfbench/test_anchors.py [--seed N]

Exits 0 when every check holds.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, seed, trace):
    """One short run; returns (anchors or None, digest, result)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True,
                           cwd=ROOT).stdout.splitlines()
    anchors, digest = None, None
    for line in lines:
        if line.startswith("perfbench anchors "):
            anchors = json.loads(line[len("perfbench anchors "):])
        if line.startswith("perfbench digest "):
            digest = line.split()[-1]
    return anchors, digest, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    problems = []
    for w in workloads:
        first, _, r1 = run(w, seed, 1)
        second, _, r2 = run(w, seed, 1)
        _, digest, r0 = run(w, seed, 0)
        for r in (r0, r1, r2):
            if not r["correct"] or r["failed"]:
                problems.append("%s: %d of %d requests failed"
                                % (w, r["failed"], r["attempted"]))
        if first != second:
            problems.append("%s: anchors differ: %s vs %s"
                            % (w, first, second))
        if first is None or first["digest"] != digest:
            problems.append("%s: untraced digest %s, traced %s"
                            % (w, digest, first and first["digest"]))
        print("%-13s %s" % (w, first), flush=True)

    for p in problems:
        print("FAIL " + p)
    print("ok" if not problems else "%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
