#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload, report.

    python3 perfbench/run.py --workload <fit_elided|serve_open|serve_repeat>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench/ (Release) into .bench_build/perfbench; later runs reuse
the build. The run's raw record and, for traced runs, the program's own
obs trace land in .bench_build/runs/.

Each workload measures a fixed amount of work (see README.md);
``--seconds`` is accepted for the benchmark contract and does not change
it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit status is 0 when every correctness check passed, 1 when one
failed, and 2 (with no result line) when the benchmark could not run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("fit_elided", "serve_open", "serve_repeat")
BUILD_JOBS = "4"

sys.path.insert(0, HERE)
import report  # noqa: E402


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the runner; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources next to perfbench/ (expected src/CMakeLists.txt)")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        return 2
    os.makedirs(RUNS, exist_ok=True)
    stem = os.path.join(RUNS, "%s-%d-t%d" % (args.workload, args.seed, args.trace))
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace),
           "--out", stem + ".json", "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--obs-trace", stem + ".obs_trace.json"]
    try:
        status = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=170).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded 170 s and was stopped")
        return 2
    if status not in (0, 1) or not os.path.isfile(stem + ".json"):
        log("runner exited with status %d and no record" % status)
        return 2

    with open(stem + ".json") as f:
        record = json.load(f)
    correct, attempted, failed, metrics, lines = report.report(record, args.trace)
    correct = correct and status == 0
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics.json()}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
