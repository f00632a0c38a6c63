#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload serve_open --seeds 1-10 [--trace 0]
                                    [--seconds <s>] [--log <file.jsonl>]
                                    [--against <earlier.jsonl>]

For every metric it prints the median of the runs and the spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. Results of each run are appended
to ``--log`` (JSON lines). With ``--against``, it also prints how far each
median moved from the same workload's median in an earlier batch's log.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--log")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    earlier = {}
    if args.against:
        with open(args.against) as f:
            for line in f:
                run = json.loads(line)
                if run["workload"] == args.workload and run["trace"] == args.trace:
                    for k, v in run["result"]["metrics"].items():
                        earlier.setdefault(k, []).append(v["value"])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "trace": args.trace, "result": result}) + "\n")
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print("%-36s %12s %8s %8s %8s" % ("metric", "median", "spread", "bound", "moved"))
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        before = statistics.median(earlier[k]) if k in earlier else None
        moved = "%+.3f" % (med / before - 1.0) if before else "-"
        print("%-36s %12.6g %8.3f %8s %8s"
              % (k, med, spread, "-" if bound is None else bound, moved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
