"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]
        [--out runs.json]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
prints for every end-to-end metric the median and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as
a share of the median, next to the metric's bound in BENCHMARK.json.  A
spread must stay under a third of its bound for the metric to be steady;
``setup_s`` is exempt from the spread rule.  Runs last
``run_seconds`` from BENCHMARK.json; ``--out`` keeps every result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("%s seed %d: no result (exit %d)\n%s"
              % (workload, seed, proc.returncode, proc.stderr[-2000:]))
        return None
    result["wall_s"] = time.time() - start
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    steady = True
    for workload in workloads:
        results = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, seconds)
            if result is None:
                steady = False
                continue
            print("%s seed %d: %.1f s wall, %d/%d failed"
                  % (workload, seed, result["wall_s"], result["failed"],
                     result["attempted"]), flush=True)
            results.append(result)
        runs[workload] = results
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(runs, handle, indent=1)
        if len(results) < 2:
            continue
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            ok = name == "setup_s" or share < bound / 3
            steady &= ok
            print("  %-16s median %12.4f  spread %6.3f  bound %.2f  %s"
                  % (name, median, share, bound, "ok" if ok else "WIDE"),
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        raise SystemExit("run from the root of a checkout")
    sys.exit(main())
