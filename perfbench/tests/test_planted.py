"""The benchmark catches a 20% slowdown where, and only where, it runs.

A benchmark-side wrapper makes the manager layer's point-in-time
restore (``restore_point_in_time``) 20% slower.  ``fleet_days`` restores
every tenant through it; ``paper_tables`` drives its restore engines
directly and bypasses it.  Each workload runs in pairs, with and
without the slowdown on the same seed, alternating which runs first.
A metric is flagged by the rule for claiming any change: the slowed
side is worse in every pair, and the medians
differ by more than the spread between the unslowed runs (the distance
between their quartiles, as a share of their median).  A 20% change in
one layer is within the bounds BENCHMARK.json holds a whole run to on
this noisy machine, so the bound rule alone could not see it.

Slow (about ten minutes): run explicitly with
``python3 -m pytest perfbench/tests -q`` from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SEEDS = (1, 2, 3, 4, 5)
PLANT = ("repro.manager.campaign:restore_point_in_time", "0.2")


def _run(workload: str, seed: int, planted: bool, seconds: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if planted:
        command = [sys.executable, "perfbench/tests/planted_run.py",
                   *PLANT, "--", *args]
    else:
        command = [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def _flagged(workload: str, spec: dict) -> list:
    pairs = []
    for index, seed in enumerate(SEEDS):
        run = {}
        for planted in ((False, True) if index % 2 == 0 else (True, False)):
            run[planted] = _run(workload, seed, planted, spec["run_seconds"])
        pairs.append((run[False], run[True]))
    flagged = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        before = [b[name]["value"] for b, _ in pairs]
        after = [a[name]["value"] for _, a in pairs]
        q1, median, q3 = statistics.quantiles(before, n=4)
        change = sign * (statistics.median(after) / median - 1)
        if (all(sign * (a - b) > 0 for b, a in zip(before, after))
                and change > (q3 - q1) / median):
            flagged.append((name, round(change, 3)))
    return flagged


def test_planted_restore_slowdown_is_caught_only_where_it_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert _flagged("fleet_days", spec), \
        "a 20% slower restore_point_in_time went unflagged on fleet_days"
    assert _flagged("paper_tables", spec) == [], \
        "paper_tables never calls restore_point_in_time but was flagged"
