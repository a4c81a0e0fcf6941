"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_days --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first repeats that untraced pass, then wraps every layer
entry point (see ``perfbench/spans.py``) and measures the same pass
again, reporting the per-layer metrics, the tracing overhead and whether
both passes produced identical outputs.  Spans are written to
``perfbench-out/``.

Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when an output check failed and 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

MB = 1 << 20

END_TO_END = (
    ("setup_s", "s"),
    ("tape_mb_s", "MB/s"),
    ("step_ms.p50", "ms"),
    ("step_ms.p90", "ms"),
    ("restore_ms.p50", "ms"),
    ("restore_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """This process's peak RSS.  Pool workers are forked from it and
    share its pages, so their peaks (``pool.child_rss_mb`` in the traced
    run) are reported apart rather than added."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setups(workload):
    """Set up ``setup_repeats`` times; returns (seconds, minor faults).

    The first set-up in a fresh process pays the page faults that grow
    the heap (a few hundred thousand for paper_tables, against tens of
    thousands for later ones), which made single set-up times spread by
    about 30%.  The median of several set-ups, each started after a full
    collection, measures the steady cost; the first is reported
    separately by the traced run.
    """
    seconds, faults = [], []
    for _ in range(workload.setup_repeats):
        gc.collect()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    return seconds, faults


def measure(workload, seconds: float):
    """One measured pass: whole units until the next would overrun."""
    from perfbench.workloads import Pass

    gc.collect()
    run = Pass()
    while True:
        run.start_unit()
        workload.unit(run)
        if run.timed_s + run.timed_s / run.units > seconds:
            break
    return run


def print_outputs(run) -> None:
    for key, digest in sorted(run.outputs.items()):
        print("output %s %s" % (key, digest))
    print("units %d" % run.units)


def tape_mb_s(run) -> float:
    """Median over units of each unit's tape MB per timed second."""
    return statistics.median(unit.tape_bytes / MB / unit.timed_s
                             for unit in run.log)


def end_to_end(run, setup_seconds) -> dict:
    """Throughput and the step median are medians over units of each
    unit's figure, so a burst of machine noise, or a heavy input, that
    slows one unit moves them less; the 90th percentiles pool the run's
    samples, so one heavy day moves them less."""
    steps = [s for unit in run.log for s in unit.steps_s]
    restores = [s for unit in run.log for s in unit.restores_s]
    values = {
        "setup_s": statistics.median(setup_seconds),
        "tape_mb_s": tape_mb_s(run),
        "step_ms.p50": statistics.median(
            statistics.median(unit.steps_s) for unit in run.log) * 1000.0,
        "step_ms.p90": _percentile(steps, 0.9) * 1000.0,
        "restore_ms.p50": statistics.median(restores) * 1000.0,
        "restore_ms.p90": _percentile(restores, 0.9) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(tracer, untraced, traced, setup_seconds, setup_faults) -> dict:
    from perfbench.spans import metric_unit

    values = tracer.metrics()
    common = untraced.outputs.keys() & traced.outputs.keys()
    values["trace.digest_match"] = float(bool(common) and all(
        untraced.outputs[key] == traced.outputs[key] for key in common))
    values["trace.tape_mb_s"] = tape_mb_s(traced)
    values["trace.overhead"] = tape_mb_s(untraced) / tape_mb_s(traced)
    values["pool.child_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    values["setup.first_s"] = setup_seconds[0]
    values["setup.first_faults"] = setup_faults[0]
    values["setup.rest_faults"] = statistics.median(setup_faults[1:]
                                                    or setup_faults)
    return {name: {"value": value, "unit": metric_unit(name)}
            for name, value in sorted(values.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from the root of a"
              " checkout" % root, file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), root]

    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (want one of %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))),
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    try:
        if tracer is None:
            setup_seconds, setup_faults = run_setups(workload)
            run = measure(workload, args.seconds)
            attempted, failures = run.attempted, run.failures
            metrics = end_to_end(run, setup_seconds)
            print_outputs(run)
        else:
            tracer.install()
            try:
                setup_seconds, setup_faults = run_setups(workload)
            finally:
                tracer.uninstall()
            untraced = measure(workload, args.seconds)
            tracer.install()
            try:
                traced = measure(workload, args.seconds)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, untraced, traced, setup_seconds,
                                setup_faults)
            print_outputs(traced)
            checks = [
                (tracer.reconciles(),
                 "trace: self times do not add up to the traced wall time"),
                (metrics["trace.digest_match"]["value"] == 1.0,
                 "trace: traced and untraced outputs differ"),
            ]
            attempted = untraced.attempted + traced.attempted + len(checks)
            failures = untraced.failures + traced.failures + [
                what for ok, what in checks if not ok]
            out = os.path.join(root, "perfbench-out", "trace-%s-s%d.csv.gz"
                               % (args.workload, args.seed))
            spans = tracer.write(out)
            print("trace: %d spans -> %s" % (spans, os.path.relpath(out)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    failed = len(failures)
    for name, entry in metrics.items():
        print("%-28s %14.6f %s" % (name, entry["value"], entry["unit"]))
    print("error_rate %d/%d = %.6f" % (failed, attempted,
                                       failed / max(1, attempted)))
    for failure in failures:
        print("FAILED: %s" % failure)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
