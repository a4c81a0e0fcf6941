"""Unit tests for the span tracer (fast; no workload runs)."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.spans import PROBES, Tracer, _resolve  # noqa: E402


def _originals():
    return {entry[0]: _resolve(entry[0])[2] for entry in PROBES}


def test_uninstall_restores_every_entry_point():
    before = _originals()
    import repro.manager as manager
    import repro.manager.campaign as campaign

    prune = manager.prune
    tracer = Tracer()
    tracer.install()
    assert manager.prune is not prune
    tracer.uninstall()
    assert _originals() == before
    assert manager.prune is prune
    assert campaign.drain_engine is _resolve(
        "repro.perf.ops:drain_engine")[2]


def test_self_times_add_up_to_the_traced_wall_time():
    from repro.raid.layout import make_geometry
    from repro.raid.volume import RaidVolume
    from repro.wafl.filesystem import WaflFilesystem
    from repro.workload import WorkloadGenerator

    tracer = Tracer()
    tracer.install()
    try:
        fs = WaflFilesystem.format(RaidVolume(make_geometry(1, 4, 600)))
        WorkloadGenerator(seed=5).populate(fs, 400_000)
        fs.consistency_point()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert tracer.reconciles()
    assert metrics["wafl.cps"] >= 1
    assert metrics["raid.blocks_written"] > 0
    assert metrics["workload.populate_s"] > 0
    assert abs(metrics["trace.attributed_s"] + metrics["trace.unattributed_s"]
               - metrics["trace.wall_s"]) < 1e-9
    assert metrics["trace.unattributed_s"] >= -1e-6


def test_engine_steps_are_spans():
    from repro.perf.ops import drain_engine

    def engine():
        yield 1
        yield 2
        return "done"

    tracer = Tracer()
    tracer.install()
    try:
        import repro.perf.ops as ops

        assert ops.drain_engine(engine()) == "done"
    finally:
        tracer.uninstall()
    assert tracer.calls[tracer.names.index("perf.self_s")] == 1
    assert drain_engine(engine()) == "done"
