"""Span tracing from outside the program: wrappers around layer entry points.

A :class:`Tracer` replaces each entry point named in :data:`PROBES` with a
wrapper that records one span per call — metric name, start, end and the
index of the enclosing span — in flat in-memory arrays, and adds the
call's *self time* (its duration minus the time its child spans cover)
to that metric.  Counters are read at the same boundaries, before and
after the call, from the objects that already keep them (the volume's
``BlockCache``, ``RaidGroup.reconstructed_reads``, the tape drive's
``media_changes``, the dump writer's record address ``tapea``, the
``TaskResult.elapsed`` of each pool task).

Nothing under ``src/`` changes: module-level functions are rebound in
every loaded ``repro`` (and ``perfbench``) module that imported them,
methods are replaced on the class that defines them, and
:meth:`Tracer.uninstall` puts every original back.

Dump and restore engines are generators whose work happens lazily, one
step per ``next()``; their ``run`` wrapper returns a :class:`_TracedEngine`
so each step is a span.  An engine created inside one of the Table 4/5
``parallel_*`` helpers is attributed to ``backup.parallel4_s``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import pkgutil
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# Metric name -> layer, in report order.  Every ``*_s`` metric here is
# self time, so their sum is the traced time the probes account for.
SELF_METRICS = (
    ("perf.self_s", "perf"),
    ("backup.logical_dump_s", "backup"),
    ("backup.image_dump_s", "backup"),
    ("backup.logical_restore_s", "backup"),
    ("backup.image_restore_s", "backup"),
    ("backup.parallel4_s", "backup"),
    ("backup.verify_s", "backup"),
    ("wafl.cp_s", "wafl"),
    ("wafl.snapshot_s", "wafl"),
    ("wafl.fs_s", "wafl"),
    ("raid.read_s", "raid"),
    ("raid.write_s", "raid"),
    ("tape.write_s", "storage"),
    ("tape.read_s", "storage"),
    ("persist.save_s", "storage"),
    ("persist.load_s", "storage"),
    ("dumpfmt.write_s", "dumpfmt"),
    ("dumpfmt.read_s", "dumpfmt"),
    ("nvram.replay_s", "nvram"),
    ("catalog.commit_s", "catalog"),
    ("catalog.save_s", "catalog"),
    ("catalog.record_s", "catalog"),
    ("catalog.chain_for_s", "catalog"),
    ("manager.campaign_s", "manager"),
    ("manager.prune_s", "manager"),
    ("manager.media_s", "manager"),
    ("manager.restore_pit_s", "manager"),
    ("fleet.admit_s", "fleet"),
    ("fleet.run_day_self_s", "fleet"),
    ("fleet.submit_s", "fleet"),
    ("pool.self_s", "parallel"),
    ("chaos.day_s", "chaos"),
    ("chaos.recover_s", "chaos"),
    ("chaos.verify_s", "chaos"),
    ("workload.mutate_s", "workload"),
    ("workload.populate_s", "workload"),
    ("workload.age_s", "workload"),
)

COUNT_METRICS = (
    "perf.runs", "perf.single_job_runs",
    "wafl.cps", "wafl.cache_hits", "wafl.cache_misses",
    "raid.blocks_read", "raid.blocks_written", "raid.reconstructed_reads",
    "tape.bytes_written", "tape.bytes_read", "tape.media_changes",
    "persist.bytes_written",
    "dumpfmt.records",
    "nvram.replays",
    "catalog.journal_bytes",
    "pool.tasks", "pool.run_s", "pool.task_s", "pool.transport_s",
    "chaos.faults_planned", "chaos.faults_hit",
)

_PARALLEL4 = "backup.parallel4_s"


# -- counter hooks: (before(obj, args) -> state, after(counts, obj, args,
#    result, state, duration)) -----------------------------------------------

def _raid_state(volume, args):
    cache = None if volume.uncached_reads else volume.cache
    hits, misses = (cache.hits, cache.misses) if cache is not None else (0, 0)
    return hits, misses, sum(g.reconstructed_reads for g in volume.groups)


def _raid_read(nblocks_of):
    def after(counts, volume, args, result, state, duration):
        hits, misses, recon = _raid_state(volume, args)
        counts["wafl.cache_hits"] += hits - state[0]
        counts["wafl.cache_misses"] += misses - state[1]
        counts["raid.reconstructed_reads"] += recon - state[2]
        counts["raid.blocks_read"] += nblocks_of(volume, args)
    return after


def _raid_written(nblocks_of):
    def after(counts, volume, args, result, state, duration):
        counts["raid.blocks_written"] += nblocks_of(volume, args)
    return after


def _media_changes(drive, args):
    return drive.media_changes


def _tape_write(counts, drive, args, result, before, duration):
    counts["tape.bytes_written"] += len(args[0])
    counts["tape.media_changes"] += drive.media_changes - before


def _tape_read(counts, drive, args, result, before, duration):
    counts["tape.bytes_read"] += len(result)
    counts["tape.media_changes"] += drive.media_changes - before


def _tapea(writer, args):
    return writer.tapea


def _records(counts, writer, args, result, before, duration):
    counts["dumpfmt.records"] += writer.tapea - before


def _bytes_into(metric):
    def after(counts, obj, args, result, state, duration):
        counts[metric] += int(result or 0)
    return after


def _counter(metric):
    def after(counts, obj, args, result, state, duration):
        counts[metric] += 1
    return after


def _timed_run(counts, run, args, result, state, duration):
    counts["perf.runs"] += 1
    counts["perf.single_job_runs"] += len(result) == 1


def _pool_run(counts, pool, args, result, state, duration):
    elapsed = [task.elapsed for task in result]
    counts["pool.tasks"] += len(elapsed)
    counts["pool.run_s"] += duration
    counts["pool.task_s"] += sum(elapsed)
    # Parallel tasks overlap, so the call waits at least for the longest
    # one; serial tasks run back to back inside the call.
    busy = (max(elapsed, default=0.0) if pool.parallel else sum(elapsed))
    counts["pool.transport_s"] += duration - busy


# -- the probe table ----------------------------------------------------------

def _nblocks_run(volume, args):
    return args[1]


def _nblocks_data(volume, args):
    return len(args[1]) // volume.block_size


def _one(volume, args):
    return 1


_WAFL = "repro.wafl.filesystem:WaflFilesystem."
_RAID = "repro.raid.volume:RaidVolume."
_WRITER = "repro.dumpfmt.stream:DumpStreamWriter."
_MEDIA = "repro.manager.media:MediaPool."

#: (entry point, metric, engine?, before, after).  An entry point is
#: ``module:function`` or ``module:Class.method``.
PROBES: List[Tuple] = [
    ("repro.perf.executor:TimedRun.run", "perf.self_s", False, None,
     _timed_run),
    ("repro.perf.executor:TimedRun.add_job", "perf.self_s"),
    ("repro.perf.ops:drain_engine", "perf.self_s"),
    ("repro.backup.logical.dump:LogicalDump.run", "backup.logical_dump_s",
     True),
    ("repro.backup.physical.dump:ImageDump.run", "backup.image_dump_s", True),
    ("repro.backup.logical.restore:LogicalRestore.run",
     "backup.logical_restore_s", True),
    ("repro.backup.physical.restore:ImageRestore.run",
     "backup.image_restore_s", True),
    ("repro.backup.jobs:parallel_logical_dump", _PARALLEL4),
    ("repro.backup.jobs:parallel_image_dump", _PARALLEL4),
    ("repro.backup.jobs:parallel_logical_restore", _PARALLEL4),
    ("repro.backup.jobs:parallel_image_restore", _PARALLEL4),
    ("repro.backup.verify:verify_trees", "backup.verify_s"),
    (_WAFL + "consistency_point", "wafl.cp_s", False, None,
     _counter("wafl.cps")),
    (_WAFL + "snapshot_create", "wafl.snapshot_s"),
    (_WAFL + "snapshot_delete", "wafl.snapshot_s"),
    (_WAFL + "format", "wafl.fs_s"),
    (_WAFL + "mount", "wafl.fs_s"),
    (_WAFL + "clone_volume", "wafl.fs_s"),
    (_WAFL + "create", "wafl.fs_s"),
    (_WAFL + "mkdir", "wafl.fs_s"),
    (_WAFL + "write_file", "wafl.fs_s"),
    (_WAFL + "read_by_ino", "wafl.fs_s"),
    (_WAFL + "read_file", "wafl.fs_s"),
    (_WAFL + "truncate", "wafl.fs_s"),
    (_WAFL + "set_attrs", "wafl.fs_s"),
    (_WAFL + "unlink", "wafl.fs_s"),
    (_WAFL + "rename", "wafl.fs_s"),
    (_WAFL + "_replay_nvram", "nvram.replay_s", False, None,
     _counter("nvram.replays")),
    (_RAID + "read_block", "raid.read_s", False, _raid_state,
     _raid_read(_one)),
    (_RAID + "read_run", "raid.read_s", False, _raid_state,
     _raid_read(_nblocks_run)),
    (_RAID + "write_block", "raid.write_s", False, None,
     _raid_written(_one)),
    (_RAID + "write_run", "raid.write_s", False, None,
     _raid_written(_nblocks_data)),
    (_RAID + "repair_bad_blocks", "chaos.recover_s"),
    ("repro.storage.tape:TapeDrive.write", "tape.write_s", False,
     _media_changes, _tape_write),
    ("repro.storage.tape:TapeDrive.read", "tape.read_s", False,
     _media_changes, _tape_read),
    ("repro.storage.persist:save_volume", "persist.save_s", False, None,
     _bytes_into("persist.bytes_written")),
    ("repro.storage.persist:save_media", "persist.save_s", False, None,
     _bytes_into("persist.bytes_written")),
    ("repro.storage.persist:save_tape", "persist.save_s", False, None,
     _bytes_into("persist.bytes_written")),
    ("repro.storage.persist:save_env_container", "persist.save_s", False,
     None, _bytes_into("persist.bytes_written")),
    ("repro.storage.persist:load_volume", "persist.load_s"),
    ("repro.storage.persist:load_media", "persist.load_s"),
    ("repro.storage.persist:load_tape", "persist.load_s"),
    ("repro.storage.persist:load_env_container", "persist.load_s"),
    (_WRITER + "write_tape_header", "dumpfmt.write_s", False, _tapea,
     _records),
    (_WRITER + "write_clri", "dumpfmt.write_s", False, _tapea, _records),
    (_WRITER + "write_bits", "dumpfmt.write_s", False, _tapea, _records),
    (_WRITER + "write_end", "dumpfmt.write_s", False, _tapea, _records),
    (_WRITER + "begin_inode", "dumpfmt.write_s", False, _tapea, _records),
    (_WRITER + "feed_data", "dumpfmt.write_s", False, _tapea, _records),
    (_WRITER + "feed_holes", "dumpfmt.write_s", False, _tapea, _records),
    (_WRITER + "feed_segments", "dumpfmt.write_s", False, _tapea, _records),
    (_WRITER + "end_inode", "dumpfmt.write_s", False, _tapea, _records),
    (_WRITER + "write_acl", "dumpfmt.write_s", False, _tapea, _records),
    ("repro.dumpfmt.stream:DumpStreamReader.read_preamble",
     "dumpfmt.read_s"),
    ("repro.dumpfmt.stream:DumpStreamReader.next_inode", "dumpfmt.read_s"),
    ("repro.catalog.store:BackupCatalog.commit_dirty", "catalog.commit_s"),
    ("repro.catalog.store:BackupCatalog.sync_journal", "catalog.commit_s"),
    ("repro.catalog.store:BackupCatalog.save", "catalog.save_s"),
    ("repro.catalog.store:BackupCatalog.record_set", "catalog.record_s"),
    ("repro.catalog.store:BackupCatalog.chain_for", "catalog.chain_for_s"),
    ("repro.catalog.journal:CatalogJournal.append", "catalog.commit_s",
     False, None, _bytes_into("catalog.journal_bytes")),
    ("repro.manager.campaign:CampaignDriver.run_day", "manager.campaign_s"),
    ("repro.manager.campaign:CampaignDriver._run_day_parallel",
     "manager.campaign_s"),
    ("repro.manager.campaign:run_volume_day", "manager.campaign_s"),
    ("repro.manager.campaign:run_tenant_day_resident", "manager.campaign_s"),
    ("repro.manager.campaign:restore_point_in_time",
     "manager.restore_pit_s"),
    ("repro.manager.retention:prune", "manager.prune_s"),
    (_MEDIA + "drive_for_job", "manager.media_s"),
    (_MEDIA + "partitioned_drives", "manager.media_s"),
    (_MEDIA + "adopt_cartridges", "manager.media_s"),
    (_MEDIA + "commit_job", "manager.media_s"),
    (_MEDIA + "drive_for_restore", "manager.media_s"),
    (_MEDIA + "recycle", "manager.media_s"),
    ("repro.fleet.scheduler:FleetScheduler.admit", "fleet.admit_s"),
    ("repro.fleet.scheduler:FleetScheduler.complete", "fleet.admit_s"),
    ("repro.fleet.service:FleetService.run_day", "fleet.run_day_self_s"),
    ("repro.fleet.service:submit_job", "fleet.submit_s"),
    ("repro.parallel.pool:TaskPool.run", "pool.self_s", False, None,
     _pool_run),
    ("repro.chaos.campaign:ChaosCampaignDriver.run_day", "chaos.day_s"),
    ("repro.chaos.campaign:run_volume_day_chaos", "chaos.day_s"),
    ("repro.chaos.inject:drive_engine_with_kill", "chaos.day_s"),
    ("repro.chaos.recover:recover_crash", "chaos.recover_s"),
    ("repro.chaos.recover:replay_dump", "chaos.recover_s"),
    ("repro.chaos.verify:campaign_state_digests", "chaos.verify_s"),
    ("repro.chaos.verify:compare_digests", "chaos.verify_s"),
    ("repro.workload.mutate:apply_mutations", "workload.mutate_s"),
    ("repro.workload.generator:WorkloadGenerator.populate",
     "workload.populate_s"),
    ("repro.workload.aging:age_filesystem", "workload.age_s"),
]


def metric_unit(name: str) -> str:
    """The unit a per-layer metric is reported in."""
    if name.endswith("mb_s"):
        return "MB/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("ratio", "overhead", "match")):
        return "ratio"
    return "count"


def _resolve(entry: str):
    """``module:Qual.name`` -> (owner, attribute name, original)."""
    module_name, qualname = entry.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def bindings(entry: str):
    """Every ``(owner, name)`` through which ``entry`` is reached, and its
    original: the defining class for a method; for a module function,
    every loaded ``repro``/``perfbench`` module that holds it by name."""
    owner, name, original = _resolve(entry)
    if isinstance(owner, type):
        return [(owner, name)], original
    found = []
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "") or ""
        if module_name.startswith(("repro", "perfbench")):
            found.extend((module, attr) for attr, value
                         in list(vars(module).items()) if value is original)
    return found, original


def import_all() -> None:
    """Import every ``repro`` module, so that no module imported later
    binds a wrapper by name and keeps it after the wrapper is removed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class _TracedEngine:
    """A dump/restore engine generator whose every step is a span."""

    def __init__(self, tracer: "Tracer", engine, metric: int):
        self._tracer = tracer
        self._engine = engine
        self._metric = metric

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._metric, self._engine.send, (None,))

    def send(self, value):
        return self._tracer.call(self._metric, self._engine.send, (value,))

    def throw(self, *args):
        return self._tracer.call(self._metric, self._engine.throw, args)

    def close(self):
        return self._tracer.call(self._metric, self._engine.close, ())


class Tracer:
    """In-memory span recorder plus the installed wrappers."""

    def __init__(self):
        self.names: List[str] = [name for name, _layer in SELF_METRICS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.self_time = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts: Dict[str, float] = {name: 0 for name in COUNT_METRICS}
        # One span per call: metric id, parent span index, start, end.
        self.span_metric = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.top_level_s = 0.0
        self.wall_s = 0.0
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._installed_at: Optional[float] = None
        self._parallel4 = self._index[_PARALLEL4]

    # -- recording ---------------------------------------------------------

    def call(self, metric: int, fn: Callable, args: tuple, kwargs=None,
             before=None, after=None):
        """Run ``fn(*args, **kwargs)`` as one span of ``metric``."""
        if self._installed_at is None:
            return fn(*args, **(kwargs or {}))
        stack = self._stack
        index = len(self.span_start)
        self.span_metric.append(metric)
        self.span_parent.append(stack[-1][0] if stack else -1)
        state = before(args[0], args[1:]) if before is not None else None
        frame = [index, 0.0, metric]
        stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.span_end[index] = end
            self.self_time[metric] += duration - frame[1]
            self.calls[metric] += 1
            if stack:
                stack[-1][1] += duration
            else:
                self.top_level_s += duration
        if after is not None:
            after(self.counts, args[0], args[1:], result, state, duration)
        return result

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def count(self, metric: str, value: float) -> None:
        """A counter the workload reads from its own outputs."""
        self.counts[metric] += value

    def _in_parallel4(self) -> bool:
        return any(frame[2] == self._parallel4 for frame in self._stack)

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, original, metric: str, engine: bool, before, after):
        tracer = self
        metric_id = self._index[metric]
        is_static = isinstance(original, (staticmethod, classmethod))
        fn = original.__func__ if is_static else original

        if engine:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                target = (tracer._parallel4 if tracer._in_parallel4()
                          else metric_id)
                return _TracedEngine(tracer, fn(*args, **kwargs), target)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(metric_id, fn, args, kwargs, before,
                                   after)
        if isinstance(original, classmethod):
            return classmethod(traced)
        if isinstance(original, staticmethod):
            return staticmethod(traced)
        return traced

    def install(self) -> None:
        """Wrap every probe; pairs with :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import_all()
        for probe in PROBES:
            entry, metric = probe[0], probe[1]
            engine = probe[2] if len(probe) > 2 else False
            before = probe[3] if len(probe) > 3 else None
            after = probe[4] if len(probe) > 4 else None
            owners, original = bindings(entry)
            wrapper = self._wrapper(original, metric, engine, before, after)
            for owner, name in owners:
                setattr(owner, name, wrapper)
                self._patches.append((owner, name, original))
        self._installed_at = time.perf_counter()

    def uninstall(self) -> None:
        """Restore every original entry point."""
        if self._installed_at is not None:
            self.wall_s += time.perf_counter() - self._installed_at
            self._installed_at = None
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Self time per metric, counters, and the wall-time reconciliation.

        ``trace.attributed_s`` sums every span's self time; it must equal
        ``trace.top_level_s`` (the summed durations of spans with no
        traced parent), and ``trace.unattributed_s`` is the traced wall
        time no probe covers, so attributed plus unattributed is the
        traced wall time.
        """
        out: Dict[str, float] = {}
        for metric, name in enumerate(self.names):
            out[name] = self.self_time[metric]
        out.update(self.counts)
        lookups = self.counts["wafl.cache_hits"] + self.counts[
            "wafl.cache_misses"]
        out["wafl.cache_hit_ratio"] = (
            self.counts["wafl.cache_hits"] / lookups if lookups else 0.0)
        planned = self.counts["chaos.faults_planned"]
        out["chaos.hit_ratio"] = (
            self.counts["chaos.faults_hit"] / planned if planned else 0.0)
        layers: Dict[str, float] = {}
        for (name, layer), seconds in zip(SELF_METRICS, self.self_time):
            layers[layer] = layers.get(layer, 0.0) + seconds
        for layer, seconds in layers.items():
            out["self.%s_s" % layer] = seconds
        attributed = sum(self.self_time)
        out["trace.wall_s"] = self.wall_s
        out["trace.attributed_s"] = attributed
        out["trace.top_level_s"] = self.top_level_s
        out["trace.unattributed_s"] = self.wall_s - attributed
        out["trace.spans"] = len(self.span_start)
        return out

    def reconciles(self) -> bool:
        """Self times plus the unattributed rest make up the wall time."""
        attributed = sum(self.self_time)
        tolerance = 1e-9 * max(1, len(self.span_start)) + 1e-6
        return (abs(attributed - self.top_level_s) <= tolerance
                and attributed <= self.wall_s + tolerance)

    def write(self, path: str) -> int:
        """Write every span as CSV (gzip): metric,parent,start,end."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("# metrics: %s\n" % ",".join(self.names))
            handle.write("span,metric,parent,start_s,end_s\n")
            for index in range(len(self.span_start)):
                handle.write("%d,%s,%d,%.7f,%.7f\n" % (
                    index, self.names[self.span_metric[index]],
                    self.span_parent[index],
                    self.span_start[index] - origin,
                    self.span_end[index] - origin))
        return len(self.span_start)
