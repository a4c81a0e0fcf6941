"""The benchmark's workloads, each driven through the public API.

Every workload has the same shape:

* :meth:`setup` builds the inputs from the seed; the runner calls it
  several times and reports the median (``setup_s``).
* :meth:`unit` runs one unit of work from set-up state and records each
  *step* it timed (a paper operation or a simulated day), its restores,
  the tape bytes it moved, the output checks it made, and a digest of
  its outputs keyed by the set-up state it started from.  Units that
  start from the same state, in one pass or in the untraced and traced
  passes, must produce the same digest.
Only the steps are timed; output verification between them is not.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import shutil
import time
from typing import Dict, List

MB = 1 << 20


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Unit:
    """One unit's timed steps and restores, and the tape bytes they
    wrote or read."""

    def __init__(self):
        self.steps_s: List[float] = []
        self.restores_s: List[float] = []
        self.tape_bytes = 0
        self.timed_s = 0.0


class Pass:
    """What one measured pass saw: its units, output checks, and output
    digests by input."""

    def __init__(self):
        self.log: List[Unit] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.outputs: Dict[str, str] = {}

    @property
    def units(self) -> int:
        return len(self.log)

    @property
    def timed_s(self) -> float:
        return sum(unit.timed_s for unit in self.log)

    def start_unit(self) -> None:
        self.log.append(Unit())

    def step(self, seconds: float, tape_bytes: int) -> None:
        """A timed step that wrote or read ``tape_bytes`` on tape."""
        unit = self.log[-1]
        unit.steps_s.append(seconds)
        unit.tape_bytes += tape_bytes
        unit.timed_s += seconds

    def restore(self, seconds: float, tape_bytes: int) -> None:
        """A timed restore, outside any step."""
        unit = self.log[-1]
        unit.restores_s.append(seconds)
        unit.tape_bytes += tape_bytes
        unit.timed_s += seconds

    def restore_within_step(self, seconds: float) -> None:
        """A restore's latency, timed as part of a step."""
        self.log[-1].restores_s.append(seconds)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def output(self, key: str, outputs) -> None:
        """Record a unit's outputs; a repeat from the same inputs must
        reproduce them."""
        digest = _sha(json.dumps(outputs, sort_keys=True))
        first = self.outputs.setdefault(key, digest)
        self.check(digest == first, "%s: outputs from the same inputs"
                   " differ between units" % key)


class Workload:
    name = ""
    setup_repeats = 5

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, run: Pass) -> None:
        raise NotImplementedError

    def count(self, metric: str, value: float) -> None:
        if self.tracer is not None and self.tracer.installed:
            self.tracer.count(metric, value)

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


# ---------------------------------------------------------------------------
# paper_tables: Tables 2, 3 and 5 on the default 1:1000 eliot replica
# ---------------------------------------------------------------------------

class PaperTables(Workload):
    """The four single-drive operations of Tables 2-3, and Table 5.

    The testbed is always the default 1:1000 eliot replica, the one
    EXPERIMENTS.md reports, so every cycle's Tables 2, 3 and 5 must hash
    to the digest pinned in ``expected.json``.  The seed orders the
    independent operations of each cycle: Table 5 first or last, and the
    two Table 2 restores either way round.  The dumps keep the harness
    order (logical, then image, on one file system): the image dump's
    simulated time depends on the cache the logical dump leaves.  A
    step is a whole cycle; the two Table 2 restores are the restore
    samples.  (The five operations as steps would make the step median
    whichever of three near-equal operations came out in the middle.)
    Each cycle runs on copy-on-write clones of the environments built in
    set-up, so every cycle starts from the same aged state.
    """

    name = "paper_tables"
    setup_repeats = 3

    def __init__(self, seed: int, workdir: str, tracer=None):
        super().__init__(seed, workdir, tracer)
        from repro.bench.configs import EliotConfig

        self.config = EliotConfig()
        self.config5 = EliotConfig(qtrees=4)
        self.rng = random.Random(seed)
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "expected.json")) as handle:
            self.expected = json.load(handle)["paper_tables"]

    def setup(self) -> None:
        from repro.bench.configs import build_home_env, clear_env_cache

        self.env = self.env5 = None
        clear_env_cache()
        self.env = build_home_env(self.config)
        self.env5 = build_home_env(self.config5)

    def unit(self, run: Pass) -> None:
        from repro.bench.report import format_table

        restores = ["logical-restore", "physical-restore"]
        self.rng.shuffle(restores)
        order = ["logical-dump", "physical-dump"] + restores
        if self.rng.random() < 0.5:
            table5, seconds5, moved5 = self._table5()
            text, seconds, moved = self._tables23(run, order)
        else:
            text, seconds, moved = self._tables23(run, order)
            table5, seconds5, moved5 = self._table5()
        run.step(seconds + seconds5, moved + moved5)
        for row in table5.rows:
            if row.label.endswith("verified (diff count)"):
                run.check(row.measured == 0,
                          "paper_tables: Table 5 %s = %r"
                          % (row.label, row.measured))
        text.append(format_table(table5))
        digest = _sha("\n".join(text))
        run.output("paper_tables", digest)
        run.check(digest == self.expected,
                  "paper_tables: Tables 2/3/5 digest %s, expected %s"
                  % (digest[:12], self.expected[:12]))

    def _tables23(self, run: Pass, order: List[str]):
        """The four single-drive operations in ``order``, restores
        verified bit for bit; returns Tables 2 and 3 as text, the
        operations' seconds and their tape bytes."""
        from repro.backup.logical.dump import LogicalDump
        from repro.backup.logical.dumpdates import DumpDates
        from repro.backup.logical.restore import LogicalRestore
        from repro.backup.physical.dump import ImageDump
        from repro.backup.physical.restore import ImageRestore
        from repro.backup.verify import verify_trees
        from repro.bench.harness import table2_from_basic, table3_from_basic
        from repro.bench.report import format_table
        from repro.nvram.log import NvramLog
        from repro.perf.executor import TimedRun
        from repro.wafl.filesystem import WaflFilesystem

        work = self.env.clone()
        fs = work.home_fs
        costs = work.config.cost_model()
        drives = {"logical": work.new_drive("t2-logical"),
                  "physical": work.new_drive("t2-physical")}
        basic = {"data_bytes": work.data_bytes("home")}
        total = 0.0

        def engine(op: str, drive):
            """(engine, target file system or volume) for ``op``."""
            if op == "logical-dump":
                return LogicalDump(fs, drive, level=0, dumpdates=DumpDates(),
                                   costs=costs).run(), None
            if op == "physical-dump":
                return ImageDump(fs, drive, costs=costs).run(), None
            if op == "logical-restore":
                target = WaflFilesystem.format(work.fresh_home_volume(),
                                               nvram=NvramLog())
                return LogicalRestore(target, drive, costs=costs).run(), \
                    target
            target = work.fresh_home_volume()
            return ImageRestore(target, drive, costs=costs).run(), target

        for op in order:
            job, target = engine(op, drives[op.split("-")[0]])
            start = time.perf_counter()
            timed = TimedRun()
            timed.add_job(op, job)
            basic[op] = timed.run()[op]
            seconds = time.perf_counter() - start
            total += seconds
            if target is not None:
                run.restore_within_step(seconds)
                restored = (target if op == "logical-restore"
                            else WaflFilesystem.mount(target))
                diffs = verify_trees(fs, restored, check_mtime=True)
                basic[op.replace("-restore", "_diffs")] = diffs
                run.check(not diffs, "paper_tables: %s differs" % op)

        scale = self.config.scale
        text = [format_table(table2_from_basic(basic, scale)),
                format_table(table3_from_basic(basic, scale))]
        return text, total, sum(drive.bytes_written + drive.bytes_read
                                for drive in drives.values())

    def _table5(self):
        """Table 5's four-drive run on a clone; returns the table, its
        seconds and its tape bytes.

        ``run_table45`` takes its environment from the harness cache, so
        the clone is registered there for the call.  Its drives are
        recorded through an instance attribute on the clone alone, to
        read their byte counters afterwards.
        """
        from repro.bench.configs import register_env
        from repro.bench.harness import run_table45

        work = self.env5.clone()
        drives: List = []
        make = work.new_drive

        def new_drive(label: str = ""):
            drives.append(make(label))
            return drives[-1]

        work.new_drive = new_drive
        register_env(work)
        start = time.perf_counter()
        try:
            table5 = run_table45(4, self.config5)
        finally:
            register_env(self.env5)
        return (table5, time.perf_counter() - start,
                sum(drive.bytes_written + drive.bytes_read
                    for drive in drives))


# ---------------------------------------------------------------------------
# fleet_days: a 24-tenant in-process fleet, day after day
# ---------------------------------------------------------------------------

FLEET_TENANTS = 24
FLEET_WARM_DAYS = 2
FLEET_DAYS = 30
FLEET_RESTORE_EVERY = 4
FLEET_PIT_PER_TENANT = 5


class FleetDays(Workload):
    """``FleetService(jobs=1).run_day`` on a warm 24-tenant, 4-drive
    fleet, with an ad-hoc restore queued every few days.

    The tenants' volumes are fixed (seeds 1000 + index, as in the
    repository's fleet-scale bench); the seed drives the fleet's daily
    mutations, which tenants get ad-hoc restores and which days are
    restored.  Each set-up builds one warm fleet with its own mutation
    seed.  One unit is an epoch: a fresh copy of the next warm fleet
    runs ``FLEET_DAYS`` days, then every tenant restores five retained
    days with ``restore_point_in_time``.  Restarting from warm copies
    keeps the state a run measures the same however many epochs fit,
    keeps the fleet within its media (the volumes grow every day), and
    averages a run over several mutation streams.
    """

    name = "fleet_days"

    def __init__(self, seed: int, workdir: str, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.roots: List[str] = []

    def _spec(self, seed: int):
        from repro.fleet import FleetSpec, TenantSpec

        strategies = ("logical", "image")
        schedules = ("gfs:4x2", "hanoi:3")
        retentions = ("redundancy 2", "window 10 days")
        lanes = ("daily", "background")
        tenants = [
            TenantSpec("t%02d" % index,
                       lane=lanes[index % 2],
                       strategy=strategies[index % 2],
                       schedule=schedules[(index // 2) % 2],
                       retention=retentions[(index // 4) % 2],
                       data_bytes=100_000 + 10_000 * (index % 8),
                       seed=1000 + index, cartridges=40,
                       cartridge_capacity=2_000_000, blocks_per_disk=300)
            for index in range(FLEET_TENANTS)
        ]
        return FleetSpec(tenants=tenants, drives=4, seed=seed)

    def setup(self) -> None:
        from repro.fleet import FleetService

        index = len(self.roots)
        root = self.fresh_dir("fleet-warm%d" % index)
        FleetService.init_fleet(root, self._spec(self.seed * 101 + index))
        FleetService(root, jobs=1).run_days(FLEET_WARM_DAYS)
        self.roots.append(root)

    def unit(self, run: Pass) -> None:
        from repro.fleet import FleetService
        from repro.fleet.service import submit_job

        warm = self.roots[(run.units - 1) % len(self.roots)]
        root = os.path.join(self.workdir, "fleet-epoch")
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(warm, root)
        service = FleetService(root, jobs=1)
        for tenant in service.tenants.values():
            tenant.catalog, tenant.pool, tenant.volume  # load eagerly
        rng = random.Random(self.seed * 7919 + 1)
        outputs = []
        for day in range(FLEET_DAYS):
            start = time.perf_counter()
            expected_jobs = FLEET_TENANTS
            if day % FLEET_RESTORE_EVERY == 0:
                tenant = "t%02d" % rng.randrange(FLEET_TENANTS)
                submit_job(root, tenant, kind="restore")
                expected_jobs += 1
            stats = service.run_day()
            run.step(time.perf_counter() - start, stats["bytes_to_tape"])
            run.check(stats["jobs"] == expected_jobs,
                      "fleet_days: day %d ran %d of %d jobs"
                      % (day, stats["jobs"], expected_jobs))
            outputs.append(stats)
        outputs.append(self._restores(run, service, rng))
        run.output(os.path.basename(warm), outputs)

    def _restores(self, run: Pass, service, rng) -> List[str]:
        """Point-in-time restores of every tenant on retained days; the
        latest day's restore must equal the tenant's live file system.
        Returns the restored volumes' digests."""
        from repro.backup.verify import verify_trees
        from repro.chaos.verify import volume_digest
        from repro.errors import ReproError
        from repro.manager import restore_point_in_time

        digests = []
        for name in sorted(service.tenants):
            tenant = service.tenants[name]
            days = sorted({s.day for s in tenant.catalog.sets_for(name)
                           if s.ok})
            if not days:
                run.check(False, "fleet_days: %s retains no day" % name)
                continue
            picks = [days[-1]] + rng.sample(
                days[:-1], min(FLEET_PIT_PER_TENANT - 1, len(days) - 1))
            for day in picks:
                start = time.perf_counter()
                try:
                    fs, plan = restore_point_in_time(
                        tenant.catalog, tenant.pool, name, day=day)
                except ReproError as error:
                    run.check(False, "fleet_days: %s day %d: %r"
                              % (name, day, error))
                    continue
                run.restore(time.perf_counter() - start,
                            sum(s.bytes_to_tape for s in plan.sets))
                digests.append(volume_digest(fs.volume))
                if day == days[-1]:
                    diffs = verify_trees(tenant.volume.fs, fs,
                                         check_mtime=True)
                    run.check(not diffs, "fleet_days: %s latest restore"
                              " differs: %s" % (name, diffs[:3]))
                else:
                    run.check(plan.sets[-1].day <= day,
                              "fleet_days: %s restored past day %d"
                              % (name, day))
        return digests


# ---------------------------------------------------------------------------
# chaos_campaign: oracle and faulted campaigns, digest-compared
# ---------------------------------------------------------------------------

VOLUMES = (("home", "logical"), ("rlse", "image"))
VOLUME_DATA = 8 * MB
#: Two RAID groups of four data disks, 2500 blocks each (80 MB): room for
#: the campaign's growth.
VOLUME_GEOMETRY = (2, 4, 2500)
#: Largest populated file.  Uncapped, one seed's 16 MB volume held a
#: single 33 MB file, larger than half the 32 MB NVRAM can log.
MAX_FILE = 1 * MB
#: Volumes and daily mutations are fixed, as ``run-campaign``'s default
#: ``--seed`` gives them; the benchmark seed draws the fault plans.
CAMPAIGN_SEED = 42
CHAOS_DAYS = 12
CHAOS_PLANS = 5


class ChaosCampaign(Workload):
    """``run-campaign --chaos`` from its public parts.

    Two NVRAM-backed volumes run ``CHAOS_DAYS`` days fault-free (the
    oracle), then the same days under a fault plan of all six kinds at
    the default rate, pruning every day; then every durable artifact and
    a latest-day restore of both volumes are digest-compared.  One unit
    is that pair of campaigns.  The volumes and their daily mutations are
    fixed; the seed draws ``CHAOS_PLANS`` fault plans, which the units
    take in turn, so a run averages over several plans.
    """

    name = "chaos_campaign"

    def setup(self) -> None:
        from repro.nvram.log import NvramLog
        from repro.raid.layout import make_geometry
        from repro.raid.volume import RaidVolume
        from repro.wafl.filesystem import WaflFilesystem
        from repro.workload import WorkloadGenerator
        from repro.workload.distributions import FileSizeDistribution

        self.pristine = []
        for index, (name, _strategy) in enumerate(VOLUMES):
            volume = RaidVolume(make_geometry(*VOLUME_GEOMETRY), name=name)
            fs = WaflFilesystem.format(volume, nvram=NvramLog())
            generator = WorkloadGenerator(
                sizes=FileSizeDistribution(max_bytes=MAX_FILE),
                seed=CAMPAIGN_SEED + index)
            tree = generator.populate(fs, VOLUME_DATA)
            fs.consistency_point()
            self.pristine.append((fs, tree))

    def unit(self, run: Pass) -> None:
        from repro.chaos import compare_digests

        plan_seed = self.seed * 101 + (run.units - 1) % CHAOS_PLANS
        oracle, oracle_restores = self._campaign(run, plan_seed, False)
        faulted, restores = self._campaign(run, plan_seed, True)
        mismatches = compare_digests(oracle, faulted)
        run.check(not mismatches, "chaos_campaign: recovered state differs"
                  " from the oracle: %s" % [m[0] for m in mismatches])
        run.check(restores == oracle_restores, "chaos_campaign: restores"
                  " from recovered media differ from the oracle's")
        run.output("plan%d" % plan_seed, faulted)

    def _campaign(self, run: Pass, plan_seed: int, faulted: bool):
        """One campaign over clones of the pristine volumes; returns the
        digests of its artifacts and of its latest-day restores."""
        from repro.catalog import BackupCatalog
        from repro.chaos import ChaosCampaignDriver, ChaosPlan
        from repro.manager import MediaPool, parse_schedule, prune
        from repro.nvram.log import NvramLog

        directory = self.fresh_dir("faulted" if faulted else "oracle")
        catalog = BackupCatalog(os.path.join(directory, "cat.json"))
        pool = MediaPool(catalog)
        pool.add_blank(120, capacity=8 * MB)
        driver = ChaosCampaignDriver(
            catalog, pool, ChaosPlan(plan_seed, enabled=faulted),
            seed=CAMPAIGN_SEED)
        for (name, strategy), (fs, tree) in zip(VOLUMES, self.pristine):
            driver.add_volume(fs.clone_volume(nvram=NvramLog()),
                              copy.deepcopy(tree), strategy,
                              parse_schedule("hanoi:3"))
            catalog.set_policy(name, "/", "window 7 days", save=False)
        for day in range(CHAOS_DAYS):
            start = time.perf_counter()
            results = driver.run_day()
            prune(catalog, pool, now_day=day)
            run.step(time.perf_counter() - start,
                     sum(backup_set.bytes_to_tape
                         for backup_set, _job in results.values()))
        if faulted:
            hits = sum(1 for e in driver.events if e["outcome"] == "hit")
            self.count("chaos.faults_planned", len(driver.events))
            self.count("chaos.faults_hit", hits)
        restores = self._restores(run, catalog, pool)
        return self._digests(catalog, pool, driver, directory), restores

    @staticmethod
    def _digests(catalog, pool, driver, directory) -> Dict[str, str]:
        from repro.chaos import campaign_state_digests
        from repro.storage.persist import save_volume

        pool_path = os.path.join(directory, "pool.med")
        pool.save(pool_path)
        paths = {}
        for (name, _strategy), state in zip(VOLUMES, driver.volumes):
            state.fs.consistency_point()
            paths[name] = os.path.join(directory, "%s.vol" % name)
            save_volume(state.fs.volume, paths[name])
        return campaign_state_digests(catalog.path, pool_path, paths)

    @staticmethod
    def _restores(run: Pass, catalog, pool) -> List[str]:
        """Latest-day restore of both volumes, timed as one restore (the
        logical and image restores differ several-fold, so timing them
        apart would split the samples into two clusters and the median
        would jump between them); returns their digests.

        Restores are compared with the oracle's restores, not with the
        live volume: an incremental logical restore keeps a stale ACL on
        a reused inode (see BENCHMARK.md, "Findings"), which a live
        comparison reports.
        """
        from repro.chaos.verify import volume_digest
        from repro.manager import restore_point_in_time
        from repro.raid.layout import make_geometry

        digests, seconds, moved = [], 0.0, 0
        for name, _strategy in VOLUMES:
            start = time.perf_counter()
            fs, plan = restore_point_in_time(
                catalog, pool, name,
                geometry=make_geometry(*VOLUME_GEOMETRY))
            seconds += time.perf_counter() - start
            moved += sum(s.bytes_to_tape for s in plan.sets)
            digests.append(volume_digest(fs.volume))
        run.restore(seconds, moved)
        return digests


WORKLOADS = {
    cls.name: cls for cls in (PaperTables, FleetDays, ChaosCampaign)
}
