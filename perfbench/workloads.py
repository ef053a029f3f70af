"""The four benchmark workloads and their output checks.

Each workload builds a fixed job list from the benchmark seed during
set-up, then runs it once per *pass*.  The seed jitters each target
clock by up to 5% (and seeds the kill policy of ``campaign-explore``);
the flow and campaign seeds, which carry the run-to-run QoR noise of
paper Fig 3, are fixed, so the exact metrics (runtime proxy, best
score, success share) stay comparable across benchmark seeds.

A pass does the same work every time, so its outputs must repeat
exactly; a workload's checks compare them against a second code path
(stage-by-stage replay, the stage cache switched off, another worker
count).  Every mismatch counts as a failed job.  Why each workload
exists, and which layer metric should move which end-to-end metric on
it, is in ``perfbench/README.md``.

Nothing from ``repro`` is imported at module level: the first import is
part of the set-up time the benchmark measures.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, List, Optional

import numpy as np


@dataclass
class PassResult:
    """What one pass over a workload's job list produced."""

    wall: float
    units: List[float]               # latency of each unit call
    results: List[object]            # FlowResult or FlowExecutionError per job
    proxy_executed: float            # runtime proxy actually paid
    fingerprint: object = None       # must repeat exactly across passes
    executor_stats: List[object] = field(default_factory=list)
    campaigns: List[object] = field(default_factory=list)   # DSEResults
    records: int = 0                 # metrics records written
    jobs: List[object] = field(default_factory=list)        # FlowJob per result (campaigns)
    speed: float = 1.0               # reference seconds per measured second


# ------------------------------------------------------------ comparisons
def same(a, b) -> bool:
    """Field-for-field equality of results; NaN equals NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if is_dataclass(a) and is_dataclass(b):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


def diff_fields(a, b) -> List[str]:
    """Names of the top-level fields on which two flow results differ."""
    if type(a) is not type(b) or not is_dataclass(a):
        return [] if same(a, b) else ["<outcome>"]
    return [f.name for f in fields(a)
            if not same(getattr(a, f.name), getattr(b, f.name))]


def mismatches(label: str, expected: List, actual: List) -> List[str]:
    """One message per job whose two results differ field for field."""
    if len(expected) != len(actual):
        return [f"{label}: {len(actual)} results, expected {len(expected)}"]
    problems = []
    for index, (want, got) in enumerate(zip(expected, actual)):
        diff = diff_fields(want, got)
        if diff:
            problems.append(f"{label}: job {index} differs in {', '.join(diff)}")
    return problems


def replay_staged(design, options, seed):
    """One full flow driven stage by stage through the public pipeline
    API (``plan_stages`` + ``FlowStage.run``), without the runner."""
    from repro.eda.flow import FlowResult
    from repro.eda.stages import PipelineState, plan_stages

    _kind, stages, stage_seeds = plan_stages(design, seed)
    state = PipelineState(
        result=FlowResult(design=design.name, options=options, seed=seed),
        spec=design,
    )
    for stage, seeds in zip(stages, stage_seeds):
        stage.run(state, options, seeds)
    state.result.runtime_proxy = sum(log.runtime_proxy for log in state.result.logs)
    return state.result


def _import_repro() -> None:
    import repro.bench.generators  # noqa: F401
    import repro.dse  # noqa: F401
    import repro.eda.flow  # noqa: F401
    import repro.eda.stages  # noqa: F401


def _warm_flow() -> None:
    """One small flow: builds the default cell library and warms the
    kernels' lazy state before anything is timed."""
    from repro.bench.generators import DRIVER_CLASSES
    from repro.eda.flow import FlowOptions, SPRFlow

    SPRFlow().run(DRIVER_CLASSES["PHY"], FlowOptions(), seed=0)


#: flow seeds of the flow and executor workloads
FLOW_SEEDS = (1, 2)


class Workload:
    """A fixed job list and one way to run it per pass."""

    name = ""
    #: in a traced run, pool workers' spans are out of reach: the traced
    #: passes of a pooled workload run at this worker count instead
    traced_workers: Optional[int] = None

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir   # where a workload may write files
        self.rng = np.random.default_rng(seed)

    def setup(self) -> Dict[str, float]:
        """Everything before the first timed pass, by component (s)."""
        t0 = time.perf_counter()
        _import_repro()
        t1 = time.perf_counter()
        _warm_flow()
        t2 = time.perf_counter()
        self.build_jobs()
        return {"import_s": t1 - t0, "warmup_s": t2 - t1,
                "jobs_s": time.perf_counter() - t2}

    def build_jobs(self) -> None:
        raise NotImplementedError

    def jitter(self, target_ghz: float) -> float:
        """A target clock within 5% of ``target_ghz``, drawn from the seed."""
        return round(target_ghz * float(self.rng.uniform(0.95, 1.05)), 4)

    def run_pass(self, workers: Optional[int] = None) -> PassResult:
        raise NotImplementedError

    def check_run(self, passes: List[PassResult]) -> List[str]:
        """Checks after the timed passes of an untraced run."""
        return []

    def check_traced(self, untraced: List[PassResult],
                     traced: List[PassResult]) -> List[str]:
        """Checks of a traced run (traced passes against untraced ones)."""
        return []


# ------------------------------------------------------------ flow workloads
class _FlowWorkload(Workload):
    """Serial ``SPRFlow.run`` calls; the unit is one flow."""

    def build_jobs(self) -> None:
        self.jobs = self.make_jobs()

    def make_jobs(self):
        raise NotImplementedError

    def run_pass(self, workers=None, staged: bool = False) -> PassResult:
        from repro.eda.flow import SPRFlow

        units, results = [], []
        start = time.perf_counter()
        for design, options, seed in self.jobs:
            t0 = time.perf_counter()
            if staged:
                result = replay_staged(design, options, seed)
            else:
                result = SPRFlow().run(design, options, seed=seed)
            units.append(time.perf_counter() - t0)
            results.append(result)
        wall = time.perf_counter() - start
        proxy = sum(r.runtime_proxy for r in results)
        return PassResult(wall=wall, units=units, results=results,
                          proxy_executed=proxy, fingerprint=results)

    def run_traced_pass(self) -> PassResult:
        # the traced pass *is* the stage-by-stage replay: its spans give
        # the per-stage breakdown, its results are checked against
        # SPRFlow.run from the untraced passes
        return self.run_pass(staged=True)

    def check_run(self, passes):
        # a one-job replay keeps every untraced run honest at ~1/n cost
        design, options, seed = self.jobs[0]
        replay = replay_staged(design, options, seed)
        return mismatches("stage-by-stage replay", passes[0].results[:1], [replay])

    def check_traced(self, untraced, traced):
        problems = []
        for one in traced:
            problems += mismatches("stage-by-stage replay", untraced[0].results,
                                   one.results)
        return problems


class FlowCorpus(_FlowWorkload):
    """The six driver-class designs at one target below and one above
    each design's feasibility wall, at two flow seeds."""

    name = "flow-corpus"
    #: design -> (utilization, feasible target GHz, infeasible target GHz):
    #: about 0.8x and 1.3x each design's wall, so that neither side flips
    #: under the +-5% jitter; the two big designs only route reliably at
    #: low utilization
    TARGETS = {
        "CPU": (0.45, 0.38, 0.65),
        "MCU": (0.65, 0.60, 1.25),
        "DSP": (0.65, 0.55, 1.00),
        "NOC": (0.65, 0.70, 1.25),
        "GPU": (0.45, 0.38, 0.65),
        "PHY": (0.70, 1.10, 2.20),
    }

    def make_jobs(self):
        from repro.bench.generators import DRIVER_CLASSES
        from repro.eda.flow import FlowOptions

        return [(DRIVER_CLASSES[cls],
                 FlowOptions(target_clock_ghz=self.jitter(target), utilization=utilization),
                 seed)
                for cls, (utilization, lo, hi) in self.TARGETS.items()
                for target in (lo, hi)
                for seed in FLOW_SEEDS]


class FlowScale(_FlowWorkload):
    """PULPino at 2x, 4x and 8x, each at a target it meets, with routing
    resources that let the biggest rung route."""

    name = "flow-scale"
    RUNGS = ((2.0, 0.30), (4.0, 0.15), (8.0, 0.08))   # (scale, target GHz)

    def make_jobs(self):
        from repro.bench.generators import pulpino_profile
        from repro.eda.flow import FlowOptions

        return [(pulpino_profile(scale),
                 FlowOptions(target_clock_ghz=self.jitter(target), utilization=0.6,
                             router_tracks_per_um=64.0),
                 FLOW_SEEDS[0])
                for scale, target in self.RUNGS]


# ------------------------------------------------------------ executor workloads
class KnobSweep(Workload):
    """Router and optimizer knob points at one (design, seed), through
    a serial ``FlowExecutor`` with the stage-prefix cache; the unit is
    one ``run_jobs`` batch."""

    name = "knob-sweep"
    BATCH = 2

    def build_jobs(self) -> None:
        from repro.bench.generators import DRIVER_CLASSES
        from repro.core.parallel import FlowJob
        from repro.eda.flow import FlowOptions

        base = FlowOptions(placer_moves_per_cell=32, target_clock_ghz=self.jitter(0.6))
        points = [base.with_(router_effort=effort, router_max_iterations=iterations)
                  for effort in (0.3, 0.5, 0.7, 0.9)
                  for iterations in (10, 20, 30)]
        points += [base.with_(opt_passes=passes, opt_guardband=guardband)
                   for passes in (4, 8) for guardband in (0.0, 20.0)]
        self.jobs = [FlowJob(DRIVER_CLASSES["MCU"], options, FLOW_SEEDS[0])
                     for options in points]

    def run_pass(self, workers=None, stage_cache: bool = True) -> PassResult:
        from repro.core.parallel import FlowExecutor

        units, results = [], []
        start = time.perf_counter()
        # whole-run cache off: every point is distinct, so only the
        # stage-prefix tier can save work; a fresh executor per pass
        # starts from an empty stage cache
        with FlowExecutor(n_workers=1, cache=False, stage_cache=stage_cache) as executor:
            for i in range(0, len(self.jobs), self.BATCH):
                t0 = time.perf_counter()
                results += executor.run_jobs(self.jobs[i:i + self.BATCH])
                units.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        return PassResult(wall=wall, units=units, results=results,
                          proxy_executed=executor.stats.runtime_proxy_executed,
                          fingerprint=(results, executor.stats.runtime_proxy_executed),
                          executor_stats=[executor.stats])

    def run_traced_pass(self) -> PassResult:
        return self.run_pass()

    def check_run(self, passes):
        uncached = self.run_pass(stage_cache=False)
        return mismatches("stage cache off vs on", uncached.results, passes[0].results)

    def check_traced(self, untraced, traced):
        problems = self.check_run(untraced)
        for one in traced:
            problems += mismatches("traced vs untraced", untraced[0].results, one.results)
        return problems


class CampaignExplore(Workload):
    """``repro dse --strategy explorer --kill mdp`` on MCU as a library
    call: two workers, result and stage caches, an MDP kill policy and a
    fresh sqlite warehouse, then a surrogate fit read back from the
    warehouse.  The unit is one ``run_jobs`` batch (one explorer round).

    The campaign seed is fixed; the benchmark seed seeds the kill
    policy's training corpus.  Between campaign seeds the explorer's
    success share swings by a third, more than any affordable number of
    campaigns per run averages out, while a new kill policy changes only
    the runs it kills and what the search does after them.
    """

    name = "campaign-explore"
    WORKERS = 2
    CAMPAIGN_SEED = 1
    PARAMS = {"n_concurrent": 5, "n_rounds": 4}   # the `repro dse` defaults
    traced_workers = 1

    def setup(self) -> Dict[str, float]:
        parts = super().setup()
        from repro.core.parallel import FlowExecutor
        from repro.dse import train_kill_policy
        from repro.metrics import SqliteStore

        t0 = time.perf_counter()
        self.kill_policy = train_kill_policy("mdp", seed=self.seed)
        t1 = time.perf_counter()
        with FlowExecutor(n_workers=self.WORKERS) as executor:
            executor.map(os.getpid, [()] * self.WORKERS)
        t2 = time.perf_counter()
        path = self._db_path("setup")
        SqliteStore(path).close()
        _remove_db(path)
        parts.update(kill_train_s=t1 - t0, pool_start_s=t2 - t1,
                     warehouse_s=time.perf_counter() - t2)
        return parts

    def build_jobs(self) -> None:
        from repro.bench.generators import DRIVER_CLASSES

        self.design = DRIVER_CLASSES["MCU"]

    def _db_path(self, tag: str) -> str:
        return os.path.join(self.out_dir, f"warehouse-{os.getpid()}-{tag}.sqlite")

    def run_pass(self, workers=None) -> PassResult:
        from repro.core.parallel import FlowExecutor
        from repro.dse import DSEEngine, SurrogateProposer
        from repro.metrics import MetricsCollector, MetricsServer, SqliteStore, open_store

        workers = workers or self.WORKERS
        campaign_seed = self.CAMPAIGN_SEED
        units, results, jobs = [], [], []
        start = time.perf_counter()
        path = self._db_path("campaign")
        _remove_db(path)
        server = MetricsServer(store=SqliteStore(path), campaign=f"perfbench-{campaign_seed}")
        collector = MetricsCollector(server, cross_process=workers > 1)
        try:
            with FlowExecutor(n_workers=workers, cache=True, collector=collector,
                              stage_cache=True) as executor:
                run_jobs = executor.run_jobs

                def timed_run_jobs(batch, stop_callback=None):
                    t0 = time.perf_counter()
                    out = run_jobs(batch, stop_callback)
                    units.append(time.perf_counter() - t0)
                    results.extend(out)
                    jobs.extend(batch)
                    return out

                executor.run_jobs = timed_run_jobs
                engine = DSEEngine(strategy="explorer", executor=executor,
                                   kill_policy=self.kill_policy, params=self.PARAMS)
                dse = engine.run(self.design, seed=campaign_seed)
                collector.stop()
            n_records = len(server)
        finally:
            collector.stop()
            server.close()
        with open_store(path) as store:
            fitted = SurrogateProposer(random_state=0).fit_from_store(store)
        _remove_db(path)
        wall = time.perf_counter() - start
        fingerprint = (dse.best_score, dse.best_result, dse.n_runs, dse.n_failed,
                       dse.n_killed, dse.total_runtime_proxy, fitted, n_records)
        return PassResult(wall=wall, units=units, results=results,
                          proxy_executed=executor.stats.runtime_proxy_executed,
                          fingerprint=fingerprint, executor_stats=[executor.stats],
                          campaigns=[dse], records=n_records, jobs=jobs)

    def run_traced_pass(self) -> PassResult:
        return self.run_pass(workers=self.traced_workers)

    def check_run(self, passes):
        fitted = passes[0].fingerprint[6]
        return [] if fitted else ["surrogate could not fit from the warehouse"]

    def check_traced(self, untraced, traced):
        problems = [f"campaign at {self.traced_workers} worker(s) differs from "
                    f"{self.WORKERS} workers"
                    for one in traced
                    if not same(untraced[0].fingerprint, one.fingerprint)]
        return problems + self.check_run(untraced)


def _remove_db(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


WORKLOADS = {w.name: w for w in (FlowCorpus, FlowScale, KnobSweep, CampaignExplore)}


def was_killed(result) -> bool:
    """A run the kill policy stopped: dirty and short of its iteration
    cap (the router only exits early when stopped or clean)."""
    for log in result.logs:
        if log.step == "droute":
            return (result.final_drvs > 0
                    and log.metrics.get("iterations", 0) < result.options.router_max_iterations)
    return False


def kill_audit(passed: PassResult) -> int:
    """Replay each killed job without the kill hook; count the kills of
    runs that would have succeeded (type-1 kills)."""
    from repro.core.parallel import FlowExecutionError
    from repro.eda.flow import SPRFlow

    type1 = 0
    for job, result in zip(passed.jobs, passed.results):
        if isinstance(result, FlowExecutionError) or not was_killed(result):
            continue
        if SPRFlow().run(job.design, job.options, seed=job.seed).success:
            type1 += 1
    return type1
