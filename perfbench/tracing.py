"""In-memory spans around the public calls into each layer.

The benchmark traces from its own files: :meth:`Tracer.install` replaces each
public entry point listed in :data:`LAYER_CALLS` (and the ``run``
method of every pipeline stage) with a wrapper that records one span
per call, and :meth:`Tracer.uninstall` puts the originals back.  Spans
stay in memory until the run ends, then :meth:`Tracer.write_chrome`
exports them as Chrome trace-event JSON, which Perfetto opens.

Wrappers see the process they are installed in.  Pool workers forked
while tracing is off carry no wrappers, so the benchmark covers worker
code with one serial traced pass instead (see ``run.py``).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: (module, class or None for a module function, attribute, span name)
LAYER_CALLS = (
    ("repro.eda.stages.synth", None, "synthesize", "synthesis.synthesize"),
    ("repro.eda.placement", "QuadraticPlacer", "place", "placement.quadratic"),
    ("repro.eda.placement", "AnnealingRefiner", "refine", "placement.anneal"),
    ("repro.eda.cts", "ClockTreeSynthesizer", "synthesize", "cts.synthesize"),
    ("repro.eda.routing", "GlobalRouter", "route", "routing.global"),
    ("repro.eda.opt", "TimingOptimizer", "optimize", "opt.optimize"),
    ("repro.eda.opt", "TimingOptimizer", "fix_hold", "opt.fix_hold"),
    ("repro.eda.sta.graph", "TimingGraph", "full_propagate", "sta.full_propagate"),
    ("repro.eda.sta.graph", "TimingGraph", "update", "sta.update"),
    ("repro.eda.routing", "DetailedRouter", "route", "routing.detailed"),
    ("repro.eda.stages.cache", "StageCache", "get", "stage_cache.get"),
    ("repro.eda.stages.cache", "StageCache", "put", "stage_cache.put"),
    ("repro.core.parallel.executor", "FlowExecutor", "run_jobs", "executor.batch"),
    ("repro.core.parallel.executor", None, "run_flow_job_staged", "executor.job"),
    ("repro.dse.engine", "DSEEngine", "run", "dse.engine"),
    ("repro.dse.kill", "CardKillPolicy", "__call__", "dse.kill"),
    ("repro.metrics.transmitter", "Transmitter", "flush", "metrics.flush"),
    ("repro.metrics.store", "SqliteStore", "ingest", "metrics.ingest"),
    ("repro.dse.surrogate", "SurrogateProposer", "fit_from_store", "metrics.read"),
)


def _log_proxy(logs) -> float:
    return sum(log.runtime_proxy for log in logs)


class Span:
    __slots__ = ("name", "start", "end", "tid", "parent", "args")

    def __init__(self, name: str, start: float, tid: int, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.tid = tid
        self.parent = parent
        self.args: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans (name, start, end, parent) from any thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------ recording
    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, time.perf_counter(), threading.get_ident(),
                    stack[-1] if stack else None)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        self._local.stack.pop()
        span = self.spans[index]
        span.end = time.perf_counter()
        return span

    def wrap(self, name: str, fn: Callable, on_return=None, before=None) -> Callable:
        """``fn`` recording a span per call; ``on_return(span, args,
        result, before(args))`` may attach counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = self._close(index)
                if on_return is not None:
                    on_return(span, args, result, token)

        return traced

    # --------------------------------------------------------- installation
    def install(self) -> None:
        """Wrap every call in :data:`LAYER_CALLS` and every stage's ``run``."""
        for module_name, class_name, attr, span_name in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(span_name, original,
                                           _COUNTERS.get(span_name)))
            self._restore.append(functools.partial(setattr, owner, attr, original))

        from repro.eda.stages import FULL_FLOW_STAGES

        for stage in FULL_FLOW_STAGES:
            stage.run = self.wrap(f"stage.{stage.name}", stage.run, _stage_counts,
                                  before=_log_count)
            self._restore.append(functools.partial(delattr, stage, "run"))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------ summaries
    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.duration - child_time[index]
        return dict(totals)

    def totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.duration
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
        return dict(counts)

    def arg_sums(self, name: str) -> Dict[str, float]:
        sums: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name:
                for key, value in span.args.items():
                    sums[key] += value
        return dict(sums)

    def self_time_table(self) -> str:
        totals, selfs, calls = self.totals(), self.self_times(), self.calls()
        lines = [f"{'span':<24} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
        for name in sorted(selfs, key=lambda n: -selfs[n]):
            lines.append(f"{name:<24} {calls[name]:>8} {totals[name]:>10.4f} "
                         f"{selfs[name]:>10.4f}")
        return "\n".join(lines)

    def write_chrome(self, path: str, metadata: Dict) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        origin = min((span.start for span in self.spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for span in self.spans:
            events.append({
                "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
                "ts": (span.start - origin) * 1e6, "dur": span.duration * 1e6,
                "pid": 1, "tid": tids.setdefault(span.tid, len(tids) + 1),
                "args": span.args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh)


# --------------------------------------------------------------- counters
def _log_count(args) -> int:
    return len(args[0].result.logs)  # stage.run is wrapped bound: args[0] is the state


def _stage_counts(span: Span, args, _result, n_logs: int) -> None:
    """Proxy of the logs the stage appended; timing work the flow did so
    far, read once the terminal stage has run."""
    state = args[0]
    span.args["proxy"] = _log_proxy(state.result.logs[n_logs:])
    if state.netlist is not None and state.spec is not None:
        # flows of one design spec share n_gates; scale exponents group by it
        span.args["gates"] = float(state.spec.n_gates)
        span.args["instances"] = float(state.netlist.n_instances)
    if span.name == "stage.droute_signoff" and state.sta_stats is not None:
        span.args["sta_nodes"] = float(state.sta_stats.nodes_propagated)


def _cache_get_counts(span: Span, _args, result, _token) -> None:
    span.args["hit"] = float(result is not None)
    if result is not None:
        span.args["proxy_saved"] = _log_proxy(result.result.logs)


def _droute_counts(span: Span, _args, result, _token) -> None:
    if result is not None:
        span.args["iterations"] = float(result.iterations_run)


def _batch_counts(span: Span, args, _result, _token) -> None:
    executor = args[0]
    span.args["n_workers"] = float(executor.n_workers)


_COUNTERS = {
    "stage_cache.get": _cache_get_counts,
    "routing.detailed": _droute_counts,
    "executor.batch": _batch_counts,
}
