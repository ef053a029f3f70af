"""Vectorized-STA benchmark: full_propagate, struct-of-arrays vs scalar.

The STA kernel's ``full_propagate`` is a flat numpy struct-of-arrays
sweep (levelized frontier arrays, CSR fanin segments with ``reduceat``
merges, batched delay-policy evaluation).  This benchmark builds the
**largest corpus design** (the GPU shader profile) through placement
and global routing, then times two kernels from the same inputs:

- the live ``TimingGraph.full_propagate``;
- ``propagate_scalar`` from ``tests/eda/sta_reference.py``: the frozen
  historical per-node dict-and-loop kernel over the same topology and
  delay policy, kept as an honest comparator.

Checks (exit code 1 on failure):

- every propagated state map (late/early arrivals, slews, predecessor
  chains) is **bit-identical** across the two kernels, and the live
  :class:`TimingReport` equals the frozen reference engine's, for both
  engines at the signoff corner mix;
- the vectorized kernel is >= ``MIN_SPEEDUP`` (5x) faster.

``--json PATH`` merges a machine-readable summary into ``PATH`` under
the ``"vectorized"`` key (see ``make bench-trajectory``); ``--smoke``
reduces repetitions for CI while keeping every assertion.

Usage::

    PYTHONPATH=src python benchmarks/vectorized_sta_benchmark.py
    PYTHONPATH=src python benchmarks/vectorized_sta_benchmark.py --smoke \
        --json BENCH_sta.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.bench.generators import design_profile
from repro.eda.cts import ClockTreeSynthesizer
from repro.eda.floorplan import make_floorplan
from repro.eda.library import make_default_library
from repro.eda.placement import QuadraticPlacer
from repro.eda.routing import GlobalRouter
from repro.eda.sta import GraphSTA, SignoffSTA, SLOW
from repro.eda.synthesis import synthesize

# the frozen reference lives in the test tree (repo root on sys.path)
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.eda import sta_reference as ref  # noqa: E402

CLOCK = 1100.0
#: required live/frozen-scalar full-propagation speedup
MIN_SPEEDUP = 5.0
STATE_MAPS = ("_arrival", "_arrival_min", "_slew", "_pred")


def build_state(seed: int):
    """Implement the GPU shader profile up to the timing stage."""
    lib = make_default_library()
    spec = design_profile("gpu_shader")
    netlist = synthesize(spec, lib, effort=0.6, seed=seed)
    floorplan = make_floorplan(netlist, utilization=0.7)
    placement = QuadraticPlacer().place(netlist, floorplan, seed=seed + 1)
    clock_tree = ClockTreeSynthesizer(0.5).synthesize(netlist, placement, seed + 2)
    congestion = GlobalRouter().route(placement, seed=seed + 3).congestion_map()
    return netlist, placement, clock_tree.skews, congestion


def best_of(propagate, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one ``propagate()`` call."""
    propagate()  # warm: SoA build, cell registry, allocations
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        propagate()
        best = min(best, time.perf_counter() - t0)
    return best


def states_identical(vec, scalar) -> bool:
    for attr in STATE_MAPS:
        if dict(getattr(vec, attr).items()) != dict(getattr(scalar, attr).items()):
            print(f"FAIL: {attr} differs between kernels")
            return False
    return True


def reports_identical(got, want) -> bool:
    if list(got.endpoints) != list(want.endpoints):
        return False
    for name in got.endpoints:
        a, b = got.endpoints[name], want.endpoints[name]
        if (a.arrival, a.slack, a.hold_slack, a.path_slew) != (
                b.arrival, b.slack, b.hold_slack, b.path_slew):
            return False
    return got.runtime_proxy == want.runtime_proxy and got.paths == want.paths


def merge_json(path: str, key: str, payload: dict) -> None:
    """Merge ``payload`` under ``key`` into the JSON file at ``path``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = {}
    data[key] = payload
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="flow seed")
    parser.add_argument("--repeats", type=int, default=20,
                        help="timing repetitions (best-of)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI run: fewer repetitions, same assertions")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="merge results under 'vectorized' in PATH")
    args = parser.parse_args(argv)
    repeats = 5 if args.smoke else args.repeats

    netlist, placement, skews, congestion = build_state(args.seed)
    n_insts = len(netlist.instances)
    print(f"gpu_shader ({n_insts} instances, {len(netlist.nets)} nets), "
          f"seed={args.seed}, best of {repeats}")

    # --- bit-identity across both engines --------------------------------
    identical = True
    references = (ref.GraphSTA(ref.SLOW), ref.SignoffSTA(ref.SLOW))
    for engine, reference in zip((GraphSTA(SLOW), SignoffSTA(SLOW)), references):
        g = engine.build_graph(netlist, placement, skews=skews,
                               congestion=congestion, check_hold=True)
        g.full_propagate()
        if not states_identical(g, ref.propagate_scalar(g)):
            identical = False
        want = reference.analyze(netlist, placement, CLOCK, skews, congestion,
                                 check_hold=True)
        if not reports_identical(g.report(CLOCK), want):
            print(f"FAIL: {engine.engine_name} report differs from the "
                  f"frozen reference")
            identical = False
    if identical:
        print("bit-identical: state maps and reports, both engines "
              "(signoff corner, hold + PBA)")

    # --- wall clock -------------------------------------------------------
    graph = SignoffSTA(SLOW).build_graph(netlist, placement, skews=skews,
                                         congestion=congestion, check_hold=True)
    t_vec = best_of(graph.full_propagate, repeats)
    t_scalar = best_of(lambda: ref.propagate_scalar(graph), repeats)
    speedup = t_scalar / t_vec if t_vec > 0 else float("inf")
    print(f"full_propagate: scalar={t_scalar * 1e3:.2f} ms  "
          f"vectorized={t_vec * 1e3:.2f} ms  -> {speedup:.1f}x")

    if args.json:
        merge_json(args.json, "vectorized", {
            "design": "gpu_shader",
            "instances": n_insts,
            "scalar_ms": round(t_scalar * 1e3, 4),
            "vectorized_ms": round(t_vec * 1e3, 4),
            "speedup": round(speedup, 2),
            "bit_identical": identical,
        })
        print(f"wrote 'vectorized' section to {args.json}")

    if not identical:
        return 1
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: expected >= {MIN_SPEEDUP:.1f}x speedup, "
              f"got {speedup:.1f}x")
        return 1
    print(f"OK: >= {MIN_SPEEDUP:.1f}x faster at bitwise-identical reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
