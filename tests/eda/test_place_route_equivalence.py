"""Placement/routing kernels vs the frozen scalar references.

For every kernel the struct-of-arrays implementation in ``src/`` and the
frozen post-bugfix per-object loops (``tests/eda/placement_reference.py``
/ ``routing_reference.py``) must agree **bitwise** — positions, HPWL,
demand grids, congestion maps, and DRV trajectories — across three
designs (one with a macro) and three seeds, with and without net-weight
overlays, and at track densities down to below one track per edge.
The ``*_triple_equivalence`` names date from when an in-tree scalar
twin of each kernel was compared as a third party.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest

from repro.eda.floorplan import Macro, make_floorplan
from repro.eda.library import make_default_library
from repro.eda.placement import AnnealingRefiner, QuadraticPlacer
from repro.eda.routing import DetailedRouter, GlobalRouter
from repro.eda.synthesis import DesignSpec, synthesize

from .placement_reference import ReferenceAnnealingRefiner, ReferenceQuadraticPlacer
from .routing_reference import ReferenceDetailedRouter, ReferenceGlobalRouter

SEEDS = (3, 11, 29)

SPECS = {
    "logic": DesignSpec(name="logic", n_gates=110, n_flops=14, n_inputs=8,
                        n_outputs=8, depth=9, locality=0.8),
    "datapath": DesignSpec(name="datapath", n_gates=170, n_flops=24, n_inputs=12,
                           n_outputs=10, depth=12, locality=0.55),
    "macroized": DesignSpec(name="macroized", n_gates=140, n_flops=18, n_inputs=10,
                            n_outputs=6, depth=10, locality=0.7),
}


@functools.lru_cache(maxsize=None)
def _floorplanned(design: str):
    netlist = synthesize(SPECS[design], make_default_library(), effort=0.5, seed=17)
    fp = make_floorplan(netlist, utilization=0.7)
    if design == "macroized":
        fp.add_macro(Macro("ram", x=fp.width * 0.15, y=fp.height * 0.2,
                           width=fp.width * 0.25, height=fp.height * 0.3))
    return netlist, fp


@functools.lru_cache(maxsize=None)
def _placed(design: str, seed: int):
    """One legalized placement per (design, seed), placed by the fast path."""
    netlist, fp = _floorplanned(design)
    return QuadraticPlacer().place(netlist, fp, seed=seed)


def _weights(netlist):
    """A deterministic non-trivial net-weight overlay."""
    return {name: 1.0 + 0.5 * (i % 4)
            for i, name in enumerate(netlist.nets) if i % 3 == 0}


def _positions_equal(a, b):
    assert set(a.positions) == set(b.positions)
    for name, pos in a.positions.items():
        assert pos == b.positions[name], name


def _routes_equal(fast, reference):
    assert np.array_equal(fast.demand_h, reference.demand_h)
    assert np.array_equal(fast.demand_v, reference.demand_v)
    assert fast.wirelength == reference.wirelength
    assert fast.capacity_h == reference.capacity_h
    assert fast.capacity_v == reference.capacity_v
    assert np.array_equal(fast.congestion_map(), reference.congestion_map())
    assert fast.overflow == reference.overflow
    assert fast.max_congestion == reference.max_congestion


# ----------------------------------------------------------------- placer
@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_placer_triple_equivalence(design, seed):
    netlist, fp = _floorplanned(design)
    fast = QuadraticPlacer().place(netlist, fp, seed=seed)
    reference = ReferenceQuadraticPlacer().place(netlist, fp, seed=seed)
    _positions_equal(fast, reference)
    assert fast.hpwl() == reference.hpwl()
    fast.validate()


@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("strength", (0.0, 0.8, 1.0))
def test_spread_matches_reference_before_legalization(design, strength):
    """Legalization snaps to sites and can absorb a small drift in the
    spreading blend, so the spread kernel is compared on its own."""
    _, fp = _floorplanned(design)
    rng = np.random.default_rng(5)
    # analytic coordinates overshoot the core on both sides, with ties
    xs = np.round(rng.uniform(-0.2, 1.2, 300) * fp.width, 1)
    ys = np.round(rng.uniform(-0.2, 1.2, 300) * fp.height, 1)
    fast = QuadraticPlacer(strength)._spread(xs.copy(), ys.copy(), fp)
    reference = ReferenceQuadraticPlacer(strength)._spread(xs.copy(), ys.copy(), fp)
    assert np.array_equal(fast[0], reference[0])
    assert np.array_equal(fast[1], reference[1])


# --------------------------------------------------------------- annealer
@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("weighted", (False, True))
def test_annealer_triple_equivalence(design, seed, weighted):
    base = _placed(design, seed)
    weights = _weights(base.netlist) if weighted else None
    p_fast = copy.deepcopy(base)
    p_ref = copy.deepcopy(base)
    fast = AnnealingRefiner(moves_per_cell=8)
    reference = ReferenceAnnealingRefiner(moves_per_cell=8)
    h_fast = fast.refine(p_fast, seed=seed + 1, net_weights=weights)
    h_ref = reference.refine(p_ref, seed=seed + 1, net_weights=weights)
    assert h_fast == h_ref
    _positions_equal(p_fast, p_ref)
    # the evaluated temperature schedules agree too
    assert fast.last_schedule.first_temperature == reference.last_first_temperature
    assert fast.last_schedule.last_temperature == reference.last_last_temperature
    assert fast.last_schedule.n_evaluated == reference.last_n_evaluated


# ----------------------------------------------------------- global route
@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tracks", (16.0, 6.0, 0.5))
def test_groute_triple_equivalence(design, seed, tracks):
    placement = _placed(design, seed)
    fast = GlobalRouter(tracks_per_um=tracks).route(placement, seed=seed)
    reference = ReferenceGlobalRouter(tracks_per_um=tracks).route(placement, seed=seed)
    _routes_equal(fast, reference)


def test_groute_segments_identical_on_nondefault_grid():
    """The lexsort segment build matches the per-net build off-square too."""
    placement = _placed("datapath", 3)
    fast = GlobalRouter(nx=9, ny=21).route(placement, seed=3)
    reference = ReferenceGlobalRouter(nx=9, ny=21).route(placement, seed=3)
    _routes_equal(fast, reference)


# --------------------------------------------------------- detailed route
@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_droute_triple_equivalence(design, seed):
    placement = _placed(design, seed)
    congestion = GlobalRouter(tracks_per_um=7.0).route(placement, seed=seed).congestion_map()
    fast = DetailedRouter().route(congestion, seed=seed)
    reference = ReferenceDetailedRouter().route(congestion, seed=seed)
    assert fast.drvs_per_iteration == reference.drvs_per_iteration
    assert (fast.success, fast.iterations_run, fast.stopped_early) == \
        (reference.success, reference.iterations_run, reference.stopped_early)
    assert fast.metadata == reference.metadata
