"""Routing: global routing with congestion negotiation, and a
detailed-routing iteration engine with per-iteration DRV accounting.

The global router works on a gcell grid with per-edge capacities,
decomposes each net into two-pin segments, routes each as the cheaper
L-shape, and runs a few negotiation rounds that penalize overflowed
edges (PathFinder-style).  Its product is a *congestion map* — routing
demand over capacity per gcell.

The detailed router is the substrate for the paper's doomed-run
experiments (Sec 3.3, Figs 9-10).  Modern detailed routers iterate
rip-up-and-reroute, and tool logfiles expose one DRV count per
iteration.  Ours maintains per-gcell violation counts seeded by the
actual congestion map and evolves them by local fix/spill dynamics:
violations in gcells with routing slack get fixed; fixing in overloaded
neighborhoods spills new violations into adjacent gcells.  When total
demand genuinely exceeds supply the run plateaus (doomed); when supply
is ample DRVs decay geometrically (successful) — the trajectory classes
of Fig 9 emerge from the grid state rather than from curve templates.

Both routers run struct-of-arrays kernels: segments come from one
global lexsort + batched gcell binning, L-shape costs sum overflow over
per-row/column demand lists — skipped entirely via per-row/column
hot-edge counts when a row has no overflowed edge — and the detailed
router's rip-up scatter draws one batched multinomial.  Both are
bitwise-identical — same RNG draw order (tie-breaks and scatter draws),
same float operations in the same order — to the historical per-edge
loops frozen as ``tests/eda/routing_reference.py``, which the
equivalence suite checks them against over demand grids, congestion
maps, and DRV trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eda.grid import gcell_indices
from repro.eda.placement import Placement

#: A run "succeeds" if it ends with fewer DRVs than this (paper Sec 3.3).
SUCCESS_DRV_THRESHOLD = 200


@dataclass
class GlobalRouteResult:
    """Global routing outcome on an ``ny x nx`` gcell grid."""

    nx: int
    ny: int
    demand_h: np.ndarray  # (ny, nx-1) horizontal edge usage
    demand_v: np.ndarray  # (ny-1, nx) vertical edge usage
    capacity_h: float
    capacity_v: float
    wirelength: float

    @property
    def overflow(self) -> float:
        """Total routed demand above capacity, over all edges."""
        over_h = np.maximum(0.0, self.demand_h - self.capacity_h).sum()
        over_v = np.maximum(0.0, self.demand_v - self.capacity_v).sum()
        return float(over_h + over_v)

    @property
    def max_congestion(self) -> float:
        """Worst edge demand / capacity ratio."""
        h = (self.demand_h / self.capacity_h).max() if self.demand_h.size else 0.0
        v = (self.demand_v / self.capacity_v).max() if self.demand_v.size else 0.0
        return float(max(h, v))

    def congestion_map(self) -> np.ndarray:
        """Per-gcell demand/capacity ratio (average of incident edges)."""
        grid = np.zeros((self.ny, self.nx))
        counts = np.zeros((self.ny, self.nx))
        if self.demand_h.size:
            ratio_h = self.demand_h / self.capacity_h
            grid[:, :-1] += ratio_h
            grid[:, 1:] += ratio_h
            counts[:, :-1] += 1
            counts[:, 1:] += 1
        if self.demand_v.size:
            ratio_v = self.demand_v / self.capacity_v
            grid[:-1, :] += ratio_v
            grid[1:, :] += ratio_v
            counts[:-1, :] += 1
            counts[1:, :] += 1
        counts[counts == 0] = 1
        return grid / counts


class GlobalRouter:
    """Grid-based global router with negotiated congestion."""

    def __init__(
        self,
        nx: int = 16,
        ny: int = 16,
        tracks_per_um: float = 16.0,
        negotiation_rounds: int = 3,
        overflow_penalty: float = 2.0,
    ):
        """``tracks_per_um`` is the routing supply density: edge capacity
        is the gcell boundary length times this (summing the usable
        metal layers), so supply scales with die size the way real
        enablement does."""
        if nx < 2 or ny < 2:
            raise ValueError("grid must be at least 2x2")
        if tracks_per_um <= 0:
            raise ValueError("tracks_per_um must be positive")
        self.nx = nx
        self.ny = ny
        self.tracks_per_um = tracks_per_um
        self.negotiation_rounds = negotiation_rounds
        self.overflow_penalty = overflow_penalty

    def route(self, placement: Placement, seed: Optional[int] = None) -> GlobalRouteResult:
        rng = np.random.default_rng(seed)
        fp = placement.floorplan
        nx, ny = self.nx, self.ny
        cap_h = self.tracks_per_um * fp.height / ny  # tracks crossing a vertical boundary
        cap_v = self.tracks_per_um * fp.width / nx

        segments = self._segments(placement)
        demand_h, demand_v = self._negotiate(segments, cap_h, cap_v, rng)

        gx = fp.width / nx
        gy = fp.height / ny
        wirelength = float(demand_h.sum() * gx + demand_v.sum() * gy)
        return GlobalRouteResult(
            nx=nx,
            ny=ny,
            demand_h=demand_h,
            demand_v=demand_v,
            capacity_h=cap_h,
            capacity_v=cap_v,
            wirelength=wirelength,
        )

    # ------------------------------------------------------ segment build
    def _segments(self, placement: Placement) -> List[Tuple[int, int, int, int]]:
        """Two-pin segments per net: chain pins in (x, y) order.

        Points are keyed (net ordinal, x, y) so one global lexsort
        reproduces every per-net ``pts.sort()``; binning is the
        array-wide :func:`gcell_indices` (the shared floor-and-clamp
        rule) over all pins at once.  Segments whose ends share a gcell
        are dropped.
        """
        fp = placement.floorplan
        netlist = placement.netlist
        positions = placement.positions
        xs: List[float] = []
        ys: List[float] = []
        nids: List[int] = []
        k = 0
        for net_name, net in netlist.nets.items():
            if net_name == netlist.clock_net:
                continue
            start = len(xs)
            if net.driver is not None:
                x, y = positions[net.driver]
                xs.append(x)
                ys.append(y)
            for s, _ in net.sinks:
                x, y = positions[s]
                xs.append(x)
                ys.append(y)
            pad = fp.pad_positions.get(net_name)
            if pad is not None:
                xs.append(pad[0])
                ys.append(pad[1])
            n_pts = len(xs) - start
            if n_pts < 2:
                del xs[start:], ys[start:]
                continue
            nids.extend([k] * n_pts)
            k += 1
        if not xs:
            return []
        xa = np.asarray(xs)
        ya = np.asarray(ys)
        na = np.asarray(nids)
        order = np.lexsort((ya, xa, na))
        xa, ya, na = xa[order], ya[order], na[order]
        gi, gj = gcell_indices(xa, ya, fp.width, fp.height, self.nx, self.ny)
        same_net = na[1:] == na[:-1]
        ia, ib = gi[:-1][same_net], gi[1:][same_net]
        ja, jb = gj[:-1][same_net], gj[1:][same_net]
        keep = (ia != ib) | (ja != jb)
        cols = np.stack((ia[keep], ja[keep], ib[keep], jb[keep]), axis=1)
        return [tuple(row) for row in cols.tolist()]

    # ------------------------------------------------------- negotiation
    def _negotiate(self, segments, cap_h: float, cap_v: float,
                        rng: np.random.Generator):
        """Struct-of-rows kernel: flat row/column lists plus hot counts.

        Demand lives in plain per-row (and per-column, for the vertical
        layer) float lists instead of a numpy grid, so the negotiation
        loop pays list-index costs rather than numpy scalar-indexing
        dispatch on every edge.  Demand stays integer-valued, so an edge
        is "hot" (contributes a nonzero overflow term) iff
        ``demand + 1 > cap``; per-row and per-column hot-edge counts —
        maintained incrementally as commits cross the capacity
        threshold — let runs through clean rows cost exactly ``hi - lo``
        without touching a single edge.  Skipping the ``over += 0.0``
        terms of cold edges is bitwise-safe (the accumulator never goes
        negative), so every cost, tie-break, and RNG draw matches the
        per-edge reference loop exactly.
        """
        nx, ny = self.nx, self.ny
        penalty = self.overflow_penalty
        n_h = max(1, nx - 1)  # edges per row
        n_v = max(1, ny - 1)  # edges per column
        dh = [[0.0] * n_h for _ in range(ny)]
        dvc = [[0.0] * n_v for _ in range(nx)]  # column-major
        # below one track every empty edge is already hot (0 + 1 > cap)
        hot_h = [n_h if 1.0 > cap_h else 0] * ny
        hot_v = [n_v if 1.0 > cap_v else 0] * nx

        def run_cost_h(j: int, lo: int, hi: int) -> float:
            if lo == hi or not hot_h[j]:
                return float(hi - lo)
            row = dh[j]
            over = 0.0
            for i in range(lo, hi):
                d = row[i] + 1.0 - cap_h
                if d > 0.0:
                    over += d
            return (hi - lo) + penalty * over

        def run_cost_v(i: int, lo: int, hi: int) -> float:
            if lo == hi or not hot_v[i]:
                return float(hi - lo)
            col = dvc[i]
            over = 0.0
            for j in range(lo, hi):
                d = col[j] + 1.0 - cap_v
                if d > 0.0:
                    over += d
            return (hi - lo) + penalty * over

        def commit(row_idx: int, col_idx: int, ilo: int, ihi: int,
                   jlo: int, jhi: int, sign: float) -> None:
            if ihi > ilo:
                row = dh[row_idx]
                hot = hot_h[row_idx]
                for i in range(ilo, ihi):
                    d = row[i]
                    nd = d + sign
                    row[i] = nd
                    if (nd + 1.0 > cap_h) != (d + 1.0 > cap_h):
                        hot += 1 if nd > d else -1
                hot_h[row_idx] = hot
            if jhi > jlo:
                col = dvc[col_idx]
                hot = hot_v[col_idx]
                for j in range(jlo, jhi):
                    d = col[j]
                    nd = d + sign
                    col[j] = nd
                    if (nd + 1.0 > cap_v) != (d + 1.0 > cap_v):
                        hot += 1 if nd > d else -1
                hot_v[col_idx] = hot

        n_segs = len(segments)
        hfs = [False] * n_segs
        integers = rng.integers
        for pass_no in range(1 + self.negotiation_rounds):
            rip_up = pass_no > 0
            for s in range(n_segs):
                ia, ja, ib, jb = segments[s]
                ilo, ihi = (ia, ib) if ia <= ib else (ib, ia)
                jlo, jhi = (ja, jb) if ja <= jb else (jb, ja)
                if rip_up:
                    if hfs[s]:
                        commit(ja, ib, ilo, ihi, jlo, jhi, -1.0)
                    else:
                        commit(jb, ia, ilo, ihi, jlo, jhi, -1.0)
                c_hf = run_cost_h(ja, ilo, ihi) + run_cost_v(ib, jlo, jhi)
                c_vf = run_cost_v(ia, jlo, jhi) + run_cost_h(jb, ilo, ihi)
                if abs(c_hf - c_vf) < 1e-9:
                    hf = bool(integers(0, 2))
                else:
                    hf = c_hf < c_vf
                if hf:
                    commit(ja, ib, ilo, ihi, jlo, jhi, +1.0)
                else:
                    commit(jb, ia, ilo, ihi, jlo, jhi, +1.0)
                hfs[s] = hf
        demand_h = np.array(dh, dtype=float)
        demand_v = np.ascontiguousarray(np.array(dvc, dtype=float).T)
        return demand_h, demand_v


@dataclass
class DetailedRouteResult:
    """Per-iteration DRV trajectory of one detailed-routing run."""

    drvs_per_iteration: List[int]
    success: bool
    iterations_run: int
    stopped_early: bool = False
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def final_drvs(self) -> int:
        return self.drvs_per_iteration[-1] if self.drvs_per_iteration else 0

    @property
    def initial_drvs(self) -> int:
        return self.drvs_per_iteration[0] if self.drvs_per_iteration else 0


class DetailedRouter:
    """Rip-up-and-reroute iteration engine over a congestion grid.

    ``effort`` in (0, 1] scales the per-iteration fix rate (a router
    effort knob); ``max_iterations`` defaults to 20 as in the paper's
    Fig 9 ("modern detailed routers default to 20-40 iterations").
    """

    def __init__(
        self,
        max_iterations: int = 20,
        effort: float = 0.6,
        drv_seed_rate: float = 30.0,
        spill_rate: float = 0.55,
        shock_prob: float = 0.3,
        shock_frac: float = 0.6,
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < effort <= 1.0:
            raise ValueError("effort must be in (0, 1]")
        if not 0.0 <= shock_prob <= 1.0:
            raise ValueError("shock_prob must be in [0, 1]")
        self.max_iterations = max_iterations
        self.effort = effort
        self.drv_seed_rate = drv_seed_rate
        self.spill_rate = spill_rate
        self.shock_prob = shock_prob
        self.shock_frac = shock_frac

    def route(
        self,
        congestion: np.ndarray,
        seed: Optional[int] = None,
        stop_callback=None,
    ) -> DetailedRouteResult:
        """Run detailed routing against a gcell congestion map.

        ``congestion`` is demand/capacity per gcell (from
        :meth:`GlobalRouteResult.congestion_map`).  ``stop_callback``,
        if given, is called after each iteration with the DRV history;
        returning True terminates the run early (the hook the doomed-run
        predictor uses).
        """
        cong = np.asarray(congestion, dtype=float)
        if cong.ndim != 2:
            raise ValueError("congestion map must be 2-D")
        rng = np.random.default_rng(seed)

        # Seed violations: grows sharply where demand exceeds ~90% of capacity.
        excess = np.maximum(0.0, cong - 0.9)
        lam = self.drv_seed_rate * (excess * 10.0) ** 1.5 + 0.3 * cong
        violations = rng.poisson(lam).astype(float)

        history: List[int] = [int(violations.sum())]
        stopped = False
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            violations = self._iterate(violations, cong, rng)
            history.append(int(violations.sum()))
            if stop_callback is not None and stop_callback(list(history)):
                stopped = True
                break
            if history[-1] == 0:
                break

        return DetailedRouteResult(
            drvs_per_iteration=history,
            success=history[-1] < SUCCESS_DRV_THRESHOLD and not stopped,
            iterations_run=iterations,
            stopped_early=stopped,
            metadata={
                "mean_congestion": float(cong.mean()),
                "max_congestion": float(cong.max()),
                "overflow_fraction": float((cong > 1.0).mean()),
            },
        )

    def _iterate(
        self, violations: np.ndarray, cong: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        # fix probability: high where the gcell has routing slack
        slack = 1.0 - cong
        p_fix = self.effort * _sigmoid(6.0 * slack + 0.5)
        fixed = rng.binomial(violations.astype(int), np.clip(p_fix, 0.0, 1.0))
        # rip-up spillover: fixes in congested neighborhoods push DRVs
        # into adjacent gcells instead of removing them
        neighborhood = _box_mean(cong)
        p_spill = self.spill_rate * _sigmoid(8.0 * (neighborhood - 1.0))
        spilled = rng.binomial(fixed, np.clip(p_spill, 0.0, 1.0))
        remaining = violations - fixed
        incoming = _scatter_to_neighbors(spilled, rng)
        out = np.maximum(0.0, remaining + incoming)
        # reroute shock: opening a region for rip-up occasionally exposes
        # new violations (pin access, via shorts) in proportion to local
        # demand — this makes even healthy runs non-monotone
        if self.shock_prob > 0 and rng.random() < self.shock_prob:
            total = out.sum()
            if total > 0:
                lam = self.shock_frac * total * cong / max(1e-9, cong.sum())
                out = out + rng.poisson(lam)
        return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50, 50)))


def _box_mean(grid: np.ndarray) -> np.ndarray:
    """3x3 neighborhood mean with edge replication."""
    padded = np.pad(grid, 1, mode="edge")
    out = np.zeros_like(grid)
    for dj in range(3):
        for di in range(3):
            out += padded[dj : dj + grid.shape[0], di : di + grid.shape[1]]
    return out / 9.0


def _scatter_to_neighbors(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Move each count into a random 4-neighbor gcell (multinomial split).

    The batched draw (``rng.multinomial`` over the whole count vector)
    consumes the generator stream exactly like the historical per-cell
    loop, so it produces identical scatters from the same seed.
    """
    out = np.zeros_like(counts, dtype=float)
    ny, nx = counts.shape
    js, is_ = np.nonzero(counts)
    if js.size == 0:
        return out
    n_per_cell = counts[js, is_].astype(int)
    draws = rng.multinomial(n_per_cell, [0.25] * 4)
    for d, (dj, di) in enumerate(((0, 1), (0, -1), (1, 0), (-1, 0))):
        tj = np.clip(js + dj, 0, ny - 1)
        ti = np.clip(is_ + di, 0, nx - 1)
        np.add.at(out, (tj, ti), draws[:, d])
    return out
