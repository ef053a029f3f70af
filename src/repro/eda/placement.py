"""Global and detailed placement.

Two stages, mirroring a production flow:

1. :class:`QuadraticPlacer` — minimize quadratic wirelength with fixed
   IO pads (clique net model, dense linear solve), then rank-based
   spreading to relieve overlap.
2. :class:`AnnealingRefiner` — simulated-annealing detailed placement on
   a site grid, minimizing half-perimeter wirelength (HPWL).

The annealer's move acceptance depends on its seed; this is one of the
two real sources of the run-to-run "implementation noise" the paper's
Fig 3 characterizes (the other is synthesis restructuring).

Both stages run struct-of-arrays kernels: the legalizer builds its
site grid with batched macro masking, and the annealer keeps int-indexed
position arrays, a per-instance net-incidence table, and incrementally
maintained per-net bounding boxes so a move costs O(touched nets)
amortized instead of a rescan of every pin of every touched net.  Both
are bitwise-identical — same RNG draw order, same float operations in
the same order — to the historical per-object loops frozen as
``tests/eda/placement_reference.py``, which the equivalence suite
checks them against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eda.floorplan import Floorplan, ROW_HEIGHT
from repro.eda.grid import bin_index
from repro.eda.netlist import Netlist

_CLIQUE_CAP = 8  # clique model samples at most this many pins per net


@dataclass
class Placement:
    """Cell coordinates within a floorplan, with wirelength metrics."""

    netlist: Netlist
    floorplan: Floorplan
    positions: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def hpwl(self) -> float:
        """Total half-perimeter wirelength over all signal nets (um)."""
        total = 0.0
        for net_name, pts in self._net_points().items():
            if len(pts) < 2:
                continue
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    def net_length(self, net_name: str) -> float:
        """HPWL of one net (um)."""
        pts = self._points_for(net_name)
        if len(pts) < 2:
            return 0.0
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def _points_for(self, net_name: str) -> List[Tuple[float, float]]:
        net = self.netlist.nets[net_name]
        pts = []
        if net.driver is not None:
            pts.append(self.positions[net.driver])
        for inst_name, _ in net.sinks:
            pts.append(self.positions[inst_name])
        pad = self.floorplan.pad_positions.get(net_name)
        if pad is not None:
            pts.append(pad)
        return pts

    def _net_points(self) -> Dict[str, List[Tuple[float, float]]]:
        skip = {self.netlist.clock_net}
        return {
            name: self._points_for(name)
            for name in self.netlist.nets
            if name not in skip
        }

    def density_map(self, nx: int = 16, ny: int = 16) -> np.ndarray:
        """Cell-area utilization per bin (1.0 = bin completely full)."""
        if nx < 1 or ny < 1:
            raise ValueError("grid dimensions must be >= 1")
        grid = np.zeros((ny, nx))
        bx = self.floorplan.width / nx
        by = self.floorplan.height / ny
        for name, (x, y) in self.positions.items():
            i = bin_index(x, self.floorplan.width, nx)
            j = bin_index(y, self.floorplan.height, ny)
            grid[j, i] += self.netlist.instances[name].cell.area
        return grid / (bx * by)

    def validate(self) -> None:
        """All instances placed, inside the core, outside macros."""
        for name in self.netlist.instances:
            if name not in self.positions:
                raise ValueError(f"instance {name} is not placed")
            x, y = self.positions[name]
            if not self.floorplan.contains(x, y):
                raise ValueError(f"instance {name} at ({x:.2f},{y:.2f}) is off-core")
            if self.floorplan.in_macro(x, y):
                raise ValueError(f"instance {name} overlaps a macro")


class QuadraticPlacer:
    """Analytic global placement: quadratic wirelength + spreading."""

    def __init__(self, spread_strength: float = 0.8):
        if not 0.0 <= spread_strength <= 1.0:
            raise ValueError("spread_strength must be in [0, 1]")
        self.spread_strength = spread_strength

    def place(
        self, netlist: Netlist, floorplan: Floorplan, seed: Optional[int] = None
    ) -> Placement:
        rng = np.random.default_rng(seed)
        names = list(netlist.instances)
        index = {n: i for i, n in enumerate(names)}
        n = len(names)
        if n == 0:
            return Placement(netlist, floorplan, {})

        lap = np.zeros((n, n))
        bx = np.zeros(n)
        by = np.zeros(n)
        anchor = 1e-6  # regularize unconnected components
        lap[np.diag_indices(n)] += anchor
        cx, cy = floorplan.width / 2, floorplan.height / 2
        bx += anchor * cx
        by += anchor * cy

        for net_name, net in netlist.nets.items():
            if net_name == netlist.clock_net:
                continue
            members = []
            if net.driver is not None:
                members.append(index[net.driver])
            members += [index[s] for s, _ in net.sinks]
            members = list(dict.fromkeys(members))
            pad = floorplan.pad_positions.get(net_name)
            k = len(members) + (1 if pad is not None else 0)
            if k < 2:
                continue
            w = 1.0 / (k - 1)
            if len(members) > _CLIQUE_CAP:
                members = [members[int(i)] for i in rng.choice(len(members), _CLIQUE_CAP, replace=False)]
            for a_pos, a in enumerate(members):
                for b in members[a_pos + 1 :]:
                    lap[a, a] += w
                    lap[b, b] += w
                    lap[a, b] -= w
                    lap[b, a] -= w
                if pad is not None:
                    lap[a, a] += w
                    bx[a] += w * pad[0]
                    by[a] += w * pad[1]

        xs = np.linalg.solve(lap, bx)
        ys = np.linalg.solve(lap, by)
        xs, ys = self._spread(xs, ys, floorplan)
        positions = {name: (float(xs[i]), float(ys[i])) for name, i in index.items()}
        placement = Placement(netlist, floorplan, positions)
        _legalize(placement, rng)
        return placement

    def _spread(self, xs: np.ndarray, ys: np.ndarray, fp: Floorplan):
        """Blend analytic coordinates with rank-uniform coordinates."""
        n = xs.shape[0]
        alpha = self.spread_strength
        rank_x = np.empty(n)
        rank_x[np.argsort(xs, kind="stable")] = (np.arange(n) + 0.5) / n * fp.width
        rank_y = np.empty(n)
        rank_y[np.argsort(ys, kind="stable")] = (np.arange(n) + 0.5) / n * fp.height
        xs = (1 - alpha) * xs + alpha * rank_x
        ys = (1 - alpha) * ys + alpha * rank_y
        return np.clip(xs, 0, fp.width), np.clip(ys, 0, fp.height)


def _free_sites(fp: Floorplan, n_rows: int, sites_per_row: int,
                pitch: float) -> np.ndarray:
    """Row-major legal site coordinates, batched macro masking.

    Bit-identical to a per-site loop: same ``(c + 0.5) * pitch``
    coordinate arithmetic, same half-open macro containment test, same
    row-major ordering.
    """
    xs = np.tile((np.arange(sites_per_row) + 0.5) * pitch, n_rows)
    ys = np.repeat((np.arange(n_rows) + 0.5) * ROW_HEIGHT, sites_per_row)
    blocked = np.zeros(xs.shape[0], dtype=bool)
    for m in fp.macros:
        blocked |= ((m.x <= xs) & (xs < m.x + m.width)
                    & (m.y <= ys) & (ys < m.y + m.height))
    keep = ~blocked
    return np.column_stack((xs[keep], ys[keep]))


def _legalize(placement: Placement, rng: np.random.Generator) -> None:
    """Snap cells to row/site grid, one cell per site, avoiding macros."""
    fp = placement.floorplan
    names = list(placement.positions)
    n = len(names)
    n_rows = fp.n_rows
    sites_per_row = max(1, int(np.ceil(n / n_rows * 1.25)))
    pitch = fp.width / sites_per_row

    site_arr = _free_sites(fp, n_rows, sites_per_row, pitch)
    if site_arr.shape[0] < n:
        raise ValueError("floorplan has fewer legal sites than cells")

    # greedy nearest-site assignment in random order (seed-dependent)
    order = list(rng.permutation(n))
    taken = np.zeros(site_arr.shape[0], dtype=bool)
    for idx in order:
        name = names[idx]
        x, y = placement.positions[name]
        d2 = (site_arr[:, 0] - x) ** 2 + (site_arr[:, 1] - y) ** 2
        d2[taken] = np.inf
        best = int(np.argmin(d2))
        taken[best] = True
        placement.positions[name] = (float(site_arr[best, 0]), float(site_arr[best, 1]))


@dataclass(frozen=True)
class AnnealSchedule:
    """Temperatures the annealer actually evaluated moves at.

    ``first_temperature`` is exactly ``t_start`` (the historical kernel
    decayed before the first acceptance test, so no move ever saw it);
    ``last_temperature`` approaches ``t_end`` from above (the decay now
    fires only after an evaluated move, so ``a == b`` skips no longer
    drag the tail below ``t_end``).
    """

    first_temperature: float
    last_temperature: float
    n_evaluated: int


def _build_net_model(
    placement: Placement, net_weights: Optional[Dict[str, float]]
) -> Tuple[List[List[int]], List[Optional[Tuple[float, float]]], List[float], List[List[int]]]:
    """Int-indexed net model: members, fixed pad, weight, and the
    per-instance incidence lists (which nets each instance pins)."""
    netlist = placement.netlist
    names = list(netlist.instances)
    index = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    nets_members: List[List[int]] = []
    nets_fixed: List[Optional[Tuple[float, float]]] = []
    nets_weight: List[float] = []
    inst_nets: List[List[int]] = [[] for _ in range(n)]
    for net_name, net in netlist.nets.items():
        if net_name == netlist.clock_net:
            continue
        members = []
        if net.driver is not None:
            members.append(index[net.driver])
        members += [index[s] for s, _ in net.sinks]
        members = list(dict.fromkeys(members))
        pad = placement.floorplan.pad_positions.get(net_name)
        if len(members) + (1 if pad is not None else 0) < 2:
            continue
        net_id = len(nets_members)
        nets_members.append(members)
        nets_fixed.append(pad)
        weight = 1.0 if net_weights is None else float(net_weights.get(net_name, 1.0))
        if weight <= 0:
            raise ValueError(f"net weight for {net_name} must be positive")
        nets_weight.append(weight)
        for m in members:
            inst_nets[m].append(net_id)
    return nets_members, nets_fixed, nets_weight, inst_nets


class AnnealingRefiner:
    """Simulated-annealing detailed placement (cell swaps on sites).

    After :meth:`refine` runs, :attr:`last_schedule` holds the
    temperatures actually evaluated (an :class:`AnnealSchedule`, or
    ``None`` when no move was evaluated).
    """

    def __init__(
        self,
        moves_per_cell: int = 30,
        t_start: float = 4.0,
        t_end: float = 0.05,
    ):
        if moves_per_cell < 1:
            raise ValueError("moves_per_cell must be >= 1")
        self.moves_per_cell = moves_per_cell
        self.t_start = t_start
        self.t_end = t_end
        self.last_schedule: Optional[AnnealSchedule] = None

    def refine(
        self,
        placement: Placement,
        seed: Optional[int] = None,
        net_weights: Optional[Dict[str, float]] = None,
    ) -> float:
        """Improve (weighted) HPWL in place; returns the final plain HPWL.

        ``net_weights`` biases the objective per net (>=1 emphasizes a
        net) — the hook congestion-driven re-placement uses to shorten
        nets that route through overfull regions.
        """
        rng = np.random.default_rng(seed)
        netlist = placement.netlist
        names = list(netlist.instances)
        n = len(names)
        self.last_schedule = None
        if n < 2:
            return placement.hpwl()

        pos_x = [placement.positions[nm][0] for nm in names]
        pos_y = [placement.positions[nm][1] for nm in names]
        nets_members, nets_fixed, nets_weight, inst_nets = _build_net_model(
            placement, net_weights
        )

        n_moves = self.moves_per_cell * n
        cool = (self.t_end / self.t_start) ** (1.0 / max(1, n_moves - 1))
        pairs = rng.integers(0, n, size=(n_moves, 2))
        uniforms = rng.random(n_moves)
        self._anneal(pos_x, pos_y, nets_members, nets_fixed,
                     nets_weight, inst_nets, pairs, uniforms, cool)

        for i, nm in enumerate(names):
            placement.positions[nm] = (pos_x[i], pos_y[i])
        return placement.hpwl()

    def _anneal(self, pos_x, pos_y, nets_members, nets_fixed,
                nets_weight, inst_nets, pairs, uniforms, cool) -> None:
        """Incremental kernel: per-net extreme statistics.

        For every net the kernel caches its cost plus, per side of the
        bounding box, the extreme coordinate and the extreme the box
        falls back to when the *unique* holder of that extreme moves
        away (the second-distinct extreme, or the extreme itself when
        it is shared).  Pricing a swap is then O(1) per touched net —
        compare the moving pin's coordinate against the cached extreme
        to get the bbox of the *other* pins (pad included as a
        pseudo-pin), fold in the incoming coordinate — independent of
        fanout, where a full rescan of every pin costs O(fanout).

        Caches change only on *accepted* moves (a few percent), where a
        single O(k) pass recomputes each touched net; nets containing
        both swapped cells are skipped even there, because a swap
        leaves the net's coordinate multiset unchanged.  Rejected moves
        leave all state untouched, so there is no rollback bookkeeping.
        min/max are value-based and order-independent, and the delta
        accumulates over touched nets in the same order as the frozen
        rescan reference, so every acceptance decision is
        bitwise-identical.
        """
        n_nets = len(nets_members)
        member_sets = [frozenset(m) for m in nets_members]
        inst_net_sets = [frozenset(l) for l in inst_nets]
        cost = [0.0] * n_nets
        # flat per-net stats: [xl, xl', xh, xh', yl, yl', yh, yh'] where
        # v' is the side's extreme over the remaining pins if the unique
        # holder of v leaves (== v when the extreme is shared)
        stats = [None] * n_nets
        inf = math.inf

        def rebuild(nid: int) -> None:
            """Recompute cost and extreme stats of one net, O(k)."""
            pad = nets_fixed[nid]
            xl = yl = xl2 = yl2 = inf
            xh = yh = xh2 = yh2 = -inf
            cxl = cxh = cyl = cyh = 0
            for m in nets_members[nid]:
                x = pos_x[m]
                if x < xl:
                    xl2 = xl
                    xl = x
                    cxl = 1
                elif x == xl:
                    cxl += 1
                elif x < xl2:
                    xl2 = x
                if x > xh:
                    xh2 = xh
                    xh = x
                    cxh = 1
                elif x == xh:
                    cxh += 1
                elif x > xh2:
                    xh2 = x
                y = pos_y[m]
                if y < yl:
                    yl2 = yl
                    yl = y
                    cyl = 1
                elif y == yl:
                    cyl += 1
                elif y < yl2:
                    yl2 = y
                if y > yh:
                    yh2 = yh
                    yh = y
                    cyh = 1
                elif y == yh:
                    cyh += 1
                elif y > yh2:
                    yh2 = y
            if pad is not None:
                x, y = pad
                if x < xl:
                    xl2 = xl
                    xl = x
                    cxl = 1
                elif x == xl:
                    cxl += 1
                elif x < xl2:
                    xl2 = x
                if x > xh:
                    xh2 = xh
                    xh = x
                    cxh = 1
                elif x == xh:
                    cxh += 1
                elif x > xh2:
                    xh2 = x
                if y < yl:
                    yl2 = yl
                    yl = y
                    cyl = 1
                elif y == yl:
                    cyl += 1
                elif y < yl2:
                    yl2 = y
                if y > yh:
                    yh2 = yh
                    yh = y
                    cyh = 1
                elif y == yh:
                    cyh += 1
                elif y > yh2:
                    yh2 = y
            cost[nid] = ((xh - xl) + (yh - yl)) * nets_weight[nid]
            stats[nid] = [xl, xl2 if cxl == 1 else xl,
                          xh, xh2 if cxh == 1 else xh,
                          yl, yl2 if cyl == 1 else yl,
                          yh, yh2 if cyh == 1 else yh]

        for nid in range(n_nets):
            rebuild(nid)

        pair_list = pairs.tolist()
        u_list = uniforms.tolist()
        t = self.t_start
        first_t = None
        n_eval = 0
        exp = math.exp
        for move in range(len(pair_list)):
            a, b = pair_list[move]
            if a == b:
                continue
            sa = inst_net_sets[a]
            nets_a = inst_nets[a]
            ax = pos_x[a]
            ay = pos_y[a]
            bx = pos_x[b]
            by = pos_y[b]
            # before/after accumulate over the touched nets in rescan
            # order: a's nets first, then b's nets not shared with a
            before = 0.0
            after = 0.0
            for nid in nets_a:
                before += cost[nid]
                if b in member_sets[nid]:
                    after += cost[nid]  # swap within the net: no change
                    continue
                st = stats[nid]
                v = st[0]
                xl = st[1] if ax == v else v
                v = st[2]
                xh = st[3] if ax == v else v
                v = st[4]
                yl = st[5] if ay == v else v
                v = st[6]
                yh = st[7] if ay == v else v
                if bx < xl:
                    xl = bx
                elif bx > xh:
                    xh = bx
                if by < yl:
                    yl = by
                elif by > yh:
                    yh = by
                after += ((xh - xl) + (yh - yl)) * nets_weight[nid]
            for nid in inst_nets[b]:
                if nid in sa:
                    continue
                before += cost[nid]
                st = stats[nid]
                v = st[0]
                xl = st[1] if bx == v else v
                v = st[2]
                xh = st[3] if bx == v else v
                v = st[4]
                yl = st[5] if by == v else v
                v = st[6]
                yh = st[7] if by == v else v
                if ax < xl:
                    xl = ax
                elif ax > xh:
                    xh = ax
                if ay < yl:
                    yl = ay
                elif ay > yh:
                    yh = ay
                after += ((xh - xl) + (yh - yl)) * nets_weight[nid]
            delta = after - before
            if not (delta > 0 and u_list[move] >= exp(-delta / t)):
                # accept: apply the swap and rebuild the touched caches
                # (nets holding both cells keep their multiset — skip)
                pos_x[a] = bx
                pos_y[a] = by
                pos_x[b] = ax
                pos_y[b] = ay
                sb = inst_net_sets[b]
                for nid in nets_a:
                    if nid not in sb:
                        rebuild(nid)
                for nid in inst_nets[b]:
                    if nid not in sa:
                        rebuild(nid)
            if first_t is None:
                first_t = t
            last_t = t
            n_eval += 1
            t *= cool
        if n_eval:
            self.last_schedule = AnnealSchedule(first_t, last_t, n_eval)
