"""Landscape strategies: annealing and multistart over bisection.

The historical :func:`go_with_the_winners` / :func:`independent_multistart`
(paper Fig 6(a)) and :class:`AdaptiveMultistart` / :func:`random_multistart`
(Fig 6(b)) loops, re-homed as engine plugins.  The annealing kernel
``_anneal_steps`` and the consensus-start construction are frozen in
``tests/eda/search_reference.py``, and ``tests/dse/test_equivalence.py``
holds the live kernels bit-identical to those copies; rng streams match
the pre-refactor code draw for draw, so the façades stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.search.landscape import BisectionProblem
from repro.dse.registry import Strategy, register_strategy
from repro.dse.result import DSEResult


@dataclass
class _Thread:
    assign: np.ndarray
    cost: float
    temperature: float


def _anneal_steps(
    problem: BisectionProblem,
    thread: _Thread,
    n_steps: int,
    rng: np.random.Generator,
    cooling: float,
) -> None:
    """Metropolis single-flip annealing, in place."""
    for _ in range(n_steps):
        node = int(rng.integers(0, problem.n_nodes))
        trial = thread.assign.copy()
        trial[node] = ~trial[node]
        if not problem.is_balanced(trial):
            continue
        delta = -problem.gain(thread.assign, node)  # cost change
        if delta <= 0 or rng.random() < np.exp(-delta / max(1e-9, thread.temperature)):
            thread.assign = trial
            thread.cost += delta
        thread.temperature *= cooling


def _rebalance(
    problem: BisectionProblem, assign: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Flip random nodes of the larger side until balanced."""
    assign = assign.copy()
    half = problem.n_nodes // 2
    while not problem.is_balanced(assign):
        ones = int(np.sum(assign))
        side = ones > half
        candidates = np.nonzero(assign == side)[0]
        assign[rng.choice(candidates)] = not side
    return assign


def _consensus_start(
    problem: BisectionProblem,
    elite: List[np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray:
    """Agreeing nodes keep their side; contested nodes randomize."""
    # align all elite to the first (bisection has label symmetry)
    reference = elite[0]
    aligned = [reference]
    for sol in elite[1:]:
        flipped = ~sol
        if np.sum(sol != reference) <= np.sum(flipped != reference):
            aligned.append(sol)
        else:
            aligned.append(flipped)
    votes = np.mean(np.stack(aligned), axis=0)
    start = np.where(
        votes > 0.5 + 1e-9,
        True,
        np.where(votes < 0.5 - 1e-9, False, rng.random(problem.n_nodes) < 0.5),
    )
    return _rebalance(problem, start.astype(bool), rng)


def _local_search_job(problem: BisectionProblem, start: np.ndarray, seed: int) -> np.ndarray:
    """One local search under its own child rng (module-level so a
    process-pool executor can pickle it)."""
    return problem.local_search(start, np.random.default_rng(seed))


class _AnnealingStrategy(Strategy):
    """Shared GWTW/independent loop; subclasses decide about cloning."""

    clone_winners = True

    def run(self, problem, ctx) -> DSEResult:
        n_threads = int(ctx.params.get("n_threads", 8))
        n_stages = int(ctx.params.get("n_stages", 10))
        steps_per_stage = int(ctx.params.get("steps_per_stage", 60))
        survivor_fraction = float(ctx.params.get("survivor_fraction", 0.5))
        t_start = float(ctx.params.get("t_start", 3.0))
        if self.clone_winners:
            if n_threads < 2:
                raise ValueError("GWTW needs at least 2 threads")
            if not 0.0 < survivor_fraction < 1.0:
                raise ValueError("survivor_fraction must be in (0, 1)")
        rng = np.random.default_rng(ctx.seed)
        cooling = (0.02 / t_start) ** (1.0 / max(1, n_stages * steps_per_stage))
        threads = []
        for _ in range(n_threads):
            assign = problem.random_solution(rng)
            threads.append(_Thread(assign, problem.cost(assign), t_start))

        result = DSEResult(method=self.name, objective="cut_cost",
                           best_score=np.inf, best_assign=threads[0].assign)
        for _ in range(n_stages):
            if ctx.tracker.exhausted:
                break
            for thread in threads:
                _anneal_steps(problem, thread, steps_per_stage, rng, cooling)
                result.total_moves += steps_per_stage
            result.n_runs += n_threads
            ctx.tracker.charge_runs(n_threads)
            if self.clone_winners:
                threads.sort(key=lambda t: t.cost)
                if threads[0].cost < result.best_score:
                    result.best_score = threads[0].cost
                    result.best_assign = threads[0].assign.copy()
                result.trace.append(result.best_score)
                # clone winners over losers
                n_survive = max(1, int(n_threads * survivor_fraction))
                for i in range(n_survive, n_threads):
                    donor = threads[i % n_survive]
                    threads[i] = _Thread(donor.assign.copy(), donor.cost,
                                         donor.temperature)
            else:
                best = min(threads, key=lambda t: t.cost)
                if best.cost < result.best_score:
                    result.best_score = best.cost
                    result.best_assign = best.assign.copy()
                result.trace.append(result.best_score)
        # final polish of the champion
        polished = problem.local_search(result.best_assign, rng)
        cost = problem.cost(polished)
        if cost < result.best_score:
            result.best_score = cost
            result.best_assign = polished
        return result


@register_strategy
class GWTWStrategy(_AnnealingStrategy):
    """Go-With-The-Winners annealing (clone winners each stage)."""

    name = "gwtw"
    clone_winners = True


@register_strategy
class IndependentAnnealingStrategy(_AnnealingStrategy):
    """Same move budget, no cloning — GWTW's control arm."""

    name = "independent"
    clone_winners = False


@register_strategy
class AdaptiveMultistartStrategy(Strategy):
    """Boese-Kahng-Muddu adaptive multistart (elite-consensus starts)."""

    name = "multistart"

    def run(self, problem, ctx) -> DSEResult:
        n_initial = int(ctx.params.get("n_initial", 12))
        n_adaptive_rounds = int(ctx.params.get("n_adaptive_rounds", 4))
        starts_per_round = int(ctx.params.get("starts_per_round", 4))
        elite_size = int(ctx.params.get("elite_size", 5))
        if n_initial < 2:
            raise ValueError("need at least 2 initial starts")
        if elite_size < 2:
            raise ValueError("elite pool must hold at least 2 solutions")
        executor = ctx.executor
        rng = np.random.default_rng(ctx.seed)
        pool: List[np.ndarray] = []
        costs: List[float] = []

        def add(minimum: np.ndarray) -> None:
            pool.append(minimum)
            costs.append(problem.cost(minimum))

        def run_batch(starts: List[np.ndarray]) -> None:
            tasks = [(problem, start, int(rng.integers(0, 2**31 - 1)))
                     for start in starts]
            for minimum in executor.map(_local_search_job, tasks):
                if isinstance(minimum, np.ndarray):
                    add(minimum)

        if executor is None:
            for _ in range(n_initial):
                add(problem.local_search(problem.random_solution(rng), rng))
        else:
            run_batch([problem.random_solution(rng) for _ in range(n_initial)])
        n_searches = n_initial
        ctx.tracker.charge_runs(n_initial)

        for _ in range(n_adaptive_rounds):
            if ctx.tracker.exhausted:
                break
            elite_idx = np.argsort(costs)[:elite_size]
            elite = [pool[i] for i in elite_idx]
            if executor is None:
                for _ in range(starts_per_round):
                    add(problem.local_search(
                        _consensus_start(problem, elite, rng), rng))
            else:
                run_batch([_consensus_start(problem, elite, rng)
                           for _ in range(starts_per_round)])
            n_searches += starts_per_round
            ctx.tracker.charge_runs(starts_per_round)

        if not costs:
            raise RuntimeError("every local search failed to execute")
        best_idx = int(np.argmin(costs))
        return DSEResult(
            method=self.name,
            objective="cut_cost",
            best_score=costs[best_idx],
            best_assign=pool[best_idx],
            all_scores=costs,
            n_runs=n_searches,
        )


@register_strategy
class RandomMultistartStrategy(Strategy):
    """Equal-budget baseline: every start is random."""

    name = "random"

    def run(self, problem, ctx) -> DSEResult:
        n_starts = int(ctx.params.get("n_starts", 12))
        if n_starts < 1:
            raise ValueError("need at least 1 start")
        executor = ctx.executor
        rng = np.random.default_rng(ctx.seed)
        if executor is None:
            pool = [problem.local_search(problem.random_solution(rng), rng)
                    for _ in range(n_starts)]
        else:
            tasks = []
            for _ in range(n_starts):
                start = problem.random_solution(rng)
                tasks.append((problem, start, int(rng.integers(0, 2**31 - 1))))
            pool = [m for m in executor.map(_local_search_job, tasks)
                    if isinstance(m, np.ndarray)]
            if not pool:
                raise RuntimeError("every local search failed to execute")
        ctx.tracker.charge_runs(n_starts)
        costs = [problem.cost(m) for m in pool]
        best_idx = int(np.argmin(costs))
        return DSEResult(
            method=self.name,
            objective="cut_cost",
            best_score=costs[best_idx],
            best_assign=pool[best_idx],
            all_scores=costs,
            n_runs=n_starts,
        )
