"""Frozen copies of the landscape-search annealing kernels (the golden
reference for the façade equivalence tests).

These are the literal ``_anneal_steps`` / ``_rebalance`` /
``_consensus_start`` kernels as they stood in the pre-``repro.dse``
modules (``repro.core.search.gwtw`` and ``repro.core.search.multistart``),
kept verbatim — same rng draw order, same float expressions — so the
equivalence suite compares the refactored strategy plugins against the
historical behavior rather than against the code under test.  Not a
test module — no ``test_`` prefix, so pytest does not collect it.

The bit-identity guarantee of the ``go_with_the_winners`` /
``AdaptiveMultistart`` façades rests on these kernels consuming the
shared rng stream in exactly the historical order; any edit to the live
copies in :mod:`repro.dse.strategies.landscape` breaks that guarantee
unless this reference is deliberately re-frozen, and the behavioural
equivalence tests in ``tests/dse/test_equivalence.py`` catch it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.search.landscape import BisectionProblem


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

