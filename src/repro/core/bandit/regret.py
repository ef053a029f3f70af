"""Regret accounting (paper footnote 3).

"Let r* be the reward for the optimal arm at any step j.  Then the
regret for that step is r* - r_{a_j} and the expected total regret is
E[sum_j r* - r_{a_j}]."  These helpers compute realized and expected
regret for a ``"bandit"`` campaign's result against known true arm
means.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.dse.result import DSEResult


def cumulative_regret(result: DSEResult, true_means: Sequence[float]) -> np.ndarray:
    """Expected regret accumulated after each pull.

    Uses the *expected* per-step regret mu* - mu_{a_j} (the standard
    pseudo-regret), which is what bandit guarantees bound.
    """
    means = np.asarray(true_means, dtype=float)
    if means.ndim != 1 or means.size == 0:
        raise ValueError("true_means must be a non-empty vector")
    mu_star = means.max()
    records = sorted(result.records, key=lambda r: (r.iteration, r.slot))
    per_step = np.array([mu_star - means[r.arm] for r in records])
    return np.cumsum(per_step)


def expected_total_regret(result: DSEResult, true_means: Sequence[float]) -> float:
    """Total pseudo-regret of the whole schedule."""
    regret = cumulative_regret(result, true_means)
    return float(regret[-1]) if regret.size else 0.0
