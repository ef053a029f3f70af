"""Façade equivalence: the legacy entrypoints and the engine's own API
must produce identical outcomes, and the live annealing kernels must
behave like their frozen references (``tests/eda/search_reference.py``).
"""

import numpy as np
import pytest

from repro.core.bandit import (
    BatchBanditScheduler,
    FlowArmEnvironment,
    ThompsonSampling,
)
from repro.core.orchestration import TrajectoryExplorer
from repro.core.search import AdaptiveMultistart, BisectionProblem
from repro.core.search.gwtw import go_with_the_winners, independent_multistart
from repro.core.search.multistart import random_multistart
from repro.dse import DSEEngine
from repro.dse.strategies import landscape as live
from tests.eda import search_reference as frozen


@pytest.fixture(scope="module")
def problem():
    return BisectionProblem.random_community(
        n_nodes=64, n_communities=8, p_in=0.6, p_out=0.06, seed=1
    )


# --------------------------------------------------- façade == engine
def test_explorer_facade_equals_engine(small_spec):
    facade = TrajectoryExplorer(n_concurrent=3, n_rounds=2).explore(
        small_spec, seed=11
    )
    engine = DSEEngine(
        strategy="explorer", params={"n_rounds": 2, "n_concurrent": 3},
    ).run(small_spec, seed=11)
    assert facade.best_score == engine.best_score
    assert facade.best_result == engine.best_result
    assert facade.score_trace == engine.trace
    assert (facade.n_runs, facade.n_pruned) == (engine.n_runs, engine.n_pruned)


def test_gwtw_facade_equals_engine(problem):
    facade = go_with_the_winners(problem, n_threads=4, n_stages=3,
                                 steps_per_stage=20, seed=5)
    engine = DSEEngine(
        strategy="gwtw",
        params={"n_threads": 4, "n_stages": 3, "steps_per_stage": 20},
    ).run(problem, seed=5)
    assert facade.best_cost == engine.best_score
    assert np.array_equal(facade.best_assign, engine.best_assign)
    assert facade.cost_trace == engine.trace
    assert facade.method == "gwtw"


def test_independent_facade_keeps_multistart_tag(problem):
    facade = independent_multistart(problem, n_threads=3, n_stages=2,
                                    steps_per_stage=15, seed=5)
    assert facade.method == "multistart"  # the historical GWTWResult tag


def test_adaptive_multistart_facade_equals_engine(problem):
    params = {"n_initial": 4, "n_adaptive_rounds": 2, "starts_per_round": 2,
              "elite_size": 2}
    facade = AdaptiveMultistart(**{k: v for k, v in params.items()}).run(
        problem, seed=7
    )
    engine = DSEEngine(strategy="multistart", params=params).run(
        problem, seed=7
    )
    assert facade.best_cost == engine.best_score
    assert facade.all_costs == engine.all_scores
    assert np.array_equal(facade.best_assign, engine.best_assign)
    assert facade.method == "adaptive"


def test_random_multistart_facade_equals_engine(problem):
    facade = random_multistart(problem, n_starts=5, seed=2)
    engine = DSEEngine(strategy="random", params={"n_starts": 5}).run(
        problem, seed=2
    )
    assert facade.best_cost == engine.best_score
    assert facade.all_costs == engine.all_scores


def test_bandit_facade_equals_engine(small_spec):
    def campaign(run):
        env = FlowArmEnvironment(small_spec, [0.5, 0.7], seed=3)
        policy = ThompsonSampling(2, seed=4)
        return run(policy, env)

    facade = campaign(BatchBanditScheduler(2, 2).run)
    engine_result = campaign(
        lambda policy, env: DSEEngine(
            strategy="bandit",
            params={"n_iterations": 2, "n_concurrent": 2},
        ).run((policy, env), seed=None)
    )
    assert facade.records == engine_result.records
    assert facade.total_reward == engine_result.to_schedule_result().total_reward


def test_legacy_validation_messages_survive(problem, small_spec):
    with pytest.raises(ValueError, match="GWTW needs at least 2 threads"):
        go_with_the_winners(problem, n_threads=1)
    with pytest.raises(ValueError, match="survivor_fraction"):
        go_with_the_winners(problem, survivor_fraction=1.5)
    with pytest.raises(ValueError, match="at least 1 start"):
        random_multistart(problem, n_starts=0)


# ----------------------------------------- live kernels == frozen refs
def test_anneal_steps_matches_frozen_reference(problem):
    def run(module):
        rng = np.random.default_rng(13)
        assign = problem.random_solution(rng)
        thread = module._Thread(assign.copy(), problem.cost(assign), 3.0)
        module._anneal_steps(problem, thread, 80, rng, 0.97)
        return thread

    a, b = run(live), run(frozen)
    assert a.cost == b.cost
    assert a.temperature == b.temperature
    assert np.array_equal(a.assign, b.assign)


def test_consensus_start_matches_frozen_reference(problem):
    rng = np.random.default_rng(21)
    elite = [problem.random_solution(rng) for _ in range(4)]
    live_start = live._consensus_start(problem, elite,
                                       np.random.default_rng(2))
    frozen_start = frozen._consensus_start(problem, elite,
                                           np.random.default_rng(2))
    assert np.array_equal(live_start, frozen_start)
    assert problem.is_balanced(live_start)


def test_rebalance_matches_frozen_reference(problem):
    skewed = np.zeros(problem.n_nodes, dtype=bool)
    skewed[: problem.n_nodes * 3 // 4] = True
    live_fix = live._rebalance(problem, skewed, np.random.default_rng(8))
    frozen_fix = frozen._rebalance(problem, skewed, np.random.default_rng(8))
    assert np.array_equal(live_fix, frozen_fix)
    assert problem.is_balanced(live_fix)
