"""DSEEngine: strategy registry, result normalization, dse.* reporting."""

import numpy as np
import pytest

from repro.core.parallel import FlowExecutor
from repro.core.search import BisectionProblem
from repro.dse import DSEEngine, available_strategies
from repro.dse.registry import get_strategy, load_builtin_strategies
from repro.metrics import MetricsCollector, MetricsServer
from repro.metrics.schema import DSE_CAMPAIGN_METRICS


def test_builtin_strategies_are_registered():
    load_builtin_strategies()
    names = available_strategies()
    assert {"explorer", "bandit", "sweep", "gwtw", "independent",
            "multistart", "random"} <= set(names)
    assert names == sorted(names)


def test_unknown_strategy_rejected():
    with pytest.raises(KeyError, match="no strategy registered"):
        DSEEngine(strategy="hill_climbing")
    with pytest.raises(KeyError, match="no strategy registered"):
        get_strategy("hill_climbing")


@pytest.mark.parametrize("name", available_strategies())
def test_unknown_params_rejected(name):
    known = sorted(get_strategy(name).defaults)
    assert known  # every strategy declares what it reads
    with pytest.raises(ValueError) as err:
        DSEEngine(strategy=name, params={"n_thread": 2, known[0]: 1})
    message = str(err.value)
    assert "n_thread" in message
    assert all(key in message.split("known:")[1] for key in known)


def test_param_only_valid_for_another_strategy_rejected():
    DSEEngine(strategy="gwtw", params={"survivor_fraction": 0.5})
    with pytest.raises(ValueError, match="survivor_fraction"):
        DSEEngine(strategy="independent", params={"survivor_fraction": 5.0})


@pytest.mark.parametrize("name,params", [
    # the keys the CLI, perfbench and the kill benchmark pass
    ("explorer", {"n_concurrent": 3, "n_rounds": 2}),
    ("bandit", {"n_concurrent": 3, "n_iterations": 2}),
    ("sweep", {"n_concurrent": 3, "limit": 4}),
    ("sweep", {"n_concurrent": 3, "points": []}),
])
def test_caller_params_accepted(name, params):
    engine = DSEEngine(strategy=name, params=params)
    assert set(params) <= set(engine.params)


def test_engine_runs_explorer_without_explicit_executor(small_spec):
    result = DSEEngine(
        strategy="explorer", params={"n_rounds": 1, "n_concurrent": 2},
    ).run(small_spec, seed=3)
    assert result.method == "explorer"
    assert result.n_runs == 2
    assert result.best_result is not None
    assert result.runtime_proxy_executed > 0


def test_engine_runs_landscape_strategy():
    problem = BisectionProblem.random_community(
        n_nodes=48, n_communities=6, p_in=0.6, p_out=0.06, seed=1
    )
    result = DSEEngine(
        strategy="gwtw",
        params={"n_threads": 4, "n_stages": 3, "steps_per_stage": 20},
    ).run(problem, seed=2)
    assert result.method == "gwtw"
    assert np.isfinite(result.best_score)
    assert result.best_assign is not None
    assert result.total_moves == 4 * 3 * 20


def test_campaign_summary_lands_in_metrics_server(small_spec):
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None,
                          collector=collector) as executor:
            result = DSEEngine(
                strategy="explorer", executor=executor,
                params={"n_rounds": 1, "n_concurrent": 2},
            ).run(small_spec, seed=8)
        collector.flush()
    vector = server.run_vector("dse-explorer-8")
    for metric in ("dse.runs", "dse.failed", "dse.pruned", "dse.killed",
                   "dse.kill_proxy_saved", "dse.runtime_proxy",
                   "dse.best_score"):
        assert metric in vector
    assert vector["dse.runs"] == result.n_runs == 2
    assert vector["dse.best_score"] == pytest.approx(result.best_score)
    assert vector["dse.killed"] == 0.0  # no kill policy on this campaign
    assert set(vector) - {"dse.surrogate_fit"} >= set(DSE_CAMPAIGN_METRICS) - {
        "dse.surrogate_fit"
    }


def test_no_collector_means_no_reporting(small_spec):
    with FlowExecutor(n_workers=1, cache=None) as executor:
        result = DSEEngine(
            strategy="explorer", executor=executor,
            params={"n_rounds": 1, "n_concurrent": 2},
        ).run(small_spec, seed=8)
    assert result.n_runs == 2  # reporting is optional, the campaign is not
