"""The strategy registry: search algorithms as engine plugins.

A strategy is a class with a ``name`` and a ``run(task, ctx) ->
DSEResult`` method; :func:`register_strategy` is its decorator.  The
built-in pack (``repro.dse.strategies``) registers the paper's four
searchers plus the declarative sweep on import, mirroring how the
analysis rule pack self-registers.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Type

_LOCK = threading.Lock()
_STRATEGIES: Dict[str, Type["Strategy"]] = {}


class Strategy:
    """Base class: one search algorithm behind the engine.

    ``run`` receives the campaign *task* (a
    :class:`~repro.eda.synthesis.DesignSpec` for flow strategies, a
    :class:`~repro.core.search.landscape.BisectionProblem` for the
    landscape strategies, a ``(policy, env)`` pair for the bandit) and
    the engine's :class:`~repro.dse.engine.DSEContext`.

    ``defaults`` names every ``params`` key the strategy reads, with
    its default value: the engine rejects any other key and hands the
    strategy the merged dict, so a misspelled knob fails loudly instead
    of silently running at the default.
    """

    name: str = ""
    defaults: Dict[str, object] = {}

    def run(self, task, ctx):
        raise NotImplementedError


def register_strategy(cls: Type[Strategy]) -> Type[Strategy]:
    """Class decorator: add a strategy to the registry by its ``name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    with _LOCK:
        existing = _STRATEGIES.get(cls.name)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"strategy {cls.name!r} already registered by {existing.__name__}"
            )
        _STRATEGIES[cls.name] = cls
    return cls


def load_builtin_strategies() -> None:
    """Import the built-in strategy pack (idempotent)."""
    import repro.dse.strategies  # noqa: F401 - registers on import


def get_strategy(name: str) -> Strategy:
    """An instance of the strategy registered under ``name``."""
    load_builtin_strategies()
    with _LOCK:
        cls = _STRATEGIES.get(name)
    if cls is None:
        known = ", ".join(available_strategies())
        raise KeyError(f"no strategy registered under {name!r} (known: {known})")
    return cls()


def available_strategies() -> List[str]:
    load_builtin_strategies()
    with _LOCK:
        return sorted(_STRATEGIES)
