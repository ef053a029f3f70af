"""The built-in strategy pack: importing this package registers the
paper's four searchers and the declarative sweep with the registry
(:mod:`repro.dse.registry`)."""

from repro.dse.strategies import bandit, landscape, sweep, trajectory  # noqa: F401
