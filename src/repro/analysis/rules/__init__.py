"""The builtin determinism & parallel-safety rule pack.

Importing this package registers every rule (the modules register on
import via :func:`~repro.analysis.registry.register_rule`):

======  ==============================  ========
id      name                            severity
======  ==============================  ========
R001    unseeded-global-rng             error
R002    unguarded-module-state          error
R003    nondeterministic-iteration      error
R004    wall-clock-read                 error
R005    unpicklable-across-pool         error
R006    metrics-vocabulary-drift        error*
R007    swallowed-exception             error*
R008    undocumented-cli-flag           warning
R009    inconsistent-lock-discipline    error
R010    non-atomic-shared-write         error
R011    (retired: scalar-kernel-drift)
R012    rng-across-process-boundary     error
======  ==============================  ========

(*) R006 reports dead vocabulary entries and R007 reports swallowed
broad handlers at *warning*; their headline findings are errors.

R009, R010 and R012 are whole-program rules: they implement
``check_context`` against the :class:`~repro.analysis.project.ProjectContext`
and only fire in ``repro lint --project`` mode.  R011 is retired and its
id is not reused: it held in-tree scalar kernel twins AST-equal to their
frozen test references, and those twins no longer exist (the
equivalence suites compare the single live kernel to the reference).

See ``docs/static-analysis.md`` for the catalog with rationale and
fix recipes.
"""

from repro.analysis.rules import (  # noqa: F401  (register on import)
    cli_docs,
    exceptions,
    io_atomicity,
    iteration,
    metrics_vocab,
    pickle_safety,
    races,
    rng,
    rng_taint,
    state,
    wallclock,
)
