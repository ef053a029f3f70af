"""R006: METRICS vocabulary drift.

METRICS lesson (2): one name, one meaning.  Two drift modes break it:

- an emitter sends a name the schema does not define — the record is
  rejected at transmission time, i.e. a latent runtime crash;
- the schema defines a name nothing ever emits — dead vocabulary that
  readers (the miner, dashboards) wait on forever.

The rule resolves the vocabulary from the *linted* project's
``metrics/schema.py`` when present (AST-extracted, so fixtures can
carry their own mini-schema), else from the installed
:mod:`repro.metrics.schema`.  Emitters are literal first arguments to
``.send(...)`` / ``.record(...)`` / ``.emit(...)``; the no-emitter
check also accepts any string literal elsewhere in the project (the
flow wrappers route names through mapping dicts like
``_STEP_METRICS``), and is skipped entirely when the schema module is
not part of the linted set.

A linted ``metrics/schema.py`` whose ``VOCABULARY`` is not a literal
dict is itself an error: the rule cannot read it, and falling back to
the installed vocabulary would silently drop the dead-entry check.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Severity
from repro.analysis.registry import ModuleInfo, ProjectInfo, Rule, register_rule

_EMIT_METHODS = {"send", "record", "emit"}
# kept in sync with repro.metrics.schema._NAME_RE: one or more
# dot-separated segments after the first (stage events have three)
_NAME_RE = re.compile(r"^[a-z_]+(\.[a-z_]+)+$")

_UNREADABLE_SCHEMA = (
    "metrics/schema.py defines no literal VOCABULARY dict, so R006 cannot "
    "check emitters or dead entries against it; keep VOCABULARY a dict "
    "literal"
)


def _extract_vocabulary(schema: ModuleInfo) -> Optional[Dict[str, int]]:
    """``VOCABULARY`` keys -> schema line, from the module's AST.

    Plain (``VOCABULARY = {...}``) and annotated
    (``VOCABULARY: Dict[...] = {...}``) assignments both count.
    """
    for stmt in schema.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "VOCABULARY" and \
                isinstance(stmt.value, ast.Dict):
            return {
                key.value: key.lineno
                for key in stmt.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return None


@register_rule
class MetricsVocabularyRule(Rule):
    rule_id = "R006"
    name = "metrics-vocabulary-drift"
    severity = Severity.ERROR
    description = (
        "emitted metric names must exist in the METRICS vocabulary, "
        "and every vocabulary entry needs an emitter"
    )

    def check_project(self, project: ProjectInfo):
        schema = None
        for module in project.modules:
            if module.path.endswith("metrics/schema.py"):
                schema = module
                break
        vocabulary = _extract_vocabulary(schema) if schema is not None else None
        if schema is not None and vocabulary is None:
            yield self.finding(schema, 1, _UNREADABLE_SCHEMA)
            return
        if vocabulary is None:
            try:
                from repro.metrics.schema import VOCABULARY
            except ImportError:  # pragma: no cover - repro is importable here
                return
            vocabulary = {name: 0 for name in VOCABULARY}

        emitted: Set[str] = set()
        referenced: Set[str] = set()
        unknown: List[Tuple[ModuleInfo, int, str]] = []
        for module in project.modules:
            if schema is not None and module is schema:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, str) and \
                        _NAME_RE.match(node.value):
                    referenced.add(node.value)
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _EMIT_METHODS
                        and node.args):
                    continue
                first = node.args[0]
                if not (isinstance(first, ast.Constant)
                        and isinstance(first.value, str)):
                    continue
                name = first.value
                if not _NAME_RE.match(name):
                    continue  # e.g. a file path; not a metric name
                emitted.add(name)
                if name not in vocabulary:
                    unknown.append((module, first.lineno, name))

        for module, line, name in unknown:
            yield self.finding(
                module, line,
                f"metric '{name}' is not in the METRICS vocabulary "
                f"(repro.metrics.schema.VOCABULARY); records with it are "
                f"rejected at transmission time",
            )
        if schema is not None:
            for name in sorted(vocabulary):
                if name not in emitted and name not in referenced:
                    yield self.finding(
                        schema, vocabulary[name],
                        f"vocabulary entry '{name}' has no emitter anywhere "
                        f"in the linted tree; remove it or emit it",
                        severity=Severity.WARNING,
                    )

    def check_context(self, context):
        """Summary-based variant for ``--project`` mode (no ASTs)."""
        schema_path = None
        for path in context.summaries:
            if path.endswith("metrics/schema.py"):
                schema_path = path
                break
        vocabulary = (context.summaries[schema_path].vocabulary
                      if schema_path is not None else None)
        if schema_path is not None and vocabulary is None:
            yield self.finding_at(schema_path, 1, _UNREADABLE_SCHEMA)
            return
        if vocabulary is None:
            try:
                from repro.metrics.schema import VOCABULARY
            except ImportError:  # pragma: no cover - repro is importable here
                return
            vocabulary = {name: 0 for name in VOCABULARY}

        emitted: Set[str] = set()
        referenced: Set[str] = set()
        for path, summary in context.summaries.items():
            if path == schema_path:
                continue
            referenced.update(summary.metric_literals)
            for line, name in summary.emit_sites:
                emitted.add(name)
                if name not in vocabulary:
                    yield self.finding_at(
                        path, line,
                        f"metric '{name}' is not in the METRICS vocabulary "
                        f"(repro.metrics.schema.VOCABULARY); records with it "
                        f"are rejected at transmission time",
                    )
        if schema_path is not None:
            for name in sorted(vocabulary):
                if name not in emitted and name not in referenced:
                    yield self.finding_at(
                        schema_path, vocabulary[name],
                        f"vocabulary entry '{name}' has no emitter anywhere "
                        f"in the linted tree; remove it or emit it",
                        severity=Severity.WARNING,
                    )
