"""Determinism & parallel-safety static analysis (``repro lint``).

The substrate's contract is that every result is a pure function of
(design, options, seed) and every campaign is bit-reproducible across
the :class:`~repro.core.parallel.FlowExecutor` process pool.  This
package encodes those invariants as an AST-based rule pack — unseeded
global RNGs, unguarded module state, nondeterministic iteration,
wall-clock reads, unpicklable pool payloads, METRICS vocabulary drift,
swallowed exceptions, undocumented CLI flags — and runs them over the
tree in CI (``make lint`` / ``repro lint --strict --project src/repro``).

``--project`` mode (:mod:`repro.analysis.project`) additionally builds
the whole-program import/call graph from per-file summaries, enables
the cross-file rules (R009 lock discipline, R010 shared-write
atomicity, R012 RNG-across-boundary; R011 is retired), and
keeps a content-hash incremental cache so warm runs only re-analyze
changed files.

Suppress a finding inline with a justified allow-comment::

    _CACHE = {}  # repro: allow[R002] -- guarded by _LOCK below

See ``docs/static-analysis.md`` for the rule catalog and how to add a
rule.
"""

from repro.analysis.engine import (
    Analyzer,
    LintConfig,
    discover_files,
    find_project_root,
    lint_paths,
)
from repro.analysis.findings import Finding, LintReport, Severity
from repro.analysis.project import (
    LintCache,
    ModuleSummary,
    ProjectContext,
    build_context,
    lint_project_modules,
    lint_project_paths,
    summarize_module,
)
from repro.analysis.registry import (
    ModuleInfo,
    ProjectInfo,
    Rule,
    all_rules,
    get_rule,
    register_rule,
)
from repro.analysis.reporting import format_human, format_json, to_dict
from repro.analysis.suppressions import Suppression, find_suppressions

__all__ = [
    "Analyzer",
    "Finding",
    "LintCache",
    "LintConfig",
    "LintReport",
    "ModuleInfo",
    "ModuleSummary",
    "ProjectContext",
    "ProjectInfo",
    "Rule",
    "Severity",
    "Suppression",
    "all_rules",
    "build_context",
    "discover_files",
    "find_project_root",
    "find_suppressions",
    "format_human",
    "format_json",
    "get_rule",
    "lint_paths",
    "lint_project_modules",
    "lint_project_paths",
    "register_rule",
    "summarize_module",
    "to_dict",
]
