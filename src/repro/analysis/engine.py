"""The analyzer: files -> parsed modules -> rules -> report.

Drives the whole pass: gathers ``.py`` files deterministically, parses
them, runs every enabled rule's module and project hooks, applies
inline suppressions, and returns a :class:`~repro.analysis.findings.LintReport`
sorted by (path, line, rule).  ``repro lint`` and ``make lint`` are
thin wrappers around :func:`lint_paths`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.findings import (
    PARSE_ERROR_RULE,
    Finding,
    LintReport,
    Severity,
)
from repro.analysis.registry import ModuleInfo, ProjectInfo, Rule, all_rules
from repro.analysis.suppressions import apply_suppressions, find_suppressions

_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


@dataclass
class LintConfig:
    """What to run and what counts as failure."""

    select: Optional[Sequence[str]] = None   # rule ids to run (None = all)
    ignore: Sequence[str] = ()               # rule ids to skip
    fail_on: Severity = Severity.ERROR      # exit nonzero at/above this
    strict: bool = False                     # fail on ANY active finding
    project_root: Optional[str] = None       # repo root (docs/, README.md)
    project: bool = False                    # whole-program mode (R009, R010, R012)
    use_cache: bool = True                   # incremental cache (project mode)
    cache_path: Optional[str] = None         # default: <root>/.repro-lint-cache.json

    def enabled_rules(self) -> List[Rule]:
        rules = all_rules()
        if self.select is not None:
            wanted = set(self.select)
            unknown = wanted - {rule.rule_id for rule in rules}
            if unknown:
                raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
            rules = [rule for rule in rules if rule.rule_id in wanted]
        return [rule for rule in rules if rule.rule_id not in set(self.ignore)]

    def fails(self, report: LintReport) -> bool:
        if self.strict:
            return bool(report.findings)
        return report.count_at_least(self.fail_on) > 0


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, duplicate-free file list."""
    out: List[str] = []
    seen = set()
    for path in paths:
        if os.path.isfile(path):
            candidates = [path]
        elif os.path.isdir(path):
            candidates = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                candidates.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames) if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for cand in candidates:
            resolved = os.path.abspath(cand)
            if resolved not in seen:
                seen.add(resolved)
                out.append(cand)
    return sorted(out, key=lambda p: _rel_path(p, None))


def find_project_root(start: str) -> str:
    """Walk up from ``start`` to the repo root (pyproject.toml / .git)."""
    here = os.path.abspath(start if os.path.isdir(start)
                           else os.path.dirname(start) or ".")
    while True:
        if any(os.path.exists(os.path.join(here, marker))
               for marker in ("pyproject.toml", "setup.py", ".git")):
            return here
        parent = os.path.dirname(here)
        if parent == here:
            return os.path.abspath(start)
        here = parent


def _rel_path(path: str, root: Optional[str]) -> str:
    if root:
        try:
            rel = os.path.relpath(os.path.abspath(path), root)
            if not rel.startswith(".."):
                return rel.replace(os.sep, "/")
        except ValueError:  # different drive on win32
            pass
    return path.replace(os.sep, "/")


class Analyzer:
    """One configured lint pass; reusable across file sets."""

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config or LintConfig()
        self.rules = self.config.enabled_rules()

    # ------------------------------------------------------------ entry
    def lint_paths(self, paths: Sequence[str]) -> LintReport:
        files = discover_files(paths)
        root = self.config.project_root or (
            find_project_root(paths[0]) if paths else os.getcwd()
        )
        modules: List[ModuleInfo] = []
        parse_failures: List[Finding] = []
        for path in files:
            rel = _rel_path(path, root)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                parse_failures.append(Finding(
                    rule_id=PARSE_ERROR_RULE,
                    severity=Severity.ERROR,
                    path=rel,
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                ))
                continue
            modules.append(ModuleInfo(path=rel, source=source, tree=tree))
        report = self._run(ProjectInfo(root=root, modules=modules))
        report.findings.extend(parse_failures)
        report.findings.sort(key=lambda f: f.sort_key)
        report.n_files = len(files)
        return report

    def lint_source(self, source: str, path: str = "snippet.py",
                    root: Optional[str] = None) -> LintReport:
        """Lint one in-memory module (the test fixtures' entry point)."""
        tree = ast.parse(source, filename=path)
        module = ModuleInfo(path=path, source=source, tree=tree)
        report = self._run(ProjectInfo(root=root or os.getcwd(),
                                       modules=[module]))
        report.n_files = 1
        return report

    # ------------------------------------------------------------ internals
    def _run(self, project: ProjectInfo) -> LintReport:
        by_module: Dict[str, List[Finding]] = {
            module.path: [] for module in project.modules
        }
        for rule in self.rules:
            for module in project.modules:
                self._collect(rule.check_module(module), by_module)
            self._collect(rule.check_project(project), by_module)

        report = LintReport(
            rule_ids=tuple(rule.rule_id for rule in self.rules)
        )
        module_paths = set()
        for module in project.modules:
            module_paths.add(module.path)
            suppressions = find_suppressions(module.source, module.tree)
            active, silenced = apply_suppressions(
                by_module[module.path], suppressions, module.path
            )
            report.findings.extend(active)
            report.suppressed.extend(silenced)
        for path, findings in by_module.items():
            if path not in module_paths:  # defensive: no source to check
                report.findings.extend(findings)
        report.findings.sort(key=lambda f: f.sort_key)
        report.suppressed.sort(key=lambda f: f.sort_key)
        return report

    @staticmethod
    def _collect(findings: Iterable[Finding],
                 by_module: Dict[str, List[Finding]]) -> None:
        for finding in findings:
            # findings for files outside the linted set (defensive) are kept
            by_module.setdefault(finding.path, []).append(finding)


def lint_paths(paths: Sequence[str],
               config: Optional[LintConfig] = None) -> LintReport:
    """Convenience: configure, run, report.

    With ``config.project`` set, dispatches to the whole-program
    analyzer (:func:`repro.analysis.project.lint_project_paths`) —
    summary-based cross-file rules plus the incremental cache.
    """
    if config is not None and config.project:
        from repro.analysis.project import lint_project_paths
        return lint_project_paths(paths, config)
    return Analyzer(config).lint_paths(paths)
