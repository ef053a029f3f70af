"""Whole-program analysis: summaries, graphs and the incremental cache.

``repro lint --project`` grows the per-file rule pack into a
whole-program pass.  The layer has three parts:

- **Per-file summaries** (:class:`ModuleSummary`): one deterministic
  AST walk per file extracts everything the cross-file rules need —
  imports, top-level symbols, mutable globals and locks, per-function
  call sites with the lock context lexically held at each, shared-state
  mutations, write-style file opens, RNG constructions and executor
  boundary payloads.  Summaries are plain data, so they serialize into
  the incremental cache and a warm run never re-parses unchanged files.

- **The project context** (:class:`ProjectContext`): built once per run
  from the summaries — module symbol table, import graph, call graph,
  plus two interprocedural fixpoints: ``inherited_locks`` (the locks a
  private helper is guaranteed to hold because *every* in-project call
  site holds them) and ``init_only`` (helpers reachable only from
  ``__init__``, where pre-publication mutation is safe).  Cross-file
  rules (R009, R010, R012) implement :meth:`~repro.analysis.registry.Rule.check_context`
  against this object.

- **The incremental cache** (:class:`LintCache`): content-hash-keyed
  per-file entries holding the summary, the raw (pre-suppression)
  module-rule findings and the parsed suppressions.  The cache key is
  the file's SHA-256 plus a pack signature (rule ids +
  :data:`ANALYSIS_CACHE_VERSION`), so editing one file re-analyzes only
  that file and bumping the version constant invalidates everything.
  Writes are atomic (``mkstemp`` + ``os.replace``) — the cache itself
  obeys R010.

Everything is ordered: files sorted, dict keys sorted on write, graph
edges sorted — the same tree produces byte-identical reports and cache
files regardless of discovery order.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import dotted_name, import_aliases, resolve_call_target
from repro.analysis.engine import (
    LintConfig,
    _rel_path,
    discover_files,
    find_project_root,
)
from repro.analysis.findings import (
    PARSE_ERROR_RULE,
    Finding,
    LintReport,
    Severity,
)
from repro.analysis.registry import ModuleInfo
from repro.analysis.suppressions import (
    Suppression,
    apply_suppressions,
    find_suppressions,
)

#: bump when summaries, fixpoints or any rule's logic change shape —
#: stale caches are then discarded wholesale instead of replaying
#: findings the current pack would no longer produce
ANALYSIS_CACHE_VERSION = 2

#: executor-surface method names whose arguments cross the process
#: boundary (kept in sync with rules/pickle_safety.py)
BOUNDARY_METHODS = {"run_jobs", "run_one", "map", "submit"}

#: calls that construct an explicit RNG generator object
_RNG_CONSTRUCTORS = {"numpy.random.default_rng", "random.Random",
                     "numpy.random.Generator"}

_LOCK_CALLS = {"threading.Lock", "threading.RLock"}
_MUTABLE_CALLS = {"dict", "list", "set", "collections.OrderedDict",
                  "collections.defaultdict", "collections.deque"}
_MUTATOR_METHODS = {
    "append", "add", "update", "setdefault", "pop", "popitem", "clear",
    "extend", "insert", "remove", "discard", "move_to_end", "appendleft",
}


# --------------------------------------------------------------- summaries
@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function."""

    raw: str                  # dotted text as written ("self.m", "mod.f", "f")
    lineno: int
    locks: Tuple[str, ...]    # candidate lock tokens lexically held
    flock_before: bool        # an fcntl.flock call precedes this site


@dataclass(frozen=True)
class MutationSite:
    """One mutation of shared state (module global or self attribute)."""

    scope: str                # "global" | "attr"
    name: str                 # resolved token / bare attribute name
    cls: str                  # owning class for attr scope, else ""
    lineno: int
    locks: Tuple[str, ...]
    via: str                  # "subscript" | "method:<m>" | "rebind" | "del"


@dataclass(frozen=True)
class WriteSite:
    """One write-mode file open / write call."""

    lineno: int
    call: str                 # "open" | "os.open" | "os.fdopen" | ".open" | ...
    path_text: str            # source text of the path expression
    protections: Tuple[str, ...]  # "append" | "flock" | "tmp-replace"
    locks: Tuple[str, ...]


@dataclass(frozen=True)
class BoundaryPayload:
    """One expression crossing the executor process boundary."""

    method: str               # boundary method name (run_jobs, map, ...)
    kind: str                 # "callable" | "rng-call" | "rng-name" | "call"
    target: str               # resolved token / description
    lineno: int


@dataclass
class FunctionSummary:
    """Everything the cross-file rules need from one function."""

    qualname: str             # "Class.method", "func", "<module>"
    lineno: int = 0
    cls: str = ""             # enclosing class name, "" at module level
    calls: List[CallSite] = field(default_factory=list)
    mutations: List[MutationSite] = field(default_factory=list)
    writes: List[WriteSite] = field(default_factory=list)
    rng_unseeded: List[Tuple[int, str]] = field(default_factory=list)
    boundary: List[BoundaryPayload] = field(default_factory=list)
    returns_generator: bool = False
    uses_flock: bool = False

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "lineno": self.lineno,
            "cls": self.cls,
            "calls": [[c.raw, c.lineno, list(c.locks), c.flock_before]
                      for c in self.calls],
            "mutations": [[m.scope, m.name, m.cls, m.lineno, list(m.locks),
                           m.via] for m in self.mutations],
            "writes": [[w.lineno, w.call, w.path_text, list(w.protections),
                        list(w.locks)] for w in self.writes],
            "rng_unseeded": [list(site) for site in self.rng_unseeded],
            "boundary": [[b.method, b.kind, b.target, b.lineno]
                         for b in self.boundary],
            "returns_generator": self.returns_generator,
            "uses_flock": self.uses_flock,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        return cls(
            qualname=data["qualname"],
            lineno=data["lineno"],
            cls=data["cls"],
            calls=[CallSite(raw, line, tuple(locks), flock)
                   for raw, line, locks, flock in data["calls"]],
            mutations=[MutationSite(scope, name, mcls, line, tuple(locks), via)
                       for scope, name, mcls, line, locks, via
                       in data["mutations"]],
            writes=[WriteSite(line, call, text, tuple(prot), tuple(locks))
                    for line, call, text, prot, locks in data["writes"]],
            rng_unseeded=[(line, desc) for line, desc in data["rng_unseeded"]],
            boundary=[BoundaryPayload(method, kind, target, line)
                      for method, kind, target, line in data["boundary"]],
            returns_generator=data["returns_generator"],
            uses_flock=data["uses_flock"],
        )


@dataclass
class ModuleSummary:
    """The per-file fact base the :class:`ProjectContext` is built from."""

    path: str                 # repo-relative, '/'-separated
    module_name: str          # dotted import name ("repro.eda.flow")
    aliases: Dict[str, str] = field(default_factory=dict)
    imports: List[str] = field(default_factory=list)   # dotted modules
    top_level: Dict[str, int] = field(default_factory=dict)
    classes: List[str] = field(default_factory=list)
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    lock_globals: List[str] = field(default_factory=list)
    lock_attrs: Dict[str, List[str]] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    # R006 / R008 raw material
    metric_literals: List[str] = field(default_factory=list)
    emit_sites: List[Tuple[int, str]] = field(default_factory=list)
    vocabulary: Optional[Dict[str, int]] = None
    cli_flags: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module_name": self.module_name,
            "aliases": self.aliases,
            "imports": self.imports,
            "top_level": self.top_level,
            "classes": self.classes,
            "mutable_globals": self.mutable_globals,
            "lock_globals": self.lock_globals,
            "lock_attrs": self.lock_attrs,
            "functions": {name: fn.to_dict()
                          for name, fn in sorted(self.functions.items())},
            "metric_literals": self.metric_literals,
            "emit_sites": [list(site) for site in self.emit_sites],
            "vocabulary": self.vocabulary,
            "cli_flags": self.cli_flags,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        return cls(
            path=data["path"],
            module_name=data["module_name"],
            aliases=dict(data["aliases"]),
            imports=list(data["imports"]),
            top_level={k: int(v) for k, v in data["top_level"].items()},
            classes=list(data["classes"]),
            mutable_globals={k: int(v)
                             for k, v in data["mutable_globals"].items()},
            lock_globals=list(data["lock_globals"]),
            lock_attrs={k: list(v) for k, v in data["lock_attrs"].items()},
            functions={name: FunctionSummary.from_dict(fn)
                       for name, fn in data["functions"].items()},
            metric_literals=list(data["metric_literals"]),
            emit_sites=[(int(line), name)
                        for line, name in data["emit_sites"]],
            vocabulary=(None if data["vocabulary"] is None
                        else {k: int(v) for k, v in data["vocabulary"].items()}),
            cli_flags={k: int(v) for k, v in data["cli_flags"].items()},
        )


def module_name_for(path: str) -> str:
    """Dotted import name for a repo-relative path.

    ``src/repro/eda/flow.py`` -> ``repro.eda.flow`` (everything after a
    ``src`` component); without one, the path itself with ``/`` -> ``.``.
    ``__init__.py`` names the package.
    """
    parts = path.replace(os.sep, "/").split("/")
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or "<root>"


class _Summarizer:
    """One deterministic AST walk producing a :class:`ModuleSummary`."""

    def __init__(self, module: ModuleInfo):
        self.module = module
        self.aliases = import_aliases(module.tree)
        # per-function names bound to RNG generator constructions
        self._rng_names: Dict[str, Set[str]] = {}
        self.summary = ModuleSummary(
            path=module.path,
            module_name=module_name_for(module.path),
            aliases=dict(sorted(self.aliases.items())),
        )

    # -------------------------------------------------------------- entry
    def run(self) -> ModuleSummary:
        tree = self.module.tree
        self._collect_imports(tree)
        self._collect_top_level(tree)
        self._collect_metric_material(tree)
        module_fn = FunctionSummary(qualname="<module>", lineno=1)
        self.summary.functions["<module>"] = module_fn
        self._walk_scope(tree.body, module_fn, locals_=set(),
                         global_decls=set(), locks=(), cls="")
        for name, node in self._iter_functions(tree, prefix="", cls=""):
            fn = FunctionSummary(qualname=name, lineno=node.lineno,
                                 cls=name.rsplit(".", 1)[0] if "." in name else "")
            self.summary.functions[name] = fn
            locals_ = self._local_bindings(node)
            global_decls = self._global_decls(node)
            self._walk_scope(node.body, fn, locals_=locals_,
                             global_decls=global_decls, locks=(),
                             cls=fn.cls)
            self._finish_function(fn)
        self._finish_function(module_fn)
        self.summary.functions = dict(sorted(self.summary.functions.items()))
        return self.summary

    # ---------------------------------------------------------- module facts
    def _collect_imports(self, tree: ast.Module) -> None:
        mods: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    mods.add(node.module)
                elif node.level:
                    base = self.summary.module_name.split(".")
                    base = base[: max(0, len(base) - node.level)]
                    target = ".".join(base + ([node.module]
                                              if node.module else []))
                    if target:
                        mods.add(target)
                        # resolve relative aliases too
                        for alias in node.names:
                            if alias.name != "*":
                                self.aliases[alias.asname or alias.name] = \
                                    f"{target}.{alias.name}"
        self.summary.imports = sorted(mods)
        self.summary.aliases = dict(sorted(self.aliases.items()))

    def _collect_top_level(self, tree: ast.Module) -> None:
        s = self.summary
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                s.top_level[stmt.name] = stmt.lineno
            elif isinstance(stmt, ast.ClassDef):
                s.top_level[stmt.name] = stmt.lineno
                s.classes.append(stmt.name)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                s.top_level[name] = stmt.lineno
                if isinstance(stmt.value, ast.Call) and \
                        resolve_call_target(stmt.value, self.aliases) \
                        in _LOCK_CALLS:
                    s.lock_globals.append(name)
                elif self._is_mutable_literal(stmt.value):
                    s.mutable_globals[name] = stmt.lineno
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                s.top_level[stmt.target.id] = stmt.lineno
                if stmt.value is not None and \
                        self._is_mutable_literal(stmt.value):
                    s.mutable_globals[stmt.target.id] = stmt.lineno

    def _collect_metric_material(self, tree: ast.Module) -> None:
        # lazily import to keep a single source of truth for the
        # vocabulary regex and emit-method set (rule R006) and the CLI
        # flag extractor (rule R008)
        from repro.analysis.rules.cli_docs import _cli_flags
        from repro.analysis.rules.metrics_vocab import (
            _EMIT_METHODS,
            _NAME_RE,
            _extract_vocabulary,
        )

        literals: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and _NAME_RE.match(node.value):
                literals.add(node.value)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _EMIT_METHODS and node.args):
                first = node.args[0]
                if isinstance(first, ast.Constant) and \
                        isinstance(first.value, str) and \
                        _NAME_RE.match(first.value):
                    self.summary.emit_sites.append((first.lineno, first.value))
        self.summary.metric_literals = sorted(literals)
        self.summary.emit_sites.sort()
        self.summary.vocabulary = _extract_vocabulary(self.module)
        self.summary.cli_flags = _cli_flags(self.module)

    def _is_mutable_literal(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                             ast.ListComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            target = resolve_call_target(node, self.aliases)
            if target in _MUTABLE_CALLS:
                return True
            if target is None and isinstance(node.func, ast.Name):
                return node.func.id in _MUTABLE_CALLS
        return False

    # --------------------------------------------------------- function walk
    def _iter_functions(self, node: ast.AST, prefix: str, cls: str):
        """Yield (qualname, def-node) for every function, outer first."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                yield name, child
                yield from self._iter_functions(child, name + ".", cls)
            elif isinstance(child, ast.ClassDef):
                yield from self._iter_functions(
                    child, prefix + child.name + ".", child.name)

    def _walk_scope(self, body, fn: FunctionSummary, locals_: Set[str],
                    global_decls: Set[str], locks: Tuple[str, ...],
                    cls: str) -> None:
        """Record sites for one function scope (no descent into defs)."""
        for node in body:
            self._visit(node, fn, locals_, global_decls, locks, cls)

    def _visit(self, node, fn, locals_, global_decls, locks, cls) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes summarized separately
        if isinstance(node, ast.With):
            held = list(locks)
            for item in node.items:
                token = self._lock_token(item.context_expr, locals_, cls)
                if token is not None:
                    held.append(token)
                self._visit(item.context_expr, fn, locals_, global_decls,
                            locks, cls)
            for child in node.body:
                self._visit(child, fn, locals_, global_decls,
                            tuple(held), cls)
            return

        self._record_mutation(node, fn, locals_, global_decls, locks, cls)
        if isinstance(node, ast.Call):
            self._record_call(node, fn, locals_, locks, cls)
        if isinstance(node, ast.Return) and node.value is not None:
            if self._is_rng_expr(node.value, fn):
                fn.returns_generator = True
        if isinstance(node, ast.Assign):
            # track names bound to generator constructions in this scope
            if isinstance(node.value, ast.Call) and \
                    self._rng_target(node.value) is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._rng_names.setdefault(fn.qualname,
                                                   set()).add(target.id)
        for child in ast.iter_child_nodes(node):
            self._visit(child, fn, locals_, global_decls, locks, cls)

    # ------------------------------------------------------------- helpers
    def _lock_token(self, expr: ast.AST, locals_: Set[str],
                    cls: str) -> Optional[str]:
        """Candidate lock token for a ``with`` context expression."""
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in locals_:
                return None
            if name in self.summary.lock_globals:
                return f"{self.summary.module_name}.{name}"
            target = self.aliases.get(name)
            if target and "." in target:
                return target  # filtered against lock globals at build
            return None
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and expr.value.id == "self" \
                and cls:
            return f"{self.summary.module_name}.{cls}.{expr.attr}"
        return None

    def _record_mutation(self, node, fn, locals_, global_decls, locks,
                         cls) -> None:
        sites: List[Tuple[str, str, str, str]] = []  # scope, name, cls, via
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets
                       if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target])
            via = "del" if isinstance(node, ast.Delete) else "rebind"
            for target in targets:
                if isinstance(target, ast.Subscript):
                    base = target.value
                    if isinstance(base, ast.Name):
                        sites.append(("global", base.id, "", "subscript"))
                    elif self._is_self_attr(base, cls):
                        sites.append(("attr", base.attr, cls, "subscript"))
                elif isinstance(target, ast.Name):
                    if target.id in global_decls:
                        sites.append(("global", target.id, "", via))
                elif self._is_self_attr(target, cls):
                    sites.append(("attr", target.attr, cls, via))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATOR_METHODS:
            base = node.func.value
            via = f"method:{node.func.attr}"
            if isinstance(base, ast.Name):
                sites.append(("global", base.id, "", via))
            elif self._is_self_attr(base, cls):
                sites.append(("attr", base.attr, cls, via))

        for scope, name, owner, via in sites:
            if scope == "global":
                token = self._global_token(name, locals_, global_decls)
                if token is None:
                    continue
                fn.mutations.append(MutationSite(
                    scope="global", name=token, cls="",
                    lineno=node.lineno, locks=locks, via=via))
            else:
                if name.startswith("__"):
                    continue
                # lock attributes are assigned, not "mutated"
                if name in self.summary.lock_attrs.get(owner, ()):
                    continue
                fn.mutations.append(MutationSite(
                    scope="attr", name=name, cls=owner,
                    lineno=node.lineno, locks=locks, via=via))

        # record per-class lock attributes (self._lock = threading.Lock())
        if isinstance(node, ast.Assign) and cls and \
                isinstance(node.value, ast.Call) and \
                resolve_call_target(node.value, self.aliases) in _LOCK_CALLS:
            for target in node.targets:
                if self._is_self_attr(target, cls):
                    attrs = self.summary.lock_attrs.setdefault(cls, [])
                    if target.attr not in attrs:
                        attrs.append(target.attr)
                    # retroactively drop the assignment we just recorded
                    fn.mutations = [
                        m for m in fn.mutations
                        if not (m.scope == "attr" and m.cls == cls
                                and m.name == target.attr)
                    ]

    @staticmethod
    def _is_self_attr(node: ast.AST, cls: str) -> bool:
        return (bool(cls) and isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    def _global_token(self, name: str, locals_: Set[str],
                      global_decls: Set[str]) -> Optional[str]:
        if name in global_decls:
            return f"{self.summary.module_name}.{name}"
        if name in locals_:
            return None
        if name in self.summary.mutable_globals or \
                name in self.summary.top_level:
            return f"{self.summary.module_name}.{name}"
        target = self.aliases.get(name)
        if target and "." in target:
            return target
        return None

    def _rng_target(self, call: ast.Call) -> Optional[str]:
        target = resolve_call_target(call, self.aliases)
        return target if target in _RNG_CONSTRUCTORS else None

    def _is_rng_expr(self, expr: ast.AST, fn: FunctionSummary) -> bool:
        if isinstance(expr, ast.Call) and self._rng_target(expr) is not None:
            return True
        return (isinstance(expr, ast.Name)
                and expr.id in self._rng_names.get(fn.qualname, ()))

    def _record_call(self, node: ast.Call, fn: FunctionSummary, locals_,
                     locks, cls) -> None:
        raw = dotted_name(node.func)
        flock_before = fn.uses_flock
        if raw is not None:
            target = resolve_call_target(node, self.aliases)
            if target == "fcntl.flock" or raw.endswith(".flock"):
                fn.uses_flock = True
            fn.calls.append(CallSite(raw=raw, lineno=node.lineno,
                                     locks=locks,
                                     flock_before=flock_before))
            rng = self._rng_target(node)
            if rng is not None and self._is_unseeded(node):
                fn.rng_unseeded.append((node.lineno, rng))
            self._record_write(node, raw, target, fn, locks)
        elif isinstance(node.func, ast.Attribute):
            # method call on a computed object: keep attr-level facts
            if node.func.attr == "flock":
                fn.uses_flock = True
            self._record_write(node, "." + node.func.attr, None, fn, locks)
        self._record_boundary(node, fn, locals_, cls)
        # initializer= callables are executed inside every pool worker
        for kw in node.keywords:
            if kw.arg == "initializer":
                target = self._callable_token(kw.value, locals_)
                if target:
                    fn.boundary.append(BoundaryPayload(
                        method="initializer", kind="callable",
                        target=target, lineno=node.lineno))

    @staticmethod
    def _is_unseeded(call: ast.Call) -> bool:
        if call.keywords:
            return False
        if not call.args:
            return True
        first = call.args[0]
        return isinstance(first, ast.Constant) and first.value is None

    # ------------------------------------------------------------- writes
    _WRITE_MODE = frozenset("wax+")

    def _record_write(self, node: ast.Call, raw: str,
                      target: Optional[str], fn: FunctionSummary,
                      locks) -> None:
        call_kind = None
        path_text = ""
        protections: List[str] = []

        def mode_of(index: int, kwname: str) -> Optional[str]:
            for kw in node.keywords:
                if kw.arg == kwname and isinstance(kw.value, ast.Constant):
                    return str(kw.value.value)
            if len(node.args) > index and \
                    isinstance(node.args[index], ast.Constant):
                return str(node.args[index].value)
            return None

        if raw == "open" or target == "os.fdopen" or raw == "os.fdopen":
            mode = mode_of(1, "mode") or "r"
            if not (set(mode) & self._WRITE_MODE):
                return
            call_kind = "os.fdopen" if "fdopen" in raw else "open"
            path_text = ast.unparse(node.args[0]) if node.args else ""
            if "a" in mode:
                protections.append("append")
        elif target == "os.open" or raw == "os.open":
            flags_text = (ast.unparse(node.args[1])
                          if len(node.args) > 1 else "")
            if "O_WRONLY" not in flags_text and "O_RDWR" not in flags_text:
                return
            call_kind = "os.open"
            path_text = ast.unparse(node.args[0]) if node.args else ""
            if "O_APPEND" in flags_text:
                protections.append("append")
        elif raw.endswith(".open") and isinstance(node.func, ast.Attribute):
            mode = mode_of(0, "mode") or "r"
            if not (set(mode) & self._WRITE_MODE):
                return
            call_kind = ".open"
            path_text = ast.unparse(node.func.value)
            if "a" in mode:
                protections.append("append")
        elif raw.endswith((".write_text", ".write_bytes")) and \
                isinstance(node.func, ast.Attribute):
            call_kind = "." + node.func.attr
            path_text = ast.unparse(node.func.value)
        else:
            return
        fn.writes.append(WriteSite(
            lineno=node.lineno, call=call_kind, path_text=path_text,
            protections=tuple(protections), locks=tuple(locks)))

    # ----------------------------------------------------------- boundary
    def _record_boundary(self, node: ast.Call, fn: FunctionSummary,
                         locals_, cls) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in BOUNDARY_METHODS):
            return
        method = node.func.attr
        stack = list(node.args) + [kw.value for kw in node.keywords]
        while stack:
            expr = stack.pop()
            if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
                stack.extend(expr.elts)
            elif isinstance(expr, ast.Dict):
                stack.extend(v for v in expr.values if v is not None)
            elif isinstance(expr, ast.Starred):
                stack.append(expr.value)
            elif isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
                stack.append(expr.elt)
            elif isinstance(expr, ast.Call):
                rng = self._rng_target(expr)
                if rng is not None:
                    fn.boundary.append(BoundaryPayload(
                        method=method, kind="rng-call", target=rng,
                        lineno=expr.lineno))
                else:
                    called = self._callable_token(expr.func, locals_)
                    if called:
                        fn.boundary.append(BoundaryPayload(
                            method=method, kind="call", target=called,
                            lineno=expr.lineno))
                stack.extend(expr.args)
                stack.extend(kw.value for kw in expr.keywords)
            elif isinstance(expr, ast.Name):
                if expr.id in self._rng_names.get(fn.qualname, ()):
                    fn.boundary.append(BoundaryPayload(
                        method=method, kind="rng-name", target=expr.id,
                        lineno=expr.lineno))
                else:
                    token = self._callable_token(expr, locals_)
                    if token:
                        fn.boundary.append(BoundaryPayload(
                            method=method, kind="callable", target=token,
                            lineno=expr.lineno))

    def _callable_token(self, expr: ast.AST, locals_) -> str:
        """Resolved dotted token for a function reference, or ''."""
        name = dotted_name(expr)
        if name is None:
            return ""
        root, _, rest = name.partition(".")
        if root in locals_:
            return ""
        if not rest and name in self.summary.top_level:
            return f"{self.summary.module_name}.{name}"
        target = self.aliases.get(root)
        if target:
            return f"{target}.{rest}" if rest else target
        return ""

    # ------------------------------------------------------------- finish
    def _finish_function(self, fn: FunctionSummary) -> None:
        """Apply function-level protections to recorded write sites."""
        uses_replace = any(
            c.raw in ("os.replace", "os.rename")
            or self.aliases.get(c.raw.partition(".")[0], "") == "os"
            and c.raw.endswith((".replace", ".rename"))
            for c in fn.calls)
        uses_mkstemp = any(
            resolve_call_target_raw(c.raw, self.aliases).startswith("tempfile.")
            for c in fn.calls)
        if not fn.writes:
            return
        new = []
        for w in fn.writes:
            protections = list(w.protections)
            if fn.uses_flock and "flock" not in protections:
                protections.append("flock")
            if uses_replace and (uses_mkstemp or "tmp" in w.path_text
                                 or "fd" in w.path_text):
                if "tmp-replace" not in protections:
                    protections.append("tmp-replace")
            new.append(WriteSite(w.lineno, w.call, w.path_text,
                                 tuple(protections), w.locks))
        fn.writes = new

    # ---------------------------------------------------------- local scan
    @staticmethod
    def _local_bindings(func: ast.AST) -> Set[str]:
        bound: Set[str] = set()
        hoisted: Set[str] = set()
        args = func.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])):
            bound.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                hoisted.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                bound.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                    isinstance(node.target, ast.Name):
                bound.add(node.target.id)
            elif isinstance(node, ast.withitem) and \
                    isinstance(node.optional_vars, ast.Name):
                bound.add(node.optional_vars.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not func:
                bound.add(node.name)
        return bound - hoisted

    @staticmethod
    def _global_decls(func: ast.AST) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                out.update(node.names)
        return out


def resolve_call_target_raw(raw: str, aliases: Dict[str, str]) -> str:
    """Resolve a dotted call text through the import alias map."""
    root, _, rest = raw.partition(".")
    target = aliases.get(root)
    if target is None:
        return raw
    return f"{target}.{rest}" if rest else target


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Extract the cross-file fact base from one parsed module."""
    return _Summarizer(module).run()


# ----------------------------------------------------------------- context
@dataclass
class ProjectContext:
    """The whole program, as seen by cross-file rules."""

    root: str
    summaries: Dict[str, ModuleSummary]            # path -> summary
    module_by_name: Dict[str, str] = field(default_factory=dict)
    import_graph: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    call_graph: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: callee token -> ((caller token, call lineno, caller-held locks), ...)
    callers: Dict[str, Tuple[Tuple[str, int, Tuple[str, ...]], ...]] = \
        field(default_factory=dict)
    lock_tokens: frozenset = frozenset()
    inherited_locks: Dict[str, frozenset] = field(default_factory=dict)
    init_only: frozenset = frozenset()
    worker_reachable: frozenset = frozenset()
    cache: Optional["LintCache"] = None

    # ------------------------------------------------------------ queries
    def function(self, token: str) -> Optional[FunctionSummary]:
        mod, qualname = self.split_token(token)
        if mod is None:
            return None
        return self.summaries[self.module_by_name[mod]].functions.get(qualname)

    def split_token(self, token: str) -> Tuple[Optional[str], str]:
        """``repro.eda.flow.F.g`` -> (``repro.eda.flow``, ``F.g``)."""
        parts = token.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:i])
            if mod in self.module_by_name:
                return mod, ".".join(parts[i:])
        return None, token

    def path_of(self, token: str) -> Optional[str]:
        mod, _ = self.split_token(token)
        return self.module_by_name.get(mod) if mod else None

    def effective_locks(self, token: str,
                        site_locks: Tuple[str, ...]) -> frozenset:
        """Locks provably held at a site: lexical + caller-inherited."""
        held = {t for t in site_locks if t in self.lock_tokens}
        held.update(self.inherited_locks.get(token, frozenset()))
        return frozenset(held)

    def in_init_context(self, token: str) -> bool:
        """True when the function only runs before its object/module is
        shared (``__init__`` itself, or helpers only ``__init__`` calls)."""
        _, qualname = self.split_token(token)
        return qualname.endswith("__init__") or token in self.init_only

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "files": len(self.summaries),
            "functions": sum(len(s.functions)
                             for s in self.summaries.values()),
            "import_edges": sum(len(v) for v in self.import_graph.values()),
            "call_edges": sum(len(v) for v in self.call_graph.values()),
            "lock_tokens": len(self.lock_tokens),
            "worker_reachable": len(self.worker_reachable),
        }
        if self.cache is not None and self.cache.enabled:
            out["cache"] = {"hits": self.cache.hits,
                            "misses": self.cache.misses}
        return out


def build_context(root: str, summaries: Dict[str, ModuleSummary],
                  cache: Optional["LintCache"] = None) -> ProjectContext:
    """Assemble graphs and fixpoints from per-file summaries."""
    summaries = dict(sorted(summaries.items()))
    ctx = ProjectContext(root=root, summaries=summaries, cache=cache)
    ctx.module_by_name = {s.module_name: path
                          for path, s in summaries.items()}

    # import graph restricted to in-project modules
    names = set(ctx.module_by_name)
    for path, s in summaries.items():
        edges = sorted({m for m in s.imports if m in names
                        and m != s.module_name})
        ctx.import_graph[s.module_name] = tuple(edges)

    # lock universe
    locks: Set[str] = set()
    for s in summaries.values():
        locks.update(f"{s.module_name}.{n}" for n in s.lock_globals)
        for cls, attrs in s.lock_attrs.items():
            locks.update(f"{s.module_name}.{cls}.{a}" for a in attrs)
    ctx.lock_tokens = frozenset(locks)

    # call graph
    tokens: Dict[str, FunctionSummary] = {}
    for s in summaries.values():
        for qualname, fn in s.functions.items():
            tokens[f"{s.module_name}.{qualname}"] = fn

    def resolve_call(s: ModuleSummary, fn: FunctionSummary,
                     raw: str) -> Optional[str]:
        if raw.startswith("self.") and fn.cls:
            cand = f"{s.module_name}.{fn.cls}.{raw[5:]}"
            return cand if cand in tokens else None
        root_name, _, rest = raw.partition(".")
        if not rest:
            cand = f"{s.module_name}.{raw}"
            if cand in tokens:
                return cand
            if raw in s.classes:
                init = f"{s.module_name}.{raw}.__init__"
                return init if init in tokens else None
        target = s.aliases.get(root_name)
        dotted = (f"{target}.{rest}" if rest else target) if target else None
        if dotted is None and rest:
            cand = f"{s.module_name}.{raw}"
            return cand if cand in tokens else None
        if dotted is None:
            return None
        if dotted in tokens:
            return dotted
        init = f"{dotted}.__init__"
        return init if init in tokens else None

    callers: Dict[str, List[Tuple[str, CallSite]]] = {}
    for path, s in summaries.items():
        for qualname, fn in s.functions.items():
            token = f"{s.module_name}.{qualname}"
            callees: Set[str] = set()
            for site in fn.calls:
                resolved = resolve_call(s, fn, site.raw)
                if resolved is not None and resolved != token:
                    callees.add(resolved)
                    callers.setdefault(resolved, []).append((token, site))
            ctx.call_graph[token] = tuple(sorted(callees))
    ctx.callers = {
        callee: tuple(sorted(
            (caller, site.lineno, site.locks) for caller, site in sites
        ))
        for callee, sites in sorted(callers.items())
    }

    # ---------------------------------------------------------- fixpoints
    def is_private(token: str) -> bool:
        leaf = token.rsplit(".", 1)[-1]
        return leaf.startswith("_") and not leaf.startswith("__")

    # inherited locks: private helpers whose EVERY in-project call site
    # holds a lock inherit the intersection of those lock sets
    inherited: Dict[str, frozenset] = {
        t: (frozenset(locks) if is_private(t) and callers.get(t)
            else frozenset())
        for t in tokens
    }
    for _ in range(len(tokens)):
        changed = False
        for t in sorted(tokens):
            if not (is_private(t) and callers.get(t)):
                continue
            acc: Optional[frozenset] = None
            for caller, site in callers[t]:
                held = {x for x in site.locks if x in ctx.lock_tokens}
                held |= inherited.get(caller, frozenset())
                acc = frozenset(held) if acc is None else (acc & held)
            acc = acc or frozenset()
            if acc != inherited[t]:
                inherited[t] = acc
                changed = True
        if not changed:
            break
    ctx.inherited_locks = {t: v for t, v in inherited.items() if v}

    # init-only: private helpers reachable solely from __init__ contexts
    init_only: Dict[str, bool] = {
        t: bool(is_private(t) and callers.get(t)) for t in tokens
    }
    for _ in range(len(tokens)):
        changed = False
        for t in sorted(tokens):
            if not (is_private(t) and callers.get(t)):
                continue
            ok = all(
                caller.rsplit(".", 1)[-1] == "__init__"
                or init_only.get(caller, False)
                for caller, _site in callers[t]
            )
            if ok != init_only[t]:
                init_only[t] = ok
                changed = True
        if not changed:
            break
    ctx.init_only = frozenset(t for t, v in init_only.items() if v)

    # worker reachability: functions shipped across the process boundary
    seeds: Set[str] = set()
    for s in summaries.values():
        for fn in s.functions.values():
            for payload in fn.boundary:
                if payload.kind == "callable" and payload.target in tokens:
                    seeds.add(payload.target)
    reachable = set(seeds)
    frontier = sorted(seeds)
    while frontier:
        nxt: Set[str] = set()
        for token in frontier:
            for callee in ctx.call_graph.get(token, ()):
                if callee not in reachable:
                    reachable.add(callee)
                    nxt.add(callee)
        frontier = sorted(nxt)
    ctx.worker_reachable = frozenset(reachable)
    return ctx


# ------------------------------------------------------------------- cache
class LintCache:
    """Content-hash-keyed per-file cache for ``repro lint --project``.

    One JSON file holds, per analyzed path: the file's SHA-256, the raw
    (pre-suppression) module-rule findings, the parsed suppressions and
    the :class:`ModuleSummary`.  A warm run re-analyzes only files whose
    hash changed; everything cross-file is recomputed from summaries, so
    warm findings are identical to a cold run by construction.  The
    whole file is discarded when the pack signature (enabled rules +
    :data:`ANALYSIS_CACHE_VERSION`) changes.
    """

    def __init__(self, path: Optional[str], signature: str,
                 enabled: bool = True):
        self.path = path
        self.signature = signature
        self.enabled = enabled and path is not None
        self.hits = 0
        self.misses = 0
        self._files: Dict[str, dict] = {}
        self._dirty = False
        if self.enabled:
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return
        if data.get("version") != ANALYSIS_CACHE_VERSION or \
                data.get("signature") != self.signature:
            return
        files = data.get("files")
        if isinstance(files, dict):
            self._files = files

    # -------------------------------------------------------------- files
    def lookup(self, rel_path: str, sha: str) -> Optional[dict]:
        entry = self._files.get(rel_path) if self.enabled else None
        if entry is not None and entry.get("sha") == sha:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, rel_path: str, sha: str, entry: dict) -> None:
        if not self.enabled:
            return
        entry = dict(entry)
        entry["sha"] = sha
        self._files[rel_path] = entry
        self._dirty = True

    def prune(self, keep: Sequence[str]) -> None:
        """Drop entries for files no longer in the linted set."""
        if not self.enabled:
            return
        keep_set = set(keep)
        stale = [p for p in self._files if p not in keep_set]
        for p in stale:
            del self._files[p]
            self._dirty = True

    # --------------------------------------------------------------- save
    def save(self) -> None:
        if not (self.enabled and self._dirty):
            return
        payload = {
            "version": ANALYSIS_CACHE_VERSION,
            "signature": self.signature,
            "files": {k: self._files[k] for k in sorted(self._files)},
        }
        directory = os.path.dirname(self.path) or "."
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, sort_keys=True)
                os.replace(tmp, self.path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            pass  # a cold next run is the only cost


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pack_signature(rule_ids: Sequence[str]) -> str:
    payload = f"{ANALYSIS_CACHE_VERSION}:{','.join(sorted(rule_ids))}"
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------- driver
def _serialize_suppressions(sups: List[Suppression]) -> list:
    return [[s.line, list(s.rule_ids), s.justification, s.end_line]
            for s in sups]


def _deserialize_suppressions(data: list) -> List[Suppression]:
    return [Suppression(line=line, rule_ids=tuple(rules),
                        justification=just, end_line=end)
            for line, rules, just, end in data]


def lint_project_paths(paths: Sequence[str],
                       config: Optional[LintConfig] = None) -> LintReport:
    """The ``--project`` entry point: incremental whole-program lint."""
    config = config or LintConfig()
    rules = config.enabled_rules()
    files = discover_files(paths)
    root = config.project_root or (
        find_project_root(paths[0]) if paths else os.getcwd()
    )
    signature = pack_signature([rule.rule_id for rule in rules])
    cache_path = None
    if config.use_cache:
        cache_path = config.cache_path or os.path.join(
            root, ".repro-lint-cache.json")
    cache = LintCache(cache_path, signature, enabled=config.use_cache)

    summaries: Dict[str, ModuleSummary] = {}
    raw_findings: Dict[str, List[Finding]] = {}
    suppressions: Dict[str, List[Suppression]] = {}
    parse_failures: List[Finding] = []
    rel_paths: List[str] = []

    for path in files:
        rel = _rel_path(path, root)
        rel_paths.append(rel)
        with open(path, "rb") as fh:
            raw = fh.read()
        sha = content_hash(raw)
        entry = cache.lookup(rel, sha)
        if entry is not None:
            error = entry.get("error")
            if error is not None:
                parse_failures.append(Finding(
                    rule_id=PARSE_ERROR_RULE, severity=Severity.ERROR,
                    path=rel, line=int(error["line"]),
                    message=error["message"]))
                continue
            summaries[rel] = ModuleSummary.from_dict(entry["summary"])
            raw_findings[rel] = [Finding.from_dict(f)
                                 for f in entry["findings"]]
            suppressions[rel] = _deserialize_suppressions(
                entry["suppressions"])
            continue
        source = raw.decode("utf-8")
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            message = f"file does not parse: {exc.msg}"
            parse_failures.append(Finding(
                rule_id=PARSE_ERROR_RULE, severity=Severity.ERROR,
                path=rel, line=exc.lineno or 1, message=message))
            cache.store(rel, sha, {
                "error": {"line": exc.lineno or 1, "message": message}})
            continue
        module = ModuleInfo(path=rel, source=source, tree=tree)
        findings: List[Finding] = []
        for rule in rules:
            findings.extend(rule.check_module(module))
        findings.sort(key=lambda f: f.sort_key)
        sups = find_suppressions(source, tree)
        summary = summarize_module(module)
        summaries[rel] = summary
        raw_findings[rel] = findings
        suppressions[rel] = sups
        cache.store(rel, sha, {
            "summary": summary.to_dict(),
            "findings": [f.to_dict() for f in findings],
            "suppressions": _serialize_suppressions(sups),
        })

    cache.prune(rel_paths)
    context = build_context(root, summaries, cache=cache)
    context_findings: List[Finding] = []
    for rule in rules:
        context_findings.extend(rule.check_context(context))
    cache.save()

    by_path: Dict[str, List[Finding]] = {rel: [] for rel in summaries}
    passthrough: List[Finding] = []
    for finding in context_findings:
        if finding.path in by_path:
            by_path[finding.path].append(finding)
        else:
            passthrough.append(finding)  # defensive: outside linted set

    report = LintReport(rule_ids=tuple(rule.rule_id for rule in rules))
    for rel in sorted(summaries):
        merged = raw_findings.get(rel, []) + by_path[rel]
        merged.sort(key=lambda f: f.sort_key)
        active, silenced = apply_suppressions(
            merged, suppressions.get(rel, []), rel)
        report.findings.extend(active)
        report.suppressed.extend(silenced)
    report.findings.extend(passthrough)
    report.findings.extend(parse_failures)
    report.findings.sort(key=lambda f: f.sort_key)
    report.suppressed.sort(key=lambda f: f.sort_key)
    report.n_files = len(files)
    report.project_stats = context.stats()
    return report


def lint_project_modules(modules: Sequence[ModuleInfo], root: str,
                         config: Optional[LintConfig] = None) -> LintReport:
    """Project-mode lint over in-memory modules (the fixtures' entry
    point): no cache, same summary-based pipeline as the file driver."""
    config = config or LintConfig()
    rules = config.enabled_rules()
    summaries: Dict[str, ModuleSummary] = {}
    raw_findings: Dict[str, List[Finding]] = {}
    suppressions: Dict[str, List[Suppression]] = {}
    for module in modules:
        findings: List[Finding] = []
        for rule in rules:
            findings.extend(rule.check_module(module))
        findings.sort(key=lambda f: f.sort_key)
        summaries[module.path] = summarize_module(module)
        raw_findings[module.path] = findings
        suppressions[module.path] = find_suppressions(module.source,
                                                      module.tree)
    context = build_context(root, summaries, cache=None)
    context_findings: List[Finding] = []
    for rule in rules:
        context_findings.extend(rule.check_context(context))

    by_path: Dict[str, List[Finding]] = {rel: [] for rel in summaries}
    passthrough: List[Finding] = []
    for finding in context_findings:
        if finding.path in by_path:
            by_path[finding.path].append(finding)
        else:
            passthrough.append(finding)
    report = LintReport(rule_ids=tuple(rule.rule_id for rule in rules))
    for rel in sorted(summaries):
        merged = raw_findings[rel] + by_path[rel]
        merged.sort(key=lambda f: f.sort_key)
        active, silenced = apply_suppressions(merged, suppressions[rel], rel)
        report.findings.extend(active)
        report.suppressed.extend(silenced)
    report.findings.extend(passthrough)
    report.findings.sort(key=lambda f: f.sort_key)
    report.suppressed.sort(key=lambda f: f.sort_key)
    report.n_files = len(modules)
    report.project_stats = context.stats()
    return report
