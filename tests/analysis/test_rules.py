"""Rule-pack coverage: every rule fires on its violating fixture, stays
quiet on the clean twin, and honors a justified inline suppression."""

import textwrap

import pytest

from repro.analysis import Analyzer, LintConfig, all_rules


def lint_snippet(rule_id, source):
    analyzer = Analyzer(LintConfig(select=[rule_id]))
    return analyzer.lint_source(textwrap.dedent(source))


# (rule id, violating snippet, clean snippet); the violating line for
# the suppression variant is marked with {ALLOW} so the test can append
# a justified allow-comment to it
PER_MODULE_CASES = {
    "R001": (
        """
        import numpy as np
        import random

        def sample(n):
            a = np.random.rand(n){ALLOW}
            random.shuffle(a)
            np.random.seed(0)
            return a
        """,
        """
        import numpy as np
        import random

        def sample(n, seed):
            rng = np.random.default_rng(seed)
            stdlib_rng = random.Random(seed)
            a = rng.random(n)
            stdlib_rng.shuffle(a)
            return a
        """,
    ),
    "R002": (
        """
        _CACHE = {}
        _ITEMS = []

        def remember(key, value):
            _CACHE[key] = value{ALLOW}

        def push(value):
            _ITEMS.append(value)
        """,
        """
        import threading

        _CACHE = {}
        _LOCK = threading.Lock()
        _CONSTANT = {"a": 1}  # read-only: never mutated

        def remember(key, value):
            with _LOCK:
                _CACHE[key] = value

        def local_shadow():
            _ITEMS = []
            _ITEMS.append(1)  # a local, not module state
            return _ITEMS
        """,
    ),
    "R003": (
        """
        import os

        def collect(paths):
            out = []
            for name in os.listdir("."):{ALLOW}
                out.append(name)
            out.extend(list({1, 2, 3}))
            return out
        """,
        """
        import os

        def collect(paths):
            out = []
            for name in sorted(os.listdir(".")):
                out.append(name)
            out.extend(sorted({1, 2, 3}))
            n = len({1, 2, 3})  # order-insensitive reducer
            dedup = {x for x in set(paths)}  # building a set again
            return out, n, dedup
        """,
    ),
    "R004": (
        """
        import time
        from datetime import datetime

        def stamp(result):
            result.t = time.time(){ALLOW}
            result.day = datetime.now()
            return result
        """,
        """
        import time

        def measure(fn):
            t0 = time.perf_counter()  # durations are fine
            fn()
            return time.perf_counter() - t0
        """,
    ),
    "R005": (
        """
        def campaign(executor, jobs):
            stop = lambda history: len(history) > 3
            return executor.run_jobs(jobs, stop_callback=stop){ALLOW}
        """,
        """
        def should_stop(history):
            return len(history) > 3

        def campaign(executor, jobs):
            return executor.run_jobs(jobs, stop_callback=should_stop)
        """,
    ),
    "R007": (
        """
        def drain(queue):
            try:
                return queue.get()
            except:{ALLOW}
                pass
        """,
        """
        def drain(queue, stats):
            try:
                return queue.get()
            except Exception:
                stats.dropped += 1
                return None
        """,
    ),
}


@pytest.mark.parametrize("rule_id", sorted(PER_MODULE_CASES))
def test_violating_fixture_detected(rule_id):
    bad, _ = PER_MODULE_CASES[rule_id]
    report = lint_snippet(rule_id, bad.replace("{ALLOW}", ""))
    assert report.findings, f"{rule_id} missed its violating fixture"
    assert all(f.rule_id == rule_id for f in report.findings)


@pytest.mark.parametrize("rule_id", sorted(PER_MODULE_CASES))
def test_clean_fixture_passes(rule_id):
    _, good = PER_MODULE_CASES[rule_id]
    report = lint_snippet(rule_id, good.replace("{ALLOW}", ""))
    assert report.findings == [], (
        f"{rule_id} false-positived: "
        f"{[f.format() for f in report.findings]}"
    )


@pytest.mark.parametrize("rule_id", sorted(PER_MODULE_CASES))
def test_justified_suppression_silences(rule_id):
    bad, _ = PER_MODULE_CASES[rule_id]
    allowed = bad.replace(
        "{ALLOW}", f"  # repro: allow[{rule_id}] -- fixture: intentional"
    )
    report = lint_snippet(rule_id, allowed)
    assert len(report.suppressed) >= 1
    assert all(f.line != s.line for f in report.findings
               for s in report.suppressed), "suppressed line still reported"
    # the remaining (unsuppressed) violations in the fixture still fire
    unsuppressed_lines = {f.line for f in report.findings
                          if f.rule_id == rule_id}
    full = lint_snippet(rule_id, bad.replace("{ALLOW}", ""))
    assert len(unsuppressed_lines) < len(full.findings)


# ---------------------------------------------------------------- R006
def make_metrics_project(tmp_path, emit_name, schema_names):
    pkg = tmp_path / "proj"
    (pkg / "metrics").mkdir(parents=True)
    vocab = ",\n    ".join(f'"{n}": ("u", "d")' for n in schema_names)
    (pkg / "metrics" / "schema.py").write_text(
        f"VOCABULARY = {{\n    {vocab},\n}}\n"
    )
    (pkg / "emitter.py").write_text(textwrap.dedent(f"""
        def report(tx):
            tx.send("{emit_name}", 1.0)
    """))
    (tmp_path / "pyproject.toml").write_text("")  # project root marker
    return str(pkg)


def test_r006_unknown_metric_name(tmp_path):
    proj = make_metrics_project(tmp_path, "bogus.metric", ["flow.area"])
    report = Analyzer(LintConfig(select=["R006"])).lint_paths([proj])
    messages = [f.message for f in report.findings]
    assert any("bogus.metric" in m and "not in the METRICS" in m
               for m in messages)
    # flow.area is also unemitted -> flagged on the schema side
    assert any("'flow.area' has no emitter" in m for m in messages)


def test_r006_clean_project(tmp_path):
    proj = make_metrics_project(tmp_path, "flow.area", ["flow.area"])
    report = Analyzer(LintConfig(select=["R006"])).lint_paths([proj])
    assert report.findings == []


def test_r006_mapping_dict_counts_as_emitter(tmp_path):
    proj = make_metrics_project(tmp_path, "flow.area",
                                ["flow.area", "synth.area"])
    (tmp_path / "proj" / "wrappers.py").write_text(
        '_STEP = {("synth", "area"): "synth.area"}\n'
    )
    report = Analyzer(LintConfig(select=["R006"])).lint_paths([proj])
    assert report.findings == []


def test_r006_reads_annotated_vocabulary(tmp_path):
    """``VOCABULARY: Dict[...] = {...}`` (the real schema's spelling) is
    read, so its dead entries are still reported."""
    proj = make_metrics_project(tmp_path, "flow.area", ["flow.area"])
    (tmp_path / "proj" / "metrics" / "schema.py").write_text(
        'from typing import Dict\n'
        'VOCABULARY: Dict[str, tuple] = {\n'
        '    "flow.area": ("u", "d"),\n'
        '    "synth.area": ("u", "d"),\n'
        '}\n')
    report = Analyzer(LintConfig(select=["R006"])).lint_paths([proj])
    assert [(f.line, f.message) for f in report.findings] == [
        (4, "vocabulary entry 'synth.area' has no emitter anywhere in the "
            "linted tree; remove it or emit it")]


def test_r006_non_literal_vocabulary_fails_loudly(tmp_path):
    """A linted schema whose VOCABULARY the rule cannot read is an error
    on schema.py, not a silent fallback to the installed vocabulary."""
    proj = make_metrics_project(tmp_path, "bogus.metric", ["flow.area"])
    (tmp_path / "proj" / "metrics" / "schema.py").write_text(
        'VOCABULARY = dict([("flow.area", ("u", "d"))])\n')
    report = Analyzer(LintConfig(select=["R006"])).lint_paths([proj])
    assert [(f.path, f.line) for f in report.findings] == [
        ("proj/metrics/schema.py", 1)]
    assert "no literal VOCABULARY dict" in report.findings[0].message


# ---------------------------------------------------------------- R008
def make_cli_project(tmp_path, documented):
    pkg = tmp_path / "proj"
    pkg.mkdir()
    (pkg / "cli.py").write_text(textwrap.dedent("""
        def build(sub):
            sub.add_argument("--alpha", type=int)
            sub.add_argument("--beta-mode", action="store_true")
    """))
    (tmp_path / "pyproject.toml").write_text("")
    docs = tmp_path / "docs"
    docs.mkdir()
    docs.joinpath("cli.md").write_text(
        "# CLI\n" + "\n".join(f"`{flag}` does things" for flag in documented)
    )
    return str(pkg)


def test_r008_undocumented_flag_detected(tmp_path):
    proj = make_cli_project(tmp_path, documented=["--alpha"])
    report = Analyzer(LintConfig(select=["R008"])).lint_paths([proj])
    assert [f for f in report.findings if "'--beta-mode'" in f.message]
    assert not [f for f in report.findings if "'--alpha'" in f.message]


def test_r008_all_documented_passes(tmp_path):
    proj = make_cli_project(tmp_path, documented=["--alpha", "--beta-mode"])
    report = Analyzer(LintConfig(select=["R008"])).lint_paths([proj])
    assert report.findings == []


# ------------------------------------------------------------- catalog
def test_rule_pack_is_complete():
    rules = all_rules()
    ids = [rule.rule_id for rule in rules]
    assert ids == sorted(ids)
    assert {"R001", "R002", "R003", "R004",
            "R005", "R006", "R007", "R008"} <= set(ids)
    assert len(ids) >= 8
    for rule in rules:
        assert rule.name and rule.description
