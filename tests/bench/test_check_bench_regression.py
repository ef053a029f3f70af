"""``benchmarks/check_bench_regression.py``: the ``make bench-trajectory``
gate, driven through ``main()`` on temporary JSON files."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

WALL = {"bit_identical": True, "speedup": 14.0}
PROXY = {"qor_identical": True, "work_ratio": 2.6}


def run_gate(tmp_path, current, baseline):
    cur = tmp_path / "current.json"
    base = tmp_path / "baseline.json"
    cur.write_text(json.dumps(current))
    base.write_text(json.dumps(baseline))
    return gate.main([str(cur), str(base)])


def test_healthy_sections_pass(tmp_path, capsys):
    doc = {"annealer": WALL, "incremental": PROXY}
    assert run_gate(tmp_path, doc, doc) == 0
    assert "OK: no regression" in capsys.readouterr().out


def test_missing_section_fails(tmp_path, capsys):
    assert run_gate(tmp_path, {"annealer": WALL},
                    {"annealer": WALL, "groute": WALL}) == 1
    assert "missing 'groute' section" in capsys.readouterr().out


def test_bit_identical_false_fails(tmp_path, capsys):
    broken = dict(WALL, bit_identical=False)
    assert run_gate(tmp_path, {"groute": broken}, {"groute": WALL}) == 1
    assert "groute kernel is no longer bit-identical" in capsys.readouterr().out


def test_quadratic_gates_on_solve_close(tmp_path, capsys):
    """The CG placer is gated on closeness to the dense solve, not on
    bit identity: a healthy section without bit_identical passes, a
    false solve_close fails."""
    healthy = {"solve_close": True, "speedup": 6.0}
    assert run_gate(tmp_path, {"quadratic": healthy}, {"quadratic": healthy}) == 0
    broken = dict(healthy, solve_close=False)
    assert run_gate(tmp_path, {"quadratic": broken}, {"quadratic": healthy}) == 1
    assert "CG solve drifted from the dense reference" in capsys.readouterr().out


def test_qor_identical_false_fails(tmp_path, capsys):
    broken = dict(PROXY, qor_identical=False)
    assert run_gate(tmp_path, {"dse": broken}, {"dse": PROXY}) == 1
    assert "changed the campaign's best QoR" in capsys.readouterr().out


def test_speedup_below_floor_fails(tmp_path, capsys):
    # 4.0x clears 35% of the 10x baseline (3.5x) but not the 5x floor
    slow = dict(WALL, speedup=4.0)
    assert run_gate(tmp_path, {"annealer": slow},
                    {"annealer": dict(WALL, speedup=10.0)}) == 1
    assert "annealer speedup regressed" in capsys.readouterr().out


def test_speedup_below_baseline_fraction_fails(tmp_path, capsys):
    # 6x clears the 5x floor but not 35% of the 20x baseline (7x)
    assert run_gate(tmp_path, {"lint": dict(WALL, speedup=6.0)},
                    {"lint": dict(WALL, speedup=20.0)}) == 1
    assert "lint speedup regressed" in capsys.readouterr().out


def test_work_ratio_below_floor_fails(tmp_path, capsys):
    # 1.9x is within 25% of the 2.2x baseline but under the 2x floor
    assert run_gate(tmp_path, {"incremental": dict(PROXY, work_ratio=1.9)},
                    {"incremental": dict(PROXY, work_ratio=2.2)}) == 1
    assert "incremental work_ratio regressed" in capsys.readouterr().out


def test_baseline_with_no_known_sections_fails(tmp_path, capsys):
    assert run_gate(tmp_path, {}, {"bogus": WALL}) == 1
    assert "baseline section 'bogus' has no floor" in capsys.readouterr().out


def test_empty_baseline_fails(tmp_path, capsys):
    assert run_gate(tmp_path, {}, {}) == 1
    assert "baseline has no benchmark sections" in capsys.readouterr().out


@pytest.mark.parametrize("extra", ["groute", "newbench"])
def test_section_missing_from_baseline_fails(tmp_path, capsys, extra):
    """A section the run produced but the baseline lacks is ungated."""
    assert run_gate(tmp_path, {"annealer": WALL, extra: WALL},
                    {"annealer": WALL}) == 1
    assert f"'{extra}' section is not in the baseline" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(Path(_SCRIPT).parent.glob("BENCH_*_baseline.json")),
                         ids=lambda p: p.name)
def test_committed_baselines_pass_against_themselves(name):
    """Every committed baseline only carries sections the gate knows."""
    baseline = json.loads(name.read_text())
    assert baseline
    assert set(baseline) <= set(gate.WALL_FLOORS) | set(gate.PROXY_FLOORS)
    assert gate.main([str(name), str(name)]) == 0
