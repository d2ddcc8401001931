"""The A/B tool's verdict and bound logic, on fixed numbers."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
sys.modules["ab_bench"] = ab_bench  # its dataclass looks its module up while the module runs
_spec.loader.exec_module(ab_bench)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]


def test_summary_quartiles():
    s = ab_bench.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s.median, s.q1, s.q3, s.spread) == (3.0, 2.0, 4.0, 2.0)
    assert ab_bench.summarize([7.0]).spread == 0.0


def test_clear_gain_higher_is_better():
    change = [180.0 + i for i in range(10)]
    v = ab_bench.verdict(PARENT, change, "higher", 0.2)
    assert v["wins"] == 10 and v["losses"] == 0
    assert v["gain"] and v["bound"] == "ok"


def test_gain_needs_nine_tenths_of_the_pairs():
    change = [200.0] * 8 + [50.0, 50.0]  # 8 of 10 wins
    v = ab_bench.verdict(PARENT, change, "higher", 0.2)
    assert v["wins"] == 8 and not v["gain"]
    change = [200.0] * 9 + [50.0]
    assert ab_bench.verdict(PARENT, change, "higher", 0.2)["gain"]


def test_gain_needs_a_gap_beyond_the_parent_spread():
    # wins every pair, but by less than the parent's quartile distance
    change = [p + 0.5 for p in PARENT]
    v = ab_bench.verdict(PARENT, change, "higher", 0.2)
    assert v["wins"] == 10
    assert v["change"].median - v["parent"].median < v["parent"].spread
    assert not v["gain"]


def test_ties_count_for_neither_side():
    v = ab_bench.verdict(PARENT, list(PARENT), "higher", 0.2)
    assert v["wins"] == 0 and v["losses"] == 0 and not v["gain"] and v["bound"] == "ok"


def test_lower_is_better_and_the_bound():
    # a latency 25% worse than the parent's median, against a 20% bound
    v = ab_bench.verdict(PARENT, [125.0] * 10, "lower", 0.2)
    assert v["losses"] == 10 and v["bound"] == "regressed"
    # 15% worse is within the bound
    assert ab_bench.verdict(PARENT, [115.0] * 10, "lower", 0.2)["bound"] == "ok"
    # 30% better is a gain when lower is better
    v = ab_bench.verdict(PARENT, [70.0] * 10, "lower", 0.2)
    assert v["gain"] and v["bound"] == "ok"


def test_wide_parent_spread_is_unresolved_unless_every_run_is_better():
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    v = ab_bench.verdict(noisy, [100.0] * 10, "higher", 0.2)
    assert v["bound"] == "unresolved"
    v = ab_bench.verdict(noisy, [150.0] * 10, "higher", 0.2)
    assert v["bound"] == "ok"


def test_unequal_run_counts_rejected():
    with pytest.raises(ValueError):
        ab_bench.verdict(PARENT, PARENT[:5], "higher", 0.2)


def test_benchmark_trees_must_match(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "okbench" / "__pycache__").mkdir(parents=True)
        (tmp_path / side / "okbench" / "run.py").write_text("print(1)\n")
        (tmp_path / side / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "a" / "okbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")  # build output: ignored
    assert ab_bench.same_benchmark(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "okbench" / "run.py").write_text("print(2)\n")
    (tmp_path / "b" / "okbench" / "extra.py").write_text("\n")
    assert ab_bench.same_benchmark(tmp_path / "a", tmp_path / "b") == ["okbench/extra.py", "okbench/run.py"]
