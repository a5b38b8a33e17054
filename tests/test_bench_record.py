"""The verdicts of ``tools/bench_record.py``'s ``judge``, which writes every ``BENCH_*.json``."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)
judge = bench_record.judge

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
RATE = {"name": "chunks_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    result = judge(WALL, TIGHT, [x * 1.2 for x in TIGHT])
    assert result["verdict"] == "regression"
    assert result["median_change"] == pytest.approx(0.2)
    assert result["change_wins"] == "0/6"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [0.6, 1.4, 0.8, 1.2, 1.0, 1.0]
    result = judge(WALL, parent, [x * 0.95 for x in parent])
    assert result["parent_spread"] > WALL["bound"]
    assert result["verdict"] == "unresolved"
    assert result["change_wins"] == "6/6"  # every pair won, but not every run beats every run


def test_a_wide_parent_spread_is_resolved_when_every_change_run_is_better():
    parent = [0.6, 1.4, 0.8, 1.2, 1.0, 1.0]
    assert judge(WALL, parent, [0.5, 0.55, 0.4, 0.45, 0.5, 0.5])["verdict"] == "within bound"


def test_a_small_change_is_within_bound():
    result = judge(WALL, TIGHT, [x * 1.05 for x in TIGHT])
    assert result["verdict"] == "within bound"
    assert result["parent"]["median"] == pytest.approx(1.0)
    assert result["change"]["median"] == pytest.approx(1.05)


def test_higher_is_better_metrics_count_a_fall_as_worse():
    assert judge(RATE, TIGHT, [x * 0.8 for x in TIGHT])["verdict"] == "regression"
    result = judge(RATE, TIGHT, [x * 1.2 for x in TIGHT])
    assert result["verdict"] == "within bound"
    assert result["change_wins"] == "6/6"
    assert result["median_change"] == pytest.approx(0.2)


@pytest.mark.parametrize("metric", [WALL, RATE])
def test_a_tie_counts_for_neither_side(metric):
    change = list(TIGHT)
    change[0] -= 0.5  # one pair better for a lower-is-better metric, worse for the other
    result = judge(metric, TIGHT, change)
    assert result["change_wins"] == ("1/6" if metric["better"] == "lower" else "0/6")
    assert judge(metric, TIGHT, list(TIGHT))["change_wins"] == "0/6"
    assert judge(metric, TIGHT, list(TIGHT))["verdict"] == "within bound"
