"""tools/ab.py's summary of paired benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    parent, change = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    higher = ab.summarize(parent, change, "higher")
    assert higher["change_wins"] == "2/4"
    assert ab.summarize(parent, change, "lower")["change_wins"] == "1/4"
    assert higher["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75}
    assert higher["change"]["median"] == 2.0
    assert higher["median_change"] == pytest.approx(2.0 / 2.5 - 1)
    assert higher["parent_runs"] == parent and higher["change_runs"] == change


def test_summarize_one_pair():
    one = ab.summarize([2.0], [1.0], "lower")
    assert one["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert one["change_wins"] == "1/1" and one["median_change"] == -0.5
