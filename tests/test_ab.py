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
    higher = ab.summarize(parent, change, "higher", 0.25)
    assert higher["change_wins"] == "2/4"
    assert ab.summarize(parent, change, "lower", 0.25)["change_wins"] == "1/4"
    assert higher["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75}
    assert higher["change"]["median"] == 2.0
    assert higher["median_change"] == pytest.approx(2.0 / 2.5 - 1)
    assert higher["parent_runs"] == parent and higher["change_runs"] == change


def test_summarize_one_pair():
    one = ab.summarize([2.0], [1.0], "lower", 0.25)
    assert one["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert one["change_wins"] == "1/1" and one["median_change"] == -0.5


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def _verdict(parent, change, better="lower", bound=0.25):
    summary = ab.summarize(parent, change, better, bound)
    assert summary["bound"] == bound
    return summary["verdict"]


def test_verdict_worse_past_the_bound_in_either_direction():
    assert _verdict(STEADY, [v * 1.3 for v in STEADY]) == "worse"
    assert _verdict(STEADY, [v * 0.7 for v in STEADY], "higher") == "worse"
    # within the bound and within the parent's spread: no verdict either way
    assert _verdict(STEADY, [v * 1.002 for v in STEADY]) == "same"
    assert _verdict(STEADY, [v * 1.2 for v in STEADY]) == "same"


def test_verdict_gain_needs_nine_of_ten_pairs_and_a_median_past_the_spread():
    faster = [v - 5.0 for v in STEADY]
    assert _verdict(STEADY, faster) == "gain"
    assert _verdict(STEADY, [v + 5.0 for v in STEADY], "higher") == "gain"
    nine = faster[:9] + [STEADY[9] + 1.0]
    assert _verdict(STEADY, nine) == "gain"
    eight = faster[:8] + [STEADY[8] + 1.0, STEADY[9] + 1.0]
    assert _verdict(STEADY, eight) == "same"
    # every pair won, but by less than the parent's interquartile range
    assert _verdict(STEADY, [v - 0.05 for v in STEADY]) == "same"
    # ties count for neither side
    assert _verdict(STEADY, list(STEADY)) == "same"


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    wide = [60.0, 140.0, 70.0, 130.0, 100.0, 65.0, 135.0, 80.0, 120.0, 100.0]
    assert _verdict(wide, list(wide)) == "unresolved"
    assert _verdict(wide, [v - 1.0 for v in wide[:9]] + [wide[9] + 1.0]) == "unresolved"
    # a change better in every pair is not held up by the parent's spread
    assert _verdict(wide, [v - 1.0 for v in wide]) == "same"
    assert _verdict(wide, [v - 70.0 for v in wide]) == "gain"  # past the IQR of 62.5
    assert _verdict(wide, [v * 1.5 for v in wide]) == "worse"
