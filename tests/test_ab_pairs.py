"""The verdict of tools/ab_pairs.py on synthetic pairs of one metric."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)
verdict = ab_pairs.verdict

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR about 0.04


def test_nine_wins_of_ten_past_the_parent_s_spread_are_a_gain():
    pairs = [(p, p - 0.1) for p in PARENT[:9]] + [(PARENT[9], PARENT[9] + 0.5)]
    result = verdict(pairs, "lower", 0.25)
    assert (result["change_wins"], result["parent_wins"], result["ties"]) == (9, 1, 0)
    assert result["verdict"] == "gain"


def test_ties_count_for_neither_side():
    # eight wins and two ties are eight wins of ten pairs: no gain
    pairs = [(p, p - 0.1) for p in PARENT[:8]] + [(p, p) for p in PARENT[8:]]
    result = verdict(pairs, "lower", 0.25)
    assert (result["change_wins"], result["parent_wins"], result["ties"]) == (8, 0, 2)
    assert result["verdict"] == "within bound"
    same = verdict([(p, p) for p in PARENT], "lower", 0.25)
    assert (same["change_wins"], same["parent_wins"], same["ties"]) == (0, 0, 10)
    assert same["verdict"] == "within bound"
    assert same["ratio"] == 1.0


def test_a_win_smaller_than_the_parent_s_spread_is_no_gain():
    result = verdict([(p, p - 0.01) for p in PARENT], "lower", 0.25)
    assert result["change_wins"] == 10
    assert result["verdict"] == "within bound"


def test_higher_is_better_reads_the_other_way():
    pairs = [(p, p * 1.2) for p in PARENT]
    assert verdict(pairs, "higher", 0.25)["verdict"] == "gain"
    lower = verdict(pairs, "lower", 0.25)
    assert (lower["change_wins"], lower["parent_wins"]) == (0, 10)
    assert lower["verdict"] == "within bound"  # 20 % worse is inside a 0.25 bound
    assert verdict([(p, p * 0.7) for p in PARENT], "higher", 0.25)["verdict"] == "regression"


@pytest.mark.parametrize(("worse", "found"), [(1.2, "within bound"), (1.3, "regression")])
def test_a_regression_is_a_median_worse_by_more_than_the_bound(worse, found):
    result = verdict([(p, p * worse) for p in PARENT], "lower", 0.25)
    assert result["verdict"] == found
    assert result["parent"]["median"] == pytest.approx(1.0)
    assert result["ratio"] == pytest.approx(worse)


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]  # IQR 0.45 of a median of 1
    result = verdict([(p, p * 1.05) for p in wide], "lower", 0.25)
    assert result["verdict"] == "unresolved"


def test_a_gain_with_more_failed_operations_or_a_wrong_result_is_void():
    pairs = [(p, p - 0.1) for p in PARENT]
    assert verdict(pairs, "lower", 0.25)["verdict"] == "gain"
    assert verdict(pairs, "lower", 0.25, sound=False)["verdict"] == "void"
    # soundness voids only a gain
    assert verdict([(p, p) for p in PARENT], "lower", 0.25, sound=False)["verdict"] == "within bound"


def test_fewer_than_ten_pairs_make_no_gain():
    result = verdict([(p, p - 0.1) for p in PARENT[:5]], "lower", 0.25)
    assert result["change_wins"] == 5
    assert result["verdict"] == "within bound"


def test_a_wide_spread_is_resolved_when_every_change_run_beats_every_parent_run():
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]  # IQR 0.45 of a median of 1
    result = verdict([(p, 0.59) for p in wide], "lower", 0.25)  # better by 0.41 < IQR
    assert result["change_wins"] == 10
    assert result["verdict"] == "within bound"
    overlapping = verdict([(p, 0.59 if p > 0.6 else 0.61) for p in wide], "lower", 0.25)
    assert overlapping["verdict"] == "unresolved"
