"""The verdict rule of tools/bench_pairs.py, on made-up samples.

Claims checked here:
    - a change that wins 9 in 10 pairs by more than the base IQR is
      better, and one that wins 8 is not
    - a median worse by more than the bound is worse, however many pairs
      it lost, and one within the bound is not
    - a spread above the bound is unresolved, unless every run of one
      tree is better than every run of the other
    - ties count for neither tree, and a metric that is higher when
      better is read the other way round
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# ten runs of a parent within 2% of 1.0, in no order
BASE = [1.00, 0.99, 1.01, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def _verdict(base, head, bound=0.25, better="lower"):
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verdict(base, head, bound, better)


def test_a_change_that_wins_nine_pairs_is_better():
    head = [0.65 * b for b in BASE]
    head[3] = 1.5  # one pair lost
    row = _verdict(BASE, head)
    assert (row["won"], row["verdict"]) == (9, "better")
    assert row["change"] == pytest.approx(-0.35, abs=0.01)


def test_eight_pairs_won_are_not_enough():
    head = [0.65 * b for b in BASE]
    head[3] = head[7] = 1.5
    assert _verdict(BASE, head)["verdict"] == "unchanged"


def test_a_gain_within_the_base_spread_is_unchanged():
    # every pair won, by less than the distance between the base quartiles
    row = _verdict(BASE, [b - 0.005 for b in BASE])
    assert (row["won"], row["verdict"]) == (10, "unchanged")


def test_a_median_worse_by_more_than_the_bound_is_worse():
    # every pair lost, by 10%: worse only with a bound below that
    assert _verdict(BASE, [1.1 * b for b in BASE])["verdict"] == "unchanged"
    assert _verdict(BASE, [1.1 * b for b in BASE], bound=0.05)["verdict"] == "worse"
    # half the pairs lost, but the median is 30% worse with a bound of 25%
    head = [1.3, 0.9, 1.3, 1.0, 1.3, 0.95, 1.3, 0.97, 1.3, 1.31]
    assert _verdict(BASE, head)["verdict"] == "worse"
    assert _verdict(BASE, head, bound=0.5)["verdict"] == "unchanged"


def test_a_spread_above_the_bound_is_unresolved():
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.6, 1.2, 0.9, 1.1]
    row = _verdict(noisy, [0.97 * b for b in noisy])
    assert (row["won"], row["verdict"]) == (10, "unresolved")
    # unless every run of the change is better than every run of the parent
    assert _verdict(noisy, [0.35 * b for b in noisy])["verdict"] == "better"
    assert _verdict(noisy, [2.6 * b for b in noisy])["verdict"] == "worse"


def test_ties_count_for_neither_tree():
    row = _verdict(BASE, list(BASE))
    assert (row["won"], row["verdict"]) == (0, "unchanged")


def test_a_metric_that_is_higher_when_better():
    higher = _verdict(BASE, [1.5 * b for b in BASE], better="higher")
    assert (higher["won"], higher["verdict"]) == (10, "better")
    assert _verdict(BASE, [0.5 * b for b in BASE], better="higher")["verdict"] == "worse"
