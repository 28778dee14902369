"""Walk-count unit tests.

Claims checked here:
    - the closed form reproduces the published 6x6 table of counts
    - exhaustive DFS enumeration agrees with the closed form
    - row sums and first columns are Catalan numbers
    - the k = 0 and k = 1 columns coincide from n = 4 on
    - out-of-range inputs behave as documented
    - walk_rows' suffix sums reproduce the closed form and the enumeration
"""

from __future__ import annotations

import pytest

from spinwire import catalan, enumerate_walks, walk_count
from spinwire.walks import ENUMERATION_CAP, walk_rows

# n -> counts for k = 0..5, including the trailing zeros of the table layout.
TABLE = {
    2: (1, 0, 0, 0, 0, 0),
    4: (1, 1, 0, 0, 0, 0),
    6: (2, 2, 1, 0, 0, 0),
    8: (5, 5, 3, 1, 0, 0),
    10: (14, 14, 9, 4, 1, 0),
    12: (42, 42, 28, 14, 5, 1),
}


def catalan_by_convolution(m: int) -> int:
    # Independent oracle: C_0 = 1, C_{m+1} = sum_i C_i C_{m-i}.
    values = [1]
    for _ in range(m):
        values.append(sum(values[i] * values[-1 - i] for i in range(len(values))))
    return values[m]


@pytest.mark.parametrize("n,row", sorted(TABLE.items()))
def test_closed_form_reproduces_table(n, row):
    assert tuple(walk_count(n, k) for k in range(6)) == row


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_enumeration_agrees_with_closed_form(n):
    counts = enumerate_walks(n)
    assert set(counts) == set(range(n // 2))
    for k in range(n // 2 + 3):
        assert counts.get(k, 0) == walk_count(n, k)


def test_enumeration_examples():
    assert enumerate_walks(6) == {0: 2, 1: 2, 2: 1}
    assert enumerate_walks(2) == {0: 1}
    assert enumerate_walks(12) == {0: 42, 1: 42, 2: 28, 3: 14, 4: 5, 5: 1}


@pytest.mark.parametrize("m,expected", [(0, 1), (2, 2), (5, 42)])
def test_catalan_pinned_values(m, expected):
    assert catalan(m) == expected


@pytest.mark.parametrize("m", range(25))
def test_catalan_matches_convolution_recurrence(m):
    assert catalan(m) == catalan_by_convolution(m)


@pytest.mark.parametrize("n", range(4, 42, 2))
def test_first_two_columns_coincide(n):
    assert walk_count(n, 0) == walk_count(n, 1)


@pytest.mark.parametrize("n", range(2, 42, 2))
def test_first_column_is_catalan(n):
    assert walk_count(n, 0) == catalan(n // 2 - 1)


@pytest.mark.parametrize("n", range(2, 42, 2))
def test_row_sum_is_catalan(n):
    assert sum(walk_count(n, k) for k in range(n // 2)) == catalan(n // 2)


def test_out_of_range_k_counts_zero():
    assert walk_count(2, 1) == 0
    assert walk_count(10, 5) == 0
    assert walk_count(10, -1) == 0


@pytest.mark.parametrize("n", [0, -2, 3, 7])
def test_bad_step_counts_rejected(n):
    with pytest.raises(ValueError):
        walk_count(n, 0)
    with pytest.raises(ValueError):
        enumerate_walks(n)


def test_enumeration_cap_enforced():
    with pytest.raises(ValueError, match="capped"):
        enumerate_walks(22)
    assert enumerate_walks(22, cap=22)[0] == walk_count(22, 0)


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def test_walk_row_matches_closed_form():
    rows = list(walk_rows(400))
    assert [len(row) for row in rows] == list(range(1, 201))
    for n, row in zip(range(2, 401, 2), rows):
        assert row == [walk_count(n, k) for k in range(n // 2)]


def test_walk_rows_match_enumeration():
    for n, row in zip(range(2, ENUMERATION_CAP + 1, 2), walk_rows(ENUMERATION_CAP)):
        assert dict(enumerate(row)) == enumerate_walks(n)


@pytest.mark.parametrize("n", [0, -2, 3])
def test_walk_row_rejects_bad_step_counts(n):
    with pytest.raises(ValueError):
        walk_rows(n)  # on the call, before any row is asked for
