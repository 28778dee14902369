"""Quadrature and root-refinement unit tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire.numerics import adaptive_simpson, bisect_root, bracket_first_sign_change


def test_simpson_polynomial_exact():
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0, 1e-12) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )


def test_simpson_sine():
    assert adaptive_simpson(math.sin, 0.0, math.pi, 1e-10) == pytest.approx(
        2.0, abs=1e-9
    )


def test_simpson_vanishing_integrand():
    # distance of a curve from itself integrates to zero
    f = lambda x: (math.exp(-x) - math.exp(-x)) ** 2
    assert adaptive_simpson(f, 0.0, 1.0, 1e-12) == 0.0


def test_simpson_steep_power():
    assert adaptive_simpson(lambda x: x**84, 0.0, 1.0, 1e-12) == pytest.approx(
        1.0 / 85.0, rel=1e-8
    )


def test_simpson_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        adaptive_simpson(math.sin, 0.0, 1.0, 0.0)


def test_simpson_depth_exhaustion():
    with pytest.raises(RuntimeError, match="depth"):
        adaptive_simpson(lambda x: abs(x - 1 / 3) ** -0.5, 0.0, 1.0, 1e-14, max_depth=4)


def test_bisect_finds_root():
    root = bisect_root(np.cos, 0.0, 2.0, xtol=1e-13)
    assert type(root) is float
    assert root == pytest.approx(math.pi / 2, abs=1e-12)


def test_bisect_exact_endpoint():
    assert bisect_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert bisect_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_bisect_requires_bracket():
    with pytest.raises(ValueError, match="sign change"):
        bisect_root(lambda x: 1.0 + x * x, 0.0, 1.0)


def _sawtooth(x):
    # exactly 0 at every integer, rising through it; falls through each half-integer
    return x - np.round(x)


_brackets = st.one_of(
    # any bracket, of widths from 2^-20 to 4
    st.tuples(st.floats(-8.0, 8.0), st.floats(2.0**-20, 4.0)).map(lambda p: (p[0], p[0] + p[1])),
    # a zero endpoint
    st.tuples(st.integers(-8, 8), st.floats(2.0**-20, 4.0)).map(lambda p: (p[0], p[0] + p[1])),
    # a dyadic half-width: the first midpoint is the integer root itself
    st.tuples(st.integers(-8, 8), st.integers(-20, 1)).map(
        lambda p: (p[0] - 2.0 ** p[1], p[0] + 2.0 ** p[1])),
)


@settings(max_examples=200, deadline=None)
@given(brackets=st.lists(_brackets, min_size=1, max_size=12),
       xtol=st.sampled_from([1e-12, 1e-6, 0.0]), max_iter=st.sampled_from([8, 200]))
def test_bisect_array_matches_one_bracket_calls(brackets, xtol, max_iter):
    lo, hi = (np.array(side, dtype=float) for side in zip(*brackets))
    singles, refused = [], False
    for a, b in brackets:
        try:
            singles.append(bisect_root(_sawtooth, float(a), float(b), xtol=xtol, max_iter=max_iter))
        except ValueError:
            refused = True
    if refused:  # some bracket holds no sign change: the array call refuses too
        with pytest.raises(ValueError, match="sign change"):
            bisect_root(_sawtooth, lo, hi, xtol=xtol, max_iter=max_iter)
        return
    roots = bisect_root(_sawtooth, lo, hi, xtol=xtol, max_iter=max_iter)
    assert roots.shape == lo.shape
    assert [r.hex() for r in roots.tolist()] == [r.hex() for r in singles]


def test_bisect_array_of_bracket_kinds():
    # the bracket kinds the property above draws on, alone and in one array
    assert bisect_root(_sawtooth, 3.0, 3.7) == 3.0  # zero at lo
    assert bisect_root(_sawtooth, 2.6, 3.0) == 3.0  # zero at hi
    assert bisect_root(_sawtooth, 2.5, 3.5, xtol=0.0) == 3.0  # dyadic root at the first midpoint
    roots = bisect_root(_sawtooth, np.array([3.0, 2.6, 2.5]), np.array([3.7, 3.0, 3.5]))
    assert roots.tolist() == [3.0, 3.0, 3.0]
    assert bisect_root(_sawtooth, np.array([]), np.array([])).size == 0


def test_bracket_marches_geometrically():
    lo, hi = bracket_first_sign_change(lambda x: x - 1e-3, 1e-6, 10.0)
    assert lo <= 1e-3 <= hi
    assert hi / lo <= 1.05 + 1e-9


def test_bracket_returns_none_without_root():
    assert bracket_first_sign_change(lambda x: 1.0, 1e-6, 3.0) is None


def test_bracket_rejects_bad_window():
    with pytest.raises(ValueError):
        bracket_first_sign_change(lambda x: x, 0.0, 1.0)
