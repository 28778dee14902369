"""Grid-walk, quadrature and root-refinement unit tests.

Every float-or-array route walks its times with blockwise: a float,
numpy scalar or 0-d time gives a float, an empty or 2-d grid keeps its
shape, and the values on either side of each CHUNK join have the bits of
one scalar call per time.

bisect_root evaluates the midpoints of TREE_DEPTH steps per call of f;
_bisect_one_step, one midpoint per bracket per call, is the loop it must
match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire import (
    ChainSpec,
    ChebyshevAlpha,
    SpectralAlpha,
    alpha_closed,
    bessel_j0,
    bessel_j1,
    build_series,
    evaluate_series,
    numerics,
)
from spinwire.numerics import CHUNK, adaptive_simpson, bisect_root, libm

SERIES = build_series(0.49, 1.69, 20)
ROUTES = {
    "chebyshev": ChebyshevAlpha(ChainSpec(1.3, 0.7, 60)),
    "spectral": SpectralAlpha(ChainSpec(1.3, 0.7, 60)),
    "closed-wire-off": lambda t: alpha_closed(0.9, 0.0, t),
    "closed-decoupled": lambda t: alpha_closed(0.0, 0.9, t),
    "closed-sqrt2": lambda t: alpha_closed(math.sqrt(2.0) * 0.8, 0.8, t),
    "closed-equal": lambda t: alpha_closed(1.3, 1.3, t),
    "bessel_j0": bessel_j0,
    "bessel_j1": bessel_j1,
    "series-values": lambda t: evaluate_series(SERIES, t)[0],
    "series-errors": lambda t: evaluate_series(SERIES, t)[1],
    "libm": lambda t: libm(math.cos, t),
}


@pytest.mark.parametrize("name", ROUTES)
def test_blockwise_routes_keep_type_shape_and_bits(name):
    f = ROUTES[name]
    scalar = f(-1.5)
    assert type(scalar) is float
    for t in (np.float64(-1.5), np.array(-1.5)):
        assert type(f(t)) is float and f(t) == scalar
    for shape in ((0,), (0, 3)):
        assert f(np.empty(shape)).shape == shape
    times = np.linspace(-5.0, 30.0, 3 * CHUNK + 1)
    grid = f(times)
    assert grid.shape == times.shape and grid.dtype == np.float64
    assert f(times[:6].reshape(2, 3)).tobytes() == grid[:6].tobytes()
    joins = (CHUNK * np.arange(1, 4)[:, None] + np.arange(-2, 2)).clip(max=times.size - 1)
    picked = np.r_[0, joins.ravel()]
    assert grid[picked].tobytes() == np.array([f(float(t)) for t in times[picked]]).tobytes()


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



def _bisect_one_step(f, lo, hi, xtol, max_iter):
    """One-bracket bisection, one call of f per step: the reference loop."""
    f_lo, f_hi = f(np.array([lo]))[0], f(np.array([hi]))[0]
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError("no sign change")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        f_mid = f(np.array([mid]))[0]
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _cubic(x):
    # one simple root at 1/3, which no dyadic midpoint hits
    return (x - 1.0 / 3.0) * (1.0 + x * x)


@settings(max_examples=300, deadline=None)
@given(brackets=st.lists(_brackets, min_size=1, max_size=8),
       f=st.sampled_from([_sawtooth, _cubic, np.sin]),
       xtol=st.sampled_from([0.0, 1e-12, 1e-6, 0.01]),
       max_iter=st.sampled_from([1, 3, 5, 8, 200]))
def test_bisect_matches_the_one_step_loop(brackets, f, xtol, max_iter):
    # max_iter values that are not multiples of TREE_DEPTH cut a tree short
    expected = []
    for a, b in brackets:
        try:
            expected.append(_bisect_one_step(f, float(a), float(b), xtol, max_iter))
        except ValueError:
            return  # refusals are the business of the test above
    lo, hi = (np.array(side, dtype=float) for side in zip(*brackets))
    roots = bisect_root(f, lo, hi, xtol=xtol, max_iter=max_iter)
    assert [r.hex() for r in roots.tolist()] == [r.hex() for r in expected]


@pytest.mark.parametrize("max_iter", [0, 1, 3, 4, 5, 8, 200])
def test_bisect_calls_f_once_per_tree(max_iter):
    calls = []

    def f(x):
        calls.append(np.size(x))
        return _cubic(x)

    # 40 one-step calls: the width 1 halves until it is below 1e-12
    root = bisect_root(f, np.array([0.0, 0.25]), np.array([1.0, 1.25]), xtol=1e-12,
                       max_iter=max_iter)
    one_step = [_bisect_one_step(_cubic, a, a + 1.0, 1e-12, max_iter) for a in (0.0, 0.25)]
    assert root.tolist() == one_step
    steps = min(max_iter, 40)
    depth = numerics.TREE_DEPTH
    assert len(calls) == 2 + math.ceil(steps / depth)  # f(lo) and f(hi), then the trees
    trees = [depth] * (steps // depth) + ([steps % depth] if steps % depth else [])
    assert calls[2:] == [2 * (2**d - 1) for d in trees]
