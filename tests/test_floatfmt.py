"""Bulk %.17g and %.2f formatter tests.

Claims checked here:
    - format_rows gives the bytes of Python's % on every float64: values
      drawn by hypothesis (NaN, infinities and subnormals included), a
      fixed edge set (zeros, the extremes, every power of ten and its
      neighbours, the %g switch points, large powers of two, exact
      17-digit ties, decade carries) and a seeded sweep of random bit
      patterns
    - each layout path gives those bytes on its own and mixed in a block:
      all fixed notation, all scientific, one scientific value among fixed
      ones, zeros and -0.0, negative values below 1, and the ragged last
      block of a CHUNK split for 1 to 4 columns
    - exact ties go through %, zeros stay on the array path
    - format_points gives the bytes of per-point %.2f: values drawn by
      hypothesis (negative, NaN, infinities, 1e4 and above, subnormals),
      the dyadic grid k/2**j, j = 1..11, across [0, 1e4), and the
      near-ties 0.005, 0.015, 72.125 and 999.995 with their neighbours
    - no numpy warning escapes (every test here turns warnings into errors)
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwire import floatfmt
from spinwire.floatfmt import FORMAT, POINTS_FORMAT, format_points, format_rows
from spinwire.numerics import CHUNK, chunks

pytestmark = pytest.mark.filterwarnings("error")


def percent(values: np.ndarray) -> str:
    """The reference: one % over the row template repeated."""
    rows, cols = values.shape
    return ((",".join([FORMAT] * cols) + "\n") * rows) % tuple(values.ravel().tolist())


def assert_matches(values) -> None:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    got, want = format_rows(values), percent(values)
    if got != want:
        rows = zip(values.tolist(), got.splitlines(), want.splitlines())
        bad = [(row, g, w) for row, g, w in rows if g != w]
        pytest.fail(f"{len(bad)} rows differ, first {bad[:3]}")


def is_tie(x: float) -> bool:
    """x has exactly 18 significant digits, the last a 5: a tie at 17 digits."""
    digits = Decimal(x).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def neighbours(x: float, steps: int = 1) -> list[float]:
    out, up, down = [x], x, x
    for _ in range(steps):
        up, down = float(np.nextafter(up, math.inf)), float(np.nextafter(down, -math.inf))
        out += [up, down]
    return out


TIES = [m * 2.0 ** -q for q in range(1, 12) for m in range(2 ** 53 - 41, 2 ** 53, 2)
        if is_tie(m * 2.0 ** -q)]
POWERS_OF_TEN = [y for k in range(-320, 309) for y in neighbours(float(f"1e{k}"))]
# 17-digit rounding carries these to the next power of ten
CARRIES = [x for x in POWERS_OF_TEN
           if 0 < x < 1e300 and Decimal(x) < Decimal(10) ** math.floor(math.log10(x) + 1e-9)
           and (FORMAT % x).split("e")[0] == "1"]
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max,
    math.inf, -math.inf, math.nan, 1.0, 0.1, 1 / 3, 2 / 3, 123.456, 0.5, 1.5, 2.5,
    *(y for x in (1e-5, 1e-4, 1e16, 1e17, 1e-250, 1e250) for y in neighbours(x, 3)),
    *(y for k in range(57, 71) for y in neighbours(2.0 ** k)),
    *TIES, *(-t for t in TIES), *POWERS_OF_TEN, *CARRIES,
]


def test_edge_values_match_percent():
    assert len(TIES) >= 10 and CARRIES
    values = np.array(EDGES)
    assert_matches(values)
    assert_matches(-values)
    assert_matches(values[: len(values) // 4 * 4].reshape(-1, 4))


def test_random_bit_patterns_match_percent():
    rng = np.random.default_rng(20261018)
    for _ in range(4):
        bits = rng.integers(0, 2 ** 64, size=2 ** 16, dtype=np.uint64)
        assert_matches(bits.view(np.float64).reshape(-1, 4))


def test_grid_columns_match_percent():
    times = np.linspace(0.0, 500.0, 100001)
    assert_matches(np.column_stack([times, np.cos(times) ** 2, np.exp(-times), np.zeros_like(times)]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
             min_size=cols, max_size=cols),
    min_size=1, max_size=32)))
def test_drawn_blocks_match_percent(rows):
    assert_matches(np.array(rows, dtype=float))


def test_ties_take_the_percent_path_and_zeros_do_not(monkeypatch):
    monkeypatch.setattr(floatfmt, "FORMAT", "<%.17g>")
    tie = TIES[0]
    text = format_rows(np.array([[tie, 0.0, -0.0, 1.5, math.inf]]))
    assert text == f"<{FORMAT % tie}>,0,-0,1.5,<inf>\n"


def test_empty_block_is_empty_text():
    assert format_rows(np.empty((0, 3))) == ""
    assert format_points(np.empty((0, 2))) == ""


def test_each_layout_path_matches_percent():
    rng = np.random.default_rng(20261019)
    signs = rng.choice([-1.0, 1.0], (64, 3))
    # %g prints fixed notation from 1e-4 up to 1e17, scientific outside
    fixed = signs * rng.uniform(1.0, 10.0, (64, 3)) * 10.0 ** rng.integers(-4, 17, (64, 3))
    exponents = rng.integers(-300, 280, (64, 3))
    exponents[(exponents >= -5) & (exponents < 17)] += 40
    scientific = signs * rng.uniform(1.0, 10.0, (64, 3)) * 10.0 ** exponents
    assert "e" not in percent(fixed)
    assert percent(scientific).count("e") == scientific.size
    assert_matches(fixed)
    assert_matches(scientific)
    one_among = fixed.copy()
    one_among[17, 1] = 1.2345e-7
    assert_matches(one_among)
    assert_matches(np.zeros((5, 4)))
    assert_matches(np.full((5, 4), -0.0))
    assert_matches([[0.0, -0.0], [-0.0, 0.0]])
    assert_matches(-rng.uniform(1e-5, 1.0, (64, 2)))
    assert_matches(-10.0 ** -np.arange(1, 5))


@pytest.mark.parametrize("cols", [1, 2, 3, 4])
def test_ragged_last_block_matches_percent(cols):
    rng = np.random.default_rng(cols)
    values = rng.uniform(0.0, 1e3, (2 * CHUNK + 2 * cols + 1, cols))
    values[-1] = -1e-9
    text = "".join(format_rows(values[block]) for block in chunks(len(values)))
    assert text == percent(values)


def points_percent(points: np.ndarray) -> str:
    """The reference: one %.2f pair per point, joined by spaces."""
    pair = f"{POINTS_FORMAT},{POINTS_FORMAT}"
    return " ".join([pair] * len(points)) % tuple(points.ravel().tolist())


def assert_points_match(values) -> None:
    points = np.asarray(values, dtype=float).reshape(-1, 2)
    got, want = format_points(points), points_percent(points)
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(points.ravel().tolist(),
                                            got.replace(",", " ").split(),
                                            want.replace(",", " ").split()) if g != w]
        pytest.fail(f"{len(bad)} values differ, first {bad[:3]}")


def test_dyadic_points_match_percent():
    # k/2**j for every j, k stepping by an odd stride across [0, 1e4):
    # 100 k/2**j is exact, so these are the exact ties of %.2f and their grid
    for j in range(1, 12):
        k = np.arange(0, 10 ** 4 * 2 ** j, 97 if j > 4 else 1)
        values = k / 2.0 ** j
        assert_points_match(values[: len(values) // 2 * 2])


def test_near_tie_points_match_percent():
    values = [y for x in (0.005, 0.015, 72.125, 999.995, 9999.995, 0.0, 1e4)
              for y in neighbours(x, 3)]
    assert_points_match(values + [0.0] * (len(values) % 2))
    assert_points_match(np.random.default_rng(5).uniform(0.0, 1e4, 2 ** 16))
    # several values too wide for a word, in both columns, are spliced in order
    assert_points_match([1e300, 1.0, -2.5, math.nan, 3.0, -math.inf, 1e4, 0.125])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-1.0, 2e4, allow_subnormal=True) | st.sampled_from([-0.0, 1e4, 9999.995, 5e-324]),
), min_size=1, max_size=32))
def test_drawn_points_match_percent(points):
    assert_points_match(points)

