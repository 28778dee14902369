"""Series-coefficient unit tests.

Claims checked here:
    - low-order coefficients match the known closed-form expansions
    - the hypergeometric route equals the walk-count route as exact
      rationals across couplings and orders
    - the integer build equals the plain Fraction walk sum coefficient
      by coefficient, for full-mantissa doubles, small-denominator
      rationals and zero couplings
    - the wire-off series is exactly the cosine series
    - numeric evaluation agrees with the in-repo Bessel oracles and the
      matrix propagator inside the convergence window
    - coefficients alternate in sign for positive couplings
    - an array of times gives, value and error alike, the bits of one
      scalar call per time
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinwire import (
    ChainSpec,
    SpectralAlpha,
    alpha_z,
    bessel_j0,
    bessel_j1,
    build_series,
    evaluate_series,
    hypergeometric_coefficient,
    series_coefficient,
    walk_count,
)

COUPLING_GRID = [(1, 1), (2, 1), (3, 1), (1, 2), (4, 1)]  # (K0^2, K^2)


def walk_sum_reference(j: int, k0_sq, k_sq) -> Fraction:
    """c_j as the plain Fraction walk sum, one factorial-form count per term."""
    if j == 0:
        return Fraction(1)
    p, q = Fraction(k0_sq), Fraction(k_sq)
    total = Fraction(0)
    for k in range(j):
        total += walk_count(2 * j, k) * p ** (k + 1) * q ** (j - k - 1)
    return Fraction((-1) ** j, math.factorial(2 * j)) * total


# A double with all 52 fraction bits drawn, scaled into [1/16, 32).
full_mantissa = st.builds(
    lambda m, e: math.ldexp(m, e - 52),
    st.integers(2**52, 2**53 - 1),
    st.integers(-4, 4),
)
small_rational = st.fractions(min_value=0, max_value=12, max_denominator=13)


@st.composite
def coupling_pairs(draw):
    """(K0^2, K^2) as the CLI, chi_metric or a hand-written rational gives them."""
    kind = draw(st.sampled_from(["chi", "rational", "zero_plug", "zero_wire"]))
    if kind == "chi":
        r = Fraction(draw(full_mantissa))
        return r * r, r**4
    if kind == "rational":
        return draw(small_rational), draw(small_rational)
    other = draw(st.one_of(small_rational, full_mantissa))
    return (0, other) if kind == "zero_plug" else (other, 0)


def test_constant_term_is_one():
    assert series_coefficient(0, 3, 5) == 1


def test_t2_coefficient_is_half_plug_squared():
    for k0_sq, k_sq in COUPLING_GRID:
        assert series_coefficient(1, k0_sq, k_sq) == Fraction(-k0_sq, 2)


def test_equal_couplings_t4_term():
    # 1 - (Kt)^2/2 + (Kt)^4/12 - ...
    assert series_coefficient(2, 1, 1) == Fraction(1, 12)


def test_sqrt2_ratio_t6_term():
    # at K0 = sqrt(2) K the t^6 coefficient is -(K)^6/36
    assert series_coefficient(3, 2, 1) == Fraction(-1, 36)


@pytest.mark.parametrize("k0_sq,k_sq", COUPLING_GRID)
def test_signs_alternate(k0_sq, k_sq):
    for j in range(21):
        coefficient = series_coefficient(j, k0_sq, k_sq)
        assert (-1) ** j * coefficient > 0


@pytest.mark.parametrize("k0_sq,k_sq", COUPLING_GRID)
def test_hypergeometric_equals_walk_sum(k0_sq, k_sq):
    z = Fraction(k0_sq, k_sq)
    for j in range(1, 21):
        assert hypergeometric_coefficient(j, z, k_sq) == series_coefficient(
            j, k0_sq, k_sq
        )


def test_hypergeometric_pinned_values():
    assert hypergeometric_coefficient(1, 1) == Fraction(-1, 2)
    assert hypergeometric_coefficient(2, 2) == Fraction(1, 4)
    assert hypergeometric_coefficient(4, 3) == series_coefficient(4, 3, 1)


def test_hypergeometric_rejects_j_zero():
    with pytest.raises(ValueError):
        hypergeometric_coefficient(0, 1)
    with pytest.raises(ValueError):
        hypergeometric_coefficient(3, 0)


@settings(deadline=None)
@given(couplings=coupling_pairs(), order=st.integers(0, 30))
@example(couplings=(Fraction(1, 3), Fraction(5, 7)), order=30)
@example(couplings=(5, Fraction(2, 9)), order=30)
@example(couplings=(0, Fraction(5, 7)), order=30)
@example(couplings=(Fraction(1, 3), 0), order=30)
def test_build_equals_fraction_walk_sum(couplings, order):
    k0_sq, k_sq = couplings
    series = build_series(k0_sq, k_sq, order)
    assert series.coeffs == tuple(
        walk_sum_reference(j, k0_sq, k_sq) for j in range(order + 1)
    )
    assert series_coefficient(order, k0_sq, k_sq) == series.coeffs[-1]


def test_order_80_chi_style_build():
    # chi_metric's couplings at a full-mantissa ratio: p = r^2, q = r^4.
    r = Fraction(1.7320508075688772)
    series = build_series(r * r, r**4, 80)
    assert series.order == 80
    for j in (79, 80):
        assert series.coeffs[j] == walk_sum_reference(j, r * r, r**4)
    for j in range(1, 81):
        assert series.coeffs[j] == hypergeometric_coefficient(j, 1 / (r * r), r**4)


def test_wire_off_series_is_cosine():
    series = build_series(1, 0, order=20)
    for j, c in enumerate(series.coeffs):
        assert c == Fraction((-1) ** j, math.factorial(2 * j))
    value, _ = evaluate_series(series, 1.3)
    assert value == pytest.approx(math.cos(1.3), abs=1e-14)


def test_evaluate_at_zero():
    series = build_series(2, 3, order=8)
    assert evaluate_series(series, 0.0) == (1.0, 0.0)


def test_evaluate_matches_bessel_oracles():
    equal = build_series(1, 1, order=20)
    value, err = evaluate_series(equal, 1.0)
    assert abs(value - bessel_j1(2.0) / 1.0) < 1e-10
    assert err < 1e-10

    sqrt2 = build_series(2, 1, order=20)
    value, _ = evaluate_series(sqrt2, 2.0)
    assert abs(value - bessel_j0(4.0)) < 1e-8


def test_error_estimate_is_twice_last_term():
    series = build_series(1, 1, order=5)
    t = 0.7
    _, err = evaluate_series(series, t)
    assert err == pytest.approx(2 * abs(float(series.coeffs[5])) * t**10, rel=1e-12)


@pytest.mark.parametrize("order", [2, 20, 40])
def test_array_evaluation_matches_scalar_calls_bitwise(order):
    series = build_series(Fraction(0.7) ** 2, Fraction(1.3) ** 2, order=order)
    times = np.concatenate([np.linspace(0.0, 4.0, 4097), [-0.0, -1.5, 1e-200]])
    values, errors = evaluate_series(series, times)
    scalar = [evaluate_series(series, t) for t in times.tolist()]
    assert values.tobytes() == np.array([v for v, _ in scalar]).tobytes()
    assert errors.tobytes() == np.array([e for _, e in scalar]).tobytes()


@pytest.mark.parametrize("k0_sq,k_sq", COUPLING_GRID)
def test_series_matches_propagator_inside_window(k0_sq, k_sq):
    k0, k = math.sqrt(k0_sq), math.sqrt(k_sq)
    series = build_series(k0_sq, k_sq, order=20)
    alpha = SpectralAlpha(ChainSpec(k0, k, 80))
    for t in np.linspace(0.0, 2.0 / k, 41):
        value, _ = evaluate_series(series, float(t))
        assert abs(value - alpha(float(t))) < 1e-9


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_series(1, 1, order=-1)
    with pytest.raises(ValueError):
        build_series(-1, 1)
    with pytest.raises(ValueError):
        evaluate_series(build_series(1, 1, order=1), 0.5)
    with pytest.raises(ValueError):
        series_coefficient(-1, 1, 1)
    for k0_sq, k_sq in ((-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            series_coefficient(2, k0_sq, k_sq)
    # nan and both infinities, in every coupling argument
    for bad in (math.inf, -math.inf, math.nan):
        for call in (
            lambda: build_series(bad, 1),
            lambda: build_series(1, bad),
            lambda: series_coefficient(2, bad, 1),
            lambda: series_coefficient(2, 1, bad),
            lambda: hypergeometric_coefficient(2, bad),
            lambda: hypergeometric_coefficient(2, 1, bad),
        ):
            with pytest.raises(ValueError, match="rational"):
                call()


def test_alpha_z_squares():
    assert alpha_z(1.0) == 1.0
    assert alpha_z(0.0) == 0.0
    assert alpha_z(0.5) == 0.25
