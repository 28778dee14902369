"""Series-coefficient unit tests.

Claims checked here:
    - low-order coefficients match the known closed-form expansions
    - the hypergeometric route equals the walk-count route as exact
      rationals across couplings and orders
    - the integer build equals the plain Fraction walk sum coefficient
      by coefficient, for full-mantissa doubles, small-denominator
      rationals and zero couplings
    - the first-return recurrence gives the pairs of an integer Horner sum
      over the walk rows, for float couplings at orders 0-120 and for
      P = Q, P = 0 and Q = 0; at P = Q the numerators are P^j C_j
    - the unreduced (n, d) pairs the package reads are build_series'
      Fractions, and n / d has the bits of float(Fraction), an
      OverflowError included, for squared float couplings and orders 2-60
    - the wire-off series is exactly the cosine series
    - numeric evaluation agrees with the in-repo Bessel oracles and the
      matrix propagator inside the convergence window, also for random
      couplings and orders, on every time where both the tail estimate
      and a rounding bound of the alternating sum are small
    - coefficients alternate in sign for positive couplings
    - an array of times gives, value and error alike, the bits of one
      scalar call per time, and a numpy scalar the floats of a float call;
      a tail power past the float range is an OverflowError for a float,
      numpy scalar, 0-d or 1-d t; values and errors hold one block of
      working memory besides themselves
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
    ChebyshevAlpha,
    SpectralAlpha,
    alpha_z,
    bessel_j0,
    bessel_j1,
    build_series,
    choose_chain_length,
    evaluate_series,
    hypergeometric_coefficient,
    catalan,
    walk_count,
)
from spinwire.numerics import CHUNK
from spinwire.series import _series_pairs, horner
from spinwire.walks import walk_rows

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


def walk_row_pairs(k0_sq, k_sq, order: int) -> list[tuple[int, int]]:
    """_series_pairs by an integer Horner sum over each row of walk counts.

    With p = P/D and q = Q/D, N_j = P sum_k l(2j, k) P^k Q^(j-1-k), by
    Horner in P over the powers of Q; d_j = D^j (2j)!.  O(order^2)
    big-integer operations, against the recurrence's O(order).
    """
    p, q = Fraction(k0_sq), Fraction(k_sq)
    d = math.lcm(p.denominator, q.denominator)
    big_p = p.numerator * (d // p.denominator)
    big_q = q.numerator * (d // q.denominator)
    q_powers = [big_q**i for i in range(order)]
    pairs, denominator = [(1, 1)], 1
    for j, row in enumerate(walk_rows(2 * order) if order else (), start=1):
        denominator *= d * (2 * j - 1) * (2 * j)
        numerator = 0
        for k in range(j - 1, -1, -1):
            numerator = numerator * big_p + row[k] * q_powers[j - 1 - k]
        numerator *= big_p
        pairs.append((-numerator if j % 2 else numerator, denominator))
    return pairs


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
    assert build_series(3, 5, 0) == (1,)


def test_t2_coefficient_is_half_plug_squared():
    for k0_sq, k_sq in COUPLING_GRID:
        assert build_series(k0_sq, k_sq, 1)[1] == Fraction(-k0_sq, 2)


def test_equal_couplings_t4_term():
    # 1 - (Kt)^2/2 + (Kt)^4/12 - ...
    assert build_series(1, 1, 2)[2] == Fraction(1, 12)


def test_sqrt2_ratio_t6_term():
    # at K0 = sqrt(2) K the t^6 coefficient is -(K)^6/36
    assert build_series(2, 1, 3)[3] == Fraction(-1, 36)


@pytest.mark.parametrize("k0_sq,k_sq", COUPLING_GRID)
def test_signs_alternate(k0_sq, k_sq):
    for j, coefficient in enumerate(build_series(k0_sq, k_sq, 20)):
        assert (-1) ** j * coefficient > 0


@pytest.mark.parametrize("k0_sq,k_sq", COUPLING_GRID)
def test_hypergeometric_equals_walk_sum(k0_sq, k_sq):
    z = Fraction(k0_sq, k_sq)
    coeffs = build_series(k0_sq, k_sq, 20)
    for j in range(1, 21):
        assert hypergeometric_coefficient(j, z, k_sq) == coeffs[j]


def test_hypergeometric_pinned_values():
    assert hypergeometric_coefficient(1, 1) == Fraction(-1, 2)
    assert hypergeometric_coefficient(2, 2) == Fraction(1, 4)
    assert hypergeometric_coefficient(4, 3) == build_series(3, 1, 4)[4]


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
    coeffs = build_series(k0_sq, k_sq, order)
    assert coeffs == tuple(walk_sum_reference(j, k0_sq, k_sq) for j in range(order + 1))


# a coupling as a CLI flag gives it: zero, subnormal, or large enough that
# mid-series coefficients of the order-60 series pass the float range
float_coupling = st.one_of(st.just(0.0), st.floats(0.0, 1e4), full_mantissa)


@settings(max_examples=60, deadline=None)
@given(k0=float_coupling, k=float_coupling, order=st.integers(2, 60))
@example(k0=0.0, k=0.0, order=2)
@example(k0=0.0, k=1.3, order=60)
@example(k0=1e-154, k=1.0, order=60)  # coefficients down in the subnormals
@example(k0=1e4, k=1e4, order=60)  # coefficients past the float range
def test_pairs_are_build_series_unreduced(k0, k, order):
    k0_sq, k_sq = Fraction(k0) ** 2, Fraction(k) ** 2
    pairs = _series_pairs(k0_sq, k_sq, order)
    coeffs = build_series(k0_sq, k_sq, order)
    assert len(pairs) == len(coeffs) == order + 1
    for (n, d), c in zip(pairs, coeffs):
        assert d > 0 and Fraction(n, d) == c
        try:
            want = float(c)
        except OverflowError:
            with pytest.raises(OverflowError):
                n / d
        else:
            assert (n / d).hex() == want.hex(), (n, d)


squared_float_couplings = st.tuples(float_coupling, float_coupling).map(
    lambda ks: (Fraction(ks[0]) ** 2, Fraction(ks[1]) ** 2)
)


@settings(max_examples=60, deadline=None)
@given(couplings=st.one_of(squared_float_couplings, coupling_pairs()), order=st.integers(0, 120))
@example(couplings=(Fraction(1.7) ** 2,) * 2, order=120)  # P = Q
@example(couplings=(0, Fraction(1.3) ** 2), order=120)  # P = 0
@example(couplings=(Fraction(1.3) ** 2, 0), order=120)  # Q = 0
@example(couplings=(0, 0), order=120)
@example(couplings=(Fraction(1, 3), Fraction(5, 7)), order=120)
def test_recurrence_equals_walk_row_horner(couplings, order):
    assert _series_pairs(*couplings, order) == walk_row_pairs(*couplings, order)


@pytest.mark.parametrize("p", [Fraction(3), Fraction(1, 7), Fraction(10**6, 3)])
def test_equal_couplings_numerators_are_catalan(p):
    # a row of walk counts sums to C_j, so at P = Q the numerator is P^j C_j
    pairs = _series_pairs(p, p, 120)
    assert pairs == walk_row_pairs(p, p, 120)
    for j, (n, d) in enumerate(pairs):
        assert n == (-1) ** j * p.numerator**j * catalan(j)
        assert d == p.denominator**j * math.factorial(2 * j)


def test_order_80_chi_style_build():
    # chi_metric's couplings at a full-mantissa ratio: p = r^2, q = r^4.
    r = Fraction(1.7320508075688772)
    coeffs = build_series(r * r, r**4, 80)
    assert len(coeffs) == 81
    for j in (79, 80):
        assert coeffs[j] == walk_sum_reference(j, r * r, r**4)
    for j in range(1, 81):
        assert coeffs[j] == hypergeometric_coefficient(j, 1 / (r * r), r**4)


def test_wire_off_series_is_cosine():
    series = build_series(1, 0, order=20)
    for j, c in enumerate(series):
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
    assert err == pytest.approx(2 * abs(float(series[5])) * t**10, rel=1e-12)


@pytest.mark.parametrize("order", [2, 20, 40])
def test_array_evaluation_matches_scalar_calls_bitwise(order):
    series = build_series(Fraction(0.7) ** 2, Fraction(1.3) ** 2, order=order)
    times = np.concatenate([np.linspace(0.0, 4.0, 4097), [-0.0, -1.5, 1e-200]])
    values, errors = evaluate_series(series, times)
    scalar = [evaluate_series(series, t) for t in times.tolist()]
    assert values.tobytes() == np.array([v for v, _ in scalar]).tobytes()
    assert errors.tobytes() == np.array([e for _, e in scalar]).tobytes()


@pytest.mark.parametrize("t", [1e20, np.float64(1e20), np.array(1e20), np.array([1.0, 1e20])],
                         ids=["float", "float64", "0-d", "1-d"])
def test_tail_power_overflow_is_an_overflow_error_for_every_kind_of_t(t):
    with pytest.raises(OverflowError, match=r"t\*\*40 overflows"):
        evaluate_series(build_series(1, 1, order=20), t)


def test_numpy_scalar_gives_the_floats_of_a_float_call():
    series = build_series(1, 1, order=20)
    value, err = evaluate_series(series, np.float64(1.0))
    assert type(value) is float and type(err) is float
    assert np.array([value, err]).tobytes() == np.array(evaluate_series(series, 1.0)).tobytes()


def test_evaluate_memory_is_its_values_plus_a_block(traced_peak):
    series = build_series(1, 1, order=20)
    times = np.linspace(0.0, 2.0, 50 * CHUNK)
    (values, errors), peak = traced_peak(lambda: evaluate_series(series, times))
    assert peak < values.nbytes + errors.nbytes + 1_000_000


@pytest.mark.parametrize("k0_sq,k_sq", COUPLING_GRID)
def test_series_matches_propagator_inside_window(k0_sq, k_sq):
    k0, k = math.sqrt(k0_sq), math.sqrt(k_sq)
    series = build_series(k0_sq, k_sq, order=20)
    alpha = SpectralAlpha(ChainSpec(k0, k, 80))
    for t in np.linspace(0.0, 2.0 / k, 41):
        value, _ = evaluate_series(series, float(t))
        assert abs(value - alpha(float(t))) < 1e-9


@settings(max_examples=40, deadline=None)
@given(k0=st.floats(0.05, 5.0), k=st.floats(0.05, 5.0), order=st.integers(4, 60),
       reach=st.floats(0.5, 8.0))
@example(k0=1.0, k=1.0, order=20, reach=8.0)
@example(k0=5.0, k=0.05, order=60, reach=8.0)
def test_series_matches_chebyshev_inside_window(k0, k, order, reach):
    # reach is a t_max in units of 1/a, a = max(K0 + K, 2K) the Chebyshev scale
    tmax = reach / max(k0 + k, 2.0 * k)
    times = np.linspace(0.0, tmax, 41)
    coeffs = build_series(Fraction(k0) ** 2, Fraction(k) ** 2, order)
    values, tails = evaluate_series(coeffs, times)
    # Horner's rounding: each of the M + 1 steps adds at most about
    # 2 eps sum_j |c_j| t^(2j); twice that covers the float coefficients too
    magnitude = horner([abs(float(c)) for c in coeffs], times * times)
    rounding = 4 * (order + 1) * 2.0**-52 * magnitude
    window = (tails <= 1e-10) & (rounding <= 1e-10)
    n_sites = choose_chain_length(k, tmax, 1e-10, k0=k0)
    reference = ChebyshevAlpha(ChainSpec(k0, k, n_sites))(times)
    assert window[0]
    assert np.max(np.abs(values - reference)[window]) < 1e-9


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_series(1, 1, order=-1)
    with pytest.raises(ValueError):
        build_series(-1, 1)
    with pytest.raises(ValueError):
        evaluate_series(build_series(1, 1, order=1), 0.5)
    for k0_sq, k_sq in ((-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            build_series(k0_sq, k_sq, 2)
    # nan and both infinities, in every coupling argument
    for bad in (math.inf, -math.inf, math.nan):
        for call in (
            lambda: build_series(bad, 1),
            lambda: build_series(1, bad),
            lambda: hypergeometric_coefficient(2, bad),
            lambda: hypergeometric_coefficient(2, 1, bad),
        ):
            with pytest.raises(ValueError, match="rational"):
                call()


def test_alpha_z_squares():
    assert alpha_z(1.0) == 1.0
    assert alpha_z(0.0) == 0.0
    assert alpha_z(0.5) == 0.25
